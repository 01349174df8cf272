//! Seeded nemesis: randomized fault schedules checked for linearizability.
//!
//! Jepsen-style robustness testing for the simulated protocols: a nemesis
//! derives a randomized — but fully seed-determined — [`FaultPlan`] for a
//! cluster (crashes of a minority, single-node partitions, flaky and slow
//! links), runs a protocol under it with every operation recorded, and feeds
//! the completed history through [`check_linearizability`]. Strongly
//! consistent protocols must come out anomaly-free under *every* schedule;
//! progress is guaranteed by construction because every schedule heals at
//! 75% of the run and leaves the tail fault-free for re-election and client
//! retries.
//!
//! Determinism is the point: the schedule is a pure function of
//! `(seed, cluster, horizon, episodes)`, and the simulator itself is
//! deterministic, so a failing seed can be replayed bit-for-bit (see the
//! "Chaos & nemesis runs" section of `EXPERIMENTS.md`). The
//! [`NemesisSchedule::digest`] fingerprint makes "same schedule" checkable
//! at a glance, and [`crate::scenario::Scenario::shrink`] delta-debugs a
//! failing schedule down to the fault windows that matter.
//!
//! This module is the schedule language only; [`crate::scenario`] runs a
//! schedule against a protocol and judges the result.

use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::faults::{CrashMode, FaultPlan, FaultWindow};
use paxi_core::id::NodeId;
use paxi_core::time::Nanos;
use paxi_storage::FsyncPolicy;

/// Tunables of one nemesis run — what every scenario constructor reads.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// Seed for the schedule *and* the simulation (all randomness).
    pub seed: u64,
    /// Number of fault episodes to place.
    pub episodes: usize,
    /// Keys in the workload's space (smaller = more contention).
    pub keys: u64,
    /// Closed-loop clients per zone.
    pub clients_per_zone: usize,
    /// What a crash episode does to its victim: [`CrashMode::Freeze`]
    /// retains memory across the outage; [`CrashMode::Amnesia`] wipes it, so
    /// replicas run with durable storage attached and recover by replaying
    /// their WAL.
    pub crash_mode: CrashMode,
    /// Fsync policy for the replicas' WALs. Only consulted under
    /// [`CrashMode::Amnesia`] (freeze runs keep replicas volatile, matching
    /// the original chaos layer).
    pub fsync: FsyncPolicy,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            seed: 1,
            episodes: 5,
            keys: 8,
            clients_per_zone: 2,
            crash_mode: CrashMode::Freeze,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// One fault window of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Episode {
    /// `node` is down over the window, with the schedule's crash semantics.
    Crash {
        /// The victim.
        node: NodeId,
        /// Window start.
        at: Nanos,
        /// Window length.
        dur: Nanos,
    },
    /// `node` is cut off from every other node.
    Isolate {
        /// The victim.
        node: NodeId,
        /// Window start.
        at: Nanos,
        /// Window length.
        dur: Nanos,
    },
    /// No message passes between side `a` and side `b`.
    Cut {
        /// One side.
        a: Vec<NodeId>,
        /// The other.
        b: Vec<NodeId>,
        /// Window start.
        at: Nanos,
        /// Window length.
        dur: Nanos,
    },
    /// The link `src → dst` loses each message with probability `p`.
    Flaky {
        /// Sending end.
        src: NodeId,
        /// Receiving end.
        dst: NodeId,
        /// Loss probability.
        p: f64,
        /// Window start.
        at: Nanos,
        /// Window length.
        dur: Nanos,
    },
    /// The link `src → dst` delivers `delay` late.
    Slow {
        /// Sending end.
        src: NodeId,
        /// Receiving end.
        dst: NodeId,
        /// Added delay.
        delay: Nanos,
        /// Window start.
        at: Nanos,
        /// Window length.
        dur: Nanos,
    },
}

/// A fault schedule: its episodes, and the plan and human-readable steps
/// derived from them.
#[derive(Debug, Clone)]
pub struct NemesisSchedule {
    /// The machine-consumable plan.
    pub plan: FaultPlan,
    /// One line per episode (plus the closing heal), for logs and replay.
    pub steps: Vec<String>,
    /// Crash semantics the schedule's crash episodes carry.
    pub mode: CrashMode,
    /// The fault windows the plan was built from, in step order.
    pub episodes: Vec<Episode>,
    nodes: Vec<NodeId>,
    heal_at: Nanos,
}

impl NemesisSchedule {
    /// The schedule that applies `episodes` to `cluster` and heals
    /// everything at `heal_at`.
    pub fn of(
        episodes: Vec<Episode>,
        cluster: &ClusterConfig,
        heal_at: Nanos,
        mode: CrashMode,
    ) -> Self {
        Self::build(episodes, cluster.all_nodes(), heal_at, mode)
    }

    fn build(episodes: Vec<Episode>, nodes: Vec<NodeId>, heal_at: Nanos, mode: CrashMode) -> Self {
        let mut plan = FaultPlan::new();
        let mut steps = Vec::new();
        for e in &episodes {
            steps.push(match e {
                Episode::Crash { node, at, dur } => {
                    plan.crash_mode_in(*node, FaultWindow::new(*at, *dur), mode);
                    let mode = mode.label();
                    format!("crash mode={mode} node={node} at={} dur={}", at.0, dur.0)
                }
                Episode::Isolate { node, at, dur } => {
                    let rest: Vec<NodeId> = nodes.iter().copied().filter(|x| x != node).collect();
                    plan.partition(&[*node], &rest, *at, *dur);
                    format!("isolate node={node} at={} dur={}", at.0, dur.0)
                }
                Episode::Cut { a, b, at, dur } => {
                    plan.partition(a, b, *at, *dur);
                    format!("cut a={a:?} b={b:?} at={} dur={}", at.0, dur.0)
                }
                Episode::Flaky {
                    src,
                    dst,
                    p,
                    at,
                    dur,
                } => {
                    plan.flaky_link(*src, *dst, *p, *at, *dur);
                    format!(
                        "flaky src={src} dst={dst} p={p:.3} at={} dur={}",
                        at.0, dur.0
                    )
                }
                Episode::Slow {
                    src,
                    dst,
                    delay,
                    at,
                    dur,
                } => {
                    plan.slow_link(*src, *dst, *delay, *at, *dur);
                    let delay = delay.0;
                    format!(
                        "slow src={src} dst={dst} delay={delay} at={} dur={}",
                        at.0, dur.0
                    )
                }
            });
        }
        plan.heal(heal_at);
        steps.push(format!("heal at={}", heal_at.0));
        NemesisSchedule {
            plan,
            steps,
            mode,
            episodes,
            nodes,
            heal_at,
        }
    }

    /// This schedule with only the episodes at positions `keep`.
    pub fn only(&self, keep: &[usize]) -> Self {
        let episodes = keep.iter().map(|&i| self.episodes[i].clone()).collect();
        Self::build(episodes, self.nodes.clone(), self.heal_at, self.mode)
    }

    /// When everything heals; the fault-free tail starts here.
    pub fn heal_at(&self) -> Nanos {
        self.heal_at
    }

    /// Fingerprint ([`digest_lines`]) of the crash mode and the step list —
    /// equal digests mean the same schedule *with the same crash semantics*
    /// was generated (the determinism tests assert this). The mode is folded
    /// in first and each crash step also carries its mode label, so a freeze
    /// schedule and its amnesia twin never collide; link fates (drop
    /// probability, slow delay) are part of the step strings and thus of the
    /// digest too.
    pub fn digest(&self) -> u64 {
        digest_lines(
            std::iter::once(self.mode.label()).chain(self.steps.iter().map(String::as_str)),
        )
    }
}

/// FNV-1a over `lines`, each closed by a newline — the one fold behind every
/// schedule and verdict digest.
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Derives a randomized fault schedule over `[0, horizon)` from `seed`.
///
/// Placement rules keep every schedule *survivable*:
///
/// * episodes start in `[horizon/20, horizon·7/10)` and last between
///   `horizon/20` and `horizon/4`;
/// * at most a minority of nodes is ever subject to crashing;
/// * everything heals at `horizon·3/4`, leaving the tail clean.
pub fn generate_schedule(
    seed: u64,
    cluster: &ClusterConfig,
    horizon: Nanos,
    episodes: usize,
) -> NemesisSchedule {
    generate_schedule_with_mode(seed, cluster, horizon, episodes, CrashMode::Freeze)
}

/// [`generate_schedule`] with explicit crash semantics: episode placement is
/// identical for both modes under the same seed (the mode is not consumed
/// from the randomness stream), so a freeze schedule and its amnesia twin
/// differ *only* in what a crash does to its victim — the cleanest A/B for
/// durability experiments.
pub fn generate_schedule_with_mode(
    seed: u64,
    cluster: &ClusterConfig,
    horizon: Nanos,
    episodes: usize,
    mode: CrashMode,
) -> NemesisSchedule {
    let nodes = cluster.all_nodes();
    let n = nodes.len();
    let mut rng = Rng64::seed(seed ^ 0x4E4D_4553_4953); // "NEMESIS"
    let mut placed = Vec::new();

    let earliest = Nanos(horizon.0 / 20);
    let latest_start = Nanos(horizon.0 * 7 / 10);
    let heal_at = Nanos(horizon.0 * 3 / 4);
    let max_crashes = (n.saturating_sub(1)) / 2;
    let mut crashes_used = 0usize;

    for _ in 0..episodes {
        let at = Nanos(earliest.0 + rng.below((latest_start.0 - earliest.0).max(1)));
        let dur = Nanos(horizon.0 / 20 + rng.below((horizon.0 / 5).max(1)));
        let mut kind = rng.below(4);
        if kind == 0 && crashes_used >= max_crashes {
            kind = 3; // crash quota exhausted: degrade to a slow link
        }
        placed.push(match kind {
            0 => {
                crashes_used += 1;
                let node = nodes[rng.below(n as u64) as usize];
                Episode::Crash { node, at, dur }
            }
            1 => {
                let node = nodes[rng.below(n as u64) as usize];
                Episode::Isolate { node, at, dur }
            }
            2 => {
                let (src, dst) = distinct_pair(&nodes, &mut rng);
                let p = 0.1 + 0.4 * rng.next_f64();
                Episode::Flaky {
                    src,
                    dst,
                    p,
                    at,
                    dur,
                }
            }
            _ => {
                let (src, dst) = distinct_pair(&nodes, &mut rng);
                let delay = Nanos::millis(1 + rng.below(4));
                Episode::Slow {
                    src,
                    dst,
                    delay,
                    at,
                    dur,
                }
            }
        });
    }
    NemesisSchedule::of(placed, cluster, heal_at, mode)
}

/// The repair case no random schedule is sure to hit: `lagging` is cut off
/// from everyone for the first third of the faulty stretch — long after
/// every peer's window has left behind what it missed — and then, until
/// the heal, is the hub of a star whose spokes cannot talk to each other:
/// the only node that can still gather a quorum. It must be brought up to
/// date by state transfer and then lead.
pub fn lagging_then_only_electable(
    cluster: &ClusterConfig,
    horizon: Nanos,
    lagging: NodeId,
    mode: CrashMode,
) -> NemesisSchedule {
    let heal_at = Nanos(horizon.0 * 3 / 4);
    let (from, back) = (Nanos(horizon.0 / 10), Nanos(horizon.0 / 3));
    let spokes: Vec<NodeId> = cluster
        .all_nodes()
        .into_iter()
        .filter(|n| *n != lagging)
        .collect();
    let dark = Episode::Isolate {
        node: lagging,
        at: from,
        dur: back - from,
    };
    let star = (1..spokes.len()).map(|i| Episode::Cut {
        a: spokes[..i].to_vec(),
        b: vec![spokes[i]],
        at: back,
        dur: heal_at - back,
    });
    NemesisSchedule::of(
        std::iter::once(dark).chain(star).collect(),
        cluster,
        heal_at,
        mode,
    )
}

fn distinct_pair(nodes: &[NodeId], rng: &mut Rng64) -> (NodeId, NodeId) {
    let a = rng.below(nodes.len() as u64) as usize;
    let mut b = rng.below(nodes.len() as u64 - 1) as usize;
    if b >= a {
        b += 1;
    }
    (nodes[a], nodes[b])
}

/// Delta debugging (Zeller's ddmin): the smallest subset of `set` for which
/// `fails` still holds, to the granularity of single elements. `fails(set)`
/// is taken as given.
pub fn ddmin(mut set: Vec<usize>, fails: impl Fn(&[usize]) -> bool) -> Vec<usize> {
    let mut n = 2;
    while set.len() >= 2 {
        let parts: Vec<&[usize]> = set.chunks(set.len().div_ceil(n)).collect();
        let without = |i: usize| -> Vec<usize> {
            let rest = parts.iter().enumerate().filter(|(j, _)| *j != i);
            rest.flat_map(|(_, p)| p.iter().copied()).collect()
        };
        if let Some(part) = parts.iter().find(|p| fails(p)) {
            (set, n) = (part.to_vec(), 2);
        } else if let Some(rest) = (0..parts.len()).map(without).find(|r| fails(r)) {
            (set, n) = (rest, (n - 1).max(2));
        } else if n < set.len() {
            n = (2 * n).min(set.len());
        } else {
            break;
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cluster = ClusterConfig::lan(5);
        let a = generate_schedule(7, &cluster, Nanos::secs(6), 5);
        let b = generate_schedule(7, &cluster, Nanos::secs(6), 5);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.digest(), b.digest());
        let c = generate_schedule(8, &cluster, Nanos::secs(6), 5);
        assert_ne!(a.digest(), c.digest(), "different seed, different schedule");
    }

    #[test]
    fn digest_distinguishes_crash_semantics() {
        // Regression: the fingerprint once hashed only the step list, so a
        // freeze schedule and its amnesia twin (identical placement, same
        // seed) collided. Mode is now folded into the digest directly and
        // via the crash step labels.
        let cluster = ClusterConfig::lan(5);
        let horizon = Nanos::secs(6);
        let schedule = |seed, mode| generate_schedule_with_mode(seed, &cluster, horizon, 5, mode);
        // The first seed whose schedule places a crash episode: which seeds
        // do depends on the generator, so none is hard-coded.
        let seed = (0..64)
            .find(|&s| {
                let steps = schedule(s, CrashMode::Freeze).steps;
                steps.iter().any(|l| l.starts_with("crash"))
            })
            .expect("no seed in 0..64 places a crash episode");
        let freeze = schedule(seed, CrashMode::Freeze);
        let amnesia = schedule(seed, CrashMode::Amnesia);
        assert_ne!(
            freeze.digest(),
            amnesia.digest(),
            "crash semantics must not collide"
        );
        // Same mode stays deterministic.
        let again = schedule(seed, CrashMode::Amnesia);
        assert_eq!(amnesia.digest(), again.digest());
        // Placement is mode-independent: only the crash lines differ.
        assert_eq!(freeze.steps.len(), amnesia.steps.len());
        for (f, a) in freeze.steps.iter().zip(&amnesia.steps) {
            if f.starts_with("crash") {
                assert!(a.starts_with("crash mode=amnesia"));
            } else {
                assert_eq!(f, a);
            }
        }
    }

    #[test]
    fn ddmin_finds_the_windows_that_matter() {
        use std::cell::Cell;
        // The run fails exactly when windows 2 and 5 are both present.
        let runs = Cell::new(0);
        let fails = |keep: &[usize]| {
            runs.set(runs.get() + 1);
            keep.contains(&2) && keep.contains(&5)
        };
        assert_eq!(ddmin((0..8).collect(), fails), vec![2, 5]);
        assert!(runs.get() < 40, "{} runs for 8 windows", runs.get());
        // One culprit; and a failure that needs no fault at all shrinks as
        // far as single windows go.
        assert_eq!(ddmin((0..5).collect(), |k| k.contains(&3)), vec![3]);
        assert_eq!(ddmin((0..5).collect(), |_| true).len(), 1);
    }

    #[test]
    fn a_sub_schedule_keeps_the_chosen_windows_and_the_heal() {
        let cluster = ClusterConfig::lan(5);
        let full = generate_schedule(8, &cluster, Nanos::secs(4), 5);
        let sub = full.only(&[1, 3]);
        let kept: Vec<&String> = [1, 3, 5].iter().map(|&i| &full.steps[i]).collect();
        assert_eq!(sub.steps.iter().collect::<Vec<_>>(), kept);
        assert_eq!(full.only(&[0, 1, 2, 3, 4]).digest(), full.digest());
    }

    #[test]
    fn the_lagging_node_ends_up_the_only_one_with_a_quorum() {
        let cluster = ClusterConfig::lan(5);
        let nodes = cluster.all_nodes();
        let horizon = Nanos::secs(4);
        let s = lagging_then_only_electable(&cluster, horizon, nodes[3], CrashMode::Freeze);
        let mut rng = Rng64::seed(1);
        let mut reaches = |a: NodeId, b: NodeId, t: Nanos| {
            let there = s.plan.message_fate(a, b, t, &mut rng);
            let back = s.plan.message_fate(b, a, t, &mut rng);
            let open = |f| matches!(f, paxi_core::faults::MsgFate::Deliver { .. });
            open(there) && open(back)
        };
        let (dark, star, healed) = (
            Nanos::millis(800),
            Nanos::millis(2_000),
            Nanos::millis(3_500),
        );
        for &a in &nodes {
            for &b in nodes.iter().filter(|b| **b != a) {
                let hub = a == nodes[3] || b == nodes[3];
                assert_eq!(reaches(a, b, dark), !hub, "{a}-{b} while dark");
                assert_eq!(reaches(a, b, star), hub, "{a}-{b} in the star");
                assert!(reaches(a, b, healed));
            }
        }
    }

    #[test]
    fn schedules_never_crash_a_majority() {
        let cluster = ClusterConfig::lan(5);
        for seed in 0..50 {
            let s = generate_schedule(seed, &cluster, Nanos::secs(6), 12);
            let crashes = s.steps.iter().filter(|l| l.starts_with("crash")).count();
            assert!(crashes <= 2, "seed {seed}: {crashes} crash episodes");
        }
    }

    #[test]
    fn schedules_heal_before_the_tail() {
        let cluster = ClusterConfig::lan(5);
        let horizon = Nanos::secs(6);
        let s = generate_schedule(3, &cluster, horizon, 8);
        let heal = Nanos(horizon.0 * 3 / 4);
        // After the heal point no crash window is active and every message
        // fate is a plain delivery.
        let mut rng = Rng64::seed(9);
        let nodes = cluster.all_nodes();
        for &node in &nodes {
            assert!(!s.plan.is_crashed(node, heal));
            assert!(!s.plan.is_crashed(node, horizon));
        }
        for &a in &nodes {
            for &b in &nodes {
                if a == b {
                    continue;
                }
                match s.plan.message_fate(a, b, heal, &mut rng) {
                    paxi_core::faults::MsgFate::Deliver { extra_delay } => {
                        assert_eq!(extra_delay, Nanos::ZERO)
                    }
                    other => panic!("fault active after heal: {a}->{b} {other:?}"),
                }
            }
        }
    }
}
