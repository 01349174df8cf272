//! Analytic performance models of the studied protocols (paper §3).
//!
//! Each model estimates, for a target system-wide arrival rate λ (rounds per
//! second), the mean client-perceived round latency
//!
//! ```text
//! Latency = Wq + ts + DL + DQ
//! ```
//!
//! where `Wq` is the queue wait at the bottleneck node (from
//! [`crate::queueing`]), `ts` the round service time, `DL` the client↔leader
//! RTT and `DQ` the RTT of the reply that completes the quorum (from
//! [`crate::orderstat`]). Latency curves end where the bottleneck node
//! saturates, which also defines each protocol's maximum throughput.
//!
//! All models assume full replication (leaders broadcast to all N−1 peers)
//! and uniformly spread client load, as the paper does. A service time is
//! the [`Work`] of the messages the replica exchanges, priced by the
//! deployment's cost model — the function the simulator charges too.

use crate::messages::{epaxos_leader_fast, paxos_leader};
use crate::orderstat::{kth_of_n_normal, kth_smallest_rtt};
use crate::params::Deployment;
use crate::queueing::{wait_time, QueueKind};
use paxi_core::cost::Work;

/// Monte Carlo iterations for LAN order statistics.
const OS_ITERS: usize = 4_000;
const OS_SEED: u64 = 0x9a_c1;

/// A protocol performance model: latency as a function of load, and the
/// saturation throughput.
pub trait PerfModel {
    /// Display name for tables/figures.
    fn name(&self) -> String;

    /// Mean round latency in **milliseconds** at system arrival rate
    /// `lambda` (rounds/s), or `None` once the bottleneck node saturates.
    fn latency_ms(&self, d: &Deployment, lambda: f64) -> Option<f64>;

    /// Maximum sustainable system throughput (rounds/s).
    fn max_throughput(&self, d: &Deployment) -> f64;

    /// Latency-vs-throughput curve over `points` samples up to saturation —
    /// the series plotted in the paper's Figures 4, 8, and 10.
    fn curve(&self, d: &Deployment, points: usize) -> Vec<(f64, f64)> {
        let cap = self.max_throughput(d);
        let mut out = Vec::with_capacity(points);
        for i in 1..=points {
            let lambda = cap * i as f64 / (points as f64 + 0.5);
            if let Some(lat) = self.latency_ms(d, lambda) {
                out.push((lambda, lat));
            }
        }
        out
    }
}

/// Expected quorum-completing RTT (ms) for a leader in `zone` waiting for
/// `k` follower replies.
fn dq_ms(d: &Deployment, zone: usize, k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let rtts = d.follower_rtts(zone);
    if d.cluster.zones == 1 {
        // LAN: i.i.d. Normal RTTs -> Monte Carlo k-order statistic.
        let std = d.topology.lan_std_ms();
        kth_of_n_normal(k, rtts.len(), d.rtt(0, 0), std, OS_ITERS, OS_SEED)
    } else {
        // WAN: heterogeneous means -> k-th smallest mean RTT.
        kth_smallest_rtt(&rtts, k)
    }
}

/// Mean client→leader RTT (ms) when clients are uniformly spread over zones
/// and the leader sits in `leader_zone`.
fn mean_dl_ms(d: &Deployment, leader_zone: usize) -> f64 {
    let zones = d.cluster.zones as usize;
    (0..zones).map(|z| d.rtt(z, leader_zone)).sum::<f64>() / zones as f64
}

/// `inputs` messages in and one message serialized for `sent` recipients.
fn exchange(inputs: u64, sent: u64) -> Work {
    Work {
        inputs,
        serializations: 1,
        transmissions: sent,
        ..Work::default()
    }
}

/// Mean and variance of a node's per-arrival service time when it leads a
/// share `pl` of the rounds (`lead` each) and follows the rest (`follow`).
fn moments(pl: f64, lead: f64, follow: f64) -> (f64, f64) {
    let mean = pl * lead + (1.0 - pl) * follow;
    let m2 = pl * lead * lead + (1.0 - pl) * follow * follow;
    (mean, (m2 - mean * mean).max(0.0))
}

/// Single-leader MultiPaxos / FPaxos model.
#[derive(Debug, Clone)]
pub struct PaxosModel {
    /// Zone hosting the stable leader.
    pub leader_zone: usize,
    /// Phase-2 quorum size including the leader; `None` = majority.
    pub q2: Option<usize>,
    /// Queueing approximation (the paper settles on M/D/1).
    pub queue: QueueKind,
}

impl PaxosModel {
    /// MultiPaxos with a majority quorum, leader in zone 0, M/D/1 queue.
    pub fn multi_paxos() -> Self {
        PaxosModel {
            leader_zone: 0,
            q2: None,
            queue: QueueKind::MD1,
        }
    }

    /// FPaxos with phase-2 quorum size `q2`.
    pub fn fpaxos(q2: usize) -> Self {
        PaxosModel {
            q2: Some(q2),
            ..Self::multi_paxos()
        }
    }

    /// Same model with the leader placed in `zone` (the paper's Figure 10
    /// places it in California).
    pub fn with_leader_zone(mut self, zone: usize) -> Self {
        self.leader_zone = zone;
        self
    }

    /// Same model under a different queueing approximation (Figure 4).
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    fn q2_size(&self, d: &Deployment) -> usize {
        self.q2.unwrap_or_else(|| d.majority())
    }

    /// The leader's service time per round, seconds. An FPaxos leader
    /// still sends to and hears from every peer, so `q2` leaves it alone.
    pub fn service_time(&self, d: &Deployment) -> f64 {
        d.service_time(&paxos_leader(d.n() as u64).work())
    }
}

impl PerfModel for PaxosModel {
    fn name(&self) -> String {
        match self.q2 {
            Some(q) => format!("FPaxos(|q2|={q})"),
            None => "MultiPaxos".to_string(),
        }
    }

    fn latency_ms(&self, d: &Deployment, lambda: f64) -> Option<f64> {
        let ts = self.service_time(d);
        let wq = wait_time(self.queue, lambda, ts)?;
        let dq = dq_ms(d, self.leader_zone, self.q2_size(d) - 1);
        let dl = mean_dl_ms(d, self.leader_zone);
        Some((wq + ts) * 1e3 + dl + dq)
    }

    fn max_throughput(&self, d: &Deployment) -> f64 {
        1.0 / self.service_time(d)
    }
}

/// EPaxos model: every node is an opportunistic leader; conflicts add a
/// second quorum round.
#[derive(Debug, Clone)]
pub struct EPaxosModel {
    /// Fraction of commands that conflict (`c` in the paper).
    pub conflict: f64,
}

impl EPaxosModel {
    /// Model at the given conflict rate.
    ///
    /// The model charges EPaxos's messages what it charges Paxos's: the
    /// paper's *model* keeps EPaxos message processing comparable to Paxos
    /// (which is why its modeled throughput beats Paxos even at 100%
    /// conflict, §5.2 and Figure 12); only the *experimental* EPaxos pays
    /// heavy dependency-processing costs, modeled in `paxi_bench::Proto::epaxos`.
    pub fn new(conflict: f64) -> Self {
        EPaxosModel { conflict }
    }

    /// Mean and variance of the per-arrival service time at one node.
    fn service_moments(&self, d: &Deployment) -> (f64, f64) {
        let n = d.n() as u64;
        let c = self.conflict;
        // Leading a round: the fast path; a conflict adds the slow path's
        // Accept broadcast and every peer's AcceptOk.
        let slow = d.service_time(&exchange(n - 1, n - 1));
        let lead = d.service_time(&epaxos_leader_fast(n).work()) + c * slow;
        // Someone else's round: PreAccept and Commit in, PreAcceptOk out; a
        // conflict adds Accept in, AcceptOk out.
        let follow = d.service_time(&exchange(2, 1)) + c * d.service_time(&exchange(1, 1));
        moments(1.0 / n as f64, lead, follow)
    }
}

impl PerfModel for EPaxosModel {
    fn name(&self) -> String {
        format!("EPaxos(c={:.2})", self.conflict)
    }

    fn latency_ms(&self, d: &Deployment, lambda: f64) -> Option<f64> {
        let (mean, var) = self.service_moments(d);
        // Every round visits every node, so each node sees the full λ.
        let wq = wait_time(QueueKind::MG1 { service_var: var }, lambda, mean)?;
        // Clients are local to their command leader: DL is one LAN RTT.
        let dl = d.rtt(0, 0);
        // Mean over leader zones of the fast / slow quorum waits.
        let fast_k = paxi_core::quorum::fast_quorum_size(d.n()) - 1;
        let slow_k = d.majority() - 1;
        let mut lat = 0.0;
        for z in 0..d.cluster.zones as usize {
            let dq_fast = dq_ms(d, z, fast_k);
            let dq_slow = dq_ms(d, z, slow_k);
            let per_zone = (1.0 - self.conflict) * dq_fast + self.conflict * (dq_fast + dq_slow);
            lat += per_zone;
        }
        lat /= d.cluster.zones as f64;
        Some((wq + mean) * 1e3 + dl + lat)
    }

    fn max_throughput(&self, d: &Deployment) -> f64 {
        1.0 / self.service_moments(d).0
    }
}

/// WPaxos model: one leader per zone, flexible grid quorums, locality-aware.
#[derive(Debug, Clone)]
pub struct WPaxosModel {
    /// Zone-failure tolerance (`fz`): 0 commits within the leader's zone.
    pub fz: usize,
    /// Per-zone node-failure tolerance (`f`).
    pub f: usize,
    /// Fraction of requests hitting keys owned by the local zone (`l`).
    pub locality: f64,
}

impl WPaxosModel {
    /// WPaxos with `fz = 0`, `f = ⌊per_zone/2⌋`-style default of 1, and the
    /// given locality.
    pub fn new(locality: f64) -> Self {
        WPaxosModel {
            fz: 0,
            f: 1,
            locality,
        }
    }

    fn service_moments(&self, d: &Deployment) -> (f64, f64) {
        // Own round: full-replication broadcast like Paxos. Follower duty
        // for other leaders' rounds: P2a in, P2b out (commits ride on the
        // next P2a and a periodic `CommitBatch`, a rate-based cost left out
        // like Raft's heartbeats).
        let lead = d.service_time(&paxos_leader(d.n() as u64).work());
        let follow = d.service_time(&exchange(1, 1));
        moments(1.0 / d.cluster.zones as f64, lead, follow)
    }
}

impl PerfModel for WPaxosModel {
    fn name(&self) -> String {
        format!("WPaxos(fz={}, l={:.1})", self.fz, self.locality)
    }

    fn latency_ms(&self, d: &Deployment, lambda: f64) -> Option<f64> {
        let (mean, var) = self.service_moments(d);
        // Each leader node sees every round (full replication), leading its
        // zone's 1/L share.
        let wq = wait_time(QueueKind::MG1 { service_var: var }, lambda, mean)?;
        let mut lat = 0.0;
        for z in 0..d.cluster.zones as usize {
            let mut others: Vec<f64> = (0..d.cluster.zones as usize)
                .filter(|&o| o != z)
                .map(|o| d.rtt(z, o))
                .collect();
            // Remote requests pay a forward to the owner zone (mean over
            // other zones).
            let dl_remote = if others.is_empty() {
                d.rtt(0, 0)
            } else {
                others.iter().sum::<f64>() / others.len() as f64
            };
            // DQ: f+1 acks from fz+1 zones. fz=0 -> in-zone (LAN) quorum;
            // fz>0 -> also the (fz)-th nearest other zone.
            others.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            let dq = if self.fz == 0 {
                d.rtt(z, z)
            } else {
                others[self.fz - 1]
            };
            let dl_local = d.rtt(z, z);
            lat += self.locality * (dl_local + dq) + (1.0 - self.locality) * (dl_remote + dq);
        }
        lat /= d.cluster.zones as f64;
        Some((wq + mean) * 1e3 + lat)
    }

    fn max_throughput(&self, d: &Deployment) -> f64 {
        1.0 / self.service_moments(d).0
    }
}

/// WanKeeper model: per-zone groups, contended objects executed at the
/// level-2 master.
#[derive(Debug, Clone)]
pub struct WanKeeperModel {
    /// Zone hosting the master group.
    pub master_zone: usize,
    /// Fraction of requests whose token is local to the requesting zone.
    pub locality: f64,
}

impl WanKeeperModel {
    /// Model with the given locality, master in zone 0.
    pub fn new(locality: f64) -> Self {
        WanKeeperModel {
            master_zone: 0,
            locality,
        }
    }

    fn group_service(&self, d: &Deployment) -> f64 {
        // Zone-local round: leader sends to its g-1 members and collects
        // acks, a Paxos round over the group — the hierarchical win:
        // g << N messages.
        d.service_time(&paxos_leader(d.cluster.per_zone as u64).work())
    }
}

impl PerfModel for WanKeeperModel {
    fn name(&self) -> String {
        format!("WanKeeper(l={:.1})", self.locality)
    }

    fn latency_ms(&self, d: &Deployment, lambda: f64) -> Option<f64> {
        let s = self.group_service(d);
        let zones = d.cluster.zones as f64;
        // Master handles its own zone's share plus all non-local rounds.
        let master_rate = lambda / zones + lambda * (1.0 - self.locality) * (zones - 1.0) / zones;
        let wq_master = wait_time(QueueKind::MD1, master_rate, s)?;
        let zone_rate = lambda * self.locality / zones;
        let wq_zone = wait_time(QueueKind::MD1, zone_rate, s)?;
        // In-group quorum wait is one LAN RTT.
        let mut lat = 0.0;
        for z in 0..d.cluster.zones as usize {
            let local = d.rtt(z, z) + d.rtt(z, z) + (wq_zone + s) * 1e3;
            let remote = d.rtt(z, self.master_zone)
                + d.rtt(self.master_zone, self.master_zone)
                + (wq_master + s) * 1e3;
            lat += self.locality * local + (1.0 - self.locality) * remote;
        }
        lat /= zones;
        Some(lat)
    }

    fn max_throughput(&self, d: &Deployment) -> f64 {
        let s = self.group_service(d);
        let zones = d.cluster.zones as f64;
        // The master saturates first unless locality is perfect.
        let master_share = 1.0 / zones + (1.0 - self.locality) * (zones - 1.0) / zones;
        (1.0 / s) / master_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::config::ClusterConfig;
    use paxi_core::topology::Topology;

    #[test]
    fn paxos_lan_saturates_near_8k() {
        let d = Deployment::lan(9);
        let m = PaxosModel::multi_paxos();
        let cap = m.max_throughput(&d);
        assert!((7_000.0..10_000.0).contains(&cap), "cap {cap}");
        // Low-load latency ~ DL + DQ ~ 2 LAN RTTs (~0.9 ms).
        let lat = m.latency_ms(&d, 100.0).unwrap();
        assert!((0.7..1.6).contains(&lat), "latency {lat} ms");
        // Latency explodes near saturation.
        let near = m.latency_ms(&d, cap * 0.98).unwrap();
        assert!(near > 3.0 * lat, "near-saturation latency {near}");
        assert!(m.latency_ms(&d, cap * 1.01).is_none());
    }

    #[test]
    fn fpaxos_small_quorum_shaves_latency_slightly_in_lan() {
        // The paper reports a ~0.03 ms LAN improvement for FPaxos |q2|=3.
        let d = Deployment::lan(9);
        let paxos = PaxosModel::multi_paxos().latency_ms(&d, 1000.0).unwrap();
        let fpaxos = PaxosModel::fpaxos(3).latency_ms(&d, 1000.0).unwrap();
        let gain = paxos - fpaxos;
        assert!(gain > 0.0, "FPaxos should be faster");
        assert!(gain < 0.15, "LAN gain should be small: {gain} ms");
    }

    #[test]
    fn wpaxos_outscales_paxos_by_50ish_percent() {
        // The paper's model showed ~55% higher max throughput for 3-leader
        // WPaxos over Paxos in LAN.
        let d = Deployment::lan(9);
        // Use a 3x3 "grid in a LAN" for WPaxos.
        let grid = Deployment {
            cluster: ClusterConfig::wan(3, 3),
            topology: Topology::lan_zones(3),
            ..Deployment::lan(9)
        };
        let paxos = PaxosModel::multi_paxos().max_throughput(&d);
        let wpaxos = WPaxosModel::new(1.0).max_throughput(&grid);
        let gain = wpaxos / paxos - 1.0;
        // The paper's model reports ~55%; ours lands somewhat higher because
        // our follower-duty cost is lighter, but well below the naive 3x the
        // load formula alone would suggest (see EXPERIMENTS.md).
        assert!((0.3..1.6).contains(&gain), "gain {gain}");
    }

    #[test]
    fn epaxos_throughput_degrades_with_conflict() {
        let d = Deployment::aws5(1);
        let t0 = EPaxosModel::new(0.0).max_throughput(&d);
        let t100 = EPaxosModel::new(1.0).max_throughput(&d);
        let drop = 1.0 - t100 / t0;
        // Paper Figure 12: "as much as 40% degradation".
        assert!((0.25..0.55).contains(&drop), "degradation {drop}");
    }

    #[test]
    fn epaxos_has_no_single_leader_bottleneck() {
        // Even at full conflict EPaxos max throughput beats Paxos (paper §5.2)
        // because load is spread over all nodes.
        let d = Deployment::lan(9);
        let paxos = PaxosModel::multi_paxos().max_throughput(&d);
        let epaxos = EPaxosModel::new(1.0).max_throughput(&d);
        assert!(epaxos > paxos, "epaxos {epaxos} vs paxos {paxos}");
    }

    #[test]
    fn wan_latency_ordering_matches_figure_10() {
        // WPaxos(l=0.7) < FPaxos(CA) < Paxos(CA) in mean latency; over 100ms
        // between slowest and fastest.
        let d = Deployment::aws5(1);
        let lam = 500.0;
        let paxos = PaxosModel::multi_paxos()
            .with_leader_zone(2)
            .latency_ms(&d, lam)
            .unwrap();
        let fpaxos = PaxosModel::fpaxos(2)
            .with_leader_zone(2)
            .latency_ms(&d, lam)
            .unwrap();
        let wpaxos = WPaxosModel {
            fz: 0,
            f: 0,
            locality: 0.7,
        }
        .latency_ms(&d, lam)
        .unwrap();
        assert!(wpaxos < fpaxos, "wpaxos {wpaxos} fpaxos {fpaxos}");
        assert!(fpaxos < paxos, "fpaxos {fpaxos} paxos {paxos}");
        assert!(paxos - wpaxos > 50.0, "spread {}", paxos - wpaxos);
    }

    #[test]
    fn wankeeper_master_zone_sees_local_latency() {
        let d = Deployment::aws3(3);
        let m = WanKeeperModel {
            master_zone: 1,
            locality: 0.0,
        };
        // With zero locality everything executes at the master; average
        // latency includes WAN hops for non-master zones.
        let lat = m.latency_ms(&d, 100.0).unwrap();
        assert!(lat > 10.0, "mean includes WAN forwards: {lat}");
        // With perfect locality everything is zone-local.
        let local = WanKeeperModel {
            master_zone: 1,
            locality: 1.0,
        }
        .latency_ms(&d, 100.0)
        .unwrap();
        assert!(local < 2.0, "all-local latency {local}");
    }

    #[test]
    fn curves_are_monotone_and_end_before_saturation() {
        let d = Deployment::lan(9);
        for model in [
            Box::new(PaxosModel::multi_paxos()) as Box<dyn PerfModel>,
            Box::new(EPaxosModel::new(0.2)),
            Box::new(WPaxosModel::new(1.0)),
        ] {
            let curve = model.curve(&d, 20);
            assert!(curve.len() >= 15, "{} curve too short", model.name());
            for w in curve.windows(2) {
                assert!(w[1].0 > w[0].0);
                assert!(
                    w[1].1 >= w[0].1 - 1e-9,
                    "{} latency not monotone",
                    model.name()
                );
            }
        }
    }
}
