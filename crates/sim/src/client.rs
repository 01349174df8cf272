//! Simulated clients and the workload interface.
//!
//! Clients attach to one replica (normally in their own zone, like Paxi's
//! RESTful clients attaching to the nearest node) and drive load in one of
//! two modes:
//!
//! * **Closed loop** — a client keeps exactly one request outstanding,
//!   issuing the next one `think` after the previous response. Sweeping the
//!   number of closed-loop clients is how the paper pushes systems to
//!   saturation.
//! * **Open loop** — requests arrive as a Poisson process of the given rate
//!   regardless of outstanding responses; this matches the arrival
//!   assumption of the queueing models and is used to cross-validate them.

use paxi_core::command::Command;
use paxi_core::config::ClusterConfig;
use paxi_core::dist::Rng64;
use paxi_core::id::{ClientId, NodeId};
use paxi_core::membership::{reconfig_command, ConfigChange};
use paxi_core::migration::{migration_command, MigrationRecord, MigrationSpec};
use paxi_core::time::Nanos;

/// How a client issues requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// One outstanding request; next issued `think` after each response.
    Closed {
        /// Think time between response and next request.
        think: Nanos,
    },
    /// Poisson arrivals at `rate` requests/second, independent of responses.
    Open {
        /// Mean request rate in requests per second.
        rate: f64,
    },
}

/// Static description of one simulated client.
#[derive(Debug, Clone)]
pub struct ClientSetup {
    /// The zone the client lives in (determines its network latency).
    pub zone: u8,
    /// The replica it sends requests to.
    pub attach: NodeId,
    /// Its load mode.
    pub mode: LoadMode,
}

impl ClientSetup {
    /// `count` closed-loop clients in every zone, attached round-robin to
    /// the replicas of their zone, with zero think time.
    pub fn closed_per_zone(cluster: &ClusterConfig, count: usize) -> Vec<ClientSetup> {
        let mut v = Vec::new();
        for z in 0..cluster.zones {
            for i in 0..count {
                v.push(ClientSetup {
                    zone: z,
                    attach: NodeId::new(z, (i % cluster.per_zone as usize) as u8),
                    mode: LoadMode::Closed { think: Nanos::ZERO },
                });
            }
        }
        v
    }

    /// `count` closed-loop clients in a single zone.
    pub fn closed_in_zone(cluster: &ClusterConfig, zone: u8, count: usize) -> Vec<ClientSetup> {
        (0..count)
            .map(|i| ClientSetup {
                zone,
                attach: NodeId::new(zone, (i % cluster.per_zone as usize) as u8),
                mode: LoadMode::Closed { think: Nanos::ZERO },
            })
            .collect()
    }

    /// A single open-loop client in zone 0 at `rate` req/s — the setup used
    /// to validate the queueing models (Figure 4).
    pub fn open_single(rate: f64) -> Vec<ClientSetup> {
        vec![ClientSetup {
            zone: 0,
            attach: NodeId::new(0, 0),
            mode: LoadMode::Open { rate },
        }]
    }
}

/// A workload generates the next command for a client. Implemented by the
/// generators in `paxi-bench`; closures work too.
pub trait Workload {
    /// Produces the command for the `seq`-th request of `client` in `zone`,
    /// issued at (virtual or wall-clock) time `now` — the timestamp lets
    /// workloads implement time-varying patterns like a moving hotspot.
    fn next(
        &mut self,
        client: ClientId,
        zone: u8,
        seq: u64,
        now: Nanos,
        rng: &mut Rng64,
    ) -> Command;
}

impl<F: FnMut(ClientId, u8, u64, Nanos, &mut Rng64) -> Command> Workload for F {
    fn next(
        &mut self,
        client: ClientId,
        zone: u8,
        seq: u64,
        now: Nanos,
        rng: &mut Rng64,
    ) -> Command {
        self(client, zone, seq, now, rng)
    }
}

/// A trivial workload: 50/50 read/write over `k` uniformly random keys, with
/// unique write payloads (client id + sequence encoded as 12 bytes) so the
/// linearizability checker can identify every write.
pub fn uniform_workload(k: u64) -> impl Workload {
    move |client: ClientId, _zone: u8, seq: u64, _now: Nanos, rng: &mut Rng64| {
        let key = rng.below(k);
        if rng.chance(0.5) {
            Command::get(key)
        } else {
            Command::put(key, unique_value(client, seq))
        }
    }
}

/// Wraps a workload so that one designated client submits a control
/// command — a membership change, a shard migration's kick-off (the
/// replicated `MigrationStart` record, routed to the source group; the
/// remaining phases are driven server-side) — once virtual time reaches
/// `at`. Every other request, and every other client, passes through to the
/// inner workload untouched.
///
/// The command is re-submitted every [`KickoffWorkload::REFIRE_EVERY`]-th
/// request of the designated client: a lone submission can be eaten by a
/// crashed leader, and the simulator's retry machinery abandons lost
/// requests rather than re-sending them. Re-fires are safe by construction:
/// an applied change decodes as a no-op against the current membership, and
/// a `Start` for an id the tracker already carries is an acknowledged no-op.
///
/// A command that would change nothing (a no-op change, an invalid spec) is
/// elided entirely: the wrapper is then bit-identical to the inner workload,
/// which is what the determinism fingerprints assert.
pub struct KickoffWorkload<W> {
    inner: W,
    client: ClientId,
    at: Nanos,
    /// `None` when elided.
    cmd: Option<Command>,
    fired: u64,
    since_fire: u64,
}

impl<W: Workload> KickoffWorkload<W> {
    /// The designated client re-submits the command every this-many of its
    /// own requests (first submission at `at`, then on this cadence).
    pub const REFIRE_EVERY: u64 = 8;

    /// Wraps `inner` so `client` submits `cmd`, if any, starting at the
    /// first request it issues at or after `at`.
    fn new(inner: W, client: ClientId, at: Nanos, cmd: Option<Command>) -> Self {
        KickoffWorkload {
            inner,
            client,
            at,
            cmd,
            fired: 0,
            since_fire: 0,
        }
    }

    /// Submits `change`; elided when it is a no-op on `initial`, the
    /// membership the cluster starts with.
    pub fn reconfig(
        inner: W,
        client: ClientId,
        at: Nanos,
        change: &ConfigChange,
        initial: &[NodeId],
    ) -> Self {
        let cmd = (!change.is_noop_on(initial)).then(|| reconfig_command(change));
        Self::new(inner, client, at, cmd)
    }

    /// Submits `MigrationStart(spec)`; elided when `spec` is invalid (an
    /// empty range, or source == destination).
    pub fn migration(inner: W, client: ClientId, at: Nanos, spec: MigrationSpec) -> Self {
        let start = || migration_command(&MigrationRecord::Start(spec));
        Self::new(inner, client, at, spec.is_valid().then(start))
    }

    /// Whether the command has been issued at least once.
    pub fn fired(&self) -> bool {
        self.fired > 0
    }
}

impl<W: Workload> Workload for KickoffWorkload<W> {
    fn next(
        &mut self,
        client: ClientId,
        zone: u8,
        seq: u64,
        now: Nanos,
        rng: &mut Rng64,
    ) -> Command {
        let due = client == self.client && now >= self.at;
        if let Some(cmd) = self.cmd.as_ref().filter(|_| due) {
            if self.fired == 0 || self.since_fire + 1 >= Self::REFIRE_EVERY {
                self.fired += 1;
                self.since_fire = 0;
                return cmd.clone();
            }
            self.since_fire += 1;
        }
        self.inner.next(client, zone, seq, now, rng)
    }
}

/// Encodes `(client, seq)` into a 12-byte unique value.
pub fn unique_value(client: ClientId, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&client.0.to_be_bytes());
    v.extend_from_slice(&seq.to_be_bytes());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_per_zone_spreads_over_zone_replicas() {
        let c = ClusterConfig::wan(3, 3);
        let clients = ClientSetup::closed_per_zone(&c, 5);
        assert_eq!(clients.len(), 15);
        for cl in &clients {
            assert_eq!(cl.attach.zone, cl.zone);
        }
        // Round-robin: 5 clients over 3 replicas covers all of them.
        let zone0: Vec<u8> = clients
            .iter()
            .filter(|c| c.zone == 0)
            .map(|c| c.attach.node)
            .collect();
        assert_eq!(zone0, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn unique_values_are_unique() {
        let a = unique_value(ClientId(1), 1);
        let b = unique_value(ClientId(1), 2);
        let c = unique_value(ClientId(2), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 12);
    }

    /// A membership change and a migration kick-off: two that do something,
    /// or two that change nothing (adding a member while removing a
    /// non-member; a hand-off from a group to itself) and are elided.
    fn kickoffs(at: Nanos, effective: bool) -> [KickoffWorkload<impl Workload>; 2] {
        use paxi_core::group::GroupId;
        use paxi_core::migration::KeyRange;
        let (node, to) = if effective { (2, 1) } else { (1, 0) };
        let members = [NodeId::new(0, 0), NodeId::new(0, 1)];
        let change = ConfigChange {
            add: vec![NodeId::new(0, node)],
            remove: vec![NodeId::new(0, 9)],
        };
        let spec = MigrationSpec {
            id: 1,
            from: GroupId(0),
            to: GroupId(to),
            range: KeyRange::new(2, 4),
            epoch: 1,
        };
        let (load, chosen) = (uniform_workload, ClientId(0));
        [
            KickoffWorkload::reconfig(load(10), chosen, at, &change, &members),
            KickoffWorkload::migration(load(10), chosen, at, spec),
        ]
    }

    fn is_control(cmd: &Command) -> bool {
        use paxi_core::membership::CONFIG_KEY;
        use paxi_core::migration::MIGRATION_KEY;
        cmd.key == CONFIG_KEY || cmd.key == MIGRATION_KEY
    }

    #[test]
    fn a_kickoff_fires_at_its_time_then_refires_on_cadence() {
        let chosen = ClientId(0);
        for mut w in kickoffs(Nanos::millis(5), true) {
            let mut rng = Rng64::seed(1);
            // Before `at`: pure passthrough.
            assert!(!is_control(&w.next(chosen, 0, 0, Nanos::ZERO, &mut rng)));
            assert!(!w.fired());
            // At `at`: the designated client submits the command, then
            // refires every REFIRE_EVERY-th of its own requests.
            let fires = (1..=32u64)
                .filter(|seq| is_control(&w.next(chosen, 0, *seq, Nanos::millis(6), &mut rng)))
                .count();
            assert!(w.fired());
            assert_eq!(fires, 4, "1 kick-off + refires every 8th over 32 reqs");
            // Other clients are never hijacked.
            for seq in 0..32u64 {
                let cmd = w.next(ClientId(7), 0, seq, Nanos::millis(9), &mut rng);
                assert!(!is_control(&cmd));
            }
        }
    }

    #[test]
    fn a_kickoff_that_changes_nothing_is_elided() {
        for mut w in kickoffs(Nanos::ZERO, false) {
            let mut plain = uniform_workload(10);
            let (mut ra, mut rb) = (Rng64::seed(9), Rng64::seed(9));
            for seq in 0..64u64 {
                let a = w.next(ClientId(0), 0, seq, Nanos::secs(1), &mut ra);
                let b = plain.next(ClientId(0), 0, seq, Nanos::secs(1), &mut rb);
                assert_eq!(a, b, "elided wrapper must be bit-identical to inner");
            }
            assert!(!w.fired());
        }
    }

    #[test]
    fn closure_workload_is_a_workload() {
        let mut w = uniform_workload(10);
        let mut rng = Rng64::seed(1);
        let mut writes = 0;
        for seq in 0..1000 {
            let cmd = w.next(ClientId(0), 0, seq, Nanos::ZERO, &mut rng);
            assert!(cmd.key < 10);
            if cmd.is_write() {
                writes += 1;
            }
        }
        assert!((350..650).contains(&writes), "write ratio ~50%: {}", writes);
    }
}
