//! WanKeeper: hierarchical two-level consensus with a token broker.
//!
//! WanKeeper stacks two Paxos layers. Level-1 Paxos groups — one per zone —
//! execute commands for the objects whose *token* their zone holds,
//! committing inside the zone with LAN latency. The level-2 master (a Paxos
//! group in a designated zone) brokers all token movement: when several
//! zones contend for the same object, the master retracts its token and
//! executes the contended commands itself at level-2; once access locality
//! settles to a single region the token is passed (back) down to that
//! region's group.
//!
//! Policy (the paper's behavior, §2 and Figures 11/13): the master watches
//! the stream of requests that reach it for each key. If the last
//! [`LOCALITY_WINDOW`](crate::groups::LOCALITY_WINDOW) requesters are all the
//! same zone, the token moves to that zone; while access is shared between
//! zones, the token stays at (or is retracted to) the master and commands
//! execute in the master's group — which is why, under conflict, the master
//! region enjoys local latency while other regions pay one WAN round trip.
//! Setting
//! [`WanKeeperConfig::shared_to_master`] to `false` instead *forwards*
//! non-holder requests to the current holder zone, a decentralized variant
//! useful in LAN deployments.

use crate::groups::{Kv, Locality, ZoneRep};
use paxi_core::command::{ClientRequest, ClientResponse, Command, Key, Value};
use paxi_core::config::ClusterConfig;
use paxi_core::id::NodeId;
use paxi_core::traits::{Context, Replica};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Tuning knobs for [`WanKeeper`].
#[derive(Debug, Clone)]
pub struct WanKeeperConfig {
    /// Zone hosting the level-2 master group.
    pub master_zone: u8,
    /// `true`: shared (mixed-zone) objects are retracted to and executed at
    /// the master — the paper's WAN behavior. `false`: non-holder requests
    /// are forwarded to the holder zone (decentralized LAN variant).
    pub shared_to_master: bool,
}

impl Default for WanKeeperConfig {
    fn default() -> Self {
        WanKeeperConfig {
            master_zone: 0,
            shared_to_master: true,
        }
    }
}

/// Wire messages of WanKeeper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WkMsg {
    /// Level-1/2 in-zone replication of one command.
    Accept {
        /// Key.
        key: Key,
        /// Zone-log sequence number for the key.
        seq: u64,
        /// The command.
        cmd: Command,
    },
    /// In-zone acceptance.
    AcceptOk {
        /// Key.
        key: Key,
        /// Acked sequence number.
        seq: u64,
    },
    /// A zone leader without the token escalates a request to the master.
    TokenRequest {
        /// Requesting zone.
        zone: u8,
        /// The client request (the master executes it or hands it back with
        /// the token).
        req: ClientRequest,
    },
    /// Master grants the token (with the authoritative value) to a zone.
    TokenGrant {
        /// Key whose token moves.
        key: Key,
        /// Authoritative value at grant time.
        value: Option<Value>,
        /// Version counter at grant time.
        version: u64,
        /// Requests the grantee should execute immediately.
        handoff: Vec<ClientRequest>,
    },
    /// Master retracts a token from its holding zone.
    TokenRetract {
        /// Key whose token is retracted.
        key: Key,
    },
    /// Holder returns the token with the latest state.
    TokenReturn {
        /// Key.
        key: Key,
        /// Latest value.
        value: Option<Value>,
        /// Latest version.
        version: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    Master,
    Zone(u8),
    Retracting(u8),
    /// Decided to grant to the zone, waiting for the master's in-flight
    /// commits on the key to drain (granting earlier would hand out a stale
    /// value).
    Granting(u8),
}

struct TokenState {
    holder: Holder,
    locality: Locality,
    queued: Vec<ClientRequest>,
}

/// A WanKeeper replica. Only node `z.0` of each zone acts as the level-1
/// leader; the master-zone leader additionally runs the level-2 broker.
pub struct WanKeeper {
    id: NodeId,
    cfg: WanKeeperConfig,
    zone_leader: NodeId,
    master_leader: NodeId,
    /// The zone log replicates client requests.
    rep: ZoneRep<ClientRequest>,
    /// Tokens (and authoritative state) held by this zone. At the master
    /// leader this also covers master-held keys.
    tokens: HashMap<Key, Kv>,
    /// Keys the master asked us to give back, pending in-flight commits.
    retract_pending: HashSet<Key>,
    /// Master-only: token table.
    table: HashMap<Key, TokenState>,
}

impl WanKeeper {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig, cfg: WanKeeperConfig) -> Self {
        assert!(cfg.master_zone < cluster.zones);
        let zone_leader = NodeId::new(id.zone, 0);
        let master_leader = NodeId::new(cfg.master_zone, 0);
        WanKeeper {
            id,
            cfg,
            zone_leader,
            master_leader,
            rep: ZoneRep::new(id, &cluster),
            tokens: HashMap::new(),
            retract_pending: HashSet::new(),
            table: HashMap::new(),
        }
    }

    fn is_zone_leader(&self) -> bool {
        self.id == self.zone_leader
    }

    fn is_master(&self) -> bool {
        self.id == self.master_leader
    }

    /// Whether this leader currently holds the token for `key`. Master-held
    /// keys count as held by the master leader.
    pub fn holds_token(&self, key: Key) -> bool {
        self.tokens.contains_key(&key)
    }

    /// Number of tokens currently held by this zone leader.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    fn replicate(&mut self, req: ClientRequest, ctx: &mut dyn Context<WkMsg>) {
        let (key, cmd) = (req.cmd.key, req.cmd.clone());
        self.rep
            .replicate(key, req, ctx, |seq| WkMsg::Accept { key, seq, cmd });
        self.drain_committed(key, ctx);
    }

    fn drain_committed(&mut self, key: Key, ctx: &mut dyn Context<WkMsg>) {
        self.apply_committed(key, ctx);
        self.maybe_finish_grant(key, ctx);
        self.maybe_finish_retract(key, ctx);
    }

    fn apply_committed(&mut self, key: Key, ctx: &mut dyn Context<WkMsg>) {
        for req in self.rep.take_committed(key) {
            let value = self.tokens.entry(key).or_default().apply(&req.cmd.op);
            ctx.reply(ClientResponse::ok(req.id, value));
        }
    }

    /// Master-side: completes a pending grant once the key's level-2 commits
    /// have drained, handing the queued requests along with the token.
    fn maybe_finish_grant(&mut self, key: Key, ctx: &mut dyn Context<WkMsg>) {
        if !self.is_master() || !self.rep.fully_committed(key) {
            return;
        }
        let Some(st) = self.table.get_mut(&key) else {
            return;
        };
        let Holder::Granting(zone) = st.holder else {
            return;
        };
        st.holder = Holder::Zone(zone);
        st.locality.clear();
        let handoff = std::mem::take(&mut st.queued);
        let info = self.tokens.remove(&key).unwrap_or_default();
        ctx.send(
            NodeId::new(zone, 0),
            WkMsg::TokenGrant {
                key,
                value: info.value,
                version: info.version,
                handoff,
            },
        );
    }

    fn maybe_finish_retract(&mut self, key: Key, ctx: &mut dyn Context<WkMsg>) {
        // The retract stays pending until the commits in flight on the key
        // have drained. Grant and retract share the master → holder link, so
        // the token is here unless a fault lost its grant.
        if self.retract_pending.contains(&key)
            && self.tokens.contains_key(&key)
            && self.rep.fully_committed(key)
        {
            self.retract_pending.remove(&key);
            let info = self.tokens.remove(&key).expect("checked above");
            ctx.send(
                self.master_leader,
                WkMsg::TokenReturn {
                    key,
                    value: info.value,
                    version: info.version,
                },
            );
        }
    }

    /// Master-side brokering of one escalated request.
    fn broker(&mut self, zone: u8, req: ClientRequest, ctx: &mut dyn Context<WkMsg>) {
        let key = req.cmd.key;
        let master_zone = self.cfg.master_zone;
        let st = self.table.entry(key).or_insert_with(|| TokenState {
            holder: Holder::Master,
            locality: Locality::default(),
            queued: Vec::new(),
        });
        st.locality.note(zone);
        let unanimous = st.locality.settled_on(zone);
        match st.holder {
            Holder::Master => {
                if unanimous && zone != master_zone {
                    // Locality settled: pass the token down — once our own
                    // in-flight commits for the key have drained.
                    st.holder = Holder::Granting(zone);
                    st.queued.push(req);
                    self.maybe_finish_grant(key, ctx);
                } else {
                    // Execute at level-2, in the master's own group.
                    self.replicate(req, ctx);
                }
            }
            Holder::Zone(holder) => {
                if holder == zone {
                    // Raced with a grant in flight; the zone will hold the
                    // token when this bounces back.
                    ctx.forward(NodeId::new(zone, 0), req);
                } else if unanimous || self.cfg.shared_to_master {
                    // Contended (or locality moved): pull the token up.
                    st.holder = Holder::Retracting(holder);
                    st.queued.push(req);
                    ctx.send(NodeId::new(holder, 0), WkMsg::TokenRetract { key });
                } else {
                    // Decentralized variant: let the holder execute it.
                    ctx.forward(NodeId::new(holder, 0), req);
                }
            }
            Holder::Retracting(_) | Holder::Granting(_) => {
                st.queued.push(req);
            }
        }
    }
}

impl Replica for WanKeeper {
    type Msg = WkMsg;

    fn on_message(&mut self, from: NodeId, msg: WkMsg, ctx: &mut dyn Context<WkMsg>) {
        match msg {
            WkMsg::Accept { key, seq, cmd } => {
                let _ = cmd; // members ack; state lives at the leader
                ctx.send(from, WkMsg::AcceptOk { key, seq });
            }
            WkMsg::AcceptOk { key, seq } => {
                self.rep.ack(key, seq);
                self.drain_committed(key, ctx);
            }
            WkMsg::TokenRequest { zone, req } => {
                if self.is_master() {
                    self.broker(zone, req, ctx);
                }
            }
            WkMsg::TokenGrant {
                key,
                value,
                version,
                handoff,
            } => {
                self.tokens.insert(key, Kv { value, version });
                for req in handoff {
                    self.replicate(req, ctx);
                }
            }
            WkMsg::TokenRetract { key } => {
                self.retract_pending.insert(key);
                self.maybe_finish_retract(key, ctx);
            }
            WkMsg::TokenReturn {
                key,
                value,
                version,
            } => {
                if !self.is_master() {
                    return;
                }
                self.tokens.insert(key, Kv { value, version });
                let queued = match self.table.get_mut(&key) {
                    Some(st) => {
                        st.holder = Holder::Master;
                        st.locality.clear();
                        std::mem::take(&mut st.queued)
                    }
                    None => Vec::new(),
                };
                for req in queued {
                    self.replicate(req, ctx);
                }
            }
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<WkMsg>) {
        if !self.is_zone_leader() {
            ctx.forward(self.zone_leader, req);
            return;
        }
        let key = req.cmd.key;
        if self.is_master() {
            // The master leader consults the token table directly (its own
            // requests are brokered like anyone else's).
            self.broker(self.id.zone, req, ctx);
            return;
        }
        if self.holds_token(key) && !self.retract_pending.contains(&key) {
            self.replicate(req, ctx);
        } else {
            ctx.send(
                self.master_leader,
                WkMsg::TokenRequest {
                    zone: self.id.zone,
                    req,
                },
            );
        }
    }

    fn protocol_name(&self) -> &'static str {
        "wankeeper"
    }

    /// Stable wire-type names for the per-type observability breakdown.
    fn msg_kind(msg: &WkMsg) -> &'static str {
        match msg {
            WkMsg::Accept { .. } => "accept",
            WkMsg::AcceptOk { .. } => "accept_ok",
            WkMsg::TokenRequest { .. } => "token_request",
            WkMsg::TokenGrant { .. } => "token_grant",
            WkMsg::TokenRetract { .. } => "token_retract",
            WkMsg::TokenReturn { .. } => "token_return",
        }
    }
}

/// Convenience factory for a homogeneous WanKeeper cluster.
pub fn wankeeper_cluster(
    cluster: ClusterConfig,
    cfg: WanKeeperConfig,
) -> impl Fn(NodeId) -> WanKeeper {
    move |id| WanKeeper::new(id, cluster.clone(), cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::Rng64;
    use paxi_core::id::ClientId;
    use paxi_core::time::Nanos;
    use paxi_sim::{ClientSetup, SimConfig, Simulator, Topology};

    fn wan3(cfg: WanKeeperConfig) -> (ClusterConfig, SimConfig) {
        let cluster = ClusterConfig::wan(3, 3);
        let sim = SimConfig {
            topology: Topology::aws3(),
            record_ops: true,
            warmup: Nanos::secs(1),
            measure: Nanos::secs(3),
            ..SimConfig::default()
        };
        let _ = cfg;
        (cluster, sim)
    }

    /// Hand-driven context for broker state-machine tests.
    struct Probe {
        id: NodeId,
        sent: Vec<(NodeId, WkMsg)>,
        replies: Vec<ClientResponse>,
    }

    impl paxi_core::traits::Context<WkMsg> for Probe {
        fn id(&self) -> NodeId {
            self.id
        }
        fn now(&self) -> paxi_core::Nanos {
            paxi_core::Nanos::ZERO
        }
        fn send(&mut self, to: NodeId, msg: WkMsg) {
            self.sent.push((to, msg));
        }
        fn broadcast(&mut self, msg: WkMsg) {
            self.sent.push((NodeId::new(255, 255), msg));
        }
        fn multicast(&mut self, to: &[NodeId], msg: WkMsg) {
            for &t in to {
                self.sent.push((t, msg.clone()));
            }
        }
        fn set_timer(&mut self, _after: paxi_core::Nanos, _kind: u64) -> u64 {
            0
        }
        fn reply(&mut self, resp: ClientResponse) {
            self.replies.push(resp);
        }
        fn forward(&mut self, to: NodeId, req: ClientRequest) {
            // Model forwards as sends of a token request for visibility.
            self.sent.push((to, WkMsg::TokenRequest { zone: 255, req }));
        }
        fn rand_u64(&mut self) -> u64 {
            1
        }
    }

    fn probe(id: NodeId) -> Probe {
        Probe {
            id,
            sent: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn wreq(client: u32, seq: u64, key: u64) -> ClientRequest {
        ClientRequest {
            id: paxi_core::RequestId::new(paxi_core::id::ClientId(client), seq),
            cmd: Command::put(key, vec![client as u8, seq as u8]),
        }
    }

    /// Single-node zones make in-zone commits immediate, isolating the
    /// broker logic.
    fn master() -> WanKeeper {
        WanKeeper::new(
            NodeId::new(0, 0),
            ClusterConfig::wan(3, 1),
            WanKeeperConfig::default(),
        )
    }

    #[test]
    fn master_grants_after_three_consecutive_remote_requests() {
        let mut m = master();
        let mut ctx = probe(NodeId::new(0, 0));
        for seq in 0..2 {
            m.on_message(
                NodeId::new(1, 0),
                WkMsg::TokenRequest {
                    zone: 1,
                    req: wreq(1, seq, 5),
                },
                &mut ctx,
            );
        }
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, WkMsg::TokenGrant { .. })),
            "two requests are not enough"
        );
        assert_eq!(ctx.replies.len(), 2, "master executed them at level-2");
        m.on_message(
            NodeId::new(1, 0),
            WkMsg::TokenRequest {
                zone: 1,
                req: wreq(1, 2, 5),
            },
            &mut ctx,
        );
        let grant = ctx
            .sent
            .iter()
            .find(|(_, m)| matches!(m, WkMsg::TokenGrant { .. }))
            .expect("third consecutive request wins the token");
        assert_eq!(grant.0, NodeId::new(1, 0));
        match &grant.1 {
            WkMsg::TokenGrant { key, handoff, .. } => {
                assert_eq!(*key, 5);
                assert_eq!(handoff.len(), 1, "the triggering request rides along");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mixed_zone_requests_keep_the_token_at_the_master() {
        let mut m = master();
        let mut ctx = probe(NodeId::new(0, 0));
        for (seq, zone) in [(0u64, 1u8), (1, 2), (2, 1), (3, 2), (4, 1), (5, 2)] {
            m.on_message(
                NodeId::new(zone, 0),
                WkMsg::TokenRequest {
                    zone,
                    req: wreq(zone as u32, seq, 5),
                },
                &mut ctx,
            );
        }
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, WkMsg::TokenGrant { .. })),
            "alternating zones never reach unanimity"
        );
        assert_eq!(ctx.replies.len(), 6, "all executed at the master");
    }

    #[test]
    fn contended_token_is_retracted_from_its_zone() {
        let mut m = master();
        let mut ctx = probe(NodeId::new(0, 0));
        // Grant to zone 1.
        for seq in 0..3 {
            m.on_message(
                NodeId::new(1, 0),
                WkMsg::TokenRequest {
                    zone: 1,
                    req: wreq(1, seq, 5),
                },
                &mut ctx,
            );
        }
        ctx.sent.clear();
        // Zone 2 now wants the key: master retracts (shared_to_master).
        m.on_message(
            NodeId::new(2, 0),
            WkMsg::TokenRequest {
                zone: 2,
                req: wreq(2, 0, 5),
            },
            &mut ctx,
        );
        assert!(
            ctx.sent
                .iter()
                .any(|(to, m)| *to == NodeId::new(1, 0) && matches!(m, WkMsg::TokenRetract { .. })),
            "retract must go to the holder"
        );
        // The return brings the token home and the queued request executes.
        let before = ctx.replies.len();
        m.on_message(
            NodeId::new(1, 0),
            WkMsg::TokenReturn {
                key: 5,
                value: Some(vec![9]),
                version: 4,
            },
            &mut ctx,
        );
        assert_eq!(
            ctx.replies.len(),
            before + 1,
            "queued request served on return"
        );
    }

    #[test]
    fn a_retract_waits_for_the_handoff_to_commit() {
        // Grant and retract share the master → holder link, so the grant
        // comes first; the retract can still beat the handoff's commit in
        // the holder's zone, and must wait for it.
        let master = NodeId::new(0, 0);
        let mut zone_leader = WanKeeper::new(
            NodeId::new(1, 0),
            ClusterConfig::wan(3, 3),
            WanKeeperConfig::default(),
        );
        let mut ctx = probe(NodeId::new(1, 0));
        zone_leader.on_message(
            master,
            WkMsg::TokenGrant {
                key: 5,
                value: Some(vec![1]),
                version: 1,
                handoff: vec![wreq(1, 0, 5)],
            },
            &mut ctx,
        );
        zone_leader.on_message(master, WkMsg::TokenRetract { key: 5 }, &mut ctx);
        let returned = ctx
            .sent
            .iter()
            .any(|(_, m)| matches!(m, WkMsg::TokenReturn { .. }));
        assert!(
            !returned && ctx.replies.is_empty(),
            "the handoff is in flight"
        );
        zone_leader.on_message(
            NodeId::new(1, 1),
            WkMsg::AcceptOk { key: 5, seq: 0 },
            &mut ctx,
        );
        // Handoff served, then the token returned with the fresh state.
        assert_eq!(ctx.replies.len(), 1);
        let ret = ctx
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                WkMsg::TokenReturn { key, version, .. } => Some((*to, *key, *version)),
                _ => None,
            })
            .expect("token must bounce back");
        assert_eq!(
            ret,
            (NodeId::new(0, 0), 5, 2),
            "version advanced by the handoff write"
        );
        assert!(!zone_leader.holds_token(5));
    }

    #[test]
    fn local_keys_commit_with_lan_latency() {
        // Each zone works on a private key range: after the first grant,
        // everything is zone-local.
        let cfg = WanKeeperConfig {
            master_zone: 1,
            ..Default::default()
        };
        let (cluster, simcfg) = wan3(cfg.clone());
        let setups = ClientSetup::closed_per_zone(&cluster, 2);
        let workload =
            |client: ClientId, zone: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = 1000 * zone as u64 + rng.below(20);
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            simcfg,
            cluster.clone(),
            wankeeper_cluster(cluster, cfg),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 500, "completed {}", report.completed);
        // p50 should be LAN-scale: locality settled, tokens granted down.
        let p50 = report.latency.p50.as_millis_f64();
        assert!(p50 < 10.0, "local-token p50 {p50} ms");
        // Non-master zones ended up holding their keys' tokens.
        let va_leader = &sim.replicas()[0]; // zone 0 leader
        assert!(va_leader.token_count() > 0, "zone 0 should hold tokens");
    }

    #[test]
    fn contested_key_lives_at_master() {
        let cfg = WanKeeperConfig {
            master_zone: 1,
            ..Default::default()
        };
        let (cluster, simcfg) = wan3(cfg.clone());
        // All zones hammer key 0 (interleaved => never 3-consecutive).
        let setups = ClientSetup::closed_per_zone(&cluster, 2);
        let workload =
            |client: ClientId, _zone: u8, seq: u64, _now: paxi_core::Nanos, _rng: &mut Rng64| {
                paxi_core::Command::put(0, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            simcfg,
            cluster.clone(),
            wankeeper_cluster(cluster, cfg),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 100);
        // Master zone (OH, zone 1) sees LAN latency; VA pays ~11ms RTT to OH;
        // CA pays ~50ms.
        let oh = report.zone_latency[&1].mean.as_millis_f64();
        let va = report.zone_latency[&0].mean.as_millis_f64();
        let ca = report.zone_latency[&2].mean.as_millis_f64();
        assert!(oh < 5.0, "master zone latency {oh} ms");
        assert!(va > 8.0 && va < 30.0, "VA latency {va} ms");
        assert!(ca > 40.0, "CA latency {ca} ms");
    }

    #[test]
    fn token_moves_when_locality_shifts() {
        let cfg = WanKeeperConfig {
            master_zone: 1,
            ..Default::default()
        };
        let (cluster, simcfg) = wan3(cfg.clone());
        // Only zone 2 touches key 5.
        let setups = ClientSetup::closed_in_zone(&cluster, 2, 1);
        let workload =
            |client: ClientId, _zone: u8, seq: u64, _now: paxi_core::Nanos, _rng: &mut Rng64| {
                paxi_core::Command::put(5, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            simcfg,
            cluster.clone(),
            wankeeper_cluster(cluster, cfg),
            workload,
            setups,
        );
        let report = sim.run();
        // Zone 2's leader (index 6) holds the token after three requests.
        assert!(
            sim.replicas()[6].holds_token(5),
            "token should migrate to zone 2"
        );
        // Steady-state latency is local.
        let p50 = report.latency.p50.as_millis_f64();
        assert!(p50 < 10.0, "post-migration p50 {p50} ms");
    }

    #[test]
    fn values_are_linearizable_per_key() {
        let cfg = WanKeeperConfig {
            master_zone: 1,
            ..Default::default()
        };
        let (cluster, simcfg) = wan3(cfg.clone());
        let setups = ClientSetup::closed_per_zone(&cluster, 1);
        // 50/50 read/write on a handful of contested keys.
        let workload =
            |client: ClientId, _zone: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = rng.below(3);
                if rng.chance(0.5) {
                    paxi_core::Command::get(key)
                } else {
                    paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
                }
            };
        let mut sim = Simulator::new(
            simcfg,
            cluster.clone(),
            wankeeper_cluster(cluster, cfg),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 100);
        // Every read returns either nothing or one of the 12-byte client
        // values (no corruption / phantom values).
        for op in report.ops.iter().filter(|o| o.ok) {
            if let Some(Some(v)) = &op.read {
                assert_eq!(v.len(), 12);
            }
        }
    }

    #[test]
    fn forwarding_variant_keeps_tokens_down() {
        let cfg = WanKeeperConfig {
            master_zone: 0,
            shared_to_master: false,
        };
        let (cluster, simcfg) = wan3(cfg.clone());
        let setups = ClientSetup::closed_per_zone(&cluster, 2);
        let workload =
            |client: ClientId, _zone: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                let key = rng.below(30);
                paxi_core::Command::put(key, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = Simulator::new(
            simcfg,
            cluster.clone(),
            wankeeper_cluster(cluster, cfg),
            workload,
            setups,
        );
        let report = sim.run();
        assert!(report.completed > 300);
        assert_eq!(report.errors, 0);
    }
}
