//! Vertical Paxos (VPaxos), augmented for WAN object relocation.
//!
//! Vertical Paxos separates the control plane from the data plane: a master
//! Paxos cluster sits above the data Paxos groups and is the only authority
//! for configuration changes — here, the assignment of each object (key) to
//! the zone-local Paxos group that leads it. Commands for a key execute in
//! its owner zone's group with LAN commit latency; changing a key's owner is
//! a master-committed reconfiguration followed by a state handshake between
//! the old and new owner (one group finishes the commands of the old
//! configuration before the next group starts — no stop time).
//!
//! This is the paper's "augmented version of Vertical Paxos": relocation is
//! driven by the same three-consecutive-access policy as WPaxos/WanKeeper,
//! evaluated at the master, which observes every request that reaches it for
//! a remotely-owned key. Unlike WanKeeper, the master never executes data
//! commands for other zones — contested keys simply stay with their current
//! owner and remote requests are forwarded there.

use crate::groups::{Kv, Locality, ZoneRep};
use paxi_core::command::{ClientRequest, ClientResponse, Command, Key, Value};
use paxi_core::config::ClusterConfig;
use paxi_core::id::{NodeId, RequestId};
use paxi_core::traits::{Context, Replica};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Tuning knobs for [`VPaxos`].
#[derive(Debug, Clone, Default)]
pub struct VPaxosConfig {
    /// Zone hosting the master (configuration) Paxos group.
    pub master_zone: u8,
    /// Zone that initially owns every key.
    pub initial_zone: u8,
}

/// Payload replicated through a zone group's log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum VpWire {
    /// A data command.
    Cmd(Command),
    /// A master-side configuration change: reassign the key to `zone`.
    Map {
        /// The new owner zone.
        zone: u8,
    },
}

/// Wire messages of VPaxos.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum VpMsg {
    /// In-zone replication of one payload.
    Accept {
        /// Key.
        key: Key,
        /// Zone-log sequence for the key.
        seq: u64,
        /// Replicated payload.
        payload: VpWire,
    },
    /// In-zone acceptance.
    AcceptOk {
        /// Key.
        key: Key,
        /// Acked sequence.
        seq: u64,
    },
    /// A zone leader escalates a remotely-owned request to the master.
    Escalate {
        /// Requesting zone.
        zone: u8,
        /// The client request.
        req: ClientRequest,
    },
    /// Master announces a new owner for a key (sent to all zone leaders).
    OwnerChange {
        /// Key.
        key: Key,
        /// New owner zone.
        zone: u8,
    },
    /// Old owner hands the authoritative state to the new owner.
    Transfer {
        /// Key.
        key: Key,
        /// Latest value.
        value: Option<Value>,
        /// Latest version.
        version: u64,
    },
}

/// Leader-side payload in the zone log: what the peers accept, plus the
/// client to answer for a command.
#[derive(Debug, Clone)]
struct Payload {
    wire: VpWire,
    req: Option<RequestId>,
}

struct MasterEntry {
    owner: u8,
    locality: Locality,
    /// Requests waiting for a relocation to finish (forwarded to the new
    /// owner once the map change commits).
    queued: Vec<ClientRequest>,
    relocating: bool,
}

impl MasterEntry {
    fn new(owner: u8) -> Self {
        MasterEntry {
            owner,
            locality: Locality::default(),
            queued: Vec::new(),
            relocating: false,
        }
    }
}

/// A VPaxos replica. Node `z.0` leads zone `z`'s data group; the leader of
/// [`VPaxosConfig::master_zone`] additionally runs the configuration master.
pub struct VPaxos {
    id: NodeId,
    cluster: ClusterConfig,
    cfg: VPaxosConfig,
    zone_leader: NodeId,
    master_leader: NodeId,
    rep: ZoneRep<Payload>,
    /// Cached key → owner-zone map (authoritative copy lives at the master).
    map: HashMap<Key, u8>,
    /// Authoritative values for keys this zone owns.
    values: HashMap<Key, Kv>,
    /// Keys whose ownership we received but whose state transfer is pending.
    awaiting_transfer: HashSet<Key>,
    /// Transfers that arrived before their `OwnerChange`: the old owner's
    /// `Transfer` and the master's announcement travel different links.
    early_transfers: HashSet<Key>,
    /// Keys we must hand off once our in-flight commits drain: key → new owner.
    outgoing: HashMap<Key, u8>,
    /// Requests queued locally until a transfer completes.
    queued: HashMap<Key, Vec<ClientRequest>>,
    /// Master-only: per-key ownership and policy state.
    table: HashMap<Key, MasterEntry>,
}

impl VPaxos {
    /// Creates a replica for node `id` in `cluster`.
    pub fn new(id: NodeId, cluster: ClusterConfig, cfg: VPaxosConfig) -> Self {
        assert!(cfg.master_zone < cluster.zones && cfg.initial_zone < cluster.zones);
        let zone_leader = NodeId::new(id.zone, 0);
        let master_leader = NodeId::new(cfg.master_zone, 0);
        VPaxos {
            id,
            cluster: cluster.clone(),
            cfg,
            zone_leader,
            master_leader,
            rep: ZoneRep::new(id, &cluster),
            map: HashMap::new(),
            values: HashMap::new(),
            awaiting_transfer: HashSet::new(),
            early_transfers: HashSet::new(),
            outgoing: HashMap::new(),
            queued: HashMap::new(),
            table: HashMap::new(),
        }
    }

    fn is_zone_leader(&self) -> bool {
        self.id == self.zone_leader
    }

    fn is_master(&self) -> bool {
        self.id == self.master_leader
    }

    /// The zone this replica believes owns `key`.
    pub fn owner_zone(&self, key: Key) -> u8 {
        *self.map.get(&key).unwrap_or(&self.cfg.initial_zone)
    }

    /// Number of keys this zone owns with live state (for tests/inspection).
    pub fn owned_keys(&self) -> usize {
        self.values.len()
    }

    fn owns(&self, key: Key) -> bool {
        self.owner_zone(key) == self.id.zone && !self.awaiting_transfer.contains(&key)
    }

    /// Queue-or-replicate for a key this zone owns, without touching the
    /// master's access-policy window (used for forwarded/handoff requests).
    fn serve_locally(&mut self, req: ClientRequest, ctx: &mut dyn Context<VpMsg>) {
        let key = req.cmd.key;
        if !self.owns(key) {
            self.queued.entry(key).or_default().push(req);
        } else {
            self.values.entry(key).or_default();
            self.replicate(key, VpWire::Cmd(req.cmd), Some(req.id), ctx);
        }
    }

    /// Serves `req` in `zone`'s group: here when that is ours, else at its
    /// leader.
    fn serve_in(&mut self, zone: u8, req: ClientRequest, ctx: &mut dyn Context<VpMsg>) {
        let leader = NodeId::new(zone, 0);
        if leader == self.id {
            self.serve_locally(req, ctx);
        } else {
            ctx.forward(leader, req);
        }
    }

    fn replicate(
        &mut self,
        key: Key,
        wire: VpWire,
        req: Option<RequestId>,
        ctx: &mut dyn Context<VpMsg>,
    ) {
        let payload = wire.clone();
        self.rep
            .replicate(key, Payload { wire, req }, ctx, |seq| VpMsg::Accept {
                key,
                seq,
                payload,
            });
        self.drain(key, ctx);
    }

    fn drain(&mut self, key: Key, ctx: &mut dyn Context<VpMsg>) {
        for Payload { wire, req } in self.rep.take_committed(key) {
            match wire {
                VpWire::Cmd(cmd) => {
                    if self.owner_zone(key) != self.id.zone {
                        // A relocation committed *earlier in this key's log*:
                        // commands sequenced after the map change belong to
                        // the new owner. Executing them against our zombie
                        // state would lose writes and serve stale reads.
                        if let Some(id) = req {
                            let owner = NodeId::new(self.owner_zone(key), 0);
                            ctx.forward(owner, ClientRequest { id, cmd });
                        }
                        continue;
                    }
                    let value = self.values.entry(key).or_default().apply(&cmd.op);
                    if let Some(id) = req {
                        ctx.reply(ClientResponse::ok(id, value));
                    }
                }
                VpWire::Map { zone } => self.apply_map_change(key, zone, ctx),
            }
        }
        self.maybe_transfer_out(key, ctx);
    }

    /// Master-side: a committed reconfiguration takes effect.
    fn apply_map_change(&mut self, key: Key, zone: u8, ctx: &mut dyn Context<VpMsg>) {
        let queued = if let Some(e) = self.table.get_mut(&key) {
            e.owner = zone;
            e.relocating = false;
            e.locality.clear();
            std::mem::take(&mut e.queued)
        } else {
            Vec::new()
        };
        // Announce to every zone leader (including ourselves via local map).
        let leaders: Vec<NodeId> = (0..self.cluster.zones)
            .map(|z| NodeId::new(z, 0))
            .filter(|&l| l != self.id)
            .collect();
        ctx.multicast(&leaders, VpMsg::OwnerChange { key, zone });
        self.handle_owner_change(key, zone, ctx);
        // Hand queued requests to the new owner.
        for req in queued {
            self.serve_in(zone, req, ctx);
        }
    }

    fn handle_owner_change(&mut self, key: Key, zone: u8, ctx: &mut dyn Context<VpMsg>) {
        let was_owner = self.owner_zone(key) == self.id.zone;
        self.map.insert(key, zone);
        if zone == self.id.zone {
            // We gained the key; wait for the old owner's state — unless the
            // transfer outran this announcement.
            if self.early_transfers.remove(&key) {
                self.activate_transferred(key, ctx);
            } else {
                self.awaiting_transfer.insert(key);
            }
        } else if was_owner {
            // We lost it; hand the state over once in-flight commits drain.
            self.outgoing.insert(key, zone);
            self.maybe_transfer_out(key, ctx);
        }
    }

    /// Ownership + state are both in hand: serve everything we queued.
    fn activate_transferred(&mut self, key: Key, ctx: &mut dyn Context<VpMsg>) {
        for req in self.queued.remove(&key).unwrap_or_default() {
            self.replicate(key, VpWire::Cmd(req.cmd), Some(req.id), ctx);
        }
    }

    fn maybe_transfer_out(&mut self, key: Key, ctx: &mut dyn Context<VpMsg>) {
        // Never hand off state we do not hold yet: in a relocation chain
        // A -> B -> C, B must wait for A's transfer before serving C, or C
        // would start from an empty default value.
        if self.awaiting_transfer.contains(&key) {
            return;
        }
        if let Some(&zone) = self.outgoing.get(&key) {
            if self.rep.fully_committed(key) {
                self.outgoing.remove(&key);
                let st = self.values.remove(&key).unwrap_or_default();
                ctx.send(
                    NodeId::new(zone, 0),
                    VpMsg::Transfer {
                        key,
                        value: st.value,
                        version: st.version,
                    },
                );
            }
        }
    }

    /// Master-side policy for a request that reached it.
    fn master_route(&mut self, zone: u8, req: ClientRequest, ctx: &mut dyn Context<VpMsg>) {
        let key = req.cmd.key;
        let initial = self.cfg.initial_zone;
        let e = self
            .table
            .entry(key)
            .or_insert_with(|| MasterEntry::new(initial));
        if e.relocating {
            e.queued.push(req);
            return;
        }
        if e.owner == zone {
            // Requester already owns it (stale escalation during a move).
            self.serve_in(zone, req, ctx);
            return;
        }
        e.locality.note(zone);
        if e.locality.settled_on(zone) {
            // Locality settled: relocate via a master-committed map change.
            e.relocating = true;
            e.queued.push(req);
            e.locality.clear();
            self.replicate(key, VpWire::Map { zone }, None, ctx);
        } else {
            let owner = e.owner;
            self.serve_in(owner, req, ctx);
        }
    }
}

impl Replica for VPaxos {
    type Msg = VpMsg;

    fn on_message(&mut self, from: NodeId, msg: VpMsg, ctx: &mut dyn Context<VpMsg>) {
        match msg {
            VpMsg::Accept { key, seq, payload } => {
                let _ = payload; // members only ack; state lives at leaders
                ctx.send(from, VpMsg::AcceptOk { key, seq });
            }
            VpMsg::AcceptOk { key, seq } => {
                self.rep.ack(key, seq);
                self.drain(key, ctx);
            }
            VpMsg::Escalate { zone, req } => {
                if self.is_master() {
                    self.master_route(zone, req, ctx);
                }
            }
            VpMsg::OwnerChange { key, zone } => {
                self.handle_owner_change(key, zone, ctx);
            }
            VpMsg::Transfer {
                key,
                value,
                version,
            } => {
                self.values.insert(key, Kv { value, version });
                if self.awaiting_transfer.remove(&key) {
                    if let Some(&dest) = self.outgoing.get(&key) {
                        // Ownership moved on while the state was in flight:
                        // relay the queued requests and the state to the
                        // real owner.
                        let leader = NodeId::new(dest, 0);
                        for req in self.queued.remove(&key).unwrap_or_default() {
                            ctx.forward(leader, req);
                        }
                        self.maybe_transfer_out(key, ctx);
                    } else {
                        self.activate_transferred(key, ctx);
                    }
                } else {
                    // OwnerChange has not reached us yet; remember the state.
                    self.early_transfers.insert(key);
                }
            }
        }
    }

    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<VpMsg>) {
        if !self.is_zone_leader() {
            ctx.forward(self.zone_leader, req);
            return;
        }
        let key = req.cmd.key;
        if self.owner_zone(key) == self.id.zone {
            if self.is_master() {
                // The relocation policy must see the owner's own accesses,
                // or a remote zone's escalations would look unanimous and
                // steal a key its home zone uses constantly.
                let initial = self.cfg.initial_zone;
                self.table
                    .entry(key)
                    .or_insert_with(|| MasterEntry::new(initial))
                    .locality
                    .note(self.id.zone);
            }
            self.serve_locally(req, ctx);
        } else if self.is_master() {
            self.master_route(self.id.zone, req, ctx);
        } else {
            ctx.send(
                self.master_leader,
                VpMsg::Escalate {
                    zone: self.id.zone,
                    req,
                },
            );
        }
    }

    fn protocol_name(&self) -> &'static str {
        "vpaxos"
    }

    /// Stable wire-type names for the per-type observability breakdown.
    fn msg_kind(msg: &VpMsg) -> &'static str {
        match msg {
            VpMsg::Accept { .. } => "accept",
            VpMsg::AcceptOk { .. } => "accept_ok",
            VpMsg::Escalate { .. } => "escalate",
            VpMsg::OwnerChange { .. } => "owner_change",
            VpMsg::Transfer { .. } => "transfer",
        }
    }
}

/// Convenience factory for a homogeneous VPaxos cluster.
pub fn vpaxos_cluster(cluster: ClusterConfig, cfg: VPaxosConfig) -> impl Fn(NodeId) -> VPaxos {
    move |id| VPaxos::new(id, cluster.clone(), cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_core::dist::Rng64;
    use paxi_core::id::ClientId;
    use paxi_core::time::Nanos;
    use paxi_sim::{ClientSetup, SimConfig, Simulator, Topology};

    fn wan3_sim(
        cfg: VPaxosConfig,
        setups: Vec<ClientSetup>,
        workload: impl paxi_sim::Workload + 'static,
    ) -> Simulator<VPaxos> {
        let cluster = ClusterConfig::wan(3, 3);
        Simulator::new(
            SimConfig {
                topology: Topology::aws3(),
                record_ops: true,
                warmup: Nanos::secs(1),
                measure: Nanos::secs(3),
                ..SimConfig::default()
            },
            cluster.clone(),
            vpaxos_cluster(cluster, cfg),
            workload,
            setups,
        )
    }

    #[test]
    fn initial_zone_serves_locally() {
        let cluster = ClusterConfig::wan(3, 3);
        let cfg = VPaxosConfig {
            master_zone: 1,
            initial_zone: 1,
        };
        let setups = ClientSetup::closed_in_zone(&cluster, 1, 2);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                paxi_core::Command::put(rng.below(20), paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = wan3_sim(cfg, setups, workload);
        let report = sim.run();
        assert!(report.completed > 500);
        let mean = report.latency.mean.as_millis_f64();
        assert!(mean < 5.0, "owner-zone latency should be LAN: {mean} ms");
    }

    #[test]
    fn remote_zone_requests_are_forwarded_to_owner() {
        // Interleaved access from all zones: never 3-consecutive from one
        // zone, so keys stay at the initial owner (zone 1 = OH).
        let cfg = VPaxosConfig {
            master_zone: 1,
            initial_zone: 1,
        };
        let cluster = ClusterConfig::wan(3, 3);
        let setups = ClientSetup::closed_per_zone(&cluster, 1);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, _rng: &mut Rng64| {
                paxi_core::Command::put(0, paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = wan3_sim(cfg, setups, workload);
        let report = sim.run();
        // OH (zone 1) local, VA (zone 0) ~1 RTT(VA,OH)=11ms, CA ~RTT(CA,OH)=50ms.
        let oh = report.zone_latency[&1].mean.as_millis_f64();
        let va = report.zone_latency[&0].mean.as_millis_f64();
        let ca = report.zone_latency[&2].mean.as_millis_f64();
        assert!(oh < 5.0, "OH {oh} ms");
        assert!(va > 8.0 && va < 30.0, "VA {va} ms");
        assert!(ca > 40.0, "CA {ca} ms");
    }

    #[test]
    fn keys_relocate_under_settled_locality() {
        // Zone 2 exclusively uses keys 0..10; they should move to zone 2.
        let cfg = VPaxosConfig {
            master_zone: 1,
            initial_zone: 1,
        };
        let cluster = ClusterConfig::wan(3, 3);
        let setups = ClientSetup::closed_in_zone(&cluster, 2, 2);
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, rng: &mut Rng64| {
                paxi_core::Command::put(rng.below(10), paxi_sim::client::unique_value(client, seq))
            };
        let mut sim = wan3_sim(cfg, setups, workload);
        let report = sim.run();
        assert!(report.completed > 200);
        // Zone 2's leader owns the keys now.
        let z2_leader = &sim.replicas()[6];
        assert!(
            z2_leader.owned_keys() >= 8,
            "owned {}",
            z2_leader.owned_keys()
        );
        assert_eq!(z2_leader.owner_zone(3), 2);
        // Steady-state latency is local.
        let p50 = report.latency.p50.as_millis_f64();
        assert!(p50 < 10.0, "post-relocation p50 {p50} ms");
    }

    #[test]
    fn values_survive_relocation() {
        // Write from zone 1 (initial owner), relocate to zone 0 by repeated
        // access, then read from zone 0: the value must have transferred.
        let cfg = VPaxosConfig {
            master_zone: 1,
            initial_zone: 1,
        };
        // One client in zone 1 writes key 0 a few times, then zone 0 reads
        // key 0 repeatedly.
        let setups = vec![
            ClientSetup {
                zone: 1,
                attach: NodeId::new(1, 0),
                mode: paxi_sim::LoadMode::Closed {
                    think: Nanos::millis(200),
                },
            },
            ClientSetup {
                zone: 0,
                attach: NodeId::new(0, 0),
                mode: paxi_sim::LoadMode::Closed {
                    think: Nanos::millis(10),
                },
            },
        ];
        let workload =
            |client: ClientId, _z: u8, seq: u64, _now: paxi_core::Nanos, _rng: &mut Rng64| {
                if client == ClientId(0) {
                    paxi_core::Command::put(0, paxi_sim::client::unique_value(client, seq))
                } else {
                    paxi_core::Command::get(0)
                }
            };
        let mut sim = wan3_sim(cfg, setups, workload);
        let report = sim.run();
        // Reads from zone 0 eventually observe writes from zone 1 even after
        // the key relocates to zone 0.
        let reads_with_data = report
            .ops
            .iter()
            .filter(|o| o.ok && matches!(&o.read, Some(Some(_))))
            .count();
        assert!(
            reads_with_data > 10,
            "reads observed {reads_with_data} values"
        );
        for op in report.ops.iter().filter(|o| o.ok) {
            if let Some(Some(v)) = &op.read {
                assert_eq!(v.len(), 12, "phantom value after transfer");
            }
        }
    }
}
