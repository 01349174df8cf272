//! Analytic message complexity per committed command (§2 of the paper).
//!
//! The paper characterizes each protocol by how many messages its
//! coordinating replica exchanges per consensus instance. These closed
//! forms are the ground truth the observability layer is audited against:
//! the headline metrics test drives each protocol through the simulator
//! with metrics enabled and asserts the *observed* per-commit counters at
//! the leader equal these predictions exactly — any silent loss or
//! double-count breaks the equality.
//!
//! The same counts, with the client's request and reply, are the
//! coordinator's [`Work`] per commit: the protocol models' service time,
//! which the metrics test also holds to the simulated leader's busy time.
//!
//! Conventions: counts cover protocol messages only (client requests and
//! replies are tracked by separate counters), describe the steady state
//! (leader established; Raft heartbeats and elections excluded; EPaxos on
//! its fast path with no conflicts), and are exact, not asymptotic.

use paxi_core::cost::Work;

/// Per-commit message counts at the coordinating replica (leader or,
/// for EPaxos, the command leader).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgComplexity {
    /// Protocol messages the coordinator sends per committed command.
    pub sent: u64,
    /// Protocol messages the coordinator receives per committed command.
    pub received: u64,
    /// Protocol messages the coordinator serializes per committed command
    /// (a broadcast is serialized once, whatever its fan-out).
    pub serialized: u64,
}

impl MsgComplexity {
    /// The coordinator's work per committed command: these messages plus
    /// the client's request in and the reply out, one command each.
    pub fn work(self) -> Work {
        Work {
            inputs: self.received + 1,
            serializations: self.serialized + 1,
            transmissions: self.sent + 1,
            ..Work::default()
        }
    }
}

/// Multi-Paxos with a stable leader in an `n`-replica cluster: one
/// phase-2 round per commit. The leader sends `n-1` accepts (`p2a`) and
/// receives `n-1` acks (`p2b`); commit notification piggybacks on the
/// next accept, costing no extra message in steady state.
pub fn paxos_leader(n: u64) -> MsgComplexity {
    let peers = n.saturating_sub(1);
    MsgComplexity {
        sent: peers,
        received: peers,
        serialized: 1,
    }
}

/// Raft with a stable leader in an `n`-replica cluster: identical
/// steady-state shape to Multi-Paxos — `n-1` `append_entries` out,
/// `n-1` `append_ack` in, with the advancing commit index piggybacked.
/// Heartbeats (empty `append_entries`) are a separate, rate-based cost
/// and are tracked under their own message type.
pub fn raft_leader(n: u64) -> MsgComplexity {
    paxos_leader(n)
}

/// EPaxos fast path (no conflicts) in an `n`-replica cluster: the command
/// leader broadcasts `pre_accept` to its `n-1` peers, commits after a
/// fast quorum of `pre_accept_ok`s, then broadcasts `commit`. Every peer
/// answers the pre-accept, so the leader still *receives* `n-1` acks even
/// though it only *waits* for the fast quorum.
pub fn epaxos_leader_fast(n: u64) -> MsgComplexity {
    let peers = n.saturating_sub(1);
    MsgComplexity {
        sent: 2 * peers,
        received: peers,
        serialized: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_replica_counts() {
        assert_eq!(
            paxos_leader(3),
            MsgComplexity {
                sent: 2,
                received: 2,
                serialized: 1
            }
        );
        assert_eq!(
            raft_leader(3),
            MsgComplexity {
                sent: 2,
                received: 2,
                serialized: 1
            }
        );
        assert_eq!(
            epaxos_leader_fast(3),
            MsgComplexity {
                sent: 4,
                received: 2,
                serialized: 2
            }
        );
    }

    #[test]
    fn five_replica_counts() {
        assert_eq!((paxos_leader(5).sent, paxos_leader(5).received), (4, 4));
        assert_eq!(
            epaxos_leader_fast(5),
            MsgComplexity {
                sent: 8,
                received: 4,
                serialized: 2
            }
        );
    }

    #[test]
    fn degenerate_single_node_cluster_is_message_free() {
        for m in [paxos_leader(1), raft_leader(1), epaxos_leader_fast(1)] {
            assert_eq!((m.sent, m.received), (0, 0));
        }
    }
}
