//! What MultiPaxos and Raft do identically once the log has decided: write a
//! WAL record, and execute one command against the replicated state.

use paxi_core::command::{ClientResponse, Command, Handoff};
use paxi_core::id::RequestId;
use paxi_core::membership::CONFIG_KEY;
use paxi_core::migration::{
    as_migration_record, MigrationAction, MigrationRecord, MigrationTracker, MIGRATION_KEY,
};
use paxi_core::obs::{Metric, TraceStage};
use paxi_core::store::MultiVersionStore;
use paxi_core::traits::Context;
use paxi_storage::Storage;
use serde::Serialize;

/// Appends `rec` to `wal`, if there is one, and says whether it did. Called
/// before the message that acknowledges what the record witnesses. A replica
/// that cannot write its WAL must stop (crash-stop model): continuing would
/// acknowledge state it may later forget.
pub fn persist<T: Serialize>(wal: &mut Option<Box<dyn Storage>>, rec: &T) -> bool {
    let Some(wal) = wal else { return false };
    let bytes = paxi_codec::to_bytes(rec).expect("a wal record must encode");
    wal.append(&bytes).expect("replica lost its durable store");
    true
}

/// Executes one decided command and, if `answer` (this replica leads),
/// replies to its client.
///
/// * A migration record mutates the tracker — here, at execute time, so that
///   replaying the log reconstructs freezes, installs and cut-overs exactly —
///   after `audit` has logged it (persist-before-effect).
/// * A config command acts when it is accepted or appended, not here; it
///   never touches the store, but its client is still answered.
/// * A data command on a range this group froze or handed off is rejected,
///   deterministically on every replica, instead of executed: that is what
///   pins the frozen range's contents. The client retries (freeze window)
///   or follows the epoch-tagged hand-off.
pub fn execute<M>(
    cmd: &Command,
    req: Option<RequestId>,
    store: &mut MultiVersionStore,
    migration: &mut MigrationTracker,
    answer: bool,
    audit: impl FnOnce(&MigrationRecord),
    ctx: &mut dyn Context<M>,
) {
    let req = req.filter(|_| answer);
    let value = if cmd.key == MIGRATION_KEY {
        if let Some(rec) = as_migration_record(cmd) {
            audit(&rec);
            match migration.apply(&rec) {
                MigrationAction::Install(range) => store.install_range(range),
                MigrationAction::DropRange(r) => store.remove_range(r.lo, r.hi),
                MigrationAction::None => {}
            }
        }
        None
    } else if cmd.key == CONFIG_KEY {
        None
    } else if let Some(rej) = migration.rejects(cmd.key) {
        if let Some(id) = req {
            ctx.count(Metric::Redirects, 1);
            let (lo, hi) = (rej.spec.range.lo, rej.spec.range.hi);
            let (group, epoch) = (rej.spec.to, rej.spec.epoch);
            let handoff = Handoff {
                lo,
                hi,
                group,
                epoch,
            };
            ctx.reply(if rej.committed {
                ClientResponse::handed_off(id, handoff)
            } else {
                ClientResponse::err(id)
            });
        }
        return;
    } else {
        ctx.count(Metric::Executes, 1);
        if req.is_some() {
            store.execute(cmd)
        } else {
            // Nobody to answer: change the state, build no reply value.
            store.apply(cmd);
            None
        }
    };
    if let Some(id) = req {
        ctx.trace(TraceStage::Execute, id);
        ctx.reply(ClientResponse::ok(id, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::probe;
    use paxi_core::command::{Key, Op};
    use paxi_core::id::{ClientId, NodeId};
    use serde::Deserialize;

    #[test]
    fn a_replica_that_answers_and_one_that_does_not_reach_the_same_state() {
        let (mut leader, mut follower) = (MultiVersionStore::new(), MultiVersionStore::new());
        let (mut lt, mut ft) = (MigrationTracker::new(), MigrationTracker::new());
        let mut lctx = probe::<()>(NodeId::new(0, 0));
        let mut fctx = probe::<()>(NodeId::new(0, 1));
        for i in 0..60u64 {
            let key = i % 4;
            let cmd = match i % 5 {
                0 => Command::get(key),
                1 => Command::delete(key),
                _ => Command::put(key, vec![i as u8; (i % 30) as usize]),
            };
            // Every third command has no client to answer (a no-op filler, a
            // command recovered from a peer's log).
            let req = (i % 3 != 0).then(|| RequestId::new(ClientId(1), i));
            execute(&cmd, req, &mut leader, &mut lt, true, |_| {}, &mut lctx);
            execute(&cmd, req, &mut follower, &mut ft, false, |_| {}, &mut fctx);
        }
        assert_eq!(leader.dump(), follower.dump(), "chains and executed");
        assert_eq!(leader.executed(), 60);
        assert_eq!(lctx.replies.len(), 40);
        assert!(fctx.replies.is_empty());
        // The answers are the values a client must see: i = 7 overwrote what
        // i = 3 put under key 3.
        let seventh = lctx.replies.iter().find(|r| r.id.seq == 7).unwrap();
        assert_eq!(seventh.value, Some(vec![3; 3]));
    }

    #[derive(Serialize, Deserialize)]
    enum DerivedOp {
        Get,
        Put(Vec<u8>),
        Delete,
    }

    #[derive(Serialize, Deserialize)]
    struct DerivedCommand {
        key: Key,
        op: DerivedOp,
    }

    #[derive(Serialize, Deserialize)]
    struct DerivedResponse {
        id: RequestId,
        value: Option<Vec<u8>>,
        ok: bool,
        redirect: Option<NodeId>,
        handoff: Option<Handoff>,
    }

    /// `Op` and `ClientResponse` hand their values to serde as byte strings;
    /// what reaches the wire and the WAL is what the derive wrote.
    #[test]
    fn values_sent_as_byte_strings_are_the_derived_bytes() {
        let values = [
            Vec::new(),
            vec![0],
            vec![7; 16],
            (0..=255).collect(),
            vec![1; 70_000],
        ];
        let mut ops = vec![(Op::Get, DerivedOp::Get), (Op::Delete, DerivedOp::Delete)];
        ops.extend(
            values
                .iter()
                .map(|v| (Op::Put(v.clone()), DerivedOp::Put(v.clone()))),
        );
        for (op, derived) in ops {
            let cmd = Command { key: 0xABCD, op };
            let want = paxi_codec::to_bytes(&DerivedCommand {
                key: cmd.key,
                op: derived,
            })
            .unwrap();
            assert_eq!(paxi_codec::to_bytes(&cmd).unwrap(), want, "{cmd}");
            assert_eq!(paxi_codec::from_bytes::<Command>(&want).unwrap(), cmd);
            for cut in 0..want.len().min(40) {
                assert!(paxi_codec::from_bytes::<Command>(&want[..cut]).is_err());
            }
        }
        let id = RequestId::new(ClientId(9), 4);
        let handoff = Handoff {
            lo: 1,
            hi: 2,
            group: paxi_core::group::GroupId(3),
            epoch: 4,
        };
        let mut responses = vec![
            ClientResponse::ok(id, None),
            ClientResponse::err(id),
            ClientResponse::redirected(id, NodeId::new(1, 2)),
            ClientResponse::handed_off(id, handoff),
        ];
        responses.extend(
            values
                .iter()
                .map(|v| ClientResponse::ok(id, Some(v.clone()))),
        );
        for r in responses {
            let want = paxi_codec::to_bytes(&DerivedResponse {
                id: r.id,
                value: r.value.clone(),
                ok: r.ok,
                redirect: r.redirect,
                handoff: r.handoff,
            })
            .unwrap();
            assert_eq!(paxi_codec::to_bytes(&r).unwrap(), want, "{r:?}");
            assert_eq!(paxi_codec::from_bytes::<ClientResponse>(&want).unwrap(), r);
        }
    }
}
