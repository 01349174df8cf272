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
                MigrationAction::Install(dump) => store.install_range(dump),
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
        store.execute(cmd)
    };
    if let Some(id) = req {
        ctx.trace(TraceStage::Execute, id);
        ctx.reply(ClientResponse::ok(id, value));
    }
}
