//! Commands, client requests, and responses.
//!
//! All protocols in this framework replicate a log (or a per-object log, or a
//! dependency graph) of [`Command`]s against the in-memory key-value state
//! machine in [`crate::store`]. A command targets one key and is either a
//! read (`Get`) or a write (`Put`). Two commands *interfere* when they touch
//! the same key and at least one of them writes — the interference relation
//! drives EPaxos dependency tracking and defines the "conflict" workload
//! parameter `c` of the paper.

use crate::group::GroupId;
use crate::id::{NodeId, RequestId};
use serde::de::{self, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Keys are dense integers; the benchmark draws them from `0..K` using one of
/// the workload distributions (uniform / normal / zipfian / exponential).
pub type Key = u64;

/// Opaque value bytes.
pub type Value = Vec<u8>;

/// A value on its way out through serde as one byte string — a length and a
/// `memcpy` — where a `Vec<u8>` is a sequence of `u8` elements, one call
/// each. The codec writes the same bytes either way.
pub(crate) struct Bytes<'a>(pub(crate) &'a [u8]);

impl Serialize for Bytes<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

/// [`Bytes`] on its way in.
pub(crate) struct ByteBuf(pub(crate) Value);

impl<'de> Deserialize<'de> for ByteBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;
        impl Visitor<'_> for BytesVisitor {
            type Value = ByteBuf;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte string")
            }
            fn visit_bytes<E: de::Error>(self, v: &[u8]) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v.to_vec()))
            }
            fn visit_byte_buf<E: de::Error>(self, v: Vec<u8>) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v))
            }
        }
        deserializer.deserialize_byte_buf(BytesVisitor)
    }
}

/// The operation part of a command. Serialized as the derive would, but for
/// the value, which travels as [`Bytes`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the current version of the key.
    Get,
    /// Install a new version of the key.
    Put(Value),
    /// Remove the key (records a tombstone version).
    Delete,
}

#[derive(Serialize)]
enum OpOut<'a> {
    Get,
    Put(Bytes<'a>),
    Delete,
}

#[derive(Deserialize)]
enum OpIn {
    Get,
    Put(ByteBuf),
    Delete,
}

impl Serialize for Op {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let out = match self {
            Op::Get => OpOut::Get,
            Op::Put(v) => OpOut::Put(Bytes(v)),
            Op::Delete => OpOut::Delete,
        };
        out.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Op {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(match OpIn::deserialize(deserializer)? {
            OpIn::Get => Op::Get,
            OpIn::Put(v) => Op::Put(v.0),
            OpIn::Delete => Op::Delete,
        })
    }
}

impl Op {
    /// Whether this operation mutates state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get)
    }
}

/// A state-machine command: one operation against one key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Command {
    /// Target key.
    pub key: Key,
    /// Operation to apply.
    pub op: Op,
}

impl Command {
    /// Read command.
    pub fn get(key: Key) -> Self {
        Command { key, op: Op::Get }
    }

    /// Write command.
    pub fn put(key: Key, value: Value) -> Self {
        Command {
            key,
            op: Op::Put(value),
        }
    }

    /// Delete command.
    pub fn delete(key: Key) -> Self {
        Command {
            key,
            op: Op::Delete,
        }
    }

    /// Whether the command writes.
    pub fn is_write(&self) -> bool {
        self.op.is_write()
    }

    /// EPaxos-style interference relation: same key, not both reads.
    ///
    /// Non-interfering commands may be committed on the fast path in any
    /// relative order; interfering commands must be ordered by the protocol.
    pub fn interferes(&self, other: &Command) -> bool {
        self.key == other.key && (self.is_write() || other.is_write())
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            Op::Get => write!(f, "GET {}", self.key),
            Op::Put(v) => write!(f, "PUT {} ({}B)", self.key, v.len()),
            Op::Delete => write!(f, "DEL {}", self.key),
        }
    }
}

/// A client request as delivered to a replica by the runtime.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientRequest {
    /// Unique id used to route the response back to the issuing client.
    pub id: RequestId,
    /// The command to replicate and execute.
    pub cmd: Command,
}

/// The reply a replica produces once a command is committed and executed.
/// Serialized as the derive would, but for the value, which travels as
/// [`Bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Echoes the request id.
    pub id: RequestId,
    /// `Get` returns the read value (or `None` if absent); `Put`/`Delete`
    /// return the previous value, mirroring Paxi's key-value store API.
    pub value: Option<Value>,
    /// False when the protocol rejected the request (e.g. redirected).
    pub ok: bool,
    /// On rejection, where the client should retry: the node the replica
    /// believes leads the request's consensus group. Smart clients (the
    /// sharded `ShardRouter`) cache this hint per group and re-issue the
    /// command there; `None` means the replica has no better idea and the
    /// client should fall back to probing.
    pub redirect: Option<NodeId>,
    /// Set when the request's key range was handed off to another consensus
    /// group by a committed shard migration: the authoritative new routing
    /// for the range, tagged with the routing epoch that installed it.
    /// Routers adopt the override (if its epoch beats their cache) and
    /// re-issue the command at the new owner.
    pub handoff: Option<Handoff>,
}

#[derive(Serialize)]
struct ResponseOut<'a> {
    id: RequestId,
    value: Option<Bytes<'a>>,
    ok: bool,
    redirect: Option<NodeId>,
    handoff: Option<Handoff>,
}

#[derive(Deserialize)]
struct ResponseIn {
    id: RequestId,
    value: Option<ByteBuf>,
    ok: bool,
    redirect: Option<NodeId>,
    handoff: Option<Handoff>,
}

impl Serialize for ClientResponse {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let out = ResponseOut {
            id: self.id,
            value: self.value.as_deref().map(Bytes),
            ok: self.ok,
            redirect: self.redirect,
            handoff: self.handoff,
        };
        out.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for ClientResponse {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let r = ResponseIn::deserialize(deserializer)?;
        Ok(ClientResponse {
            id: r.id,
            value: r.value.map(|v| v.0),
            ok: r.ok,
            redirect: r.redirect,
            handoff: r.handoff,
        })
    }
}

/// An epoch-tagged range-ownership override carried on rejection responses
/// after a shard migration commits: keys in `[lo, hi)` now belong to
/// `group`, as of routing epoch `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Handoff {
    /// Inclusive lower bound of the moved range.
    pub lo: Key,
    /// Exclusive upper bound of the moved range.
    pub hi: Key,
    /// The range's new owning group.
    pub group: GroupId,
    /// Routing epoch that installed the override (higher wins).
    pub epoch: u64,
}

impl ClientResponse {
    /// Successful response carrying `value`.
    pub fn ok(id: RequestId, value: Option<Value>) -> Self {
        ClientResponse {
            id,
            value,
            ok: true,
            redirect: None,
            handoff: None,
        }
    }

    /// Failure/rejection response.
    pub fn err(id: RequestId) -> Self {
        ClientResponse {
            id,
            value: None,
            ok: false,
            redirect: None,
            handoff: None,
        }
    }

    /// Wrong-leader rejection pointing the client at `leader`.
    pub fn redirected(id: RequestId, leader: NodeId) -> Self {
        ClientResponse {
            id,
            value: None,
            ok: false,
            redirect: Some(leader),
            handoff: None,
        }
    }

    /// Rejection because the key's range was migrated away: the client
    /// should follow `handoff` to the range's new owning group.
    pub fn handed_off(id: RequestId, handoff: Handoff) -> Self {
        ClientResponse {
            id,
            value: None,
            ok: false,
            redirect: None,
            handoff: Some(handoff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_requires_a_writer() {
        let r1 = Command::get(5);
        let r2 = Command::get(5);
        let w = Command::put(5, vec![1]);
        let w_other = Command::put(6, vec![1]);
        assert!(!r1.interferes(&r2), "two reads never interfere");
        assert!(r1.interferes(&w));
        assert!(w.interferes(&r1), "interference is symmetric");
        assert!(w.interferes(&w.clone()));
        assert!(!w.interferes(&w_other), "different keys never interfere");
    }

    #[test]
    fn delete_counts_as_write() {
        assert!(Command::delete(1).is_write());
        assert!(Command::delete(1).interferes(&Command::get(1)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Command::get(3).to_string(), "GET 3");
        assert_eq!(Command::put(3, vec![0; 16]).to_string(), "PUT 3 (16B)");
        assert_eq!(Command::delete(9).to_string(), "DEL 9");
    }
}
