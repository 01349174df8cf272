//! TCP socket transport: the wire protocol and the public names.
//!
//! Every node binds a listener; peers and clients connect with a one-frame
//! handshake ([`Hello`]) declaring who they are. Frames are length-prefixed
//! `paxi-codec` bytes (see [`paxi_codec::frame`]). The runtime that serves
//! the sockets — one thread per node, the replica running on it — is
//! [`crate::reactor`].
//!
//! **Reply routing.** A client holds one connection, to its attach node.
//! Protocols may forward a request to another replica (e.g. a follower
//! redirecting to the leader), and the eventual `reply` happens *there* — so
//! each node keeps a route table: a request arriving on a client connection
//! records a local route; a request arriving from a peer records `via that
//! peer`. Responses hop back along the recorded routes until they reach the
//! node holding the client's connection. This mirrors how Paxi's RESTful
//! clients interact with any system node.
//!
//! **Peer links.** Two nodes share one connection, and both write on it:
//! a reply leaves on the socket its request came in on. The cluster
//! connects every pair at launch, the lower [`NodeId`] dialing the higher.
//! Outbound bytes wait in a *bounded* per-connection buffer: when a peer
//! stalls, excess frames are shed whole instead of accumulating without
//! bound (quorum protocols tolerate loss natively). When a link breaks,
//! both ends forget it; the lower one dials again under exponential backoff
//! with jitter, sending [`Hello::Peer`] first, and the higher one adopts
//! that connection and counts what it sends meanwhile as reconnect-window
//! losses. A restarted peer is thus rejoined automatically and a dead one
//! is not hammered. Encoding failures are dropped (best-effort transport),
//! never panicked on; every loss is charged to a named cause.

use paxi_core::id::{ClientId, NodeId};
use serde::{Deserialize, Serialize};

pub use crate::reactor::TcpCluster;

/// The client of a [`TcpCluster`]: [`crate::PipelinedClient`], whose
/// `execute` / `put` / `get` are the blocking one-request-at-a-time API.
pub type TcpClient = crate::reactor::PipelinedClient;

/// Connection handshake: the first frame on every connection.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) enum Hello {
    Peer(NodeId),
    Client(ClientId),
}
