//! # paxi-transport
//!
//! Wall-clock runtimes for Paxi protocols — the empirical counterpart to the
//! virtual-time simulator in `paxi-sim` — and the one node loop both run
//! replica code through. The same [`paxi_core::traits::Replica`]
//! implementations run here on real threads and real sockets:
//!
//! * [`channel`] — all nodes in one process over `std::sync::mpsc` channels (Paxi's
//!   "cluster simulation" mode, which simplifies debugging).
//! * [`tcp`] (unix) — one TCP listener per node, length-prefixed
//!   `paxi-codec` frames, reply relaying across forwards. Its runtime is
//!   [`reactor`]: per node one thread that runs a hand-rolled `poll(2)`
//!   loop ([`poll`]) over all of the node's sockets *and* the replica's
//!   handlers, run to completion; pipelined clients, 10k+ concurrent
//!   connections per node.
//! * [`udp`] — one datagram socket per node; best-effort delivery with
//!   client retries (for protocols that gain nothing from ordered delivery).
//! * [`runtime`] — [`runtime::Node`], the one-event-at-a-time replica driver
//!   all three share with the simulator (the crash gate, the timer tokens,
//!   the broadcast set and the one `Context` live in it; live, so do the
//!   timers and link fates), and the inbox loop of the channel and UDP
//!   transports. Every transport has a `launch_chaotic` constructor that
//!   lends each node a [`paxi_core::faults::FaultPlan`] (Crash / Drop /
//!   Slow / Flaky), read against wall-clock time since launch by the
//!   functions the simulator calls, on the nodes' own threads.
//! * [`obs`] — drop accounting: every loss path (encode failure, oversize
//!   datagram, full write buffer, reconnect window, injected fault, crashed
//!   node, a loss a replica charges itself) charges a named
//!   [`paxi_core::obs::DropCause`] in the cluster's one shared
//!   [`DropCounters`], so no message disappears without a ledger entry.

#![warn(missing_docs)]

pub mod channel;
pub mod envelope;
pub mod obs;
#[cfg(unix)]
pub mod poll;
#[cfg(unix)]
pub mod reactor;
pub mod runtime;
#[cfg(unix)]
pub mod tcp;
pub mod udp;

pub use channel::{InProcCluster, SyncClient};
pub use envelope::Envelope;
pub use obs::{ConnCounters, DropCounters};
#[cfg(unix)]
pub use reactor::{run_swarm, PipelinedClient, ReactorCluster, SwarmReport};
pub use runtime::Remake;
#[cfg(unix)]
pub use tcp::{TcpClient, TcpCluster};
pub use udp::{OversizeDatagram, UdpClient, UdpCluster, MAX_DGRAM};
