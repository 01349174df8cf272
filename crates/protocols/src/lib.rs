//! # paxi-protocols
//!
//! Strongly-consistent replication protocols implemented over `paxi-core`.

#![warn(missing_docs)]

pub mod paxos;
pub mod wpaxos;
pub mod epaxos;
pub mod groups;
pub mod kernel;
pub mod vpaxos;
pub mod wankeeper;
pub mod raft;
pub mod snapshot;
#[cfg(test)]
mod testkit;
pub mod window;

pub use paxos::{MultiPaxos, PaxosConfig, PaxosMsg};
pub use epaxos::{EPaxos, EpaxosMsg, IRef};
pub use raft::{Raft, RaftConfig, RaftMsg};
pub use vpaxos::{VPaxos, VPaxosConfig, VpMsg};
pub use wankeeper::{WanKeeper, WanKeeperConfig, WkMsg};
pub use wpaxos::{WPaxos, WPaxosConfig, WPaxosMsg};
