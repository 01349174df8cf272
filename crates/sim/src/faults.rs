//! Fault injection (re-exported from `paxi_core::faults`).
//!
//! The Crash / Drop / Slow / Flaky primitives and the [`FaultPlan`] schedule
//! live in `paxi-core` so the exact same plan type drives both this
//! simulator (under virtual time) and the live transports in
//! `paxi-transport` (under wall-clock time, via
//! `paxi_transport::FaultInjector`). This module re-exports them under
//! their historical `paxi_sim` paths.
//!
//! The simulator lends the plan to each node it drives
//! (`paxi_transport::runtime::Node`, the live node's type), whose
//! `paxi_core::faults::CrashGate` asks it at the instant the node would
//! start serving an input. The simulator itself asks
//! [`FaultPlan::message_fate`] for every emitted message (which then
//! arrives no earlier than the one sent on its link before it,
//! `paxi_core::faults::LinkOrder`), and ticks a node at each crash window's
//! end ([`FaultPlan::recoveries`]) so that one nobody talks to thaws and
//! rejoins the protocol.

pub use paxi_core::faults::{CrashMode, FaultPlan, FaultWindow, MsgFate};
