//! Message-processing cost model, shared by the analytic model and the
//! simulator.
//!
//! Following the paper's §3, every node is a single processing pipeline (one
//! CPU + one NIC treated as a single queue). Handling a round costs CPU time
//! for each incoming message (`t_in`), CPU time per outgoing *serialization*
//! (`t_out`; a broadcast serializes once), and NIC transmission time
//! per outgoing message (`message_bytes / bandwidth`). These service times
//! alone determine the maximum throughput of a node (µ = 1/ts), which is how
//! the single-leader bottleneck emerges in both the model and the simulator.

use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// Per-node processing costs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU time to deserialize + handle one incoming message.
    pub t_in: Nanos,
    /// CPU time to serialize one outgoing message (charged once per
    /// broadcast).
    pub t_out: Nanos,
    /// Size of a protocol message on the wire, bytes.
    pub msg_bytes: u64,
    /// NIC bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Multiplier on CPU costs, modeling protocols whose message handling is
    /// inherently heavier (the paper penalizes EPaxos for dependency
    /// computation and conflict detection).
    pub cpu_penalty: f64,
    /// Fixed extra delay added to every inter-node message hop, modeling a
    /// heavier transport stack (the paper attributes etcd's latency gap in
    /// Figure 7 to HTTP inter-node communication; this reproduces it).
    pub wire_overhead: Nanos,
    /// Time one `fsync` holds the node's pipeline, charged per sync the
    /// node's durable store performed while handling an event (the
    /// durability tax). SSD-class by default; only incurred when a replica
    /// actually has storage attached, so purely-volatile runs are unchanged.
    pub t_fsync: Nanos,
    /// Marginal CPU time per *additional* command carried by a batched
    /// message (the first command rides on `t_in`/`t_out`). This is the
    /// model's amortization term: a batch of k commands costs the fixed
    /// per-message work once plus `(k-1) · t_cmd`, so per-command service
    /// time falls toward `t_cmd` as k grows.
    pub t_cmd: Nanos,
    /// Marginal wire bytes per additional command in a batched message
    /// (headers and the first command ride on `msg_bytes`).
    pub cmd_bytes: u64,
}

impl Default for CostModel {
    /// Calibrated so a 9-node MultiPaxos leader saturates around 8–10 k
    /// rounds/s, matching the paper's m5.large measurements (Figs 7 and 9).
    fn default() -> Self {
        CostModel {
            t_in: Nanos::micros(10),
            t_out: Nanos::micros(5),
            msg_bytes: 128,
            bandwidth_bps: 1_000_000_000,
            cpu_penalty: 1.0,
            wire_overhead: Nanos::ZERO,
            t_fsync: Nanos::micros(100),
            t_cmd: Nanos::micros(1),
            cmd_bytes: 64,
        }
    }
}

impl CostModel {
    /// NIC transmission time for one message.
    pub fn nic(&self) -> Nanos {
        Nanos((self.msg_bytes * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// NIC transmission time for one additional command's worth of payload
    /// in a batched message.
    pub fn cmd_nic(&self) -> Nanos {
        Nanos((self.cmd_bytes * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Raw (pre-penalty) marginal CPU nanoseconds for a message carrying
    /// `cmds` commands: zero at `cmds <= 1`, `(cmds - 1) · t_cmd` beyond.
    /// The caller folds this into its CPU total before applying
    /// `cpu_penalty`, exactly like `t_in`/`t_out`.
    pub fn cmd_cpu_extra(&self, cmds: u64) -> u64 {
        self.t_cmd.0 * cmds.saturating_sub(1)
    }

    /// Marginal NIC nanoseconds for one transmission of a message carrying
    /// `cmds` commands: zero at `cmds <= 1`.
    pub fn cmd_nic_extra(&self, cmds: u64) -> u64 {
        self.cmd_nic().0 * cmds.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_nic_cost_is_about_a_microsecond() {
        let c = CostModel::default();
        // 128 B = 1024 bits over 1 Gbps = 1.024 us.
        assert_eq!(c.nic(), Nanos(1024));
    }
}
