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
//!
//! Both sides count what a node does as a [`Work`], and
//! [`CostModel::service`] is the one place a `Work` is priced.

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

/// What a node does for one handled event (the simulator) or one
/// committed command (the model). A message carrying `k` commands counts
/// once, plus `k - 1` on the matching `*_cmds` field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Messages and client requests handled (`t_in` each).
    pub inputs: u64,
    /// Extra commands the inputs carry (`t_cmd` each).
    pub input_cmds: u64,
    /// Outgoing messages serialized, a broadcast once (`t_out` each).
    pub serializations: u64,
    /// Extra commands the serialized messages carry (`t_cmd` each).
    pub serialized_cmds: u64,
    /// Messages on the wire, a broadcast once per recipient (NIC time each).
    pub transmissions: u64,
    /// Extra commands on the wire (`cmd_bytes` of NIC time each).
    pub transmitted_cmds: u64,
    /// Fsyncs of the node's durable store (`t_fsync` each).
    pub syncs: u64,
}

impl CostModel {
    /// NIC transmission time of `bytes`, ns.
    fn wire(&self, bytes: u64) -> u64 {
        (bytes * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps
    }

    /// The service time of `w`: its CPU terms times `cpu_penalty`, floored
    /// to whole nanoseconds, then its NIC and fsync time, which model
    /// devices and take no penalty. The simulator's bit-identity rests on
    /// this order.
    pub fn service(&self, w: &Work) -> Nanos {
        let cpu = self.t_in.0 * w.inputs
            + self.t_out.0 * w.serializations
            + self.t_cmd.0 * (w.input_cmds + w.serialized_cmds);
        let cpu = (cpu as f64 * self.cpu_penalty) as u64;
        Nanos(
            cpu + self.wire(self.msg_bytes) * w.transmissions
                + self.wire(self.cmd_bytes) * w.transmitted_cmds
                + self.t_fsync.0 * w.syncs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_nic_cost_is_about_a_microsecond() {
        let c = CostModel::default();
        // 128 B = 1024 bits over 1 Gbps = 1.024 us.
        let one = Work {
            transmissions: 1,
            ..Work::default()
        };
        assert_eq!(c.service(&one), Nanos(1024));
    }

    #[test]
    fn a_penalized_batch_broadcast_prices_cpu_then_floors_and_adds_nic_and_disk() {
        // A leader takes one request, broadcasts a k = 16 batch to 8 peers
        // and syncs once. t_cmd is 1 001 ns so that the penalty leaves half
        // a nanosecond to floor.
        let c = CostModel {
            cpu_penalty: 3.5,
            t_cmd: Nanos(1_001),
            ..CostModel::default()
        };
        let w = Work {
            inputs: 1,
            serializations: 1,
            serialized_cmds: 15,
            transmissions: 8,
            transmitted_cmds: 8 * 15,
            syncs: 1,
            ..Work::default()
        };
        // CPU: (10 000 + 5 000 + 15 · 1 001) · 3.5 = 105 052.5 -> 105 052
        // (flooring each term first would give 105 045). NIC: 8 · 1 024 +
        // 120 · 512 = 69 632; disk: 100 000; neither is penalized.
        assert_eq!(c.service(&w), Nanos(105_052 + 69_632 + 100_000));
    }
}
