//! Model parameters (paper Table 2).
//!
//! A [`Deployment`] bundles everything the analytic models need: cluster
//! shape, per-zone-pair RTTs, and per-message processing costs — the
//! simulator's own [`CostModel`], so the model and the simulator
//! cross-validate by construction. Units are seconds internally; RTTs are
//! specified in milliseconds for readability.

use paxi_core::cost::CostModel;
use serde::{Deserialize, Serialize};

/// The modeled deployment: zones, nodes, inter-zone RTTs, costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    /// Number of zones.
    pub zones: usize,
    /// Nodes per zone.
    pub per_zone: usize,
    /// Symmetric mean RTT matrix in ms; diagonal = intra-zone LAN RTT.
    pub rtt_ms: Vec<Vec<f64>>,
    /// Standard deviation of the intra-zone RTT, ms (for order statistics).
    pub lan_std_ms: f64,
    /// Message processing costs.
    pub cost: CostModel,
}

/// Paper-calibrated LAN RTT mean (ms).
pub const LAN_RTT_MS: f64 = 0.4271;
/// Paper-calibrated LAN RTT standard deviation (ms).
pub const LAN_STD_MS: f64 = 0.0476;

impl Deployment {
    /// Single-zone LAN of `n` nodes with the paper's AWS-calibrated RTT.
    pub fn lan(n: usize) -> Self {
        Deployment {
            zones: 1,
            per_zone: n,
            rtt_ms: vec![vec![LAN_RTT_MS]],
            lan_std_ms: LAN_STD_MS,
            cost: CostModel::default(),
        }
    }

    /// The paper's five-region WAN (VA, OH, CA, IR, JP) with `per_zone`
    /// nodes per region.
    pub fn aws5(per_zone: usize) -> Self {
        let lan = LAN_RTT_MS;
        Deployment {
            zones: 5,
            per_zone,
            rtt_ms: vec![
                vec![lan, 11.0, 61.0, 75.0, 162.0],
                vec![11.0, lan, 50.0, 86.0, 156.0],
                vec![61.0, 50.0, lan, 138.0, 102.0],
                vec![75.0, 86.0, 138.0, lan, 220.0],
                vec![162.0, 156.0, 102.0, 220.0, lan],
            ],
            lan_std_ms: LAN_STD_MS,
            cost: CostModel::default(),
        }
    }

    /// Three-region subset (VA, OH, CA).
    pub fn aws3(per_zone: usize) -> Self {
        let five = Self::aws5(per_zone);
        Deployment {
            zones: 3,
            per_zone,
            rtt_ms: (0..3)
                .map(|a| (0..3).map(|b| five.rtt_ms[a][b]).collect())
                .collect(),
            lan_std_ms: LAN_STD_MS,
            cost: CostModel::default(),
        }
    }

    /// Total nodes.
    pub fn n(&self) -> usize {
        self.zones * self.per_zone
    }

    /// Mean RTT between two zones, ms.
    pub fn rtt(&self, a: usize, b: usize) -> f64 {
        self.rtt_ms[a][b]
    }

    /// Mean RTTs (ms) from a node in `zone` to every *other* node in the
    /// deployment (its followers), in node order.
    pub fn follower_rtts(&self, zone: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.n() - 1);
        for z in 0..self.zones {
            let count = if z == zone {
                self.per_zone - 1
            } else {
                self.per_zone
            };
            for _ in 0..count {
                v.push(self.rtt(zone, z));
            }
        }
        v
    }

    /// Majority quorum size.
    pub fn majority(&self) -> usize {
        self.n() / 2 + 1
    }

    /// CPU time to process one incoming message, seconds (`ti`).
    pub fn ti(&self) -> f64 {
        self.cost.t_in.as_secs_f64()
    }

    /// CPU time to serialize one outgoing message, seconds (`to`).
    pub fn to(&self) -> f64 {
        self.cost.t_out.as_secs_f64()
    }

    /// NIC transmission time for one message, seconds (`sm/b`).
    pub fn nic(&self) -> f64 {
        self.cost.nic().as_secs_f64()
    }

    /// The paper's Paxos round service time at the leader:
    /// `ts = 2·to + N·ti + 2N·sm/b`.
    pub fn paxos_service_time(&self, n: usize) -> f64 {
        let (sm, b) = (self.cost.msg_bytes as f64, self.cost.bandwidth_bps as f64);
        2.0 * self.to() + n as f64 * self.ti() + 2.0 * n as f64 * sm * 8.0 / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paxos_service_time_matches_paper_expression() {
        // N = 9: 2*5us + 9*10us + 2*9*1024/1e9 s = 10 + 90 + 18.4 us.
        let ts = Deployment::lan(9).paxos_service_time(9);
        assert!((ts - 118.4e-6).abs() < 0.5e-6, "ts {ts}");
        // Max throughput ~ 8.4k rounds/s: the single-leader wall the paper
        // measures at around 8k ops/s.
        let mu = 1.0 / ts;
        assert!((7_000.0..10_000.0).contains(&mu), "mu {mu}");
    }

    #[test]
    fn lan_deployment_shape() {
        let d = Deployment::lan(9);
        assert_eq!(d.n(), 9);
        assert_eq!(d.majority(), 5);
        assert_eq!(d.follower_rtts(0).len(), 8);
        assert!(d.follower_rtts(0).iter().all(|&r| r == LAN_RTT_MS));
    }

    #[test]
    fn aws5_matrix_is_symmetric() {
        let d = Deployment::aws5(1);
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(d.rtt(a, b), d.rtt(b, a));
            }
        }
        assert_eq!(d.rtt(0, 4), 162.0);
    }

    #[test]
    fn follower_rtts_cover_all_other_nodes() {
        let d = Deployment::aws3(3);
        let rtts = d.follower_rtts(1);
        assert_eq!(rtts.len(), 8);
        // Two of them are OH-internal (LAN), three each VA and CA.
        let lan_count = rtts.iter().filter(|&&r| r == LAN_RTT_MS).count();
        assert_eq!(lan_count, 2);
    }
}
