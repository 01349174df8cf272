//! Model parameters (paper Table 2).
//!
//! A [`Deployment`] bundles everything the analytic models need: the
//! cluster shape ([`ClusterConfig`]), the network ([`Topology`]: per-zone-
//! pair RTTs and the LAN σ), and per-message processing costs
//! ([`CostModel`]) — the very three descriptions the simulator runs on, so
//! the model and the simulator cross-validate by construction. Units are
//! seconds internally; RTTs are specified in milliseconds for readability.

use paxi_core::config::ClusterConfig;
use paxi_core::cost::{CostModel, Work};
use paxi_core::topology::Topology;
use serde::{Deserialize, Serialize};

/// The modeled deployment: cluster shape, network, costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    /// Zones and nodes per zone.
    pub cluster: ClusterConfig,
    /// RTT matrix between zones and the intra-zone RTT σ.
    pub topology: Topology,
    /// Message processing costs.
    pub cost: CostModel,
}

impl Deployment {
    /// Single-zone LAN of `n` nodes with the paper's AWS-calibrated RTT.
    pub fn lan(n: usize) -> Self {
        let n = u8::try_from(n).expect("a LAN of at most 255 nodes");
        Deployment {
            cluster: ClusterConfig::lan(n),
            topology: Topology::lan(),
            cost: CostModel::default(),
        }
    }

    /// The paper's five-region WAN (VA, OH, CA, IR, JP) with `per_zone`
    /// nodes per region.
    pub fn aws5(per_zone: usize) -> Self {
        Self::wan(Topology::aws5(), per_zone)
    }

    /// Three-region subset (VA, OH, CA).
    pub fn aws3(per_zone: usize) -> Self {
        Self::wan(Topology::aws3(), per_zone)
    }

    fn wan(topology: Topology, per_zone: usize) -> Self {
        let zones = topology.zones() as u8;
        let per_zone = u8::try_from(per_zone).expect("at most 255 nodes per zone");
        Deployment {
            cluster: ClusterConfig::wan(zones, per_zone),
            topology,
            cost: CostModel::default(),
        }
    }

    /// Total nodes.
    pub fn n(&self) -> usize {
        self.cluster.n()
    }

    /// Mean RTT between two zones, ms.
    pub fn rtt(&self, a: usize, b: usize) -> f64 {
        self.topology.rtt_ms(a as u8, b as u8)
    }

    /// Mean RTTs (ms) from a node in `zone` to every *other* node in the
    /// deployment (its followers), in node order.
    pub fn follower_rtts(&self, zone: usize) -> Vec<f64> {
        let per_zone = self.cluster.per_zone as usize;
        let mut v = Vec::with_capacity(self.n() - 1);
        for z in 0..self.cluster.zones as usize {
            let count = if z == zone { per_zone - 1 } else { per_zone };
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

    /// Service time of `work` on this deployment's cost model, seconds.
    pub fn service_time(&self, work: &Work) -> f64 {
        self.cost.service(work).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::paxos_leader;
    use paxi_core::topology::AWS_LAN_RTT_MEAN_MS as LAN_RTT_MS;

    #[test]
    fn a_paxos_round_at_n9_costs_its_leader_109_216_ns() {
        // Request + 8 P2b in, P2a broadcast + reply serialized, 8 P2a + 1
        // reply on the wire: 9·10 + 2·5 + 9·1.024 µs. The paper's
        // `2·to + N·ti + 2N·sm/b` also charged the 8 P2b and the request
        // NIC time (118.432 µs); here a received message costs its `t_in`.
        let w = paxos_leader(9).work();
        assert_eq!(
            w,
            Work {
                inputs: 9,
                serializations: 2,
                transmissions: 9,
                ..Work::default()
            }
        );
        let d = Deployment::lan(9);
        assert_eq!(d.cost.service(&w).0, 109_216);
        // 9 156 rounds/s: the single-leader wall the paper measures at
        // around 8k ops/s.
        let mu = 1.0 / d.service_time(&w);
        assert!((9_156.0..9_157.0).contains(&mu), "mu {mu}");
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
