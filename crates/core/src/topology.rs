//! Network topologies and latency models.
//!
//! The paper's model assumes LAN round-trip times are Normal-distributed
//! (validated against AWS EC2 in its Figure 3: μ = 0.4271 ms, σ = 0.0476 ms)
//! and that WAN latencies differ per datacenter pair, so each pair gets its
//! own distribution. A [`Topology`] carries the symmetric RTT matrix between
//! zones plus the intra-zone LAN distribution, and samples *one-way* message
//! delays from them. The simulator samples it and the analytic model reads
//! its means and σ, so both describe one network.

use crate::dist::Rng64;
use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// Mean/σ of the intra-zone LAN RTT measured by the paper on AWS (ms).
pub const AWS_LAN_RTT_MEAN_MS: f64 = 0.4271;
/// Standard deviation of the AWS LAN RTT (ms).
pub const AWS_LAN_RTT_STD_MS: f64 = 0.0476;

/// A deployment topology: zone names and the RTT distribution between every
/// pair of zones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable zone (region) names.
    pub zone_names: Vec<String>,
    /// Symmetric mean RTT matrix in milliseconds; the diagonal holds the
    /// intra-zone LAN RTT.
    rtt_ms: Vec<Vec<f64>>,
    /// Standard deviation of intra-zone RTT in ms.
    lan_std_ms: f64,
    /// σ of inter-zone RTTs, as a fraction of the mean (WAN jitter).
    wan_jitter: f64,
}

impl Topology {
    /// Single-zone LAN topology with the paper's AWS-calibrated RTT.
    pub fn lan() -> Self {
        Topology {
            zone_names: vec!["LAN".to_string()],
            rtt_ms: vec![vec![AWS_LAN_RTT_MEAN_MS]],
            lan_std_ms: AWS_LAN_RTT_STD_MS,
            wan_jitter: 0.02,
        }
    }

    /// Builds a WAN topology from zone names and a symmetric RTT matrix (ms).
    /// Diagonal entries give each zone's internal LAN RTT.
    pub fn wan(zone_names: Vec<String>, rtt_ms: Vec<Vec<f64>>) -> Self {
        let z = zone_names.len();
        assert!(z > 0 && rtt_ms.len() == z && rtt_ms.iter().all(|r| r.len() == z));
        for (a, row) in rtt_ms.iter().enumerate() {
            for (b, ab) in row.iter().enumerate() {
                assert!(
                    (ab - rtt_ms[b][a]).abs() < 1e-9,
                    "RTT matrix must be symmetric"
                );
            }
        }
        Topology {
            zone_names,
            rtt_ms,
            lan_std_ms: AWS_LAN_RTT_STD_MS,
            wan_jitter: 0.02,
        }
    }

    /// The paper's five-region AWS deployment: N. Virginia, Ohio,
    /// California, Ireland, Japan, with RTTs approximating AWS inter-region
    /// latencies at the time of the study.
    pub fn aws5() -> Self {
        let names = ["VA", "OH", "CA", "IR", "JP"];
        let lan = AWS_LAN_RTT_MEAN_MS;
        // Symmetric matrix, ms. Order: VA OH CA IR JP.
        let m = vec![
            vec![lan, 11.0, 61.0, 75.0, 162.0],
            vec![11.0, lan, 50.0, 86.0, 156.0],
            vec![61.0, 50.0, lan, 138.0, 102.0],
            vec![75.0, 86.0, 138.0, lan, 220.0],
            vec![162.0, 156.0, 102.0, 220.0, lan],
        ];
        Topology::wan(names.iter().map(|s| s.to_string()).collect(), m)
    }

    /// `z` logical zones that all live in one LAN — used to deploy
    /// multi-leader protocols (WPaxos grids, WanKeeper groups) inside a
    /// single datacenter, as the paper's LAN experiments do with 9 nodes.
    pub fn lan_zones(z: usize) -> Self {
        let names = (0..z).map(|i| format!("LAN{i}")).collect();
        let m = vec![vec![AWS_LAN_RTT_MEAN_MS; z]; z];
        Topology::wan(names, m)
    }

    /// The three-region subset (VA, OH, CA) used in several of the paper's
    /// WAN experiments.
    pub fn aws3() -> Self {
        let five = Self::aws5();
        let names = vec!["VA".to_string(), "OH".to_string(), "CA".to_string()];
        let m = (0..3)
            .map(|a| (0..3).map(|b| five.rtt_ms[a][b]).collect())
            .collect();
        Topology::wan(names, m)
    }

    /// Number of zones.
    pub fn zones(&self) -> usize {
        self.zone_names.len()
    }

    /// Mean RTT between two zones in milliseconds.
    pub fn rtt_ms(&self, a: u8, b: u8) -> f64 {
        self.rtt_ms[a as usize][b as usize]
    }

    /// Standard deviation of the intra-zone RTT in milliseconds.
    pub fn lan_std_ms(&self) -> f64 {
        self.lan_std_ms
    }

    /// Samples a one-way message delay between zones `a` and `b`.
    ///
    /// One-way delays are Normal(RTT/2, σ/√2) so that the *sum of two*
    /// one-way samples — a round trip, the quantity the paper measured in
    /// Figure 3 — comes out Normal(RTT, σ). Samples are clamped to a small
    /// positive floor so causality is never violated.
    pub fn sample_one_way(&self, rng: &mut Rng64, a: u8, b: u8) -> Nanos {
        let rtt = self.rtt_ms(a, b);
        let std = if a == b {
            self.lan_std_ms
        } else {
            rtt * self.wan_jitter
        };
        let ms = rng
            .normal(rtt / 2.0, std / std::f64::consts::SQRT_2)
            .max(0.001);
        Nanos::from_millis_f64(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_topology_is_single_zone() {
        let t = Topology::lan();
        assert_eq!(t.zones(), 1);
        assert!((t.rtt_ms(0, 0) - AWS_LAN_RTT_MEAN_MS).abs() < 1e-12);
    }

    #[test]
    fn aws5_matches_paper_regions() {
        let t = Topology::aws5();
        assert_eq!(t.zone_names, ["VA", "OH", "CA", "IR", "JP"]);
        assert_eq!(t.rtt_ms(0, 1), 11.0);
        assert_eq!(t.rtt_ms(3, 4), 220.0);
        assert_eq!(t.rtt_ms(4, 3), 220.0);
    }

    #[test]
    fn one_way_samples_center_on_half_rtt() {
        let t = Topology::aws5();
        let mut rng = Rng64::seed(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += t.sample_one_way(&mut rng, 0, 4).as_millis_f64();
        }
        let mean = sum / n as f64;
        assert!((mean - 81.0).abs() < 1.0, "mean one-way VA-JP {}", mean);
    }

    #[test]
    fn samples_are_always_positive() {
        let t = Topology::lan();
        let mut rng = Rng64::seed(5);
        for _ in 0..50_000 {
            assert!(t.sample_one_way(&mut rng, 0, 0) > Nanos::ZERO);
        }
    }

    #[test]
    #[should_panic]
    fn asymmetric_matrix_rejected() {
        Topology::wan(
            vec!["a".into(), "b".into()],
            vec![vec![0.4, 10.0], vec![11.0, 0.4]],
        );
    }
}
