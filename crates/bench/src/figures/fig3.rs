//! Figure 3 — histogram of local-area RTTs within an AWS EC2 region.
//!
//! The paper measured μ = 0.4271 ms, σ = 0.0476 ms and concluded LAN RTTs
//! are approximately Normal — the assumption the whole LAN model rests on.
//! We reproduce the figure by pinging through the simulator's network model
//! (which was calibrated to exactly those moments) and histogramming the
//! measured RTTs.

use crate::table::{f2, Table};
use paxi_core::dist::Rng64;
use paxi_core::topology::{Topology, AWS_LAN_RTT_MEAN_MS, AWS_LAN_RTT_STD_MS};

/// Builds the RTT histogram table (bucket midpoint, probability density).
pub fn run(quick: bool) -> Vec<Table> {
    let samples = if quick { 20_000 } else { 200_000 };
    let topo = Topology::lan();
    let mut rng = Rng64::seed(3);
    // An RTT is two one-way samples, like a real ping.
    let rtts: Vec<f64> = (0..samples)
        .map(|_| {
            (topo.sample_one_way(&mut rng, 0, 0) + topo.sample_one_way(&mut rng, 0, 0))
                .as_millis_f64()
        })
        .collect();

    let lo = 0.30;
    let hi = 0.60;
    let buckets = 30;
    let width = (hi - lo) / buckets as f64;
    let mut counts = vec![0usize; buckets];
    for &r in &rtts {
        if r >= lo && r < hi {
            counts[((r - lo) / width) as usize] += 1;
        }
    }
    let n = rtts.len() as f64;
    let mean = rtts.iter().sum::<f64>() / n;
    let var = rtts.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n;

    let mut t = Table::new(
        format!(
            "Fig 3: LAN RTT histogram (measured mu={:.4} sigma={:.4}; paper mu={} sigma={})",
            mean,
            var.sqrt(),
            AWS_LAN_RTT_MEAN_MS,
            AWS_LAN_RTT_STD_MS
        ),
        &["rtt_ms", "density"],
    );
    for (i, &c) in counts.iter().enumerate() {
        let mid = lo + (i as f64 + 0.5) * width;
        let density = c as f64 / n / width;
        t.row(vec![format!("{mid:.3}"), f2(density)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_moments_match_paper() {
        let t = &run(true)[0];
        // Title embeds the measured moments; sanity check shape instead:
        // the density peaks near 0.427 ms.
        let peak = t
            .rows
            .iter()
            .max_by(|a, b| {
                a[1].parse::<f64>()
                    .unwrap()
                    .partial_cmp(&b[1].parse::<f64>().unwrap())
                    .unwrap()
            })
            .unwrap();
        let peak_ms: f64 = peak[0].parse().unwrap();
        assert!((peak_ms - 0.427).abs() < 0.05, "peak at {peak_ms}");
        // Peak density ~ N(mu, sigma_rtt): sigma of the ping RTT is
        // sqrt(2)*(sigma/2)*2 = sigma*sqrt(2)/... just require > 4.
        let peak_density: f64 = peak[1].parse().unwrap();
        assert!(peak_density > 4.0, "peak density {peak_density}");
    }
}
