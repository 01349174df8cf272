//! The quiet part of a measured window.
//!
//! The sandbox's two cores are shared with other tenants: a fixed
//! computation's speed varies by tens of percent from one second to the
//! next, and always toward slower (README, "Measuring on a shared
//! machine"). A rate or latency taken over a whole window therefore says as
//! much about the neighbours as about the code. So the window is cut into
//! [`SLICE_NS`] slices, the slices are ranked by replies completed, and the
//! wall-clock metrics are taken from the best [`QUIET_SHARE`] of them (an
//! eighth): the
//! part of the run in which the machine was most nearly ours. The same rule
//! on both sides of a comparison keeps the comparison fair; the absolute
//! numbers are those of an undisturbed machine, not a time average.

use crate::load::{Sample, SLICE_NS};

/// Share of the window's slices that count as quiet.
pub const QUIET_SHARE: f64 = 0.125;

/// What the quiet slices of one window hold.
#[derive(Debug)]
pub struct Quiet {
    /// How many slices were kept, of how many whole ones the window had.
    pub kept: usize,
    pub slices: usize,
    /// Ok replies per second over the kept slices.
    pub ops_per_s: f64,
    /// Submit-to-reply times of the replies that arrived in kept slices,
    /// ascending.
    pub latencies_ns: Vec<u32>,
    /// Process CPU seconds spent during the kept slices, if `/proc` tells.
    pub cpu_s: Option<f64>,
    /// Ok replies in the kept slices.
    pub ok: u64,
}

/// Picks the quiet slices of a window of `slice_cpu_s.len()` whole slices.
/// Replies that arrived after the last whole slice are ignored.
pub fn analyze(samples: &[Sample], slice_cpu_s: &[Option<f64>]) -> Quiet {
    let slices = slice_cpu_s.len();
    let mut ok_by_slice = vec![0u64; slices];
    for s in samples {
        if let Some(n) = ok_by_slice.get_mut(s.slice as usize) {
            *n += 1;
        }
    }
    let mut ranked: Vec<usize> = (0..slices).collect();
    // Most replies first; the earlier slice on a tie, so the choice is stable.
    ranked.sort_by_key(|&i| (std::cmp::Reverse(ok_by_slice[i]), i));
    let kept = ((slices as f64 * QUIET_SHARE).ceil() as usize).clamp(1.min(slices), slices);
    let mut is_quiet = vec![false; slices];
    for &i in &ranked[..kept] {
        is_quiet[i] = true;
    }
    let ok: u64 = ranked[..kept].iter().map(|&i| ok_by_slice[i]).sum();
    let mut latencies_ns: Vec<u32> = samples
        .iter()
        .filter(|s| is_quiet.get(s.slice as usize) == Some(&true))
        .map(|s| s.latency_ns)
        .collect();
    latencies_ns.sort_unstable();
    Quiet {
        kept,
        slices,
        ops_per_s: ok as f64 / (kept.max(1) as f64 * SLICE_NS as f64 / 1e9),
        latencies_ns,
        cpu_s: ranked[..kept].iter().map(|&i| slice_cpu_s[i]).sum(),
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replies(slice: u32, n: usize, latency_ns: u32) -> Vec<Sample> {
        vec![Sample { slice, latency_ns }; n]
    }

    #[test]
    fn the_busiest_eighth_of_the_slices_is_kept() {
        // Sixteen slices: two undisturbed (100 replies at 1 us), the rest
        // slowed to varying degrees; a straggler after the last whole slice.
        let mut samples = Vec::new();
        let counts = [
            40, 100, 55, 60, 100, 20, 70, 65, 30, 35, 45, 50, 25, 15, 10, 5,
        ];
        for (slice, n) in counts.into_iter().enumerate() {
            let latency = if n == 100 { 1_000 } else { 9_000 };
            samples.extend(replies(slice as u32, n, latency));
        }
        samples.extend(replies(16, 500, 1));
        let cpu: Vec<Option<f64>> = (0..16).map(|i| Some(0.1 * (i + 1) as f64)).collect();
        let q = analyze(&samples, &cpu);
        assert_eq!((q.kept, q.slices, q.ok), (2, 16, 200));
        assert_eq!(q.ops_per_s, 200.0 / 0.5);
        assert_eq!(q.latencies_ns, vec![1_000; 200]);
        assert!(
            (q.cpu_s.unwrap() - 0.7).abs() < 1e-12,
            "slices 1 and 4: 0.2 + 0.5"
        );
    }

    #[test]
    fn short_and_silent_windows_do_not_break_it() {
        let q = analyze(&[], &[]);
        assert_eq!((q.kept, q.slices, q.ok, q.ops_per_s), (0, 0, 0, 0.0));
        assert!(q.latencies_ns.is_empty());
        // One slice: it is the quiet one. A missing CPU reading stays missing.
        let q = analyze(&replies(0, 3, 5), &[None]);
        assert_eq!((q.kept, q.ok), (1, 3));
        assert_eq!(q.cpu_s, None);
        // Ties keep the earlier slices.
        let mut samples = replies(0, 5, 1);
        samples.extend(replies(1, 5, 2));
        samples.extend(replies(2, 5, 3));
        samples.extend(replies(3, 5, 4));
        assert_eq!(analyze(&samples, &[Some(0.0); 4]).latencies_ns, vec![1; 5]);
    }
}
