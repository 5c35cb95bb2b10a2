//! Small measurement helpers: nearest-rank percentiles with their
//! sample-count rule, the peak-RSS reader, and the output fingerprint the
//! correctness checks compare.

/// A percentile is reported with confidence only when at least this many
/// samples lie beyond its rank; fewer, and one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` samples: the smallest
/// rank whose share of samples at or below it reaches `q`. `None` for an
/// empty sample or a `q` outside `[0, 1]`.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Nearest-rank percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), q)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (nearest-rank 0.5 quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the nearest rank of `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |rank| n - rank)
}

/// Whether `n` samples support reporting the `q` percentile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Tail percentile of the quietest part of the window: the window is cut
/// into `slices` equal time slices, the nearest-rank `q` percentile is taken
/// within each slice, and the lowest of those is returned. Interference from
/// other tenants of a shared host that spares any one slice leaves it
/// unchanged, while a slower program raises every slice. Samples are
/// `(offset from window start, value)`; offsets past the window fall into
/// the last slice.
pub fn quietest_slice_percentile(
    samples: &[(std::time::Duration, f64)],
    window: std::time::Duration,
    slices: usize,
    q: f64,
) -> Option<f64> {
    let slices = slices.max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let width = window.as_secs_f64() / slices as f64;
    for &(at, value) in samples {
        let slice = if width > 0.0 {
            ((at.as_secs_f64() / width) as usize).min(slices - 1)
        } else {
            0
        };
        buckets[slice].push(value);
    }
    buckets
        .iter()
        .filter_map(|b| percentile(b, q))
        .min_by(f64::total_cmp)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// This process's peak resident set size in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// FNV-style hash over the bit patterns of `values`, one 32-bit word per
/// step: two outputs fingerprint equal only if they are (almost surely)
/// bit-identical.
pub fn fingerprint(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h ^ (h >> 29)
}

/// Fingerprint of at most `samples` evenly spaced elements of `values` plus
/// its length: cheap enough for every timed call, while the full comparison
/// against the oracle runs outside the timed window.
pub fn sampled_fingerprint(values: &[f32], samples: usize) -> u64 {
    let step = (values.len() / samples.max(1)).max(1);
    let picked: Vec<f32> = values.iter().step_by(step).copied().collect();
    fingerprint(&picked) ^ (values.len() as u64).rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(5.0));
        assert_eq!(percentile(&samples, 0.9), Some(9.0));
        assert_eq!(percentile(&samples, 0.91), Some(10.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        // Order of the input does not matter.
        let shuffled = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
        assert_eq!(percentile(&shuffled, 0.9), Some(9.0));
    }

    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(percentile(&[1.0], -0.1), None);
        assert_eq!(median(&[4.0]), Some(4.0));
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p90 of 100 samples has exactly 10 beyond it.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // p50 needs only 20.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        // p99 needs a thousand.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn the_quietest_slice_sets_the_tail() {
        use std::time::Duration;
        let window = Duration::from_secs(5);
        // 100 samples per 1 s slice: values 1..=100, except slices 1 to 4,
        // where a noisy neighbour doubles everything.
        let samples: Vec<(Duration, f64)> = (0..500)
            .map(|i| {
                let at = Duration::from_millis(i * 10);
                let v = (i % 100 + 1) as f64;
                (at, if i >= 100 { 2.0 * v } else { v })
            })
            .collect();
        assert_eq!(
            quietest_slice_percentile(&samples, window, 5, 0.9),
            Some(90.0)
        );
        // The plain percentile moves with the noisy slices.
        let plain: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert!(percentile(&plain, 0.9).unwrap() > 150.0);
        // A program that is slower everywhere raises every slice.
        let slower: Vec<(Duration, f64)> = samples.iter().map(|&(t, v)| (t, 1.5 * v)).collect();
        assert_eq!(
            quietest_slice_percentile(&slower, window, 5, 0.9),
            Some(135.0)
        );
        // Late samples land in the last slice; empty input has no value.
        assert_eq!(
            quietest_slice_percentile(&[(Duration::from_secs(9), 4.0)], window, 5, 0.9),
            Some(4.0)
        );
        assert_eq!(quietest_slice_percentile(&[], window, 5, 0.9), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tmany kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t10 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb().expect("Linux exposes VmHWM");
        assert!(mb > 0.0);
    }

    #[test]
    fn fingerprints_see_bits_not_values() {
        assert_eq!(fingerprint(&[1.0, 2.0]), fingerprint(&[1.0, 2.0]));
        assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
        assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
        let long: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut other = long.clone();
        other[500] = -1.0;
        assert_ne!(
            sampled_fingerprint(&long, 100),
            sampled_fingerprint(&other, 100)
        );
        assert_ne!(
            sampled_fingerprint(&long, 100),
            sampled_fingerprint(&long[..999], 100)
        );
    }
}
