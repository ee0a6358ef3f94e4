//! The statistics the ledger reports: medians, percentile selection,
//! geometric mean, and span self time. (The windows the medians are taken
//! over are `workloads::Windows`.)

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns the type's zero for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (mean of the two middle values for an
/// even count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the tail a sample of `n` can support. `None`
/// below 20 samples (not even the median has ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, as a fraction num/den) — integer arithmetic, so that
    // 90 % of 100 is exactly 90.
    [
        (99.99, 9_999, 10_000),
        (99.9, 999, 1_000),
        (99.0, 99, 100),
        (90.0, 90, 100),
        (50.0, 50, 100),
    ]
    .into_iter()
    .find(|&(_, num, den)| n - (n * num).div_ceil(den) >= 10)
    .map(|(p, _, _)| p)
}

/// Geometric mean of positive values. Returns 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Self time of a span: its duration minus the part of its interval that
/// its children cover, overlapping children counted once. Children are
/// clipped to the parent's interval.
pub fn self_time_ns(start_ns: u64, end_ns: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start_ns), e.min(end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start_ns;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end_ns - start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile::<f64>(&[], 50.0), 0.0);
        assert_eq!(percentile(&[10u32, 20, 30], 50.0), 20);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 40),
        // 60..70 is disjoint (10): self time 50.
        assert_eq!(self_time_ns(0, 100, &[(10, 30), (20, 50), (60, 70)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 50), (20, 30)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
    }
}
