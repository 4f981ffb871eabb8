//! Order statistics over measured samples.

/// The `q`-quantile of integer readings (nanoseconds, node counts).
///
/// Each reading is treated as uniform over its resolution interval
/// `[v, v + 1)`, so ties are interpolated: a p50 that falls inside a run of
/// equal readings lands proportionally far into that interval. This keeps
/// quantiles of tightly clustered timings from snapping to the same integer
/// on every run while staying within one unit of the plain order statistic.
///
/// `sorted` must be sorted ascending. Returns 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = q.clamp(0.0, 1.0) * n as f64;
    let v = sorted[(rank as usize).min(n - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let through = sorted.partition_point(|&x| x <= v);
    v as f64 + ((rank - below as f64) / (through - below) as f64).clamp(0.0, 1.0)
}

/// Sorts `samples` and returns its `q`-quantile (see [`quantile`]).
pub fn quantile_of(mut samples: Vec<u64>, q: f64) -> f64 {
    samples.sort_unstable();
    quantile(&samples, q)
}

/// The median of real-valued measurements (mean of the middle pair for an
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_distinct_readings_is_the_order_statistic_plus_its_share() {
        let s: Vec<u64> = (0..100).collect();
        // rank 50 falls at the start of reading 50's interval.
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.25), 25.0);
        assert_eq!(quantile(&s, 0.0), 0.0);
        // q = 1 is the top of the largest reading's interval.
        assert_eq!(quantile(&s, 1.0), 100.0);
    }

    #[test]
    fn quantile_interpolates_inside_a_run_of_ties() {
        // Four readings of 10 between 5 and 20: ranks 1..5 map onto [10, 11).
        let s = [5, 10, 10, 10, 10, 20];
        assert_eq!(quantile(&s, 0.5), 10.5); // rank 3 = 2 of 4 ties in
        assert_eq!(quantile(&s, 0.25), 10.125); // rank 1.5
        assert!((quantile(&s, 4.5 / 6.0) - 10.875).abs() < 1e-12);
        // Never more than one unit above the plain order statistic.
        for i in 0..=60 {
            let q = i as f64 / 60.0;
            let plain = s[((q * 6.0) as usize).min(5)] as f64;
            let got = quantile(&s, q);
            assert!(
                got >= plain && got <= plain + 1.0,
                "q={q}: {got} vs {plain}"
            );
        }
    }

    #[test]
    fn quantile_of_nothing_is_zero_and_unsorted_input_is_sorted_first() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile_of(vec![30, 10, 20], 0.5), 20.5);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
