//! Order statistics and failure accounting shared by every workload.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct`% of the samples at or below it.
///
/// Returns `None` when the slice is empty, or when fewer than ten samples
/// lie beyond the chosen rank (for `pct < 100`): a tail percentile without
/// ten samples past it is a single outlier, not a percentile.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), pct)?;
    if pct < 100.0 && sorted.len() - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// 1-based nearest rank for `pct` over `n` samples.
fn nearest_rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median by nearest rank (no ten-beyond requirement: it has half the
/// samples on either side).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), 50.0)?;
    Some(v[rank - 1])
}

/// Sorts a sample vector in place and returns it (for chaining).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Geometric mean of positive values; `None` if any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// One timed window of requests, with the speed of the benchmark's fixed
/// reference loop measured around it (see [`crate::host::RefKernel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Requests completed in the window.
    pub requests: u64,
    /// Host seconds the window took.
    pub secs: f64,
    /// Reference-loop speed around the window, in million updates per
    /// second.
    pub ref_mops: f64,
}

/// Per-window throughput in requests per second; windows that took no
/// measurable time are dropped.
pub fn window_rates(windows: &[Window]) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| w.secs > 0.0)
        .map(|w| w.requests as f64 / w.secs)
        .collect()
}

/// Median of per-window rates: throughput that one descheduled window
/// cannot drag down.
pub fn median_rate(windows: &[Window]) -> Option<f64> {
    median(&window_rates(windows))
}

/// Median over windows of requests per million reference-loop updates:
/// each window's rate divided by the reference speed measured around it,
/// which cancels host contention that slows both alike.
pub fn median_normalized_rate(windows: &[Window]) -> Option<f64> {
    let v: Vec<f64> = windows
        .iter()
        .filter(|w| w.secs > 0.0 && w.ref_mops > 0.0)
        .map(|w| w.requests as f64 / w.secs / w.ref_mops)
        .collect();
    median(&v)
}

/// Request outcomes of one run, for `fail_frac` and the result's
/// `attempted`/`failed` fields.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailTally {
    /// Requests issued into the workload's top layer.
    pub attempted: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests whose returned data the oracle rejected.
    pub rejected: u64,
    /// Completed writes that a recovery later declared rolled back.
    pub rolled_back: u64,
}

impl FailTally {
    /// Requests that failed when issued (error or rejected data).
    pub fn failed(&self) -> u64 {
        self.errors + self.rejected
    }

    /// Share of attempted requests that failed when issued or whose
    /// committed write was later rolled back.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.failed() + self.rolled_back) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 89.5), Some(90.0));
        assert_eq!(percentile(&ramp(3), 50.0), None, "one sample beyond");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: reportable.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // p99 of 999 samples has 9 beyond it: not reportable.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p90 of 100 recoveries has 10 beyond it; of 99, only 9.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(5), 100.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        let w = |requests, secs, ref_mops| Window {
            requests,
            secs,
            ref_mops,
        };
        let windows = [
            w(100, 1.0, 50.0),
            w(100, 1.0, 50.0),
            w(100, 10.0, 50.0),
            w(100, 0.5, 50.0),
            w(7, 0.0, 50.0),
        ];
        assert_eq!(
            window_rates(&windows).len(),
            4,
            "zero-length window dropped"
        );
        // Rates 100, 100, 10, 200: nearest-rank median is 100.
        assert_eq!(median_rate(&windows), Some(100.0));
        assert_eq!(median_rate(&[]), None);
        // A window slowed by contention that slowed the reference loop
        // alike normalizes to the same value as an uncontended one.
        let contended = [w(100, 1.0, 50.0), w(100, 2.0, 25.0), w(100, 1.0, 50.0)];
        assert_eq!(median_rate(&contended), Some(100.0));
        assert_eq!(median_normalized_rate(&contended), Some(2.0));
        assert_eq!(median_normalized_rate(&[w(100, 2.0, 25.0)]), Some(2.0));
    }

    #[test]
    fn fail_frac_counts_errors_rejections_and_rollbacks() {
        let t = FailTally {
            attempted: 200,
            errors: 1,
            rejected: 2,
            rolled_back: 7,
        };
        assert_eq!(t.failed(), 3);
        assert!((t.fail_frac() - 0.05).abs() < 1e-12);
        assert_eq!(FailTally::default().fail_frac(), 0.0);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
