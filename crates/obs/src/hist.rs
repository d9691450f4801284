//! Log-linear tail-latency histogram with bounded relative error.
//!
//! The paper's claims are all about the *tail* (p99 response latency
//! under co-location, §6), so the workspace needs percentile queries
//! that are cheap to update per tick and accurate at the tail without
//! retaining every sample. [`Histogram`] is an HdrHistogram-style
//! log-linear sketch over `u64` values (nanoseconds, bytes, pages —
//! any magnitude): O(1) record, O(buckets) quantile scan, and a
//! worst-case relative error of `2^-(bits+1)` on every reported
//! quantile (see [`crate::bucket::relative_error_bound`]).
//!
//! Quantiles use the *nearest-rank* definition (`rank = ⌈q·n⌉`), the
//! same convention as `mtat_tiermem::latency::p99_response`'s exact
//! counterpart, so registry snapshots can be cross-checked against
//! exact aggregates in tests and in `chaos_matrix --metrics-out`.

use crate::bucket::{
    bucket_count, bucket_value, log_linear_index, relative_error_bound, DEFAULT_SUB_BUCKET_BITS,
    MAX_SUB_BUCKET_BITS,
};

/// Fixed-resolution log-linear histogram over `u64` values.
///
/// ```
/// use mtat_obs::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 1000);
/// // p50 of 1..=1000 is 500 (nearest rank); well within 0.4% here.
/// let p50 = h.percentile(50.0);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 <= h.relative_error_bound());
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram at the workspace-default resolution
    /// ([`DEFAULT_SUB_BUCKET_BITS`], relative error `< 0.4%`).
    #[must_use]
    pub fn new() -> Self {
        Self::with_bits(DEFAULT_SUB_BUCKET_BITS)
    }

    /// A histogram with `bits` sub-bucket bits (relative error
    /// `2^-(bits+1)`; memory `O(2^bits)`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds [`MAX_SUB_BUCKET_BITS`].
    #[must_use]
    pub fn with_bits(bits: u32) -> Self {
        assert!(
            (1..=MAX_SUB_BUCKET_BITS).contains(&bits),
            "sub-bucket bits must be in 1..={MAX_SUB_BUCKET_BITS}, got {bits}"
        );
        Self {
            bits,
            counts: vec![0; bucket_count(bits)],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value in O(1).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[log_linear_index(value, self.bits)] += n;
        self.total += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128 * n as u128;
    }

    /// Total recorded observations.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value, exactly (0 when empty).
    #[inline]
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, exactly (0 when empty).
    #[inline]
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Nearest-rank percentile `p` in `[0, 100]`: the representative
    /// value of the bucket holding the `⌈p/100·n⌉`-th smallest sample
    /// (clamped to rank 1). Returns 0 when empty.
    ///
    /// The result is within [`Self::relative_error_bound`] of the exact
    /// nearest-rank percentile of the recorded stream.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                // Clamp the representative into the observed range so
                // single-bucket tails report exact extremes.
                return bucket_value(i, self.bits).clamp(self.min, self.max);
            }
        }
        self.max // unreachable while counts are consistent with total
    }

    /// Median (nearest rank).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile (nearest rank).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile (nearest rank) — the paper's headline metric.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile (nearest rank).
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Worst-case relative error of any quantile this histogram reports.
    #[must_use]
    pub fn relative_error_bound(&self) -> f64 {
        relative_error_bound(self.bits)
    }

    /// Folds another histogram of the same resolution into this one.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bits, other.bits,
            "cannot merge histograms of different resolution"
        );
        if other.total == 0 {
            return;
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over a raw sample list, the oracle
    /// the sketch is checked against.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn single_value_every_quantile() {
        let mut h = Histogram::new();
        h.record(73_000); // FMem latency in ns
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            let got = h.percentile(p);
            let err = (got as f64 - 73_000.0).abs() / 73_000.0;
            assert!(err <= h.relative_error_bound(), "p={p} got={got}");
        }
        assert_eq!(h.min(), 73_000);
        assert_eq!(h.max(), 73_000);
    }

    #[test]
    fn uniform_stream_percentiles_within_bound() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=100_000u64).collect();
        for &v in &samples {
            h.record(v);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = exact_percentile(&samples, p) as f64;
            let got = h.percentile(p) as f64;
            assert!(
                (got - exact).abs() / exact <= h.relative_error_bound(),
                "p={p} got={got} exact={exact}"
            );
        }
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 5, 5, 900, 900, 1 << 40] {
            a.record(v);
        }
        b.record_n(5, 3);
        b.record_n(900, 2);
        b.record_n(1 << 40, 1);
        b.record_n(77, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.percentile(99.0), b.percentile(99.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record_n(u64::MAX, 3);
        h.record(0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        // p99 lands in the top bucket: within the error bound of max.
        let p99 = h.percentile(99.0);
        let err = (u64::MAX - p99) as f64 / u64::MAX as f64;
        assert!(err <= h.relative_error_bound(), "p99={p99} err={err}");
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 1..=500u64 {
            a.record(v * 3);
            c.record(v * 3);
        }
        for v in 1..=500u64 {
            b.record(v * 7 + 1);
            c.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
    }

    #[test]
    #[should_panic(expected = "different resolution")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = Histogram::with_bits(7);
        let b = Histogram::with_bits(8);
        a.merge(&b);
    }
}
