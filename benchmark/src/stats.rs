//! Order statistics used by every reported number.
//!
//! Timings are summarised by nearest-rank percentiles (a reported
//! percentile is always one of the measured samples) and by quartiles
//! computed exactly as Python's `statistics.quantiles(values, n=4)`
//! computes them, so the spreads this crate prints are the spreads an
//! outside check over the same values would compute.

/// Nearest-rank percentile of ascending-sorted `sorted`: the smallest
/// sample such that at least `pct` % of the samples are at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile of `sorted` that still has at
/// least [`TAIL_BEYOND`] samples above its rank, as `(percentile,
/// value)`. `None` when there are too few samples for any such
/// percentile.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// First quartile, median and third quartile, by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`. A single value is
/// its own quartiles; `None` for no values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Median of `values` (`None` when empty).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// A metric's distribution over repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Self {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    #[must_use]
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}
