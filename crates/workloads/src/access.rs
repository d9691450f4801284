//! Page-popularity distributions.
//!
//! A workload's memory behaviour is characterized by how its accesses
//! spread over its pages. LC servers in the paper receive *uniform*
//! request traffic (§5) — every page is equally likely, so no page is
//! individually hot. BE batch jobs have skewed popularity: graph kernels
//! hammer high-degree vertices; XSBench's table lookups are flatter.
//!
//! [`Popularity`] materializes a distribution over `n` pages sorted from
//! hottest (rank 0) to coldest, with prefix sums so that *"what hit ratio
//! would k resident pages buy"* is an O(1) query.

use serde::{Deserialize, Serialize};

/// Why a [`Popularity`] distribution could not be built.
///
/// Scenario-facing constructors return this instead of panicking so a
/// malformed adversarial scenario fails its matrix cell cleanly (the
/// cell reports the error) rather than unwinding through the harness.
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityError {
    /// The distribution covers zero pages.
    NoPages,
    /// A Zipf exponent was negative or non-finite.
    BadZipfExponent(f64),
    /// An explicit weight was negative or non-finite.
    BadWeight(f64),
    /// The weight vector sums to zero (or less) — nothing to normalize.
    ZeroMass,
}

impl std::fmt::Display for PopularityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PopularityError::NoPages => write!(f, "popularity needs at least one page"),
            PopularityError::BadZipfExponent(e) => {
                write!(f, "zipf exponent must be finite and non-negative, got {e}")
            }
            PopularityError::BadWeight(w) => {
                write!(
                    f,
                    "popularity weight must be finite and non-negative, got {w}"
                )
            }
            PopularityError::ZeroMass => {
                write!(f, "popularity weights must carry positive total mass")
            }
        }
    }
}

impl std::error::Error for PopularityError {}

/// The shape of a workload's page-popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Every page equally popular (LC request traffic per §5).
    Uniform,
    /// Zipf-like popularity: rank-`r` page has weight `(r+1)^-exponent`.
    /// Exponent 0 degenerates to uniform; larger exponents are more
    /// skewed.
    Zipfian {
        /// The Zipf exponent `s > 0`.
        exponent: f64,
    },
}

impl AccessPattern {
    /// Unnormalized weight of the page at `rank` (0 = hottest).
    #[inline]
    pub fn raw_weight(&self, rank: usize) -> f64 {
        match *self {
            AccessPattern::Uniform => 1.0,
            AccessPattern::Zipfian { exponent } => ((rank + 1) as f64).powf(-exponent),
        }
    }
}

/// A normalized popularity distribution over a workload's pages, hottest
/// first, with prefix sums.
///
/// ```
/// use mtat_workloads::access::{AccessPattern, Popularity};
///
/// let pop = Popularity::new(AccessPattern::Zipfian { exponent: 0.9 }, 1000);
/// // The hottest 10 % of pages draw far more than 10 % of accesses.
/// assert!(pop.fraction_top(100) > 0.3);
/// // A uniform distribution draws exactly its share.
/// let uni = Popularity::new(AccessPattern::Uniform, 1000);
/// assert!((uni.fraction_top(100) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Popularity {
    pattern: AccessPattern,
    weights: Vec<f64>,
    prefix: Vec<f64>,
}

impl Popularity {
    /// Builds the distribution for `n_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages == 0` or a Zipf exponent is negative/non-finite.
    /// Scenario-driven paths use [`Popularity::try_new`] instead.
    pub fn new(pattern: AccessPattern, n_pages: usize) -> Self {
        Self::try_new(pattern, n_pages).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Popularity::new`]: a malformed pattern (zero
    /// pages, bad Zipf exponent) is a typed [`PopularityError`] instead
    /// of a panic.
    ///
    /// # Errors
    ///
    /// [`PopularityError::NoPages`] for `n_pages == 0`;
    /// [`PopularityError::BadZipfExponent`] for a negative or non-finite
    /// exponent.
    pub fn try_new(pattern: AccessPattern, n_pages: usize) -> Result<Self, PopularityError> {
        check_pattern(pattern, n_pages)?;
        let weights: Vec<f64> = (0..n_pages).map(|r| pattern.raw_weight(r)).collect();
        Self::from_weights(pattern, weights)
    }

    /// Builds a distribution from an explicit (unnormalized) weight
    /// vector, keeping `pattern` as the recorded provenance. This is the
    /// scenario engine's entry point: mutated distributions — rotated
    /// hot sets, leaked (zeroed) prefixes — are *not* non-increasing in
    /// rank, so rank identity is preserved and no sorting happens here.
    ///
    /// # Errors
    ///
    /// [`PopularityError::NoPages`] for an empty vector,
    /// [`PopularityError::BadWeight`] for a negative or non-finite
    /// entry, [`PopularityError::ZeroMass`] when the weights sum to
    /// zero.
    pub fn from_weights(
        pattern: AccessPattern,
        mut weights: Vec<f64>,
    ) -> Result<Self, PopularityError> {
        if weights.is_empty() {
            return Err(PopularityError::NoPages);
        }
        if let Some(&bad) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(PopularityError::BadWeight(bad));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(PopularityError::ZeroMass);
        }
        for w in &mut weights {
            *w /= total;
        }
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        Ok(Self {
            pattern,
            weights,
            prefix,
        })
    }

    /// The pattern this distribution was built from.
    #[inline]
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Number of pages covered.
    #[inline]
    pub fn n_pages(&self) -> usize {
        self.weights.len()
    }

    /// Normalized access probability of the page at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n_pages`.
    #[inline]
    pub fn weight(&self, rank: usize) -> f64 {
        self.weights[rank]
    }

    /// All normalized weights, hottest first.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fraction of accesses absorbed by the hottest `k` pages (the *ideal*
    /// FMem hit ratio if a policy keeps exactly those pages resident):
    /// the rounded prefix sum of the normalized weights. For
    /// `k >= n_pages` that is the sum of every weight, which is 1.0 only
    /// up to rounding: 0.99999999999999512 for the paper's XSBench at
    /// 2 MiB pages, 1.0000000000000011 for a 2 GiB Zipf-0.8 workload at
    /// 1 MiB pages.
    #[inline]
    pub fn fraction_top(&self, k: usize) -> f64 {
        let k = k.min(self.weights.len());
        self.prefix[k]
    }

    /// Fraction of accesses landing on an arbitrary resident *set*,
    /// given as an iterator of page ranks.
    pub fn fraction_of<I: IntoIterator<Item = usize>>(&self, ranks: I) -> f64 {
        ranks.into_iter().map(|r| self.weights[r]).sum()
    }

    /// Builds the sampler's [`WeightTable`] over these weights, enabling
    /// the batched weighted sampling path
    /// ([`AccessSampler::sample_weighted_estimates_touched`]). Weights
    /// are normalized, finite, and non-negative by construction, so this
    /// cannot fail. Scenario-mutated distributions
    /// ([`Popularity::from_weights`]) are not rank-sorted, so the
    /// order-agnostic table constructor is used.
    ///
    /// [`WeightTable`]: mtat_tiermem::sampler::WeightTable
    /// [`AccessSampler::sample_weighted_estimates_touched`]:
    ///     mtat_tiermem::sampler::AccessSampler::sample_weighted_estimates_touched
    pub fn to_weight_table(&self) -> mtat_tiermem::sampler::WeightTable {
        mtat_tiermem::sampler::WeightTable::new_unsorted(&self.weights)
            .expect("popularity weights are normalized, finite, and non-negative")
    }

    /// The smallest number of hottest pages whose combined popularity
    /// reaches `target` (clamped to [0, 1]). Inverse of
    /// [`Self::fraction_top`]; used by profiling to ask "how much FMem
    /// buys hit ratio h".
    pub fn pages_for_fraction(&self, target: f64) -> usize {
        let t = target.clamp(0.0, 1.0);
        // prefix is sorted ascending; binary search for first >= t.
        match self
            .prefix
            .binary_search_by(|p| p.partial_cmp(&t).expect("prefix sums are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.weights.len()),
        }
    }
}

/// The typed-error checks shared by every popularity built from a
/// pattern: at least one page, and a finite non-negative Zipf exponent.
fn check_pattern(pattern: AccessPattern, n_pages: usize) -> Result<(), PopularityError> {
    if n_pages == 0 {
        return Err(PopularityError::NoPages);
    }
    if let AccessPattern::Zipfian { exponent } = pattern {
        if !(exponent.is_finite() && exponent >= 0.0) {
            return Err(PopularityError::BadZipfExponent(exponent));
        }
    }
    Ok(())
}

/// The raw (unnormalized, hottest-first) weights of every pattern one
/// workload has used, over its fixed page count.
///
/// Building a [`Popularity`] from its pattern costs one `powf` per
/// page. An owner that rebuilds the same distribution — the runner at
/// every scenario phase of a BE, the fleet's traffic generator at
/// every phase of its affinity vector — keeps one `RawWeights` and
/// computes each distinct pattern's weights once; a rebuild then
/// copies them. The weights are exactly [`AccessPattern::raw_weight`]
/// per rank, so every distribution built from them is bit-identical to
/// one built by [`Popularity::try_new`].
#[derive(Debug, Clone)]
pub struct RawWeights {
    n_pages: usize,
    by_pattern: Vec<(AccessPattern, Vec<f64>)>,
}

impl RawWeights {
    /// An empty set of weights over `n_pages` ranks.
    pub fn new(n_pages: usize) -> Self {
        Self {
            n_pages,
            by_pattern: Vec::new(),
        }
    }

    /// `pattern`'s raw weights over ranks `0..n_pages`, hottest first,
    /// computed on the first call for that pattern.
    ///
    /// # Errors
    ///
    /// As [`Popularity::try_new`]: [`PopularityError::NoPages`] or
    /// [`PopularityError::BadZipfExponent`].
    pub fn get(&mut self, pattern: AccessPattern) -> Result<&[f64], PopularityError> {
        check_pattern(pattern, self.n_pages)?;
        let i = match self.by_pattern.iter().position(|(p, _)| *p == pattern) {
            Some(i) => i,
            None => {
                let w = (0..self.n_pages).map(|r| pattern.raw_weight(r)).collect();
                self.by_pattern.push((pattern, w));
                self.by_pattern.len() - 1
            }
        };
        Ok(&self.by_pattern[i].1)
    }

    /// The unmutated distribution of `pattern`, bit-identical to
    /// [`Popularity::try_new`]`(pattern, n_pages)`.
    ///
    /// # Errors
    ///
    /// As [`Self::get`].
    pub fn popularity(&mut self, pattern: AccessPattern) -> Result<Popularity, PopularityError> {
        let weights = self.get(pattern)?.to_vec();
        Popularity::from_weights(pattern, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_table_bridge_covers_every_rank() {
        let p = Popularity::new(AccessPattern::Zipfian { exponent: 1.1 }, 64);
        let t = p.to_weight_table();
        assert_eq!(t.len(), 64);
        assert!((t.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_weights_are_equal() {
        let p = Popularity::new(AccessPattern::Uniform, 10);
        for r in 0..10 {
            assert!((p.weight(r) - 0.1).abs() < 1e-12);
        }
        assert_eq!(p.n_pages(), 10);
        assert!((p.fraction_top(5) - 0.5).abs() < 1e-12);
        assert!((p.fraction_top(10) - 1.0).abs() < 1e-12);
        assert!((p.fraction_top(999) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_sorted_and_normalized() {
        let p = Popularity::new(AccessPattern::Zipfian { exponent: 1.0 }, 100);
        let total: f64 = p.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(p.weight(r) <= p.weight(r - 1));
        }
        // Head heaviness: rank 0 has weight 1/H_100 ≈ 0.193.
        assert!(p.weight(0) > 0.15);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Popularity::new(AccessPattern::Zipfian { exponent: 0.0 }, 50);
        let u = Popularity::new(AccessPattern::Uniform, 50);
        for r in 0..50 {
            assert!((z.weight(r) - u.weight(r)).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_exponent_concentrates_more() {
        let lo = Popularity::new(AccessPattern::Zipfian { exponent: 0.3 }, 1000);
        let hi = Popularity::new(AccessPattern::Zipfian { exponent: 1.2 }, 1000);
        assert!(hi.fraction_top(100) > lo.fraction_top(100));
    }

    #[test]
    fn fraction_of_arbitrary_set() {
        let p = Popularity::new(AccessPattern::Uniform, 4);
        assert!((p.fraction_of([0, 2]) - 0.5).abs() < 1e-12);
        assert!((p.fraction_of(std::iter::empty()) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn pages_for_fraction_inverts_fraction_top() {
        let p = Popularity::new(AccessPattern::Zipfian { exponent: 0.8 }, 500);
        for target in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let k = p.pages_for_fraction(target);
            assert!(p.fraction_top(k) >= target - 1e-12);
            if k > 0 {
                assert!(p.fraction_top(k - 1) < target + 1e-9);
            }
        }
        // Out-of-range targets clamp.
        assert_eq!(p.pages_for_fraction(2.0), 500);
        assert_eq!(p.pages_for_fraction(-1.0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pages_panics() {
        let _ = Popularity::new(AccessPattern::Uniform, 0);
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn negative_exponent_panics() {
        let _ = Popularity::new(AccessPattern::Zipfian { exponent: -1.0 }, 10);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert_eq!(
            Popularity::try_new(AccessPattern::Uniform, 0),
            Err(PopularityError::NoPages)
        );
        assert!(matches!(
            Popularity::try_new(AccessPattern::Zipfian { exponent: f64::NAN }, 4),
            Err(PopularityError::BadZipfExponent(_))
        ));
        let ok = Popularity::try_new(AccessPattern::Zipfian { exponent: 0.8 }, 16).unwrap();
        assert_eq!(ok.n_pages(), 16);
    }

    #[test]
    fn from_weights_preserves_rank_identity() {
        // A rotated (non-monotone) distribution: rank 2 is the hottest.
        let p = Popularity::from_weights(AccessPattern::Uniform, vec![1.0, 1.0, 6.0, 2.0]).unwrap();
        assert!((p.weight(2) - 0.6).abs() < 1e-12);
        assert!((p.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The weight table accepts the unsorted order.
        let t = p.to_weight_table();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn from_weights_rejects_bad_vectors() {
        assert_eq!(
            Popularity::from_weights(AccessPattern::Uniform, vec![]),
            Err(PopularityError::NoPages)
        );
        assert!(matches!(
            Popularity::from_weights(AccessPattern::Uniform, vec![1.0, -2.0]),
            Err(PopularityError::BadWeight(_))
        ));
        assert_eq!(
            Popularity::from_weights(AccessPattern::Uniform, vec![0.0, 0.0]),
            Err(PopularityError::ZeroMass)
        );
    }
}
