//! PEBS-like probabilistic access sampling.
//!
//! MTAT's PP-E does not see every memory access: it samples
//! `MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM` and
//! `MEM_INST_RETIRED.ALL_STORES` events through Intel PEBS with a
//! configurable period (§4). The simulator reproduces the same
//! information loss: given the *true* number of accesses a page received
//! in a tick, [`AccessSampler`] returns the number of sampled events, a
//! Poisson draw with mean `true_count / period`.
//!
//! Policies therefore operate on noisy, thinned counts exactly as the
//! real daemon does — undersampling cold pages to zero and occasionally
//! over-ranking lukewarm ones.

use mtat_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TierMemError;

/// One slot of the Walker alias decomposition: a fixed-point threshold
/// and the alias rank events above the threshold are redirected to.
/// Interleaved so each event draw touches exactly one 8-byte entry.
#[derive(Debug, Clone, Copy)]
struct AliasSlot {
    thresh: u32,
    alias: u32,
}

/// Precomputed weight table for the batched weighted sampling path:
/// per-rank access weights in non-increasing (hottest-first) order,
/// prefix sums, and a Walker alias table so scattering an aggregated
/// batch draw over the ranks costs O(1) per event — one RNG draw whose
/// high bits pick the slot and whose low bits decide slot vs. alias.
///
/// Build one per workload (e.g. from a `Popularity`) and reuse it across
/// ticks; construction is O(n), event lookups are O(1).
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Vec<f64>,
    /// `prefix[k]` = sum of `weights[..k]`; length `n + 1`.
    prefix: Vec<f64>,
    /// Walker/Vose alias decomposition of the normalized weights.
    alias: Vec<AliasSlot>,
}

impl WeightTable {
    /// Builds a table from non-increasing, non-negative, finite weights
    /// (rank 0 = hottest, matching `Popularity` ordering).
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if any weight is negative
    /// or non-finite, or the sequence increases anywhere — rank order is
    /// hotness order everywhere a table is consumed.
    pub fn new(weights: &[f64]) -> Result<Self, TierMemError> {
        let mut prev = f64::INFINITY;
        for &w in weights {
            if w > prev {
                return Err(TierMemError::InvalidConfig {
                    what: "weight table",
                    detail: "weights must be non-increasing (hottest first)".to_string(),
                });
            }
            if w.is_finite() {
                prev = w;
            }
        }
        Self::new_unsorted(weights)
    }

    /// Builds a table from non-negative, finite weights in *arbitrary*
    /// rank order. The alias decomposition and prefix sums are
    /// order-agnostic, so sampling is exact either way; this constructor
    /// exists for scenario-mutated distributions (rotated hot sets,
    /// leaked prefixes) where rank identity must be preserved and rank
    /// order is deliberately not hotness order.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if any weight is negative
    /// or non-finite.
    pub fn new_unsorted(weights: &[f64]) -> Result<Self, TierMemError> {
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(TierMemError::InvalidConfig {
                    what: "weight table",
                    detail: format!("weights must be finite and non-negative, got {w}"),
                });
            }
            acc += w;
            prefix.push(acc);
        }
        let alias = build_alias(weights, acc);
        Ok(Self {
            weights: weights.to_vec(),
            prefix,
            alias,
        })
    }

    /// Number of pages covered by the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table covers zero pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total weight mass (1.0 for normalized distributions).
    #[inline]
    pub fn total(&self) -> f64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Per-rank weights, hottest first.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Maps one 64-bit uniform draw to a rank, distributed proportionally
    /// to the table weights. The high 32 bits pick an alias slot by
    /// multiply-shift; the low 32 bits are the fixed-point coin deciding
    /// slot vs. alias. O(1), one 8-byte table access per event.
    ///
    /// The coin is fresh randomness per event, so a conditional jump on
    /// it is unpredictable for every slot whose threshold lies strictly
    /// inside the 32-bit range; `select_unpredictable` resolves it with
    /// a conditional move instead.
    #[inline]
    fn event_rank(&self, r: u64) -> usize {
        let n = self.alias.len() as u64;
        let j = (((r >> 32) * n) >> 32) as usize;
        debug_assert!(j < self.alias.len());
        // SAFETY: `(x >> 32) * n >> 32 < n` for any 32-bit `x >> 32`.
        let slot = unsafe { *self.alias.get_unchecked(j) };
        std::hint::select_unpredictable((r as u32) < slot.thresh, j, slot.alias as usize)
    }
}

/// Builds the Walker/Vose alias decomposition of `weights` (total mass
/// `total`). Quantizing thresholds to 32 fixed-point bits perturbs each
/// rank's probability by at most 2⁻³², far below every statistical
/// tolerance in this crate. Ranks left over by floating-point residue
/// carry probability ≈ 1/n and keep themselves as alias.
fn build_alias(weights: &[f64], total: f64) -> Vec<AliasSlot> {
    let n = weights.len();
    if n == 0 || total <= 0.0 {
        return Vec::new();
    }
    let mut scaled: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    let mut slots = vec![
        AliasSlot {
            thresh: u32::MAX,
            alias: 0,
        };
        n
    ];
    while let (Some(s), Some(l)) = (small.pop(), large.last().copied()) {
        large.pop();
        slots[s as usize] = AliasSlot {
            thresh: ((scaled[s as usize] * 4_294_967_296.0) as u64).min(u32::MAX as u64) as u32,
            alias: l,
        };
        scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
        if scaled[l as usize] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    for &i in large.iter().chain(small.iter()) {
        slots[i as usize] = AliasSlot {
            thresh: u32::MAX,
            alias: i,
        };
    }
    slots
}

/// Entries in [`AccessSampler`]'s period scale-up table (2 KiB). At
/// paper density a touched rank holds one or a few events per tick, so
/// nearly every scale-up is a table hit.
const SCALE_TABLE_LEN: usize = 256;

/// `x.round() as u64` without a library call: truncate, then add one
/// when the dropped fraction is at least one half. On baseline x86-64
/// (no SSE4.1 `roundsd`) `f64::round` compiles to a call into libm,
/// which the period scale-up would pay once per touched rank.
///
/// Exact for every input, including the saturating casts: below 2⁵²
/// `x - t` is computed without rounding (Sterbenz), at or above 2⁵²
/// every `f64` is an integer so the fraction is zero, NaN and negative
/// inputs read 0, and anything at or above 2⁶⁴ saturates to `u64::MAX`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// Dirty-rank bitset over a sampled-estimate buffer: one bit per rank,
/// set for every rank the sampler scattered at least one event into
/// this tick. Consumers (the hotness tracker) iterate set bits instead
/// of walking every page, and the sampler itself zeroes only the
/// previously-touched words instead of the whole buffer — the per-tick
/// cost becomes O(events), not O(pages).
///
/// The conservative fallback is *all-dirty* ([`TouchedSet::default`]):
/// a buffer whose touched-set provenance is unknown (one no batched
/// pass has written yet, or one built by hand in a test) is treated as
/// entirely dirty, so dense iteration semantics are preserved exactly.
#[derive(Debug)]
pub struct TouchedSet {
    words: Vec<u64>,
    all: bool,
}

impl Clone for TouchedSet {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            all: self.all,
        }
    }

    /// Reuses the destination's word buffer — the staleness-view copy
    /// runs every tick and must not allocate.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.all = source.all;
    }
}

impl Default for TouchedSet {
    /// All-dirty: every rank is considered touched until a batched
    /// sampler pass takes ownership of the buffer.
    fn default() -> Self {
        Self {
            words: Vec::new(),
            all: true,
        }
    }
}

impl TouchedSet {
    /// Whether the set is in the dense all-dirty fallback state.
    #[inline]
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Marks rank `i` touched. The set must have been sized by
    /// [`TouchedSet::reset`] first.
    #[inline]
    fn set(&mut self, i: usize) {
        debug_assert!(i >> 6 < self.words.len());
        // SAFETY: `reset` sized `words` to cover every rank of the
        // buffer, and callers only pass in-buffer ranks (the scatter
        // loops draw them from `gen_range(0..n)` / the alias table).
        unsafe {
            *self.words.get_unchecked_mut(i >> 6) |= 1u64 << (i & 63);
        }
    }

    /// Zeroes exactly the buffer entries recorded as touched (or the
    /// whole buffer in the all-dirty state), then resets the set to
    /// empty, sized for `out.len()` ranks. Restores the all-zero buffer
    /// invariant in O(touched) instead of O(pages).
    fn reset(&mut self, out: &mut [u64]) {
        let n_words = out.len().div_ceil(64);
        if self.all || self.words.len() != n_words {
            out.fill(0);
            self.words.clear();
            self.words.resize(n_words, 0);
            self.all = false;
            return;
        }
        for (wi, w) in self.words.iter_mut().enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out[(wi << 6) | b] = 0;
                bits &= bits - 1;
            }
            *w = 0;
        }
    }

    /// Iterates touched ranks in ascending order — the same order a
    /// dense front-to-back walk would visit them, so consumers keyed on
    /// visit order (histogram bin insertion) behave identically. Must
    /// not be called in the all-dirty state.
    pub fn iter_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(!self.all, "dense fallback has no rank list");
        TouchedRanks {
            words: &self.words,
            wi: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// [`TouchedSet::iter_ranks`]: walks the words, peeling one set bit per
/// step. One word index and one mask of state, so a consumer's loop
/// inlines it to a few instructions per rank; a `flat_map` over
/// `from_fn` keeps nested iterator state that costs branches per rank.
struct TouchedRanks<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    wi: usize,
    /// The not-yet-yielded bits of `words[wi]`.
    bits: u64,
}

impl Iterator for TouchedRanks<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.wi += 1;
            self.bits = *self.words.get(self.wi)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.wi << 6) | b)
    }
}

/// Thins true access counts down to sampled-event counts.
///
/// ```
/// use mtat_tiermem::sampler::AccessSampler;
///
/// # fn main() -> Result<(), mtat_tiermem::TierMemError> {
/// let mut sampler = AccessSampler::new(64.0, 42)?;
/// let sampled = sampler.sample_count(6400.0);
/// // ~100 events expected; Poisson noise keeps it near that.
/// assert!(sampled > 50 && sampled < 150);
/// // Scale back up to estimate the true count.
/// let estimate = sampler.estimate_from_samples(sampled);
/// assert!((estimate as f64 - 6400.0).abs() < 6400.0 * 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AccessSampler {
    period: f64,
    /// `scale[k]` = [`round_to_u64`]`(k as f64 * period)`, so the period
    /// scale-up of the small event counts nearly every touched rank
    /// holds is one table load instead of a u64→f64→u64 round trip.
    scale: Box<[u64; SCALE_TABLE_LEN]>,
    rng: StdRng,
    /// Fault hook: when set, every sample reads zero (PEBS blackout).
    fault_blackout: bool,
    /// Fault hook: extra event survival fraction in (0, 1]; 1.0 is
    /// nominal. Dropped events thin the Poisson stream exactly as a
    /// longer period would, but the estimator still scales by the
    /// configured period — so estimates read low, as a real daemon's
    /// would when the PMU silently drops records.
    fault_keep: f64,
    /// Telemetry handle (disabled by default; owns no RNG, so it can
    /// never perturb the sample stream).
    obs: Obs,
}

impl AccessSampler {
    /// Creates a sampler that records, on average, one event per `period`
    /// true accesses. A period of 1.0 observes everything (no thinning,
    /// but still Poisson-noisy); larger periods observe less.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if `period < 1.0` or is
    /// not finite.
    pub fn new(period: f64, seed: u64) -> Result<Self, TierMemError> {
        if !(period.is_finite() && period >= 1.0) {
            return Err(TierMemError::InvalidConfig {
                what: "sampling period",
                detail: format!("must be finite and >= 1, got {period}"),
            });
        }
        Ok(Self {
            period,
            scale: Box::new(std::array::from_fn(|k| round_to_u64(k as f64 * period))),
            rng: StdRng::seed_from_u64(seed),
            fault_blackout: false,
            fault_keep: 1.0,
            obs: Obs::disabled(),
        })
    }

    /// Attaches a telemetry handle; the batched sampling paths report
    /// batch/event/blackout counters through it. Sampling output is
    /// bit-identical whether or not a handle is attached.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Fault-injection hook (see [`crate::faults`]): a blackout makes
    /// every sample read zero; `keep < 1.0` drops that fraction of
    /// events on top of the configured period. Call with
    /// `(false, 1.0)` to restore nominal behavior; in that state the
    /// sampler's output and RNG stream are identical to a sampler that
    /// never had faults set.
    pub fn set_fault_state(&mut self, blackout: bool, keep: f64) {
        self.fault_blackout = blackout;
        self.fault_keep = keep.clamp(0.0, 1.0);
    }

    /// The sampling period (true accesses per expected sampled event).
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Samples the number of observed events for a page that truly
    /// received `true_count` accesses: `Poisson(true_count / period)`.
    pub fn sample_count(&mut self, true_count: f64) -> u64 {
        if self.fault_blackout {
            return 0;
        }
        let mean = (true_count.max(0.0)) / self.period * self.fault_keep;
        poisson(&mut self.rng, mean)
    }

    /// Multiplies a sampled event count back up by the period to estimate
    /// the true access count, as the kernel daemon does when populating
    /// per-page counters from PEBS records. Counts below 256 read a
    /// table built from the same expression when the sampler was made.
    #[inline]
    pub fn estimate_from_samples(&self, sampled: u64) -> u64 {
        if sampled < SCALE_TABLE_LEN as u64 {
            self.scale[sampled as usize]
        } else {
            round_to_u64(sampled as f64 * self.period)
        }
    }

    /// Batched uniform path: fills `out` with estimated true counts
    /// (sampled events × period) for `out.len()` pages that each truly
    /// received `per_page_true` accesses. Distributionally identical to
    /// one [`Self::sample_count`] per page — n iid Poisson draws equal one
    /// aggregate `Poisson(n · mean)` draw scattered uniformly (Poisson
    /// splitting) — but costs O(events) RNG work instead of O(pages)
    /// Poisson draws.
    ///
    /// `touched` records exactly the ranks that received events, the
    /// buffer is cleared through the set (O(events from last tick), not
    /// O(pages)), and only touched entries are period-scaled.
    pub fn sample_uniform_estimates_touched(
        &mut self,
        out: &mut [u64],
        touched: &mut TouchedSet,
        per_page_true: f64,
    ) {
        let _span = self.obs.span_here("sample");
        touched.reset(out);
        let n = out.len();
        if self.fault_blackout || n == 0 {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        let mean_total = per_page_true.max(0.0) * n as f64 / self.period * self.fault_keep;
        let events = poisson(&mut self.rng, mean_total);
        for _ in 0..events {
            let r = self.rng.gen_range(0..n);
            debug_assert!(r < out.len());
            // SAFETY: `gen_range(0..n)` with `n == out.len()`.
            unsafe {
                *out.get_unchecked_mut(r) += 1;
            }
            touched.set(r);
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
        self.scale_touched(out, touched);
    }

    /// Batched weighted path: fills `out` with estimated true counts for
    /// a workload whose page at rank `r` truly received
    /// `total_true · table.weights()[r]` accesses. One aggregate
    /// `Poisson(total mass)` draw is scattered over the ranks through the
    /// table's Walker alias decomposition — equivalent in distribution to
    /// an independent Poisson draw per page (Poisson splitting: a
    /// Poisson-distributed number of categorical trials yields
    /// independent Poisson counts per category), at O(1) RNG work per
    /// *event* instead of per *page*. Pages whose expected sample count
    /// is negligible are never touched. Touched-rank tracking as in
    /// [`Self::sample_uniform_estimates_touched`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != table.len()`.
    pub fn sample_weighted_estimates_touched(
        &mut self,
        out: &mut [u64],
        touched: &mut TouchedSet,
        total_true: f64,
        table: &WeightTable,
    ) {
        let _span = self.obs.span_here("sample");
        assert_eq!(
            out.len(),
            table.len(),
            "output slice must cover every table rank"
        );
        touched.reset(out);
        if self.fault_blackout || out.is_empty() {
            if self.fault_blackout {
                self.obs.count("tiermem.sampler.blackout_batches", 1);
            }
            return;
        }
        // Expected events per unit weight.
        let c = total_true.max(0.0) / self.period * self.fault_keep;
        if c <= 0.0 || table.total() <= 0.0 {
            return;
        }
        let events = poisson(&mut self.rng, table.total() * c);
        for _ in 0..events {
            let rank = table.event_rank(self.rng.next_u64());
            debug_assert!(rank < out.len());
            // SAFETY: `event_rank` returns a rank below `table.len()`,
            // which the entry assert pinned to `out.len()`.
            unsafe {
                *out.get_unchecked_mut(rank) += 1;
            }
            touched.set(rank);
        }
        self.obs.count("tiermem.sampler.batches", 1);
        self.obs.count("tiermem.sampler.events", events);
        self.scale_touched(out, touched);
    }

    /// Period-scales exactly the touched entries (all nonzero entries
    /// are touched by construction, so untouched entries scale to
    /// themselves and can be skipped).
    fn scale_touched(&self, out: &mut [u64], touched: &TouchedSet) {
        for r in touched.iter_ranks() {
            debug_assert!(r < out.len());
            // SAFETY: the set only holds ranks the scatter loop wrote,
            // all below `out.len()`.
            let v = unsafe { out.get_unchecked_mut(r) };
            *v = self.estimate_from_samples(*v);
        }
    }
}

/// Draws from Poisson(mean) — Knuth's method for small means, a normal
/// approximation (clamped at zero) for large means.
fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            // Numerical guard: for very small `l`, avoid unbounded loops.
            if k > 1_000 {
                return k;
            }
        }
    } else {
        // Box–Muller normal approximation N(mean, mean).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = mean + mean.sqrt() * z;
        if v < 0.0 {
            0
        } else {
            v.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(AccessSampler::new(0.5, 0).is_err());
        assert!(AccessSampler::new(f64::NAN, 0).is_err());
        assert!(AccessSampler::new(1.0, 0).is_ok());
    }

    #[test]
    fn zero_accesses_sample_zero() {
        let mut s = AccessSampler::new(16.0, 1).unwrap();
        assert_eq!(s.sample_count(0.0), 0);
        assert_eq!(s.sample_count(-5.0), 0);
    }

    #[test]
    fn sampling_is_unbiased_on_average() {
        let mut s = AccessSampler::new(64.0, 7).unwrap();
        let true_count = 640.0; // mean 10 events
        let n = 2000;
        let total: u64 = (0..n).map(|_| s.sample_count(true_count)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn large_mean_uses_normal_approx_sanely() {
        let mut s = AccessSampler::new(2.0, 3).unwrap();
        let true_count = 100_000.0; // mean 50_000
        let v = s.sample_count(true_count);
        assert!(v > 45_000 && v < 55_000, "{v}");
    }

    #[test]
    fn estimate_scales_by_period() {
        let s = AccessSampler::new(64.0, 0).unwrap();
        assert_eq!(s.estimate_from_samples(10), 640);
        assert_eq!(s.period(), 64.0);
    }

    #[test]
    fn blackout_reads_zero_and_clears() {
        let mut s = AccessSampler::new(2.0, 5).unwrap();
        s.set_fault_state(true, 1.0);
        for _ in 0..20 {
            assert_eq!(s.sample_count(10_000.0), 0);
        }
        s.set_fault_state(false, 1.0);
        assert!(s.sample_count(10_000.0) > 0);
    }

    #[test]
    fn dropout_thins_the_stream() {
        let mut nominal = AccessSampler::new(4.0, 17).unwrap();
        let mut dropped = AccessSampler::new(4.0, 17).unwrap();
        dropped.set_fault_state(false, 0.25);
        let n = 2000;
        let a: u64 = (0..n).map(|_| nominal.sample_count(400.0)).sum();
        let b: u64 = (0..n).map(|_| dropped.sample_count(400.0)).sum();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 0.25).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn nominal_fault_state_changes_nothing() {
        let mut plain = AccessSampler::new(8.0, 23).unwrap();
        let mut hooked = AccessSampler::new(8.0, 23).unwrap();
        hooked.set_fault_state(false, 1.0);
        for i in 0..200 {
            let c = i as f64 * 31.0;
            assert_eq!(plain.sample_count(c), hooked.sample_count(c));
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let mut a = AccessSampler::new(8.0, 99).unwrap();
        let mut b = AccessSampler::new(8.0, 99).unwrap();
        for i in 0..100 {
            assert_eq!(
                a.sample_count(i as f64 * 13.0),
                b.sample_count(i as f64 * 13.0)
            );
        }
    }

    #[test]
    fn weight_table_validation() {
        assert!(WeightTable::new(&[0.5, 0.3, 0.2]).is_ok());
        assert!(WeightTable::new(&[0.3, 0.5]).is_err()); // increasing
        assert!(WeightTable::new(&[0.5, -0.1]).is_err());
        assert!(WeightTable::new(&[f64::INFINITY]).is_err());
        let t = WeightTable::new(&[0.5, 0.3, 0.2]).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.total() - 1.0).abs() < 1e-12);
        assert!(WeightTable::new(&[]).unwrap().is_empty());
    }

    /// Empirical mean/variance of first and second moments over many
    /// pages, for pinning the batched paths against the scalar path.
    fn moments(xs: &[u64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<u64>() as f64 / n;
        let var = xs
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var)
    }

    /// Divides the period back out of a touched kernel's estimates
    /// (exact for the integral periods these tests use).
    fn to_events(out: &[u64], period: f64) -> Vec<u64> {
        out.iter().map(|&e| e / period as u64).collect()
    }

    /// Seeded equivalence: the batched uniform path matches the per-page
    /// scalar loop in mean and variance. Both are Poisson(m) per page
    /// (the batched draw is the same distribution by Poisson splitting),
    /// so mean ≈ var ≈ m for each.
    #[test]
    fn uniform_batch_matches_scalar_distribution() {
        let n = 20_000;
        let period = 64.0;
        let true_per_page = 640.0; // mean 10 events/page
        let mut scalar = AccessSampler::new(period, 42).unwrap();
        let per_page: Vec<u64> = (0..n).map(|_| scalar.sample_count(true_per_page)).collect();
        let (m_s, v_s) = moments(&per_page);

        let mut batched = AccessSampler::new(period, 43).unwrap();
        let mut out = vec![0u64; n];
        batched.sample_uniform_estimates_touched(
            &mut out,
            &mut TouchedSet::default(),
            true_per_page,
        );
        let (m_b, v_b) = moments(&to_events(&out, period));

        // σ of the sample mean is √(10/20000) ≈ 0.022; allow 5σ.
        assert!((m_s - 10.0).abs() < 0.12, "scalar mean {m_s}");
        assert!((m_b - 10.0).abs() < 0.12, "batched mean {m_b}");
        assert!((m_s - m_b).abs() < 0.2, "means {m_s} vs {m_b}");
        // Poisson: variance == mean. Sampling error on var is larger.
        assert!((v_s - 10.0).abs() < 1.0, "scalar var {v_s}");
        assert!((v_b - 10.0).abs() < 1.0, "batched var {v_b}");
    }

    /// Seeded equivalence for the weighted (Zipf-tail) path: per-rank
    /// means from the batched head/tail split track the scalar per-page
    /// loop, and aggregate mean/variance match.
    #[test]
    fn weighted_batch_matches_scalar_distribution() {
        let n = 4096usize;
        let period = 101.0;
        // Zipf-like descending weights, normalized.
        let raw: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-1.1)).collect();
        let total_w: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total_w).collect();
        let table = WeightTable::new(&weights).unwrap();
        let total_true = 2.0e6; // hottest page ≈ 2770 events, deep tail ≪ 1

        let rounds = 200;
        let mut scalar = AccessSampler::new(period, 7).unwrap();
        let mut batched = AccessSampler::new(period, 8).unwrap();
        let mut sum_s = vec![0u64; n];
        let mut sum_b = vec![0u64; n];
        let mut totals_s = Vec::with_capacity(rounds);
        let mut totals_b = Vec::with_capacity(rounds);
        let mut out = vec![0u64; n];
        let mut touched = TouchedSet::default();
        for _ in 0..rounds {
            let mut t = 0u64;
            for (rank, acc) in sum_s.iter_mut().enumerate() {
                let ev = scalar.sample_count(total_true * weights[rank]);
                *acc += ev;
                t += ev;
            }
            totals_s.push(t);
            batched.sample_weighted_estimates_touched(&mut out, &mut touched, total_true, &table);
            let events = to_events(&out, period);
            for (acc, &ev) in sum_b.iter_mut().zip(&events) {
                *acc += ev;
            }
            totals_b.push(events.iter().sum());
        }

        // Aggregate totals: both are Poisson(total_true/period) per round.
        let expect_total = total_true / period;
        let (mt_s, vt_s) = moments(&totals_s);
        let (mt_b, vt_b) = moments(&totals_b);
        let sigma = (expect_total / rounds as f64).sqrt(); // ≈ 10
        assert!((mt_s - expect_total).abs() < 5.0 * sigma, "scalar {mt_s}");
        assert!((mt_b - expect_total).abs() < 5.0 * sigma, "batched {mt_b}");
        // Variance of a Poisson equals its mean (tolerance ~15 %).
        assert!((vt_s / expect_total - 1.0).abs() < 0.3, "scalar var {vt_s}");
        assert!(
            (vt_b / expect_total - 1.0).abs() < 0.3,
            "batched var {vt_b}"
        );

        // Per-rank means agree for head ranks (relative) and for the
        // binned tail (the per-page means there are far below one event).
        for rank in [0usize, 1, 5, 20] {
            let m = total_true * weights[rank] / period * rounds as f64;
            let a = sum_s[rank] as f64;
            let b = sum_b[rank] as f64;
            assert!((a / m - 1.0).abs() < 0.15, "rank {rank} scalar {a} vs {m}");
            assert!((b / m - 1.0).abs() < 0.15, "rank {rank} batched {b} vs {m}");
        }
        let tail_s: u64 = sum_s[1024..].iter().sum();
        let tail_b: u64 = sum_b[1024..].iter().sum();
        let tail_expect =
            total_true * (1.0 - weights[..1024].iter().sum::<f64>()) / period * rounds as f64;
        assert!(
            (tail_s as f64 / tail_expect - 1.0).abs() < 0.1,
            "tail scalar {tail_s} vs {tail_expect}"
        );
        assert!(
            (tail_b as f64 / tail_expect - 1.0).abs() < 0.1,
            "tail batched {tail_b} vs {tail_expect}"
        );
    }

    #[test]
    fn batched_paths_respect_faults_and_are_deterministic() {
        let weights = [0.5, 0.3, 0.2];
        let table = WeightTable::new(&weights).unwrap();
        let mut s = AccessSampler::new(2.0, 9).unwrap();
        s.set_fault_state(true, 1.0);
        let mut out = [7u64; 3];
        s.sample_weighted_estimates_touched(&mut out, &mut TouchedSet::default(), 1e6, &table);
        assert_eq!(out, [0, 0, 0]);
        out = [7; 3];
        s.sample_uniform_estimates_touched(&mut out, &mut TouchedSet::default(), 1e6);
        assert_eq!(out, [0, 0, 0]);
        s.set_fault_state(false, 1.0);

        // Dropout thins the batched stream like the scalar one.
        let mut nominal = AccessSampler::new(4.0, 17).unwrap();
        let mut dropped = AccessSampler::new(4.0, 17).unwrap();
        dropped.set_fault_state(false, 0.25);
        let mut buf = vec![0u64; 512];
        let mut touched = TouchedSet::default();
        nominal.sample_uniform_estimates_touched(&mut buf, &mut touched, 400.0);
        let a: u64 = buf.iter().sum();
        dropped.sample_uniform_estimates_touched(&mut buf, &mut touched, 400.0);
        let b: u64 = buf.iter().sum();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 0.25).abs() < 0.05, "ratio {ratio}");

        // Same seed, same calls → bit-identical output.
        let run = |seed: u64| {
            let mut s = AccessSampler::new(8.0, seed).unwrap();
            let mut o = vec![0u64; 64];
            s.sample_uniform_estimates_touched(&mut o, &mut TouchedSet::default(), 100.0);
            let t = WeightTable::new(&(0..64).map(|r| 1.0 / (r + 1) as f64).collect::<Vec<_>>())
                .unwrap();
            let mut o2 = vec![0u64; 64];
            s.sample_weighted_estimates_touched(&mut o2, &mut TouchedSet::default(), 5000.0, &t);
            (o, o2)
        };
        assert_eq!(run(33), run(33));
    }

    fn zipf(n: usize, s: f64) -> Vec<f64> {
        (0..n).map(|r| ((r + 1) as f64).powf(-s)).collect()
    }

    /// The alias resolution `event_rank` replaced: a branch on the coin.
    fn branchy_rank(t: &WeightTable, r: u64) -> usize {
        let j = (((r >> 32) * t.alias.len() as u64) >> 32) as usize;
        if (r as u32) < t.alias[j].thresh {
            j
        } else {
            t.alias[j].alias as usize
        }
    }

    /// The branch-free `event_rank` resolves every slot like the branch,
    /// at both ends of the slot's high-word range and at coins on and
    /// around the slot's threshold.
    #[test]
    fn event_rank_select_matches_branch_at_every_slot() {
        let mut rotated = zipf(300, 1.1);
        rotated.rotate_left(37);
        let tables = [
            WeightTable::new(&zipf(300, 1.1)).unwrap(),
            WeightTable::new_unsorted(&rotated).unwrap(),
            WeightTable::new_unsorted(&[0.0, 0.4, 0.0, 0.0, 0.35, 0.25, 0.0]).unwrap(),
            WeightTable::new(&[1.0]).unwrap(),
        ];
        for t in &tables {
            let n = t.len() as u64;
            for (j, slot) in t.alias.iter().enumerate() {
                let first = ((j as u64) << 32).div_ceil(n);
                let last = ((j as u64 + 1) << 32).div_ceil(n) - 1;
                for hi in [first, last] {
                    assert_eq!(((hi * n) >> 32) as usize, j);
                    for coin in [0, slot.thresh.wrapping_sub(1), slot.thresh, u32::MAX] {
                        let r = (hi << 32) | coin as u64;
                        assert_eq!(t.event_rank(r), branchy_rank(t, r), "draw {r:#x}");
                    }
                }
            }
        }
    }

    /// The fused kernels replay the reference scatter exactly — the same
    /// draws in the same order, resolved with a branch and scaled with
    /// `f64::round` — so they leave every golden digest unchanged.
    #[test]
    fn touched_kernels_match_reference_scatter() {
        let table = WeightTable::new(&zipf(2048, 0.9)).unwrap();
        let n = table.len();
        for period in [1.0, 3.7, 101.0, 1009.0] {
            let mut s = AccessSampler::new(period, 99).unwrap();
            let (mut out, mut touched) = (vec![0u64; n], TouchedSet::default());
            for total_true in [1.0e5, 3.0e5] {
                let mut rng = s.rng.clone();
                let (mut want_w, mut want_u) = (vec![0u64; n], vec![0u64; n]);
                for _ in 0..poisson(&mut rng, table.total() * (total_true / period)) {
                    want_w[branchy_rank(&table, rng.next_u64())] += 1;
                }
                for _ in 0..poisson(&mut rng, 30.0 * n as f64 / period) {
                    want_u[rng.gen_range(0..n)] += 1;
                }
                for v in want_w.iter_mut().chain(&mut want_u) {
                    *v = (*v as f64 * period).round() as u64;
                }
                s.sample_weighted_estimates_touched(&mut out, &mut touched, total_true, &table);
                assert_eq!(out, want_w, "weighted, period {period}");
                s.sample_uniform_estimates_touched(&mut out, &mut touched, 30.0);
                assert_eq!(out, want_u, "uniform, period {period}");
                assert_eq!(s.rng.state(), rng.state());
            }
        }
    }

    /// Two calls on the same buffers: afterwards the set holds exactly
    /// the nonzero ranks in ascending order, and the ranks only the
    /// first call touched have been zeroed through the set.
    #[test]
    fn touched_set_holds_exactly_the_nonzero_ranks() {
        let table = WeightTable::new(&zipf(300, 1.1)).unwrap();
        let mut s = AccessSampler::new(8.0, 5).unwrap();
        for uniform in [false, true] {
            let (mut out, mut touched) = (vec![0u64; table.len()], TouchedSet::default());
            let mut ranks = Vec::new();
            for _ in 0..2 {
                if uniform {
                    s.sample_uniform_estimates_touched(&mut out, &mut touched, 2.0);
                } else {
                    s.sample_weighted_estimates_touched(&mut out, &mut touched, 400.0, &table);
                }
                let now: Vec<usize> = touched.iter_ranks().collect();
                assert!(now.windows(2).all(|w| w[0] < w[1]), "{now:?}");
                assert!((0..out.len()).all(|r| (out[r] != 0) == now.contains(&r)));
                ranks.push(now);
            }
            let (first, second) = (&ranks[0], &ranks[1]);
            assert!(first.iter().any(|r| !second.contains(r)), "{first:?}");
            assert!(first.iter().all(|&r| second.contains(&r) || out[r] == 0));
        }
    }

    /// The scale-up table holds exactly what the arithmetic gives, and
    /// counts past it take the arithmetic, saturation included.
    #[test]
    fn estimate_table_matches_arithmetic() {
        for period in [1.0, 1.5, 101.0, 1009.0, 4096.3, 1e18] {
            let s = AccessSampler::new(period, 0).unwrap();
            let edges = [1 << 53, 1 << 63, u64::MAX];
            for k in (0..1024).chain(edges) {
                let want = round_to_u64(k as f64 * period);
                assert_eq!(s.estimate_from_samples(k), want, "k {k}, period {period}");
            }
        }
    }

    /// `iter_ranks` yields the same ranks as a dense scan of every bit.
    #[test]
    fn iter_ranks_matches_dense_bit_scan() {
        let dense = |t: &TouchedSet| -> Vec<usize> {
            (0..t.words.len() * 64)
                .filter(|&r| t.words[r >> 6] >> (r & 63) & 1 == 1)
                .collect()
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
            let mut out = vec![0u64; n];
            let mut t = TouchedSet::default();
            t.reset(&mut out);
            let mut sets = vec![t.clone()];
            let mut full = t.clone();
            (0..n).for_each(|r| full.set(r));
            sets.push(full);
            for r in 0..n {
                let mut single = t.clone();
                single.set(r);
                sets.push(single);
            }
            for _ in 0..8 {
                let mut random = t.clone();
                for r in 0..n {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(3) {
                        random.set(r);
                    }
                }
                sets.push(random);
            }
            for set in &sets {
                assert_eq!(set.iter_ranks().collect::<Vec<_>>(), dense(set), "n {n}");
            }
        }
    }

    #[test]
    fn round_to_u64_matches_round_at_edges() {
        let mut xs = vec![-0.0, 5e-324, -1.5, 1e20, f64::MAX];
        xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for e in [52, 53, 63, 64] {
            let p = 2f64.powi(e);
            xs.extend([p, p + 1.0, p + 2.0]);
        }
        for n in [0u64, 1, 2, 1009, 1 << 20, (1 << 51) + 3, (1 << 52) - 1] {
            let half = n as f64 + 0.5;
            xs.extend([half.next_down(), half, half.next_up()]);
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(50_000))]

        #[test]
        fn round_to_u64_matches_round_on_bit_patterns(bits in 0u64..(1 << 63)) {
            let x = f64::from_bits(bits);
            proptest::prop_assert!(round_to_u64(x) == x.round() as u64, "{x:e}");
        }

        #[test]
        fn round_to_u64_matches_round_on_period_products(
            k in 0u64..(1 << 40),
            shift in 0u32..40,
            period in 1.0f64..1.0e4,
        ) {
            let x = (k >> shift) as f64 * period;
            proptest::prop_assert!(round_to_u64(x) == x.round() as u64, "{x:e}");
        }
    }
}
