//! Adversarial scenario engine: seeded, composable hostile workload
//! dynamics.
//!
//! The fault layer (`mtat_tiermem::faults`) breaks the *substrate* —
//! samplers, migrations, telemetry. This module breaks the *workloads*:
//! the regime where Jenga shows watermark policies collapse into
//! migration thrashing and MaxMem shows colocation falls apart under
//! antagonistic neighbors. A [`ScenarioSpec`] composes time-varying
//! [`Mutator`]s —
//!
//! * **phase changes**: Zipf-exponent shifts and hot-set rotation,
//! * **working-set blowups**: the popularity flattens, so the same
//!   resident set suddenly buys a fraction of its old hit ratio,
//! * **memory-leak drift**: a growing prefix of the hottest ranks goes
//!   dead (the pages keep their RSS but lose all accesses — classic
//!   leaked garbage), with the live mass renormalizing to the rest,
//! * **antagonistic BE bursts**: a neighbor multiplies its memory
//!   traffic, and
//! * **flash crowds**: the LC's offered load spikes
//!
//! — and compiles them ([`ScenarioSpec::compile`]) into a deterministic
//! piecewise-constant per-tick [`ScenarioSchedule`]. The runner applies
//! each phase at its start tick: BE popularities are re-registered
//! (rebuilt through the fallible [`Popularity::from_weights`] path so a
//! malformed scenario fails its matrix cell cleanly), the LC offered
//! load and BE access rates are scaled, and the active phase id is
//! threaded into obs events, [`SimState`], and decision provenance.
//!
//! Determinism contract: compilation draws all of its randomness
//! (rotation-stride jitter) from a `StdRng` seeded by `spec.seed`, so
//! the same spec compiles to a bit-identical schedule every time —
//! [`ScenarioSchedule::digest`] is the property-test hook.
//!
//! This module is also the single scenario registry shared by the bench
//! bins: the chaos-matrix fault scenarios ([`chaos_fault_scenarios`],
//! [`heal_fault_scenarios`]) and the adversarial workload scenarios
//! ([`adversarial_scenarios`]) live here, not inline in the binaries.
//!
//! [`SimState`]: https://docs.rs/ (mtat-core policy state; see crates/core)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mtat_tiermem::faults::{FaultKind, FaultPlan};

use crate::access::{AccessPattern, Popularity, PopularityError, RawWeights};

/// Hard cap on the leaked (dead) fraction of a workload's ranks — the
/// live remainder must keep positive mass for renormalization.
pub const MAX_DEAD_FRAC: f64 = 0.9;

/// Why a scenario could not be compiled or resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// No scenario with this name in the registry.
    UnknownScenario(String),
    /// A mutator parameter is out of range or non-finite.
    InvalidSpec {
        /// Which parameter.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A mutated popularity distribution could not be built.
    Popularity(PopularityError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownScenario(n) => write!(f, "unknown scenario {n:?}"),
            ScenarioError::InvalidSpec { what, detail } => {
                write!(f, "invalid scenario spec: {what}: {detail}")
            }
            ScenarioError::Popularity(e) => write!(f, "scenario popularity: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<PopularityError> for ScenarioError {
    fn from(e: PopularityError) -> Self {
        ScenarioError::Popularity(e)
    }
}

/// Which BE workloads a mutator targets (indices into the experiment's
/// BE list, in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeSelector {
    /// Every BE workload.
    All,
    /// One BE workload by index.
    One(usize),
}

impl BeSelector {
    /// Whether BE index `i` is selected.
    #[inline]
    pub fn matches(&self, i: usize) -> bool {
        match *self {
            BeSelector::All => true,
            BeSelector::One(j) => i == j,
        }
    }
}

/// One time-varying workload mutation. Mutators compose: a spec may
/// rotate hot sets while a leak drifts and bursts fire.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutator {
    /// Phase change: at `at_secs` the selected BEs switch their
    /// popularity to a Zipfian with `exponent` (0 flattens to uniform).
    /// Later shifts override earlier ones.
    ZipfShift {
        /// Target workloads.
        be: BeSelector,
        /// When the shift lands.
        at_secs: f64,
        /// The new Zipf exponent (finite, >= 0).
        exponent: f64,
    },
    /// Hot-set rotation: starting at `start_secs`, every `period_secs`
    /// the selected BEs' popularity ranks rotate by `stride_frac` of the
    /// region (± `jitter_frac` of the stride, drawn from the scenario
    /// seed). The previously hot head becomes mid-tail — the ping-pong
    /// generator for thrash testing.
    HotSetRotate {
        /// Target workloads.
        be: BeSelector,
        /// First rotation instant.
        start_secs: f64,
        /// Seconds between rotations (> 0).
        period_secs: f64,
        /// Rotation stride as a fraction of the region in (0, 1).
        stride_frac: f64,
        /// Relative stride jitter in [0, 1].
        jitter_frac: f64,
    },
    /// Working-set blowup: for `[at_secs, at_secs + dur_secs)` the
    /// selected BEs' popularity flattens to a Zipfian with
    /// `flat_exponent` (near 0 ⇒ near uniform ⇒ the effective working
    /// set explodes past FMem).
    WorkingSetBlowup {
        /// Target workloads.
        be: BeSelector,
        /// Blowup onset.
        at_secs: f64,
        /// Blowup duration.
        dur_secs: f64,
        /// Flattened exponent (finite, >= 0; overrides any shift).
        flat_exponent: f64,
    },
    /// Memory-leak drift: from `start_secs`, every `step_secs` another
    /// `step_frac` of the hottest ranks dies (capped at `max_frac`,
    /// itself capped at [`MAX_DEAD_FRAC`]). Dead ranks keep their RSS
    /// but carry zero weight; the remaining mass renormalizes.
    LeakDrift {
        /// Target workloads.
        be: BeSelector,
        /// Drift onset.
        start_secs: f64,
        /// Seconds per growth step (> 0).
        step_secs: f64,
        /// Dead-fraction growth per step in (0, 1).
        step_frac: f64,
        /// Dead-fraction ceiling in (0, 1].
        max_frac: f64,
    },
    /// Antagonistic burst: for `[at_secs, at_secs + dur_secs)` the
    /// selected BEs multiply their memory access rate by `rate_mult` —
    /// more sampled pressure, more bandwidth demand, more contention.
    BeBurst {
        /// Target workloads.
        be: BeSelector,
        /// Burst onset.
        at_secs: f64,
        /// Burst duration.
        dur_secs: f64,
        /// Access-rate multiplier (finite, > 0).
        rate_mult: f64,
    },
    /// Flash crowd: for `[at_secs, at_secs + dur_secs)` the LC's
    /// offered load multiplies by `load_mult` on top of its load
    /// pattern.
    FlashCrowd {
        /// Spike onset.
        at_secs: f64,
        /// Spike duration.
        dur_secs: f64,
        /// Offered-load multiplier (finite, > 0).
        load_mult: f64,
    },
}

/// A named, seeded composition of [`Mutator`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name (also the matrix-cell label).
    pub name: &'static str,
    /// Seeds the compile-time randomness (rotation jitter).
    pub seed: u64,
    /// The mutators, applied compositionally.
    pub mutators: Vec<Mutator>,
}

/// The popularity mutation of one BE in one phase, resolved against the
/// BE's base pattern at materialization time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PopMutation {
    /// Zipf-exponent override (None keeps the base pattern).
    pub exponent: Option<f64>,
    /// Cumulative hot-set rotation as a fraction of the region.
    pub rotate_frac: f64,
    /// Dead (leaked) fraction of the hottest ranks.
    pub dead_frac: f64,
}

impl PopMutation {
    /// Whether this mutation leaves the base popularity untouched.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.exponent.is_none() && self.rotate_frac == 0.0 && self.dead_frac == 0.0
    }

    /// Builds the mutated [`Popularity`] over `raw`'s ranks: start
    /// from the (possibly exponent-overridden) sorted pattern weights,
    /// kill the leaked prefix, then rotate so the hot head starts at
    /// rank `round(rotate_frac · n) mod n`. Rank identity is preserved
    /// — rank `r` is the same physical page across phases.
    ///
    /// The pattern weights come from `raw`, the caller's per-workload
    /// [`RawWeights`], so a phase change copies them instead of
    /// evaluating a `powf` per page; the result is bit-identical to
    /// rotating and leaking freshly computed weights.
    ///
    /// # Errors
    ///
    /// [`PopularityError`] when the resolved pattern or weight vector is
    /// malformed (bad exponent, zero live mass).
    pub fn materialize(
        &self,
        base: AccessPattern,
        raw: &mut RawWeights,
    ) -> Result<Popularity, PopularityError> {
        let pattern = match self.exponent {
            Some(exponent) => {
                if !(exponent.is_finite() && exponent >= 0.0) {
                    return Err(PopularityError::BadZipfExponent(exponent));
                }
                AccessPattern::Zipfian { exponent }
            }
            None => base,
        };
        if self.is_identity() {
            return raw.popularity(pattern);
        }
        let sorted = raw.get(pattern)?;
        let n = sorted.len();
        let dead = ((self.dead_frac.clamp(0.0, MAX_DEAD_FRAC) * n as f64).floor() as usize)
            .min(n.saturating_sub(1));
        let rot = ((self.rotate_frac.rem_euclid(1.0) * n as f64).round() as usize) % n;
        // Sorted rank `s` lands at rank `(s + rot) mod n`, so the
        // coldest `rot` ranks wrap around to the front.
        let (head, tail) = sorted.split_at(n - rot);
        let mut weights = [tail, head].concat();
        for s in 0..dead {
            weights[(s + rot) % n] = 0.0;
        }
        Popularity::from_weights(pattern, weights)
    }
}

/// The per-BE state of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct BePhase {
    /// Access-rate multiplier (1.0 = nominal).
    pub rate_mult: f64,
    /// Popularity mutation, or `None` when the base distribution holds.
    pub pop: Option<PopMutation>,
}

/// One piecewise-constant phase of a compiled scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// First tick this phase covers.
    pub start_tick: u64,
    /// 1-based phase id (0 is reserved for "no scenario").
    pub id: u32,
    /// Human-readable summary of the active mutations.
    pub label: String,
    /// LC offered-load multiplier (1.0 = nominal).
    pub lc_load_mult: f64,
    /// Per-BE state, indexed like the experiment's BE list.
    pub be: Vec<BePhase>,
}

/// A compiled, deterministic per-tick schedule. Phases are contiguous,
/// sorted by `start_tick`, and the first phase starts at tick 0.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSchedule {
    name: &'static str,
    phases: Vec<ScenarioPhase>,
    total_ticks: u64,
}

impl ScenarioSchedule {
    /// The scenario's registry name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All phases, in start order.
    #[inline]
    pub fn phases(&self) -> &[ScenarioPhase] {
        &self.phases
    }

    /// Ticks the schedule was compiled for.
    #[inline]
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// The phase covering `tick` (ticks past the end stay in the final
    /// phase).
    pub fn phase_at(&self, tick: u64) -> &ScenarioPhase {
        let i = self.phases.partition_point(|p| p.start_tick <= tick);
        &self.phases[i.saturating_sub(1)]
    }

    /// FNV-1a digest over every field of the schedule, including the
    /// exact bits of every float — the "same seed ⇒ bit-identical
    /// schedule" property-test hook.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.name.as_bytes());
        h.u64(self.total_ticks);
        for p in &self.phases {
            h.u64(p.start_tick);
            h.u64(p.id as u64);
            h.bytes(p.label.as_bytes());
            h.u64(p.lc_load_mult.to_bits());
            for b in &p.be {
                h.u64(b.rate_mult.to_bits());
                match b.pop {
                    None => h.u64(0),
                    Some(m) => {
                        h.u64(1);
                        h.u64(m.exponent.map_or(u64::MAX, f64::to_bits));
                        h.u64(m.rotate_frac.to_bits());
                        h.u64(m.dead_frac.to_bits());
                    }
                }
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher (no std `Hasher` indirection so the
/// digest is stable across Rust versions).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Validates that `v` is finite and within `[lo, hi]`.
fn check(what: &'static str, v: f64, lo: f64, hi: f64) -> Result<(), ScenarioError> {
    if v.is_finite() && (lo..=hi).contains(&v) {
        Ok(())
    } else {
        Err(ScenarioError::InvalidSpec {
            what,
            detail: format!("must be finite in [{lo}, {hi}], got {v}"),
        })
    }
}

impl ScenarioSpec {
    /// Validates every mutator parameter without compiling.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const T: f64 = 1e9; // generous bound on times/durations
        for m in &self.mutators {
            match *m {
                Mutator::ZipfShift {
                    at_secs, exponent, ..
                } => {
                    check("zipf_shift.at_secs", at_secs, 0.0, T)?;
                    check("zipf_shift.exponent", exponent, 0.0, 64.0)?;
                }
                Mutator::HotSetRotate {
                    start_secs,
                    period_secs,
                    stride_frac,
                    jitter_frac,
                    ..
                } => {
                    check("hot_set_rotate.start_secs", start_secs, 0.0, T)?;
                    check("hot_set_rotate.period_secs", period_secs, 1e-9, T)?;
                    check("hot_set_rotate.stride_frac", stride_frac, 0.0, 1.0)?;
                    check("hot_set_rotate.jitter_frac", jitter_frac, 0.0, 1.0)?;
                }
                Mutator::WorkingSetBlowup {
                    at_secs,
                    dur_secs,
                    flat_exponent,
                    ..
                } => {
                    check("working_set_blowup.at_secs", at_secs, 0.0, T)?;
                    check("working_set_blowup.dur_secs", dur_secs, 0.0, T)?;
                    check("working_set_blowup.flat_exponent", flat_exponent, 0.0, 64.0)?;
                }
                Mutator::LeakDrift {
                    start_secs,
                    step_secs,
                    step_frac,
                    max_frac,
                    ..
                } => {
                    check("leak_drift.start_secs", start_secs, 0.0, T)?;
                    check("leak_drift.step_secs", step_secs, 1e-9, T)?;
                    check("leak_drift.step_frac", step_frac, 0.0, 1.0)?;
                    check("leak_drift.max_frac", max_frac, 0.0, MAX_DEAD_FRAC)?;
                }
                Mutator::BeBurst {
                    at_secs,
                    dur_secs,
                    rate_mult,
                    ..
                } => {
                    check("be_burst.at_secs", at_secs, 0.0, T)?;
                    check("be_burst.dur_secs", dur_secs, 0.0, T)?;
                    check("be_burst.rate_mult", rate_mult, 1e-9, 1e6)?;
                }
                Mutator::FlashCrowd {
                    at_secs,
                    dur_secs,
                    load_mult,
                } => {
                    check("flash_crowd.at_secs", at_secs, 0.0, T)?;
                    check("flash_crowd.dur_secs", dur_secs, 0.0, T)?;
                    check("flash_crowd.load_mult", load_mult, 1e-9, 1e6)?;
                }
            }
        }
        Ok(())
    }

    /// Compiles the spec into a deterministic piecewise-constant
    /// schedule over `ceil(duration_secs / tick_secs)` ticks for
    /// `n_bes` BE workloads. All randomness (rotation jitter) derives
    /// from `self.seed`; the same inputs always produce a bit-identical
    /// schedule.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for malformed mutator parameters
    /// or a non-positive tick/duration.
    pub fn compile(
        &self,
        tick_secs: f64,
        duration_secs: f64,
        n_bes: usize,
    ) -> Result<ScenarioSchedule, ScenarioError> {
        if !(tick_secs.is_finite() && tick_secs > 0.0) {
            return Err(ScenarioError::InvalidSpec {
                what: "tick_secs",
                detail: format!("must be finite and positive, got {tick_secs}"),
            });
        }
        if !(duration_secs.is_finite() && duration_secs > 0.0) {
            return Err(ScenarioError::InvalidSpec {
                what: "duration_secs",
                detail: format!("must be finite and positive, got {duration_secs}"),
            });
        }
        self.validate()?;
        for m in &self.mutators {
            let be = match *m {
                Mutator::ZipfShift { be, .. }
                | Mutator::HotSetRotate { be, .. }
                | Mutator::WorkingSetBlowup { be, .. }
                | Mutator::LeakDrift { be, .. }
                | Mutator::BeBurst { be, .. } => be,
                Mutator::FlashCrowd { .. } => BeSelector::All,
            };
            if let BeSelector::One(i) = be {
                if i >= n_bes {
                    return Err(ScenarioError::InvalidSpec {
                        what: "be selector",
                        detail: format!("workload index {i} out of range (n_bes = {n_bes})"),
                    });
                }
            }
        }
        let total_ticks = (duration_secs / tick_secs).ceil() as u64;
        let tick_of =
            |t: f64| -> u64 { ((t / tick_secs).floor().max(0.0) as u64).min(total_ticks) };

        // Pre-resolve rotation fire times and cumulative (jittered)
        // offsets — one seeded stream, consumed in mutator order.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5CE7);
        let mut rotations: Vec<Vec<(f64, f64)>> = Vec::new();
        for m in &self.mutators {
            if let Mutator::HotSetRotate {
                start_secs,
                period_secs,
                stride_frac,
                jitter_frac,
                ..
            } = *m
            {
                let mut fires = Vec::new();
                let mut offset = 0.0f64;
                let mut k = 0u64;
                loop {
                    let t = start_secs + k as f64 * period_secs;
                    if t >= duration_secs || k > 100_000 {
                        break;
                    }
                    let jitter = if jitter_frac > 0.0 {
                        rng.gen_range(-jitter_frac..jitter_frac)
                    } else {
                        0.0
                    };
                    offset += stride_frac * (1.0 + jitter);
                    fires.push((t, offset));
                    k += 1;
                }
                rotations.push(fires);
            }
        }

        // Every instant the piecewise-constant state can change.
        let mut break_ticks: Vec<u64> = vec![0];
        let mut rot_iter = rotations.iter();
        for m in &self.mutators {
            match *m {
                Mutator::ZipfShift { at_secs, .. } => break_ticks.push(tick_of(at_secs)),
                Mutator::HotSetRotate { .. } => {
                    for &(t, _) in rot_iter.next().expect("one entry per rotate mutator") {
                        break_ticks.push(tick_of(t));
                    }
                }
                Mutator::WorkingSetBlowup {
                    at_secs, dur_secs, ..
                }
                | Mutator::BeBurst {
                    at_secs, dur_secs, ..
                }
                | Mutator::FlashCrowd {
                    at_secs, dur_secs, ..
                } => {
                    break_ticks.push(tick_of(at_secs));
                    break_ticks.push(tick_of(at_secs + dur_secs));
                }
                Mutator::LeakDrift {
                    start_secs,
                    step_secs,
                    step_frac,
                    max_frac,
                    ..
                } => {
                    let steps = (max_frac / step_frac.max(1e-12)).ceil() as u64;
                    for k in 0..=steps {
                        let t = start_secs + k as f64 * step_secs;
                        if t >= duration_secs {
                            break;
                        }
                        break_ticks.push(tick_of(t));
                    }
                }
            }
        }
        break_ticks.retain(|&t| t < total_ticks);
        break_ticks.sort_unstable();
        break_ticks.dedup();

        // Evaluate the full state at each breakpoint (mid-tick sampling
        // dodges boundary float ambiguity: the breakpoint tick itself is
        // the quantization, chosen above).
        let mut phases: Vec<ScenarioPhase> = Vec::new();
        for &bp in &break_ticks {
            let t = (bp as f64 + 0.5) * tick_secs;
            let mut lc_load_mult = 1.0f64;
            let mut be: Vec<BePhase> = (0..n_bes)
                .map(|_| BePhase {
                    rate_mult: 1.0,
                    pop: None,
                })
                .collect();
            let mut muts: Vec<PopMutation> = vec![PopMutation::default(); n_bes];
            let mut rot_iter = rotations.iter();
            for m in &self.mutators {
                match *m {
                    Mutator::ZipfShift {
                        be: sel,
                        at_secs,
                        exponent,
                    } => {
                        if t >= at_secs {
                            for (i, mu) in muts.iter_mut().enumerate() {
                                if sel.matches(i) {
                                    mu.exponent = Some(exponent);
                                }
                            }
                        }
                    }
                    Mutator::HotSetRotate { be: sel, .. } => {
                        let fires = rot_iter.next().expect("one entry per rotate mutator");
                        let offset = fires
                            .iter()
                            .take_while(|&&(ft, _)| ft <= t)
                            .last()
                            .map_or(0.0, |&(_, o)| o);
                        if offset > 0.0 {
                            for (i, mu) in muts.iter_mut().enumerate() {
                                if sel.matches(i) {
                                    mu.rotate_frac += offset;
                                }
                            }
                        }
                    }
                    Mutator::WorkingSetBlowup {
                        be: sel,
                        at_secs,
                        dur_secs,
                        flat_exponent,
                    } => {
                        if t >= at_secs && t < at_secs + dur_secs {
                            for (i, mu) in muts.iter_mut().enumerate() {
                                if sel.matches(i) {
                                    // A blowup dominates any shift.
                                    mu.exponent = Some(
                                        mu.exponent
                                            .map_or(flat_exponent, |e: f64| e.min(flat_exponent)),
                                    );
                                }
                            }
                        }
                    }
                    Mutator::LeakDrift {
                        be: sel,
                        start_secs,
                        step_secs,
                        step_frac,
                        max_frac,
                    } => {
                        if t >= start_secs {
                            let k = ((t - start_secs) / step_secs).floor() + 1.0;
                            let dead = (k * step_frac).min(max_frac);
                            for (i, mu) in muts.iter_mut().enumerate() {
                                if sel.matches(i) {
                                    mu.dead_frac = (mu.dead_frac + dead).min(MAX_DEAD_FRAC);
                                }
                            }
                        }
                    }
                    Mutator::BeBurst {
                        be: sel,
                        at_secs,
                        dur_secs,
                        rate_mult,
                    } => {
                        if t >= at_secs && t < at_secs + dur_secs {
                            for (i, b) in be.iter_mut().enumerate() {
                                if sel.matches(i) {
                                    b.rate_mult *= rate_mult;
                                }
                            }
                        }
                    }
                    Mutator::FlashCrowd {
                        at_secs,
                        dur_secs,
                        load_mult,
                    } => {
                        if t >= at_secs && t < at_secs + dur_secs {
                            lc_load_mult *= load_mult;
                        }
                    }
                }
            }
            for (b, mu) in be.iter_mut().zip(&muts) {
                if !mu.is_identity() {
                    b.pop = Some(*mu);
                }
            }
            let label = phase_label(lc_load_mult, &be);
            phases.push(ScenarioPhase {
                start_tick: bp,
                id: 0, // assigned after merging
                label,
                lc_load_mult,
                be,
            });
        }

        // Merge adjacent identical phases (breakpoints that quantized to
        // the same state), then number the survivors 1..=n.
        let mut merged: Vec<ScenarioPhase> = Vec::with_capacity(phases.len());
        for p in phases {
            match merged.last() {
                Some(prev) if prev.lc_load_mult == p.lc_load_mult && prev.be == p.be => {}
                _ => merged.push(p),
            }
        }
        for (i, p) in merged.iter_mut().enumerate() {
            p.id = (i + 1) as u32;
        }
        Ok(ScenarioSchedule {
            name: self.name,
            phases: merged,
            total_ticks,
        })
    }
}

/// Compact human-readable phase label, e.g.
/// `"rot 0.35 | exp 0.05 | dead 0.16 | be x3 | lc x1.6"`.
fn phase_label(lc_load_mult: f64, be: &[BePhase]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let rot = be
        .iter()
        .filter_map(|b| b.pop.map(|m| m.rotate_frac))
        .fold(0.0f64, f64::max);
    if rot > 0.0 {
        parts.push(format!("rot {rot:.2}"));
    }
    if let Some(e) = be.iter().find_map(|b| b.pop.and_then(|m| m.exponent)) {
        parts.push(format!("exp {e:.2}"));
    }
    let dead = be
        .iter()
        .filter_map(|b| b.pop.map(|m| m.dead_frac))
        .fold(0.0f64, f64::max);
    if dead > 0.0 {
        parts.push(format!("dead {dead:.2}"));
    }
    let burst = be.iter().map(|b| b.rate_mult).fold(1.0f64, f64::max);
    if burst != 1.0 {
        parts.push(format!("be x{burst:.1}"));
    }
    if lc_load_mult != 1.0 {
        parts.push(format!("lc x{lc_load_mult:.1}"));
    }
    if parts.is_empty() {
        "baseline".to_string()
    } else {
        parts.join(" | ")
    }
}

// ---------------------------------------------------------------------
// Scenario registry — the single source the bench bins and tests share.
// ---------------------------------------------------------------------

/// When the chaos-matrix substrate fault arrives: during a calm phase
/// (where a blinded sizer can silently mis-size the partition).
pub const FAULT_START_SECS: f64 = 40.0;
/// How long the chaos-matrix substrate fault persists — through the
/// onset of the load surge, the moment the control loop matters most.
pub const FAULT_WINDOW_SECS: f64 = 95.0;

/// The chaos-matrix substrate-fault scenarios (formerly inlined in the
/// `chaos_matrix` binary).
pub fn chaos_fault_scenarios() -> Vec<(&'static str, FaultPlan)> {
    let (start, secs) = (FAULT_START_SECS, FAULT_WINDOW_SECS);
    vec![
        (
            "sampler_blackout",
            FaultPlan::new(0xB1ACC).with(FaultKind::SamplerBlackout, start, secs),
        ),
        (
            // A cascading memory-subsystem brown-out: the PEBS sampler
            // goes dark first, and 50 s later the migration path wedges
            // too (stalled until the whole fault clears). Whatever
            // provisioning the control loop managed in between is frozen
            // in place for the surge.
            "migration_stall",
            FaultPlan::new(0x57A11)
                .with(FaultKind::SamplerBlackout, start, secs)
                .with(FaultKind::MigrationStall, start + 50.0, secs - 50.0),
        ),
        (
            "telemetry_stale",
            FaultPlan::new(0x57A1E)
                .with(FaultKind::TelemetryStale { ticks: 5 }, start, secs)
                .with(FaultKind::TelemetryNoise { amplitude: 0.35 }, start, secs),
        ),
        (
            "flaky_migration",
            FaultPlan::new(0xF1A2)
                .with(FaultKind::MigrationFlaky { prob: 0.6 }, start, secs)
                .with(FaultKind::SamplerBlackout, start, secs),
        ),
        (
            "bandwidth_spike",
            FaultPlan::new(0xB0057)
                .with(FaultKind::BandwidthSpike { extra: 0.4 }, start, secs)
                .with(FaultKind::SamplerBlackout, start, secs),
        ),
        (
            // The PP-M daemon itself dies mid-run and stays down through
            // the surge. PP-E keeps enforcing the last plan; the restarted
            // daemon either resumes from its checkpoint (supervised arm)
            // or comes back cold with an untrained sizer (unsupervised).
            "ppm_crash",
            FaultPlan::new(0xDEAD1).with(FaultKind::PpmCrash, start, secs),
        ),
        (
            // Crash-loop: three consecutive daemon deaths with short
            // recovery gaps, the last one clearing at the usual fault_end.
            // The first freeze spans the surge onset and the gaps fall
            // inside the surge, so every restart drops the daemon into
            // the worst moment and repeats the checkpoint-vs-cold
            // divergence under pressure.
            "ppm_crash_loop",
            FaultPlan::new(0xDEAD3)
                .with(FaultKind::PpmCrash, 85.0, 15.0)
                .with(FaultKind::PpmCrash, 105.0, 15.0)
                .with(FaultKind::PpmCrash, 125.0, 10.0),
        ),
    ]
}

/// The self-healing fault scenarios (formerly inlined in the
/// `chaos_matrix` binary): the fault strikes late in the surge plateau,
/// so an arm that freezes or pins a conservative partition starves the
/// BE tier for the rest of the run while the self-healing arm rolls
/// back and re-adapts.
pub fn heal_fault_scenarios() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            // The learned controller's actor network is poisoned with
            // NaN mid-surge — detection, rollback to the last known-good
            // checkpoint, and re-entry all happen under pressure.
            "ppm_poison",
            FaultPlan::new(0x9015).with(FaultKind::SacPoison, 130.0, 2.0),
        ),
        (
            // The worst correlated failure: sampler thinning, migration
            // throttle + flakiness, telemetry noise, a bandwidth spike,
            // and (at this intensity) an actor poisoning at the rising
            // edge, sustained from late surge into the recovery phase.
            "fault_storm",
            FaultPlan::new(0x5702).with(FaultKind::FaultStorm { intensity: 0.95 }, 125.0, 40.0),
        ),
    ]
}

/// The substrate-fault overlay for the *faulted* arm of every
/// adversarial cell: a moderate, recoverable mix (flaky migrations
/// while the workload mutates, noisy then thinned telemetry) that
/// stresses the guards without deciding the cell by itself.
pub fn adversarial_fault_plan() -> FaultPlan {
    FaultPlan::new(0xAD5A)
        .with(FaultKind::MigrationFlaky { prob: 0.05 }, 40.0, 80.0)
        .with(FaultKind::TelemetryNoise { amplitude: 0.15 }, 60.0, 80.0)
        .with(FaultKind::SamplerDropout { keep: 0.5 }, 90.0, 40.0)
}

/// The six adversarial workload scenarios of the policy×scenario×fault
/// matrix. Timings assume the chaos-matrix run shape (240 s, surge at
/// 100–160 s).
pub fn adversarial_scenarios() -> Vec<ScenarioSpec> {
    vec![
        // Thrash generator: every ~1.5 s all BE hot sets rotate by 37 %
        // of the region — faster than the chase itself (the full
        // migration budget needs ~a second to move the aggregate hot
        // head), wider than any hot head, and deliberately
        // *non-cycling* (0.37 steps walk the whole rank circle instead
        // of alternating between a couple of positions a chaser could
        // cache the union of), so pages promoted in pursuit are cold
        // before they serve a hit. A reactive policy ping-pongs
        // partitions and placement forever, paying the migration
        // bandwidth twice (both tiers carry the traffic) for hits that
        // never materialize; a hysteretic one holds still.
        ScenarioSpec {
            name: "thrash_rotate",
            seed: 0x7A5B_0001,
            mutators: vec![Mutator::HotSetRotate {
                be: BeSelector::All,
                start_secs: 30.0,
                period_secs: 1.5,
                stride_frac: 0.37,
                jitter_frac: 0.1,
            }],
        },
        // Phase changes: the BE mix flattens hard at 60 s, sharpens past
        // its original skew at 120 s (mid-surge), then relaxes at 180 s.
        ScenarioSpec {
            name: "zipf_phase_shift",
            seed: 0x7A5B_0002,
            mutators: vec![
                Mutator::ZipfShift {
                    be: BeSelector::All,
                    at_secs: 60.0,
                    exponent: 0.25,
                },
                Mutator::ZipfShift {
                    be: BeSelector::All,
                    at_secs: 120.0,
                    exponent: 1.3,
                },
                Mutator::ZipfShift {
                    be: BeSelector::All,
                    at_secs: 180.0,
                    exponent: 0.8,
                },
            ],
        },
        // Working-set blowup storm: three pulses where every BE's
        // popularity collapses to near-uniform — the effective working
        // set explodes past FMem, then re-concentrates, baiting a naive
        // policy into chasing mass that will vanish again.
        ScenarioSpec {
            name: "ws_blowup",
            seed: 0x7A5B_0003,
            mutators: vec![
                Mutator::WorkingSetBlowup {
                    be: BeSelector::All,
                    at_secs: 60.0,
                    dur_secs: 30.0,
                    flat_exponent: 0.05,
                },
                Mutator::WorkingSetBlowup {
                    be: BeSelector::All,
                    at_secs: 120.0,
                    dur_secs: 30.0,
                    flat_exponent: 0.05,
                },
                Mutator::WorkingSetBlowup {
                    be: BeSelector::All,
                    at_secs: 180.0,
                    dur_secs: 30.0,
                    flat_exponent: 0.05,
                },
            ],
        },
        // Memory-leak drift: from 40 s, 8 % of every BE's hottest ranks
        // die every 20 s (to a 60 % cap) — stale popularity mass a
        // policy must renormalize away rather than keep hot.
        ScenarioSpec {
            name: "leak_drift",
            seed: 0x7A5B_0004,
            mutators: vec![Mutator::LeakDrift {
                be: BeSelector::All,
                start_secs: 40.0,
                step_secs: 20.0,
                step_frac: 0.08,
                max_frac: 0.6,
            }],
        },
        // Antagonistic neighbor: BE 0 triples its memory traffic during
        // the calm, then every BE bursts 2.5× through the surge tail.
        ScenarioSpec {
            name: "antagonist_burst",
            seed: 0x7A5B_0005,
            mutators: vec![
                Mutator::BeBurst {
                    be: BeSelector::One(0),
                    at_secs: 50.0,
                    dur_secs: 40.0,
                    rate_mult: 3.0,
                },
                Mutator::BeBurst {
                    be: BeSelector::All,
                    at_secs: 150.0,
                    dur_secs: 45.0,
                    rate_mult: 2.5,
                },
            ],
        },
        // Flash crowds: the LC's offered load spikes 1.6× during calm
        // and 1.8× in the recovery phase — unannounced, on top of the
        // load pattern.
        ScenarioSpec {
            name: "flash_crowd",
            seed: 0x7A5B_0006,
            mutators: vec![
                Mutator::FlashCrowd {
                    at_secs: 70.0,
                    dur_secs: 25.0,
                    load_mult: 1.6,
                },
                Mutator::FlashCrowd {
                    at_secs: 170.0,
                    dur_secs: 20.0,
                    load_mult: 1.8,
                },
            ],
        },
    ]
}

/// Looks an adversarial scenario up by name.
///
/// # Errors
///
/// [`ScenarioError::UnknownScenario`] when the name is not registered.
pub fn adversarial(name: &str) -> Result<ScenarioSpec, ScenarioError> {
    adversarial_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ScenarioError::UnknownScenario(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rotate_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: "t",
            seed,
            mutators: vec![Mutator::HotSetRotate {
                be: BeSelector::All,
                start_secs: 5.0,
                period_secs: 10.0,
                stride_frac: 0.25,
                jitter_frac: 0.2,
            }],
        }
    }

    #[test]
    fn compile_is_piecewise_and_contiguous() {
        let s = rotate_spec(7).compile(0.1, 60.0, 2).unwrap();
        assert_eq!(s.phases()[0].start_tick, 0);
        assert_eq!(s.phases()[0].label, "baseline");
        for w in s.phases().windows(2) {
            assert!(w[0].start_tick < w[1].start_tick);
            assert_eq!(w[0].id + 1, w[1].id);
        }
        // 5 s baseline + rotations at 5, 15, 25, 35, 45, 55 s.
        assert_eq!(s.phases().len(), 7);
        // Rotation accumulates monotonically.
        let offs: Vec<f64> = s.phases()[1..]
            .iter()
            .map(|p| p.be[0].pop.unwrap().rotate_frac)
            .collect();
        for w in offs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn phase_at_covers_every_tick() {
        let s = rotate_spec(7).compile(0.1, 60.0, 2).unwrap();
        assert_eq!(s.phase_at(0).id, 1);
        let mut prev = 0;
        for tick in 0..s.total_ticks() {
            let id = s.phase_at(tick).id;
            assert!(id >= prev, "phase ids are non-decreasing over ticks");
            prev = id;
        }
        assert_eq!(
            s.phase_at(10 * s.total_ticks()).id,
            s.phases().last().unwrap().id,
            "past-the-end ticks stay in the final phase"
        );
    }

    #[test]
    fn materialize_rotates_and_leaks() {
        let base = AccessPattern::Zipfian { exponent: 1.0 };
        let rot = PopMutation {
            exponent: None,
            rotate_frac: 0.5,
            dead_frac: 0.0,
        };
        let mut raw = RawWeights::new(10);
        let p = rot.materialize(base, &mut raw).unwrap();
        // The hot head moved to rank 5.
        assert!(p.weight(5) > p.weight(0));
        let leak = PopMutation {
            exponent: None,
            rotate_frac: 0.0,
            dead_frac: 0.3,
        };
        let q = leak.materialize(base, &mut raw).unwrap();
        assert_eq!(q.weight(0), 0.0);
        assert_eq!(q.weight(2), 0.0);
        assert!(q.weight(3) > 0.0);
        assert!((q.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_mutation_reproduces_base() {
        let base = AccessPattern::Zipfian { exponent: 0.8 };
        let m = PopMutation::default();
        let a = m.materialize(base, &mut RawWeights::new(64)).unwrap();
        let b = Popularity::new(base, 64);
        assert_eq!(a.weights(), b.weights());
    }

    /// The per-rank materialization `materialize` replaced: one
    /// `raw_weight` (a `powf`) per rank, rotated and leaked in place.
    /// Kept as the oracle for the raw-weight path.
    fn materialize_per_rank(m: &PopMutation, base: AccessPattern, n: usize) -> Popularity {
        let pattern = m
            .exponent
            .map_or(base, |exponent| AccessPattern::Zipfian { exponent });
        if m.is_identity() {
            return Popularity::new(pattern, n);
        }
        let dead = ((m.dead_frac.clamp(0.0, MAX_DEAD_FRAC) * n as f64).floor() as usize)
            .min(n.saturating_sub(1));
        let rot = ((m.rotate_frac.rem_euclid(1.0) * n as f64).round() as usize) % n;
        let mut weights = vec![0.0; n];
        for (r, w) in weights.iter_mut().enumerate() {
            let src = (r + n - rot) % n;
            if src >= dead {
                *w = pattern.raw_weight(src);
            }
        }
        Popularity::from_weights(pattern, weights).unwrap()
    }

    /// `materialize` from reused raw weights equals the per-rank build
    /// bit for bit — every weight and every prefix sum — over
    /// rotations, leaks and exponent overrides. One `RawWeights` per
    /// page count serves the whole sequence, so an override that
    /// reused another pattern's weights would show.
    #[test]
    fn materialize_from_raw_weights_is_bit_identical() {
        let base = AccessPattern::Zipfian { exponent: 0.8 };
        let exponents = [None, Some(1.3), None, Some(0.0), Some(0.8), Some(1.3)];
        let rotations = [0.0, 0.25, 0.5, 0.37, 0.999, -0.3, 1.0];
        let leaks = [0.0, 0.1, 0.5, 0.95];
        for n in [1usize, 2, 7, 1000, 1024] {
            let mut raw = RawWeights::new(n);
            for &exponent in &exponents {
                for &rotate_frac in &rotations {
                    for &dead_frac in &leaks {
                        let m = PopMutation {
                            exponent,
                            rotate_frac,
                            dead_frac,
                        };
                        let got = m.materialize(base, &mut raw).unwrap();
                        let want = materialize_per_rank(&m, base, n);
                        assert_eq!(got.pattern(), want.pattern(), "{m:?} n={n}");
                        let bits = |p: &Popularity| -> Vec<u64> {
                            let w = p.weights().iter().map(|w| w.to_bits());
                            w.chain((0..=n).map(|k| p.fraction_top(k).to_bits()))
                                .collect()
                        };
                        assert_eq!(bits(&got), bits(&want), "{m:?} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let all = adversarial_scenarios();
        assert!(all.len() >= 6);
        for s in &all {
            assert_eq!(adversarial(s.name).unwrap().name, s.name);
            s.compile(0.1, 240.0, 4).unwrap();
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(matches!(
            adversarial("nope"),
            Err(ScenarioError::UnknownScenario(_))
        ));
    }

    #[test]
    fn malformed_specs_fail_with_typed_errors() {
        let bad = ScenarioSpec {
            name: "bad",
            seed: 1,
            mutators: vec![Mutator::ZipfShift {
                be: BeSelector::All,
                at_secs: 10.0,
                exponent: f64::NAN,
            }],
        };
        assert!(matches!(
            bad.compile(0.1, 60.0, 2),
            Err(ScenarioError::InvalidSpec { .. })
        ));
        let oob = ScenarioSpec {
            name: "oob",
            seed: 1,
            mutators: vec![Mutator::BeBurst {
                be: BeSelector::One(9),
                at_secs: 1.0,
                dur_secs: 1.0,
                rate_mult: 2.0,
            }],
        };
        assert!(matches!(
            oob.compile(0.1, 60.0, 2),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    proptest! {
        /// Satellite: same seed ⇒ bit-identical schedule; different
        /// seeds perturb the jittered rotation strides.
        #[test]
        fn compile_is_deterministic(seed in 0u64..u64::MAX, n_bes in 1usize..6) {
            let a = rotate_spec(seed).compile(0.1, 90.0, n_bes).unwrap();
            let b = rotate_spec(seed).compile(0.1, 90.0, n_bes).unwrap();
            prop_assert_eq!(a.digest(), b.digest());
            prop_assert_eq!(a, b);
        }

        /// Every registry scenario compiles deterministically at any BE
        /// count, and every phase's state is well-formed.
        #[test]
        fn registry_compiles_clean(idx in 0usize..6, n_bes in 1usize..6) {
            let spec = &adversarial_scenarios()[idx];
            let a = spec.compile(0.1, 240.0, n_bes).unwrap();
            let b = spec.compile(0.1, 240.0, n_bes).unwrap();
            prop_assert_eq!(a.digest(), b.digest());
            for p in a.phases() {
                prop_assert!(p.lc_load_mult.is_finite() && p.lc_load_mult > 0.0);
                prop_assert_eq!(p.be.len(), n_bes);
                for bph in &p.be {
                    prop_assert!(bph.rate_mult.is_finite() && bph.rate_mult > 0.0);
                    if let Some(m) = bph.pop {
                        // Materialization must succeed for real page counts.
                        let pop = m.materialize(
                            AccessPattern::Zipfian { exponent: 0.8 },
                            &mut RawWeights::new(1024),
                        ).unwrap();
                        prop_assert_eq!(pop.n_pages(), 1024);
                    }
                }
            }
        }
    }
}
