//! Deterministic fault injection for the tiered-memory substrate.
//!
//! The paper's PP-M/PP-E daemons run against a real kernel where PEBS
//! samples drop, page migrations stall under bandwidth contention, and
//! telemetry arrives late. This module reproduces those failure modes in
//! the simulator, reproducibly: a [`FaultPlan`] is a serializable list
//! of timed fault windows plus a `u64` seed, and a [`FaultInjector`]
//! turns it into a per-tick [`TickFaults`] effect set. Identical plans
//! produce identical effects and identical runs.
//!
//! Nothing here holds global state. The simulation driver owns the
//! injector and pushes the per-tick effects into the substrate through
//! explicit hooks ([`crate::sampler::AccessSampler::set_fault_state`],
//! [`crate::migration::MigrationEngine::set_tick_faults`]) and applies
//! the telemetry effects itself when building the policy-visible
//! observations. With the default [`FaultPlan::none`] every hook is a
//! no-op and the simulation output is bit-identical to a build without
//! this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of substrate perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// PEBS sampling goes dark: every sampled count reads zero and the
    /// policy-visible access rate drops to zero. Application-side
    /// telemetry (P99, throughput) stays live.
    SamplerBlackout,
    /// Sampler dropout spike: each PEBS event survives with probability
    /// `keep` in (0, 1], thinning the stream beyond the configured
    /// period. The daemon does not know events are being dropped, so
    /// estimates read low by the same factor.
    SamplerDropout {
        /// Fraction of events that survive.
        keep: f64,
    },
    /// Migration engine throttled to `factor` in [0, 1] of its nominal
    /// bandwidth (0 behaves like [`FaultKind::MigrationStall`]).
    MigrationThrottle {
        /// Fraction of nominal migration bandwidth available.
        factor: f64,
    },
    /// Migration engine fully stalled: no page moves complete.
    MigrationStall,
    /// Each granted page move transiently fails with probability `prob`
    /// — it consumes bandwidth but the page does not change tier.
    MigrationFlaky {
        /// Per-page transient failure probability.
        prob: f64,
    },
    /// Policy-visible observations are delayed by `ticks` whole ticks
    /// (the driver replays old observations; physics stay current).
    TelemetryStale {
        /// Delay in ticks.
        ticks: u32,
    },
    /// Multiplicative noise on observed P99 and throughput: each value
    /// is scaled by `1 + eps` with `eps` uniform in `[-amplitude,
    /// amplitude]`, drawn from the injector's seeded stream.
    TelemetryNoise {
        /// Maximum relative perturbation.
        amplitude: f64,
    },
    /// External bandwidth-contention spike: both tiers' utilization
    /// gains `extra` (clamped to 1), inflating real access latencies.
    BandwidthSpike {
        /// Additional utilization in [0, 1].
        extra: f64,
    },
    /// The PP-M control daemon crashes: the policy makes no decisions
    /// while the window is active, and the in-kernel PP-E keeps
    /// enforcing the last partition plan (the paper's daemon/kernel
    /// split). When the window ends the runner restarts PP-M, restoring
    /// from the latest valid checkpoint if one exists.
    PpmCrash,
    /// The learned controller's actor network is poisoned with NaN
    /// parameters at the window's rising edge (a corrupted gradient
    /// round, a bad weight load). The policy's subsequent raw actions
    /// are non-finite; the health sentinel is expected to contain the
    /// damage and roll PP-M back to a clean checkpoint.
    SacPoison,
    /// A bookkeeping accumulator drifts: each tick inside the window the
    /// incrementally maintained popularity mass of one workload gains
    /// `delta` (a Kahan-compensation bug, a missed update). Surfaces as
    /// a [`crate::audit::AuditViolation::PopularityDrift`].
    AccumulatorDrift {
        /// Per-tick drift added to the incremental mass.
        delta: f64,
    },
    /// The control daemon runs slow: each tick inside the window costs
    /// `factor` × the nominal tick budget of (simulated) wall time. The
    /// runner's watchdog compares this against its per-tick budget —
    /// deliberately driven off simulated time, never the host clock, so
    /// replays stay bit-identical.
    ClockSkew {
        /// Simulated slowdown factor (1.0 = nominal, ≥ 1).
        factor: f64,
    },
    /// Every checkpoint captured inside the window is corrupted after
    /// sealing (a torn device write): the envelope checksum rejects it
    /// on restore, exercising generation fallback.
    CheckpointCorrupt,
    /// A correlated multi-fault window: sampler thinning, migration
    /// throttling and flakiness, telemetry noise, and a bandwidth spike
    /// all at once, scaled by `intensity` in [0, 1]. At intensity
    /// ≥ 0.9 the storm also poisons the SAC actor at its rising edge —
    /// the worst correlated failure the self-healing runtime must
    /// absorb. Storms never delay telemetry (the staleness ring is
    /// sized from explicit [`FaultKind::TelemetryStale`] windows only).
    FaultStorm {
        /// Storm strength in [0, 1].
        intensity: f64,
    },
}

/// A fault active over a closed-open time window `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Simulation time at which the fault appears (seconds).
    pub start_secs: f64,
    /// How long it lasts (seconds).
    pub duration_secs: f64,
}

impl FaultWindow {
    /// Whether the window covers simulation time `now_secs`.
    #[inline]
    pub fn active_at(&self, now_secs: f64) -> bool {
        now_secs >= self.start_secs && now_secs < self.start_secs + self.duration_secs
    }
}

/// A reproducible fault schedule: a seed for the fault layer's own
/// randomness plus the list of timed fault windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seeds every random draw the fault layer makes (noise, per-move
    /// failures). Independent of the simulation seed.
    pub seed: u64,
    /// The fault windows, in any order; overlaps compose (see
    /// [`FaultInjector::begin_tick`]).
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults, all hooks no-ops.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            windows: Vec::new(),
        }
    }

    /// An empty plan carrying a seed, ready for [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Builder: appends a fault window.
    pub fn with(mut self, kind: FaultKind, start_secs: f64, duration_secs: f64) -> Self {
        self.windows.push(FaultWindow {
            kind,
            start_secs,
            duration_secs,
        });
        self
    }

    /// The latest instant at which any window is still active.
    pub fn last_fault_end_secs(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.start_secs + w.duration_secs)
            .fold(0.0, f64::max)
    }
}

/// The combined fault effects for one tick.
///
/// Overlapping windows compose conservatively: the strongest sampler
/// thinning, the slowest migration factor, the highest failure
/// probability, the longest telemetry delay, the largest noise
/// amplitude, and the summed (clamped) bandwidth spike.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickFaults {
    /// PEBS reads zero this tick.
    pub sampler_blackout: bool,
    /// Sampler event survival fraction (1.0 = nominal).
    pub sampler_keep: f64,
    /// Migration bandwidth multiplier (1.0 = nominal, 0.0 = stalled).
    pub migration_bw_factor: f64,
    /// Per-page transient migration failure probability.
    pub migration_fail_prob: f64,
    /// Policy-visible observation delay in ticks.
    pub telemetry_delay_ticks: u32,
    /// Relative noise amplitude on observed P99/throughput.
    pub telemetry_noise_amp: f64,
    /// Extra bandwidth utilization on both tiers.
    pub bandwidth_extra_util: f64,
    /// The PP-M control daemon is down this tick (no policy decisions;
    /// PP-E keeps enforcing the last plan).
    pub ppm_down: bool,
    /// The SAC actor is poisoned this tick. The runner injects the NaN
    /// corruption on the *rising edge* only (a poison event, not a
    /// state), so consecutive poisoned ticks corrupt once.
    pub sac_poison: bool,
    /// Per-tick drift added to one workload's incremental popularity
    /// mass (0.0 = nominal). Overlapping drift windows sum.
    pub accum_drift: f64,
    /// Simulated controller slowdown factor (1.0 = nominal); the
    /// watchdog compares `tick_secs × factor` against its budget.
    pub clock_skew_factor: f64,
    /// Checkpoints captured this tick are corrupted after sealing.
    pub checkpoint_corrupt: bool,
}

impl TickFaults {
    /// The no-fault effect set.
    pub fn nominal() -> Self {
        TickFaults {
            sampler_blackout: false,
            sampler_keep: 1.0,
            migration_bw_factor: 1.0,
            migration_fail_prob: 0.0,
            telemetry_delay_ticks: 0,
            telemetry_noise_amp: 0.0,
            bandwidth_extra_util: 0.0,
            ppm_down: false,
            sac_poison: false,
            accum_drift: 0.0,
            clock_skew_factor: 1.0,
            checkpoint_corrupt: false,
        }
    }

    /// True when every effect is at its nominal value.
    pub fn is_nominal(&self) -> bool {
        *self == TickFaults::nominal()
    }
}

impl Default for TickFaults {
    fn default() -> Self {
        TickFaults::nominal()
    }
}

/// Evaluates a [`FaultPlan`] tick by tick.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// Builds an injector; all randomness derives from `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xFA_17);
        FaultInjector { plan, rng }
    }

    /// Computes the combined effects for the tick starting at
    /// `now_secs`: [`TickFaults::nominal`] when no window is active.
    pub fn begin_tick(&mut self, now_secs: f64) -> TickFaults {
        let mut t = TickFaults::nominal();
        for w in &self.plan.windows {
            if !w.active_at(now_secs) {
                continue;
            }
            match w.kind {
                FaultKind::SamplerBlackout => t.sampler_blackout = true,
                FaultKind::SamplerDropout { keep } => {
                    t.sampler_keep = t.sampler_keep.min(keep.clamp(0.0, 1.0));
                }
                FaultKind::MigrationThrottle { factor } => {
                    t.migration_bw_factor = t.migration_bw_factor.min(factor.clamp(0.0, 1.0));
                }
                FaultKind::MigrationStall => t.migration_bw_factor = 0.0,
                FaultKind::MigrationFlaky { prob } => {
                    t.migration_fail_prob = t.migration_fail_prob.max(prob.clamp(0.0, 1.0));
                }
                FaultKind::TelemetryStale { ticks } => {
                    t.telemetry_delay_ticks = t.telemetry_delay_ticks.max(ticks);
                }
                FaultKind::TelemetryNoise { amplitude } => {
                    t.telemetry_noise_amp = t.telemetry_noise_amp.max(amplitude.abs());
                }
                FaultKind::BandwidthSpike { extra } => {
                    t.bandwidth_extra_util =
                        (t.bandwidth_extra_util + extra.clamp(0.0, 1.0)).min(1.0);
                }
                FaultKind::PpmCrash => t.ppm_down = true,
                FaultKind::SacPoison => t.sac_poison = true,
                FaultKind::AccumulatorDrift { delta } => t.accum_drift += delta,
                FaultKind::ClockSkew { factor } => {
                    t.clock_skew_factor = t.clock_skew_factor.max(factor.max(1.0));
                }
                FaultKind::CheckpointCorrupt => t.checkpoint_corrupt = true,
                FaultKind::FaultStorm { intensity } => {
                    let i = intensity.clamp(0.0, 1.0);
                    t.sampler_keep = t.sampler_keep.min(1.0 - 0.7 * i);
                    t.migration_bw_factor = t.migration_bw_factor.min(1.0 - 0.8 * i);
                    t.migration_fail_prob = t.migration_fail_prob.max(0.4 * i);
                    t.telemetry_noise_amp = t.telemetry_noise_amp.max(0.3 * i);
                    t.bandwidth_extra_util = (t.bandwidth_extra_util + 0.5 * i).min(1.0);
                    if i >= 0.9 {
                        t.sac_poison = true;
                    }
                }
            }
        }
        t
    }

    /// One multiplicative noise factor `1 + eps`, `eps ~ U(-amp, amp)`,
    /// from the seeded stream. Returns exactly 1.0 for `amp <= 0`
    /// without consuming a draw, so fault-free runs stay untouched.
    pub fn noise_factor(&mut self, amplitude: f64) -> f64 {
        if amplitude <= 0.0 {
            return 1.0;
        }
        1.0 + self.rng.gen_range(-amplitude..amplitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(0xDEAD)
            .with(FaultKind::SamplerBlackout, 10.0, 5.0)
            .with(FaultKind::MigrationThrottle { factor: 0.25 }, 12.0, 10.0)
            .with(FaultKind::MigrationFlaky { prob: 0.5 }, 12.0, 10.0)
            .with(FaultKind::TelemetryStale { ticks: 3 }, 0.0, 4.0)
            .with(FaultKind::TelemetryNoise { amplitude: 0.2 }, 0.0, 4.0)
            .with(FaultKind::BandwidthSpike { extra: 0.6 }, 20.0, 2.0)
    }

    #[test]
    fn none_is_empty_and_nominal() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for t in 0..50 {
            assert!(inj.begin_tick(t as f64).is_nominal());
        }
    }

    #[test]
    fn windows_activate_and_expire() {
        let mut inj = FaultInjector::new(plan());
        let t0 = inj.begin_tick(0.0);
        assert_eq!(t0.telemetry_delay_ticks, 3);
        assert_eq!(t0.telemetry_noise_amp, 0.2);
        assert!(!t0.sampler_blackout);

        let t11 = inj.begin_tick(11.0);
        assert!(t11.sampler_blackout);
        assert_eq!(t11.migration_bw_factor, 1.0);

        let t13 = inj.begin_tick(13.0);
        assert!(t13.sampler_blackout);
        assert_eq!(t13.migration_bw_factor, 0.25);
        assert_eq!(t13.migration_fail_prob, 0.5);

        let t30 = inj.begin_tick(30.0);
        assert!(t30.is_nominal());
    }

    #[test]
    fn overlapping_windows_compose_conservatively() {
        let p = FaultPlan::new(1)
            .with(FaultKind::MigrationThrottle { factor: 0.5 }, 0.0, 10.0)
            .with(FaultKind::MigrationStall, 5.0, 1.0)
            .with(FaultKind::SamplerDropout { keep: 0.8 }, 0.0, 10.0)
            .with(FaultKind::SamplerDropout { keep: 0.3 }, 0.0, 10.0)
            .with(FaultKind::BandwidthSpike { extra: 0.7 }, 0.0, 10.0)
            .with(FaultKind::BandwidthSpike { extra: 0.7 }, 0.0, 10.0);
        let mut inj = FaultInjector::new(p);
        let t = inj.begin_tick(5.5);
        assert_eq!(t.migration_bw_factor, 0.0);
        assert_eq!(t.sampler_keep, 0.3);
        assert_eq!(t.bandwidth_extra_util, 1.0);
    }

    #[test]
    fn ppm_crash_window_marks_daemon_down() {
        let p = FaultPlan::new(3).with(FaultKind::PpmCrash, 5.0, 10.0);
        let mut inj = FaultInjector::new(p);
        assert!(!inj.begin_tick(4.0).ppm_down);
        assert!(inj.begin_tick(5.0).ppm_down);
        assert!(inj.begin_tick(14.0).ppm_down);
        let after = inj.begin_tick(15.0);
        assert!(!after.ppm_down);
        assert!(after.is_nominal());
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let mut a = FaultInjector::new(plan());
        let mut b = FaultInjector::new(plan());
        for tick in 0..40 {
            let now = tick as f64;
            assert_eq!(a.begin_tick(now), b.begin_tick(now));
            assert_eq!(a.noise_factor(0.2), b.noise_factor(0.2));
        }
    }

    #[test]
    fn noise_factor_is_identity_when_disabled() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert_eq!(inj.noise_factor(0.0), 1.0);
        assert_eq!(inj.noise_factor(-1.0), 1.0);
        let f = inj.noise_factor(0.3);
        assert!((0.7..1.3).contains(&f));
    }

    #[test]
    fn last_fault_end() {
        assert_eq!(plan().last_fault_end_secs(), 22.0);
        assert_eq!(FaultPlan::none().last_fault_end_secs(), 0.0);
    }

    #[test]
    fn zero_duration_windows_are_never_active() {
        let w = FaultWindow {
            kind: FaultKind::SamplerBlackout,
            start_secs: 10.0,
            duration_secs: 0.0,
        };
        assert!(!w.active_at(9.999));
        assert!(!w.active_at(10.0));
        assert!(!w.active_at(10.001));
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with(FaultKind::SamplerBlackout, 10.0, 0.0));
        for tick in 0..30 {
            assert!(inj.begin_tick(tick as f64).is_nominal(), "tick {tick}");
        }
    }

    #[test]
    fn overlapping_windows_of_the_same_kind_compose() {
        // Two drift windows overlap in [5, 8): the drift sums. Two skew
        // windows overlap there too: the worst factor wins.
        let p = FaultPlan::new(2)
            .with(FaultKind::AccumulatorDrift { delta: 1e-6 }, 0.0, 8.0)
            .with(FaultKind::AccumulatorDrift { delta: 3e-6 }, 5.0, 10.0)
            .with(FaultKind::ClockSkew { factor: 2.0 }, 0.0, 8.0)
            .with(FaultKind::ClockSkew { factor: 5.0 }, 5.0, 10.0);
        let mut inj = FaultInjector::new(p);
        let early = inj.begin_tick(2.0);
        assert_eq!(early.accum_drift, 1e-6);
        assert_eq!(early.clock_skew_factor, 2.0);
        let both = inj.begin_tick(6.0);
        assert_eq!(both.accum_drift, 4e-6);
        assert_eq!(both.clock_skew_factor, 5.0);
        let late = inj.begin_tick(9.0);
        assert_eq!(late.accum_drift, 3e-6);
        assert_eq!(late.clock_skew_factor, 5.0);
        assert!(inj.begin_tick(20.0).is_nominal());
    }

    #[test]
    fn new_kinds_activate_and_expire() {
        let p = FaultPlan::new(7).with(FaultKind::SacPoison, 5.0, 2.0).with(
            FaultKind::CheckpointCorrupt,
            10.0,
            3.0,
        );
        let mut inj = FaultInjector::new(p);
        assert!(!inj.begin_tick(4.0).sac_poison);
        assert!(inj.begin_tick(5.0).sac_poison);
        assert!(!inj.begin_tick(7.0).sac_poison);
        let t = inj.begin_tick(11.0);
        assert!(t.checkpoint_corrupt && !t.sac_poison);
        assert!(inj.begin_tick(13.0).is_nominal());
    }

    #[test]
    fn fault_storm_expands_into_correlated_effects() {
        let mut inj = FaultInjector::new(FaultPlan::new(9).with(
            FaultKind::FaultStorm { intensity: 0.5 },
            0.0,
            5.0,
        ));
        let t = inj.begin_tick(1.0);
        assert!(t.sampler_keep < 1.0);
        assert!(t.migration_bw_factor < 1.0);
        assert!(t.migration_fail_prob > 0.0);
        assert!(t.telemetry_noise_amp > 0.0);
        assert!(t.bandwidth_extra_util > 0.0);
        // Below the poison threshold: the storm degrades but does not poison.
        assert!(!t.sac_poison);
        // Storms never delay telemetry (the staleness ring is sized from
        // explicit TelemetryStale windows only).
        assert_eq!(t.telemetry_delay_ticks, 0);
        assert!(inj.begin_tick(6.0).is_nominal());

        let mut worst = FaultInjector::new(FaultPlan::new(9).with(
            FaultKind::FaultStorm { intensity: 1.0 },
            0.0,
            5.0,
        ));
        let t = worst.begin_tick(0.0);
        assert!(t.sac_poison, "a full-intensity storm poisons the actor");
        assert_eq!(t.migration_bw_factor, 1.0 - 0.8);
    }
}
