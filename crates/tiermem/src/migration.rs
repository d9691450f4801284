//! Bandwidth-limited page migration budget.
//!
//! Tiered-memory reconfiguration is constrained by memory bandwidth: the
//! paper bounds the per-interval change in any partition by Eq. (1),
//! `α ∈ [−M/2t, +M/2t]`, where `M` is the data-movement capacity in
//! bytes/second and `t` the policy interval — the factor 2 reflecting that
//! an *exchange* moves data in both directions simultaneously. Within an
//! interval, PP-E further divides work into time slices of at most
//! `p_max` pages each (Algorithm 3).
//!
//! [`MigrationEngine`] owns those numbers and meters actual page moves so
//! that the §5.5 overhead experiment can report consumed bandwidth.

use mtat_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::TierMemError;

/// Bandwidth model and accounting for page migrations.
///
/// ```
/// use mtat_tiermem::migration::MigrationEngine;
/// use mtat_tiermem::{GIB, MIB};
///
/// # fn main() -> Result<(), mtat_tiermem::TierMemError> {
/// // 4 GB/s of migration bandwidth, 2 MiB pages, 60 s policy intervals.
/// let mut eng = MigrationEngine::new(4.0 * GIB as f64, 2 * MIB, 60.0)?;
///
/// // Eq. (1): at most M·t/2 bytes may shift between partitions per interval.
/// assert_eq!(eng.max_exchange_bytes_per_interval(), 120 * GIB);
///
/// // Meter a tick's worth of movement.
/// eng.begin_tick(1.0);
/// let moved = eng.try_consume_pages(100);
/// assert_eq!(moved, 100);
/// assert!(eng.bytes_moved_this_tick() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MigrationEngine {
    bandwidth_bytes_per_sec: f64,
    page_size: u64,
    interval_secs: f64,
    tick_budget_pages: u64,
    tick_used_pages: u64,
    total_pages_moved: u64,
    total_busy_secs: f64,
    current_tick_secs: f64,
    /// Fault hook: bandwidth multiplier for the current tick
    /// (1.0 nominal, 0.0 stalled). Applied when the tick begins.
    fault_bw_factor: f64,
    /// Fault hook: per-page transient failure probability. A failed
    /// move consumes budget and busy time (the copy was attempted) but
    /// the page does not change tier.
    fault_fail_prob: f64,
    /// Seeded stream for per-move failure draws; `None` until
    /// [`MigrationEngine::set_fault_seed`] is called. The runner seeds
    /// every engine, fault-free runs included; a zero `fault_fail_prob`
    /// never draws from it.
    fault_rng: Option<StdRng>,
    /// Page moves that transiently failed (injected faults), total.
    failed_moves: u64,
    /// Page moves re-driven by enforcement after a failure or
    /// throttle, total (credited by [`MigrationEngine::note_retried`]).
    retried_moves: u64,
    /// Failures in the most recent `try_consume_pages` call, so the
    /// caller can tell fault losses apart from budget exhaustion.
    failed_last_call: u64,
    /// Telemetry handle (disabled by default). Never serialized and
    /// never consulted for decisions — metering only.
    #[serde(skip)]
    obs: Obs,
}

impl MigrationEngine {
    /// Creates a migration engine.
    ///
    /// * `bandwidth_bytes_per_sec` — the maximum data-movement capacity
    ///   `M` of the tiered memory subsystem (the paper measures ~4 GB/s
    ///   consumed out of a 25.6 GB/s single-channel module).
    /// * `page_size` — bytes per page.
    /// * `interval_secs` — the partitioning policy interval `t`.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if the bandwidth or interval
    /// is not strictly positive and finite, or the page size is zero.
    pub fn new(
        bandwidth_bytes_per_sec: f64,
        page_size: u64,
        interval_secs: f64,
    ) -> Result<Self, TierMemError> {
        if !(bandwidth_bytes_per_sec.is_finite() && bandwidth_bytes_per_sec > 0.0) {
            return Err(TierMemError::InvalidConfig {
                what: "bandwidth_bytes_per_sec",
                detail: format!("must be positive and finite, got {bandwidth_bytes_per_sec}"),
            });
        }
        if page_size == 0 {
            return Err(TierMemError::InvalidConfig {
                what: "page_size",
                detail: "must be nonzero".to_string(),
            });
        }
        if !(interval_secs.is_finite() && interval_secs > 0.0) {
            return Err(TierMemError::InvalidConfig {
                what: "interval_secs",
                detail: format!("must be positive and finite, got {interval_secs}"),
            });
        }
        Ok(Self {
            bandwidth_bytes_per_sec,
            page_size,
            interval_secs,
            tick_budget_pages: 0,
            tick_used_pages: 0,
            total_pages_moved: 0,
            total_busy_secs: 0.0,
            current_tick_secs: 0.0,
            fault_bw_factor: 1.0,
            fault_fail_prob: 0.0,
            fault_rng: None,
            failed_moves: 0,
            retried_moves: 0,
            failed_last_call: 0,
            obs: Obs::disabled(),
        })
    }

    /// Attaches a telemetry handle; page grants, transient failures,
    /// and retry credits are counted through it. Budget arithmetic and
    /// the fault RNG stream are unaffected.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Seeds the per-move failure stream (fault injection only). Without
    /// this call the engine never fails a granted move, whatever
    /// `fail_prob` says; with it, a zero `fail_prob` never draws.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = Some(StdRng::seed_from_u64(seed ^ 0x4D16));
    }

    /// Fault-injection hook (see [`crate::faults`]): scales the next
    /// tick's bandwidth by `bw_factor` (0 = stalled) and fails each
    /// granted page move with probability `fail_prob`. Call with
    /// `(1.0, 0.0)` to restore nominal behavior. Takes effect at the
    /// next [`MigrationEngine::begin_tick`].
    pub fn set_tick_faults(&mut self, bw_factor: f64, fail_prob: f64) {
        self.fault_bw_factor = bw_factor.clamp(0.0, 1.0);
        self.fault_fail_prob = fail_prob.clamp(0.0, 1.0);
    }

    /// The data-movement capacity `M` in bytes/second.
    #[inline]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// The policy interval `t` in seconds.
    #[inline]
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Eq. (1) bound: the maximum net partition change per interval,
    /// `M·t/2` bytes (data moves both ways during an exchange).
    #[inline]
    pub fn max_exchange_bytes_per_interval(&self) -> u64 {
        (self.bandwidth_bytes_per_sec * self.interval_secs / 2.0) as u64
    }

    /// Eq. (1) bound in pages.
    #[inline]
    pub fn max_exchange_pages_per_interval(&self) -> u64 {
        self.max_exchange_bytes_per_interval() / self.page_size
    }

    /// The per-time-slice cap `p_max` of Algorithm 3, for a slice of
    /// `slice_secs`: how many pages can physically move in one slice.
    #[inline]
    pub fn p_max(&self, slice_secs: f64) -> u64 {
        ((self.bandwidth_bytes_per_sec * slice_secs) / self.page_size as f64).floor() as u64
    }

    /// Clamps a desired net FMem change (in bytes, either sign) to the
    /// Eq. (1) action range `[−M·t/2, +M·t/2]`.
    #[inline]
    pub fn clamp_action_bytes(&self, desired_bytes: f64) -> f64 {
        let bound = self.max_exchange_bytes_per_interval() as f64;
        desired_bytes.clamp(-bound, bound)
    }

    /// Starts a new simulation tick of `tick_secs`; resets the per-tick
    /// page budget to what the bandwidth allows in that time.
    pub fn begin_tick(&mut self, tick_secs: f64) {
        self.current_tick_secs = tick_secs.max(0.0);
        let nominal = self.p_max(self.current_tick_secs);
        self.tick_budget_pages = if self.fault_bw_factor >= 1.0 {
            nominal
        } else {
            (nominal as f64 * self.fault_bw_factor).floor() as u64
        };
        self.tick_used_pages = 0;
        self.failed_last_call = 0;
    }

    /// Pages still movable in the current tick.
    #[inline]
    pub fn remaining_tick_pages(&self) -> u64 {
        self.tick_budget_pages - self.tick_used_pages
    }

    /// Attempts to consume budget for `pages` page moves; returns how
    /// many *completed* (possibly fewer, never more). A shortfall can
    /// mean budget exhaustion or, under fault injection, transient
    /// per-move failures — [`MigrationEngine::failed_in_last_call`]
    /// reports the fault share so callers can defer and retry exactly
    /// those.
    pub fn try_consume_pages(&mut self, pages: u64) -> u64 {
        // Anchored to the enclosing PP-E phase's sim time (the engine
        // has no clock of its own).
        let _span = self.obs.span_here("migrate");
        let granted = pages.min(self.remaining_tick_pages());
        self.tick_used_pages += granted;
        self.total_busy_secs +=
            granted as f64 * self.page_size as f64 / self.bandwidth_bytes_per_sec;
        let failed = self.draw_failures(granted);
        self.failed_last_call = failed;
        self.failed_moves += failed;
        let completed = granted - failed;
        self.total_pages_moved += completed;
        if self.obs.is_enabled() {
            self.obs.count("tiermem.migration.requested_pages", pages);
            self.obs.count("tiermem.migration.granted_pages", granted);
            self.obs.count("tiermem.migration.failed_pages", failed);
            self.obs
                .count("tiermem.migration.denied_pages", pages - granted);
        }
        completed
    }

    /// Draws how many of `granted` moves transiently fail this call.
    fn draw_failures(&mut self, granted: u64) -> u64 {
        if self.fault_fail_prob <= 0.0 || granted == 0 {
            return 0;
        }
        match &mut self.fault_rng {
            None => 0,
            Some(rng) => (0..granted)
                .filter(|_| rng.gen::<f64>() < self.fault_fail_prob)
                .count() as u64,
        }
    }

    /// Page-move failures in the most recent
    /// [`MigrationEngine::try_consume_pages`] call (0 without faults).
    #[inline]
    pub fn failed_in_last_call(&self) -> u64 {
        self.failed_last_call
    }

    /// Whether a granted move can currently fail (fault injection armed
    /// with a nonzero per-move failure probability). When this is
    /// `false`, `try_consume_pages(k)` deterministically grants
    /// `min(k, remaining)` and completes every granted page — so a
    /// caller may replace a sequence of consume calls with one call for
    /// the batch total and get bit-identical engine state. When `true`,
    /// callers must keep the per-call cadence: the failure stream draws
    /// one RNG sample per granted page *per call*, and the call
    /// boundaries are observable through
    /// [`MigrationEngine::failed_in_last_call`].
    #[inline]
    pub fn may_fail(&self) -> bool {
        self.fault_fail_prob > 0.0 && self.fault_rng.is_some()
    }

    /// Total page moves that transiently failed since construction.
    #[inline]
    pub fn failed_moves(&self) -> u64 {
        self.failed_moves
    }

    /// Total page moves re-driven after failure/throttle deferral.
    #[inline]
    pub fn retried_moves(&self) -> u64 {
        self.retried_moves
    }

    /// Credits `pages` retried moves (called by enforcement when it
    /// re-drives deferred work).
    pub fn note_retried(&mut self, pages: u64) {
        self.retried_moves += pages;
        self.obs.count("tiermem.migration.retried_pages", pages);
    }

    /// Bytes moved during the current tick so far.
    #[inline]
    pub fn bytes_moved_this_tick(&self) -> u64 {
        self.tick_used_pages * self.page_size
    }

    /// Average migration bandwidth consumed during the current tick
    /// (bytes/second); 0 for a zero-length tick.
    pub fn tick_bandwidth_bytes_per_sec(&self) -> f64 {
        if self.current_tick_secs <= 0.0 {
            0.0
        } else {
            self.bytes_moved_this_tick() as f64 / self.current_tick_secs
        }
    }

    /// Total pages moved since construction (for §5.5 overhead reporting).
    #[inline]
    pub fn total_pages_moved(&self) -> u64 {
        self.total_pages_moved
    }

    /// Total bytes moved since construction.
    #[inline]
    pub fn total_bytes_moved(&self) -> u64 {
        self.total_pages_moved * self.page_size
    }

    /// Total seconds the migration path was busy since construction.
    #[inline]
    pub fn total_busy_secs(&self) -> f64 {
        self.total_busy_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GIB, MIB};

    fn engine() -> MigrationEngine {
        MigrationEngine::new(4.0 * GIB as f64, 2 * MIB, 60.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(MigrationEngine::new(0.0, MIB, 1.0).is_err());
        assert!(MigrationEngine::new(-1.0, MIB, 1.0).is_err());
        assert!(MigrationEngine::new(f64::NAN, MIB, 1.0).is_err());
        assert!(MigrationEngine::new(1.0, 0, 1.0).is_err());
        assert!(MigrationEngine::new(1.0, MIB, 0.0).is_err());
        assert!(MigrationEngine::new(1.0, MIB, f64::INFINITY).is_err());
    }

    #[test]
    fn eq1_bound() {
        let e = engine();
        // 4 GiB/s * 60 s / 2 = 120 GiB.
        assert_eq!(e.max_exchange_bytes_per_interval(), 120 * GIB);
        assert_eq!(e.max_exchange_pages_per_interval(), 120 * GIB / (2 * MIB));
    }

    #[test]
    fn clamp_action() {
        let e = engine();
        let bound = 120.0 * GIB as f64;
        assert_eq!(e.clamp_action_bytes(bound * 2.0), bound);
        assert_eq!(e.clamp_action_bytes(-bound * 2.0), -bound);
        assert_eq!(e.clamp_action_bytes(1.0), 1.0);
    }

    #[test]
    fn p_max_scales_with_slice() {
        let e = engine();
        // 4 GiB/s over 1 s = 2048 pages of 2 MiB.
        assert_eq!(e.p_max(1.0), 2048);
        assert_eq!(e.p_max(0.5), 1024);
        assert_eq!(e.p_max(0.0), 0);
    }

    #[test]
    fn tick_budget_is_enforced() {
        let mut e = engine();
        e.begin_tick(1.0);
        assert_eq!(e.remaining_tick_pages(), 2048);
        assert_eq!(e.try_consume_pages(2000), 2000);
        assert_eq!(e.try_consume_pages(100), 48); // only 48 left
        assert_eq!(e.try_consume_pages(1), 0);
        assert_eq!(e.bytes_moved_this_tick(), 2048 * 2 * MIB);
        // Next tick resets.
        e.begin_tick(1.0);
        assert_eq!(e.remaining_tick_pages(), 2048);
        assert_eq!(e.total_pages_moved(), 2048);
    }

    #[test]
    fn throttle_shrinks_budget_and_stall_zeroes_it() {
        let mut e = engine();
        e.set_tick_faults(0.25, 0.0);
        e.begin_tick(1.0);
        assert_eq!(e.remaining_tick_pages(), 512); // 2048 * 0.25
        e.set_tick_faults(0.0, 0.0);
        e.begin_tick(1.0);
        assert_eq!(e.remaining_tick_pages(), 0);
        assert_eq!(e.try_consume_pages(10), 0);
        // Clearing the fault restores the nominal budget.
        e.set_tick_faults(1.0, 0.0);
        e.begin_tick(1.0);
        assert_eq!(e.remaining_tick_pages(), 2048);
    }

    #[test]
    fn flaky_moves_fail_some_and_are_counted() {
        let mut e = engine();
        e.set_fault_seed(42);
        e.set_tick_faults(1.0, 0.5);
        e.begin_tick(1.0);
        let completed = e.try_consume_pages(2000);
        let failed = e.failed_in_last_call();
        assert_eq!(completed + failed, 2000);
        assert!(failed > 800 && failed < 1200, "failed {failed}");
        assert_eq!(e.failed_moves(), failed);
        // Failures consumed budget (the copy was attempted)...
        assert_eq!(e.bytes_moved_this_tick(), 2000 * 2 * MIB);
        // ...but only completed moves count as moved pages.
        assert_eq!(e.total_pages_moved(), completed);
        e.note_retried(failed);
        assert_eq!(e.retried_moves(), failed);
    }

    #[test]
    fn fail_prob_without_seed_is_inert() {
        let mut e = engine();
        e.set_tick_faults(1.0, 0.9);
        e.begin_tick(1.0);
        assert_eq!(e.try_consume_pages(100), 100);
        assert_eq!(e.failed_in_last_call(), 0);
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut e = engine();
            e.set_fault_seed(seed);
            e.set_tick_faults(1.0, 0.3);
            let mut out = Vec::new();
            for _ in 0..10 {
                e.begin_tick(1.0);
                out.push(e.try_consume_pages(500));
            }
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bandwidth_accounting() {
        let mut e = engine();
        e.begin_tick(1.0);
        e.try_consume_pages(1024); // 2 GiB in 1 s
        let bw = e.tick_bandwidth_bytes_per_sec();
        assert!((bw - 2.0 * GIB as f64).abs() < 1.0);
        assert!((e.total_busy_secs() - 0.5).abs() < 1e-9);
        assert_eq!(e.total_bytes_moved(), 2 * GIB);
    }
}
