//! Control-plane hardening against hostile workload dynamics.
//!
//! The self-healing subsystem ([`crate::health`]) defends against
//! *component* failures; this module defends the control loop against
//! *adversarial workloads* ([`mtat_workloads::scenario`]) — the regime
//! where Jenga shows watermark policies collapse into migration
//! thrashing and MaxMem shows colocation falls apart under antagonistic
//! neighbors. Three guards, each independently toggleable through
//! [`HardeningCfg`] so the `Hardened` vs `Naive` ablation arms of the
//! adversarial matrix isolate what each one buys:
//!
//! * [`ThrashCfg`] — a **thrash detector** over per-workload migration
//!   ping-pong. Net residency is blind to a perfect promote↔demote
//!   cycle, so the signal is built from the cumulative per-direction
//!   [`MigrationFlow`] counters, and it watches both thrash shapes the
//!   simulator can produce: the *within-interval* reversal ratio
//!   `2·min(p,d)/(p+d)` (refinement ping-pong) and the
//!   *across-interval* net-flow sign flip
//!   (partition-level slab ping-pong — Algorithm 3 promotes a slab one
//!   interval and demotes it the next, which the within-interval ratio
//!   cannot see because each interval's flow is one-directional). The
//!   volume-weighted maximum of the two, smoothed by an EWMA, drives a
//!   bounded **migration quarantine**: the plan is held and placement
//!   churn frozen (Jenga-style hysteresis). Because the quarantine
//!   suppresses the very flows the signal measures, the EWMA holds
//!   frozen while quarantined rather than decaying toward a false calm;
//!   liveness comes from the bound instead — every quarantine ends
//!   after `quarantine_intervals` and is followed by at least one
//!   unfrozen probation interval, so promotions are never permanently
//!   starved (property-tested under arbitrary reversal streams).
//! * [`PressureCfg`] — a **working-set-pressure guard**: a collapse of
//!   the mean BE hit ratio against its own EWMA baseline (the
//!   signature of a working-set blowup — suddenly uniform popularity
//!   makes the resident set buy a fraction of its old hits) throttles
//!   migration churn and escalates through the existing
//!   [`Supervisor`](crate::supervisor::Supervisor) ladder to the
//!   proportional controller, which does not chase mass that is about
//!   to vanish.
//! * [`LeakCfg`] — **leak-drift renormalization**: a slow, sustained
//!   downward drift of the BE hit ratio (leaked pages keep their RSS
//!   but stop being accessed, so the histograms carry stale popularity
//!   mass) triggers an extra histogram aging pass, renormalizing rank
//!   order toward the live mass.
//!
//! Guard state is deliberately **ephemeral**: it is sensor state over
//! the live run, excluded from PP-M checkpoints, and reset on cold
//! restart. All inputs are deterministic functions of the simulation,
//! so hardened runs replay bit-identically; with no [`HardeningCfg`]
//! installed, no guard code executes and behavior is bit-identical to
//! the pre-hardening policy.

use mtat_tiermem::memory::{MigrationFlow, TieredMemory};

use crate::policy::WorkloadObs;

/// Thrash-detector tuning. Defaults via [`ThrashCfg::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThrashCfg {
    /// EWMA smoothing factor for the reversal signal in (0, 1].
    pub ewma_alpha: f64,
    /// EWMA level that enters quarantine.
    pub trigger: f64,
    /// Level the EWMA re-arms at when a quarantine ends (hysteresis:
    /// `release` < `trigger`, so one calm probation interval stands
    /// the guard down while one thrashy probation interval climbs
    /// straight back over the trigger).
    pub release: f64,
    /// Maximum consecutive quarantined intervals before the forced
    /// probation interval (liveness bound: the frozen fraction of any
    /// window never exceeds `q / (q + 1)`).
    pub quarantine_intervals: u32,
    /// Total per-interval migration volume (pages, both directions)
    /// below which the reversal signal is attenuated — a dozen
    /// ping-ponged pages are noise, not thrash.
    pub min_volume_pages: u64,
}

impl Default for ThrashCfg {
    fn default() -> Self {
        Self {
            ewma_alpha: 0.45,
            trigger: 0.5,
            release: 0.2,
            quarantine_intervals: 8,
            min_volume_pages: 64,
        }
    }
}

/// Working-set-pressure guard tuning. Defaults via
/// [`PressureCfg::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct PressureCfg {
    /// EWMA smoothing factor for the BE hit-ratio baseline in (0, 1].
    pub baseline_alpha: f64,
    /// Collapse threshold: pressure triggers when the interval's mean
    /// BE hit ratio falls below `baseline · collapse_frac`.
    pub collapse_frac: f64,
    /// Intervals the throttle (and ladder escalation) holds after a
    /// trigger.
    pub hold_intervals: u32,
    /// Migration-churn throttle while pressure holds: per-slice pair
    /// caps and refinement appetite are right-shifted by this many
    /// bits (2 ⇒ quarter rate).
    pub throttle_shift: u32,
}

impl Default for PressureCfg {
    fn default() -> Self {
        Self {
            baseline_alpha: 0.3,
            collapse_frac: 0.6,
            hold_intervals: 3,
            throttle_shift: 2,
        }
    }
}

/// Leak-drift renormalization tuning. Defaults via
/// [`LeakCfg::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct LeakCfg {
    /// Decay factor applied to the drift accumulator each interval (a
    /// leaky integrator: slow sustained decline accumulates, one noisy
    /// interval washes out).
    pub decay: f64,
    /// Accumulated hit-ratio decline that triggers an extra histogram
    /// aging pass.
    pub trigger_drift: f64,
}

impl Default for LeakCfg {
    fn default() -> Self {
        Self {
            decay: 0.8,
            trigger_drift: 0.05,
        }
    }
}

/// Which guards run. Each is independent; [`HardeningCfg::hardened`]
/// enables all three with defaults — the `Hardened` arm of the
/// ablation. `Naive` is simply the absence of a `HardeningCfg`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HardeningCfg {
    /// Migration ping-pong detector + quarantine.
    pub thrash: Option<ThrashCfg>,
    /// Working-set blowup throttle + ladder escalation.
    pub pressure: Option<PressureCfg>,
    /// Stale-popularity renormalization.
    pub leak: Option<LeakCfg>,
}

impl HardeningCfg {
    /// All guards on, default tuning.
    pub fn hardened() -> Self {
        Self {
            thrash: Some(ThrashCfg::default()),
            pressure: Some(PressureCfg::default()),
            leak: Some(LeakCfg::default()),
        }
    }
}

/// What the guards decided at an interval boundary. The policy applies
/// these through its existing levers (PP-E freeze/throttle, supervisor
/// ladder, histogram aging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardActions {
    /// Thrash quarantine began this interval.
    pub quarantine_entered: bool,
    /// Thrash quarantine ended this interval (probation follows).
    pub quarantine_exited: bool,
    /// Working-set pressure triggered this interval: escalate the
    /// supervisor ladder to the proportional controller.
    pub escalate_pressure: bool,
    /// Leak drift crossed its threshold: run one extra histogram aging
    /// pass to renormalize stale popularity mass.
    pub extra_age: bool,
}

/// Lifetime guard-activity counters (telemetry and matrix assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Quarantines entered.
    pub quarantines: u32,
    /// Pressure escalations fired.
    pub pressure_events: u32,
    /// Extra aging passes applied.
    pub leak_renorms: u32,
}

/// Live guard state. One instance per policy; see the module docs for
/// the state machines.
#[derive(Debug, Clone)]
pub struct Hardening {
    cfg: HardeningCfg,
    /// Migration-flow snapshot at the previous interval boundary.
    last_flows: Vec<MigrationFlow>,
    /// Per-workload signed net flow (promoted − demoted) of the
    /// previous interval, for the across-interval sign-flip signal.
    last_net: Vec<f64>,
    thrash_ewma: f64,
    quarantined: bool,
    quarantine_left: u32,
    /// Forced-unfrozen probation intervals remaining after a
    /// quarantine (the liveness bound).
    cooldown_left: u32,
    /// EWMA baseline of the mean BE hit ratio.
    be_hit_baseline: Option<f64>,
    pressure_left: u32,
    leak_accum: f64,
    last_be_hit: Option<f64>,
    stats: GuardStats,
}

impl Hardening {
    /// Creates the guard state for a fresh run.
    pub fn new(cfg: HardeningCfg) -> Self {
        Self {
            cfg,
            last_flows: Vec::new(),
            last_net: Vec::new(),
            thrash_ewma: 0.0,
            quarantined: false,
            quarantine_left: 0,
            cooldown_left: 0,
            be_hit_baseline: None,
            pressure_left: 0,
            leak_accum: 0.0,
            last_be_hit: None,
            stats: GuardStats::default(),
        }
    }

    /// Resets all guard state (cold restart: the sensors' history died
    /// with the daemon).
    pub fn reset(&mut self) {
        let cfg = self.cfg.clone();
        *self = Self::new(cfg);
    }

    /// Whether placement churn is currently quarantined by the thrash
    /// guard.
    #[inline]
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// The migration-churn throttle shift PP-E should run at this
    /// interval (0 = nominal rate).
    #[inline]
    pub fn throttle_shift(&self) -> u32 {
        if self.pressure_left > 0 {
            self.cfg.pressure.as_ref().map_or(0, |p| p.throttle_shift)
        } else {
            0
        }
    }

    /// The smoothed reversal signal (diagnostics).
    #[inline]
    pub fn thrash_signal(&self) -> f64 {
        self.thrash_ewma
    }

    /// Lifetime guard-activity counters.
    #[inline]
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Advances every enabled guard one partitioning interval and
    /// returns the actions the policy must apply. Pure arithmetic over
    /// deterministic inputs — no RNG, no clock.
    pub fn on_interval(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) -> GuardActions {
        let mut actions = GuardActions::default();
        if self.cfg.thrash.is_some() {
            self.thrash_interval(mem, workloads, &mut actions);
        }
        let be_hit = mean_be_hit(workloads);
        if self.cfg.pressure.is_some() {
            self.pressure_interval(be_hit, &mut actions);
        }
        if self.cfg.leak.is_some() {
            self.leak_interval(be_hit, &mut actions);
        }
        actions
    }

    /// Thrash detector: volume-weighted reversal signal (within- and
    /// across-interval), EWMA-smoothed, driving the quarantine state
    /// machine.
    fn thrash_interval(
        &mut self,
        mem: &TieredMemory,
        workloads: &[WorkloadObs],
        actions: &mut GuardActions,
    ) {
        let cfg = self.cfg.thrash.as_ref().expect("guard enabled");
        self.last_flows
            .resize(workloads.len(), MigrationFlow::default());
        self.last_net.resize(workloads.len(), 0.0);
        let floor = cfg.min_volume_pages.max(1) as f64;
        let mut weighted = 0.0f64;
        let mut total_vol = 0u64;
        for (i, (o, last)) in workloads.iter().zip(self.last_flows.iter_mut()).enumerate() {
            let flow = mem.migration_flow(o.id);
            let p = flow.promoted - last.promoted;
            let d = flow.demoted - last.demoted;
            *last = flow;
            let vol = p + d;
            let net = p as f64 - d as f64;
            let prev_net = self.last_net[i];
            self.last_net[i] = net;
            if vol == 0 {
                continue;
            }
            // Within-interval: 1.0 when promotions and demotions
            // balance (refinement ping-pong), 0.0 when the interval's
            // flow is one-directional.
            let mut reversal = 2.0 * p.min(d) as f64 / vol as f64;
            // Across-interval: partition-level slab ping-pong promotes
            // one interval and demotes the next, so each interval looks
            // one-directional on its own — the tell is the signed net
            // flow flipping sign at comparable magnitude.
            if net * prev_net < 0.0 && net.abs() >= floor && prev_net.abs() >= floor {
                let flip = 2.0 * net.abs().min(prev_net.abs()) / (net.abs() + prev_net.abs());
                reversal = reversal.max(flip);
            }
            weighted += reversal * vol as f64;
            total_vol += vol;
        }
        let signal = if total_vol == 0 {
            0.0
        } else {
            // Attenuate below the volume floor: reversal ratios over a
            // handful of pages are sampling noise.
            let vol_scale = (total_vol as f64 / floor).min(1.0);
            (weighted / total_vol as f64) * vol_scale
        };

        if self.quarantined {
            // The quarantine suppresses the very flows the signal
            // measures, so the EWMA holds frozen here — updating it
            // from suppressed readings would always read "calm" and
            // defeat the hysteresis. Liveness is the bound itself.
            self.quarantine_left = self.quarantine_left.saturating_sub(1);
            if self.quarantine_left == 0 {
                self.quarantined = false;
                // Re-arm at `release`: one calm probation interval
                // stands the guard down, one thrashy probation
                // interval climbs straight back over the trigger.
                self.thrash_ewma = cfg.release;
                // Liveness: at least one unfrozen interval before the
                // guard may re-trigger, no matter what the signal does.
                self.cooldown_left = 1;
                actions.quarantine_exited = true;
            }
            return;
        }
        self.thrash_ewma += cfg.ewma_alpha * (signal - self.thrash_ewma);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        } else if self.thrash_ewma > cfg.trigger {
            self.quarantined = true;
            self.quarantine_left = cfg.quarantine_intervals.max(1);
            self.stats.quarantines += 1;
            actions.quarantine_entered = true;
        }
    }

    /// Pressure guard: hit-ratio collapse against the EWMA baseline.
    fn pressure_interval(&mut self, be_hit: Option<f64>, actions: &mut GuardActions) {
        let cfg = self.cfg.pressure.as_ref().expect("guard enabled");
        let Some(cur) = be_hit else { return };
        match self.be_hit_baseline {
            None => self.be_hit_baseline = Some(cur),
            Some(base) => {
                let collapsed = base > 0.05 && cur < base * cfg.collapse_frac;
                if collapsed {
                    if self.pressure_left == 0 {
                        self.stats.pressure_events += 1;
                        actions.escalate_pressure = true;
                    }
                    self.pressure_left = cfg.hold_intervals.max(1);
                    // Track the collapsed regime only slowly: if the
                    // blowup is transient the baseline must still
                    // remember the pre-blowup normal; if it is the new
                    // permanent regime the guard adapts and stands
                    // down within a few tens of intervals.
                    self.be_hit_baseline = Some(base + cfg.baseline_alpha * 0.25 * (cur - base));
                } else {
                    self.pressure_left = self.pressure_left.saturating_sub(1);
                    self.be_hit_baseline = Some(base + cfg.baseline_alpha * (cur - base));
                }
            }
        }
    }

    /// Leak guard: leaky integrator over sustained hit-ratio decline.
    fn leak_interval(&mut self, be_hit: Option<f64>, actions: &mut GuardActions) {
        let cfg = self.cfg.leak.as_ref().expect("guard enabled");
        let Some(cur) = be_hit else { return };
        if let Some(last) = self.last_be_hit {
            let decline = (last - cur).max(0.0);
            self.leak_accum = self.leak_accum * cfg.decay + decline;
            if self.leak_accum > cfg.trigger_drift {
                self.leak_accum = 0.0;
                self.stats.leak_renorms += 1;
                actions.extra_age = true;
            }
        }
        self.last_be_hit = Some(cur);
    }
}

/// Mean hit ratio over the BE workloads (`None` with no BEs).
fn mean_be_hit(workloads: &[WorkloadObs]) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u32;
    for o in workloads {
        if !o.is_lc() {
            sum += o.hit_ratio;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{WorkloadClass, WorkloadObs};
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
    use mtat_tiermem::page::Tier;
    use mtat_tiermem::PageId;
    use proptest::prelude::*;

    fn setup(n_workloads: usize) -> (TieredMemory, Vec<WorkloadObs>) {
        let spec = MemorySpec::new(2048 * 4096, 16384 * 4096, 4096).unwrap();
        let mut mem = TieredMemory::new(spec);
        let mut obs = Vec::new();
        for i in 0..n_workloads {
            let id = mem
                .register_workload(4096 * 4096, InitialPlacement::AllSmem)
                .unwrap();
            obs.push(WorkloadObs {
                id,
                class: if i == 0 {
                    WorkloadClass::Lc
                } else {
                    WorkloadClass::Be
                },
                name: format!("w{i}"),
                rss_bytes: 4096 * 4096,
                cores: 1,
                load_rps: 0.0,
                p99_secs: 0.0,
                slo_secs: 1.0,
                hit_ratio: 0.5,
                access_rate: 0.0,
                throughput: 0.0,
                sampled: vec![0; 32],
                touched: Default::default(),
                slo_violated: false,
            });
        }
        (mem, obs)
    }

    /// Drives `pages` promote↔demote round trips on workload 1.
    fn ping_pong(mem: &mut TieredMemory, obs: &[WorkloadObs], pages: usize) {
        let base = mem.region(obs[1].id).base;
        for r in 0..pages {
            let p = PageId(base + r as u32);
            mem.migrate(p, Tier::FMem).unwrap();
            mem.migrate(p, Tier::SMem).unwrap();
        }
    }

    #[test]
    fn thrash_quarantines_and_releases_with_hysteresis() {
        let (mut mem, obs) = setup(3);
        let mut h = Hardening::new(HardeningCfg {
            thrash: Some(ThrashCfg::default()),
            pressure: None,
            leak: None,
        });
        // Sustained heavy ping-pong: the EWMA climbs past the trigger.
        // Stop the assault once quarantined (in the real loop the freeze
        // itself suppresses the refinement churn that drives it).
        let mut entered = false;
        for _ in 0..6 {
            ping_pong(&mut mem, &obs, 200);
            let a = h.on_interval(&mem, &obs);
            entered |= a.quarantine_entered;
            if entered {
                break;
            }
        }
        assert!(entered, "heavy ping-pong must enter quarantine");
        // Quiet intervals: the EWMA decays below release and the guard
        // exits, then stays out.
        let mut exited = false;
        for _ in 0..8 {
            let a = h.on_interval(&mem, &obs);
            exited |= a.quarantine_exited;
        }
        assert!(exited && !h.quarantined());
        assert_eq!(h.stats().quarantines, 1);
    }

    /// Partition-level slab ping-pong: every interval's flow is
    /// one-directional (invisible to the within-interval ratio), but
    /// the direction alternates — the across-interval sign-flip signal
    /// must catch it.
    #[test]
    fn alternating_slab_flow_is_thrash() {
        let (mut mem, obs) = setup(3);
        let mut h = Hardening::new(HardeningCfg {
            thrash: Some(ThrashCfg::default()),
            pressure: None,
            leak: None,
        });
        let base = mem.region(obs[1].id).base;
        let mut entered = false;
        for round in 0..8 {
            let to = if round % 2 == 0 {
                Tier::FMem
            } else {
                Tier::SMem
            };
            // A 300-page slab promoted whole one interval, demoted
            // whole the next.
            for r in 0..300u32 {
                let p = PageId(base + r);
                if mem.tier_of(p).unwrap() != to {
                    mem.migrate(p, to).unwrap();
                }
            }
            entered |= h.on_interval(&mem, &obs).quarantine_entered;
            if entered {
                break;
            }
        }
        assert!(entered, "alternating slab flow must enter quarantine");
    }

    #[test]
    fn one_directional_flow_is_not_thrash() {
        let (mut mem, obs) = setup(3);
        let mut h = Hardening::new(HardeningCfg {
            thrash: Some(ThrashCfg::default()),
            pressure: None,
            leak: None,
        });
        let base = mem.region(obs[1].id).base;
        for round in 0..6 {
            // 200 promotions per interval, zero demotions.
            for r in 0..200usize {
                let p = PageId(base + ((round * 200 + r) % 4000) as u32);
                if mem.tier_of(p).unwrap() == Tier::SMem {
                    mem.migrate(p, Tier::FMem).ok();
                }
            }
            let a = h.on_interval(&mem, &obs);
            assert!(!a.quarantine_entered, "honest adjustment is not thrash");
        }
        assert!(h.thrash_signal() < 0.1);
    }

    #[test]
    fn pressure_escalates_on_hit_collapse_and_recovers() {
        let (mem, mut obs) = setup(3);
        let mut h = Hardening::new(HardeningCfg {
            thrash: None,
            pressure: Some(PressureCfg::default()),
            leak: None,
        });
        // Stable baseline.
        for _ in 0..5 {
            let a = h.on_interval(&mem, &obs);
            assert!(!a.escalate_pressure);
            assert_eq!(h.throttle_shift(), 0);
        }
        // Blowup: BE hit ratio collapses to a fifth.
        for o in obs.iter_mut().filter(|o| !o.is_lc()) {
            o.hit_ratio = 0.1;
        }
        let a = h.on_interval(&mem, &obs);
        assert!(a.escalate_pressure);
        assert!(h.throttle_shift() > 0);
        // Recovery: hit ratio returns, throttle drains off.
        for o in obs.iter_mut().filter(|o| !o.is_lc()) {
            o.hit_ratio = 0.5;
        }
        for _ in 0..PressureCfg::default().hold_intervals + 1 {
            h.on_interval(&mem, &obs);
        }
        assert_eq!(h.throttle_shift(), 0);
    }

    #[test]
    fn leak_drift_triggers_renormalization() {
        let (mem, mut obs) = setup(3);
        let mut h = Hardening::new(HardeningCfg {
            thrash: None,
            pressure: None,
            leak: Some(LeakCfg::default()),
        });
        // Slow sustained decline: 2% of hit ratio per interval.
        let mut renorms = 0;
        for i in 0..20 {
            for o in obs.iter_mut().filter(|o| !o.is_lc()) {
                o.hit_ratio = 0.6 - 0.02 * i as f64;
            }
            if h.on_interval(&mem, &obs).extra_age {
                renorms += 1;
            }
        }
        assert!(renorms >= 1, "sustained drift must renormalize");
        // A stable ratio never triggers.
        let mut h2 = Hardening::new(HardeningCfg {
            thrash: None,
            pressure: None,
            leak: Some(LeakCfg::default()),
        });
        for _ in 0..20 {
            assert!(!h2.on_interval(&mem, &obs).extra_age);
        }
    }

    proptest! {
        /// Satellite: quarantine liveness. Under ARBITRARY per-interval
        /// promote/demote streams, the guard never freezes placement
        /// for more than `quarantine_intervals` consecutive intervals —
        /// promotions are never permanently starved.
        #[test]
        fn quarantine_never_starves_promotions(
            rounds in proptest::collection::vec((0u64..400, 0u64..400), 1..60)
        ) {
            let (mut mem, obs) = setup(2);
            let cfg = ThrashCfg::default();
            let q = cfg.quarantine_intervals as usize;
            let mut h = Hardening::new(HardeningCfg {
                thrash: Some(cfg),
                pressure: None,
                leak: None,
            });
            let base = mem.region(obs[1].id).base;
            let mut consecutive = 0usize;
            for &(p, d) in &rounds {
                // Synthesize p promotions and d demotions by round
                // trips (a promote immediately undone is one of each).
                let both = p.min(d);
                for r in 0..both {
                    let page = PageId(base + (r % 4000) as u32);
                    if mem.tier_of(page).unwrap() == Tier::SMem {
                        mem.migrate(page, Tier::FMem).ok();
                        mem.migrate(page, Tier::SMem).ok();
                    }
                }
                h.on_interval(&mem, &obs);
                if h.quarantined() {
                    consecutive += 1;
                    prop_assert!(
                        consecutive <= q,
                        "frozen {consecutive} consecutive intervals (cap {q})"
                    );
                } else {
                    consecutive = 0;
                }
            }
        }
    }
}
