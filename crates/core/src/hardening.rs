//! Control-plane hardening against hostile workload dynamics.
//!
//! The self-healing subsystem ([`crate::health`]) defends against
//! *component* failures; this module defends the control loop against
//! *adversarial workloads* ([`mtat_workloads::scenario`]) — the regime
//! where Jenga shows watermark policies collapse into migration
//! thrashing and MaxMem shows colocation falls apart under antagonistic
//! neighbors. Three guards run together in the `Hardened` arm of the
//! adversarial matrix; the `Naive` arm runs none:
//!
//! * a **thrash detector** over per-workload migration ping-pong. Net
//!   residency is blind to a perfect promote↔demote cycle, so the
//!   signal is built from the cumulative per-direction
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
//!   after `QUARANTINE_INTERVALS` and is followed by at least one
//!   unfrozen probation interval, so promotions are never permanently
//!   starved (property-tested under arbitrary reversal streams).
//! * a **working-set-pressure guard**: a collapse of the mean BE hit
//!   ratio against its own EWMA baseline (the signature of a working-set
//!   blowup — suddenly uniform popularity makes the resident set buy a
//!   fraction of its old hits) throttles migration churn and escalates
//!   through the existing [`Supervisor`](crate::supervisor::Supervisor)
//!   ladder to the proportional controller, which does not chase mass
//!   that is about to vanish.
//! * **leak-drift renormalization**: a slow, sustained downward drift of
//!   the BE hit ratio (leaked pages keep their RSS but stop being
//!   accessed, so the histograms carry stale popularity mass) triggers
//!   an extra histogram aging pass, renormalizing rank order toward the
//!   live mass.
//!
//! Guard state is deliberately **ephemeral**: it is sensor state over
//! the live run, excluded from PP-M checkpoints, and reset on cold
//! restart. All inputs are deterministic functions of the simulation,
//! so hardened runs replay bit-identically; an unhardened policy holds
//! no [`Hardening`], so no guard code executes and behavior is
//! bit-identical to the pre-hardening policy.

use mtat_tiermem::memory::{MigrationFlow, TieredMemory};

use crate::policy::WorkloadObs;

/// Thrash detector: EWMA smoothing factor of the reversal signal.
const THRASH_EWMA_ALPHA: f64 = 0.45;
/// Thrash detector: EWMA level that enters quarantine.
const THRASH_TRIGGER: f64 = 0.5;
/// Thrash detector: level the EWMA re-arms at when a quarantine ends
/// (hysteresis: below [`THRASH_TRIGGER`], so one calm probation interval
/// stands the guard down while one thrashy probation interval climbs
/// straight back over the trigger).
const THRASH_RELEASE: f64 = 0.2;
/// Thrash detector: maximum consecutive quarantined intervals before the
/// forced probation interval (liveness bound: the frozen fraction of any
/// window never exceeds `q / (q + 1)`).
const QUARANTINE_INTERVALS: u32 = 8;
/// Thrash detector: total per-interval migration volume (pages, both
/// directions) below which the reversal signal is attenuated — a dozen
/// ping-ponged pages are noise, not thrash.
const MIN_VOLUME_PAGES: u64 = 64;
/// Pressure guard: EWMA smoothing factor of the BE hit-ratio baseline.
const PRESSURE_BASELINE_ALPHA: f64 = 0.3;
/// Pressure guard: triggers when the interval's mean BE hit ratio falls
/// below `baseline · COLLAPSE_FRAC`.
const COLLAPSE_FRAC: f64 = 0.6;
/// Pressure guard: intervals the throttle (and ladder escalation) holds
/// after a trigger.
const PRESSURE_HOLD_INTERVALS: u32 = 3;
/// Pressure guard: per-slice pair caps and refinement appetite are
/// right-shifted by this many bits while pressure holds (quarter rate).
const THROTTLE_SHIFT: u32 = 2;
/// Leak guard: decay applied to the drift accumulator each interval (a
/// leaky integrator: slow sustained decline accumulates, one noisy
/// interval washes out).
const LEAK_DECAY: f64 = 0.8;
/// Leak guard: accumulated hit-ratio decline that triggers an extra
/// histogram aging pass.
const LEAK_TRIGGER_DRIFT: f64 = 0.05;

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
/// the state machines. The default is the state of a fresh run.
#[derive(Debug, Clone, Default)]
pub struct Hardening {
    /// Migration-flow snapshot at the previous interval boundary.
    last_flows: Vec<MigrationFlow>,
    /// Per-workload signed net flow (promoted − demoted) of the
    /// previous interval, for the across-interval sign-flip signal.
    last_net: Vec<f64>,
    thrash_ewma: f64,
    /// Quarantined intervals remaining; nonzero exactly while the
    /// thrash guard holds placement churn in quarantine.
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
    /// Whether placement churn is currently quarantined by the thrash
    /// guard.
    #[inline]
    pub fn quarantined(&self) -> bool {
        self.quarantine_left > 0
    }

    /// The migration-churn throttle shift PP-E should run at this
    /// interval (0 = nominal rate).
    #[inline]
    pub fn throttle_shift(&self) -> u32 {
        if self.pressure_left > 0 {
            THROTTLE_SHIFT
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

    /// Advances every guard one partitioning interval and returns the
    /// actions the policy must apply. Pure arithmetic over deterministic
    /// inputs — no RNG, no clock.
    pub fn on_interval(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) -> GuardActions {
        let mut actions = GuardActions::default();
        self.thrash_interval(mem, workloads, &mut actions);
        let be_hit = mean_be_hit(workloads);
        self.pressure_interval(be_hit, &mut actions);
        self.leak_interval(be_hit, &mut actions);
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
        self.last_flows
            .resize(workloads.len(), MigrationFlow::default());
        self.last_net.resize(workloads.len(), 0.0);
        let floor = MIN_VOLUME_PAGES as f64;
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

        if self.quarantine_left > 0 {
            // The quarantine suppresses the very flows the signal
            // measures, so the EWMA holds frozen here — updating it
            // from suppressed readings would always read "calm" and
            // defeat the hysteresis. Liveness is the bound itself.
            self.quarantine_left -= 1;
            if self.quarantine_left == 0 {
                // Re-arm at `release`: one calm probation interval
                // stands the guard down, one thrashy probation
                // interval climbs straight back over the trigger.
                self.thrash_ewma = THRASH_RELEASE;
                // Liveness: at least one unfrozen interval before the
                // guard may re-trigger, no matter what the signal does.
                self.cooldown_left = 1;
                actions.quarantine_exited = true;
            }
            return;
        }
        self.thrash_ewma += THRASH_EWMA_ALPHA * (signal - self.thrash_ewma);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        } else if self.thrash_ewma > THRASH_TRIGGER {
            self.quarantine_left = QUARANTINE_INTERVALS;
            self.stats.quarantines += 1;
            actions.quarantine_entered = true;
        }
    }

    /// Pressure guard: hit-ratio collapse against the EWMA baseline.
    fn pressure_interval(&mut self, be_hit: Option<f64>, actions: &mut GuardActions) {
        let Some(cur) = be_hit else { return };
        match self.be_hit_baseline {
            None => self.be_hit_baseline = Some(cur),
            Some(base) => {
                let collapsed = base > 0.05 && cur < base * COLLAPSE_FRAC;
                if collapsed {
                    if self.pressure_left == 0 {
                        self.stats.pressure_events += 1;
                        actions.escalate_pressure = true;
                    }
                    self.pressure_left = PRESSURE_HOLD_INTERVALS;
                    // Track the collapsed regime only slowly: if the
                    // blowup is transient the baseline must still
                    // remember the pre-blowup normal; if it is the new
                    // permanent regime the guard adapts and stands
                    // down within a few tens of intervals.
                    self.be_hit_baseline =
                        Some(base + PRESSURE_BASELINE_ALPHA * 0.25 * (cur - base));
                } else {
                    self.pressure_left = self.pressure_left.saturating_sub(1);
                    self.be_hit_baseline = Some(base + PRESSURE_BASELINE_ALPHA * (cur - base));
                }
            }
        }
    }

    /// Leak guard: leaky integrator over sustained hit-ratio decline.
    fn leak_interval(&mut self, be_hit: Option<f64>, actions: &mut GuardActions) {
        let Some(cur) = be_hit else { return };
        if let Some(last) = self.last_be_hit {
            let decline = (last - cur).max(0.0);
            self.leak_accum = self.leak_accum * LEAK_DECAY + decline;
            if self.leak_accum > LEAK_TRIGGER_DRIFT {
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
        let mut h = Hardening::default();
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
        let mut h = Hardening::default();
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
        let mut h = Hardening::default();
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
        let mut h = Hardening::default();
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
        for _ in 0..PRESSURE_HOLD_INTERVALS + 1 {
            h.on_interval(&mem, &obs);
        }
        assert_eq!(h.throttle_shift(), 0);
    }

    #[test]
    fn leak_drift_triggers_renormalization() {
        let (mem, mut obs) = setup(3);
        let mut h = Hardening::default();
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
        let mut h2 = Hardening::default();
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
            let q = QUARANTINE_INTERVALS as usize;
            let mut h = Hardening::default();
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
