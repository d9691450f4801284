//! The Partition Policy Maker (PP-M, §3.2).
//!
//! PP-M decides, at every partitioning interval, how much FMem each
//! workload gets: a reinforcement-learning agent sizes the LC partition
//! to the minimum that satisfies the SLO ([`lc::LcPartitioner`]), and a
//! fairness-driven simulated-annealing search divides the remainder
//! among the BE workloads ([`be::BePartitioner`], Algorithm 2). The
//! resulting [`PartitionPlan`] is handed to the Partition Policy
//! Enforcer ([`crate::ppe`]).

pub mod annealing;
pub mod be;
pub mod controller;
pub mod env;
pub mod lc;
pub mod profiler;

use crate::ppm::be::BePartitioner;
use crate::ppm::controller::ProportionalController;
use crate::ppm::lc::{LcObservation, LcPartitioner};
use crate::ppm::profiler::BeProfile;
use crate::supervisor::DegradationState;
use mtat_obs::Obs;

/// A per-interval FMem partitioning decision (bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// FMem reserved for the LC workload.
    pub lc_bytes: u64,
    /// FMem for each BE workload, in registration order.
    pub be_bytes: Vec<u64>,
}

impl PartitionPlan {
    /// Total FMem claimed by the plan.
    pub fn total(&self) -> u64 {
        self.lc_bytes + self.be_bytes.iter().sum::<u64>()
    }
}

impl mtat_snapshot::Snap for PartitionPlan {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u64(self.lc_bytes);
        self.be_bytes.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            lc_bytes: r.get_u64()?,
            be_bytes: mtat_snapshot::Snap::unsnap(r)?,
        })
    }
}

/// How PP-M sizes the LC partition.
///
/// One sizer exists per policy instance, so the size skew between the
/// RL variant (which embeds the SAC agent) and the heuristic one does
/// not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum LcSizer {
    /// The paper's approach: SAC reinforcement learning (§3.2.1).
    Rl(LcPartitioner),
    /// Ablation baseline: proportional latency-headroom controller.
    Heuristic(ProportionalController),
}

impl LcSizer {
    fn decide(&mut self, obs: &LcObservation) -> u64 {
        match self {
            LcSizer::Rl(p) => p.decide(obs),
            LcSizer::Heuristic(c) => c.decide(obs),
        }
    }

    fn target_bytes(&self) -> u64 {
        match self {
            LcSizer::Rl(p) => p.target_bytes(),
            LcSizer::Heuristic(c) => c.target_bytes(),
        }
    }

    fn set_target_bytes(&mut self, bytes: u64) {
        match self {
            LcSizer::Rl(p) => p.set_target_bytes(bytes),
            LcSizer::Heuristic(c) => c.set_target_bytes(bytes),
        }
    }

    fn rl_raw_action(&self) -> Option<f64> {
        match self {
            LcSizer::Rl(p) => p.last_raw_action(),
            LcSizer::Heuristic(_) => None,
        }
    }
}

/// The Partition Policy Maker: LC sizing + BE fairness allocation, plus
/// the SLO guard used between RL decisions.
#[derive(Debug)]
pub struct PartitionPolicyMaker {
    lc: LcSizer,
    be: Option<BePartitioner>,
    fmem_total: u64,
    /// When set, an interval that violated the SLO forces the LC target
    /// to grow by at least this fraction of the Eq. (1) bound, on top of
    /// whatever the sizer chose — the "rapid response to sudden demand
    /// surges" backstop.
    slo_guard_step: Option<f64>,
    max_step_bytes: f64,
    /// Allocation floor installed by the guard. It persists while the
    /// offered load stays near the level that violated (so the sizer
    /// cannot oscillate back into violation at constant load) and clears
    /// once demand recedes.
    guard_floor_bytes: u64,
    /// Normalized access-count level at which the floor was installed.
    guard_level: f64,
    /// Degraded-mode LC sizer, used while a
    /// [`crate::supervisor::Supervisor`] has demoted the primary sizer.
    fallback: Option<ProportionalController>,
    /// Last-resort LC allocation (LC-priority static split) used in
    /// [`DegradationState::Static`].
    static_lc_bytes: u64,
    /// Which sizer currently governs the LC partition.
    mode: DegradationState,
    /// Clamp diagnostics of the most recent decision (telemetry only —
    /// nothing here feeds back into later decisions).
    last_decision: Option<DecisionMeta>,
    /// Telemetry handle; child spans of the `ppm-plan` phase.
    obs: Obs,
}

/// What happened between the sizer's raw choice and the emitted plan in
/// the most recent [`PartitionPolicyMaker::decide`] call. Pure
/// diagnostics for decision provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionMeta {
    /// LC target straight out of the governing sizer, before the SLO
    /// guard and the FMem clamp.
    pub sizer_bytes: u64,
    /// Guard floor in force after this decision (0 = none installed).
    pub guard_floor_bytes: u64,
    /// True when the guard floor raised the sizer's target.
    pub guard_applied: bool,
    /// True when the LC target was clamped down to total FMem.
    pub fmem_clamped: bool,
}

impl PartitionPolicyMaker {
    /// Creates a PP-M. `be` is `None` for the MTAT (LC Only) variant,
    /// where BE workloads compete for the residual FMem instead of
    /// receiving explicit partitions.
    pub fn new(
        lc: LcSizer,
        be: Option<BePartitioner>,
        fmem_total: u64,
        max_step_bytes: f64,
        slo_guard_step: Option<f64>,
    ) -> Self {
        Self {
            lc,
            be,
            fmem_total,
            slo_guard_step,
            max_step_bytes,
            guard_floor_bytes: 0,
            guard_level: 0.0,
            fallback: None,
            static_lc_bytes: fmem_total,
            mode: DegradationState::Rl,
            last_decision: None,
            obs: Obs::disabled(),
        }
    }

    /// Attaches a telemetry handle (spans for the sizer / annealer
    /// sub-phases of each decision).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Clamp diagnostics of the most recent [`Self::decide`] call.
    pub fn last_decision(&self) -> Option<DecisionMeta> {
        self.last_decision
    }

    /// Installs the graceful-degradation ladder: a proportional
    /// controller to govern while the primary sizer is demoted, and the
    /// static LC-priority allocation used as the last resort.
    pub fn with_fallback(mut self, fallback: ProportionalController, static_lc_bytes: u64) -> Self {
        self.fallback = Some(fallback);
        self.static_lc_bytes = static_lc_bytes.min(self.fmem_total);
        self
    }

    /// The LC target currently in force (under the governing sizer).
    pub fn lc_target_bytes(&self) -> u64 {
        match self.mode {
            DegradationState::Rl => self.lc.target_bytes(),
            DegradationState::Proportional => self
                .fallback
                .as_ref()
                .map_or_else(|| self.lc.target_bytes(), |c| c.target_bytes()),
            DegradationState::Static => self.static_lc_bytes,
        }
    }

    /// Aligns the internal targets with the actual initial placement.
    pub fn set_lc_target_bytes(&mut self, bytes: u64) {
        self.lc.set_target_bytes(bytes);
        if let Some(c) = &mut self.fallback {
            c.set_target_bytes(bytes);
        }
    }

    /// The governing sizer.
    pub fn mode(&self) -> DegradationState {
        self.mode
    }

    /// Switches the governing sizer, carrying the current target over so
    /// the incoming sizer continues from where the outgoing one left off
    /// (no allocation jump at the transition itself).
    pub fn set_mode(&mut self, mode: DegradationState) {
        if mode == self.mode {
            return;
        }
        let carry = self.lc_target_bytes();
        self.mode = mode;
        match mode {
            DegradationState::Rl => self.lc.set_target_bytes(carry),
            DegradationState::Proportional => {
                if let Some(c) = &mut self.fallback {
                    c.set_target_bytes(carry);
                }
            }
            DegradationState::Static => {}
        }
    }

    /// The raw (unclamped) action of the primary sizer's most recent
    /// decision; `None` when the primary sizer is not RL-based or has not
    /// decided yet.
    pub fn rl_raw_action(&self) -> Option<f64> {
        self.lc.rl_raw_action()
    }

    /// The primary sizer's SAC agent (`None` for the heuristic
    /// ablation). Read-only: exposed for learner diagnostics.
    pub fn sac_agent(&self) -> Option<&mtat_rl::sac::Sac> {
        match &self.lc {
            LcSizer::Rl(p) => Some(p.agent()),
            LcSizer::Heuristic(_) => None,
        }
    }

    /// Mutable access to the primary sizer's SAC agent. Exists for
    /// fault injection ([`mtat_rl::sac::Sac::poison_actor`]); control
    /// code must not use it.
    pub fn sac_agent_mut(&mut self) -> Option<&mut mtat_rl::sac::Sac> {
        match &mut self.lc {
            LcSizer::Rl(p) => Some(p.agent_mut()),
            LcSizer::Heuristic(_) => None,
        }
    }

    /// Diagnostics from the BE partitioner's most recent annealing
    /// search (`None` for the LC-only variant or before the first
    /// search).
    pub fn last_anneal(&self) -> Option<crate::ppm::be::AnnealStats> {
        self.be.as_ref().and_then(BePartitioner::last_anneal)
    }

    /// Installs the BE partitioner's offline profiles (none for the
    /// LC-only variant, which has no partitioner).
    pub fn set_be_profiles(&mut self, profiles: Vec<BeProfile>) {
        if let Some(be) = &mut self.be {
            be.set_profiles(profiles);
        }
    }

    /// The BE partitioner's profiles (empty without a partitioner).
    #[cfg(test)]
    pub(crate) fn be_profiles(&self) -> &[BeProfile] {
        self.be.as_ref().map_or(&[], BePartitioner::profiles)
    }

    /// Resets the runtime state for a cold daemon restart (no usable
    /// checkpoint): installs a fresh primary sizer, rewinds the BE
    /// annealing seed, clears the SLO-guard floor, and returns the
    /// governing mode to nominal.
    pub fn cold_restart(&mut self, lc: LcSizer, be_seed: u64) {
        self.lc = lc;
        if let Some(be) = &mut self.be {
            be.reset_seed(be_seed);
        }
        self.guard_floor_bytes = 0;
        self.guard_level = 0.0;
        self.mode = DegradationState::Rl;
        self.last_decision = None;
    }

    /// Serializes every piece of PP-M state that mutates at runtime:
    /// the primary sizer (including the full SAC agent when RL-based),
    /// the BE annealing seed, the SLO-guard floor, the fallback
    /// controller's target, and the governing mode. Construction-time
    /// configuration (capacities, step bounds, profiles) is rebuilt
    /// from the experiment spec on restart.
    pub fn save_state(&self, w: &mut mtat_snapshot::SnapWriter) {
        use mtat_snapshot::Snap;
        match &self.lc {
            LcSizer::Rl(p) => {
                w.put_u8(0);
                p.save_state(w);
            }
            LcSizer::Heuristic(c) => {
                w.put_u8(1);
                c.save_state(w);
            }
        }
        w.put_bool(self.be.is_some());
        if let Some(be) = &self.be {
            be.save_state(w);
        }
        w.put_u64(self.guard_floor_bytes);
        w.put_f64(self.guard_level);
        w.put_bool(self.fallback.is_some());
        if let Some(c) = &self.fallback {
            c.save_state(w);
        }
        self.mode.snap(w);
    }

    /// Restores state captured by [`Self::save_state`] into this PP-M.
    /// The checkpoint's structure must match this instance (same sizer
    /// kind, same BE/fallback presence) — a mismatch means the
    /// checkpoint came from a differently configured policy and is
    /// rejected as malformed rather than half-applied.
    pub fn load_state(
        &mut self,
        r: &mut mtat_snapshot::SnapReader<'_>,
    ) -> Result<(), mtat_snapshot::SnapError> {
        use mtat_snapshot::{Snap, SnapError};
        let sizer_tag = r.get_u8()?;
        match (&mut self.lc, sizer_tag) {
            (LcSizer::Rl(p), 0) => p.load_state(r)?,
            (LcSizer::Heuristic(c), 1) => c.load_state(r)?,
            _ => return Err(SnapError::Malformed("checkpoint sizer kind mismatch")),
        }
        let has_be = r.get_bool()?;
        match (&mut self.be, has_be) {
            (Some(be), true) => be.load_state(r)?,
            (None, false) => {}
            _ => return Err(SnapError::Malformed("checkpoint BE partitioner mismatch")),
        }
        self.guard_floor_bytes = r.get_u64()?;
        self.guard_level = r.get_f64()?;
        let has_fallback = r.get_bool()?;
        match (&mut self.fallback, has_fallback) {
            (Some(c), true) => c.load_state(r)?,
            (None, false) => {}
            _ => {
                return Err(SnapError::Malformed(
                    "checkpoint fallback controller mismatch",
                ))
            }
        }
        self.mode = Snap::unsnap(r)?;
        Ok(())
    }

    /// One PP-M decision from the interval's LC observation.
    pub fn decide(&mut self, obs: &LcObservation) -> PartitionPlan {
        let before = self.lc_target_bytes();
        let mut lc_bytes = match self.mode {
            DegradationState::Rl => {
                let _span = match &self.lc {
                    LcSizer::Rl(_) => self.obs.span_here("sac-forward"),
                    LcSizer::Heuristic(_) => None,
                };
                self.lc.decide(obs)
            }
            DegradationState::Proportional => match &mut self.fallback {
                Some(c) => c.decide(obs),
                None => self.lc.decide(obs),
            },
            DegradationState::Static => self.static_lc_bytes,
        };
        let sizer_bytes = lc_bytes;
        let mut guard_applied = false;

        if let Some(step) = self.slo_guard_step {
            if obs.violated {
                // Install (or raise) the floor: grow from the previous
                // target by the guard step and remember the demand level.
                let forced =
                    (before as f64 + step * self.max_step_bytes).min(self.fmem_total as f64) as u64;
                self.guard_floor_bytes = self.guard_floor_bytes.max(forced);
                self.guard_level = obs.access_count_norm;
            } else if obs.access_count_norm < 0.75 * self.guard_level {
                // Demand receded well below the violating level: release
                // the floor and let the sizer govern again.
                self.guard_floor_bytes = 0;
                self.guard_level = 0.0;
            }
            if self.guard_floor_bytes > lc_bytes {
                lc_bytes = self.guard_floor_bytes;
                guard_applied = true;
                // Keep every sizer aligned with the forced allocation so
                // neither the primary nor the fallback re-shrinks from a
                // stale target after a mode change.
                self.lc.set_target_bytes(lc_bytes);
                if let Some(c) = &mut self.fallback {
                    c.set_target_bytes(lc_bytes);
                }
            }
        }
        let fmem_clamped = lc_bytes > self.fmem_total;
        lc_bytes = lc_bytes.min(self.fmem_total);

        let remaining = self.fmem_total - lc_bytes;
        let be_bytes = match &mut self.be {
            Some(p) => {
                let _span = self.obs.span_here("anneal");
                p.partition(remaining)
            }
            None => Vec::new(),
        };
        self.last_decision = Some(DecisionMeta {
            sizer_bytes,
            guard_floor_bytes: self.guard_floor_bytes,
            guard_applied,
            fmem_clamped,
        });
        PartitionPlan { lc_bytes, be_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppm::annealing::AnnealingConfig;
    use crate::ppm::profiler::profile_all;
    use mtat_tiermem::{GIB, MIB};
    use mtat_workloads::be::BeSpec;

    fn heuristic_ppm(with_be: bool, guard: Option<f64>) -> PartitionPolicyMaker {
        let fmem = 32 * GIB;
        let ctl = ProportionalController::new(fmem, 34 * GIB, 20.0 * GIB as f64, 20e-3);
        let be = with_be.then(|| {
            BePartitioner::new(
                profile_all(&BeSpec::all_paper_workloads(), fmem, 2 * MIB),
                AnnealingConfig::default(),
                5,
            )
        });
        PartitionPolicyMaker::new(LcSizer::Heuristic(ctl), be, fmem, 20.0 * GIB as f64, guard)
    }

    fn obs(p99: f64, violated: bool, usage: f64) -> LcObservation {
        LcObservation {
            usage_ratio: usage,
            access_ratio: usage,
            access_count_norm: 0.5,
            p99_secs: p99,
            violated,
        }
    }

    #[test]
    fn plan_covers_all_fmem_with_be_partitioning() {
        let mut ppm = heuristic_ppm(true, None);
        ppm.set_lc_target_bytes(8 * GIB);
        let plan = ppm.decide(&obs(1e-3, false, 0.25));
        assert_eq!(plan.be_bytes.len(), 4);
        assert_eq!(
            plan.total(),
            32 * GIB,
            "BE partitioning uses all residual FMem"
        );
    }

    #[test]
    fn lc_only_variant_has_no_be_partitions() {
        let mut ppm = heuristic_ppm(false, None);
        let plan = ppm.decide(&obs(1e-3, false, 0.0));
        assert!(plan.be_bytes.is_empty());
        assert!(plan.lc_bytes <= 32 * GIB);
    }

    #[test]
    fn slo_guard_forces_growth_on_violation() {
        let mut ppm = heuristic_ppm(false, Some(0.5));
        ppm.set_lc_target_bytes(2 * GIB);
        // Heuristic would already grow fully on violation; test the guard
        // specifically by violating with a *finite small* p99, which the
        // controller would treat mildly if not flagged. With violated =
        // true both paths grow; guard guarantees >= 2 + 10 GiB.
        let plan = ppm.decide(&obs(25e-3, true, 0.1));
        assert!(plan.lc_bytes >= 12 * GIB, "{}", plan.lc_bytes);
    }

    #[test]
    fn degraded_modes_dispatch_to_fallback_and_static() {
        let fmem = 32 * GIB;
        let fallback = ProportionalController::new(fmem, 34 * GIB, 20.0 * GIB as f64, 20e-3);
        let mut ppm = heuristic_ppm(false, None).with_fallback(fallback, 30 * GIB);
        ppm.set_lc_target_bytes(8 * GIB);
        assert_eq!(ppm.mode(), DegradationState::Rl);

        // Demote: the fallback controller inherits the 8 GiB target and
        // governs from there (dead-band observation holds the target).
        ppm.set_mode(DegradationState::Proportional);
        let plan = ppm.decide(&obs(8e-3, false, 0.25));
        assert_eq!(plan.lc_bytes, 8 * GIB);

        // Last resort: the static LC-priority split, regardless of obs.
        ppm.set_mode(DegradationState::Static);
        let plan = ppm.decide(&obs(1e-3, false, 0.25));
        assert_eq!(plan.lc_bytes, 30 * GIB);

        // Re-promote: the primary sizer continues from the static split,
        // no allocation jump at the transition.
        ppm.set_mode(DegradationState::Rl);
        assert_eq!(ppm.lc_target_bytes(), 30 * GIB);
    }

    #[test]
    fn guard_floor_applies_in_degraded_mode() {
        let fmem = 32 * GIB;
        let fallback = ProportionalController::new(fmem, 34 * GIB, 20.0 * GIB as f64, 20e-3);
        let mut ppm = heuristic_ppm(false, Some(0.5)).with_fallback(fallback, 30 * GIB);
        ppm.set_lc_target_bytes(2 * GIB);
        ppm.set_mode(DegradationState::Proportional);
        let plan = ppm.decide(&obs(25e-3, true, 0.1));
        assert!(plan.lc_bytes >= 12 * GIB, "{}", plan.lc_bytes);
    }

    #[test]
    fn lc_reservation_reduces_be_share() {
        let mut ppm = heuristic_ppm(true, None);
        ppm.set_lc_target_bytes(0);
        let low = ppm.decide(&obs(1e-3, false, 0.0));
        let be_low: u64 = low.be_bytes.iter().sum();

        let mut ppm2 = heuristic_ppm(true, None);
        ppm2.set_lc_target_bytes(24 * GIB);
        // Hold the LC target (dead-band p99).
        let high = ppm2.decide(&obs(8e-3, false, 0.75));
        let be_high: u64 = high.be_bytes.iter().sum();
        assert!(be_high < be_low);
        assert_eq!(be_high, 32 * GIB - high.lc_bytes);
    }
}
