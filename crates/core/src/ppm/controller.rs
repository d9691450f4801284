//! Heuristic feedback controller — the ablation baseline for the RL
//! partitioner.
//!
//! DESIGN.md calls out "SAC vs a simple proportional controller" as an
//! ablation target: the paper chooses reinforcement learning, and this
//! controller lets the benches quantify what that buys. It is a
//! latency-headroom proportional controller: when the observed P99 eats
//! into the SLO it grows the LC allocation proportionally to the
//! overshoot; when there is ample headroom it shrinks slowly
//! (multiplicative-increase, linear-decrease — deliberately asymmetric,
//! since under-allocation is the expensive direction for an SLO).

use serde::{Deserialize, Serialize};

use crate::ppm::lc::LcObservation;

/// Grow when P99 exceeds this fraction of the SLO.
const GROW_THRESHOLD: f64 = 0.6;
/// Shrink when P99 is below this fraction of the SLO.
const SHRINK_THRESHOLD: f64 = 0.2;
/// Shrink step as a fraction of the Eq. (1) bound.
const SHRINK_STEP: f64 = 0.1;

/// Proportional LC allocation controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProportionalController {
    /// Total FMem in bytes.
    fmem_total: u64,
    /// LC resident set size in bytes (allocation ceiling with FMem).
    rss_bytes: u64,
    /// Maximum |change| per interval in bytes (the Eq. (1) bound).
    max_step_bytes: f64,
    /// The SLO in seconds.
    slo_secs: f64,
    target_bytes: u64,
}

impl ProportionalController {
    /// Creates a controller starting from a zero target.
    pub fn new(fmem_total: u64, rss_bytes: u64, max_step_bytes: f64, slo_secs: f64) -> Self {
        Self {
            fmem_total,
            rss_bytes,
            max_step_bytes,
            slo_secs,
            target_bytes: 0,
        }
    }

    /// Current target in bytes.
    pub fn target_bytes(&self) -> u64 {
        self.target_bytes
    }

    /// Overrides the target (e.g. to match the initial placement).
    pub fn set_target_bytes(&mut self, bytes: u64) {
        self.target_bytes = bytes.min(self.ceiling());
    }

    fn ceiling(&self) -> u64 {
        self.fmem_total.min(self.rss_bytes)
    }

    /// Serializes the mutable controller state (the target; the config
    /// is rebuilt from the experiment spec on restart).
    pub fn save_state(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u64(self.target_bytes);
    }

    /// Restores state captured by [`Self::save_state`] into this
    /// controller, clamping to the current ceiling.
    pub fn load_state(
        &mut self,
        r: &mut mtat_snapshot::SnapReader<'_>,
    ) -> Result<(), mtat_snapshot::SnapError> {
        let target = r.get_u64()?;
        self.target_bytes = target.min(self.ceiling());
        Ok(())
    }

    /// One decision from the interval observation; returns the new
    /// target allocation in bytes.
    pub fn decide(&mut self, obs: &LcObservation) -> u64 {
        let slo = self.slo_secs;
        let p99 = obs.p99_secs;
        let step = if obs.violated || !p99.is_finite() {
            // Hard violation: grow at the full Eq. (1) rate.
            self.max_step_bytes
        } else if p99 > GROW_THRESHOLD * slo {
            // Proportional response to the headroom deficit.
            let overshoot = (p99 / slo - GROW_THRESHOLD) / (1.0 - GROW_THRESHOLD);
            overshoot.clamp(0.0, 1.0) * self.max_step_bytes
        } else if p99 < SHRINK_THRESHOLD * slo {
            -SHRINK_STEP * self.max_step_bytes
        } else {
            0.0
        };
        let next = (self.target_bytes as f64 + step).clamp(0.0, self.ceiling() as f64);
        self.target_bytes = next as u64;
        self.target_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtat_tiermem::GIB;

    fn controller() -> ProportionalController {
        ProportionalController::new(32 * GIB, 34 * GIB, 20.0 * GIB as f64, 20e-3)
    }

    fn obs(p99: f64, violated: bool) -> LcObservation {
        LcObservation {
            usage_ratio: 0.5,
            access_ratio: 0.5,
            access_count_norm: 0.5,
            p99_secs: p99,
            violated,
        }
    }

    #[test]
    fn grows_on_violation() {
        let mut c = controller();
        c.set_target_bytes(4 * GIB);
        let t = c.decide(&obs(0.1, true));
        assert_eq!(t, 24 * GIB); // +20 GiB, the full step
    }

    #[test]
    fn grows_on_infinite_p99() {
        let mut c = controller();
        let t = c.decide(&obs(f64::INFINITY, false));
        assert_eq!(t, 20 * GIB);
    }

    #[test]
    fn grows_proportionally_near_slo() {
        let mut c = controller();
        c.set_target_bytes(8 * GIB);
        // p99 at 80% of SLO: overshoot = (0.8-0.6)/0.4 = 0.5 -> +10 GiB.
        let t = c.decide(&obs(16e-3, false));
        assert_eq!(t, 18 * GIB);
    }

    #[test]
    fn shrinks_slowly_with_headroom() {
        let mut c = controller();
        c.set_target_bytes(20 * GIB);
        // p99 well under 20% of SLO -> shrink by 2 GiB (10% of step).
        let t = c.decide(&obs(1e-3, false));
        assert_eq!(t, 18 * GIB);
    }

    #[test]
    fn holds_in_the_dead_band() {
        let mut c = controller();
        c.set_target_bytes(10 * GIB);
        // p99 at 40% of SLO: between shrink (20%) and grow (60%).
        let t = c.decide(&obs(8e-3, false));
        assert_eq!(t, 10 * GIB);
    }

    #[test]
    fn clamps_to_capacity_and_zero() {
        let mut c = controller();
        c.set_target_bytes(30 * GIB);
        assert_eq!(c.decide(&obs(0.1, true)), 32 * GIB);
        let mut d = controller();
        d.set_target_bytes(GIB);
        assert_eq!(d.decide(&obs(1e-4, false)), 0);
        assert_eq!(d.decide(&obs(1e-4, false)), 0);
    }
}
