//! Graceful-degradation supervisor for the MTAT control loop.
//!
//! The RL-based PP-M is the paper's headline mechanism, but a learned
//! controller fed by a real telemetry pipeline can be driven off a
//! cliff by its inputs: PEBS sampling can go dark (the agent then sees
//! zero demand and cheerfully evicts the LC working set), observations
//! can arrive stale, and a diverged network can emit NaN actions that
//! clamp to a zero-byte partition. The [`Supervisor`] watches for these
//! conditions and demotes the partitioner down a fixed ladder of
//! simpler, more trustworthy mechanisms:
//!
//! 1. [`DegradationState::Rl`] — the SAC agent sizes the LC partition
//!    (nominal operation).
//! 2. [`DegradationState::Proportional`] — the
//!    [`crate::ppm::controller::ProportionalController`], which needs
//!    only the observed P99 (application-side telemetry that survives a
//!    sampler blackout).
//! 3. [`DegradationState::Static`] — a fixed LC-priority split: the LC
//!    workload keeps its full resident set in FMem and BE workloads
//!    take what is left. Safe for the SLO, terrible for BE throughput —
//!    strictly a last resort.
//!
//! Demotion triggers (any one suffices):
//! * a non-finite raw SAC action (diverged network),
//! * policy-visible observations older than `STALE_LIMIT_TICKS` (3),
//! * a dead sensor: zero sampled memory-access demand while the
//!   application visibly serves traffic (the PEBS-blackout signature),
//! * `DEMOTE_AFTER_VIOLATIONS` (3) consecutive SLO-violating intervals.
//!
//! A demoted supervisor escalates Proportional → Static when either the
//! violations continue (`STATIC_AFTER_VIOLATIONS`, 4) or the hard fault
//! itself persists (`STATIC_AFTER_HARD_FAULTS`, 2): prolonged blind
//! operation at whatever thin partition the sizer last chose is exactly
//! the state in which a demand surge is catastrophic, so a sustained
//! telemetry outage buys the LC workload its full resident set until
//! the sensors return.
//!
//! Re-promotion is conservative: only after `HEALTHY_INTERVALS` (3)
//! consecutive clean intervals — no violation, fresh observations, live
//! sensors — does the supervisor hand control back to the RL agent.
//! While a fault persists the intervals are not clean, so the ladder
//! holds its position instead of oscillating.

use serde::{Deserialize, Serialize};

/// Which partitioning mechanism is currently in control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationState {
    /// Nominal: the SAC RL agent sizes the LC partition.
    #[default]
    Rl,
    /// Degraded: the proportional latency-headroom controller.
    Proportional,
    /// Last resort: fixed LC-priority split.
    Static,
}

impl DegradationState {
    /// Compact label for logs and TSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationState::Rl => "rl",
            DegradationState::Proportional => "proportional",
            DegradationState::Static => "static",
        }
    }
}

/// Demote RL → Proportional after this many consecutive SLO-violating
/// intervals.
const DEMOTE_AFTER_VIOLATIONS: u32 = 3;
/// Escalate Proportional → Static after this many consecutive
/// SLO-violating intervals *while already demoted*.
const STATIC_AFTER_VIOLATIONS: u32 = 4;
/// Escalate Proportional → Static after this many consecutive
/// hard-faulted intervals (stale observations, dead sensor, non-finite
/// actions) *while already demoted*. A persistent telemetry fault means
/// the control loop is flying blind; holding a thin partition in that
/// state is exactly when a demand surge is catastrophic, so the
/// supervisor provisions conservatively.
const STATIC_AFTER_HARD_FAULTS: u32 = 2;
/// Hand control back to the RL agent after this many consecutive
/// healthy intervals.
const HEALTHY_INTERVALS: u32 = 3;
/// Observations older than this many ticks count as stale.
const STALE_LIMIT_TICKS: u64 = 3;

/// A recorded mode change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Simulation time of the change (seconds).
    pub at_secs: f64,
    /// The state entered.
    pub to: DegradationState,
}

/// The degradation state machine. Owned by the MTAT policy; fed by it
/// once per tick ([`Supervisor::note_tick`], [`Supervisor::note_nonfinite`])
/// and consulted at every partitioning interval
/// ([`Supervisor::on_interval`]). The default starts in the nominal RL
/// state.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    state: DegradationState,
    /// Consecutive SLO-violating intervals (any state).
    slo_streak: u32,
    /// Consecutive hard-faulted intervals (any state).
    hard_streak: u32,
    /// Consecutive fully healthy intervals.
    healthy_streak: u32,
    /// Latched within the current interval: stale observation seen.
    stale_seen: bool,
    /// Latched within the current interval: non-finite SAC action seen.
    nonfinite_seen: bool,
    /// Quarantine latch set by the health monitor: pins the ladder at
    /// Static and disables re-promotion until explicitly cleared.
    latched: bool,
    transitions: Vec<Transition>,
}

impl Supervisor {
    /// The mechanism currently in control.
    pub fn state(&self) -> DegradationState {
        self.state
    }

    /// Every recorded mode change, oldest first.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Per-tick telemetry-freshness check.
    pub fn note_tick(&mut self, obs_age_ticks: u64) {
        if obs_age_ticks > STALE_LIMIT_TICKS {
            self.stale_seen = true;
        }
    }

    /// Reports a non-finite raw action from the SAC agent.
    pub fn note_nonfinite(&mut self) {
        self.nonfinite_seen = true;
    }

    /// Forces the ladder to `to` immediately, outside the normal
    /// streak-driven evaluation. The health monitor uses this after a
    /// rollback to re-enter via a conservative rung instead of handing a
    /// freshly restored agent straight back the controls. All streaks
    /// reset so the new state gets a clean evaluation window.
    pub fn force_demote(&mut self, to: DegradationState, now_secs: f64) {
        if to != self.state {
            self.state = to;
            self.transitions.push(Transition {
                at_secs: now_secs,
                to,
            });
        }
        self.slo_streak = 0;
        self.hard_streak = 0;
        self.healthy_streak = 0;
        self.stale_seen = false;
        self.nonfinite_seen = false;
    }

    /// Sets or clears the quarantine latch. While latched the ladder is
    /// pinned at [`DegradationState::Static`] and [`Self::on_interval`]
    /// never re-promotes — the contained-but-alive terminal state the
    /// health monitor enters when its rollback budget is exhausted.
    pub fn set_latched(&mut self, latched: bool, now_secs: f64) {
        self.latched = latched;
        if latched {
            self.force_demote(DegradationState::Static, now_secs);
        }
    }

    /// Whether the quarantine latch is set.
    pub fn is_latched(&self) -> bool {
        self.latched
    }

    /// Restores the latch bit from a checkpoint without touching the
    /// ladder: the serialized state already reflects any forced
    /// demotion that accompanied the latch. (The latch travels at the
    /// tail of the policy payload, not in [`mtat_snapshot::Snap`] for
    /// `Supervisor`, so pre-latch v1 payloads keep decoding.)
    pub fn restore_latched(&mut self, latched: bool) {
        self.latched = latched;
    }

    /// One interval-boundary evaluation. `violated` is the interval's
    /// SLO outcome; `sensor_dead` flags the blackout signature (zero
    /// observed memory-access demand while requests are being served).
    /// Returns the state the *next* decision should run under.
    pub fn on_interval(
        &mut self,
        now_secs: f64,
        violated: bool,
        sensor_dead: bool,
    ) -> DegradationState {
        let stale = std::mem::take(&mut self.stale_seen);
        let nonfinite = std::mem::take(&mut self.nonfinite_seen);
        if self.latched {
            // Quarantined: the per-interval latches are still consumed
            // (so clearing the latch starts from a clean slate) but the
            // ladder is pinned at Static with no streak evolution.
            return self.state;
        }
        let hard_fault = stale || nonfinite || sensor_dead;

        if violated {
            self.slo_streak += 1;
        } else {
            self.slo_streak = 0;
        }
        if hard_fault {
            self.hard_streak += 1;
        } else {
            self.hard_streak = 0;
        }
        if violated || hard_fault {
            self.healthy_streak = 0;
        } else {
            self.healthy_streak += 1;
        }

        let next = match self.state {
            DegradationState::Rl => {
                if hard_fault || self.slo_streak >= DEMOTE_AFTER_VIOLATIONS {
                    DegradationState::Proportional
                } else {
                    DegradationState::Rl
                }
            }
            DegradationState::Proportional => {
                if self.slo_streak >= STATIC_AFTER_VIOLATIONS
                    || self.hard_streak >= STATIC_AFTER_HARD_FAULTS
                {
                    DegradationState::Static
                } else if self.healthy_streak >= HEALTHY_INTERVALS {
                    DegradationState::Rl
                } else {
                    DegradationState::Proportional
                }
            }
            DegradationState::Static => {
                if self.healthy_streak >= HEALTHY_INTERVALS {
                    DegradationState::Rl
                } else {
                    DegradationState::Static
                }
            }
        };
        if next != self.state {
            self.state = next;
            self.slo_streak = 0;
            self.hard_streak = 0;
            self.healthy_streak = 0;
            self.transitions.push(Transition {
                at_secs: now_secs,
                to: next,
            });
        }
        self.state
    }
}

impl mtat_snapshot::Snap for DegradationState {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u8(match self {
            DegradationState::Rl => 0,
            DegradationState::Proportional => 1,
            DegradationState::Static => 2,
        });
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(DegradationState::Rl),
            1 => Ok(DegradationState::Proportional),
            2 => Ok(DegradationState::Static),
            _ => Err(mtat_snapshot::SnapError::Malformed("degradation state tag")),
        }
    }
}

impl mtat_snapshot::Snap for Transition {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_f64(self.at_secs);
        self.to.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            at_secs: r.get_f64()?,
            to: mtat_snapshot::Snap::unsnap(r)?,
        })
    }
}

impl mtat_snapshot::Snap for Supervisor {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        // The record opens with the five thresholds, which were once
        // settable: they are still written, so the record stays
        // byte-identical, and skipped on decode.
        w.put_u32(DEMOTE_AFTER_VIOLATIONS);
        w.put_u32(STATIC_AFTER_VIOLATIONS);
        w.put_u32(STATIC_AFTER_HARD_FAULTS);
        w.put_u32(HEALTHY_INTERVALS);
        w.put_u64(STALE_LIMIT_TICKS);
        self.state.snap(w);
        w.put_u32(self.slo_streak);
        w.put_u32(self.hard_streak);
        w.put_u32(self.healthy_streak);
        w.put_bool(self.stale_seen);
        w.put_bool(self.nonfinite_seen);
        // The quarantine latch is deliberately NOT part of this record:
        // it travels at the tail of the policy checkpoint payload so v1
        // payloads (which predate the latch) keep decoding. See
        // `MtatPolicy::encode_checkpoint` and `Supervisor::restore_latched`.
        self.transitions.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        for _ in 0..4 {
            r.get_u32()?;
        }
        r.get_u64()?;
        Ok(Self {
            state: mtat_snapshot::Snap::unsnap(r)?,
            slo_streak: r.get_u32()?,
            hard_streak: r.get_u32()?,
            healthy_streak: r.get_u32()?,
            stale_seen: r.get_bool()?,
            nonfinite_seen: r.get_bool()?,
            latched: false,
            transitions: mtat_snapshot::Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> Supervisor {
        Supervisor::default()
    }

    /// A mid-ladder supervisor checkpointed and restored continues its
    /// state machine exactly where the original left off.
    #[test]
    fn snapshot_roundtrip_preserves_ladder_position() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};
        let mut s = sup();
        // Drive into Proportional with partial streaks latched.
        for i in 0..3 {
            s.on_interval(i as f64 * 5.0, true, false);
        }
        s.on_interval(15.0, true, false);
        s.note_tick(10); // latch stale_seen inside the current interval
        assert_eq!(s.state(), DegradationState::Proportional);

        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Supervisor::unsnap(&mut SnapReader::new(&bytes)).unwrap();

        // Both copies must now evolve identically.
        for i in 4..12 {
            let violated = i < 6;
            let a = s.on_interval(i as f64 * 5.0, violated, false);
            let b = restored.on_interval(i as f64 * 5.0, violated, false);
            assert_eq!(a, b, "interval {i}");
        }
        assert_eq!(s.transitions(), restored.transitions());
    }

    #[test]
    fn starts_in_rl_and_stays_there_when_healthy() {
        let mut s = sup();
        for i in 0..20 {
            assert_eq!(s.on_interval(i as f64, false, false), DegradationState::Rl);
        }
        assert!(s.transitions().is_empty());
    }

    #[test]
    fn nonfinite_action_demotes_immediately() {
        let mut s = sup();
        s.note_nonfinite();
        assert_eq!(
            s.on_interval(5.0, false, false),
            DegradationState::Proportional
        );
        assert_eq!(s.transitions().len(), 1);
        assert_eq!(s.transitions()[0].to, DegradationState::Proportional);
    }

    #[test]
    fn stale_observations_demote() {
        let mut s = sup();
        s.note_tick(2); // within the limit: fine
        assert_eq!(s.on_interval(5.0, false, false), DegradationState::Rl);
        s.note_tick(10); // beyond STALE_LIMIT_TICKS = 3
        assert_eq!(
            s.on_interval(10.0, false, false),
            DegradationState::Proportional
        );
    }

    #[test]
    fn violation_streak_demotes_after_k() {
        let mut s = sup();
        assert_eq!(s.on_interval(0.0, true, false), DegradationState::Rl);
        assert_eq!(s.on_interval(5.0, true, false), DegradationState::Rl);
        // Third consecutive violation reaches K = 3.
        assert_eq!(
            s.on_interval(10.0, true, false),
            DegradationState::Proportional
        );
    }

    #[test]
    fn broken_streaks_do_not_demote() {
        let mut s = sup();
        for i in 0..10 {
            // Alternate violated / healthy: never 3 in a row.
            let violated = i % 2 == 0;
            assert_eq!(
                s.on_interval(i as f64, violated, false),
                DegradationState::Rl
            );
        }
    }

    #[test]
    fn sensor_death_demotes_and_blocks_repromotion() {
        let mut s = sup();
        assert_eq!(
            s.on_interval(0.0, false, true),
            DegradationState::Proportional
        );
        // Sensor still dead: no re-promotion no matter how calm the SLO
        // is — and after `STATIC_AFTER_HARD_FAULTS` more blind intervals
        // the supervisor escalates to the static LC-priority split.
        assert_eq!(
            s.on_interval(5.0, false, true),
            DegradationState::Proportional
        );
        assert_eq!(s.on_interval(10.0, false, true), DegradationState::Static);
        for i in 3..10 {
            assert_eq!(
                s.on_interval(i as f64 * 5.0, false, true),
                DegradationState::Static
            );
        }
        // Sensor back: re-promotes after the healthy window (3 intervals).
        assert_eq!(s.on_interval(50.0, false, false), DegradationState::Static);
        assert_eq!(s.on_interval(55.0, false, false), DegradationState::Static);
        assert_eq!(s.on_interval(60.0, false, false), DegradationState::Rl);
        let tos: Vec<_> = s.transitions().iter().map(|t| t.to).collect();
        assert_eq!(
            tos,
            vec![
                DegradationState::Proportional,
                DegradationState::Static,
                DegradationState::Rl
            ]
        );
    }

    #[test]
    fn persistent_stale_telemetry_escalates_to_static() {
        let mut s = sup();
        s.note_tick(10);
        assert_eq!(
            s.on_interval(0.0, false, false),
            DegradationState::Proportional
        );
        s.note_tick(10);
        assert_eq!(
            s.on_interval(5.0, false, false),
            DegradationState::Proportional
        );
        s.note_tick(10);
        assert_eq!(s.on_interval(10.0, false, false), DegradationState::Static);
        // A single fresh interval resets the hard streak but is not yet a
        // full healthy window: the ladder holds at Static.
        assert_eq!(s.on_interval(15.0, false, false), DegradationState::Static);
    }

    #[test]
    fn escalates_to_static_when_proportional_keeps_violating() {
        let mut s = sup();
        for i in 0..3 {
            s.on_interval(i as f64, true, false);
        }
        assert_eq!(s.state(), DegradationState::Proportional);
        // Four more consecutive violations while demoted.
        for i in 3..6 {
            assert_eq!(
                s.on_interval(i as f64, true, false),
                DegradationState::Proportional
            );
        }
        assert_eq!(s.on_interval(6.0, true, false), DegradationState::Static);
        // Healthy window brings it all the way back to RL.
        for i in 7..9 {
            assert_eq!(
                s.on_interval(i as f64, false, false),
                DegradationState::Static
            );
        }
        assert_eq!(s.on_interval(9.0, false, false), DegradationState::Rl);
    }

    #[test]
    fn force_demote_resets_streaks_and_records_transition() {
        let mut s = sup();
        s.on_interval(0.0, true, false);
        s.on_interval(5.0, true, false); // slo_streak = 2, one short of demotion
        s.force_demote(DegradationState::Proportional, 7.0);
        assert_eq!(s.state(), DegradationState::Proportional);
        assert_eq!(s.transitions().len(), 1);
        assert_eq!(s.transitions()[0].at_secs, 7.0);
        // Streaks were cleared: a single further violation does not
        // escalate, and three clean intervals re-promote normally.
        assert_eq!(
            s.on_interval(10.0, true, false),
            DegradationState::Proportional
        );
        for i in 0..2 {
            assert_eq!(
                s.on_interval(15.0 + i as f64 * 5.0, false, false),
                DegradationState::Proportional
            );
        }
        assert_eq!(s.on_interval(25.0, false, false), DegradationState::Rl);
        // Forcing the current state is a streak reset, not a transition.
        let n = s.transitions().len();
        s.force_demote(DegradationState::Rl, 30.0);
        assert_eq!(s.transitions().len(), n);
    }

    #[test]
    fn quarantine_latch_pins_ladder_at_static() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};
        let mut s = sup();
        s.set_latched(true, 12.0);
        assert!(s.is_latched());
        assert_eq!(s.state(), DegradationState::Static);
        // No amount of healthy intervals re-promotes while latched.
        for i in 0..10 {
            assert_eq!(
                s.on_interval(15.0 + i as f64 * 5.0, false, false),
                DegradationState::Static
            );
        }
        // The wire format deliberately excludes the latch (v1 payload
        // compatibility); the policy codec re-applies it from the
        // payload tail via `restore_latched`.
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Supervisor::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert!(!restored.is_latched());
        assert_eq!(restored.state(), DegradationState::Static);
        restored.restore_latched(true);
        assert!(restored.is_latched());
        // Clearing the latch restores the normal re-promotion path.
        s.set_latched(false, 80.0);
        for i in 0..2 {
            assert_eq!(
                s.on_interval(85.0 + i as f64 * 5.0, false, false),
                DegradationState::Static
            );
        }
        assert_eq!(s.on_interval(95.0, false, false), DegradationState::Rl);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DegradationState::Rl.label(), "rl");
        assert_eq!(DegradationState::Proportional.label(), "proportional");
        assert_eq!(DegradationState::Static.label(), "static");
    }
}
