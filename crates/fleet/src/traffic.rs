//! Fleet-level open-loop traffic: who wants how much, from which shard.
//!
//! Demand is generated per **routing epoch** (a coarser grain than the
//! simulation tick — the router re-balances every `epoch_secs`, the
//! shards tick every `SimConfig::tick_secs`). Each epoch has:
//!
//! * a **fleet level** — a diurnal base curve times the
//!   `lc_load_mult` of a fleet-scope scenario phase (flash crowds
//!   multiply the whole fleet's demand), in units of *one shard's
//!   reference load* (the LC knee an `Experiment` normalizes against);
//! * a **shard-affinity vector** — the fraction of fleet requests whose
//!   keys hash toward each shard. This is a `workloads::access`
//!   popularity distribution over shard ids, mutated per epoch by the
//!   same `workloads::scenario` machinery the single-host adversarial
//!   matrix uses — at fleet scope a `ZipfShift` sharpens request skew
//!   across shards, a `HotSetRotate` migrates which shards are hot, a
//!   `BeBurst` multiplies regional demand, a `FlashCrowd` surges the
//!   fleet. Shards play the role of pages; nothing in the scenario
//!   engine knows the difference.
//!
//! Per-epoch demand for shard `i` is `level · n_shards · w_i` — with a
//! uniform affinity vector every shard sees exactly `level`, and skew
//! concentrates the same total onto fewer shards. What a shard
//! actually *receives* is the router's business ([`crate::routing`]).

use mtat_workloads::access::{AccessPattern, PopularityError, RawWeights};
use mtat_workloads::scenario::{BeSelector, Mutator, ScenarioError, ScenarioSpec};

/// A fleet traffic-generation failure: a malformed spec or scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A scalar parameter is out of range.
    Invalid {
        /// The offending parameter.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The fleet-scope scenario failed to compile.
    Scenario(ScenarioError),
    /// The shard-affinity distribution is malformed.
    Popularity(PopularityError),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::Invalid { what, detail } => write!(f, "fleet traffic: {what} {detail}"),
            TrafficError::Scenario(e) => write!(f, "fleet traffic: {e}"),
            TrafficError::Popularity(e) => write!(f, "fleet traffic: {e}"),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<ScenarioError> for TrafficError {
    fn from(e: ScenarioError) -> Self {
        TrafficError::Scenario(e)
    }
}

impl From<PopularityError> for TrafficError {
    fn from(e: PopularityError) -> Self {
        TrafficError::Popularity(e)
    }
}

/// Fleet level at the diurnal trough (fraction of one shard's reference
/// load).
const TROUGH: f64 = 0.35;
/// Added level at the diurnal peak: `level(t) = TROUGH + LIFT ·
/// sin²(π t / day_secs)`, the soak harness's day curve.
const LIFT: f64 = 0.4;

/// What the fleet's users ask for, before routing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Diurnal period in simulated seconds. Quick fleets compress a
    /// day into the run so the curve is actually exercised.
    pub day_secs: f64,
    /// Base shard-affinity skew. A mild Zipf exponent models realistic
    /// key-hash imbalance: `Zipfian { exponent: 0.15 }` over 1000
    /// shards puts the hottest shard at ~2.8× the coldest, not the
    /// pathological head a page-scale exponent would give.
    pub pattern: AccessPattern,
    /// Fleet-scope scenario (epoch-grain mutators), or `None` for a
    /// static affinity vector.
    pub scenario: Option<ScenarioSpec>,
}

impl TrafficSpec {
    /// The default fleet day: trough 0.35 and peak 0.75 (`TROUGH` and
    /// `TROUGH + LIFT`), mild affinity skew, no scenario.
    #[must_use]
    pub fn diurnal(day_secs: f64) -> Self {
        Self {
            day_secs,
            pattern: AccessPattern::Zipfian { exponent: 0.15 },
            scenario: None,
        }
    }

    /// Attaches the standard fleet-scope scenario for a run of
    /// `duration_secs`: continuous hot-shard rotation from the start,
    /// a Zipf sharpening of request skew at mid-run, and a 1.3× flash
    /// crowd over the 70–80 % window — the fleet-scale rendition of the
    /// single-host adversarial suite. The crowd multiplier takes the
    /// diurnal peak to ~0.98 of the per-shard reference load: the
    /// *median* shard stays just under the knee while the hot tail
    /// saturates, which is exactly the regime that separates the
    /// routing policies.
    #[must_use]
    pub fn with_default_scenario(mut self, seed: u64, duration_secs: f64) -> Self {
        self.scenario = Some(ScenarioSpec {
            name: "fleet_traffic",
            seed,
            mutators: vec![
                Mutator::HotSetRotate {
                    be: BeSelector::One(0),
                    start_secs: 0.0,
                    period_secs: (duration_secs / 6.0).max(1.0),
                    stride_frac: 0.2,
                    jitter_frac: 0.2,
                },
                Mutator::ZipfShift {
                    be: BeSelector::One(0),
                    at_secs: duration_secs * 0.5,
                    exponent: 0.45,
                },
                Mutator::FlashCrowd {
                    at_secs: duration_secs * 0.7,
                    dur_secs: duration_secs * 0.1,
                    load_mult: 1.3,
                },
            ],
        });
        self
    }

    /// Generates the per-epoch fleet demand for `n_shards` shards over
    /// `ceil(duration_secs / epoch_secs)` epochs.
    ///
    /// # Errors
    ///
    /// [`TrafficError`] for non-positive durations/epochs, a zero-shard
    /// fleet, or a malformed scenario.
    pub fn generate(
        &self,
        n_shards: usize,
        duration_secs: f64,
        epoch_secs: f64,
    ) -> Result<FleetTraffic, TrafficError> {
        let bad = |what: &'static str, detail: String| TrafficError::Invalid { what, detail };
        if n_shards == 0 {
            return Err(bad("n_shards", "must be at least 1".into()));
        }
        for (what, v) in [
            ("duration_secs", duration_secs),
            ("epoch_secs", epoch_secs),
            ("day_secs", self.day_secs),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(bad(what, format!("must be finite and positive, got {v}")));
            }
        }

        let epochs = (duration_secs / epoch_secs).ceil() as usize;
        let schedule = match &self.scenario {
            Some(spec) => Some(spec.compile(epoch_secs, duration_secs, 1)?),
            None => None,
        };

        let mut raw = RawWeights::new(n_shards);
        let base_weights = raw.popularity(self.pattern)?;
        let mut level = Vec::with_capacity(epochs);
        let mut demand = Vec::with_capacity(epochs);
        // Phases are piecewise-constant over epochs, so the (possibly
        // mutated) affinity vector is re-materialized only on a phase
        // change.
        let mut cached: Option<(u32, Vec<f64>)> = None;
        for e in 0..epochs {
            // Mid-epoch sampling, matching the scenario compiler's own
            // quantization convention.
            let t = (e as f64 + 0.5) * epoch_secs;
            let day_frac = (t % self.day_secs) / self.day_secs;
            let s = (std::f64::consts::PI * day_frac).sin();
            let mut lvl = TROUGH + LIFT * s * s;

            let (mult, weights): (f64, &[f64]) = match &schedule {
                None => (1.0, base_weights.weights()),
                Some(sched) => {
                    let phase = sched.phase_at(e as u64);
                    lvl *= phase.lc_load_mult;
                    let fresh = !matches!(&cached, Some((id, _)) if *id == phase.id);
                    if fresh {
                        let w = match &phase.be[0].pop {
                            Some(m) => m.materialize(self.pattern, &mut raw)?.weights().to_vec(),
                            None => base_weights.weights().to_vec(),
                        };
                        cached = Some((phase.id, w));
                    }
                    let (_, w) = cached.as_ref().expect("cached above");
                    (phase.be[0].rate_mult, w.as_slice())
                }
            };

            let scale = lvl * mult * n_shards as f64;
            demand.push(weights.iter().map(|&w| scale * w).collect::<Vec<f64>>());
            level.push(lvl * mult);
        }

        Ok(FleetTraffic {
            epoch_secs,
            level,
            demand,
        })
    }
}

/// The generated open-loop demand: per-epoch fleet levels and per-shard
/// demand in shard-load units.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraffic {
    /// Routing-epoch length in seconds.
    pub epoch_secs: f64,
    /// Fleet level per epoch (mean shard demand).
    pub level: Vec<f64>,
    /// Demand per epoch per shard (`demand[e][i]`).
    pub demand: Vec<Vec<f64>>,
}

impl FleetTraffic {
    /// Number of epochs.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.demand.len()
    }

    /// Total fleet demand in epoch `e` (shard-load units).
    #[must_use]
    pub fn total_demand(&self, e: usize) -> f64 {
        self.demand[e].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_conserves_level_times_shards() {
        let spec = TrafficSpec::diurnal(240.0);
        let t = spec.generate(64, 240.0, 10.0).expect("valid spec");
        assert_eq!(t.epochs(), 24);
        for e in 0..t.epochs() {
            let total = t.total_demand(e);
            assert!(
                (total - t.level[e] * 64.0).abs() < 1e-9 * total.max(1.0),
                "epoch {e}: total {total} vs level {}",
                t.level[e]
            );
        }
    }

    #[test]
    fn diurnal_curve_peaks_mid_day() {
        let spec = TrafficSpec::diurnal(240.0);
        let t = spec.generate(8, 240.0, 10.0).expect("valid spec");
        let mid = t.level[t.epochs() / 2];
        assert!(
            mid > t.level[0],
            "midday {mid} should exceed trough {}",
            t.level[0]
        );
        assert!(mid <= 0.7501 && t.level[0] >= 0.3499);
    }

    #[test]
    fn scenario_flash_crowd_lifts_the_window() {
        let dur = 300.0;
        let spec = TrafficSpec {
            pattern: AccessPattern::Uniform,
            ..TrafficSpec::diurnal(dur)
        }
        .with_default_scenario(11, dur);
        let base = TrafficSpec {
            scenario: None,
            pattern: AccessPattern::Uniform,
            ..TrafficSpec::diurnal(dur)
        };
        let with = spec.generate(16, dur, 10.0).expect("valid");
        let without = base.generate(16, dur, 10.0).expect("valid");
        // Epoch 22 sits inside the [0.7, 0.8) flash-crowd window.
        let e = 22;
        assert!((with.level[e] / without.level[e] - 1.3).abs() < 1e-9);
        // Outside the window the curves agree.
        assert!((with.level[2] - without.level[2]).abs() < 1e-12);
    }

    #[test]
    fn zipf_shift_sharpens_affinity_skew() {
        let dur = 300.0;
        let spec = TrafficSpec::diurnal(dur).with_default_scenario(11, dur);
        let t = spec.generate(64, dur, 10.0).expect("valid");
        let spread = |e: usize| {
            let max = t.demand[e].iter().cloned().fold(0.0, f64::max);
            max * 64.0 / t.total_demand(e)
        };
        // After the mid-run ZipfShift (exponent 0.15 → 0.45) the
        // hottest shard carries a larger multiple of the mean.
        assert!(
            spread(20) > spread(2) * 1.5,
            "{} vs {}",
            spread(20),
            spread(2)
        );
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let dur = 200.0;
        let spec = TrafficSpec::diurnal(dur).with_default_scenario(5, dur);
        let a = spec.generate(32, dur, 5.0).expect("valid");
        let b = spec.generate(32, dur, 5.0).expect("valid");
        assert_eq!(a, b);
        let other = TrafficSpec::diurnal(dur).with_default_scenario(6, dur);
        let c = other.generate(32, dur, 5.0).expect("valid");
        assert_ne!(a, c, "rotation jitter must follow the seed");
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        let spec = TrafficSpec::diurnal(100.0);
        assert!(matches!(
            spec.generate(0, 100.0, 10.0),
            Err(TrafficError::Invalid {
                what: "n_shards",
                ..
            })
        ));
        assert!(spec.generate(4, 0.0, 10.0).is_err());
        assert!(spec.generate(4, 100.0, -1.0).is_err());
        let mut bad = TrafficSpec::diurnal(100.0);
        bad.day_secs = f64::NAN;
        assert!(bad.generate(4, 100.0, 10.0).is_err());
    }
}
