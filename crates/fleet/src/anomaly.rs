//! Fleet anomaly detection: robust outlier scoring over shard outcomes.
//!
//! A fleet summary answers "how is the fleet doing"; an operator also
//! needs "which hosts are *not like the others*". This module scores
//! every shard against the fleet with a **MAD-based robust z-score**
//! per feature — SLO violation rate, migration churn, and failed page
//! moves — and flags shards whose worst feature exceeds a threshold.
//!
//! The median/MAD estimator is the right tool here because the faulty
//! shards themselves are in the sample: a mean/stddev z-score lets a
//! handful of storm-hit shards inflate the spread until they hide
//! inside it (masking), while the median and MAD have a 50 %
//! breakdown point — chaos confined to an eighth of the fleet cannot
//! move them.
//!
//! Scoring is pure arithmetic over [`ShardOutcome`] summaries: no RNG,
//! no wall clock, bit-identical across replays and worker counts, and
//! strictly read-only — detection never feeds back into routing or
//! shard physics.

use mtat_obs::registry::{GaugeMerge, Registry};

use crate::fleet::ShardOutcome;

/// Scale factor turning a MAD into a consistent σ estimate for normal
/// data (`1/Φ⁻¹(3/4)`); the conventional robust z-score denominator.
const MAD_TO_SIGMA: f64 = 1.0 / 0.674_489_75;

/// Scores are capped here so a collapsed scale can never print an
/// infinity into JSON or a threshold comparison.
pub const SCORE_CAP: f64 = 1e3;

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Robust z-score a shard's worst feature must reach to be flagged.
    /// 3.5 is the conventional Iglewicz–Hoaglin cutoff.
    pub threshold: f64,
    /// How many top outliers the status report carries.
    pub top_k: usize,
    /// Materiality floor on the violation-rate scale (absolute rate).
    /// With the default threshold, a shard must violate at least
    /// `threshold * violation_floor` above the fleet median to flag on
    /// this feature alone — a homogeneous fleet (MAD ≈ 0) must not page
    /// on percentage-point noise.
    pub violation_floor: f64,
    /// Materiality floor on the churn scale, as a fraction of the
    /// fleet-median migration bytes (with a 1 MiB absolute minimum for
    /// near-zero-churn fleets).
    pub churn_floor_frac: f64,
    /// Materiality floor on the failed-moves scale (absolute moves). In
    /// a clean fleet every shard has exactly zero failures, so the MAD
    /// collapses; this floor makes "a handful of failures" the unit.
    pub failed_floor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            threshold: 3.5,
            top_k: 8,
            violation_floor: 0.02,
            churn_floor_frac: 0.25,
            failed_floor: 2.0,
        }
    }
}

/// One shard's anomaly verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAnomaly {
    /// Shard id.
    pub shard: usize,
    /// The shard's overall score: the worst (largest) feature z-score.
    pub score: f64,
    /// Robust z of the SLO violation rate.
    pub violation_z: f64,
    /// Robust z of migration churn (bytes moved).
    pub churn_z: f64,
    /// Robust z of failed page moves.
    pub failed_z: f64,
    /// The raw violation rate, for the status report.
    pub violation_rate: f64,
}

/// The fleet-wide detection result.
#[derive(Debug, Clone)]
pub struct AnomalyReport {
    /// Per-shard overall scores, in shard order (one per shard).
    pub scores: Vec<f64>,
    /// Shards at or above the threshold, highest score first.
    pub flagged: Vec<ShardAnomaly>,
    /// The threshold the report was built with.
    pub threshold: f64,
    /// Top-k cap carried from the config (used by the status JSON).
    pub top_k: usize,
}

impl AnomalyReport {
    /// The highest score in the fleet (0 for an empty fleet).
    #[must_use]
    pub fn max_score(&self) -> f64 {
        self.scores.iter().copied().fold(0.0, f64::max)
    }

    /// The top-k outliers as a JSON array fragment for `/status`:
    /// `[{"shard":3,"score":12.5,"violation_rate":0.21},...]`. Always
    /// valid JSON — scores are capped, never infinite.
    #[must_use]
    pub fn top_outliers_json(&self) -> String {
        let mut s = String::from("[");
        for (i, a) in self.flagged.iter().take(self.top_k).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"shard\":{},\"score\":{:.2},\"violation_rate\":{:.6}}}",
                a.shard, a.score, a.violation_rate
            ));
        }
        s.push(']');
        s
    }

    /// Records the verdict into a (merged fleet) registry as
    /// `fleet.anomaly.*` metrics: flagged count as a counter, the
    /// fleet-max score as a `max`-merged gauge (so re-merging partial
    /// fleets keeps the true maximum), and the threshold for context.
    pub fn annotate(&self, registry: &mut Registry) {
        registry.counter_add("fleet.anomaly.flagged", self.flagged.len() as u64);
        registry.gauge_set_merged("fleet.anomaly.max_score", self.max_score(), GaugeMerge::Max);
        registry.gauge_set("fleet.anomaly.threshold", self.threshold);
    }
}

/// Median of a sample (mean of the middle pair for even sizes). Returns
/// 0 for an empty sample.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One-sided robust z-scores for a feature vector: how many robust σ
/// each value sits *above* the fleet median (values at or below the
/// median score 0 — an unusually *quiet* shard is not an incident).
///
/// The scale is `max(MAD·1.4826, floor)`. The floor does two jobs: it
/// keeps a collapsed MAD (more than half the fleet identical — routine
/// for failed-move counts) from turning every ulp of deviation into an
/// alarm, and it deliberately does **not** fall back to mean-based
/// spread, which the outliers themselves would inflate until they hid
/// inside it.
fn robust_z(xs: &[f64], floor: f64) -> Vec<f64> {
    let med = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    let mad = median(&devs);
    let scale = (mad * MAD_TO_SIGMA).max(floor);
    xs.iter()
        .map(|x| {
            let d = x - med;
            if d <= 0.0 {
                0.0
            } else if scale > 0.0 {
                (d / scale).min(SCORE_CAP)
            } else {
                SCORE_CAP
            }
        })
        .collect()
}

/// Scores every shard against the fleet and returns the report.
/// Deterministic: pure arithmetic over the outcomes, in shard order.
#[must_use]
pub fn detect(shards: &[ShardOutcome], cfg: &AnomalyConfig) -> AnomalyReport {
    let violation: Vec<f64> = shards.iter().map(ShardOutcome::violation_rate).collect();
    let churn: Vec<f64> = shards.iter().map(|s| s.migration_bytes as f64).collect();
    let failed: Vec<f64> = shards.iter().map(|s| s.failed_moves as f64).collect();
    let churn_floor = (cfg.churn_floor_frac * median(&churn)).max((1u64 << 20) as f64);
    let vz = robust_z(&violation, cfg.violation_floor);
    let cz = robust_z(&churn, churn_floor);
    let fz = robust_z(&failed, cfg.failed_floor);

    let mut scores = Vec::with_capacity(shards.len());
    let mut flagged = Vec::new();
    for (i, s) in shards.iter().enumerate() {
        let score = vz[i].max(cz[i]).max(fz[i]);
        scores.push(score);
        if score >= cfg.threshold {
            flagged.push(ShardAnomaly {
                shard: s.shard,
                score,
                violation_z: vz[i],
                churn_z: cz[i],
                failed_z: fz[i],
                violation_rate: violation[i],
            });
        }
    }
    flagged.sort_by(|a, b| f64::total_cmp(&b.score, &a.score).then(a.shard.cmp(&b.shard)));
    AnomalyReport {
        scores,
        flagged,
        threshold: cfg.threshold,
        top_k: cfg.top_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(shard: usize, viol_rate: f64, migration: u64, failed: u64) -> ShardOutcome {
        ShardOutcome {
            shard,
            seed: shard as u64,
            digest: 0,
            ticks: 100,
            lc_requests: 1000.0,
            lc_violated_requests: 1000.0 * viol_rate,
            be_throughput: 100.0,
            migration_bytes: migration,
            failed_moves: failed,
            retried_moves: 0,
            mean_level: 0.5,
            worst_p99: 0.01,
            registry: None,
            trace: None,
        }
    }

    /// The flagged shard ids, ascending.
    fn flagged(report: &AnomalyReport) -> Vec<usize> {
        let mut ids: Vec<usize> = report.flagged.iter().map(|a| a.shard).collect();
        ids.sort();
        ids
    }

    /// A uniform fleet with one hot shard: only that shard is flagged.
    #[test]
    fn single_outlier_is_flagged() {
        let mut shards: Vec<ShardOutcome> = (0..32).map(|i| outcome(i, 0.01, 1 << 20, 0)).collect();
        shards[7].lc_violated_requests = 600.0; // 60 % violation rate
        let report = detect(&shards, &AnomalyConfig::default());
        assert_eq!(report.flagged.len(), 1);
        assert_eq!(report.flagged[0].shard, 7);
        assert!(report.max_score() >= 3.5);
    }

    /// A perfectly homogeneous fleet flags nothing — a zero MAD must
    /// not divide into spurious infinities.
    #[test]
    fn homogeneous_fleet_is_quiet() {
        let shards: Vec<ShardOutcome> = (0..16).map(|i| outcome(i, 0.02, 4096, 0)).collect();
        let report = detect(&shards, &AnomalyConfig::default());
        assert!(report.flagged.is_empty(), "{:?}", report.flagged);
        assert_eq!(report.max_score(), 0.0);
    }

    /// Failed moves separate cleanly: most of the fleet has exactly
    /// zero (collapsed MAD), so the materiality floor becomes the unit
    /// — shards with meaningful failure counts flag, a shard one or two
    /// failures above the median does not.
    #[test]
    fn failed_moves_flag_against_a_clean_fleet() {
        let mut shards: Vec<ShardOutcome> = (0..24)
            .map(|i| outcome(i, 0.01 + 0.001 * (i % 3) as f64, 1 << 20, 0))
            .collect();
        shards[3].failed_moves = 17;
        shards[4].failed_moves = 8;
        shards[5].failed_moves = 1; // below materiality: not an incident
        let report = detect(&shards, &AnomalyConfig::default());
        assert_eq!(flagged(&report), [3, 4]);
        // Highest score first; scores stay finite and JSON-safe.
        assert_eq!(report.flagged[0].shard, 3);
        assert!(report.flagged.iter().all(|a| a.score.is_finite()));
        assert!(report.flagged[0].failed_z <= SCORE_CAP);
    }

    /// Masking resistance: chaos on a quarter of the fleet cannot hide
    /// itself by inflating the spread (the MAD breakdown point is 50 %).
    #[test]
    fn robust_to_a_quarter_of_the_fleet_misbehaving() {
        let mut shards: Vec<ShardOutcome> = (0..32).map(|i| outcome(i, 0.01, 1 << 20, 0)).collect();
        for s in shards.iter_mut().take(8) {
            s.lc_violated_requests = 500.0;
            s.failed_moves = 40;
        }
        let report = detect(&shards, &AnomalyConfig::default());
        assert_eq!(flagged(&report), (0..8).collect::<Vec<_>>());
    }

    /// Quiet outliers (unusually *low* violation) are not incidents.
    #[test]
    fn low_side_deviations_are_ignored() {
        let mut shards: Vec<ShardOutcome> = (0..16).map(|i| outcome(i, 0.2, 1 << 20, 0)).collect();
        shards[5].lc_violated_requests = 0.0;
        let report = detect(&shards, &AnomalyConfig::default());
        assert!(!flagged(&report).contains(&5));
    }

    /// The status fragment is valid JSON-shaped text honoring top_k,
    /// and annotation records the `fleet.anomaly.*` metrics.
    #[test]
    fn report_renders_and_annotates() {
        let mut shards: Vec<ShardOutcome> = (0..16).map(|i| outcome(i, 0.01, 1 << 20, 0)).collect();
        shards[2].failed_moves = 30;
        shards[11].failed_moves = 9;
        let cfg = AnomalyConfig {
            top_k: 1,
            ..AnomalyConfig::default()
        };
        let report = detect(&shards, &cfg);
        let json = report.top_outliers_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"shard\":").count(), 1, "{json}");
        let mut reg = Registry::new();
        report.annotate(&mut reg);
        assert_eq!(reg.counter("fleet.anomaly.flagged"), 2);
        assert_eq!(
            reg.gauge("fleet.anomaly.max_score"),
            Some(report.max_score())
        );
        assert_eq!(
            reg.gauge_merge("fleet.anomaly.max_score"),
            Some(GaugeMerge::Max)
        );
    }

    /// Detection is a pure function of the outcomes.
    #[test]
    fn detection_is_deterministic() {
        let mut shards: Vec<ShardOutcome> = (0..20)
            .map(|i| outcome(i, 0.01 * (1 + i % 4) as f64, (i as u64) << 18, 0))
            .collect();
        shards[13].failed_moves = 3;
        let a = detect(&shards, &AnomalyConfig::default());
        let b = detect(&shards, &AnomalyConfig::default());
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.flagged, b.flagged);
    }

    #[test]
    fn empty_fleet_is_safe() {
        let report = detect(&[], &AnomalyConfig::default());
        assert!(report.scores.is_empty());
        assert!(report.flagged.is_empty());
        assert_eq!(report.max_score(), 0.0);
        assert_eq!(report.top_outliers_json(), "[]");
    }
}
