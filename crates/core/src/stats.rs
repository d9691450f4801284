//! Experiment metrics: time series, SLO accounting, fairness.

use mtat_tiermem::error::TierMemError;
use serde::{Deserialize, Serialize};

use crate::supervisor::DegradationState;

/// One simulation tick's observations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Simulation time at the start of the tick (seconds).
    pub t: f64,
    /// LC offered load this tick (requests/s, after burstiness).
    pub lc_load_rps: f64,
    /// LC P99 response time (seconds; may be infinite when saturated).
    pub lc_p99: f64,
    /// Whether the LC SLO was violated this tick.
    pub lc_violated: bool,
    /// Fraction of the LC resident set in FMem.
    pub lc_fmem_ratio: f64,
    /// FMem bytes held by each workload (LC first, then BEs).
    pub fmem_bytes: Vec<u64>,
    /// Instantaneous throughput of each BE workload (ops/s).
    pub be_throughput: Vec<f64>,
    /// Migration bandwidth consumed this tick (bytes/s).
    pub migration_bw: f64,
    /// Fast-tier bandwidth utilization seen this tick (0..1).
    pub fmem_bw_util: f64,
    /// Slow-tier bandwidth utilization seen this tick (0..1).
    pub smem_bw_util: f64,
    /// Degradation state reported by the policy this tick (`None` for
    /// unsupervised policies).
    pub degradation: Option<DegradationState>,
}

/// One SLO alert state transition, as recorded in the run summary.
///
/// A serializable mirror of [`mtat_obs::alert::AlertTransition`] —
/// states are carried as their lowercase labels so the record survives
/// serde round-trips without coupling the obs crate to serde.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Rule name (`slo_fast_burn`, ...).
    pub rule: String,
    /// Sim time of the transition (seconds).
    pub at_secs: f64,
    /// State label before (`inactive`/`pending`/`firing`).
    pub from: String,
    /// State label after.
    pub to: String,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

impl From<&mtat_obs::alert::AlertTransition> for AlertRecord {
    fn from(t: &mtat_obs::alert::AlertTransition) -> Self {
        Self {
            rule: t.rule.clone(),
            at_secs: t.at_secs,
            from: t.from.label().to_string(),
            to: t.to.label().to_string(),
            fast_burn: t.fast_burn,
            slow_burn: t.slow_burn,
        }
    }
}

impl AlertRecord {
    /// One-line JSON record (the alert-log JSONL format).
    #[must_use]
    pub fn to_json(&self) -> String {
        use mtat_obs::export::{json_f64, json_string};
        format!(
            "{{\"rule\":{},\"at_secs\":{},\"from\":{},\"to\":{},\
             \"fast_burn\":{},\"slow_burn\":{}}}",
            json_string(&self.rule),
            json_f64(self.at_secs),
            json_string(&self.from),
            json_string(&self.to),
            json_f64(self.fast_burn),
            json_f64(self.slow_burn),
        )
    }
}

/// The result of one co-location run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Policy name.
    pub policy: String,
    /// LC workload name.
    pub lc_name: String,
    /// BE workload names, in registration order.
    pub be_names: Vec<String>,
    /// Per-tick time series.
    pub ticks: Vec<TickRecord>,
    /// Total LC requests offered.
    pub lc_requests: f64,
    /// LC requests offered during SLO-violating ticks.
    pub lc_violated_requests: f64,
    /// Average achieved throughput per BE workload (ops/s).
    pub be_avg_throughput: Vec<f64>,
    /// `Perf_full` per BE workload (Eq. 3 denominator): throughput with
    /// exclusive access to all of FMem.
    pub be_perf_full: Vec<f64>,
    /// Total bytes migrated during the run (§5.5 overhead).
    pub total_migration_bytes: u64,
    /// Page moves that consumed bandwidth but failed under injected
    /// faults (0 in fault-free runs).
    pub failed_moves: u64,
    /// Previously failed page moves that enforcement retried.
    pub retried_moves: u64,
    /// Run length in seconds.
    pub duration_secs: f64,
    /// Tick length in seconds.
    pub tick_secs: f64,
    /// Self-healing accounting (`None` when the health subsystem is
    /// disabled for the run).
    pub health: Option<crate::health::HealthSummary>,
    /// SLO burn-rate alert transitions, in sim-time order (empty when
    /// no alert rules were armed). Deterministic across replays —
    /// timestamps included — because the engine runs on sim time only.
    #[serde(default)]
    pub alerts: Vec<AlertRecord>,
}

impl RunResult {
    /// The last tick of the run, or [`TierMemError::EmptyRun`] when the
    /// run produced no ticks (zero duration, or a tick length longer
    /// than the run). Prefer this over `ticks.last().unwrap()` in
    /// callers that inspect final state.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::EmptyRun`] when `ticks` is empty.
    pub fn final_tick(&self) -> Result<&TickRecord, TierMemError> {
        self.ticks.last().ok_or(TierMemError::EmptyRun)
    }

    /// Fraction of LC requests that arrived during SLO-violating ticks
    /// (the Table 4 metric).
    pub fn violation_rate(&self) -> f64 {
        if self.lc_requests <= 0.0 {
            0.0
        } else {
            self.lc_violated_requests / self.lc_requests
        }
    }

    /// Violation rate counting only ticks at or after `grace_secs`
    /// (allows adaptive policies their convergence window).
    pub fn violation_rate_after(&self, grace_secs: f64) -> f64 {
        let mut requests = 0.0;
        let mut violated = 0.0;
        for tick in &self.ticks {
            if tick.t >= grace_secs {
                let reqs = tick.lc_load_rps * self.tick_secs;
                requests += reqs;
                if tick.lc_violated {
                    violated += reqs;
                }
            }
        }
        if requests <= 0.0 {
            0.0
        } else {
            violated / requests
        }
    }

    /// Normalized performance `NP_i` (Eq. 3) per BE workload.
    pub fn np(&self) -> Vec<f64> {
        self.be_avg_throughput
            .iter()
            .zip(&self.be_perf_full)
            .map(|(&t, &f)| if f > 0.0 { t / f } else { 0.0 })
            .collect()
    }

    /// The paper's fairness metric: the smallest `NP_i` (§5.1).
    pub fn fairness(&self) -> f64 {
        self.np().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Sum of average BE throughputs (the Fig. 6b metric).
    pub fn be_total_throughput(&self) -> f64 {
        self.be_avg_throughput.iter().sum()
    }

    /// The worst LC P99 observed at or after `grace_secs`.
    pub fn worst_p99_after(&self, grace_secs: f64) -> f64 {
        self.ticks
            .iter()
            .filter(|t| t.t >= grace_secs)
            .map(|t| t.lc_p99)
            .fold(0.0, f64::max)
    }

    /// Mean LC FMem residency ratio over the run.
    pub fn mean_lc_fmem_ratio(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        self.ticks.iter().map(|t| t.lc_fmem_ratio).sum::<f64>() / self.ticks.len() as f64
    }

    /// Average migration bandwidth over the run (bytes/s) — the §5.5
    /// PP-E overhead number.
    pub fn avg_migration_bw(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            0.0
        } else {
            self.total_migration_bytes as f64 / self.duration_secs
        }
    }

    /// Fraction of ticks at or after `grace_secs` spent in a degraded
    /// (non-RL) state. 0.0 for unsupervised policies, whose ticks carry
    /// no degradation state at all.
    pub fn degraded_tick_fraction(&self, grace_secs: f64) -> f64 {
        let mut total = 0u64;
        let mut degraded = 0u64;
        for tick in &self.ticks {
            if tick.t >= grace_secs {
                total += 1;
                if matches!(
                    tick.degradation,
                    Some(DegradationState::Proportional) | Some(DegradationState::Static)
                ) {
                    degraded += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            degraded as f64 / total as f64
        }
    }

    /// The first time at or after `after_secs` at which the policy
    /// reports the nominal RL state, or `None` if it never recovers (or
    /// never reports a state). Subtracting the fault-clearance time
    /// gives the time-to-recover metric.
    pub fn first_rl_at_or_after(&self, after_secs: f64) -> Option<f64> {
        self.ticks
            .iter()
            .find(|t| t.t >= after_secs && t.degradation == Some(DegradationState::Rl))
            .map(|t| t.t)
    }

    /// Writes the per-tick time series as TSV (header + one row per
    /// tick), the format the plotting scripts and committed `results/`
    /// files use.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_tsv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "t\tlc_load_rps\tlc_p99_ms\tlc_violated\tlc_fmem_ratio")?;
        for name in std::iter::once(&self.lc_name).chain(&self.be_names) {
            write!(w, "\tfmem_{name}_bytes")?;
        }
        for name in &self.be_names {
            write!(w, "\tthr_{name}")?;
        }
        writeln!(w, "\tmigration_bw\tfmem_bw_util\tsmem_bw_util\tdegradation")?;
        for tick in &self.ticks {
            let p99_ms = if tick.lc_p99.is_finite() {
                tick.lc_p99 * 1e3
            } else {
                -1.0
            };
            write!(
                w,
                "{:.3}\t{:.3}\t{:.4}\t{}\t{:.4}",
                tick.t, tick.lc_load_rps, p99_ms, tick.lc_violated as u8, tick.lc_fmem_ratio
            )?;
            for &b in &tick.fmem_bytes {
                write!(w, "\t{b}")?;
            }
            for &thr in &tick.be_throughput {
                write!(w, "\t{thr:.1}")?;
            }
            writeln!(
                w,
                "\t{:.1}\t{:.4}\t{:.4}\t{}",
                tick.migration_bw,
                tick.fmem_bw_util,
                tick.smem_bw_util,
                tick.degradation.map_or("-", |d| d.label())
            )?;
        }
        Ok(())
    }

    /// FNV-1a-64 digest over the bit patterns of every tick record —
    /// any single-ULP divergence anywhere in the run changes the
    /// digest. This is the replay-identity check used by the soak and
    /// fleet harnesses: two runs of the same configuration must produce
    /// equal digests regardless of worker count, shard execution order,
    /// or whether observability was attached (instrumentation never
    /// feeds back into physics).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.ticks.len() * 64);
        for t in &self.ticks {
            bytes.extend_from_slice(&t.t.to_bits().to_le_bytes());
            bytes.extend_from_slice(&t.lc_load_rps.to_bits().to_le_bytes());
            bytes.extend_from_slice(&t.lc_p99.to_bits().to_le_bytes());
            bytes.push(u8::from(t.lc_violated));
            bytes.extend_from_slice(&t.lc_fmem_ratio.to_bits().to_le_bytes());
            for &b in &t.fmem_bytes {
                bytes.extend_from_slice(&b.to_le_bytes());
            }
            for &thr in &t.be_throughput {
                bytes.extend_from_slice(&thr.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(&t.migration_bw.to_bits().to_le_bytes());
        }
        mtat_snapshot::fnv1a64(&bytes)
    }

    /// The alert transition log as JSONL (one record per line; empty
    /// string when no rules were armed or none transitioned). This is
    /// the artifact format the soak harness dumps and CI uploads.
    #[must_use]
    pub fn alerts_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            out.push_str(&a.to_json());
            out.push('\n');
        }
        out
    }

    /// The TSV time series as a `String` (see [`Self::write_tsv`]).
    pub fn to_tsv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_tsv(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("TSV output is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        let mk = |t: f64, violated: bool, load: f64| TickRecord {
            t,
            lc_load_rps: load,
            lc_p99: if violated { 1.0 } else { 1e-3 },
            lc_violated: violated,
            lc_fmem_ratio: 0.5,
            fmem_bytes: vec![0, 0, 0],
            be_throughput: vec![50.0, 100.0],
            migration_bw: 0.0,
            fmem_bw_util: 0.0,
            smem_bw_util: 0.0,
            degradation: None,
        };
        RunResult {
            policy: "test".into(),
            lc_name: "redis".into(),
            be_names: vec!["a".into(), "b".into()],
            ticks: vec![
                mk(0.0, true, 100.0),
                mk(1.0, false, 100.0),
                mk(2.0, false, 100.0),
                mk(3.0, true, 100.0),
            ],
            lc_requests: 400.0,
            lc_violated_requests: 200.0,
            be_avg_throughput: vec![50.0, 100.0],
            be_perf_full: vec![100.0, 400.0],
            total_migration_bytes: 8_000_000_000,
            failed_moves: 0,
            retried_moves: 0,
            duration_secs: 4.0,
            tick_secs: 1.0,
            health: None,
            alerts: Vec::new(),
        }
    }

    #[test]
    fn violation_rates() {
        let r = result();
        assert!((r.violation_rate() - 0.5).abs() < 1e-12);
        // After t >= 1: one violating tick of three.
        assert!((r.violation_rate_after(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.violation_rate_after(100.0), 0.0);
    }

    #[test]
    fn fairness_is_min_np() {
        let r = result();
        let np = r.np();
        assert!((np[0] - 0.5).abs() < 1e-12);
        assert!((np[1] - 0.25).abs() < 1e-12);
        assert!((r.fairness() - 0.25).abs() < 1e-12);
        assert!((r.be_total_throughput() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates() {
        let r = result();
        assert_eq!(r.worst_p99_after(0.0), 1.0);
        assert_eq!(r.worst_p99_after(1.0), 1.0);
        assert!((r.mean_lc_fmem_ratio() - 0.5).abs() < 1e-12);
        assert!((r.avg_migration_bw() - 2e9).abs() < 1e-3);
    }

    #[test]
    fn tsv_export_shape() {
        let r = result();
        let tsv = r.to_tsv_string();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 1 + r.ticks.len());
        let header_cols = lines[0].split('\t').count();
        for line in &lines[1..] {
            assert_eq!(line.split('\t').count(), header_cols, "{line}");
        }
        assert!(lines[0].contains("fmem_redis_bytes"));
        assert!(lines[0].contains("thr_a"));
        // Violated ticks flagged.
        assert!(lines[1].split('\t').nth(3) == Some("1"));
    }

    #[test]
    fn degradation_helpers() {
        let mut r = result();
        // Unsupervised: no state anywhere.
        assert_eq!(r.degraded_tick_fraction(0.0), 0.0);
        assert_eq!(r.first_rl_at_or_after(0.0), None);
        // Demoted at t=1..2, recovered at t=3.
        r.ticks[0].degradation = Some(DegradationState::Rl);
        r.ticks[1].degradation = Some(DegradationState::Proportional);
        r.ticks[2].degradation = Some(DegradationState::Static);
        r.ticks[3].degradation = Some(DegradationState::Rl);
        assert!((r.degraded_tick_fraction(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(r.first_rl_at_or_after(1.0), Some(3.0));
        assert_eq!(r.first_rl_at_or_after(4.0), None);
        // The TSV column renders the labels.
        let tsv = r.to_tsv_string();
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].ends_with("\tdegradation"));
        assert!(lines[1].ends_with("\trl"));
        assert!(lines[2].ends_with("\tproportional"));
        assert!(lines[3].ends_with("\tstatic"));
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let r = result();
        let d = r.digest();
        assert_eq!(d, r.clone().digest(), "digest must be deterministic");
        let mut nudged = r.clone();
        nudged.ticks[2].lc_p99 = f64::from_bits(nudged.ticks[2].lc_p99.to_bits() ^ 1);
        assert_ne!(d, nudged.digest(), "a single-ULP change must be visible");
        let mut flagged = r;
        flagged.ticks[1].lc_violated = true;
        assert_ne!(d, flagged.digest());
    }

    #[test]
    fn empty_run_is_safe() {
        let mut r = result();
        r.ticks.clear();
        r.lc_requests = 0.0;
        r.duration_secs = 0.0;
        assert_eq!(r.violation_rate(), 0.0);
        assert_eq!(r.mean_lc_fmem_ratio(), 0.0);
        assert_eq!(r.avg_migration_bw(), 0.0);
        assert!(matches!(r.final_tick(), Err(TierMemError::EmptyRun)));
    }

    #[test]
    fn final_tick_returns_last() {
        let r = result();
        let last = r.final_tick().expect("nonempty run");
        assert_eq!(last.t, 3.0);
    }
}
