//! One benchmark run of one workload: set-up, warm-up, timed
//! repetitions, an optional traced repetition, and the output checks.
//!
//! Every layer is timed from outside, by timing calls into public
//! functions: [`TimedPolicy`] around the policy, `Experiment::try_run`,
//! the policy constructors (SAC pretraining), `Fleet::plan`,
//! `Fleet::run_with_progress` with a per-worker completion timestamp
//! per shard, and `anomaly::detect`. The traced repetition reads the
//! spans and counters the program already emits.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use mtat_bench::trace::{parse_trace, phase_totals, PhaseTotal};
use mtat_core::runner::Experiment;
use mtat_core::stats::RunResult;
use mtat_fleet::anomaly::{self, AnomalyConfig};
use mtat_fleet::{Fleet, FleetResult};
use mtat_obs::registry::Registry;
use mtat_obs::span::SpanRecord;
use mtat_obs::Obs;

use crate::affinity::Cpus;
use crate::catalog::{Metric, PER_LAYER};
use crate::reference::{self, Reference};
use crate::stats::{median, nearest_rank, tail, Summary};
use crate::timed::{PolicyLog, TimedPolicy};
use crate::workload::{
    fleet_config, host_experiment, host_policy, with_telemetry, Workload, DEFAULT_SEED,
    FLEET_SHARDS, FLEET_TICKS, FLEET_WARMUP_SHARDS, WARMUP_TICKS,
};

/// Timed repetitions a run makes at least, whatever `--seconds` says:
/// every run checks same-seed replay, and each tick's host time is the
/// best of at least five. A tick's best stays slow only when bursts of
/// interference hit all its repetitions, so with a burst share `p` of
/// the machine's time about `p^5` of the ticks are slow: under 1 % (the
/// p99) up to `p` = 0.4, where three repetitions allow only 0.2.
pub const MIN_REPS: usize = 5;

/// Set-ups timed in the round that follows each timed repetition, on
/// the repetition's CPU, so that the rounds spread over the run as the
/// repetitions do. The set-ups are warm: the run's cold start has
/// pretrained the MTAT workloads' SAC agent, which the MTAT
/// constructor caches per process, and the repetitions have grown
/// glibc's thresholds for returning freed memory to the kernel. So
/// `setup_s` excludes pretraining, which is offline in the paper's
/// prototype and timed on its own (`rl.pretrain_s`): a run has time
/// for one pretraining only, and its seconds of floating-point work
/// moved by a quarter between quiet and busy periods of a shared
/// machine.
const SETUPS_PER_ROUND: usize = 7;

/// What the command line asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: the warm-up, set-up rounds, timed
    /// repetitions (plus the traced one), or for the fleet the shards
    /// of each repetition.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics: each reported value (in the summary's
    /// `median`) with the quartiles of its per-repetition or per-set-up
    /// values and the number of samples behind it.
    pub end_to_end: Vec<(Metric, Summary)>,
    /// Per-layer metrics (traced runs only); a layer the workload does
    /// not run is absent.
    pub per_layer: Vec<(Metric, f64)>,
    /// Timed repetitions made.
    pub reps: usize,
    /// Set-up rounds behind `setup_s`.
    pub setup_rounds: usize,
    /// Digest of the first repetition's output (the fleet's aggregate
    /// digest for `fleet_tiny`).
    pub digest: u64,
    /// SLO violation rate of the first repetition.
    pub violation_rate: f64,
    /// Best-effort throughput of the first repetition, Mops/s.
    pub be_mops: f64,
    /// Traced self time per tick of each stage, µs (traced runs only).
    pub stages_us_per_tick: Vec<(String, f64)>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn record(&mut self, name: &str, values: &[f64]) {
        let metric = crate::catalog::metric(name).expect("catalogued metric");
        let summary = Summary::of(values).unwrap_or(Summary {
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            n: 0,
        });
        self.end_to_end.push((metric, summary));
    }

    /// Records a metric whose value combines all `n` samples of the run,
    /// with quartiles over the per-repetition values.
    fn record_combined(&mut self, name: &str, per_rep: &[f64], value: Option<f64>, n: usize) {
        self.record(name, per_rep);
        if let Some((_, s)) = self.end_to_end.last_mut() {
            s.median = value.unwrap_or(f64::NAN);
            s.n = n;
        }
    }

    fn layer(&mut self, name: &str, value: f64) {
        let metric = crate::catalog::metric(name).expect("catalogued metric");
        self.per_layer.push((metric, value));
    }

    /// Fails a traced repetition that left a metric of [`PER_LAYER`],
    /// which every workload measures, unmeasured.
    fn check_layers(&mut self) {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.per_layer.iter().any(|(g, _)| g.name == *n))
            .collect();
        if !missing.is_empty() {
            self.fail(format!("traced rep measured no {}", missing.join(", ")));
        }
    }
}

/// Runs `f`, turning an error or a panic into a message.
fn guarded<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .map_or_else(|| "panic".to_string(), |s| format!("panic: {s}"))),
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Peak resident set of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Worker threads for the fleet: one per available core.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the request.
#[must_use]
pub fn measure(req: &Request) -> Outcome {
    if req.workload == Workload::FleetTiny {
        measure_fleet(req)
    } else {
        measure_host(req)
    }
}

/// One set-up, timed step by step.
#[derive(Debug)]
pub struct ColdStart {
    /// Inputs generated, policy built, runner set up: until the policy's
    /// first `on_tick` (single host), or until the fleet is planned.
    pub setup_s: f64,
    /// Policy construction (SAC pretraining for MTAT).
    pub pretrain_s: f64,
    /// `try_run` entry to `Policy::init`: the runner's page-table build.
    pub runner_setup_ms: f64,
    /// `Policy::init` duration.
    pub init_ms: f64,
    /// `Fleet::plan` alone (fleet only).
    pub plan_ms: f64,
    /// The warm-up run, or the failure that ended it.
    pub warmup: Result<(), String>,
}

/// Generates `w`'s inputs, builds its policy and runs `ticks` ticks
/// (single host), or plans its fleet, timing each step.
#[must_use]
pub fn cold_start(w: Workload, seed: u64, ticks: u64) -> ColdStart {
    let t0 = Instant::now();
    if w == Workload::FleetTiny {
        let cfg = fleet_config(seed, FLEET_SHARDS);
        let tp = Instant::now();
        let plan = Fleet::plan(cfg);
        return ColdStart {
            setup_s: secs(t0),
            pretrain_s: 0.0,
            runner_setup_ms: 0.0,
            init_ms: 0.0,
            plan_ms: secs(tp) * 1e3,
            warmup: plan.map(|_| ()).map_err(|e| e.to_string()),
        };
    }
    let exp = host_experiment(w, seed);
    let duration = ticks as f64 * exp.cfg.tick_secs;
    let exp = exp.with_duration(duration);
    let tp = Instant::now();
    let mut policy = TimedPolicy::new(host_policy(w, &exp));
    let pretrain_s = secs(tp);
    let entry = Instant::now();
    let run = guarded(|| exp.try_run(&mut policy));
    let log = policy.into_log();
    let first_tick = log.tick_entries.first().copied();
    ColdStart {
        setup_s: first_tick.map_or(f64::NAN, |t| t.duration_since(t0).as_secs_f64()),
        pretrain_s,
        runner_setup_ms: log
            .init_at
            .map_or(f64::NAN, |t| t.duration_since(entry).as_secs_f64() * 1e3),
        init_ms: log.init_ns as f64 / 1e6,
        plan_ms: 0.0,
        warmup: run.map(|_| ()),
    }
}

/// The set-up rounds of a run, `setup_s`'s samples: each round's
/// set-up times, s.
#[derive(Default)]
struct SetupRounds(Vec<Vec<f64>>);

impl SetupRounds {
    /// Times [`SETUPS_PER_ROUND`] set-ups in this process on the `i`-th
    /// of `cpus`, counting the round as one operation.
    fn run(&mut self, w: Workload, seed: u64, cpus: &Cpus, i: usize, out: &mut Outcome) {
        out.attempted += 1;
        let round: Result<Vec<f64>, String> = cpus.run_on(i, || {
            (0..SETUPS_PER_ROUND)
                .map(|_| {
                    let c = cold_start(w, seed, 1);
                    c.warmup.map(|()| c.setup_s)
                })
                .collect()
        });
        match round {
            Ok(r) => self.0.push(r),
            Err(e) => out.fail(format!("set-up round {i}: {e}")),
        }
    }

    /// Records `setup_s`: each set-up of a round takes its fastest
    /// round's time, as each tick takes its fastest repetition's, and
    /// `setup_s` is the median of those, with quartiles over the rounds'
    /// medians.
    fn record(&self, out: &mut Outcome) {
        let per_round: Vec<f64> = self.0.iter().filter_map(|r| median(r)).collect();
        let n = self.0.iter().map(Vec::len).sum();
        out.record_combined("setup_s", &per_round, median(&best_of(&self.0)), n);
        out.setup_rounds = self.0.len();
    }
}

struct HostRep {
    run: Result<RunResult, String>,
    log: PolicyLog,
    obs: Obs,
}

/// Host time of every tick of a repetition but the last, µs, in tick
/// order.
fn gaps_us(log: &PolicyLog) -> Vec<f64> {
    log.tick_gaps_ns()
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect()
}

/// For each item (a tick, or a fleet shard), the fastest of its
/// repetitions. The repetitions replay identical work, so a slower
/// repetition of an item measured interference from other tenants of
/// the machine, not the simulator; such interference comes in bursts of
/// seconds to minutes and often covers most of a run.
fn best_of(reps: &[Vec<f64>]) -> Vec<f64> {
    let n = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Ticks per host second of ticks taking `tick_us` µs each.
fn tick_rate(tick_us: &[f64]) -> Option<f64> {
    let total: f64 = tick_us.iter().sum();
    (total > 0.0).then(|| tick_us.len() as f64 / total * 1e6)
}

/// Records `ticks_per_s` and `tick_p50_us`, and in a traced run the
/// per-layer `tick_p99_us`, from each repetition's per-tick host times,
/// µs, in tick order. Each tick takes its fastest repetition's time;
/// the quartiles are over the repetitions' own values. `workers` ticks
/// run at once (the fleet's worker threads).
fn record_ticks(out: &mut Outcome, reps: &[Vec<f64>], workers: f64, traced: bool) {
    let rate = |tick_us: &[f64]| tick_rate(tick_us).map(|r| r * workers);
    let best = best_of(reps);
    let rates: Vec<f64> = reps.iter().filter_map(|t| rate(t)).collect();
    out.record_combined("ticks_per_s", &rates, rate(&best), best.len());
    let best = sorted(best);
    let p50s: Vec<f64> = reps
        .iter()
        .filter_map(|t| nearest_rank(&sorted(t.clone()), 50.0))
        .collect();
    out.record_combined("tick_p50_us", &p50s, nearest_rank(&best, 50.0), best.len());
    if traced {
        out.layer("tick_p99_us", nearest_rank(&best, 99.0).unwrap_or(0.0));
    }
}

fn host_rep(w: Workload, exp: &Experiment, traced: bool) -> HostRep {
    let exp = with_telemetry(w, exp.clone(), traced);
    let obs = exp.obs.clone().unwrap_or_default();
    let mut policy = TimedPolicy::new(host_policy(w, &exp));
    let run = guarded(|| exp.try_run(&mut policy));
    HostRep {
        run,
        log: policy.into_log(),
        obs,
    }
}

/// Output checks every single-host repetition must pass; `None` when it
/// does.
fn check_host(w: Workload, seed: u64, r: &RunResult, ticks: usize, digest: u64) -> Option<String> {
    if r.ticks.len() != ticks {
        return Some(format!("{} ticks, expected {ticks}", r.ticks.len()));
    }
    // P99 is legitimately infinite while a queue is saturated; every
    // other output must be finite.
    let finite = r.violation_rate().is_finite()
        && r.be_total_throughput().is_finite()
        && r.ticks.iter().all(|t| {
            t.lc_load_rps.is_finite()
                && t.lc_fmem_ratio.is_finite()
                && t.migration_bw.is_finite()
                && t.be_throughput.iter().all(|v| v.is_finite())
        });
    if !finite {
        return Some("non-finite output".into());
    }
    if r.digest() != digest {
        return Some(format!("digest {:016x} != {digest:016x}", r.digest()));
    }
    if w == Workload::HealStorm {
        match &r.health {
            Some(h) if h.unrecovered == 0 && h.final_audit_ok => {}
            Some(h) => {
                return Some(format!(
                    "unrecovered {} final_audit_ok {}",
                    h.unrecovered, h.final_audit_ok
                ))
            }
            None => return Some("no health summary".into()),
        }
    }
    reference::check(w, seed, r.violation_rate(), r.be_total_throughput() / 1e6).err()
}

fn measure_host(req: &Request) -> Outcome {
    let w = req.workload;
    let mut out = Outcome::default();
    let cold = cold_start(w, req.seed, WARMUP_TICKS);
    out.attempted += 1;
    if let Err(e) = &cold.warmup {
        out.fail(format!("warm-up: {e}"));
    }
    let exp = host_experiment(w, req.seed);
    let ticks = (exp.duration_secs / exp.cfg.tick_secs).round() as usize;
    // Each repetition is checked as it ends and only its timings are
    // kept, so the peak resident set does not grow with the repetitions.
    let mut logs: Vec<PolicyLog> = Vec::new();
    let mut digest = None;
    let mut rounds = SetupRounds::default();
    // Time spent in repetitions, set-up rounds excluded.
    let mut measured = 0.0;
    // Successive repetitions run on successive CPUs (see `affinity`).
    let cpus = Cpus::allowed();
    while out.reps < MIN_REPS || measured < req.seconds {
        let i = out.reps;
        let t_rep = Instant::now();
        let rep = cpus.run_on(i, || host_rep(w, &exp, false));
        measured += secs(t_rep);
        out.reps += 1;
        out.attempted += 1;
        match rep.run {
            Err(e) => out.fail(format!("rep {i}: {e}")),
            Ok(r) => {
                let d = *digest.get_or_insert_with(|| {
                    out.violation_rate = r.violation_rate();
                    out.be_mops = r.be_total_throughput() / 1e6;
                    r.digest()
                });
                if let Some(e) = check_host(w, req.seed, &r, ticks, d) {
                    out.fail(format!("rep {i}: {e}"));
                }
                logs.push(rep.log);
            }
        }
        rounds.run(w, req.seed, &cpus, i, &mut out);
    }
    let peak_rss = peak_rss_mib();
    out.digest = digest.unwrap_or(0);

    let rep_gaps: Vec<Vec<f64>> = logs.iter().map(gaps_us).collect();
    record_ticks(&mut out, &rep_gaps, 1.0, req.trace);
    rounds.record(&mut out);
    out.record("peak_rss_mib", &[peak_rss]);

    if req.trace {
        let traced = host_rep(w, &exp, true);
        host_layers(
            w, req.seed, &cold, &logs, &traced, ticks, out.digest, &mut out,
        );
    }
    out
}

/// Per-layer counts read straight from the program's registry counters.
const COUNTS: [(&str, &str); 7] = [
    ("migration.failed_pages", "tiermem.migration.failed_pages"),
    ("migration.retried_pages", "tiermem.migration.retried_pages"),
    ("ckpt.saves", "ckpt.saves"),
    ("ckpt.restores", "runner.ppm_restarts"),
    ("health.rollbacks", "health.rollbacks"),
    ("health.repairs", "health.repairs"),
    ("scenario.phases", "runner.scenario_phases"),
];

/// Span self time and count by stage name.
struct Stages(Vec<PhaseTotal>);

impl Stages {
    fn of(spans: &[SpanRecord]) -> Self {
        Self(phase_totals(spans))
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.self_ns as f64)
    }

    fn count(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.count as f64)
    }

    /// Self time of every stage, ns: the run's wall time as the spans
    /// account for it.
    fn total_self_ns(&self) -> f64 {
        self.0.iter().map(|t| t.self_ns as f64).sum()
    }

    /// Per-tick layer metrics shared by the single-host and fleet traces.
    fn record(&self, ticks: f64, reg: &Registry, out: &mut Outcome) {
        let per_tick_us = |name: &str| self.self_ns(name) / ticks / 1e3;
        let events = reg.counter("tiermem.sampler.events") as f64;
        out.layer("sample.self_us_per_tick", per_tick_us("sample"));
        out.layer("sample.events_per_tick", events / ticks);
        if events > 0.0 {
            out.layer("sample.ns_per_event", self.self_ns("sample") / events);
        }
        out.layer("track.self_us_per_tick", per_tick_us("track"));
        out.layer("ppe.enforce_self_us_per_tick", per_tick_us("ppe-enforce"));
        for (metric, stage) in [
            ("ppe.adjust_us_per_tick", "adjust"),
            ("ppe.refine_us_per_tick", "refine"),
        ] {
            if self.count(stage) > 0.0 {
                out.layer(metric, per_tick_us(stage));
            }
        }
        let plans = self.count("ppm-plan");
        out.layer("ppm.plans", plans);
        for (metric, stage) in [
            ("ppm.plan_self_us_per_plan", "ppm-plan"),
            ("ppm.sac_forward_us_per_plan", "sac-forward"),
            ("ppm.anneal_us_per_plan", "anneal"),
        ] {
            if plans > 0.0 && self.count(stage) > 0.0 {
                out.layer(metric, self.self_ns(stage) / plans / 1e3);
            }
        }
        let calls = self.count("migrate");
        if calls > 0.0 {
            out.layer("migrate.self_ns_per_call", self.self_ns("migrate") / calls);
        }
        out.layer("migrate.calls_per_tick", calls / ticks);
        let requested = reg.counter("tiermem.migration.requested_pages") as f64;
        if requested > 0.0 {
            let granted = reg.counter("tiermem.migration.granted_pages") as f64;
            out.layer("migration.granted_ratio", granted / requested);
        }
        for (metric, counter) in COUNTS {
            out.layer(metric, reg.counter(counter) as f64);
        }
        out.layer("runner.tick_self_us_per_tick", per_tick_us("tick"));
        out.stages_us_per_tick = self
            .0
            .iter()
            .filter(|t| t.name != "run")
            .map(|t| (t.name.clone(), t.self_ns as f64 / ticks / 1e3))
            .collect();
    }
}

/// Per-layer metrics of a single-host run: the policy wrapper's timings
/// over the timed repetitions, then one traced repetition.
#[allow(clippy::too_many_arguments)]
fn host_layers(
    w: Workload,
    seed: u64,
    cold: &ColdStart,
    logs: &[PolicyLog],
    traced: &HostRep,
    ticks: usize,
    digest: u64,
    out: &mut Outcome,
) {
    out.layer("rl.pretrain_s", cold.pretrain_s);
    out.layer("runner.setup_ms", cold.runner_setup_ms);
    out.layer("policy.init_ms", cold.init_ms);

    let mut on_tick: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.on_tick_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    on_tick.sort_by(f64::total_cmp);
    if !on_tick.is_empty() {
        out.layer(
            "policy.on_tick_us_per_tick",
            on_tick.iter().sum::<f64>() / on_tick.len() as f64,
        );
        out.layer(
            "policy.on_tick_p99_us",
            nearest_rank(&on_tick, 99.0).unwrap_or(0.0),
        );
    }
    let (mut gap_ns, mut inside_ns, mut gaps) = (0.0, 0.0, 0.0);
    for l in logs {
        let g = l.tick_gaps_ns();
        gap_ns += g.iter().sum::<u64>() as f64;
        inside_ns += l.on_tick_ns[..g.len()].iter().sum::<u64>() as f64;
        gaps += g.len() as f64;
    }
    if gaps > 0.0 {
        out.layer(
            "runner.outside_policy_us_per_tick",
            (gap_ns - inside_ns) / gaps / 1e3,
        );
    }
    let probes: u64 = logs.iter().map(|l| l.probes).sum();
    let probe_ns: u64 = logs.iter().map(|l| l.probe_ns).sum();
    let all_ticks = (ticks * logs.len()) as f64;
    if all_ticks > 0.0 && probes > 0 {
        out.layer("health.probe_ns_per_tick", probe_ns as f64 / all_ticks);
    }
    let sorted_us = |f: &dyn Fn(&PolicyLog) -> &Vec<u64>| -> Vec<f64> {
        let mut v: Vec<f64> = logs
            .iter()
            .flat_map(|l| f(l).iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let saves = sorted_us(&|l| &l.checkpoint_ns);
    let restores = sorted_us(&|l| &l.restart_ns);
    for (prefix, samples) in [("ckpt.save", &saves), ("ckpt.restore", &restores)] {
        if let Some(p50) = nearest_rank(samples, 50.0) {
            out.layer(&format!("{prefix}_p50_us"), p50);
        }
        if let Some((pct, v)) = tail(samples) {
            out.layer(&format!("{prefix}_tail_pct"), pct);
            out.layer(&format!("{prefix}_tail_us"), v);
        }
    }
    let bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.checkpoint_bytes.iter().map(|&b| b as f64 / 1024.0))
        .collect();
    if let Some(kib) = median(&bytes) {
        out.layer("ckpt.payload_kib", kib);
    }

    out.attempted += 1;
    let r = match &traced.run {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("traced rep: {e}"));
            return;
        }
    };
    if let Some(e) = check_host(w, seed, r, ticks, digest) {
        out.fail(format!("traced rep: {e}"));
    }
    // One traced repetition against a typical untraced one.
    let rates: Vec<f64> = logs.iter().filter_map(|l| tick_rate(&gaps_us(l))).collect();
    let traced_gaps = gaps_us(&traced.log);
    if let (Some(plain), Some(traced)) = (median(&rates), tick_rate(&traced_gaps)) {
        out.layer("obs.trace_overhead_pct", (plain - traced) / plain * 100.0);
    }
    let (spans, dropped) = traced
        .obs
        .with_tracer(|t| (t.spans().to_vec(), t.dropped()))
        .unwrap_or_default();
    out.layer("obs.dropped_spans", dropped as f64);
    let reg = traced.obs.with_registry(Clone::clone).unwrap_or_default();
    let stages = Stages::of(&spans);
    stages.record(ticks as f64, &reg, out);
    // The spans' account of a tick against its wall time measured from
    // outside (the mean gap between `on_tick` entries).
    if !traced_gaps.is_empty() {
        let wall_us = traced_gaps.iter().sum::<f64>() / traced_gaps.len() as f64;
        let spans_us = (stages.total_self_ns() - stages.self_ns("run")) / ticks as f64 / 1e3;
        out.layer("trace.stage_sum_pct", spans_us / wall_us * 100.0);
    }
    out.check_layers();
}

/// The timings of one fleet repetition.
struct FleetRep {
    wall_s: f64,
    /// Host time of each shard, ns, indexed by shard id.
    shard_ns: Vec<u64>,
    anomaly_ms: f64,
}

impl FleetRep {
    /// Each shard's host time per tick, µs, by shard id.
    fn tick_us(&self) -> Vec<f64> {
        self.shard_ns
            .iter()
            .map(|&ns| ns as f64 / FLEET_TICKS as f64 / 1e3)
            .collect()
    }
}

/// Runs the fleet on `workers` threads. Each shard's host time is the
/// gap between its completion and the previous completion on the same
/// worker thread (or the run's start): a worker runs its shards one
/// after another.
fn fleet_rep(fleet: &Fleet, workers: usize) -> (FleetRep, Result<FleetResult, String>) {
    let n = fleet.config().n_shards;
    let marks = Mutex::new(Vec::with_capacity(n));
    let t0 = Instant::now();
    let result = guarded(|| {
        Ok::<_, String>(fleet.run_with_progress(workers, &|_, o| {
            let at = Instant::now();
            marks.lock().expect("completion log poisoned").push((
                std::thread::current().id(),
                o.shard,
                at,
            ));
        }))
    });
    let wall_s = secs(t0);
    let mut marks = marks.into_inner().expect("completion log poisoned");
    marks.sort_by_key(|&(_, _, at)| at);
    let mut shard_ns = vec![0u64; n];
    let mut last = HashMap::new();
    for (tid, shard, at) in marks {
        let prev = last.insert(tid, at).unwrap_or(t0);
        shard_ns[shard] = u64::try_from(at.duration_since(prev).as_nanos()).unwrap_or(u64::MAX);
    }
    let t_anomaly = Instant::now();
    if let Ok(r) = &result {
        std::hint::black_box(anomaly::detect(&r.shards, &AnomalyConfig::default()));
    }
    let rep = FleetRep {
        wall_s,
        anomaly_ms: secs(t_anomaly) * 1e3,
        shard_ns,
    };
    (rep, result)
}

/// Checks every shard of a fleet repetition against the first
/// repetition's digests, counting each shard as one operation.
fn check_fleet(
    result: &Result<FleetResult, String>,
    digests: &[u64],
    seed: u64,
    tag: &str,
    out: &mut Outcome,
) {
    let n = FLEET_SHARDS;
    out.attempted += n as u64;
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            out.failed += n as u64;
            out.failures.push(format!("{tag}: all {n} shards: {e}"));
            return;
        }
    };
    // A fleet outside the reference band fails as a whole.
    if let Err(e) = reference::check(
        Workload::FleetTiny,
        seed,
        r.violation_rate(),
        r.be_total_throughput() / 1e6,
    ) {
        out.failed += n as u64;
        out.failures.push(format!("{tag}: all {n} shards: {e}"));
        return;
    }
    for (s, &digest) in r.shards.iter().zip(digests) {
        let ticks = FLEET_TICKS;
        let problem = if s.ticks != ticks {
            Some(format!("{} ticks, expected {ticks}", s.ticks))
        } else if ![
            s.lc_requests,
            s.lc_violated_requests,
            s.be_throughput,
            s.mean_level,
        ]
        .iter()
        .all(|v| v.is_finite())
        {
            Some("non-finite output".into())
        } else if s.digest != digest {
            Some(format!("digest {:016x} != {digest:016x}", s.digest))
        } else {
            None
        };
        if let Some(p) = problem {
            out.fail(format!("{tag}: shard {}: {p}", s.shard));
        }
    }
    if r.shards.len() != n {
        out.fail(format!("{tag}: {} shards, expected {n}", r.shards.len()));
    }
}

fn measure_fleet(req: &Request) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let cold = cold_start(Workload::FleetTiny, req.seed, 0);
    out.attempted += 1;
    if let Err(e) = &cold.warmup {
        out.fail(format!("plan: {e}"));
        return out;
    }
    let plan = |cfg| Fleet::plan(cfg).expect("the fleet planned above");
    let fleet = plan(fleet_config(req.seed, FLEET_SHARDS));
    let _ = plan(fleet_config(req.seed, FLEET_WARMUP_SHARDS)).run(workers);

    // As on a single host, each repetition is checked as it ends and
    // only its timings are kept. The repetitions are not pinned: the
    // workers use every CPU. The set-up rounds, which plan on one
    // thread, are.
    let mut done: Vec<FleetRep> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut rounds = SetupRounds::default();
    let cpus = Cpus::allowed();
    let mut measured = 0.0;
    while out.reps < MIN_REPS || measured < req.seconds {
        let (times, result) = fleet_rep(&fleet, workers);
        measured += times.wall_s;
        let i = out.reps;
        out.reps += 1;
        if let (Ok(r), true) = (&result, digests.is_empty()) {
            out.digest = r.aggregate_digest;
            out.violation_rate = r.violation_rate();
            out.be_mops = r.be_total_throughput() / 1e6;
            digests = r.shards.iter().map(|s| s.digest).collect();
        }
        check_fleet(&result, &digests, req.seed, &format!("rep {i}"), &mut out);
        if result.is_ok() {
            done.push(times);
        }
        drop(result);
        rounds.run(Workload::FleetTiny, req.seed, &cpus, i, &mut out);
    }
    let peak_rss = peak_rss_mib();

    let rep_ticks: Vec<Vec<f64>> = done.iter().map(FleetRep::tick_us).collect();
    record_ticks(&mut out, &rep_ticks, workers as f64, req.trace);
    rounds.record(&mut out);
    out.record("peak_rss_mib", &[peak_rss]);

    if !req.trace {
        return out;
    }
    // Shard-ticks per second over all workers, each shard's tick taking
    // `tick_us` µs.
    let rate = |tick_us: &[f64]| tick_rate(tick_us).map(|r| r * workers as f64);
    let rates: Vec<f64> = rep_ticks.iter().filter_map(|t| rate(t)).collect();
    let best = sorted(best_of(&rep_ticks));
    out.layer("fleet.plan_ms", cold.plan_ms);
    let busy: Vec<f64> = done
        .iter()
        .map(|r| r.shard_ns.iter().sum::<u64>() as f64 / 1e9 / (workers as f64 * r.wall_s) * 100.0)
        .collect();
    out.layer("fleet.worker_busy_pct", median(&busy).unwrap_or(0.0));
    let anomaly: Vec<f64> = done.iter().map(|r| r.anomaly_ms).collect();
    out.layer("fleet.anomaly_ms", median(&anomaly).unwrap_or(0.0));
    let shard_ms: Vec<f64> = best
        .iter()
        .map(|us| us * FLEET_TICKS as f64 / 1e3)
        .collect();
    out.layer(
        "fleet.shard_p50_ms",
        nearest_rank(&shard_ms, 50.0).unwrap_or(0.0),
    );
    out.layer(
        "fleet.shard_p99_ms",
        nearest_rank(&shard_ms, 99.0).unwrap_or(0.0),
    );

    // The traced repetition: fleet-wide metrics, a span trace of shard 0.
    let mut cfg = fleet_config(req.seed, FLEET_SHARDS);
    cfg.metrics = true;
    cfg.trace_shard = Some(0);
    let (traced, result) = fleet_rep(&plan(cfg), workers);
    check_fleet(&result, &digests, req.seed, "traced rep", &mut out);
    let Ok(r) = &result else { return out };
    if let (Some(plain), Some(traced_rate)) = (median(&rates), rate(&traced.tick_us())) {
        out.layer(
            "obs.trace_overhead_pct",
            (plain - traced_rate) / plain * 100.0,
        );
    }
    match r
        .shards
        .first()
        .and_then(|s| s.trace.as_deref())
        .map(parse_trace)
    {
        Some(Ok(doc)) => {
            out.layer("obs.dropped_spans", doc.dropped_spans as f64);
            // Span metrics come from shard 0; counters are fleet-wide, so
            // they are scaled to one shard's ticks.
            let mut reg = Registry::new();
            let scale = r.shards.len().max(1) as u64;
            let scaled = [
                "tiermem.sampler.events",
                "tiermem.migration.requested_pages",
                "tiermem.migration.granted_pages",
            ];
            for name in scaled.into_iter().chain(COUNTS.map(|(_, c)| c)) {
                reg.counter_add(name, r.registry.counter(name) / scale);
            }
            let stages = Stages::of(&doc.spans);
            stages.record(FLEET_TICKS as f64, &reg, &mut out);
            // The spans' account of shard 0's run against the shard's
            // host time measured from outside, which also holds the
            // shard's construction and the serialising of its trace.
            let wall_ns = traced.shard_ns[0] as f64;
            if wall_ns > 0.0 {
                out.layer(
                    "trace.stage_sum_pct",
                    stages.total_self_ns() / wall_ns * 100.0,
                );
            }
            out.check_layers();
        }
        Some(Err(e)) => out.fail(format!("traced rep: unreadable trace: {e}")),
        None => out.fail("traced rep: shard 0 produced no trace".into()),
    }
    out
}

/// One untimed repetition at [`DEFAULT_SEED`], for `reference.json`.
///
/// # Errors
///
/// The failure that ended the repetition.
pub fn reference_outputs(w: Workload) -> Result<Reference, String> {
    if w == Workload::FleetTiny {
        let fleet =
            Fleet::plan(fleet_config(DEFAULT_SEED, FLEET_SHARDS)).map_err(|e| e.to_string())?;
        let r = guarded(|| Ok::<_, String>(fleet.run(nproc())))?;
        return Ok(Reference {
            violation_rate: r.violation_rate(),
            be_mops: r.be_total_throughput() / 1e6,
            digest: format!("{:016x}", r.aggregate_digest),
        });
    }
    let rep = host_rep(w, &host_experiment(w, DEFAULT_SEED), false);
    let r = rep.run?;
    Ok(Reference {
        violation_rate: r.violation_rate(),
        be_mops: r.be_total_throughput() / 1e6,
        digest: format!("{:016x}", r.digest()),
    })
}
