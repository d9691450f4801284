//! Chaos matrix — robustness of the MTAT control loop under injected
//! substrate faults and adversarial workload dynamics.
//!
//! Runs a policy × fault-scenario matrix (sampler blackout, migration
//! stall, telemetry staleness, flaky migrations, bandwidth contention)
//! and reports, per cell:
//!
//! * SLO-violation rates overall, inside the fault window, and during
//!   the post-fault recovery phase;
//! * BE throughput retained relative to the same policy's fault-free
//!   run;
//! * the engine's `failed_moves` / `retried_moves` counters (PP-E
//!   deferred-retry activity);
//! * for supervised policies, the degraded-tick fraction, the
//!   supervisor's transition log, and the time from fault clearance to
//!   re-promotion of the RL sizer.
//!
//! A second matrix crosses policies (hardened MTAT, naive MTAT, and the
//! rival baselines) with the adversarial workload scenarios from
//! `mtat_workloads::scenario` (hot-set thrash, zipf phase shifts,
//! working-set blowups, leak drift, antagonist bursts, flash crowds),
//! each in a nominal and a substrate-faulted arm, and asserts that the
//! hardened arm beats the naive arm and every rival on BE throughput at
//! equal SLO compliance in the thrash and blowup cells.
//!
//! Every run is deterministic: the simulation seed, the scenario seed,
//! and the fault plan's seed fix the entire trajectory. Output is a
//! JSON document on stdout. `--quick` runs only the adversarial
//! assertion cells (the PR-gate mode).

use std::sync::atomic::{AtomicUsize, Ordering};

use mtat_bench::{harness, make_policy};
use mtat_core::config::SimConfig;
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::stats::RunResult;
use mtat_core::HealthConfig;
use mtat_obs::export::{json_f64, json_opt_f64};
use mtat_obs::serve::{TelemetryHub, TelemetryServer};
use mtat_obs::{obs_enabled, trace_enabled, Obs};
use mtat_tiermem::faults::FaultPlan;
use mtat_tiermem::TierMemError;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::{
    adversarial_fault_plan, adversarial_scenarios, chaos_fault_scenarios, heal_fault_scenarios,
    ScenarioSpec, FAULT_START_SECS, FAULT_WINDOW_SECS,
};

/// Simulation-time shape shared by every scenario: the fault arrives
/// during a calm phase (where a blinded sizer can silently mis-size the
/// partition) and persists through the onset of a load surge — the
/// moment the control loop matters most. The timings live in the shared
/// scenario registry; these aliases keep the report code readable.
const FAULT_START: f64 = FAULT_START_SECS;
const FAULT_SECS: f64 = FAULT_WINDOW_SECS;
const DURATION: f64 = 240.0;

const POLICIES: [&str; 2] = ["mtat_full", "mtat_full_supervised"];

fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    chaos_fault_scenarios()
}

/// Self-healing scenarios: the fault strikes late in the surge plateau
/// (the plan in force is surge-sized, LC-heavy), so an arm that freezes
/// or pins a conservative partition starves the BE tier for the rest of
/// the run while the self-healing arm rolls back and re-adapts.
const HEAL_POLICY: &str = "mtat_full_supervised";

fn heal_scenarios() -> Vec<(&'static str, FaultPlan)> {
    heal_fault_scenarios()
}

/// The adversarial matrix's policy axis: the hardened arm first (the
/// assertions index it), then its naive ablation (same supervisor, no
/// guards), then the rival baselines.
const ADV_POLICIES: [&str; 5] = [
    "mtat_full_hardened",
    "mtat_full_supervised",
    "memtis",
    "tpp",
    "fmem_all",
];

/// Scenarios whose cells carry the hardened-vs-naive win assertions.
const ADV_ASSERT_SCENARIOS: [&str; 2] = ["thrash_rotate", "ws_blowup"];

/// "Equal SLO compliance" tolerance for the win assertions: the
/// hardened arm's violation rate may exceed a rival's by at most this
/// much while still claiming the BE-throughput win.
const ADV_VR_TOL: f64 = 0.02;

fn heal_arms() -> Vec<(&'static str, HealthConfig)> {
    vec![
        ("self_heal", HealthConfig::self_heal()),
        ("crash_stop", HealthConfig::crash_stop()),
        ("no_rollback", HealthConfig::no_rollback()),
    ]
}

/// Live cell-progress publisher: counts completed matrix cells and,
/// when `--serve` is up, pushes each completion into the hub's event
/// tail and refreshes the `/status` document. Cells finish on worker
/// threads in a nondeterministic order, so the counter is atomic and
/// the published document carries only monotone aggregate state — the
/// matrix results themselves are untouched (serving is read-only).
struct MatrixProgress {
    hub: Option<TelemetryHub>,
    done: AtomicUsize,
    total: AtomicUsize,
}

impl MatrixProgress {
    fn new(hub: Option<TelemetryHub>) -> Self {
        Self {
            hub,
            done: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
        }
    }

    /// Announces `n` more cells in flight (called once per sub-matrix).
    fn add_cells(&self, n: usize, section: &str) {
        self.total.fetch_add(n, Ordering::Relaxed);
        if let Some(hub) = &self.hub {
            hub.push_event(format!("section {section}: {n} cells queued"));
        }
        self.publish("running");
    }

    fn cell_done(&self, label: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(hub) = &self.hub {
            hub.push_event(format!(
                "cell done ({done}/{}): {label}",
                self.total.load(Ordering::Relaxed)
            ));
        }
        self.publish("running");
    }

    fn publish(&self, phase: &str) {
        let Some(hub) = &self.hub else { return };
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let progress = if total == 0 {
            0.0
        } else {
            done as f64 / total as f64
        };
        hub.publish_status(format!(
            "{{\"harness\":\"chaos_matrix\",\"phase\":\"{phase}\",\"cells_done\":{done},\
             \"cells_total\":{total},\"progress\":{progress:.4}}}"
        ));
    }
}

/// Unwraps per-cell results, reporting every failed cell by its label
/// and typed error and exiting non-zero if any cell failed: one failed
/// cell must not take down the report of the others. A cell that
/// panics instead propagates through [`harness::run_matrix`], which
/// joins every worker first.
fn unwrap_cells(labeled: Vec<(String, Result<RunResult, TierMemError>)>) -> Vec<RunResult> {
    let mut runs = Vec::with_capacity(labeled.len());
    let mut failed = 0usize;
    for (label, res) in labeled {
        match res {
            Ok(r) => runs.push(r),
            Err(e) => {
                failed += 1;
                eprintln!("# CELL FAILED: {label}: {e}");
            }
        }
    }
    if failed > 0 {
        eprintln!("# {failed} cell(s) failed; aborting");
        std::process::exit(1);
    }
    runs
}

/// Crash scenarios measure checkpoint/restore, so the supervised arm
/// runs with in-memory checkpointing while the unsupervised arm restarts
/// cold. Non-crash scenarios never restart and run unchanged.
fn arm_experiment(base: &Experiment, scenario: Option<&str>, policy: &str) -> Experiment {
    let crash = scenario.is_some_and(|s| s.starts_with("ppm_crash"));
    if crash && policy.ends_with("_supervised") {
        base.clone().with_checkpoints(CheckpointCfg::in_memory())
    } else {
        base.clone()
    }
}

/// Fraction of ticks inside `[from, to)` that violated the SLO.
fn violation_rate_between(r: &RunResult, from: f64, to: f64) -> f64 {
    let (mut total, mut bad) = (0u64, 0u64);
    for t in &r.ticks {
        if t.t >= from && t.t < to {
            total += 1;
            bad += u64::from(t.lc_violated);
        }
    }
    if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    }
}

/// Seconds from fault clearance until the supervised policy is back on
/// the RL sizer (`None` when it never re-promotes, or was never
/// demoted — distinguished by `degraded_tick_fraction`).
fn repromote_secs(r: &RunResult, fault_end: f64) -> Option<f64> {
    r.first_rl_at_or_after(fault_end).map(|t| t - fault_end)
}

/// First instant at or after fault clearance from which the following
/// `window_ticks` ticks are violation-free — the SLO-level recovery
/// point.
fn slo_recover_secs(r: &RunResult, fault_end: f64, window_ticks: usize) -> Option<f64> {
    let start = r.ticks.iter().position(|t| t.t >= fault_end)?;
    let v: Vec<bool> = r.ticks[start..].iter().map(|t| t.lc_violated).collect();
    for i in 0..v.len() {
        if v[i..].iter().take(window_ticks).all(|&b| !b) {
            return Some(r.ticks[start + i].t - fault_end);
        }
    }
    None
}

/// Cross-checks the shared registry against the runs' own records: the
/// `runner.lc_p99_ns` histogram aggregated over every cell must agree —
/// within its configured relative-error bound — with the exact
/// nearest-rank p99 over all per-tick P99 values, and the tick counter
/// must match exactly. A drift here means the instrumentation and the
/// physics disagree about what happened.
fn assert_registry_consistent(tele: &Obs, runs: &[RunResult]) {
    let mut ns: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.ticks.iter())
        .map(|t| (t.lc_p99 * 1e9).round() as u64)
        .collect();
    let total_ticks = ns.len() as u64;
    assert_eq!(
        tele.counter_value("runner.ticks"),
        Some(total_ticks),
        "registry tick counter disagrees with the runs"
    );
    ns.sort_unstable();
    let rank = ((0.99 * total_ticks as f64).ceil() as usize).clamp(1, ns.len());
    let exact = ns[rank - 1];
    let (approx, bound) = tele
        .with_registry(|reg| {
            let h = reg.histogram("runner.lc_p99_ns").expect("histogram exists");
            assert_eq!(h.count(), total_ticks);
            (h.p99(), h.relative_error_bound())
        })
        .expect("telemetry enabled");
    let err = (approx as f64 - exact as f64).abs() / exact.max(1) as f64;
    assert!(
        err <= bound,
        "metrics p99 {approx} ns vs exact {exact} ns: rel err {err:.6} exceeds bound {bound:.6}"
    );
    eprintln!(
        "# metrics cross-check: p99 {approx} ns vs exact {exact} ns (rel err {err:.2e} <= {bound:.2e}), {total_ticks} ticks"
    );
}

/// Cross-checks the registry against the runs, then emits the snapshot:
/// JSON to `path` and Prometheus text to `path.prom` when a path is
/// given, both to stderr otherwise. No-op when telemetry is disabled.
fn emit_metrics(tele: &Obs, runs: &[RunResult], path: Option<&str>) {
    if !tele.is_enabled() {
        return;
    }
    assert_registry_consistent(tele, runs);
    // Record the execution shape in the snapshot itself, so determinism
    // claims ("byte-identical at any worker count") are auditable from
    // the artifact alone.
    tele.gauge("harness.workers", harness::worker_count(runs.len()) as f64);
    tele.gauge("harness.cells", runs.len() as f64);
    let json = tele.snapshot_json().expect("telemetry enabled");
    let prom = tele
        .snapshot_prometheus(&[("bench", "chaos_matrix")])
        .expect("telemetry enabled");
    match path {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            let prom_path = format!("{path}.prom");
            std::fs::write(&prom_path, &prom)
                .unwrap_or_else(|e| panic!("cannot write {prom_path}: {e}"));
            eprintln!("# wrote metrics snapshot to {path} and {prom_path}");
        }
        None => {
            eprintln!("# metrics snapshot (json):");
            eprintln!("{json}");
            eprintln!("# metrics snapshot (prometheus):");
            eprintln!("{prom}");
        }
    }
}

/// Runs the adversarial policy × scenario × {nominal, faulted} matrix,
/// prints its JSON section (the value of the `"adversarial"` key —
/// caller prints the key), verifies the hardened-vs-naive win
/// assertions in the thrash and blowup cells, and returns every run
/// for the metrics cross-check. `quick` restricts the scenario axis to
/// the assertion cells (the PR-gate mode).
#[allow(clippy::too_many_lines)]
fn run_adversarial(
    quick: bool,
    tele: &Obs,
    cfg: &SimConfig,
    lc: &LcSpec,
    bes: &[BeSpec],
    base: &Experiment,
    progress: &MatrixProgress,
) -> Vec<RunResult> {
    // The adversarial matrix runs in the §7 bandwidth-constrained regime
    // (25.6 GB/s FMem, 12 GB/s SMem) instead of the paper-scale one. At
    // paper-scale capacities contention is negligible, so the sustained
    // ~1.3 GB/s of futile hot-set chasing these scenarios provoke is
    // essentially free and the thrash guard has nothing real to save;
    // under the constrained model migration traffic competes with demand
    // traffic for the same channels, which is exactly the waste the
    // hardening exists to prevent. The knee reference (`lc_max_ref`)
    // depends only on capacity and burstiness, so reusing the base
    // experiment with a swapped bandwidth model changes nothing else.
    let cfg = cfg.clone().with_constrained_bandwidth();
    let base = {
        let mut b = base.clone();
        b.cfg = cfg.clone();
        b
    };
    let scs: Vec<ScenarioSpec> = adversarial_scenarios()
        .into_iter()
        .filter(|s| !quick || ADV_ASSERT_SCENARIOS.contains(&s.name))
        .collect();
    const ARMS: [&str; 2] = ["nominal", "faulted"];
    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for si in 0..scs.len() {
        for (ai, _) in ARMS.iter().enumerate() {
            for pi in 0..ADV_POLICIES.len() {
                cells.push((si, ai, pi));
            }
        }
    }
    progress.add_cells(cells.len(), "adversarial");
    let runs = unwrap_cells(harness::run_matrix(
        &cells,
        harness::worker_count(cells.len()),
        |_, &(si, ai, pi)| {
            let label = format!("{}/{}/{}", ADV_POLICIES[pi], scs[si].name, ARMS[ai]);
            let res = {
                let _cell = tele.span_labeled(0.0, "cell", &label);
                let mut exp = base.clone().with_scenario(scs[si].clone());
                if ARMS[ai] == "faulted" {
                    exp = exp.with_fault_plan(adversarial_fault_plan());
                }
                let mut p = make_policy(ADV_POLICIES[pi], &cfg, lc, bes);
                exp.with_obs(tele.clone()).try_run(p.as_mut())
            };
            progress.cell_done(&label);
            (label, res)
        },
    ));
    let cell = |si: usize, ai: usize, pi: usize| {
        &runs[si * ARMS.len() * ADV_POLICIES.len() + ai * ADV_POLICIES.len() + pi]
    };

    println!("[");
    let mut failures: Vec<String> = Vec::new();
    for (si, spec) in scs.iter().enumerate() {
        println!("    {{");
        println!("      \"name\": \"{}\",", spec.name);
        println!("      \"arms\": [");
        for (ai, arm) in ARMS.iter().enumerate() {
            println!("        {{");
            println!("          \"arm\": \"{arm}\",");
            println!("          \"runs\": [");
            let mut stats = Vec::new();
            for (pi, name) in ADV_POLICIES.iter().enumerate() {
                let r = cell(si, ai, pi);
                let vr = r.violation_rate_after(20.0);
                let be = r.be_total_throughput();
                stats.push((vr, be));
                println!("            {{");
                println!("              \"policy\": \"{name}\",");
                println!("              \"violation_rate\": {},", json_f64(vr));
                println!("              \"be_total_throughput\": {},", json_f64(be));
                println!(
                    "              \"degraded_tick_fraction\": {}",
                    json_f64(r.degraded_tick_fraction(0.0))
                );
                let comma = if pi + 1 < ADV_POLICIES.len() { "," } else { "" };
                println!("            }}{comma}");
            }
            // The win predicate follows the paper's objective — maximize
            // BE throughput *subject to* the LC SLO. Hardening must not
            // buy its throughput by busting the SLO (the hardened arm,
            // index 0, stays within ADV_VR_TOL of its naive ablation,
            // index 1), and it must retain at least as much BE
            // throughput as every policy inside the same compliance
            // band. A rival whose violation rate exceeds the hardened
            // arm's by more than the tolerance forfeited the SLO
            // constraint and is excluded from the throughput comparison
            // (MEMTIS-style policies post high BE numbers at 40 %+
            // violation rates). Asserted only in the thrash/blowup
            // cells; reported everywhere.
            let (vr_h, be_h) = stats[0];
            let wins = vr_h <= stats[1].0 + ADV_VR_TOL
                && stats[1..]
                    .iter()
                    .all(|&(vr, be)| vr > vr_h + ADV_VR_TOL || be_h >= be);
            println!("          ],");
            println!("          \"hardened_wins\": {wins}");
            if ADV_ASSERT_SCENARIOS.contains(&spec.name) && !wins {
                failures.push(format!(
                    "{}/{arm}: hardened (vr {vr_h:.4}, be {be_h:.1}) vs {:?}",
                    spec.name,
                    ADV_POLICIES[1..]
                        .iter()
                        .zip(&stats[1..])
                        .collect::<Vec<_>>()
                ));
            }
            let comma = if ai + 1 < ARMS.len() { "," } else { "" };
            println!("        }}{comma}");
        }
        println!("      ]");
        let comma = if si + 1 < scs.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  ]");

    eprintln!("# adversarial scenario\tarm\tpolicy\tviolation_rate\tbe_throughput");
    for (si, spec) in scs.iter().enumerate() {
        for (ai, arm) in ARMS.iter().enumerate() {
            for (pi, name) in ADV_POLICIES.iter().enumerate() {
                let r = cell(si, ai, pi);
                eprintln!(
                    "# {}\t{arm}\t{name}\t{:.4}\t{:.1}",
                    spec.name,
                    r.violation_rate_after(20.0),
                    r.be_total_throughput()
                );
            }
        }
    }
    assert!(
        failures.is_empty(),
        "hardened MTAT must beat naive MTAT and every rival on BE throughput at \
         equal SLO compliance in the thrash/blowup cells:\n{}",
        failures.join("\n")
    );
    runs
}

/// Final serving state: the aggregated registry lands on `/metrics`,
/// `/status` flips to done, and the listener shuts down. No-op when
/// `--serve` was not given.
fn finish_serving(
    tele: &Obs,
    hub: &TelemetryHub,
    server: Option<TelemetryServer>,
    progress: &MatrixProgress,
) {
    if server.is_none() {
        return;
    }
    if let Some(prom) = tele.snapshot_prometheus(&[("bench", "chaos_matrix")]) {
        hub.publish_metrics(prom);
    }
    progress.publish("done");
    hub.publish_health("done", true);
    drop(server);
}

/// Writes the span-trace document (spans + decision provenance) to
/// `path`. No-op unless the handle traces and a path was given.
fn emit_trace(tele: &Obs, path: Option<&str>) {
    let (Some(path), Some(json)) = (path, tele.trace_json()) else {
        return;
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("# wrote span trace to {path} (view: mtat-trace summary {path})");
}

fn main() {
    // `chaos_matrix --trace <scenario>` dumps the per-tick TSV time
    // series of both policies for one scenario instead of the matrix.
    // `--metrics-out PATH` additionally writes the aggregated metrics
    // registry as JSON (plus `PATH.prom` in Prometheus text format);
    // setting `MTAT_OBS=on` without a path prints both to stderr.
    // `--trace-out PATH` records phase spans + decision provenance for
    // every cell and writes the `mtat-trace` document there (also
    // enabled by `MTAT_TRACE=on`, which prints nothing without a path).
    // `--quick` runs only the adversarial assertion cells (thrash and
    // blowup scenarios, both arms, all policies) — the PR-gate mode.
    // `--serve ADDR` exposes the matrix live over HTTP: `/status`
    // tracks cell completion, `/events` tails one line per finished
    // cell, and `/metrics` carries the aggregated registry once the
    // matrix is done.
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let serve = args
        .iter()
        .position(|a| a == "--serve")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // One registry shared by every cell: counters and histograms
    // aggregate across the whole matrix. Telemetry never perturbs the
    // simulation, so the report below is byte-identical either way.
    // Serving needs the registry for /metrics, so --serve implies it.
    let tele = if trace_out.is_some() || trace_enabled() {
        Obs::traced()
    } else if obs_enabled() || metrics_out.is_some() || serve.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    let hub = TelemetryHub::new();
    let server: Option<TelemetryServer> = serve.as_deref().map(|addr| {
        let s = TelemetryServer::bind(addr, hub.clone())
            .unwrap_or_else(|e| panic!("cannot serve on {addr}: {e}"));
        eprintln!("# serving telemetry on http://{}/", s.local_addr());
        s
    });
    let progress = MatrixProgress::new(server.as_ref().map(|_| hub.clone()));
    if server.is_some() {
        hub.publish_health("running", true);
    }

    let cfg = SimConfig::paper();
    let lc = LcSpec::redis();
    let bes = BeSpec::all_paper_workloads();
    // Moderate load through the first 100 s (the fault begins at 40 s,
    // during calm, so a blinded sizer has time to mis-provision), then a
    // surge at 100–160 s while the fault is still active, then back down
    // for the recovery phase.
    let load = LoadPattern::Steps(vec![(100.0, 0.45), (60.0, 0.9), (80.0, 0.45)]);
    let fault_end = FAULT_START + FAULT_SECS;

    let base = Experiment::new(cfg.clone(), lc.clone(), load, bes.clone()).with_duration(DURATION);

    if quick {
        println!("{{");
        println!("  \"lc\": \"{}\",", lc.name);
        print!("  \"adversarial\": ");
        let runs = run_adversarial(true, &tele, &cfg, &lc, &bes, &base, &progress);
        println!(
            "  ,\"workers\": {}, \"cells\": {}",
            harness::worker_count(runs.len()),
            runs.len()
        );
        println!("}}");
        emit_metrics(&tele, &runs, metrics_out.as_deref());
        emit_trace(&tele, trace_out.as_deref());
        finish_serving(&tele, &hub, server, &progress);
        return;
    }

    if let Some(scenario) = trace {
        let plan = scenarios()
            .into_iter()
            .find(|(n, _)| *n == scenario)
            .unwrap_or_else(|| panic!("unknown scenario {scenario}"))
            .1;
        let exp = base.with_fault_plan(plan);
        progress.add_cells(POLICIES.len(), "trace");
        let runs = unwrap_cells(harness::run_matrix(
            &POLICIES,
            harness::worker_count(POLICIES.len()),
            |_, name| {
                let label = format!("{name}/{scenario}");
                let res = {
                    let _cell = tele.span_labeled(0.0, "cell", &label);
                    let mut p = make_policy(name, &cfg, &lc, &bes);
                    arm_experiment(&exp, Some(&scenario), name)
                        .with_obs(tele.clone())
                        .try_run(p.as_mut())
                };
                progress.cell_done(&label);
                (label, res)
            },
        ));
        for (name, r) in POLICIES.iter().zip(&runs) {
            println!("## {name}");
            print!("{}", r.to_tsv_string());
        }
        emit_metrics(&tele, &runs, metrics_out.as_deref());
        emit_trace(&tele, trace_out.as_deref());
        finish_serving(&tele, &hub, server, &progress);
        return;
    }

    // The full policy × (fault-free + scenario) matrix runs in parallel:
    // every cell is seeded identically to the serial version, so the
    // JSON below is byte-for-byte what a serial sweep prints.
    let scs = scenarios();
    let mut cells: Vec<(Option<usize>, &str)> = Vec::new();
    for name in &POLICIES {
        cells.push((None, name)); // fault-free reference (BE denominator)
    }
    for si in 0..scs.len() {
        for name in &POLICIES {
            cells.push((Some(si), name));
        }
    }
    progress.add_cells(cells.len(), "faults");
    let runs = unwrap_cells(harness::run_matrix(
        &cells,
        harness::worker_count(cells.len()),
        |_, cell| {
            let (scenario, name) = *cell;
            let label = format!("{name}/{}", scenario.map_or("clean", |si| scs[si].0));
            let res = {
                let _cell = tele.span_labeled(0.0, "cell", &label);
                let exp = match scenario {
                    None => base.clone(),
                    Some(si) => {
                        let faulted = base.clone().with_fault_plan(scs[si].1.clone());
                        arm_experiment(&faulted, Some(scs[si].0), name)
                    }
                };
                let mut p = make_policy(name, &cfg, &lc, &bes);
                exp.with_obs(tele.clone()).try_run(p.as_mut())
            };
            progress.cell_done(&label);
            (label, res)
        },
    ));
    let clean: Vec<(String, RunResult)> = POLICIES
        .iter()
        .zip(&runs)
        .map(|(n, r)| (n.to_string(), r.clone()))
        .collect();

    println!("{{");
    println!("  \"lc\": \"{}\",", lc.name);
    println!(
        "  \"fault_window_secs\": [{FAULT_START:.0}, {fault_end:.0}], \"duration_secs\": {DURATION:.0},"
    );
    println!("  \"policies\": [\"{}\"],", POLICIES.join("\", \""));
    println!("  \"scenarios\": [");

    let mut verdicts = Vec::new();
    for (si, (scenario, _plan)) in scs.iter().enumerate() {
        println!("    {{");
        println!("      \"name\": \"{scenario}\",");
        println!("      \"runs\": [");
        let mut rates = Vec::new();
        let mut retaineds = Vec::new();
        for (pi, name) in POLICIES.iter().enumerate() {
            let r = &runs[POLICIES.len() + si * POLICIES.len() + pi];
            let clean_be = clean
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.be_total_throughput())
                .unwrap_or(f64::NAN);
            let retained = if clean_be > 0.0 {
                r.be_total_throughput() / clean_be
            } else {
                f64::NAN
            };
            let overall = r.violation_rate_after(20.0);
            rates.push(overall);
            retaineds.push(retained);
            println!("        {{");
            println!("          \"policy\": \"{name}\",");
            println!("          \"violation_rate\": {},", json_f64(overall));
            println!(
                "          \"violation_rate_in_fault\": {},",
                json_f64(violation_rate_between(r, FAULT_START, fault_end))
            );
            println!(
                "          \"violation_rate_post_fault\": {},",
                json_f64(violation_rate_between(r, fault_end, DURATION))
            );
            println!(
                "          \"be_throughput_retained\": {},",
                json_f64(retained)
            );
            println!("          \"failed_moves\": {},", r.failed_moves);
            println!("          \"retried_moves\": {},", r.retried_moves);
            println!(
                "          \"degraded_tick_fraction\": {},",
                json_f64(r.degraded_tick_fraction(0.0))
            );
            println!(
                "          \"repromote_secs_after_clearance\": {},",
                json_opt_f64(repromote_secs(r, fault_end))
            );
            println!(
                "          \"slo_recover_secs_after_clearance\": {}",
                json_opt_f64(slo_recover_secs(r, fault_end, 10))
            );
            let comma = if pi + 1 < POLICIES.len() { "," } else { "" };
            println!("        }}{comma}");
        }
        println!("      ],");
        // Fault scenarios are judged on SLO compliance alone. Crash
        // scenarios are judged on the paper's full objective — BE
        // throughput subject to the LC SLO — because a cold-restarted
        // untrained sizer is "safe" in the same way FMEM_ALL is safe:
        // it over-provisions the LC and starves the BE tier. The
        // checkpointed daemon must not regress SLO compliance AND must
        // retain strictly more BE throughput than the cold restart.
        let improved = if scenario.starts_with("ppm_crash") {
            rates[1] <= rates[0] + 1e-9 && retaineds[1] > retaineds[0]
        } else {
            rates[1] < rates[0]
        };
        verdicts.push((*scenario, rates[0], rates[1], improved));
        println!("      \"supervised_improves\": {improved}");
        let comma = if si + 1 < scs.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  ],");

    // ---- Self-healing ablation: recovery-mode arms under poison ----
    // Same policy, same fault, three answers: autonomous rollback
    // (self_heal), kill the daemon on first incident (crash_stop), and
    // detect-but-never-restore (no_rollback). The paper's objective —
    // BE throughput subject to the LC SLO — is asserted below: the
    // self-healing arm must strictly beat both ablations on BE
    // throughput at equal-or-better SLO compliance.
    let heal_scs = heal_scenarios();
    let arms = heal_arms();
    let mut heal_cells: Vec<(usize, usize)> = Vec::new();
    for si in 0..heal_scs.len() {
        for ai in 0..arms.len() {
            heal_cells.push((si, ai));
        }
    }
    progress.add_cells(heal_cells.len(), "self_healing");
    let heal_runs = unwrap_cells(harness::run_matrix(
        &heal_cells,
        harness::worker_count(heal_cells.len()),
        |_, &(si, ai)| {
            let label = format!("{HEAL_POLICY}/{}/{}", heal_scs[si].0, arms[ai].0);
            let res = {
                let _cell = tele.span_labeled(0.0, "cell", &label);
                let exp = base
                    .clone()
                    .with_fault_plan(heal_scs[si].1.clone())
                    .with_checkpoints(CheckpointCfg::in_memory())
                    .with_health(arms[ai].1.clone());
                let mut p = make_policy(HEAL_POLICY, &cfg, &lc, &bes);
                exp.with_obs(tele.clone()).try_run(p.as_mut())
            };
            progress.cell_done(&label);
            (label, res)
        },
    ));

    println!("  \"self_healing\": [");
    let mut heal_verdicts = Vec::new();
    for (si, (scenario, _)) in heal_scs.iter().enumerate() {
        println!("    {{");
        println!("      \"name\": \"{scenario}\",");
        println!("      \"policy\": \"{HEAL_POLICY}\",");
        println!("      \"arms\": [");
        let mut stats = Vec::new();
        for (ai, (arm, _)) in arms.iter().enumerate() {
            let r = &heal_runs[si * arms.len() + ai];
            let h = r.health.as_ref().expect("health arms carry a summary");
            let vr = r.violation_rate_after(20.0);
            let be = r.be_total_throughput();
            stats.push((vr, be));
            println!("        {{");
            println!("          \"arm\": \"{arm}\",");
            println!("          \"violation_rate\": {},", json_f64(vr));
            println!("          \"be_total_throughput\": {},", json_f64(be));
            println!("          \"rollbacks\": {},", h.rollbacks);
            println!("          \"repairs\": {},", h.repairs);
            println!("          \"unrecovered\": {},", h.unrecovered);
            println!("          \"quarantined\": {}", h.quarantined);
            let comma = if ai + 1 < arms.len() { "," } else { "" };
            println!("        }}{comma}");
        }
        println!("      ],");
        let (vr_sh, be_sh) = stats[0];
        let wins = stats[1..]
            .iter()
            .all(|&(vr, be)| be_sh > be && vr_sh <= vr + 1e-9);
        println!("      \"self_heal_wins\": {wins}");
        heal_verdicts.push((*scenario, stats, wins));
        let comma = if si + 1 < heal_scs.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  ],");

    // ---- Adversarial workload dynamics: hardened vs naive vs rivals ----
    print!("  \"adversarial\": ");
    let adv_runs = run_adversarial(false, &tele, &cfg, &lc, &bes, &base, &progress);

    let all_runs: Vec<RunResult> = runs
        .iter()
        .chain(&heal_runs)
        .chain(&adv_runs)
        .cloned()
        .collect();
    println!(
        "  ,\"workers\": {}, \"cells\": {}",
        harness::worker_count(all_runs.len()),
        all_runs.len()
    );
    println!("}}");
    emit_metrics(&tele, &all_runs, metrics_out.as_deref());
    emit_trace(&tele, trace_out.as_deref());
    finish_serving(&tele, &hub, server, &progress);

    eprintln!("# heal scenario\tarm\tviolation_rate\tbe_throughput");
    for (s, stats, wins) in &heal_verdicts {
        for ((arm, _), (vr, be)) in arms.iter().zip(stats) {
            eprintln!("# {s}\t{arm}\t{vr:.4}\t{be:.1}");
        }
        let sh = &heal_runs[heal_scs.iter().position(|(n, _)| n == s).expect("known") * arms.len()];
        let h = sh.health.as_ref().expect("summary");
        assert_eq!(
            h.unrecovered, 0,
            "{s}: self-heal must recover every incident: {h:?}"
        );
        assert!(!h.quarantined, "{s}: rollback budget must hold: {h:?}");
        assert!(h.final_audit_ok, "{s}: substrate consistent at end");
        assert!(
            wins,
            "{s}: self-heal must strictly beat crash-stop and no-rollback on BE \
             throughput at equal-or-better SLO compliance: {stats:?}"
        );
    }

    eprintln!("# scenario\tunsupervised\tsupervised\timproved");
    for (s, u, v, ok) in verdicts {
        eprintln!("# {s}\t{u:.4}\t{v:.4}\t{ok}");
        // A supervised+checkpointed restart must beat the cold restart of
        // the unsupervised arm — the whole point of checkpoint/restore.
        if s.starts_with("ppm_crash") {
            assert!(
                ok,
                "{s}: supervised+checkpointed ({v:.4}) must beat unsupervised cold restart ({u:.4})"
            );
        }
    }
}
