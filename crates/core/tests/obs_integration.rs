//! End-to-end tests for the observability subsystem wired through the
//! runner:
//!
//! * registry aggregates (tick counters, the P99 latency histogram)
//!   must agree with the run's own [`mtat_core::RunResult`] record, and
//!   a policy that reads no per-page samples must pay no sampler pass;
//! * the paper configuration samples its BEs densely and its LC
//!   sparsely, so both sampler bookkeepings run;
//! * enabling observability must not perturb the simulation — runs
//!   with telemetry on and off are bit-identical;
//! * a forced plan-conservation audit violation must leave a flight
//!   recorder dump whose tail contains the offending plan events;
//! * a `PpmCrash`/restore cycle must surface checkpoint save/restore
//!   latencies and crash/restart events.

use mtat_core::config::SimConfig;
use mtat_core::policy::memtis::MemtisPolicy;
use mtat_core::policy::statics::StaticPolicy;
use mtat_core::policy::{Policy, SimState, WorkloadObs};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::WorkloadId;
use mtat_tiermem::{AuditViolation, TierMemError, GIB};
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

fn small_lc() -> LcSpec {
    let mut s = LcSpec::redis();
    s.rss_bytes = (1.2 * GIB as f64) as u64;
    s
}

fn small_be() -> BeSpec {
    let mut s = BeSpec::sssp();
    s.rss_bytes = 2 * GIB;
    s
}

fn experiment(load: LoadPattern, secs: f64) -> Experiment {
    Experiment::new(SimConfig::small_test(), small_lc(), load, vec![small_be()]).with_duration(secs)
}

/// Exact nearest-rank percentile over raw samples, the oracle the
/// histogram approximates.
fn exact_percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort();
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    samples[rank - 1]
}

/// The registry's view of the run must match the run's own aggregate
/// record: one `runner.ticks` count per tick, one `runner.slo_violations`
/// per violating tick, and a P99-latency histogram whose p99 sits within
/// the configured relative-error bound of the exact nearest-rank p99
/// over the per-tick values. FMEM_ALL never reads per-page samples, so
/// its run records no sampler batch at all: the runner skips the PEBS
/// pass. MEMTIS on the same experiment samples both workloads per tick.
#[test]
fn registry_matches_run_aggregates() {
    let obs = Obs::enabled();
    let exp = experiment(LoadPattern::fig7(), 120.0).with_obs(obs.clone());
    let r = exp.run(&mut StaticPolicy::fmem_all());

    assert_eq!(
        obs.counter_value("runner.ticks"),
        Some(r.ticks.len() as u64)
    );
    assert_eq!(obs.counter_value("tiermem.sampler.batches").unwrap_or(0), 0);
    let sampled = Obs::enabled();
    experiment(LoadPattern::fig7(), 120.0)
        .with_obs(sampled.clone())
        .run(&mut MemtisPolicy::new());
    assert_eq!(
        sampled.counter_value("tiermem.sampler.batches"),
        Some(2 * r.ticks.len() as u64)
    );
    let violations = r.ticks.iter().filter(|t| t.lc_violated).count() as u64;
    assert_eq!(
        obs.counter_value("runner.slo_violations").unwrap_or(0),
        violations
    );

    let mut ns: Vec<u64> = r
        .ticks
        .iter()
        .map(|t| (t.lc_p99 * 1e9).round() as u64)
        .collect();
    let exact = exact_percentile(&mut ns, 99.0);
    let (approx, bound) = obs
        .with_registry(|reg| {
            let h = reg.histogram("runner.lc_p99_ns").expect("histogram exists");
            assert_eq!(h.count(), r.ticks.len() as u64);
            (h.p99(), h.relative_error_bound())
        })
        .expect("enabled handle");
    let err = (approx as f64 - exact as f64).abs() / exact.max(1) as f64;
    assert!(
        err <= bound,
        "histogram p99 {approx} vs exact {exact}: err {err} > bound {bound}"
    );
}

/// The sampler picks its bookkeeping by batch density, and the paper
/// configuration runs both: each paper BE draws more events per tick
/// than half its pages (dense), while the LC draws ~0.2 per page
/// (sparse). Twenty ticks of MEMTIS count every BE batch as dense and
/// no LC batch.
#[test]
fn paper_scale_runs_both_sampling_bookkeepings() {
    let obs = Obs::enabled();
    let bes = BeSpec::all_paper_workloads();
    let n_bes = bes.len() as u64;
    Experiment::new(
        SimConfig::paper(),
        LcSpec::redis(),
        LoadPattern::fig7(),
        bes,
    )
    .with_duration(20.0)
    .with_obs(obs.clone())
    .run(&mut MemtisPolicy::new());
    let counter = |name| obs.counter_value(name).unwrap_or(0);
    assert_eq!(counter("tiermem.sampler.batches"), 20 * (1 + n_bes));
    assert_eq!(counter("tiermem.sampler.dense_batches"), 20 * n_bes);
}

/// Telemetry must be invisible to the physics: the same experiment with
/// observability enabled and disabled produces bit-identical ticks.
#[test]
fn obs_on_and_off_are_bit_identical() {
    let load = LoadPattern::staircase(&[0.4, 0.9, 0.5], 15.0);
    let on = experiment(load.clone(), 45.0).with_obs(Obs::enabled());
    let off = experiment(load, 45.0).with_obs(Obs::disabled());

    let r_on = on.run(&mut StaticPolicy::fmem_all());
    let r_off = off.run(&mut StaticPolicy::fmem_all());

    assert_eq!(r_on.ticks.len(), r_off.ticks.len());
    for (a, b) in r_on.ticks.iter().zip(&r_off.ticks) {
        assert_eq!(a.lc_p99.to_bits(), b.lc_p99.to_bits(), "t={}", a.t);
        assert_eq!(a.fmem_bytes, b.fmem_bytes, "t={}", a.t);
        assert_eq!(a, b, "tick records diverge at t={}", a.t);
    }
}

/// Span tracing and decision provenance must be exactly as invisible as
/// plain metrics: a run with the full tracing handle attached is
/// bit-identical — compared on the `f64` bit pattern — with a disabled
/// run, under the full MTAT policy where every span and provenance hook
/// fires (tick, sample, track, ppm-plan, age, sac-forward, anneal,
/// ppe-enforce, migrate).
#[test]
fn tracing_on_and_off_are_bit_identical() {
    let load = LoadPattern::staircase(&[0.4, 0.9, 0.5], 15.0);
    let traced = Obs::traced();
    let on = experiment(load.clone(), 45.0).with_obs(traced.clone());
    let off = experiment(load, 45.0).with_obs(Obs::disabled());

    let mk = |exp: &Experiment| {
        mtat_core::policy::mtat::MtatPolicy::new(
            mtat_core::policy::mtat::MtatConfig::full(),
            &exp.cfg,
            &exp.lc,
            &exp.bes,
        )
    };
    let r_on = on.run(&mut mk(&on));
    let r_off = off.run(&mut mk(&off));

    assert_eq!(r_on.ticks.len(), r_off.ticks.len());
    for (a, b) in r_on.ticks.iter().zip(&r_off.ticks) {
        assert_eq!(a.lc_p99.to_bits(), b.lc_p99.to_bits(), "t={}", a.t);
        assert_eq!(
            a.lc_load_rps.to_bits(),
            b.lc_load_rps.to_bits(),
            "t={}",
            a.t
        );
        assert_eq!(
            a.migration_bw.to_bits(),
            b.migration_bw.to_bits(),
            "t={}",
            a.t
        );
        assert_eq!(
            a.fmem_bw_util.to_bits(),
            b.fmem_bw_util.to_bits(),
            "t={}",
            a.t
        );
        assert_eq!(a.fmem_bytes, b.fmem_bytes, "t={}", a.t);
        assert_eq!(a, b, "tick records diverge at t={}", a.t);
    }

    // ...while the traced handle actually collected the full taxonomy:
    // one tick span per tick, nested phase spans, and a provenance
    // record per decision boundary with a finalized enforcement outcome.
    traced
        .with_tracer(|t| {
            let spans = t.spans();
            assert_eq!(t.dropped(), 0, "short run must not hit the span cap");
            let count = |n: &str| spans.iter().filter(|s| s.name == n).count();
            assert_eq!(count("run"), 1);
            assert_eq!(count("tick"), r_on.ticks.len());
            for name in ["sample", "track", "ppm-plan", "ppe-enforce", "migrate"] {
                assert!(count(name) > 0, "missing {name} spans");
            }
            // The full config starts in RL mode with the RL sizer, so
            // the SAC forward pass is traced inside ppm-plan.
            assert!(count("sac-forward") > 0, "missing sac-forward spans");
            // Every plan ages the histograms in a span of its own.
            for plan in spans.iter().filter(|s| s.name == "ppm-plan") {
                let aged = spans
                    .iter()
                    .any(|s| s.name == "age" && s.parent == Some(plan.id));
                assert!(aged, "ppm-plan span {} has no age span", plan.id);
            }
            // Every non-root span's parent exists and started no later.
            for s in spans {
                let Some(pid) = s.parent else { continue };
                let p = spans
                    .iter()
                    .find(|c| c.id == pid)
                    .unwrap_or_else(|| panic!("span {} has dangling parent {pid}", s.id));
                assert!(p.start_ns <= s.start_ns, "parent starts after child");
            }
        })
        .expect("traced handle has a tracer");

    let jsonl = traced.provenance_jsonl().expect("traced handle has a book");
    let records: Vec<&str> = jsonl.lines().collect();
    assert!(
        !records.is_empty(),
        "decision boundaries must leave records"
    );
    let finalized = records
        .iter()
        .filter(|l| l.contains("\"enforce\":{"))
        .count();
    // Every record except the last-opened one is finalized by the next
    // boundary.
    assert!(
        finalized >= records.len() - 1,
        "unfinalized provenance: {finalized}/{}",
        records.len()
    );
    for l in &records {
        assert!(l.contains("\"mode\":"), "mode missing: {l}");
        assert!(l.contains("\"inputs\":{"), "inputs missing: {l}");
        assert!(l.contains("\"plan\":{"), "plan missing: {l}");
    }
}

/// A policy that reports honest targets until `rogue_after_ticks`, then
/// claims more FMem than exists — tripping the plan-conservation audit.
struct RoguePolicy {
    inner: StaticPolicy,
    tick: u64,
    rogue_after_ticks: u64,
}

impl Policy for RoguePolicy {
    fn name(&self) -> &str {
        "rogue"
    }
    fn init(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) {
        self.inner.init(mem, workloads);
    }
    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        self.inner.on_tick(sim);
        self.tick += 1;
    }
    fn fmem_target(&self, _w: WorkloadId) -> Option<u64> {
        if self.tick >= self.rogue_after_ticks {
            // Every workload claims all of FMem — over-committed.
            Some(u64::MAX)
        } else {
            Some(0)
        }
    }
}

/// A forced `PlanExceedsFmem` violation must abort the run with the
/// structured error *and* leave a flight-recorder dump whose retained
/// events include the plans leading up to the violation.
#[test]
fn audit_violation_dumps_flight_recorder() {
    if !mtat_tiermem::audit_enabled() {
        // The auditor is compiled out of release runs unless MTAT_AUDIT
        // is set; CI covers this path with MTAT_AUDIT=1.
        return;
    }
    let obs = Obs::enabled();
    let exp = experiment(LoadPattern::Constant(0.4), 30.0).with_obs(obs.clone());
    let mut p = RoguePolicy {
        inner: StaticPolicy::fmem_all(),
        tick: 0,
        rogue_after_ticks: 12,
    };
    let err = exp.try_run(&mut p).expect_err("auditor must trip");
    assert!(
        matches!(
            err,
            TierMemError::Audit(AuditViolation::PlanExceedsFmem { .. })
        ),
        "unexpected error: {err}"
    );

    let dump = obs.last_dump().expect("violation must dump the recorder");
    assert!(
        dump.contains("audit violation"),
        "dump reason missing: {dump}"
    );
    assert!(
        dump.contains("runner.audit_violation"),
        "violation event missing: {dump}"
    );
    // The honest plans from earlier interval boundaries precede it.
    assert!(dump.contains("runner.plan"), "plan events missing: {dump}");
    assert!(
        dump.contains("runner.run_start"),
        "run_start event missing: {dump}"
    );
    assert_eq!(obs.counter_value("obs.flight_dumps"), Some(1));
}

/// A crash/restore cycle surfaces checkpoint telemetry: save latencies
/// while the controller is healthy, a restore latency plus crash and
/// restart events around the outage.
#[test]
fn crash_restore_cycle_records_checkpoint_metrics() {
    let obs = Obs::enabled();
    let plan = FaultPlan::new(0xC4A5).with(FaultKind::PpmCrash, 20.0, 15.0);
    let exp = experiment(LoadPattern::Constant(0.5), 60.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_obs(obs.clone());

    // The static policy has no checkpoint payload, so use MTAT's
    // heuristic variant (cheap, deterministic, checkpointable).
    let mut cfg = mtat_core::policy::mtat::MtatConfig::full().with_heuristic_sizer();
    cfg.online_learning = false;
    let mut policy = mtat_core::policy::mtat::MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes);
    let r = exp.run(&mut policy);
    assert_eq!(r.ticks.len(), 60);

    assert_eq!(obs.counter_value("runner.ppm_crashes"), Some(1));
    assert_eq!(obs.counter_value("runner.ppm_restarts"), Some(1));
    let saves = obs.counter_value("ckpt.saves").expect("saves recorded");
    assert!(saves > 0, "healthy intervals must checkpoint");
    obs.with_registry(|reg| {
        assert_eq!(
            reg.histogram("ckpt.save_ns").map(|h| h.count()),
            Some(saves)
        );
        assert_eq!(reg.histogram("ckpt.restore_ns").map(|h| h.count()), Some(1));
    })
    .expect("enabled handle");
    let dump = obs.last_dump().expect("crash/restart edges dump");
    assert!(
        dump.contains("runner.ppm_restart"),
        "restart event missing: {dump}"
    );
    assert!(
        dump.contains("source=ring"),
        "in-memory checkpoints restore from the ring: {dump}"
    );
}
