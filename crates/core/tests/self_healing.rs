//! Self-healing runtime integration tests: the health subsystem must
//! turn detection into autonomous recovery at the runner level:
//!
//! * a poisoned SAC actor is caught by the NaN sentinel and rolled back
//!   to the last known-good checkpoint generation, after which the run
//!   finishes healthy with zero unrecovered incidents;
//! * accumounting drift is detected by the invariant auditor and
//!   repaired/rolled back in place where the same run without the
//!   health subsystem fail-stops;
//! * a corrupted newest checkpoint generation is skipped and the
//!   rollback restores the older known-good generation;
//! * exhausting the rollback budget quarantines the run — contained at
//!   the Static rung, alive to the end — and a PP-M crash restart after
//!   the quarantine does not undo it, supervised or not;
//! * the crash-stop ablation arm takes the daemon down permanently and
//!   reports its incidents as unrecovered;
//! * a rollback inside a PP-M crash window keeps the daemon down until
//!   the window ends, and one with no known-good generation leaves no
//!   generation loadable, on disk as in memory;
//! * everything above is bit-identical across repeated runs, and a
//!   fault window straddling a checkpoint/restore probe perturbs
//!   nothing.

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::{DegradationState, HealthConfig, HealthState};
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::{TierMemError, GIB};
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

/// Full RL policy under supervision with online learning — the poison
/// sentinel and rollback path must handle live SAC weights, not a
/// heuristic stand-in.
fn rl_policy(exp: &Experiment) -> MtatPolicy {
    rl_policy_as(MtatConfig::full().supervised(), exp)
}

/// `cfg` with a short pretraining and online learning.
fn rl_policy_as(cfg: MtatConfig, exp: &Experiment) -> MtatPolicy {
    let cfg = MtatConfig {
        pretrain_steps: 400,
        online_learning: true,
        ..cfg
    };
    MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes)
}

fn assert_ticks_bit_identical(a: &mtat_core::RunResult, b: &mtat_core::RunResult) {
    assert_eq!(a.ticks.len(), b.ticks.len());
    for (x, y) in a.ticks.iter().zip(&b.ticks) {
        assert_eq!(x.lc_p99.to_bits(), y.lc_p99.to_bits(), "p99 at t={}", x.t);
        assert_eq!(x.fmem_bytes, y.fmem_bytes, "placement at t={}", x.t);
        assert_eq!(x, y, "tick records diverge at t={}", x.t);
    }
}

/// Poison mid-interval (t=23; boundaries fall on multiples of 5): the
/// sentinel fires the same tick, the monitor orders a rollback to the
/// last known-good generation, and the run finishes healthy.
#[test]
fn sac_poison_triggers_rollback_and_recovery() {
    let plan = FaultPlan::new(0x90150).with(FaultKind::SacPoison, 23.0, 1.0);
    let exp = experiment(LoadPattern::Constant(0.5), 60.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::self_heal());

    let r = exp.run(&mut rl_policy(&exp));
    assert_eq!(r.ticks.len(), 60, "the run must complete");
    let h = r.health.expect("health summary present when enabled");
    assert!(h.poison_incidents >= 1, "sentinel must fire: {h:?}");
    assert_eq!(h.rollbacks, 1, "one rollback heals the poison: {h:?}");
    assert_eq!(h.unrecovered, 0, "self-heal leaves nothing unrecovered");
    assert!(!h.quarantined);
    assert!(h.final_audit_ok, "substrate consistent at end of run");
    assert_eq!(
        h.final_state,
        HealthState::Healthy,
        "events: {:?}",
        h.events
    );
    // The rollback restored a real generation, not a cold restart:
    // checkpoints at t=5/10/15/20 precede the poison.
    assert!(
        h.events
            .iter()
            .any(|e| e.kind == "rollback" && e.detail.contains("restored checkpoint generation")),
        "events: {:?}",
        h.events
    );
}

/// A drifting popularity accumulator fail-stops the audited run without
/// the health subsystem and is healed in place with it.
#[test]
fn accumulator_drift_is_healed_instead_of_fatal() {
    let plan = FaultPlan::new(0xD21F7).with(FaultKind::AccumulatorDrift { delta: 1e-3 }, 20.0, 8.0);
    let base = experiment(LoadPattern::Constant(0.5), 45.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory());

    if mtat_tiermem::audit_enabled() {
        let err = base
            .try_run(&mut rl_policy(&base))
            .expect_err("without health the auditor fail-stops");
        assert!(matches!(err, TierMemError::Audit(_)), "got: {err}");
    }

    let healed = base.clone().with_health(HealthConfig::self_heal());
    let r = healed.run(&mut rl_policy(&healed));
    assert_eq!(r.ticks.len(), 45, "the healed run completes");
    let h = r.health.expect("summary");
    assert!(h.audit_incidents >= 1, "auditor feeds the monitor: {h:?}");
    assert!(
        h.rollbacks + h.repairs >= 1,
        "drift must be answered: {h:?}"
    );
    assert_eq!(h.unrecovered, 0);
    assert!(h.final_audit_ok, "drift repaired by end of run");
}

/// A `CheckpointCorrupt` window covering the newest capture: the
/// rollback must skip the torn generation and restore the older
/// known-good one (generation 3, captured at t=15, with the t=20
/// capture corrupted).
#[test]
fn rollback_falls_back_past_corrupted_generation() {
    let plan = FaultPlan::new(0xC0B7)
        .with(FaultKind::CheckpointCorrupt, 18.0, 4.0)
        .with(FaultKind::SacPoison, 23.0, 1.0);
    let exp = experiment(LoadPattern::Constant(0.5), 45.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::self_heal());

    let r = exp.run(&mut rl_policy(&exp));
    let h = r.health.expect("summary");
    assert_eq!(h.rollbacks, 1, "{h:?}");
    assert_eq!(h.unrecovered, 0);
    assert!(h.final_audit_ok);
    assert!(
        h.events
            .iter()
            .any(|e| e.kind == "rollback" && e.detail.contains("generation 3")),
        "must restore the pre-corruption generation: {:?}",
        h.events
    );
}

/// Four poison strikes 20 s apart against the budget of three rollbacks:
/// the strikes at t=21, 41 and 61 roll back and the one at t=81
/// quarantines. `crash` adds a PP-M crash over [90, 95), after the
/// quarantine, whose restart reloads a generation captured before it:
/// the poison probe skips every capture of the poisoned controller.
fn quarantine_experiment(crash: bool) -> Experiment {
    let mut plan = FaultPlan::new(0xB4D9);
    for at in [21.0, 41.0, 61.0, 81.0] {
        plan = plan.with(FaultKind::SacPoison, at, 1.0);
    }
    if crash {
        plan = plan.with(FaultKind::PpmCrash, 90.0, 5.0);
    }
    experiment(LoadPattern::Constant(0.5), 130.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::self_heal())
}

/// The time of the run's quarantine, asserting it happened.
fn quarantined_at(r: &mtat_core::RunResult) -> f64 {
    let h = r.health.as_ref().expect("summary");
    assert!(h.quarantined, "{h:?}");
    assert_eq!(h.final_state, HealthState::Quarantined);
    assert!(h.final_audit_ok, "contained run stays consistent");
    let q = h.events.iter().find(|e| e.kind == "quarantine");
    q.expect("quarantine event").at_secs
}

/// Exhausting the rollback budget quarantines — supervisor latched at
/// Static, run alive and contained to the end.
#[test]
fn budget_exhaustion_quarantines_and_contains() {
    let exp = quarantine_experiment(false);
    let r = exp.run(&mut rl_policy(&exp));
    assert_eq!(r.ticks.len(), 130, "quarantine contains; it does not kill");
    let at = quarantined_at(&r);
    let h = r.health.as_ref().expect("summary");
    assert_eq!(h.rollbacks, 3, "budget of three: {h:?}");
    for k in r.ticks.iter().filter(|k| k.t >= at) {
        assert_eq!(
            k.degradation,
            Some(DegradationState::Static),
            "quarantine pins the ladder at Static: t={}",
            k.t
        );
    }
}

/// Supervised, a crash restart after the quarantine reloads a
/// pre-quarantine generation with the latch clear; the quarantine must
/// still pin the ladder at Static to the end.
#[test]
fn crash_restart_keeps_supervised_quarantine() {
    let exp = quarantine_experiment(true);
    let r = exp.run(&mut rl_policy(&exp));
    let at = quarantined_at(&r);
    for k in r.ticks.iter().filter(|k| k.t >= at) {
        assert_eq!(
            k.degradation,
            Some(DegradationState::Static),
            "quarantine survives the restart: t={}",
            k.t
        );
    }
}

/// Unsupervised, quarantine parks the daemon; a crash restart after it
/// must not revive PP-M.
#[test]
fn crash_restart_keeps_unsupervised_quarantine() {
    let obs = Obs::traced();
    let exp = quarantine_experiment(true).with_obs(obs.clone());
    let r = exp.run(&mut rl_policy_as(MtatConfig::full(), &exp));
    let at = quarantined_at(&r);
    let plans: Vec<f64> = obs
        .with_tracer(|t| {
            t.spans()
                .iter()
                .filter(|s| s.name == "ppm-plan")
                .map(|s| s.sim_secs)
                .collect()
        })
        .expect("traced handle has a tracer");
    assert!(
        plans.iter().all(|&t| t < at),
        "PP-M planned after the quarantine at t={at}: {plans:?}"
    );
}

/// The crash-stop ablation arm: the first incident takes the daemon
/// down permanently (no restart at the fault window's end), and the
/// incident is reported unrecovered.
#[test]
fn crash_stop_arm_kills_the_daemon_permanently() {
    let plan = FaultPlan::new(0xCAFE).with(FaultKind::SacPoison, 21.0, 1.0);
    let exp = experiment(LoadPattern::Constant(0.5), 60.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::crash_stop());

    let r = exp.run(&mut rl_policy(&exp));
    assert_eq!(r.ticks.len(), 60, "PP-E keeps the lights on");
    let h = r.health.expect("summary");
    assert_eq!(h.rollbacks, 0, "crash-stop never rolls back: {h:?}");
    assert!(h.unrecovered >= 1, "{h:?}");
    // Dead daemon, frozen plan: once PP-E converges the placement
    // holds steady for the rest of the run.
    let late: Vec<_> = r.ticks.iter().filter(|t| t.t >= 40.0).collect();
    assert!(late.windows(2).all(|w| w[0].fmem_bytes == w[1].fmem_bytes));
}

/// Determinism contract: recovery is part of the simulation, so a run
/// that detects, rolls back, and re-learns must replay bit-identically.
#[test]
fn self_healing_runs_are_bit_identical() {
    let plan = FaultPlan::new(0x1D3)
        .with(FaultKind::CheckpointCorrupt, 18.0, 4.0)
        .with(FaultKind::SacPoison, 23.0, 1.0)
        .with(FaultKind::AccumulatorDrift { delta: 5e-4 }, 40.0, 5.0);
    let exp = experiment(LoadPattern::Constant(0.5), 60.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::self_heal());

    let a = exp.run(&mut rl_policy(&exp));
    let b = exp.run(&mut rl_policy(&exp));
    assert_ticks_bit_identical(&a, &b);
    let (ha, hb) = (a.health.expect("summary"), b.health.expect("summary"));
    assert_eq!(ha.rollbacks, hb.rollbacks);
    assert_eq!(ha.repairs, hb.repairs);
    let ja: Vec<String> = ha.events.iter().map(|e| e.jsonl()).collect();
    let jb: Vec<String> = hb.events.iter().map(|e| e.jsonl()).collect();
    assert_eq!(ja, jb, "health event logs must replay identically");
}

/// A fault window straddling the checkpoint/restore boundary: the
/// restart probe (capture → crash → restore, same tick) at t=20 sits
/// inside an active telemetry-noise + dropout window. The probed run
/// must match the unprobed run bit-for-bit — restoring mid-window
/// must not reset, replay, or skip any fault state.
#[test]
fn fault_window_straddling_restore_is_bit_identical() {
    let plan = FaultPlan::new(0x57AD)
        .with(FaultKind::TelemetryNoise { amplitude: 0.15 }, 15.0, 20.0)
        .with(FaultKind::SamplerDropout { keep: 0.6 }, 15.0, 20.0);
    let base = experiment(LoadPattern::Constant(0.5), 50.0).with_fault_plan(plan);
    let probed = base
        .clone()
        .with_checkpoints(CheckpointCfg::in_memory().with_restart_probe(20.0));

    let r_base = base.run(&mut rl_policy(&base));
    let r_probe = probed.run(&mut rl_policy(&probed));
    assert_ticks_bit_identical(&r_base, &r_probe);
    assert_eq!(
        r_base.lc_violated_requests.to_bits(),
        r_probe.lc_violated_requests.to_bits()
    );
}

/// A rollback inside a `PpmCrash` window restores the last known-good
/// generation but keeps the daemon down until the window ends: the drift
/// at t=20 rolls back to generation 1 (t=5; the window starts at the
/// t=10 boundary, so nothing newer is captured), and PP-M plans nothing
/// inside [10, 40), then resumes through the rollback's conservative
/// re-entry: the supervisor reads Proportional after the restart, not
/// the RL rung the reloaded generation was captured at.
#[test]
fn rollback_inside_crash_window_keeps_the_daemon_down() {
    let plan = FaultPlan::new(0x0D0E)
        .with(FaultKind::PpmCrash, 10.0, 30.0)
        .with(FaultKind::AccumulatorDrift { delta: 5e-3 }, 20.0, 1.0);
    let obs = Obs::traced();
    let exp = experiment(LoadPattern::Constant(0.5), 60.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory())
        .with_health(HealthConfig::self_heal())
        .with_obs(obs.clone());

    let r = exp.run(&mut rl_policy(&exp));
    let h = r.health.expect("summary");
    assert!(
        h.events
            .iter()
            .any(|e| e.kind == "rollback" && e.detail.contains("generation 1")),
        "events: {:?}",
        h.events
    );
    let plans: Vec<f64> = obs
        .with_tracer(|t| {
            t.spans()
                .iter()
                .filter(|s| s.name == "ppm-plan")
                .map(|s| s.sim_secs)
                .collect()
        })
        .expect("traced handle has a tracer");
    assert!(
        plans.iter().all(|t| !(10.0..40.0).contains(t)),
        "PP-M planned inside the crash window: {plans:?}"
    );
    assert!(
        plans.iter().any(|&t| t >= 40.0),
        "PP-M restarts when the window ends: {plans:?}"
    );
    let restart = r.ticks.iter().find(|k| k.t >= 40.0).expect("60 s run");
    assert_eq!(
        restart.degradation,
        Some(DegradationState::Proportional),
        "re-entry after the window at t={}",
        restart.t
    );
}

/// A rollback with no known-good generation quarantines every
/// generation, on disk as in memory. At load 1.2 the monitor reads
/// Degraded from t=7, so the only capture (t=10) is not known-good; the
/// poison at t=18 rolls back cold, and the restart that ends the crash
/// window at t=27 must be cold on both backends rather than resurrect
/// the t=10 generation from disk. Both backends then run identically.
#[test]
fn rollback_without_known_good_generation_restarts_cold_on_both_backends() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ckpt_no_known_good");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::new(0x0C01D)
        .with(FaultKind::SacPoison, 18.0, 1.0)
        .with(FaultKind::PpmCrash, 19.0, 8.0);
    let mut digests = Vec::new();
    for ckpt in [
        CheckpointCfg::in_memory().with_every(2),
        CheckpointCfg::on_disk(&dir).with_every(2),
    ] {
        let hub = TelemetryHub::new();
        let exp = experiment(LoadPattern::Constant(1.2), 60.0)
            .with_fault_plan(plan.clone())
            .with_checkpoints(ckpt.clone())
            .with_health(HealthConfig::self_heal())
            .with_obs(Obs::enabled())
            .with_hub(hub.clone());
        let r = exp.run(&mut rl_policy(&exp));
        let restarts: Vec<String> = hub
            .events_after(0, usize::MAX)
            .into_iter()
            .map(|(_, line)| line)
            .filter(|line| line.contains("runner.ppm_restart"))
            .collect();
        assert_eq!(restarts.len(), 1, "{:?}: {restarts:?}", ckpt.dir);
        assert!(
            restarts[0].contains("source=cold"),
            "{:?}: {restarts:?}",
            ckpt.dir
        );
        digests.push(r.digest());
    }
    assert_eq!(digests[0], digests[1], "both backends restart cold");
    let _ = std::fs::remove_dir_all(&dir);
}
