//! The feature lattice: every combination of faults × checkpoints ×
//! health × scenario × hardening runs under three observer set-ups —
//! none; metrics with SLO alerts and a telemetry hub; full span tracing.
//! Where checkpoints are on, the runs carry the bit-identity restart
//! probe at t=20 and are compared with one unprobed run as well.
//!
//! Observers never feed back into the physics and a checkpoint restored
//! in place changes nothing, so every run of a configuration must give
//! the same digest and the same health-event log, and every run must end
//! with a passing audit: an absent stage changes nothing, and a present
//! observer stage changes nothing either.

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::{HealthConfig, RunResult};
use mtat_obs::alert::AlertRule;
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::adversarial;

fn base() -> Experiment {
    let mut lc = LcSpec::redis();
    lc.rss_bytes = (1.2 * GIB as f64) as u64;
    let mut be = BeSpec::sssp();
    be.rss_bytes = 2 * GIB;
    let load = LoadPattern::staircase(&[0.4, 0.9, 0.5], 20.0);
    Experiment::new(SimConfig::small_test(), lc, load, vec![be]).with_duration(60.0)
}

/// Every fault the fault stage handles without the health subsystem
/// finishing the run: telemetry delay, noise and blackout, flaky
/// migrations, a contention spike, a torn checkpoint, a PP-M outage and
/// a slow controller (which the watchdog answers when health is on).
fn faults() -> FaultPlan {
    FaultPlan::new(0x1A77)
        .with(FaultKind::MigrationFlaky { prob: 0.3 }, 6.0, 40.0)
        .with(FaultKind::TelemetryStale { ticks: 2 }, 11.0, 6.0)
        .with(FaultKind::TelemetryNoise { amplitude: 0.1 }, 12.0, 20.0)
        .with(FaultKind::SamplerBlackout, 26.0, 3.0)
        .with(FaultKind::BandwidthSpike { extra: 0.5 }, 30.0, 4.0)
        .with(FaultKind::CheckpointCorrupt, 33.0, 4.0)
        .with(FaultKind::PpmCrash, 36.0, 8.0)
        .with(FaultKind::ClockSkew { factor: 3.0 }, 47.0, 5.0)
}

fn run(exp: &Experiment, hardened: bool) -> RunResult {
    let mut cfg = MtatConfig::full().with_heuristic_sizer().supervised();
    cfg.online_learning = false;
    cfg.hardened = hardened;
    let mut policy = MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes);
    exp.run(&mut policy)
}

/// The run's identity: its digest and its health-event log.
fn identity(r: &RunResult) -> (u64, Vec<String>) {
    let events = r
        .health
        .as_ref()
        .map(|h| h.events.iter().map(|e| e.jsonl()).collect())
        .unwrap_or_default();
    (r.digest(), events)
}

#[test]
fn every_stage_combination_is_observer_and_probe_neutral() {
    for bits in 0..32u32 {
        let (with_faults, with_ckpt, with_health, with_scenario, hardened) = (
            bits & 1 != 0,
            bits & 2 != 0,
            bits & 4 != 0,
            bits & 8 != 0,
            bits & 16 != 0,
        );
        let label = format!(
            "faults={with_faults} checkpoints={with_ckpt} health={with_health} \
             scenario={with_scenario} hardened={hardened}"
        );
        let mut exp = base();
        if with_faults {
            exp = exp.with_fault_plan(faults());
        }
        if with_health {
            exp = exp.with_health(HealthConfig::self_heal());
        }
        if with_scenario {
            exp = exp.with_scenario(adversarial("thrash_rotate").expect("registered"));
        }
        let mut reference = None;
        if with_ckpt {
            let plain = exp.clone().with_checkpoints(CheckpointCfg::in_memory());
            reference = Some(identity(&run(&plain.with_obs(Obs::disabled()), hardened)));
            exp = exp.with_checkpoints(CheckpointCfg::in_memory().with_restart_probe(20.0));
        }
        let observed = [
            exp.clone().with_obs(Obs::disabled()),
            exp.clone()
                .with_obs(Obs::enabled())
                .with_alerts(AlertRule::default_rules(0.01))
                .with_hub(TelemetryHub::new()),
            exp.with_obs(Obs::traced()),
        ];
        for (i, variant) in observed.iter().enumerate() {
            let r = run(variant, hardened);
            assert_eq!(r.ticks.len(), 60, "{label} observer {i}");
            if let Some(h) = &r.health {
                assert!(h.final_audit_ok, "{label} observer {i}: {h:?}");
            }
            let id = identity(&r);
            match &reference {
                Some(want) => assert_eq!(&id, want, "{label} observer {i}"),
                None => reference = Some(id),
            }
        }
    }
}
