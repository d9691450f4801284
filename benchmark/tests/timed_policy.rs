//! The policy wrapper forwards everything and changes nothing.

use std::cell::RefCell;
use std::rc::Rc;

use mtat_benchmark::timed::TimedPolicy;
use mtat_core::config::SimConfig;
use mtat_core::policy::memtis::MemtisPolicy;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::policy::{Policy, SimState, WorkloadClass, WorkloadObs};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::supervisor::DegradationState;
use mtat_core::HealthConfig;
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::memory::{InitialPlacement, MemorySpec, TieredMemory};
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::WorkloadId;
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

fn small_experiment(secs: f64) -> Experiment {
    let mut lc = LcSpec::redis();
    lc.rss_bytes = (1.2 * GIB as f64) as u64;
    let mut be = BeSpec::sssp();
    be.rss_bytes = 2 * GIB;
    Experiment::new(SimConfig::small_test(), lc, LoadPattern::fig7(), vec![be])
        .with_duration(secs)
        .with_obs(Obs::disabled())
}

/// Runs `exp` under a fresh policy plain and wrapped; the digests must
/// match bit for bit.
fn assert_transparent(exp: &Experiment, make: &dyn Fn(&Experiment) -> Box<dyn Policy>) {
    let plain = exp.run(make(exp).as_mut());
    let mut timed = TimedPolicy::new(make(exp));
    let wrapped = exp.run(&mut timed);
    assert_eq!(plain.digest(), wrapped.digest());
    assert_eq!(plain.failed_moves, wrapped.failed_moves);
    let log = timed.into_log();
    assert_eq!(log.tick_entries.len(), wrapped.ticks.len());
    assert_eq!(log.tick_gaps_ns().len(), wrapped.ticks.len() - 1);
    assert!(log.init_at.is_some());
}

#[test]
fn memtis_digest_is_unchanged() {
    assert_transparent(&small_experiment(120.0), &|_| Box::new(MemtisPolicy::new()));
}

#[test]
fn heuristic_mtat_digest_is_unchanged() {
    assert_transparent(&small_experiment(120.0), &|e| {
        Box::new(MtatPolicy::new(
            MtatConfig::full().with_heuristic_sizer(),
            &e.cfg,
            &e.lc,
            &e.bes,
        ))
    });
}

#[test]
fn faulted_checkpointed_supervised_mtat_digest_is_unchanged() {
    let plan = FaultPlan::new(11)
        .with(FaultKind::FaultStorm { intensity: 0.95 }, 31.0, 20.0)
        .with(FaultKind::MigrationFlaky { prob: 0.2 }, 41.0, 30.0)
        .with(FaultKind::CheckpointCorrupt, 61.0, 15.0)
        .with(FaultKind::PpmCrash, 81.0, 10.0)
        .with(FaultKind::AccumulatorDrift { delta: 5e-4 }, 101.0, 5.0);
    let exp = small_experiment(160.0)
        .with_fault_plan(plan)
        .with_checkpoints(CheckpointCfg::in_memory().with_every(2))
        .with_health(HealthConfig::self_heal());
    let make = |e: &Experiment| -> Box<dyn Policy> {
        let cfg = MtatConfig {
            pretrain_steps: 200,
            ..MtatConfig::full().supervised()
        };
        Box::new(MtatPolicy::new(cfg, &e.cfg, &e.lc, &e.bes))
    };
    assert_transparent(&exp, &make);
    // The checkpoint and restart paths ran, so they were timed.
    let mut timed = TimedPolicy::new(make(&exp));
    let r = exp.run(&mut timed);
    let log = timed.into_log();
    assert!(!log.checkpoint_ns.is_empty());
    assert_eq!(log.checkpoint_ns.len(), log.checkpoint_bytes.len());
    assert!(!log.restart_ns.is_empty());
    assert!(log.probes as usize >= r.ticks.len());
}

/// A policy that records every call made into it and answers each with
/// a non-default value, so a method the wrapper fails to forward shows.
struct Recorder(Rc<RefCell<Vec<&'static str>>>);

impl Recorder {
    fn note(&self, what: &'static str) {
        self.0.borrow_mut().push(what);
    }
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        self.note("name");
        "recorder"
    }
    fn init(&mut self, _: &TieredMemory, _: &[WorkloadObs]) {
        self.note("init");
    }
    fn set_obs(&mut self, _: &Obs) {
        self.note("set_obs");
    }
    fn on_tick(&mut self, _: &mut SimState<'_>) {
        self.note("on_tick");
    }
    fn initial_placement(&self, _: WorkloadClass) -> InitialPlacement {
        self.note("initial_placement");
        InitialPlacement::AllSmem
    }
    fn smem_access_penalty(&self, _: WorkloadId) -> f64 {
        self.note("smem_access_penalty");
        1.5
    }
    fn fmem_target(&self, _: WorkloadId) -> Option<u64> {
        self.note("fmem_target");
        Some(7)
    }
    fn degradation(&self) -> Option<DegradationState> {
        self.note("degradation");
        Some(DegradationState::Static)
    }
    fn wants_page_samples(&self) -> bool {
        self.note("wants_page_samples");
        false
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.note("checkpoint");
        Some(vec![1, 2, 3])
    }
    fn on_controller_crash(&mut self) {
        self.note("on_controller_crash");
    }
    fn on_controller_restart(&mut self, _: &TieredMemory, _: Option<&[u8]>) {
        self.note("on_controller_restart");
    }
    fn health_probe(&self) -> Result<(), String> {
        self.note("health_probe");
        Err("poisoned".into())
    }
    fn inject_poison(&mut self) {
        self.note("inject_poison");
    }
    fn enter_quarantine(&mut self, _: f64) {
        self.note("enter_quarantine");
    }
    fn after_rollback(&mut self, _: f64) {
        self.note("after_rollback");
    }
}

#[test]
fn every_policy_method_is_forwarded() {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let mut p = TimedPolicy::new(Box::new(Recorder(Rc::clone(&calls))));
    let mut mem = TieredMemory::new(MemorySpec::new(1 << 20, 1 << 20, 1 << 20).unwrap());
    let mut engine = MigrationEngine::new(1e9, 1 << 20, 5.0).unwrap();

    assert_eq!(p.name(), "recorder");
    p.init(&mem, &[]);
    p.set_obs(&Obs::disabled());
    p.on_tick(&mut SimState {
        mem: &mut mem,
        migration: &mut engine,
        workloads: &[],
        tick_secs: 1.0,
        now_secs: 0.0,
        interval_boundary: false,
        obs_age_ticks: 0,
        fmem_bw_util: 0.0,
        smem_bw_util: 0.0,
        scenario_phase: 0,
    });
    assert_eq!(
        p.initial_placement(WorkloadClass::Lc),
        InitialPlacement::AllSmem
    );
    assert_eq!(p.smem_access_penalty(WorkloadId(0)), 1.5);
    assert_eq!(p.fmem_target(WorkloadId(0)), Some(7));
    assert_eq!(p.degradation(), Some(DegradationState::Static));
    assert!(!p.wants_page_samples());
    assert_eq!(p.checkpoint(), Some(vec![1, 2, 3]));
    p.on_controller_crash();
    p.on_controller_restart(&mem, None);
    assert_eq!(p.health_probe(), Err("poisoned".to_string()));
    p.inject_poison();
    p.enter_quarantine(1.0);
    p.after_rollback(1.0);

    let mut seen = calls.borrow().clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 16, "forwarded: {seen:?}");

    let log = p.into_log();
    assert_eq!(log.on_tick_ns.len(), 1);
    assert_eq!(log.checkpoint_bytes, vec![3]);
    assert_eq!(log.restart_ns.len(), 1);
    assert_eq!(log.probes, 1);
}
