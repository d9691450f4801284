//! The page-placement policy abstraction and the built-in policies.
//!
//! Every memory-management scheme evaluated in the paper — MTAT (Full),
//! MTAT (LC Only), MEMTIS, TPP, FMEM_ALL, and SMEM_ALL — implements
//! [`Policy`]. The simulation driver calls [`Policy::on_tick`] once per
//! tick with a [`SimState`] view: the page table, the metered migration
//! engine, and per-workload observations (sampled access counts, loads,
//! latencies). The policy migrates pages; the driver measures the
//! consequences.

pub mod hotset;
pub mod memtis;
pub mod mtat;
pub mod statics;
pub mod tpp;

use mtat_obs::Obs;
use mtat_tiermem::memory::{InitialPlacement, TieredMemory};
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::WorkloadId;

use crate::supervisor::DegradationState;

/// Whether a workload is latency-critical or best-effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Latency-critical: has an SLO, load varies.
    Lc,
    /// Best-effort: runs flat out, measured by throughput.
    Be,
}

/// Per-workload observations for the current tick, produced by the
/// simulation driver before the policy runs.
#[derive(Debug, Clone)]
pub struct WorkloadObs {
    /// The workload's id in the page table.
    pub id: WorkloadId,
    /// LC or BE.
    pub class: WorkloadClass,
    /// Benchmark name.
    pub name: String,
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Cores serving this workload.
    pub cores: usize,
    /// Offered load in requests/second (0 for BE).
    pub load_rps: f64,
    /// P99 response time observed last tick (seconds; infinite when
    /// saturated, 0 for BE).
    pub p99_secs: f64,
    /// The workload's SLO (infinite for BE).
    pub slo_secs: f64,
    /// FMem hit ratio observed last tick.
    pub hit_ratio: f64,
    /// True memory accesses per second this tick.
    pub access_rate: f64,
    /// Achieved throughput (requests/s for LC, ops/s for BE).
    pub throughput: f64,
    /// PEBS-estimated access counts per page rank for this tick
    /// (sampled events × sampling period).
    pub sampled: Vec<u64>,
    /// Dirty-rank bitset over `sampled`: which ranks the sampler
    /// scattered events into this tick. Consumers walk set bits (in
    /// ascending rank order, matching a dense front-to-back scan)
    /// instead of every page. The default is the conservative all-dirty
    /// state, which preserves dense semantics for observations no
    /// sampler pass has written.
    pub touched: mtat_tiermem::sampler::TouchedSet,
    /// Whether the last tick violated the SLO.
    pub slo_violated: bool,
}

impl WorkloadObs {
    /// Convenience: is this the latency-critical workload?
    pub fn is_lc(&self) -> bool {
        self.class == WorkloadClass::Lc
    }
}

/// Mutable view of the system handed to a policy each tick.
///
/// `mem` and `migration` are disjoint fields, so a policy can hold
/// references to both simultaneously. All migrations must be paid for
/// through `migration` before being applied to `mem`: a slice of page
/// moves with `try_consume_pages`, a sequence of promotions and
/// exchanges with `try_consume_moves`, which keeps the per-move fault
/// cadence. The driver resets the per-tick budget before each call.
#[derive(Debug)]
pub struct SimState<'a> {
    /// The page table.
    pub mem: &'a mut TieredMemory,
    /// The bandwidth-metered migration engine.
    pub migration: &'a mut MigrationEngine,
    /// Per-workload observations (indexed by `WorkloadId`).
    pub workloads: &'a [WorkloadObs],
    /// Tick length in seconds.
    pub tick_secs: f64,
    /// Simulation time at the start of this tick.
    pub now_secs: f64,
    /// True when a partitioning interval boundary has just been reached
    /// (PP-M runs, histograms age).
    pub interval_boundary: bool,
    /// Age of `workloads` in ticks: 0 when observations are current,
    /// larger under injected telemetry staleness
    /// ([`mtat_tiermem::faults::FaultKind::TelemetryStale`]). Policies
    /// with a supervisor use this to detect a lagging telemetry path.
    pub obs_age_ticks: u64,
    /// Fast-tier bandwidth utilization (0..1) observed last tick — the
    /// signal the §7 bandwidth-aware extension reacts to.
    pub fmem_bw_util: f64,
    /// Slow-tier bandwidth utilization (0..1) observed last tick.
    pub smem_bw_util: f64,
    /// Active adversarial-scenario phase id (0 = no scenario). Threaded
    /// into decision provenance so "what was the workload doing when
    /// this plan landed" reconstructs post-hoc; policies must not act
    /// on it (the scenario is the adversary, not a sensor).
    pub scenario_phase: u32,
}

/// A page-placement policy under evaluation.
pub trait Policy {
    /// Short display name (e.g. `"memtis"`).
    fn name(&self) -> &str;

    /// Called once after all workloads are registered, before the first
    /// tick. Policies build their histograms and initial targets here.
    fn init(&mut self, _mem: &TieredMemory, _workloads: &[WorkloadObs]) {}

    /// Hands the policy the run's telemetry handle before the first
    /// tick. Policies that export internal state (plan deltas, learner
    /// diagnostics, supervisor transitions) keep a clone; the default
    /// ignores it. The handle may be disabled — every call on it is
    /// then a no-op — and instrumentation must never influence the
    /// policy's decisions.
    fn set_obs(&mut self, _obs: &Obs) {}

    /// Called every tick; the policy observes and migrates.
    fn on_tick(&mut self, sim: &mut SimState<'_>);

    /// Where workload pages should initially be placed for this policy.
    /// Defaults to the paper's setup: the LC workload starts resident in
    /// FMem (Fig. 2: "Redis initially occupies 100 % of available
    /// FMem"), BE workloads start cold in SMem.
    fn initial_placement(&self, class: WorkloadClass) -> InitialPlacement {
        match class {
            WorkloadClass::Lc => InitialPlacement::FmemFirst,
            WorkloadClass::Be => InitialPlacement::AllSmem,
        }
    }

    /// Extra latency (seconds) added to each *SMem* access of workload
    /// `w` — e.g. TPP's NUMA-hint page-fault stalls. The driver folds
    /// this into the workload's service time.
    fn smem_access_penalty(&self, _w: WorkloadId) -> f64 {
        0.0
    }

    /// The policy's current FMem partition target for `w` in bytes, if it
    /// maintains explicit partitions (diagnostics; `None` for
    /// hotness-competition policies).
    fn fmem_target(&self, _w: WorkloadId) -> Option<u64> {
        None
    }

    /// The policy's current degradation state, if it runs under a
    /// [`crate::supervisor::Supervisor`]; `None` for unsupervised
    /// policies. The driver records this in every
    /// [`crate::stats::TickRecord`].
    fn degradation(&self) -> Option<DegradationState> {
        None
    }

    /// Whether this policy consumes the per-page sampled access counts
    /// in [`WorkloadObs::sampled`]. The driver skips the PEBS sampling
    /// pass entirely for policies that return `false` — a real daemon
    /// would not program the PMU with no consumer attached — leaving
    /// `sampled` all-zero. The simulation physics (hit ratios, latency,
    /// throughput) never read the sampled counts, so skipping them
    /// changes no run output for such a policy.
    fn wants_page_samples(&self) -> bool {
        true
    }

    /// Serializes the policy's user-space controller state (the PP-M
    /// daemon's view: learned weights, replay buffer, schedules,
    /// accumulators) for crash recovery. `None` — the default — means
    /// the policy has no controller state worth persisting; the driver
    /// then skips checkpointing entirely.
    ///
    /// The returned bytes are a raw payload: the driver seals them into
    /// the versioned, checksummed envelope
    /// ([`mtat_snapshot::seal`]) before writing anything to disk.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// The policy's controller daemon has crashed
    /// ([`mtat_tiermem::faults::FaultKind::PpmCrash`]). Until
    /// [`Policy::on_controller_restart`] is called, [`Policy::on_tick`]
    /// keeps running every tick — modeling the in-kernel enforcement
    /// half that outlives the daemon — but the policy must make no new
    /// control decisions. Policies without a daemon/enforcer split may
    /// ignore the hook (default: no-op).
    fn on_controller_crash(&mut self) {}

    /// The controller daemon has been restarted. `checkpoint` carries
    /// the payload of the latest valid checkpoint (already unsealed and
    /// checksum-verified by the driver), or `None` when no usable
    /// checkpoint survives — the policy then performs a cold restart
    /// from `mem`'s current placement alone. Default: no-op.
    fn on_controller_restart(&mut self, _mem: &TieredMemory, _checkpoint: Option<&[u8]>) {}

    /// Scans the policy's numeric surfaces for poison (NaN/Inf where
    /// finiteness is an invariant). `Ok(())` means every sentinel is
    /// quiet; `Err` names the first poisoned surface. The driver's
    /// health monitor calls this every tick (and before marking a
    /// checkpoint known-good), so implementations must be cheap.
    /// Default: no numeric surfaces, always healthy.
    fn health_probe(&self) -> Result<(), String> {
        Ok(())
    }

    /// Fault injection: corrupt the policy's learned state
    /// ([`mtat_tiermem::faults::FaultKind::SacPoison`]). Policies
    /// without learned state ignore the hook (default: no-op).
    fn inject_poison(&mut self) {}

    /// The health monitor has exhausted its rollback budget: park the
    /// policy on its most trustworthy fallback permanently (e.g. latch
    /// a supervisor at its Static rung). The runner calls it again after
    /// every controller restore while quarantined, because a restore may
    /// reload state captured before the quarantine. Default: no-op.
    fn enter_quarantine(&mut self, _now_secs: f64) {}

    /// A rollback just restored this policy from a known-good
    /// checkpoint. Re-enter conservatively (e.g. force the supervisor
    /// ladder to a non-RL rung) instead of resuming nominal control on
    /// the first post-rollback tick. Default: no-op.
    fn after_rollback(&mut self, _now_secs: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl Policy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn on_tick(&mut self, _sim: &mut SimState<'_>) {}
    }

    #[test]
    fn default_trait_methods() {
        let mut p = Noop;
        assert_eq!(p.checkpoint(), None);
        p.on_controller_crash();
        let mem = TieredMemory::new(
            mtat_tiermem::memory::MemorySpec::new(1 << 20, 1 << 20, 1 << 20).unwrap(),
        );
        p.on_controller_restart(&mem, None);
        p.on_controller_restart(&mem, Some(&[1, 2, 3]));
        assert_eq!(p.name(), "noop");
        assert_eq!(p.smem_access_penalty(WorkloadId(0)), 0.0);
        assert_eq!(p.fmem_target(WorkloadId(0)), None);
        assert_eq!(p.degradation(), None);
        assert_eq!(
            p.initial_placement(WorkloadClass::Lc),
            InitialPlacement::FmemFirst
        );
        assert_eq!(
            p.initial_placement(WorkloadClass::Be),
            InitialPlacement::AllSmem
        );
    }

    #[test]
    fn workload_obs_is_lc() {
        let obs = WorkloadObs {
            id: WorkloadId(0),
            class: WorkloadClass::Lc,
            name: "x".into(),
            rss_bytes: 1,
            cores: 1,
            load_rps: 0.0,
            p99_secs: 0.0,
            slo_secs: 1.0,
            hit_ratio: 0.0,
            access_rate: 0.0,
            throughput: 0.0,
            sampled: vec![],
            touched: Default::default(),
            slo_violated: false,
        };
        assert!(obs.is_lc());
    }
}
