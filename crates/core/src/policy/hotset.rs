//! vTMM-style baseline: FMem partitioned in proportion to hot-set size.
//!
//! vTMM (EuroSys '23, discussed in the paper's §6) defines each tenant's
//! *hot set size* as the number of its pages whose access count exceeds
//! a base threshold and allocates FMem to tenants proportionally to
//! those sizes, enforcing the shares with ordinary hotness-based
//! placement inside each share.
//!
//! It is an instructive middle point between MEMTIS (no partitions at
//! all) and MTAT (SLO-aware partitions): it *does* isolate tenants, but
//! its sizing signal is still pure access frequency — so a uniform,
//! bursty LC workload still under-claims FMem relative to what its SLO
//! needs, and there is no fairness objective among the BE workloads.

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::WorkloadId;

use crate::policy::{Policy, SimState, WorkloadObs};
use crate::ppe::placement;
use crate::ppe::HOTNESS_HYSTERESIS;
use crate::tracker::HotnessTracker;

/// A page is "hot" if its (aged) access count is at least this.
const HOT_THRESHOLD: u64 = 8;
/// Per-tick placement appetite per workload, in page pairs.
const PAIRS_PER_TICK: u64 = 256;

/// The vTMM-like hot-set-proportional policy.
#[derive(Debug, Default)]
pub struct HotsetPolicy {
    tracker: Option<HotnessTracker>,
    targets: Vec<u64>,
    page_size: u64,
}

impl HotsetPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hot-set size (pages over the threshold) of workload `w`.
    fn hot_set_size(&self, w: WorkloadId) -> u64 {
        let tracker = self.tracker.as_ref().expect("init() must run first");
        tracker
            .histogram(w)
            .iter()
            .filter(|&(_, c)| c >= HOT_THRESHOLD)
            .count() as u64
    }

    /// Recomputes per-workload FMem page targets proportional to hot-set
    /// sizes (even split if every hot set is empty).
    fn recompute_targets(&mut self, mem: &TieredMemory) {
        let n = mem.workload_count();
        let fmem = mem.spec().fmem_pages();
        let sizes: Vec<u64> = (0..n)
            .map(|i| self.hot_set_size(WorkloadId(i as u16)))
            .collect();
        let total: u64 = sizes.iter().sum();
        self.targets = if total == 0 {
            vec![fmem / n as u64; n]
        } else {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let share = (fmem as u128 * s as u128 / total as u128) as u64;
                    // Cap at the workload's resident set.
                    share.min(mem.region(WorkloadId(i as u16)).n_pages as u64)
                })
                .collect()
        };
    }
}

impl Policy for HotsetPolicy {
    fn name(&self) -> &str {
        "hotset"
    }

    fn init(&mut self, mem: &TieredMemory, _workloads: &[WorkloadObs]) {
        self.tracker = Some(HotnessTracker::new(mem));
        self.targets = vec![0; mem.workload_count()];
        self.page_size = mem.spec().page_size();
    }

    fn fmem_target(&self, w: WorkloadId) -> Option<u64> {
        self.targets
            .get(w.index())
            .map(|&pages| pages * self.page_size)
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        {
            let tracker = self.tracker.as_mut().expect("init() must run first");
            tracker.record_tick(sim.workloads);
        }
        if sim.interval_boundary {
            self.recompute_targets(sim.mem);
            self.tracker.as_mut().expect("initialized").age_all();
        }
        if self.targets.iter().all(|&t| t == 0) {
            self.recompute_targets(sim.mem);
        }

        // Enforce shares: demote over-quota workloads first, then promote
        // under-quota ones, then refine within each share.
        let tracker = self.tracker.as_ref().expect("initialized");
        let n = sim.mem.workload_count();
        for i in 0..n {
            let w = WorkloadId(i as u16);
            if sim.mem.residency(w).fmem_pages > self.targets[i] {
                placement::enforce_target(sim.mem, sim.migration, tracker, w, self.targets[i]);
            }
        }
        for i in 0..n {
            let w = WorkloadId(i as u16);
            if sim.mem.residency(w).fmem_pages < self.targets[i] {
                placement::enforce_target(sim.mem, sim.migration, tracker, w, self.targets[i]);
            }
            placement::refine_swaps(
                sim.mem,
                sim.migration,
                tracker,
                w,
                PAIRS_PER_TICK,
                HOTNESS_HYSTERESIS,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorkloadClass;
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
    use mtat_tiermem::migration::MigrationEngine;
    use mtat_tiermem::MIB;

    fn obs(mem: &TieredMemory, w: WorkloadId, sampled: Vec<u64>) -> WorkloadObs {
        WorkloadObs {
            id: w,
            class: WorkloadClass::Be,
            name: format!("w{}", w.0),
            rss_bytes: mem.region(w).n_pages as u64 * MIB,
            cores: 1,
            load_rps: 0.0,
            p99_secs: 0.0,
            slo_secs: f64::INFINITY,
            hit_ratio: 0.0,
            access_rate: 0.0,
            throughput: 0.0,
            sampled,
            touched: Default::default(),
            slo_violated: false,
        }
    }

    fn run_ticks(
        policy: &mut HotsetPolicy,
        mem: &mut TieredMemory,
        engine: &mut MigrationEngine,
        mk: impl Fn(&TieredMemory) -> Vec<WorkloadObs>,
        ticks: usize,
        interval_every: usize,
    ) {
        for t in 0..ticks {
            let w = mk(mem);
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem,
                migration: engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t > 0 && t % interval_every == 0,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
    }

    #[test]
    fn fmem_split_follows_hot_set_sizes() {
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let b = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = HotsetPolicy::new();
        p.init(&mem, &[obs(&mem, a, vec![0; 8]), obs(&mem, b, vec![0; 8])]);
        // a has 6 hot pages, b has 2.
        run_ticks(
            &mut p,
            &mut mem,
            &mut engine,
            |m| {
                vec![
                    obs(m, a, vec![20, 20, 20, 20, 20, 20, 0, 0]),
                    obs(m, b, vec![20, 20, 0, 0, 0, 0, 0, 0]),
                ]
            },
            8,
            2,
        );
        let ra = mem.residency(a).fmem_pages;
        let rb = mem.residency(b).fmem_pages;
        assert_eq!(ra, 6, "a holds its hot set: {ra}");
        assert_eq!(rb, 2, "b holds its hot set: {rb}");
        mem.check_invariants().unwrap();
    }

    #[test]
    fn uniform_cold_workload_underclaims() {
        // The baseline's blind spot (and MTAT's motivation): a workload
        // whose pages never cross the hot threshold gets almost nothing,
        // regardless of its latency needs.
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let lc = mem
            .register_workload(8 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let be = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = HotsetPolicy::new();
        p.init(
            &mem,
            &[obs(&mem, lc, vec![0; 8]), obs(&mem, be, vec![0; 8])],
        );
        run_ticks(
            &mut p,
            &mut mem,
            &mut engine,
            |m| {
                vec![
                    obs(m, lc, vec![1; 8]),   // uniform, sub-threshold
                    obs(m, be, vec![100; 8]), // every page hot
                ]
            },
            10,
            2,
        );
        assert_eq!(mem.residency(lc).fmem_pages, 0, "LC displaced");
        assert_eq!(mem.residency(be).fmem_pages, 8);
    }

    #[test]
    fn empty_hot_sets_split_evenly() {
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let b = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut p = HotsetPolicy::new();
        p.init(&mem, &[obs(&mem, a, vec![0; 8]), obs(&mem, b, vec![0; 8])]);
        p.recompute_targets(&mem);
        assert_eq!(p.targets, vec![4, 4]);
        assert_eq!(p.name(), "hotset");
    }
}
