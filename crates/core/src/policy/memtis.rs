//! MEMTIS-like baseline: global hotness-histogram page placement.
//!
//! MEMTIS (SOSP '23) keeps per-page access histograms and migrates the
//! hottest pages into FMem regardless of which tenant owns them — there
//! is no notion of partitions or SLOs. That is exactly the behaviour the
//! paper's motivation section dissects: stable, high-frequency BE pages
//! monopolize FMem while the LC workload's uniformly-touched pages look
//! cold and are displaced, so its FMem residency collapses (Fig. 2) and
//! its SLO is violated under load (Fig. 5, Table 4).
//!
//! The reproduction implements the placement core — sampled counts into
//! exponential-bin histograms, periodic aging, promote-hottest /
//! demote-coldest competition over the whole FMem pool — and inherits
//! its observable consequences from the workload models.

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::WorkloadId;

use crate::policy::{Policy, SimState, WorkloadObs};
use crate::ppe::placement;
use crate::tracker::HotnessTracker;

/// Migration appetite per tick, in page pairs.
const PAIRS_PER_TICK: u64 = 1024;

/// The MEMTIS-like global hotness policy.
#[derive(Debug)]
pub struct MemtisPolicy {
    tracker: Option<HotnessTracker>,
    /// Candidate buffers reused across ticks.
    scratch: placement::PlacementScratch,
    /// Workload-id buffer reused across ticks.
    all_ids: Vec<WorkloadId>,
    /// Telemetry handle; phase spans for tracking vs placement.
    obs: mtat_obs::Obs,
}

impl MemtisPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self {
            tracker: None,
            scratch: placement::PlacementScratch::default(),
            all_ids: Vec::new(),
            obs: mtat_obs::Obs::disabled(),
        }
    }
}

impl Default for MemtisPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for MemtisPolicy {
    fn name(&self) -> &str {
        "memtis"
    }

    fn init(&mut self, mem: &TieredMemory, _workloads: &[WorkloadObs]) {
        self.tracker = Some(HotnessTracker::new(mem));
    }

    fn set_obs(&mut self, obs: &mtat_obs::Obs) {
        self.obs = obs.clone();
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        let tracker = self.tracker.as_mut().expect("init() must run first");
        {
            let _track = self.obs.span(sim.now_secs, "track");
            tracker.record_tick(sim.workloads);
            if sim.interval_boundary {
                let _age = self.obs.span(sim.now_secs, "age");
                tracker.age_all();
            }
        }
        let _place = self.obs.span(sim.now_secs, "ppe-enforce");
        self.all_ids.clear();
        self.all_ids.extend(sim.workloads.iter().map(|w| w.id));
        let pool_cap = sim.mem.spec().fmem_pages();
        placement::compete_with(
            &mut self.scratch,
            sim.mem,
            sim.migration,
            tracker,
            &self.all_ids,
            pool_cap,
            PAIRS_PER_TICK,
            crate::ppe::HOTNESS_HYSTERESIS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorkloadClass;
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
    use mtat_tiermem::migration::MigrationEngine;
    use mtat_tiermem::MIB;

    fn obs(
        mem: &TieredMemory,
        w: WorkloadId,
        class: WorkloadClass,
        sampled: Vec<u64>,
    ) -> WorkloadObs {
        WorkloadObs {
            id: w,
            class,
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

    /// The paper's motivating pathology in miniature: an LC workload that
    /// starts fully FMem-resident is displaced by a BE workload whose
    /// pages are individually hotter.
    #[test]
    fn be_displaces_lc_under_memtis() {
        let spec = MemorySpec::new(4 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let lc = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let be = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();

        let mut policy = MemtisPolicy::new();
        let init_obs = [
            obs(&mem, lc, WorkloadClass::Lc, vec![0; 4]),
            obs(&mem, be, WorkloadClass::Be, vec![0; 8]),
        ];
        policy.init(&mem, &init_obs);

        for tick in 0..6 {
            // LC touches each page once (uniform, sparse); BE hammers
            // its first four pages.
            let w = [
                obs(&mem, lc, WorkloadClass::Lc, vec![1; 4]),
                obs(
                    &mem,
                    be,
                    WorkloadClass::Be,
                    vec![200, 180, 160, 140, 0, 0, 0, 0],
                ),
            ];
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: tick as f64,
                interval_boundary: false,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
        // BE's four hot pages now own the whole FMem pool.
        assert_eq!(mem.residency(be).fmem_pages, 4);
        assert_eq!(mem.residency(lc).fmem_pages, 0, "LC displaced to SMem");
    }

    #[test]
    fn aging_happens_on_interval_boundary() {
        let spec = MemorySpec::new(2 * MIB, 16 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(2 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut policy = MemtisPolicy::new();
        let w = [obs(&mem, a, WorkloadClass::Be, vec![8, 0])];
        policy.init(&mem, &w);
        engine.begin_tick(1.0);
        let mut sim = SimState {
            mem: &mut mem,
            migration: &mut engine,
            workloads: &w,
            tick_secs: 1.0,
            now_secs: 0.0,
            interval_boundary: true,
            obs_age_ticks: 0,
            fmem_bw_util: 0.0,
            smem_bw_util: 0.0,
            scenario_phase: 0,
        };
        policy.on_tick(&mut sim);
        // Recorded 8, then aged to 4.
        assert_eq!(policy.tracker.as_ref().unwrap().histogram(a).total(), 4);
    }

    #[test]
    fn name_and_default() {
        assert_eq!(MemtisPolicy::default().name(), "memtis");
    }
}
