//! Static baselines: FMEM_ALL and SMEM_ALL (§5, *Comparisons*).
//!
//! * **FMEM_ALL** pins the LC workload into FMem (as much of its
//!   resident set as fits) and leaves BE workloads entirely in SMem. It
//!   is the LC performance ceiling everything in Fig. 8 is normalized
//!   against.
//! * **SMEM_ALL** forces the LC workload to run from SMem only; the BE
//!   workloads then compete for the whole FMem pool with ordinary
//!   hotness-based placement. It is the LC performance floor.

use mtat_tiermem::memory::{InitialPlacement, TieredMemory};
use mtat_tiermem::page::{Tier, WorkloadId};

use crate::policy::{Policy, SimState, WorkloadClass, WorkloadObs};
use crate::ppe::placement;
use crate::tracker::HotnessTracker;

/// SMEM_ALL's BE competition appetite per tick, in page pairs.
const PAIRS_PER_TICK: u64 = 1024;

/// Which static placement to apply to the LC workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    /// LC exclusively occupies FMem.
    FmemAll,
    /// LC uses only SMem; BE workloads share FMem by hotness.
    SmemAll,
}

/// The static LC-placement policy.
#[derive(Debug)]
pub struct StaticPolicy {
    kind: StaticKind,
    tracker: Option<HotnessTracker>,
    lc: Option<WorkloadId>,
    /// Candidate buffers reused across ticks.
    scratch: placement::PlacementScratch,
}

impl StaticPolicy {
    /// Creates FMEM_ALL.
    pub fn fmem_all() -> Self {
        Self {
            kind: StaticKind::FmemAll,
            tracker: None,
            lc: None,
            scratch: placement::PlacementScratch::default(),
        }
    }

    /// Creates SMEM_ALL.
    pub fn smem_all() -> Self {
        Self {
            kind: StaticKind::SmemAll,
            tracker: None,
            lc: None,
            scratch: placement::PlacementScratch::default(),
        }
    }

    /// The configured kind.
    pub fn kind(&self) -> StaticKind {
        self.kind
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> &str {
        match self.kind {
            StaticKind::FmemAll => "fmem_all",
            StaticKind::SmemAll => "smem_all",
        }
    }

    fn initial_placement(&self, class: WorkloadClass) -> InitialPlacement {
        match (self.kind, class) {
            (StaticKind::FmemAll, WorkloadClass::Lc) => InitialPlacement::FmemFirst,
            (StaticKind::SmemAll, WorkloadClass::Lc) => InitialPlacement::AllSmem,
            (_, WorkloadClass::Be) => InitialPlacement::AllSmem,
        }
    }

    fn init(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) {
        self.tracker = Some(HotnessTracker::new(mem));
        self.lc = workloads.iter().find(|w| w.is_lc()).map(|w| w.id);
    }

    fn fmem_target(&self, w: WorkloadId) -> Option<u64> {
        let lc = self.lc?;
        if w != lc {
            return None;
        }
        Some(match self.kind {
            StaticKind::FmemAll => u64::MAX, // "all of FMem"
            StaticKind::SmemAll => 0,
        })
    }

    fn wants_page_samples(&self) -> bool {
        // FMEM_ALL pins by residency targets alone and never consults
        // page hotness: the LC set is placed FmemFirst at registration
        // (so the pin holds from tick 0) and BE workloads are never
        // promoted, so the eviction path below cannot trigger. SMEM_ALL
        // runs hotness competition among the BEs and needs the samples.
        self.kind == StaticKind::SmemAll
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        let tracker = self.tracker.as_mut().expect("init() must run first");
        if self.kind == StaticKind::SmemAll {
            tracker.record_tick(sim.workloads);
            if sim.interval_boundary {
                tracker.age_all();
            }
        }
        let Some(lc) = self.lc else { return };
        let bes: Vec<WorkloadId> = sim
            .workloads
            .iter()
            .filter(|w| !w.is_lc())
            .map(|w| w.id)
            .collect();
        let scratch = &mut self.scratch;
        match self.kind {
            StaticKind::FmemAll => {
                // Keep the LC resident set pinned into FMem; drift can
                // only appear at startup, after which this is a no-op.
                let target = sim
                    .mem
                    .spec()
                    .fmem_pages()
                    .min(sim.mem.region(lc).n_pages as u64);
                let current = sim.mem.residency(lc).fmem_pages;
                if current < target {
                    // Evict any BE squatters first.
                    let need =
                        target - current - sim.mem.free_pages(Tier::FMem).min(target - current);
                    if need > 0 {
                        let mut pages = Vec::new();
                        for &b in &bes {
                            tracker.coldest_fmem_into(&mut pages, sim.mem, b, need as usize);
                            let granted =
                                sim.migration.try_consume_pages(pages.len() as u64) as usize;
                            sim.mem.migrate_batch(&pages[..granted], Tier::SMem);
                        }
                    }
                    placement::enforce_target(scratch, sim.mem, sim.migration, tracker, lc, target);
                }
                // BE workloads stay in SMem: nothing else to do.
            }
            StaticKind::SmemAll => {
                // Evict any LC pages from FMem, then let BE compete.
                placement::enforce_target(scratch, sim.mem, sim.migration, tracker, lc, 0);
                let pool_cap = sim.mem.spec().fmem_pages();
                placement::compete(
                    scratch,
                    sim.mem,
                    sim.migration,
                    tracker,
                    &bes,
                    pool_cap,
                    PAIRS_PER_TICK,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtat_tiermem::memory::MemorySpec;
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

    fn setup(lc_placement: InitialPlacement) -> (TieredMemory, WorkloadId, WorkloadId) {
        let spec = MemorySpec::new(4 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let lc = mem.register_workload(6 * MIB, lc_placement).unwrap();
        let be = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        (mem, lc, be)
    }

    #[test]
    fn fmem_all_pins_lc() {
        let (mut mem, lc, be) = setup(InitialPlacement::AllSmem);
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = StaticPolicy::fmem_all();
        let w = [
            obs(&mem, lc, WorkloadClass::Lc, vec![1; 6]),
            obs(&mem, be, WorkloadClass::Be, vec![100; 8]),
        ];
        p.init(&mem, &w);
        for t in 0..4 {
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: false,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            p.on_tick(&mut sim);
        }
        // LC occupies all 4 FMem pages despite BE being far hotter.
        assert_eq!(mem.residency(lc).fmem_pages, 4);
        assert_eq!(mem.residency(be).fmem_pages, 0);
        assert_eq!(p.fmem_target(lc), Some(u64::MAX));
        assert_eq!(p.fmem_target(be), None);
    }

    #[test]
    fn smem_all_evicts_lc_and_shares_among_be() {
        let (mut mem, lc, be) = setup(InitialPlacement::FmemFirst);
        assert_eq!(mem.residency(lc).fmem_pages, 4);
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = StaticPolicy::smem_all();
        let w = [
            obs(&mem, lc, WorkloadClass::Lc, vec![50; 6]),
            obs(&mem, be, WorkloadClass::Be, vec![10; 8]),
        ];
        p.init(&mem, &w);
        for t in 0..4 {
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t == 2,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            p.on_tick(&mut sim);
        }
        // LC fully evicted even though its pages are hotter; BE fills in.
        assert_eq!(mem.residency(lc).fmem_pages, 0);
        assert_eq!(mem.residency(be).fmem_pages, 4);
        assert_eq!(p.fmem_target(lc), Some(0));
    }

    #[test]
    fn initial_placement_hints() {
        let f = StaticPolicy::fmem_all();
        assert_eq!(
            f.initial_placement(WorkloadClass::Lc),
            InitialPlacement::FmemFirst
        );
        let s = StaticPolicy::smem_all();
        assert_eq!(
            s.initial_placement(WorkloadClass::Lc),
            InitialPlacement::AllSmem
        );
        assert_eq!(
            s.initial_placement(WorkloadClass::Be),
            InitialPlacement::AllSmem
        );
        assert_eq!(f.kind(), StaticKind::FmemAll);
        assert_eq!(f.name(), "fmem_all");
        assert_eq!(s.name(), "smem_all");
    }
}
