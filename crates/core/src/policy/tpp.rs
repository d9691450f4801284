//! TPP-like baseline: fault-driven promotion with LRU-style demotion.
//!
//! TPP (ASPLOS '23) relies on the kernel's NUMA-hint page faults: a page
//! accessed while resident in the slow tier takes a minor fault, which
//! both *costs latency on the access path* and nominates the page for
//! promotion; demotion pressure comes from an active/inactive LRU list
//! that evicts the least-recently-touched FMem pages when the fast tier
//! runs low. Two consequences the paper highlights:
//!
//! * continuous page-fault-induced migration makes TPP's LC latency
//!   *worse than running from SMem outright* (Fig. 5: "TPP experiences
//!   even more severe latency degradation than SMEM_ALL"), and
//! * promotion-on-touch with no per-tenant accounting produces severe
//!   FMem thrash between co-located workloads (lowest fairness, Fig. 6).
//!
//! The reproduction models the hint-fault cost as a per-SMem-access
//! latency penalty ([`Policy::smem_access_penalty`]) and the placement
//! loop as promote-recently-touched / demote-least-recently-touched
//! under a free-frame watermark.

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::{PageId, Tier, WorkloadId};

use crate::policy::{Policy, SimState, WorkloadObs};
use crate::prefix_sort::{Order, PrefixSort};

/// Fraction of SMem accesses that take a NUMA-hint minor fault. With
/// [`FAULT_COST_SECS`], calibrated so that an LC workload running
/// entirely from SMem under TPP sustains ~90 % of what it would without
/// the fault overhead — landing TPP below SMEM_ALL as in Fig. 8.
const HINT_FAULT_PROB: f64 = 0.05;
/// Latency of one hint fault (seconds).
const FAULT_COST_SECS: f64 = 1.5e-6;
/// Maximum promotions per tick (pages).
const PROMOTIONS_PER_TICK: usize = 512;
/// Keep this fraction of FMem frames free (demotion watermark).
const FREE_WATERMARK: f64 = 0.01;

/// The TPP-like fault-driven policy.
#[derive(Debug, Default)]
pub struct TppPolicy {
    /// Per-page tick of last observed access (0 = never).
    last_access: Vec<u64>,
    tick_index: u64,
    /// Sorts each candidate list as far as the tick reads it.
    sort: PrefixSort,
    /// Per-tick scratch, reused across ticks: the promotion candidates
    /// and the FMem pages' LRU keys, as `(key, page)`, and the granted
    /// pages of either list, as one migration batch.
    candidates: Vec<(u64, PageId)>,
    lru: Vec<(u64, PageId)>,
    batch: Vec<PageId>,
}

impl TppPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for TppPolicy {
    fn name(&self) -> &str {
        "tpp"
    }

    fn init(&mut self, mem: &TieredMemory, _workloads: &[WorkloadObs]) {
        self.last_access = vec![0; mem.page_count()];
        self.tick_index = 0;
    }

    fn smem_access_penalty(&self, _w: WorkloadId) -> f64 {
        HINT_FAULT_PROB * FAULT_COST_SECS
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        self.tick_index += 1;
        let now = self.tick_index;

        // Record touches and collect promotion candidates: pages touched
        // while in SMem this tick (hotter candidates first so the budget
        // goes to the most active pages, as fault frequency would).
        let candidates = &mut self.candidates;
        candidates.clear();
        for obs in sim.workloads {
            let region = sim.mem.region(obs.id);
            for (rank, &est) in obs.sampled.iter().enumerate() {
                if est == 0 {
                    continue;
                }
                let page = region.page(rank as u32);
                self.last_access[page.index()] = now;
                if sim.mem.tier_of_unchecked(page) == Tier::SMem {
                    candidates.push((est, page));
                }
            }
        }
        self.sort
            .sort_prefix(candidates, Order::Descending, PROMOTIONS_PER_TICK);
        candidates.truncate(PROMOTIONS_PER_TICK);

        if candidates.is_empty() {
            return;
        }

        // Demote least-recently-used FMem pages to restore the free-frame
        // watermark plus room for this tick's promotions.
        let fmem_pages = sim.mem.spec().fmem_pages();
        let watermark = (fmem_pages as f64 * FREE_WATERMARK).ceil() as u64;
        let free = sim.mem.free_pages(Tier::FMem);
        let wanted = candidates.len() as u64 + watermark;
        if free < wanted {
            let need = wanted - free;
            // Gather (last_access, page) for all FMem-resident pages.
            let (lru, last_access) = (&mut self.lru, &self.last_access);
            lru.clear();
            for w in 0..sim.mem.workload_count() {
                let fmem = sim.mem.pages_in_tier(WorkloadId(w as u16), Tier::FMem);
                lru.extend(fmem.map(|p| (last_access[p.index()], p)));
            }
            let take = (need as usize).min(lru.len());
            let granted = sim.migration.try_consume_pages(take as u64) as usize;
            self.sort.sort_prefix(lru, Order::Ascending, granted);
            // A full slow tier stops the batch instead of panicking; the
            // watermark check simply runs again next tick.
            self.batch.clear();
            self.batch.extend(lru[..granted].iter().map(|&(_, p)| p));
            sim.mem.migrate_batch(&self.batch, Tier::SMem);
        }

        // Promote candidates into whatever frames are free now.
        let room = sim
            .mem
            .free_pages(Tier::FMem)
            .saturating_sub(watermark)
            .min(candidates.len() as u64);
        let granted = sim.migration.try_consume_pages(room) as usize;
        self.batch.clear();
        self.batch
            .extend(candidates[..granted].iter().map(|&(_, p)| p));
        sim.mem.migrate_batch(&self.batch, Tier::FMem);
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

    fn run_tick(
        policy: &mut TppPolicy,
        mem: &mut TieredMemory,
        engine: &mut MigrationEngine,
        w: &[WorkloadObs],
        t: f64,
    ) {
        engine.begin_tick(1.0);
        let mut sim = SimState {
            mem,
            migration: engine,
            workloads: w,
            tick_secs: 1.0,
            now_secs: t,
            interval_boundary: false,
            obs_age_ticks: 0,
            fmem_bw_util: 0.0,
            smem_bw_util: 0.0,
            scenario_phase: 0,
        };
        policy.on_tick(&mut sim);
    }

    #[test]
    fn promotes_touched_smem_pages() {
        let spec = MemorySpec::new(8 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = TppPolicy::new();
        let w = [obs(&mem, a, vec![5, 0, 3, 0, 0, 0, 0, 0])];
        p.init(&mem, &w);
        run_tick(&mut p, &mut mem, &mut engine, &w, 0.0);
        let region = mem.region(a);
        assert_eq!(mem.tier_of(region.page(0)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(2)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(1)).unwrap(), Tier::SMem);
    }

    #[test]
    fn lru_demotion_under_pressure() {
        let spec = MemorySpec::new(4 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = TppPolicy::new();
        p.init(&mem, &[obs(&mem, a, vec![0; 8])]);
        // Tick 1: ranks 0..4 are resident (FmemFirst takes 4); touch only
        // ranks 0 and 1, so 2 and 3 become the LRU victims.
        let w1 = [obs(&mem, a, vec![9, 9, 0, 0, 0, 0, 0, 0])];
        run_tick(&mut p, &mut mem, &mut engine, &w1, 0.0);
        // Tick 2: touch SMem ranks 4 and 5 -> they need frames; LRU
        // evicts the untouched ranks.
        let w2 = [obs(&mem, a, vec![9, 9, 0, 0, 7, 7, 0, 0])];
        run_tick(&mut p, &mut mem, &mut engine, &w2, 1.0);
        let region = mem.region(a);
        assert_eq!(mem.tier_of(region.page(4)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(5)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(2)).unwrap(), Tier::SMem);
        assert_eq!(mem.tier_of(region.page(3)).unwrap(), Tier::SMem);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn fault_penalty_is_constant_per_smem_access() {
        let p = TppPolicy::new();
        let pen = p.smem_access_penalty(WorkloadId(0));
        assert!((pen - 0.05 * 1.5e-6).abs() < 1e-18);
    }

    #[test]
    fn thrash_between_competing_workloads() {
        // Two workloads alternately touching their pages keep stealing
        // the two usable FMem frames from each other — TPP's pathology.
        // The watermark keeps the third frame free.
        let spec = MemorySpec::new(3 * MIB, 16 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(2 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let b = mem
            .register_workload(2 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        let mut p = TppPolicy::new();
        p.init(&mem, &[obs(&mem, a, vec![0; 2]), obs(&mem, b, vec![0; 2])]);
        let mut moves = 0;
        for t in 0..6 {
            let (sa, sb) = if t % 2 == 0 {
                (vec![5, 5], vec![0, 0])
            } else {
                (vec![0, 0], vec![5, 5])
            };
            let w = [obs(&mem, a, sa), obs(&mem, b, sb)];
            run_tick(&mut p, &mut mem, &mut engine, &w, t as f64);
            moves += engine.bytes_moved_this_tick() / MIB;
        }
        // Constant churn: far more movement than the 2-frame pool size.
        assert!(moves >= 10, "only {moves} page moves");
    }

    #[test]
    fn budget_limits_promotions() {
        let spec = MemorySpec::new(8 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        // Engine that can move only 2 pages per tick.
        let mut engine = MigrationEngine::new(2.0 * MIB as f64, MIB, 10.0).unwrap();
        let mut p = TppPolicy::new();
        let w = [obs(&mem, a, vec![9; 8])];
        p.init(&mem, &w);
        run_tick(&mut p, &mut mem, &mut engine, &w, 0.0);
        assert_eq!(mem.residency(a).fmem_pages, 2);
    }
}
