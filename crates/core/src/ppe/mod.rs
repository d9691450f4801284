//! The Partition Policy Enforcer (PP-E, §3.3).
//!
//! PP-E turns PP-M's partitioning plans into page migrations:
//!
//! 1. **LC-first adjustment** (Algorithm 3, [`adjust`]): the gap between
//!    the current and desired allocations is executed in bandwidth-
//!    bounded time slices, LC movement first, overhead spread across BE
//!    workloads proportionally to their demands.
//! 2. **Hotness-aware placement** (Fig. 4, [`placement`]): during and
//!    between adjustments, each workload's FMem partition is kept "hot"
//!    by promoting from the highest histogram bins and demoting from the
//!    lowest, strictly within the partition — preserving isolation.
//!
//! [`PartitionPolicyEnforcer`] is the stateful component combining both
//! with the per-workload access histograms ([`crate::tracker`]).

pub mod adjust;
pub mod placement;

use std::collections::VecDeque;

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::{Tier, WorkloadId};

use crate::policy::WorkloadObs;
use crate::ppe::adjust::AdjustmentSchedule;
use crate::prefix_sort::{Order, PrefixSort, Ranked};
use crate::tracker::HotnessTracker;

/// Per-workload partition directive: an enforced page count, or free
/// competition in the residual pool (MTAT (LC Only)'s BE workloads).
pub type PartitionTarget = Option<u64>;

/// A promotion must beat the page it displaces by this count factor —
/// suppresses migration churn caused by sampling noise between pages of
/// near-equal hotness.
pub const HOTNESS_HYSTERESIS: f64 = 2.0;

/// Upper bound on outstanding deferred moves — keeps the retry queue
/// from growing without bound under a persistent fault.
const MAX_DEFERRED: usize = 64;
/// A deferred move is dropped after this many failed retry attempts;
/// the next partitioning interval recomputes the deficit from actual
/// residency anyway.
const MAX_RETRY_ATTEMPTS: u32 = 5;
/// Exponential backoff cap: retry delays run 1, 2, 4, 8, 8, ... ticks.
const RETRY_BACKOFF_CAP_LOG2: u32 = 3;

/// An adjustment move that failed mid-interval (transient migration
/// fault) and is queued for retry in a later time slice.
#[derive(Debug, Clone, Copy)]
struct DeferredMove {
    /// Workload index whose pages failed to move.
    workload: usize,
    /// How many pages are still owed.
    pages: u64,
    /// Promotion (SMem → FMem) or demotion.
    promote: bool,
    /// Ticks to wait before the next attempt.
    delay_ticks: u32,
    /// Retry attempts made so far (drives the backoff).
    attempt: u32,
}

/// The Partition Policy Enforcer.
#[derive(Debug)]
pub struct PartitionPolicyEnforcer {
    tracker: HotnessTracker,
    schedule: Option<AdjustmentSchedule>,
    targets_pages: Vec<PartitionTarget>,
    lc_index: usize,
    p_max_pairs: u64,
    refine_pairs_per_workload: u64,
    placement_frozen: bool,
    /// Working-set-pressure throttle: both migration budgets above are
    /// right-shifted by this many bits while the hardening guard holds
    /// the throttle (0 = nominal).
    throttle_shift: u32,
    /// Moves that failed under transient migration faults, awaiting
    /// retry with capped exponential backoff. Empty whenever no fault
    /// injection is active (the engine never fails moves then).
    retry_queue: VecDeque<DeferredMove>,
    /// Candidate-list buffers reused across ticks.
    scratch: placement::PlacementScratch,
    /// Slice-execution candidate buffer reused across ticks.
    slice_pages: Vec<mtat_tiermem::page::PageId>,
    /// Ranked eviction-candidate buffer reused across ticks.
    ranked_buf: Vec<Ranked>,
    /// Sorts `ranked_buf` as far as `make_room` reads it.
    ranked_sort: PrefixSort,
    /// Telemetry handle; phase spans for adjustment vs refinement.
    obs: mtat_obs::Obs,
}

impl PartitionPolicyEnforcer {
    /// Creates an enforcer for the registered workloads. `p_max_pairs`
    /// is Algorithm 3's per-slice cap; `refine_pairs_per_workload`
    /// bounds Fig.-4b refinement churn per tick.
    pub fn new(
        mem: &TieredMemory,
        lc_index: usize,
        p_max_pairs: u64,
        refine_pairs_per_workload: u64,
    ) -> Self {
        let n = mem.workload_count();
        assert!(lc_index < n, "lc_index out of range");
        Self {
            tracker: HotnessTracker::new(mem),
            schedule: None,
            targets_pages: vec![None; n],
            lc_index,
            p_max_pairs: p_max_pairs.max(1),
            refine_pairs_per_workload,
            placement_frozen: false,
            throttle_shift: 0,
            retry_queue: VecDeque::new(),
            scratch: placement::PlacementScratch::default(),
            slice_pages: Vec::new(),
            ranked_buf: Vec::new(),
            ranked_sort: PrefixSort::default(),
            obs: mtat_obs::Obs::disabled(),
        }
    }

    /// Attaches a telemetry handle (spans for the adjust / refine
    /// sub-phases of each enforcement tick).
    pub fn set_obs(&mut self, obs: mtat_obs::Obs) {
        self.obs = obs;
    }

    /// Suspends (or resumes) hotness refinement and residual-pool
    /// competition — the §7 bandwidth-aware extension: when the fast
    /// tier's bandwidth is saturated, extra promotions only add traffic,
    /// so placement churn pauses. Partition adjustments (Algorithm 3)
    /// still execute: the LC reservation is never sacrificed.
    pub fn set_placement_frozen(&mut self, frozen: bool) {
        self.placement_frozen = frozen;
    }

    /// Whether placement refinement is currently suspended.
    pub fn placement_frozen(&self) -> bool {
        self.placement_frozen
    }

    /// Sets the working-set-pressure migration throttle: per-slice pair
    /// caps and per-workload refinement appetite are right-shifted by
    /// `shift` bits (0 = nominal). Used by the hardening pressure guard
    /// to stop the enforcer from burning the migration budget chasing a
    /// blown-up working set; the slice cap keeps a floor of one pair so
    /// Algorithm 3 always makes forward progress.
    pub fn set_migration_throttle(&mut self, shift: u32) {
        self.throttle_shift = shift.min(16);
    }

    /// The access histograms (shared with diagnostics/tests).
    pub fn tracker(&self) -> &HotnessTracker {
        &self.tracker
    }

    /// Feeds this tick's sampled accesses into the histograms.
    pub fn record_tick(&mut self, workloads: &[WorkloadObs]) {
        self.tracker.record_tick(workloads);
    }

    /// Ages all histograms (called at each partitioning interval), in
    /// an `age` span of its own.
    pub fn age(&mut self) {
        let _age_span = self.obs.span_here("age");
        self.tracker.age_all();
    }

    /// Current partition target of workload `w` in pages.
    pub fn target_pages(&self, w: WorkloadId) -> PartitionTarget {
        self.targets_pages[w.index()]
    }

    /// Whether an adjustment is still being executed.
    pub fn adjusting(&self) -> bool {
        self.schedule.as_ref().is_some_and(|s| !s.is_complete())
    }

    /// Installs a new partitioning plan and builds the Algorithm 3
    /// schedule from the deltas between current residencies and the
    /// enforced targets. Targets are clamped to each workload's resident
    /// set size.
    pub fn set_plan(&mut self, mem: &TieredMemory, plan: Vec<PartitionTarget>) {
        assert_eq!(plan.len(), self.targets_pages.len(), "plan arity mismatch");
        self.targets_pages = plan
            .iter()
            .enumerate()
            .map(|(i, t)| t.map(|pages| pages.min(mem.region(WorkloadId(i as u16)).n_pages as u64)))
            .collect();
        let deltas: Vec<i64> = self
            .targets_pages
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Some(target) => {
                    *target as i64 - mem.residency(WorkloadId(i as u16)).fmem_pages as i64
                }
                None => 0,
            })
            .collect();
        self.schedule = Some(AdjustmentSchedule::new(
            deltas,
            self.lc_index,
            self.p_max_pairs,
        ));
        // The new schedule is computed from *actual* residency, so it
        // already covers any moves still owed: outstanding retries would
        // double-move. Deferred moves only live within an interval.
        self.retry_queue.clear();
    }

    /// Pages currently owed by the deferred-move retry queue.
    pub fn deferred_pages(&self) -> u64 {
        self.retry_queue.iter().map(|d| d.pages).sum()
    }

    /// One PP-E tick: execute the next adjustment slice if one is
    /// pending, then refine placement (within enforced partitions) and
    /// let unenforced workloads compete for the residual pool.
    pub fn tick(&mut self, mem: &mut TieredMemory, engine: &mut MigrationEngine) {
        // --- Algorithm 3 slice execution ---
        // Time slices are finer than simulation ticks: keep draining
        // p_max-bounded slices until the tick's bandwidth budget is
        // spent or the adjustment completes. LC-first ordering holds
        // within every slice.
        let adjust_span = self.obs.span_here("adjust");
        // Pressure throttle: shrink both budgets while the guard holds
        // it, but keep one adjustment pair so Algorithm 3 stays live.
        let p_max = (self.p_max_pairs >> self.throttle_shift).max(1);
        let refine_budget = self.refine_pairs_per_workload >> self.throttle_shift;
        loop {
            let slice = match &mut self.schedule {
                Some(schedule) if !schedule.is_complete() => {
                    let pairs = (engine.remaining_tick_pages() / 2).min(p_max);
                    if pairs == 0 {
                        break;
                    }
                    schedule.next_slice(pairs)
                }
                _ => break,
            };
            if slice.is_empty() {
                break;
            }
            // Demotions first to free frames for promotions.
            for &(i, m) in &slice.moves {
                if m < 0 {
                    let w = WorkloadId(i as u16);
                    let mut pages = std::mem::take(&mut self.slice_pages);
                    self.tracker
                        .coldest_fmem_into(&mut pages, mem, w, (-m) as usize);
                    let granted = engine.try_consume_pages(pages.len() as u64) as usize;
                    self.note_fault_failures(i, false, engine);
                    // Range-batched application of the granted prefix. A
                    // full slow tier makes the tail unsatisfiable right
                    // now; the batch stops there rather than panic — the
                    // next plan recomputes from actual residency.
                    mem.migrate_batch(&pages[..granted], Tier::SMem);
                    self.slice_pages = pages;
                }
            }
            for &(i, m) in &slice.moves {
                if m > 0 {
                    let w = WorkloadId(i as u16);
                    let need = m as u64;
                    // If unenforced workloads hold the frames this
                    // promotion needs (LC Only), evict their coldest.
                    let free = mem.free_pages(Tier::FMem);
                    if free < need {
                        self.make_room(mem, engine, need - free);
                    }
                    let want = need.min(mem.free_pages(Tier::FMem)) as usize;
                    let mut pages = std::mem::take(&mut self.slice_pages);
                    self.tracker.hottest_smem_into(&mut pages, mem, w, want);
                    let granted = engine.try_consume_pages(pages.len() as u64) as usize;
                    self.note_fault_failures(i, true, engine);
                    mem.migrate_batch(&pages[..granted], Tier::FMem);
                    self.slice_pages = pages;
                }
            }
        }
        // Re-drive moves that failed under transient faults in earlier
        // slices, using whatever budget this tick has left.
        self.retry_deferred(mem, engine);
        drop(adjust_span);
        let schedule_done = self.schedule.as_ref().is_none_or(|s| s.is_complete());

        // --- Fig. 4b refinement within enforced partitions ---
        // One span covers refinement plus residual-pool competition
        // (the guard also closes correctly on the frozen early return).
        let _refine_span = self.obs.span_here("refine");
        if schedule_done && !self.placement_frozen {
            for i in 0..self.targets_pages.len() {
                if let Some(target) = self.targets_pages[i] {
                    let w = WorkloadId(i as u16);
                    // Drift correction (e.g. promotions that found no
                    // candidates during adjustment).
                    placement::enforce_target_with(
                        &mut self.scratch,
                        mem,
                        engine,
                        &self.tracker,
                        w,
                        target,
                    );
                    placement::refine_swaps_with(
                        &mut self.scratch,
                        mem,
                        engine,
                        &self.tracker,
                        w,
                        refine_budget,
                        HOTNESS_HYSTERESIS,
                    );
                }
            }
        }

        // --- Residual-pool competition for unenforced workloads ---
        if self.placement_frozen {
            return;
        }
        let unenforced: Vec<WorkloadId> = self
            .targets_pages
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_none())
            .map(|(i, _)| WorkloadId(i as u16))
            .collect();
        if !unenforced.is_empty() {
            let reserved: u64 = self.targets_pages.iter().flatten().sum();
            let pool_cap = mem.spec().fmem_pages().saturating_sub(reserved);
            placement::compete_with(
                &mut self.scratch,
                mem,
                engine,
                &self.tracker,
                &unenforced,
                pool_cap,
                refine_budget * unenforced.len() as u64,
                HOTNESS_HYSTERESIS,
            );
        }
    }

    /// Demotes the coldest pages of unenforced workloads to free `need`
    /// FMem frames for an enforced promotion.
    fn make_room(&mut self, mem: &mut TieredMemory, engine: &mut MigrationEngine, need: u64) {
        let mut candidates = std::mem::take(&mut self.ranked_buf);
        let mut pages = std::mem::take(&mut self.slice_pages);
        candidates.clear();
        for (i, t) in self.targets_pages.iter().enumerate() {
            if t.is_none() {
                let w = WorkloadId(i as u16);
                let hist = self.tracker.histogram(w);
                self.tracker
                    .coldest_fmem_into(&mut pages, mem, w, need as usize);
                for &p in &pages {
                    candidates.push((hist.count(p), p));
                }
            }
        }
        let take = (need as usize).min(candidates.len());
        let granted = engine.try_consume_pages(take as u64) as usize;
        self.ranked_sort
            .sort_prefix(&mut candidates, Order::Ascending, granted);
        pages.clear();
        pages.extend(candidates[..granted].iter().map(|&(_, p)| p));
        mem.migrate_batch(&pages, Tier::SMem);
        self.ranked_buf = candidates;
        self.slice_pages = pages;
    }

    /// Queues a deferred move when the engine reports fault-failed pages
    /// from the immediately preceding `try_consume_pages` call. Budget
    /// shortfalls (granted < requested with zero failures) are *not*
    /// deferred — they are ordinary backpressure the schedule already
    /// handles — so with fault injection disabled this never fires and
    /// enforcement behavior is bit-identical.
    fn note_fault_failures(&mut self, workload: usize, promote: bool, engine: &MigrationEngine) {
        let failed = engine.failed_in_last_call();
        if failed > 0 && self.retry_queue.len() < MAX_DEFERRED {
            self.retry_queue.push_back(DeferredMove {
                workload,
                pages: failed,
                promote,
                delay_ticks: 1,
                attempt: 0,
            });
        }
    }

    /// Drains due entries of the deferred-move queue: demotions first
    /// (they free frames), then promotions. Each successful re-driven
    /// page is credited to the engine's `retried_moves` counter; moves
    /// that fail again back off exponentially (capped) and are dropped
    /// after [`MAX_RETRY_ATTEMPTS`].
    fn retry_deferred(&mut self, mem: &mut TieredMemory, engine: &mut MigrationEngine) {
        if self.retry_queue.is_empty() {
            return;
        }
        let mut pending: Vec<DeferredMove> = self.retry_queue.drain(..).collect();
        // Demotions before promotions so freed frames are visible to
        // promotion retries within the same tick.
        pending.sort_by_key(|d| d.promote);
        for mut d in pending {
            if d.delay_ticks > 0 {
                d.delay_ticks -= 1;
                self.retry_queue.push_back(d);
                continue;
            }
            let w = WorkloadId(d.workload as u16);
            let mut candidates = std::mem::take(&mut self.slice_pages);
            if d.promote {
                let want = (d.pages).min(mem.free_pages(Tier::FMem)) as usize;
                self.tracker
                    .hottest_smem_into(&mut candidates, mem, w, want);
            } else {
                self.tracker
                    .coldest_fmem_into(&mut candidates, mem, w, d.pages as usize);
            }
            let blocked = candidates.is_empty();
            let completed = if blocked {
                0
            } else {
                engine.try_consume_pages(candidates.len() as u64) as usize
            };
            let faulted_again = !blocked && engine.failed_in_last_call() > 0;
            if completed > 0 {
                engine.note_retried(completed as u64);
                let tier = if d.promote { Tier::FMem } else { Tier::SMem };
                mem.migrate_batch(&candidates[..completed], tier);
            }
            let reachable = if blocked {
                d.pages
            } else {
                candidates.len() as u64
            };
            let owed = reachable.saturating_sub(completed as u64);
            if owed > 0 && d.attempt < MAX_RETRY_ATTEMPTS {
                // Escalate the backoff only when the move actually
                // failed or was blocked — a pure budget shortfall just
                // waits for the next tick.
                let attempt = d.attempt + u32::from(faulted_again || blocked);
                self.retry_queue.push_back(DeferredMove {
                    workload: d.workload,
                    pages: owed,
                    promote: d.promote,
                    delay_ticks: 1 << attempt.min(RETRY_BACKOFF_CAP_LOG2),
                    attempt,
                });
            }
            self.slice_pages = candidates;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{WorkloadClass, WorkloadObs};
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
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

    /// 8-page FMem; LC (6 pages) + two BE workloads (8 pages each).
    fn setup() -> (TieredMemory, MigrationEngine) {
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        mem.register_workload(6 * MIB, InitialPlacement::AllSmem)
            .unwrap(); // LC
        mem.register_workload(8 * MIB, InitialPlacement::FmemFirst)
            .unwrap(); // BE0: 8 in FMem
        mem.register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap(); // BE1
        let engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        (mem, engine)
    }

    #[test]
    fn full_plan_reaches_targets() {
        let (mut mem, mut engine) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 4, 8);
        let all = [
            obs(&mem, WorkloadId(0), vec![2; 6]),
            obs(&mem, WorkloadId(1), vec![3; 8]),
            obs(&mem, WorkloadId(2), vec![4; 8]),
        ];
        ppe.record_tick(&all);
        // LC gets 4 pages, BE0 gets 2, BE1 gets 2.
        ppe.set_plan(&mem, vec![Some(4), Some(2), Some(2)]);
        assert!(ppe.adjusting());
        for _ in 0..10 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        assert!(!ppe.adjusting());
        assert_eq!(mem.residency(WorkloadId(0)).fmem_pages, 4);
        assert_eq!(mem.residency(WorkloadId(1)).fmem_pages, 2);
        assert_eq!(mem.residency(WorkloadId(2)).fmem_pages, 2);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn adjustment_is_bandwidth_bounded_per_tick() {
        let (mut mem, _) = setup();
        // An engine that can move only 4 pages per 1 s tick.
        let mut engine = MigrationEngine::new(4.0 * MIB as f64, MIB, 10.0).unwrap();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 2, 0);
        let all = [
            obs(&mem, WorkloadId(0), vec![2; 6]),
            obs(&mem, WorkloadId(1), vec![3; 8]),
            obs(&mem, WorkloadId(2), vec![0; 8]),
        ];
        ppe.record_tick(&all);
        ppe.set_plan(&mem, vec![Some(6), Some(2), Some(0)]);
        engine.begin_tick(1.0);
        ppe.tick(&mut mem, &mut engine);
        // The tick budget (4 page moves) is a hard cap even though the
        // adjustment drains multiple p_max slices per tick.
        assert!(engine.bytes_moved_this_tick() <= 4 * MIB);
        assert!(
            ppe.adjusting(),
            "a 12-page adjustment outlives one 4-page tick"
        );
        // With ample budget the same adjustment completes in one tick.
        let (mut mem2, mut engine2) = setup();
        let mut ppe2 = PartitionPolicyEnforcer::new(&mem2, 0, 2, 0);
        ppe2.record_tick(&all);
        ppe2.set_plan(&mem2, vec![Some(6), Some(2), Some(0)]);
        engine2.begin_tick(1.0);
        ppe2.tick(&mut mem2, &mut engine2);
        assert!(!ppe2.adjusting());
    }

    #[test]
    fn lc_only_plan_competes_for_residual_pool() {
        let (mut mem, mut engine) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 16);
        // BE1's pages are much hotter than BE0's.
        let all = [
            obs(&mem, WorkloadId(0), vec![1; 6]),
            obs(&mem, WorkloadId(1), vec![2; 8]),
            obs(&mem, WorkloadId(2), vec![50; 8]),
        ];
        ppe.record_tick(&all);
        // Only the LC partition is enforced (4 pages); BE compete for 4.
        ppe.set_plan(&mem, vec![Some(4), None, None]);
        for _ in 0..12 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        assert_eq!(mem.residency(WorkloadId(0)).fmem_pages, 4);
        let be0 = mem.residency(WorkloadId(1)).fmem_pages;
        let be1 = mem.residency(WorkloadId(2)).fmem_pages;
        assert_eq!(be0 + be1, 4, "pool is exactly the residual");
        assert!(be1 > be0, "hotter BE wins the pool: {be0} vs {be1}");
        mem.check_invariants().unwrap();
    }

    #[test]
    fn make_room_evicts_unenforced_donors() {
        let (mut mem, mut engine) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 0);
        let all = [
            obs(&mem, WorkloadId(0), vec![5; 6]),
            obs(&mem, WorkloadId(1), vec![1; 8]),
            obs(&mem, WorkloadId(2), vec![0; 8]),
        ];
        ppe.record_tick(&all);
        // FMem is full (BE0 holds all 8). LC wants 6; BE are unenforced.
        ppe.set_plan(&mem, vec![Some(6), None, None]);
        for _ in 0..6 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        assert_eq!(mem.residency(WorkloadId(0)).fmem_pages, 6);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn refinement_keeps_partition_hot() {
        let (mut mem, mut engine) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 8);
        ppe.set_plan(&mem, vec![Some(0), Some(4), Some(0)]);
        // Converge the plan with initial (uninformative) counts.
        for _ in 0..6 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        // Now BE0's *SMem* ranks 4..8 become the hot set.
        let mut sampled = vec![0u64; 8];
        sampled[4..8].fill(100);
        let all = [
            obs(&mem, WorkloadId(0), vec![0; 6]),
            obs(&mem, WorkloadId(1), sampled),
            obs(&mem, WorkloadId(2), vec![0; 8]),
        ];
        ppe.record_tick(&all);
        engine.begin_tick(1.0);
        ppe.tick(&mut mem, &mut engine);
        // The hot ranks should now be resident, partition size unchanged.
        let region = mem.region(WorkloadId(1));
        assert_eq!(mem.residency(WorkloadId(1)).fmem_pages, 4);
        for r in 4..8 {
            assert_eq!(mem.tier_of(region.page(r)).unwrap(), Tier::FMem, "rank {r}");
        }
    }

    #[test]
    fn aging_runs_through_enforcer() {
        let (mem, _) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 8);
        let all = [
            obs(&mem, WorkloadId(0), vec![8; 6]),
            obs(&mem, WorkloadId(1), vec![0; 8]),
            obs(&mem, WorkloadId(2), vec![0; 8]),
        ];
        ppe.record_tick(&all);
        assert_eq!(ppe.tracker().histogram(WorkloadId(0)).total(), 48);
        ppe.age();
        assert_eq!(ppe.tracker().histogram(WorkloadId(0)).total(), 24);
    }

    /// Transient migration faults defer the failed moves; once the fault
    /// clears, the queue re-drives them and credits `retried_moves`.
    #[test]
    fn fault_failed_moves_are_deferred_and_retried() {
        let (mut mem, mut engine) = setup();
        engine.set_fault_seed(9);
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 0);
        // Freeze placement so drift correction cannot mask the retry
        // path — only slice execution and the queue act.
        ppe.set_placement_frozen(true);
        let all = [
            obs(&mem, WorkloadId(0), vec![2; 6]),
            obs(&mem, WorkloadId(1), vec![3; 8]),
            obs(&mem, WorkloadId(2), vec![4; 8]),
        ];
        ppe.record_tick(&all);
        ppe.set_plan(&mem, vec![Some(4), Some(2), Some(2)]);

        // Every granted move fails this tick.
        engine.set_tick_faults(1.0, 1.0);
        engine.begin_tick(1.0);
        ppe.tick(&mut mem, &mut engine);
        assert_eq!(
            mem.residency(WorkloadId(1)).fmem_pages,
            8,
            "all demotions failed under the fault"
        );
        assert!(engine.failed_moves() > 0);
        assert!(ppe.deferred_pages() > 0, "failed moves must be deferred");

        // Fault clears: deferred demotions are re-driven.
        engine.set_tick_faults(1.0, 0.0);
        for _ in 0..4 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        assert!(
            engine.retried_moves() >= 6,
            "retried {}",
            engine.retried_moves()
        );
        assert_eq!(
            mem.residency(WorkloadId(1)).fmem_pages,
            2,
            "deferred demotions eventually land"
        );
        mem.check_invariants().unwrap();
    }

    /// Under a persistent fault the retry queue backs off and drops
    /// entries after the attempt cap — it stays bounded and drains.
    #[test]
    fn retry_queue_is_bounded_under_persistent_fault() {
        let (mut mem, mut engine) = setup();
        engine.set_fault_seed(11);
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 0);
        ppe.set_placement_frozen(true);
        let all = [
            obs(&mem, WorkloadId(0), vec![2; 6]),
            obs(&mem, WorkloadId(1), vec![3; 8]),
            obs(&mem, WorkloadId(2), vec![4; 8]),
        ];
        ppe.record_tick(&all);
        ppe.set_plan(&mem, vec![Some(4), Some(2), Some(2)]);
        engine.set_tick_faults(1.0, 1.0);
        for _ in 0..64 {
            engine.begin_tick(1.0);
            ppe.tick(&mut mem, &mut engine);
        }
        assert_eq!(
            ppe.deferred_pages(),
            0,
            "attempt cap must drain the queue under a persistent fault"
        );
    }

    /// Installing a new plan clears outstanding deferred moves — the new
    /// schedule is computed from actual residency and subsumes them.
    #[test]
    fn new_plan_clears_deferred_moves() {
        let (mut mem, mut engine) = setup();
        engine.set_fault_seed(5);
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 0);
        ppe.set_placement_frozen(true);
        let all = [
            obs(&mem, WorkloadId(0), vec![2; 6]),
            obs(&mem, WorkloadId(1), vec![3; 8]),
            obs(&mem, WorkloadId(2), vec![4; 8]),
        ];
        ppe.record_tick(&all);
        ppe.set_plan(&mem, vec![Some(4), Some(2), Some(2)]);
        engine.set_tick_faults(1.0, 1.0);
        engine.begin_tick(1.0);
        ppe.tick(&mut mem, &mut engine);
        assert!(ppe.deferred_pages() > 0);
        ppe.set_plan(&mem, vec![Some(4), Some(2), Some(2)]);
        assert_eq!(ppe.deferred_pages(), 0);
    }

    #[test]
    fn targets_clamp_to_rss() {
        let (mem, _) = setup();
        let mut ppe = PartitionPolicyEnforcer::new(&mem, 0, 8, 8);
        ppe.set_plan(&mem, vec![Some(100), None, None]); // LC has only 6 pages
        assert_eq!(ppe.target_pages(WorkloadId(0)), Some(6));
    }
}
