//! Hotness-aware page placement primitives (§3.3.2, Fig. 4).
//!
//! Three building blocks shared by PP-E and the baseline policies:
//!
//! * [`enforce_target`] — move a workload toward its partition size by
//!   promoting its hottest SMem pages or demoting its coldest FMem pages
//!   (Fig. 4a).
//! * [`refine_swaps`] — with the partition size fixed, swap a workload's
//!   hottest SMem pages against its own coldest FMem pages whenever the
//!   former are strictly hotter (Fig. 4b); isolation is preserved because
//!   replacement happens strictly within the workload's partition.
//! * [`compete`] — global hotness competition over a *set* of workloads
//!   sharing an FMem pool (what MEMTIS does across all tenants, what
//!   MTAT (LC Only) lets the BE workloads do in the residual pool).
//!
//! Each selects its moves first, pays for them with one engine call
//! ([`MigrationEngine::try_consume_pages`] for a slice,
//! [`MigrationEngine::try_consume_moves`] for a walk of promotions and
//! exchanges), then applies the prefix the engine completed.

use std::iter;

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::{PageId, Tier, WorkloadId};

use crate::prefix_sort::{Order, PrefixSort, Ranked};
use crate::tracker::HotnessTracker;

/// A promotion must beat the page it displaces by this count factor —
/// suppresses migration churn caused by sampling noise between pages of
/// near-equal hotness.
pub const HOTNESS_HYSTERESIS: f64 = 2.0;

/// Reusable candidate buffers for the placement primitives. Policies
/// hold one instance across ticks so the per-tick candidate queries
/// reuse their allocations instead of building fresh vectors.
#[derive(Debug, Clone, Default)]
pub struct PlacementScratch {
    hot_pages: Vec<PageId>,
    cold_pages: Vec<PageId>,
    hot_ranked: Vec<Ranked>,
    cold_ranked: Vec<Ranked>,
    hot_sort: PrefixSort,
    cold_sort: PrefixSort,
    promote_buf: Vec<PageId>,
    pair_buf: Vec<(PageId, PageId)>,
}

/// Moves workload `w` toward `target_pages` of FMem residency, spending
/// at most the engine's remaining tick budget. Promotions require free
/// FMem frames (the caller demotes first to make room). Returns
/// `(promoted, demoted)` page counts.
pub fn enforce_target(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    w: WorkloadId,
    target_pages: u64,
) -> (u64, u64) {
    let current = mem.residency(w).fmem_pages;
    if current < target_pages {
        let want = (target_pages - current)
            .min(engine.remaining_tick_pages())
            .min(mem.free_pages(Tier::FMem));
        if want == 0 {
            return (0, 0);
        }
        let pages = &mut scratch.hot_pages;
        tracker.hottest_smem_into(pages, mem, w, want as usize);
        let granted = engine.try_consume_pages(pages.len() as u64);
        // One range-batched application of the granted prefix; a lost
        // race for the last free frame stops the batch, exactly where
        // the per-page loop would have kept failing.
        let promoted = mem.migrate_batch(&pages[..granted as usize], Tier::FMem);
        (promoted, 0)
    } else if current > target_pages {
        let want = (current - target_pages).min(engine.remaining_tick_pages());
        if want == 0 {
            return (0, 0);
        }
        let pages = &mut scratch.cold_pages;
        tracker.coldest_fmem_into(pages, mem, w, want as usize);
        let granted = engine.try_consume_pages(pages.len() as u64);
        let demoted = mem.migrate_batch(&pages[..granted as usize], Tier::SMem);
        (0, demoted)
    } else {
        (0, 0)
    }
}

/// Within-partition refinement (Fig. 4b): swaps workload `w`'s hottest
/// SMem pages against its coldest FMem pages while the former are
/// hotter by more than [`HOTNESS_HYSTERESIS`], up to `max_pairs` swaps
/// and the engine budget. The hysteresis suppresses churn from sampling
/// noise between near-equal pages. The workload's FMem partition size
/// is unchanged. Returns swaps performed.
pub fn refine_swaps(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    w: WorkloadId,
    max_pairs: u64,
) -> u64 {
    let budget_pairs = max_pairs.min(engine.remaining_tick_pages() / 2);
    if budget_pairs == 0 {
        return 0;
    }
    let (hot, cold) = (&mut scratch.hot_pages, &mut scratch.cold_pages);
    tracker.hottest_smem_into(hot, mem, w, budget_pairs as usize);
    tracker.coldest_fmem_into(cold, mem, w, budget_pairs as usize);
    // The winning pairs are a prefix (candidates are sorted and the
    // histogram is immutable here), and `budget_pairs` keeps them within
    // the engine's budget. Pay for them, then apply each exchange the
    // engine completed, in order.
    let hist = tracker.histogram(w);
    let winners = hot
        .iter()
        .zip(cold.iter())
        .take_while(|&(&h, &c)| (hist.count(h) as f64) > hist.count(c) as f64 * HOTNESS_HYSTERESIS)
        .count();
    let done = engine.try_consume_moves(iter::repeat_n(2, winners));
    let mut swaps = 0;
    for (&h, &c) in hot.iter().zip(cold.iter()).take(done) {
        if mem.exchange(&[h], &[c]).is_ok() {
            swaps += 1;
        }
    }
    swaps
}

/// Global hotness competition across the workload set `ws` sharing an
/// FMem pool capped at `pool_cap_pages`: promote the globally hottest
/// SMem pages, demote the globally coldest FMem pages, as long as the
/// promotion candidate is hotter than the page it displaces by more
/// than [`HOTNESS_HYSTERESIS`] (or free pool capacity remains).
/// Returns pages moved.
///
/// With `ws` = every workload and the pool = all of FMem this *is* the
/// frequency-based placement the paper critiques: LC pages, uniformly
/// cold, lose to hot BE pages.
pub fn compete(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    ws: &[WorkloadId],
    pool_cap_pages: u64,
    max_pairs: u64,
) -> u64 {
    let k = max_pairs.min(engine.remaining_tick_pages()) as usize;
    if k == 0 {
        return 0;
    }
    // Gather candidates: (count, page), to be sorted hottest-first /
    // coldest-first only as far as the walk reads them.
    let hot = &mut scratch.hot_ranked;
    let cold = &mut scratch.cold_ranked;
    hot.clear();
    cold.clear();
    for &w in ws {
        let hist = tracker.histogram(w);
        tracker.hottest_smem_into(&mut scratch.hot_pages, mem, w, k);
        for &p in &scratch.hot_pages {
            hot.push((hist.count(p), p));
        }
        tracker.coldest_fmem_into(&mut scratch.cold_pages, mem, w, k);
        for &p in &scratch.cold_pages {
            cold.push((hist.count(p), p));
        }
    }
    let (hot_sort, cold_sort) = (&mut scratch.hot_sort, &mut scratch.cold_sort);
    hot_sort.start(hot, Order::Descending);
    cold_sort.start(cold, Order::Ascending);

    // Select the moves against the walk's own budget, free-frame and
    // pool counts, then pay for them in order and apply the prefix the
    // engine completed:
    //
    // * `pool_used` only ever grows and `free` only ever shrinks
    //   (exchanges are FMem-neutral), so promotions form a strict prefix
    //   of the hot list and the promote-vs-exchange branch never flips
    //   back; promotions apply as one range batch, then the exchanges.
    // * A promotion into a free frame cannot fail in the page table, so
    //   the counts are the real ones for as long as every earlier move
    //   completes, and the engine stops at the first that does not.
    // * The move the budget cannot cover is still offered, last: a
    //   2-page exchange against 1 remaining page consumes that page
    //   without moving anything, and under faults its call draws.
    //
    // Exchanges apply pair by pair: the Kahan-compensated popularity
    // masses are order-sensitive at the last ULP.
    let mut remaining = engine.remaining_tick_pages();
    let mut free = mem.free_pages(Tier::FMem);
    let mut pool_used: u64 = ws.iter().map(|&w| mem.residency(w).fmem_pages).sum();
    let promotes = &mut scratch.promote_buf;
    let pairs = &mut scratch.pair_buf;
    promotes.clear();
    pairs.clear();
    let mut uncovered = None;
    let mut ci = 0;
    for hi in 0..hot.len() {
        hot_sort.sort_to(hot, hi + 1);
        let (hcount, hpage) = hot[hi];
        if hcount == 0 {
            break; // nothing hot left to justify a move
        }
        if pool_used < pool_cap_pages && free > 0 {
            // Free capacity: promote unconditionally.
            if remaining == 0 {
                uncovered = Some(1);
                break;
            }
            remaining -= 1;
            promotes.push(hpage);
            pool_used += 1;
            free -= 1;
        } else if ci < cold.len() {
            cold_sort.sort_to(cold, ci + 1);
            let (ccount, cpage) = cold[ci];
            if (hcount as f64) <= ccount as f64 * HOTNESS_HYSTERESIS {
                break; // the hottest leftover cannot displace anything
            }
            if remaining < 2 {
                uncovered = Some(2);
                break;
            }
            remaining -= 2;
            pairs.push((hpage, cpage));
            ci += 1;
        } else {
            break;
        }
    }
    let sizes = iter::repeat_n(1, promotes.len())
        .chain(iter::repeat_n(2, pairs.len()))
        .chain(uncovered);
    let done = engine.try_consume_moves(sizes);
    let promoted = done.min(promotes.len());
    let mut moved = mem.migrate_batch(&promotes[..promoted], Tier::FMem);
    for &(h, c) in &pairs[..done - promoted] {
        if mem.exchange(&[h], &[c]).is_ok() {
            moved += 2;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{WorkloadClass, WorkloadObs};
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
    use mtat_tiermem::page::PageId;
    use mtat_tiermem::MIB;

    fn setup(fmem_mb: u64) -> (TieredMemory, MigrationEngine, PlacementScratch) {
        let spec = MemorySpec::new(fmem_mb * MIB, 64 * MIB, MIB).unwrap();
        let mem = TieredMemory::new(spec);
        let engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        (mem, engine, PlacementScratch::default())
    }

    fn obs_for(mem: &TieredMemory, w: WorkloadId, sampled: Vec<u64>) -> WorkloadObs {
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

    #[test]
    fn enforce_target_promotes_hottest() {
        let (mut mem, mut engine, mut scratch) = setup(8);
        let w = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![1, 9, 3, 7, 0, 0, 0, 0])]);
        engine.begin_tick(1.0);
        let (p, d) = enforce_target(&mut scratch, &mut mem, &mut engine, &tracker, w, 2);
        assert_eq!((p, d), (2, 0));
        // Ranks 1 (count 9) and 3 (count 7) should be the residents.
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(1)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(3)).unwrap(), Tier::FMem);
    }

    #[test]
    fn enforce_target_demotes_coldest() {
        let (mut mem, mut engine, mut scratch) = setup(8);
        let w = mem
            .register_workload(8 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![10, 1, 8, 9, 7, 6, 5, 4])]);
        engine.begin_tick(1.0);
        let (p, d) = enforce_target(&mut scratch, &mut mem, &mut engine, &tracker, w, 7);
        assert_eq!((p, d), (0, 1));
        // Rank 1 (count 1) is the coldest and should be demoted.
        assert_eq!(mem.tier_of(mem.region(w).page(1)).unwrap(), Tier::SMem);
    }

    #[test]
    fn enforce_target_respects_budget_and_free_space() {
        let (mut mem, mut engine, mut scratch) = setup(4);
        // Fill FMem with another workload first.
        let filler = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let w = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[
            obs_for(&mem, filler, vec![0; 4]),
            obs_for(&mem, w, vec![5; 8]),
        ]);
        engine.begin_tick(1.0);
        // No free FMem: promotion is a no-op.
        let (p, _) = enforce_target(&mut scratch, &mut mem, &mut engine, &tracker, w, 4);
        assert_eq!(p, 0);
        // Make room, then budget-limit the engine.
        enforce_target(&mut scratch, &mut mem, &mut engine, &tracker, filler, 0);
        let mut tiny = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        tiny.begin_tick(2.0 * MIB as f64 / 1e9); // budget: 2 pages
        let (p, _) = enforce_target(&mut scratch, &mut mem, &mut tiny, &tracker, w, 4);
        assert_eq!(p, 2);
    }

    #[test]
    fn refine_swaps_fixes_misplacement() {
        let (mut mem, mut engine, mut scratch) = setup(2);
        let w = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        // Ranks 0,1 in FMem; but ranks 2,3 are the hot ones.
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![1, 2, 100, 50])]);
        engine.begin_tick(1.0);
        let swaps = refine_swaps(&mut scratch, &mut mem, &mut engine, &tracker, w, 10);
        assert_eq!(swaps, 2);
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(2)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(3)).unwrap(), Tier::FMem);
        // Partition size unchanged.
        assert_eq!(mem.residency(w).fmem_pages, 2);
        // A second call finds nothing to improve.
        assert_eq!(
            refine_swaps(&mut scratch, &mut mem, &mut engine, &tracker, w, 10),
            0
        );
    }

    #[test]
    fn compete_prefers_hotter_workload() {
        let (mut mem, mut engine, mut scratch) = setup(2);
        let a = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let b = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[
            obs_for(&mem, a, vec![100, 90, 1, 1]),
            obs_for(&mem, b, vec![5, 5, 5, 5]),
        ]);
        engine.begin_tick(1.0);
        let moved = compete(
            &mut scratch,
            &mut mem,
            &mut engine,
            &tracker,
            &[a, b],
            2,
            64,
        );
        assert_eq!(moved, 2);
        // Workload a's two hot pages win the whole pool.
        assert_eq!(mem.residency(a).fmem_pages, 2);
        assert_eq!(mem.residency(b).fmem_pages, 0);
    }

    #[test]
    fn compete_displaces_colder_pages() {
        let (mut mem, mut engine, mut scratch) = setup(2);
        let a = mem
            .register_workload(2 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let b = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        // a's resident pages are cold; b has hot SMem pages.
        tracker.record_tick(&[
            obs_for(&mem, a, vec![1, 1]),
            obs_for(&mem, b, vec![50, 40, 0, 0]),
        ]);
        engine.begin_tick(1.0);
        let moved = compete(
            &mut scratch,
            &mut mem,
            &mut engine,
            &tracker,
            &[a, b],
            2,
            64,
        );
        assert_eq!(moved, 4); // two exchanges
        assert_eq!(mem.residency(b).fmem_pages, 2);
        assert_eq!(mem.residency(a).fmem_pages, 0);
    }

    #[test]
    fn compete_respects_pool_cap() {
        let (mut mem, mut engine, mut scratch) = setup(8);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, a, vec![9; 8])]);
        engine.begin_tick(1.0);
        // Pool capped at 3 pages even though FMem has 8 free.
        compete(&mut scratch, &mut mem, &mut engine, &tracker, &[a], 3, 64);
        assert_eq!(mem.residency(a).fmem_pages, 3);
    }

    #[test]
    fn compete_ignores_outside_workloads() {
        let (mut mem, mut engine, mut scratch) = setup(4);
        let lc = mem
            .register_workload(2 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let be = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[
            obs_for(&mem, lc, vec![0, 0]),
            obs_for(&mem, be, vec![100, 100, 100, 100]),
        ]);
        engine.begin_tick(1.0);
        // BE competes only for the 2 pages not held by the LC partition.
        compete(&mut scratch, &mut mem, &mut engine, &tracker, &[be], 2, 64);
        assert_eq!(mem.residency(be).fmem_pages, 2);
        assert_eq!(mem.residency(lc).fmem_pages, 2, "LC pages untouched");
    }

    #[test]
    fn cold_pages_never_promoted_by_compete() {
        let (mut mem, mut engine, mut scratch) = setup(4);
        let a = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let tracker = HotnessTracker::new(&mem); // all counts zero
        engine.begin_tick(1.0);
        let moved = compete(&mut scratch, &mut mem, &mut engine, &tracker, &[a], 4, 64);
        assert_eq!(moved, 0);
        let _ = PageId(0); // silence unused import in some cfgs
    }

    /// The two migration paths `refine_swaps` and `compete` kept before
    /// the engine owned the per-move fault cadence
    /// ([`MigrationEngine::try_consume_moves`]), verbatim but for
    /// `armed`, which stands for a granted page being able to fail: a
    /// per-call loop under faults and a batched walk without. They are
    /// the reference `cadence_props` holds the single walks to.
    mod per_call {
        use super::*;

        pub fn refine_swaps(
            mem: &mut TieredMemory,
            engine: &mut MigrationEngine,
            tracker: &HotnessTracker,
            w: WorkloadId,
            max_pairs: u64,
            armed: bool,
        ) -> u64 {
            let scratch = &mut PlacementScratch::default();
            let hysteresis = HOTNESS_HYSTERESIS;
            let budget_pairs = max_pairs.min(engine.remaining_tick_pages() / 2);
            if budget_pairs == 0 {
                return 0;
            }
            let (hot, cold) = (&mut scratch.hot_pages, &mut scratch.cold_pages);
            tracker.hottest_smem_into(hot, mem, w, budget_pairs as usize);
            tracker.coldest_fmem_into(cold, mem, w, budget_pairs as usize);
            let hist = tracker.histogram(w);
            if armed {
                let mut swaps = 0;
                for (&h, &c) in hot.iter().zip(cold.iter()) {
                    if (hist.count(h) as f64) <= hist.count(c) as f64 * hysteresis {
                        break;
                    }
                    if engine.try_consume_pages(2) < 2 {
                        break;
                    }
                    if mem.exchange(&[h], &[c]).is_ok() {
                        swaps += 1;
                    }
                }
                return swaps;
            }
            let winners = hot
                .iter()
                .zip(cold.iter())
                .take_while(|&(&h, &c)| (hist.count(h) as f64) > hist.count(c) as f64 * hysteresis)
                .count();
            if winners == 0 {
                return 0;
            }
            let granted = engine.try_consume_pages(2 * winners as u64);
            assert_eq!(granted, 2 * winners as u64);
            let mut swaps = 0;
            for (&h, &c) in hot.iter().zip(cold.iter()).take(winners) {
                if mem.exchange(&[h], &[c]).is_ok() {
                    swaps += 1;
                }
            }
            swaps
        }

        pub fn compete(
            mem: &mut TieredMemory,
            engine: &mut MigrationEngine,
            tracker: &HotnessTracker,
            ws: &[WorkloadId],
            pool_cap_pages: u64,
            max_pairs: u64,
            armed: bool,
        ) -> u64 {
            let scratch = &mut PlacementScratch::default();
            let hysteresis = HOTNESS_HYSTERESIS;
            let k = max_pairs.min(engine.remaining_tick_pages()) as usize;
            if k == 0 {
                return 0;
            }
            let hot = &mut scratch.hot_ranked;
            let cold = &mut scratch.cold_ranked;
            hot.clear();
            cold.clear();
            for &w in ws {
                let hist = tracker.histogram(w);
                tracker.hottest_smem_into(&mut scratch.hot_pages, mem, w, k);
                for &p in &scratch.hot_pages {
                    hot.push((hist.count(p), p));
                }
                tracker.coldest_fmem_into(&mut scratch.cold_pages, mem, w, k);
                for &p in &scratch.cold_pages {
                    cold.push((hist.count(p), p));
                }
            }
            let (hot_sort, cold_sort) = (&mut scratch.hot_sort, &mut scratch.cold_sort);
            hot_sort.start(hot, Order::Descending);
            cold_sort.start(cold, Order::Ascending);

            let mut pool_used: u64 = ws.iter().map(|&w| mem.residency(w).fmem_pages).sum();
            if armed {
                let mut moved = 0;
                let mut ci = 0;
                for hi in 0..hot.len() {
                    hot_sort.sort_to(hot, hi + 1);
                    let (hcount, hpage) = hot[hi];
                    if hcount == 0 {
                        break;
                    }
                    if pool_used < pool_cap_pages && mem.free_pages(Tier::FMem) > 0 {
                        if engine.try_consume_pages(1) < 1 {
                            break;
                        }
                        if mem.migrate(hpage, Tier::FMem).is_ok() {
                            pool_used += 1;
                            moved += 1;
                        }
                    } else if ci < cold.len() {
                        cold_sort.sort_to(cold, ci + 1);
                        let (ccount, cpage) = cold[ci];
                        if (hcount as f64) <= ccount as f64 * hysteresis {
                            break;
                        }
                        if engine.try_consume_pages(2) < 2 {
                            break;
                        }
                        if mem.exchange(&[hpage], &[cpage]).is_ok() {
                            moved += 2;
                        }
                        ci += 1;
                    } else {
                        break;
                    }
                }
                return moved;
            }
            let mut remaining = engine.remaining_tick_pages();
            let mut free = mem.free_pages(Tier::FMem);
            let promotes = &mut scratch.promote_buf;
            let pairs = &mut scratch.pair_buf;
            promotes.clear();
            pairs.clear();
            let mut total: u64 = 0;
            let mut ci = 0;
            for hi in 0..hot.len() {
                hot_sort.sort_to(hot, hi + 1);
                let (hcount, hpage) = hot[hi];
                if hcount == 0 {
                    break;
                }
                if pool_used < pool_cap_pages && free > 0 {
                    if remaining == 0 {
                        break;
                    }
                    remaining -= 1;
                    total += 1;
                    promotes.push(hpage);
                    pool_used += 1;
                    free -= 1;
                } else if ci < cold.len() {
                    cold_sort.sort_to(cold, ci + 1);
                    let (ccount, cpage) = cold[ci];
                    if (hcount as f64) <= ccount as f64 * hysteresis {
                        break;
                    }
                    if remaining < 2 {
                        total += remaining;
                        break;
                    }
                    remaining -= 2;
                    total += 2;
                    pairs.push((hpage, cpage));
                    ci += 1;
                } else {
                    break;
                }
            }
            if total == 0 {
                return 0;
            }
            let granted = engine.try_consume_pages(total);
            assert_eq!(granted, total);
            let mut moved = mem.migrate_batch(promotes, Tier::FMem);
            for &(h, c) in pairs.iter() {
                if mem.exchange(&[h], &[c]).is_ok() {
                    moved += 2;
                }
            }
            moved
        }
    }

    mod cadence_props {
        use super::*;
        use mtat_obs::Obs;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// Pages per workload, at most.
        const MAX_PAGES: usize = 12;

        /// One side of the comparison: a page table, an engine and the
        /// telemetry handle the engine reports through.
        struct Side {
            mem: TieredMemory,
            engine: MigrationEngine,
            obs: Obs,
        }

        impl Side {
            fn new(mem: &TieredMemory, seed: u64) -> Self {
                let obs = Obs::traced();
                let mut engine = MigrationEngine::new(MIB as f64, MIB, 60.0).unwrap();
                engine.set_obs(obs.clone());
                engine.set_fault_seed(seed);
                Side {
                    mem: mem.clone(),
                    engine,
                    obs,
                }
            }

            /// A tick of `budget` pages with per-page failure
            /// probability `fail_prob`.
            fn begin_tick(&mut self, budget: u64, fail_prob: f64) {
                self.engine.set_tick_faults(1.0, fail_prob);
                self.engine.begin_tick(budget as f64);
            }

            fn migrate_spans(&self) -> usize {
                self.obs
                    .with_tracer(|t| t.spans().iter().filter(|s| s.name == "migrate").count())
                    .unwrap()
            }

            /// Everything the two paths must leave equal.
            fn assert_same(&self, other: &Side) -> Result<(), TestCaseError> {
                for i in 0..self.mem.page_count() {
                    let p = PageId(i as u32);
                    prop_assert_eq!(self.mem.tier_of(p).unwrap(), other.mem.tier_of(p).unwrap());
                }
                for i in 0..self.mem.workload_count() {
                    let w = WorkloadId(i as u16);
                    prop_assert_eq!(self.mem.residency(w), other.mem.residency(w));
                    prop_assert_eq!(
                        self.mem.resident_popularity(w).map(f64::to_bits),
                        other.mem.resident_popularity(w).map(f64::to_bits)
                    );
                }
                let (a, b) = (&self.engine, &other.engine);
                prop_assert_eq!(a.failed_moves(), b.failed_moves());
                prop_assert_eq!(a.total_pages_moved(), b.total_pages_moved());
                prop_assert_eq!(a.failed_in_last_call(), b.failed_in_last_call());
                prop_assert_eq!(a.remaining_tick_pages(), b.remaining_tick_pages());
                prop_assert_eq!(a.total_busy_secs().to_bits(), b.total_busy_secs().to_bits());
                for name in ["requested", "granted", "failed", "denied"] {
                    let name = format!("tiermem.migration.{name}_pages");
                    let (x, y) = (
                        self.obs.counter_value(&name),
                        other.obs.counter_value(&name),
                    );
                    prop_assert!(x == y, "{name}: {x:?} != {y:?}");
                }
                prop_assert_eq!(self.migrate_spans(), other.migrate_spans());
                Ok(())
            }
        }

        /// A round: one call of either primitive on a fresh tick.
        #[derive(Debug, Clone)]
        struct Round {
            compete: bool,
            budget: u64,
            fail_prob: f64,
            /// `compete`'s workload set (bit i = workload i; the first
            /// workload when no bit names one) or `refine_swaps`'
            /// workload (the set's first).
            ws_mask: u8,
            pool_cap: u64,
            max_pairs: u64,
        }

        fn round() -> impl Strategy<Value = Round> {
            (
                (prop::bool::ANY, 0usize..6, 0u64..40),
                (0usize..3, 0u8..16),
                (0u64..28, 0usize..2, 0u64..16),
            )
                .prop_map(|((compete, b, x), (f, ws_mask), (pool_cap, m, y))| Round {
                    compete,
                    // 0, 1, 2, 3, 7 pages or any up to 39.
                    budget: [0, 1, 2, 3, 7, x][b],
                    fail_prob: [0.0, 0.25, 1.0][f],
                    ws_mask,
                    pool_cap,
                    max_pairs: [1, y][m],
                })
        }

        /// A workload: its page count, whether it starts FMem-first,
        /// its sampled counts (a third are 0, so `compete`'s walk meets
        /// cold candidates, and small counts tie often) and its
        /// popularity weights.
        fn workload() -> impl Strategy<Value = (usize, bool, Vec<u64>, Vec<u64>)> {
            (
                (1usize..MAX_PAGES + 1, prop::bool::ANY),
                prop::collection::vec((0usize..3, 0u64..12, 0u64..200), MAX_PAGES),
                prop::collection::vec(0u64..1 << 40, MAX_PAGES),
            )
                .prop_map(|((n, fmem_first), counts, weights)| {
                    let counts = counts.into_iter().map(|(k, s, l)| [0, s, l][k]).collect();
                    (n, fmem_first, counts, weights)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// `refine_swaps` and `compete` leave the page table, the
            /// engine and its telemetry exactly as the per-call loops
            /// (fault-armed ticks) and the batched walks (all others)
            /// did: same return values, tiers, residency, popularity
            /// mass bits, engine counters, `tiermem.migration.*`
            /// counters and `migrate` spans. Ticks draw failure
            /// probabilities 0, 0.25 and 1 and budgets of 0, 1, odd and
            /// even pages, so promotions and exchanges meet the end of
            /// the budget, free frames and the pool cap in every order.
            #[test]
            fn single_walks_match_the_per_call_paths(
                layout in (1u64..20, prop::collection::vec(workload(), 1..5)),
                shuffle in prop::collection::vec((0usize..4 * MAX_PAGES, prop::bool::ANY), 0..24),
                rounds in prop::collection::vec(round(), 1..5),
                seed in 0u64..u64::MAX,
            ) {
                let (fmem, workloads) = layout;
                let spec = MemorySpec::new(fmem * MIB, 64 * MIB, MIB).unwrap();
                let mut mem = TieredMemory::new(spec);
                let mut ids = Vec::new();
                for (n, fmem_first, _, weights) in &workloads {
                    let placement = if *fmem_first {
                        InitialPlacement::FmemFirst
                    } else {
                        InitialPlacement::AllSmem
                    };
                    let w = mem.register_workload(*n as u64 * MIB, placement).unwrap();
                    // Irregular weights whose sum stays far below 1.
                    let weights: Vec<f64> =
                        weights[..*n].iter().map(|&x| x as f64 * 1e-15).collect();
                    mem.register_popularity(w, &weights).unwrap();
                    ids.push(w);
                }
                let pages = mem.page_count();
                for &(i, promote) in &shuffle {
                    let to = if promote { Tier::FMem } else { Tier::SMem };
                    let _ = mem.migrate(PageId((i % pages) as u32), to);
                }
                let mut tracker = HotnessTracker::new(&mem);
                let obs: Vec<WorkloadObs> = workloads
                    .iter()
                    .zip(&ids)
                    .map(|((n, _, counts, _), &w)| obs_for(&mem, w, counts[..*n].to_vec()))
                    .collect();
                tracker.record_tick(&obs);

                let mut single = Side::new(&mem, seed);
                let mut reference = Side::new(&mem, seed);
                let mut scratch = PlacementScratch::default();
                for r in &rounds {
                    single.begin_tick(r.budget, r.fail_prob);
                    reference.begin_tick(r.budget, r.fail_prob);
                    let armed = r.fail_prob > 0.0;
                    let mut ws: Vec<WorkloadId> = ids
                        .iter()
                        .copied()
                        .filter(|w| r.ws_mask & (1 << w.0) != 0)
                        .collect();
                    if ws.is_empty() {
                        ws.push(ids[0]);
                    }
                    let (got, want) = if r.compete {
                        (
                            compete(
                                &mut scratch,
                                &mut single.mem,
                                &mut single.engine,
                                &tracker,
                                &ws,
                                r.pool_cap,
                                r.max_pairs,
                            ),
                            per_call::compete(
                                &mut reference.mem,
                                &mut reference.engine,
                                &tracker,
                                &ws,
                                r.pool_cap,
                                r.max_pairs,
                                armed,
                            ),
                        )
                    } else {
                        (
                            refine_swaps(
                                &mut scratch,
                                &mut single.mem,
                                &mut single.engine,
                                &tracker,
                                ws[0],
                                r.max_pairs,
                            ),
                            per_call::refine_swaps(
                                &mut reference.mem,
                                &mut reference.engine,
                                &tracker,
                                ws[0],
                                r.max_pairs,
                                armed,
                            ),
                        )
                    };
                    prop_assert!(got == want, "{r:?}: {got} != {want}");
                    single.assert_same(&reference)?;
                }
            }
        }
    }
}
