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

use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::{PageId, Tier, WorkloadId};

use crate::prefix_sort::{Order, PrefixSort, Ranked};
use crate::tracker::HotnessTracker;

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
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    w: WorkloadId,
    target_pages: u64,
) -> (u64, u64) {
    enforce_target_with(
        &mut PlacementScratch::default(),
        mem,
        engine,
        tracker,
        w,
        target_pages,
    )
}

/// [`enforce_target`] with caller-owned scratch buffers.
pub fn enforce_target_with(
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
/// hotter by more than the `hysteresis` factor, up to `max_pairs` swaps
/// and the engine budget. The hysteresis suppresses churn from sampling
/// noise between near-equal pages. The workload's FMem partition size
/// is unchanged. Returns swaps performed.
pub fn refine_swaps(
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    w: WorkloadId,
    max_pairs: u64,
    hysteresis: f64,
) -> u64 {
    refine_swaps_with(
        &mut PlacementScratch::default(),
        mem,
        engine,
        tracker,
        w,
        max_pairs,
        hysteresis,
    )
}

/// [`refine_swaps`] with caller-owned scratch buffers.
pub fn refine_swaps_with(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    w: WorkloadId,
    max_pairs: u64,
    hysteresis: f64,
) -> u64 {
    let budget_pairs = max_pairs.min(engine.remaining_tick_pages() / 2);
    if budget_pairs == 0 {
        return 0;
    }
    let (hot, cold) = (&mut scratch.hot_pages, &mut scratch.cold_pages);
    tracker.hottest_smem_into(hot, mem, w, budget_pairs as usize);
    tracker.coldest_fmem_into(cold, mem, w, budget_pairs as usize);
    let hist = tracker.histogram(w);
    if engine.may_fail() {
        // Fault-injection path: per-pair budget calls, so each pair's
        // per-page failure draws land exactly as they always have.
        let mut swaps = 0;
        for (&h, &c) in hot.iter().zip(cold.iter()) {
            if (hist.count(h) as f64) <= hist.count(c) as f64 * hysteresis {
                break; // candidates are sorted; no further pair can win
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
    // Fault-free: the winning pairs are a prefix (candidates are sorted
    // and the histogram is immutable here), and `budget_pairs` was
    // pre-clamped to the engine's remaining budget, so the per-pair
    // `try_consume_pages(2)` can never come up short. Count the prefix,
    // pay for it with one budget call, then apply each exchange in the
    // legacy order.
    let winners = hot
        .iter()
        .zip(cold.iter())
        .take_while(|&(&h, &c)| (hist.count(h) as f64) > hist.count(c) as f64 * hysteresis)
        .count();
    if winners == 0 {
        return 0;
    }
    let granted = engine.try_consume_pages(2 * winners as u64);
    debug_assert_eq!(granted, 2 * winners as u64);
    let mut swaps = 0;
    for (&h, &c) in hot.iter().zip(cold.iter()).take(winners) {
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
/// than the `hysteresis` factor (or free pool capacity remains).
/// Returns pages moved.
///
/// With `ws` = every workload and the pool = all of FMem this *is* the
/// frequency-based placement the paper critiques: LC pages, uniformly
/// cold, lose to hot BE pages.
pub fn compete(
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    ws: &[WorkloadId],
    pool_cap_pages: u64,
    max_pairs: u64,
    hysteresis: f64,
) -> u64 {
    compete_with(
        &mut PlacementScratch::default(),
        mem,
        engine,
        tracker,
        ws,
        pool_cap_pages,
        max_pairs,
        hysteresis,
    )
}

/// [`compete`] with caller-owned scratch buffers.
#[allow(clippy::too_many_arguments)]
pub fn compete_with(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    engine: &mut MigrationEngine,
    tracker: &HotnessTracker,
    ws: &[WorkloadId],
    pool_cap_pages: u64,
    max_pairs: u64,
    hysteresis: f64,
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

    let mut pool_used: u64 = ws.iter().map(|&w| mem.residency(w).fmem_pages).sum();
    if engine.may_fail() {
        // Fault-injection path: per-move budget calls, preserving the
        // exact per-granted-page failure draws.
        let mut moved = 0;
        let mut ci = 0;
        for hi in 0..hot.len() {
            hot_sort.sort_to(hot, hi + 1);
            let (hcount, hpage) = hot[hi];
            if hcount == 0 {
                break; // nothing hot left to justify a move
            }
            if pool_used < pool_cap_pages && mem.free_pages(Tier::FMem) > 0 {
                // Free capacity: promote unconditionally.
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
                    break; // the hottest leftover cannot displace anything
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
    // Fault-free batched selection. The loop below replays the legacy
    // control flow against *virtual* budget/occupancy state instead of
    // paying the migration engine per move:
    //
    // * `pool_used` only ever grows and `free` only ever shrinks
    //   (exchanges are FMem-neutral; a failed exchange touches nothing),
    //   so promotions form a strict prefix of the hot list and the
    //   promote-vs-exchange branch never flips back.
    // * A fault-free promote with `free > 0` cannot fail, so virtual
    //   `free`/`pool_used` track the real values exactly.
    // * The legacy `try_consume_pages(2)` on a 1-page remainder still
    //   consumed that page (granted = 1 < 2, then break) — the virtual
    //   loop adds the leftover to the consume total before breaking so
    //   the engine's budget/byte counters come out identical.
    //
    // One `try_consume_pages(total)` then pays for everything at once,
    // promotions apply as a single range batch, and exchanges replay
    // pair-by-pair in the legacy order (the Kahan-compensated popularity
    // masses are order-sensitive at the last ULP).
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
    debug_assert_eq!(granted, total);
    let mut moved = mem.migrate_batch(promotes, Tier::FMem);
    for &(h, c) in pairs.iter() {
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

    fn setup(fmem_mb: u64) -> (TieredMemory, MigrationEngine) {
        let spec = MemorySpec::new(fmem_mb * MIB, 64 * MIB, MIB).unwrap();
        let mem = TieredMemory::new(spec);
        let engine = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        (mem, engine)
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
        let (mut mem, mut engine) = setup(8);
        let w = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![1, 9, 3, 7, 0, 0, 0, 0])]);
        engine.begin_tick(1.0);
        let (p, d) = enforce_target(&mut mem, &mut engine, &tracker, w, 2);
        assert_eq!((p, d), (2, 0));
        // Ranks 1 (count 9) and 3 (count 7) should be the residents.
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(1)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(3)).unwrap(), Tier::FMem);
    }

    #[test]
    fn enforce_target_demotes_coldest() {
        let (mut mem, mut engine) = setup(8);
        let w = mem
            .register_workload(8 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![10, 1, 8, 9, 7, 6, 5, 4])]);
        engine.begin_tick(1.0);
        let (p, d) = enforce_target(&mut mem, &mut engine, &tracker, w, 7);
        assert_eq!((p, d), (0, 1));
        // Rank 1 (count 1) is the coldest and should be demoted.
        assert_eq!(mem.tier_of(mem.region(w).page(1)).unwrap(), Tier::SMem);
    }

    #[test]
    fn enforce_target_respects_budget_and_free_space() {
        let (mut mem, mut engine) = setup(4);
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
        let (p, _) = enforce_target(&mut mem, &mut engine, &tracker, w, 4);
        assert_eq!(p, 0);
        // Make room, then budget-limit the engine.
        enforce_target(&mut mem, &mut engine, &tracker, filler, 0);
        let mut tiny = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
        tiny.begin_tick(2.0 * MIB as f64 / 1e9); // budget: 2 pages
        let (p, _) = enforce_target(&mut mem, &mut tiny, &tracker, w, 4);
        assert_eq!(p, 2);
    }

    #[test]
    fn refine_swaps_fixes_misplacement() {
        let (mut mem, mut engine) = setup(2);
        let w = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        // Ranks 0,1 in FMem; but ranks 2,3 are the hot ones.
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, w, vec![1, 2, 100, 50])]);
        engine.begin_tick(1.0);
        let swaps = refine_swaps(&mut mem, &mut engine, &tracker, w, 10, 1.0);
        assert_eq!(swaps, 2);
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(2)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(3)).unwrap(), Tier::FMem);
        // Partition size unchanged.
        assert_eq!(mem.residency(w).fmem_pages, 2);
        // A second call finds nothing to improve.
        assert_eq!(refine_swaps(&mut mem, &mut engine, &tracker, w, 10, 1.0), 0);
    }

    #[test]
    fn compete_prefers_hotter_workload() {
        let (mut mem, mut engine) = setup(2);
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
        let moved = compete(&mut mem, &mut engine, &tracker, &[a, b], 2, 64, 1.0);
        assert_eq!(moved, 2);
        // Workload a's two hot pages win the whole pool.
        assert_eq!(mem.residency(a).fmem_pages, 2);
        assert_eq!(mem.residency(b).fmem_pages, 0);
    }

    #[test]
    fn compete_displaces_colder_pages() {
        let (mut mem, mut engine) = setup(2);
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
        let moved = compete(&mut mem, &mut engine, &tracker, &[a, b], 2, 64, 1.0);
        assert_eq!(moved, 4); // two exchanges
        assert_eq!(mem.residency(b).fmem_pages, 2);
        assert_eq!(mem.residency(a).fmem_pages, 0);
    }

    #[test]
    fn compete_respects_pool_cap() {
        let (mut mem, mut engine) = setup(8);
        let a = mem
            .register_workload(8 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mut tracker = HotnessTracker::new(&mem);
        tracker.record_tick(&[obs_for(&mem, a, vec![9; 8])]);
        engine.begin_tick(1.0);
        // Pool capped at 3 pages even though FMem has 8 free.
        compete(&mut mem, &mut engine, &tracker, &[a], 3, 64, 1.0);
        assert_eq!(mem.residency(a).fmem_pages, 3);
    }

    #[test]
    fn compete_ignores_outside_workloads() {
        let (mut mem, mut engine) = setup(4);
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
        compete(&mut mem, &mut engine, &tracker, &[be], 2, 64, 1.0);
        assert_eq!(mem.residency(be).fmem_pages, 2);
        assert_eq!(mem.residency(lc).fmem_pages, 2, "LC pages untouched");
    }

    #[test]
    fn cold_pages_never_promoted_by_compete() {
        let (mut mem, mut engine) = setup(4);
        let a = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let tracker = HotnessTracker::new(&mem); // all counts zero
        engine.begin_tick(1.0);
        let moved = compete(&mut mem, &mut engine, &tracker, &[a], 4, 64, 1.0);
        assert_eq!(moved, 0);
        let _ = PageId(0); // silence unused import in some cfgs
    }
}
