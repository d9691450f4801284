//! Property-based tests of the tiered-memory substrate.

use proptest::prelude::*;

use mtat_tiermem::faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
use mtat_tiermem::histogram::{bin_for_count, AccessHistogram, NUM_BINS};
use mtat_tiermem::latency::{achieved_throughput, erlang_c, max_load_for_p99, p99_response};
use mtat_tiermem::memory::{InitialPlacement, MemorySpec, TieredMemory};
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::{PageId, PageRegion, Tier};
use mtat_tiermem::sampler::AccessSampler;
use mtat_tiermem::MIB;

proptest! {
    /// Registration never exceeds capacities and the spill rules hold:
    /// FmemFirst fills FMem from the lowest ranks, AllSmem spills only
    /// the highest ranks.
    #[test]
    fn registration_respects_capacities(
        fmem_pages in 1u64..32,
        smem_pages in 1u64..256,
        sizes in prop::collection::vec(1u64..64, 1..6),
        fmem_first in prop::bool::ANY,
    ) {
        let spec = MemorySpec::new(fmem_pages * MIB, smem_pages * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let placement = if fmem_first {
            InitialPlacement::FmemFirst
        } else {
            InitialPlacement::AllSmem
        };
        for &pages in &sizes {
            let free = mem.free_pages(Tier::FMem) + mem.free_pages(Tier::SMem);
            let res = mem.register_workload(pages * MIB, placement);
            if pages <= free {
                prop_assert!(res.is_ok());
            } else {
                prop_assert!(res.is_err());
            }
            prop_assert!(mem.check_invariants().is_ok());
            prop_assert!(mem.used_pages(Tier::FMem) <= fmem_pages);
            prop_assert!(mem.used_pages(Tier::SMem) <= smem_pages);
        }
    }

    /// An exchange of equal-sized page sets preserves per-tier usage.
    #[test]
    fn exchange_preserves_tier_usage(k in 1u32..8) {
        let spec = MemorySpec::new(16 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem.register_workload(16 * MIB, InitialPlacement::FmemFirst).unwrap();
        let b = mem.register_workload(16 * MIB, InitialPlacement::AllSmem).unwrap();
        let before_f = mem.used_pages(Tier::FMem);
        let before_s = mem.used_pages(Tier::SMem);
        let demote: Vec<PageId> = (0..k).map(|r| mem.region(a).page(r)).collect();
        let promote: Vec<PageId> = (0..k).map(|r| mem.region(b).page(r)).collect();
        mem.exchange(&promote, &demote).unwrap();
        prop_assert_eq!(mem.used_pages(Tier::FMem), before_f);
        prop_assert_eq!(mem.used_pages(Tier::SMem), before_s);
        prop_assert!(mem.check_invariants().is_ok());
    }

    /// Bin boundaries double: bin(2c) == bin(c) + 1 for c in a power-of-
    /// two position, and bins are monotone in the count.
    #[test]
    fn histogram_bins_are_monotone(c1 in 0u64..1_000_000, c2 in 0u64..1_000_000) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(bin_for_count(lo) <= bin_for_count(hi));
        prop_assert!(bin_for_count(hi) < NUM_BINS);
        // Doubling a nonzero count advances the bin by exactly one
        // (until the cap).
        if lo > 0 && bin_for_count(lo) + 1 < NUM_BINS {
            prop_assert_eq!(bin_for_count(lo * 2), bin_for_count(lo) + 1);
        }
    }

    /// Aging halves totals (integer division per page).
    #[test]
    fn aging_halves_total_within_rounding(
        counts in prop::collection::vec(0u64..10_000, 1..64),
    ) {
        let region = PageRegion { base: 0, n_pages: counts.len() as u32 };
        let mut h = AccessHistogram::new(region);
        for (rank, &c) in counts.iter().enumerate() {
            h.add(PageId(rank as u32), c);
        }
        let before = h.total();
        h.age();
        let after = h.total();
        prop_assert!(after <= before / 2);
        // Rounding loses at most one count per page.
        prop_assert!(after + counts.len() as u64 > before / 2);
    }

    /// The migration engine never grants more than its budget, and the
    /// Eq. (1) bound scales linearly in bandwidth and interval.
    #[test]
    fn migration_budget_is_a_hard_cap(
        bw_mb in 1u32..10_000,
        tick_ms in 1u32..5_000,
        requests in prop::collection::vec(0u64..5_000, 1..20),
    ) {
        let bw = bw_mb as f64 * MIB as f64;
        let mut e = MigrationEngine::new(bw, MIB, 10.0).unwrap();
        let tick = tick_ms as f64 / 1e3;
        e.begin_tick(tick);
        let budget = e.remaining_tick_pages();
        let mut granted_total = 0;
        for &r in &requests {
            granted_total += e.try_consume_pages(r);
        }
        prop_assert!(granted_total <= budget);
        prop_assert_eq!(e.remaining_tick_pages(), budget - granted_total);
        // Eq. (1): bound in bytes = bw * t / 2.
        let bound = e.max_exchange_bytes_per_interval();
        prop_assert_eq!(bound, (bw * 10.0 / 2.0) as u64);
    }

    /// Queueing sanity: P99 is finite below capacity, infinite at or
    /// above it; achieved throughput equals offered below capacity.
    #[test]
    fn queueing_capacity_edge(
        s_us in 1.0f64..1_000.0,
        c in 1usize..32,
        frac in 0.01f64..0.99,
    ) {
        let s = s_us * 1e-6;
        let cap = c as f64 / s;
        prop_assert!(p99_response(frac * cap, s, c).is_finite());
        prop_assert!(!p99_response(cap * 1.01, s, c).is_finite());
        prop_assert!((achieved_throughput(frac * cap, s, c) - frac * cap).abs() < 1e-6);
        prop_assert!((achieved_throughput(cap * 2.0, s, c) - cap).abs() < 1e-6);
    }

    /// The max-load solver is consistent with the P99 model: its result
    /// satisfies the SLO and 1 % more violates it.
    #[test]
    fn max_load_is_the_knee(
        s_us in 1.0f64..200.0,
        c in 1usize..16,
        slo_ms in 1.0f64..100.0,
    ) {
        let s = s_us * 1e-6;
        let slo = slo_ms * 1e-3;
        let max = max_load_for_p99(s, c, slo);
        if max > 0.0 {
            prop_assert!(p99_response(max * 0.999, s, c) <= slo * (1.0 + 1e-6));
            prop_assert!(p99_response(max * 1.02, s, c) > slo);
        }
    }

    /// Erlang-C is a probability and increases with offered load.
    #[test]
    fn erlang_c_is_probability(c in 1usize..64, a1 in 0.0f64..32.0, a2 in 0.0f64..32.0) {
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        let p_lo = erlang_c(c, lo);
        let p_hi = erlang_c(c, hi);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    /// Two injectors built from an identical fault plan produce the
    /// identical per-tick fault trace and identical noise draws — fault
    /// injection is fully deterministic from the plan's seed.
    #[test]
    fn identical_fault_plans_replay_identically(
        seed in 0u64..1_000,
        starts in prop::collection::vec(0.0f64..100.0, 1..5),
        kinds in prop::collection::vec(0usize..7, 1..5),
    ) {
        let mut plan = FaultPlan::new(seed);
        for (&start, &k) in starts.iter().zip(kinds.iter()) {
            let kind = match k {
                0 => FaultKind::SamplerBlackout,
                1 => FaultKind::SamplerDropout { keep: 0.3 },
                2 => FaultKind::MigrationThrottle { factor: 0.25 },
                3 => FaultKind::MigrationStall,
                4 => FaultKind::MigrationFlaky { prob: 0.5 },
                5 => FaultKind::TelemetryStale { ticks: 3 },
                _ => FaultKind::TelemetryNoise { amplitude: 0.2 },
            };
            plan.windows.push(FaultWindow { kind, start_secs: start, duration_secs: 10.0 });
        }
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for t in 0..120 {
            let now = t as f64;
            let fa = a.begin_tick(now);
            let fb = b.begin_tick(now);
            prop_assert_eq!(fa, fb);
            let na = a.noise_factor(fa.telemetry_noise_amp);
            let nb = b.noise_factor(fb.telemetry_noise_amp);
            prop_assert_eq!(na.to_bits(), nb.to_bits());
        }
    }

    /// The seeded per-move failure stream of the migration engine is
    /// reproducible: same seed and same call pattern, same failures.
    #[test]
    fn engine_fault_stream_is_deterministic(
        seed in 0u64..1_000,
        requests in prop::collection::vec(1u64..64, 1..16),
        prob in 0.05f64..0.95,
    ) {
        let run = |s: u64| {
            let mut e = MigrationEngine::new(1e9, MIB, 10.0).unwrap();
            e.set_fault_seed(s);
            e.set_tick_faults(1.0, prob);
            e.begin_tick(1.0);
            let mut log = Vec::new();
            for &r in &requests {
                let done = e.try_consume_pages(r);
                log.push((done, e.failed_in_last_call()));
            }
            (log, e.failed_moves())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Sampling is conservative in expectation: over many pages the
    /// estimated totals track the true totals within sampling error.
    #[test]
    fn sampler_estimates_are_unbiased(period in 1.0f64..256.0, seed in 0u64..100) {
        let mut s = AccessSampler::new(period, seed).unwrap();
        let true_per_page = 50.0 * period; // mean 50 events per page
        let n = 400;
        let mut est_total = 0u64;
        for _ in 0..n {
            let ev = s.sample_count(true_per_page);
            est_total += s.estimate_from_samples(ev);
        }
        let true_total = true_per_page * n as f64;
        let rel_err = (est_total as f64 - true_total).abs() / true_total;
        // 400 pages × mean 50 -> σ/μ ≈ 1/√20000 ≈ 0.7 %; allow 5σ.
        prop_assert!(rel_err < 0.05, "rel_err {rel_err}");
    }
}

proptest! {
    /// After an arbitrary interleaving of `migrate` and `exchange`
    /// operations, the incrementally maintained resident-popularity mass
    /// equals a from-scratch O(n) recompute over the actual placement to
    /// 1e-9, and `check_invariants` (which embeds the same cross-check)
    /// stays clean.
    #[test]
    fn resident_popularity_matches_recompute(
        raw_a in prop::collection::vec(0.0f64..1.0, 12),
        raw_b in prop::collection::vec(0.0f64..1.0, 20),
        ops in prop::collection::vec((0u8..4, 0u32..20, 0u32..20), 1..60),
    ) {
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem.register_workload(12 * MIB, InitialPlacement::FmemFirst).unwrap();
        let b = mem.register_workload(20 * MIB, InitialPlacement::AllSmem).unwrap();
        let norm = |v: &[f64]| {
            let t: f64 = v.iter().sum::<f64>().max(1e-12);
            v.iter().map(|x| x / t).collect::<Vec<f64>>()
        };
        let wa = norm(&raw_a);
        let wb = norm(&raw_b);
        mem.register_popularity(a, &wa).unwrap();
        mem.register_popularity(b, &wb).unwrap();

        let recompute = |mem: &TieredMemory, w, weights: &[f64]| -> f64 {
            let base = mem.region(w).base;
            mem.pages_in_tier(w, Tier::FMem)
                .map(|p| weights[(p.0 - base) as usize])
                .sum::<f64>()
                .clamp(0.0, 1.0)
        };

        for &(kind, ra, rb) in &ops {
            let (w, rank) = if kind % 2 == 0 {
                (a, ra % 12)
            } else {
                (b, rb % 20)
            };
            let page = mem.region(w).page(rank);
            match kind {
                0 | 1 => {
                    // Migrate toward whichever tier it is not in; a full
                    // destination tier is a legitimate no-op error.
                    let to = mem.tier_of_unchecked(page).other();
                    let _ = mem.migrate(page, to);
                }
                _ => {
                    // Exchange one of `a`'s pages with one of `b`'s,
                    // promoting whichever currently sits in SMem.
                    let pa = mem.region(a).page(ra % 12);
                    let pb = mem.region(b).page(rb % 20);
                    let (fa, fb) = (
                        mem.tier_of_unchecked(pa) == Tier::FMem,
                        mem.tier_of_unchecked(pb) == Tier::FMem,
                    );
                    if fa && !fb {
                        let _ = mem.exchange(&[pb], &[pa]);
                    } else if fb && !fa {
                        let _ = mem.exchange(&[pa], &[pb]);
                    }
                }
            }
            let inc_a = mem.resident_popularity(a).unwrap();
            let inc_b = mem.resident_popularity(b).unwrap();
            prop_assert!((inc_a - recompute(&mem, a, &wa)).abs() < 1e-9, "a: {inc_a}");
            prop_assert!((inc_b - recompute(&mem, b, &wb)).abs() < 1e-9, "b: {inc_b}");
            prop_assert!(mem.check_invariants().is_ok());
        }
    }
}

proptest! {
    /// The rank→(bin,slot) arena index survives arbitrary `add_rank` /
    /// `age` interleavings: per-rank counts match a naive model vector,
    /// the internal index cross-check passes after every operation, and
    /// the final total equals the model sum. This pins the SoA
    /// histogram's swap-remove/segment-push bookkeeping (including the
    /// aging fast path that skips zero-count ranks) against the obvious
    /// reference implementation.
    #[test]
    fn histogram_index_consistent_under_arbitrary_ops(
        n in 4u32..96,
        ops in prop::collection::vec((0u32..96, 0u64..1_000_000, 0u8..8), 1..200),
    ) {
        let region = PageRegion { base: 7, n_pages: n };
        let mut h = AccessHistogram::new(region);
        let mut model = vec![0u64; n as usize];
        for &(r, delta, kind) in &ops {
            if kind == 0 {
                h.age();
                for c in model.iter_mut() {
                    *c /= 2;
                }
            } else {
                let rank = r % n;
                h.add_rank(rank, delta);
                model[rank as usize] = model[rank as usize].saturating_add(delta);
            }
            prop_assert!(h.check_invariants().is_ok(), "{:?}", h.check_invariants());
        }
        let mut total = 0u64;
        for (rank, &c) in model.iter().enumerate() {
            prop_assert_eq!(h.count(region.page(rank as u32)), c);
            total += c;
        }
        prop_assert_eq!(h.total(), total);
        // Bin dominance of the hottest scan: every selected page's bin
        // is at least every unselected page's bin (selection is
        // bin-granular by construction).
        let k = (n / 3).max(1) as usize;
        let sel = h.hottest_matching(k, |_| true);
        let min_sel = sel.iter().map(|&p| h.bin_of(p)).min().unwrap_or(0);
        for rank in 0..n {
            let p = region.page(rank);
            if !sel.contains(&p) {
                prop_assert!(h.bin_of(p) <= min_sel);
            }
        }
    }

    /// The FMem residency bitset answers `is_fmem` identically to the
    /// authoritative tier array after arbitrary batched-migrate /
    /// exchange sequences driven through a (possibly flaky) migration
    /// engine, per-workload residency counters match a per-page
    /// recount, and the bitset-predicate hottest/coldest scans return
    /// exactly what naive tier-filtered scans return.
    #[test]
    fn residency_bitset_consistent_under_arbitrary_ops(
        seed in 0u64..1_000,
        prob in 0.0f64..0.9,
        ops in prop::collection::vec((0u8..3, 0u32..24, 1u32..8), 1..60),
    ) {
        let spec = MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem.register_workload(12 * MIB, InitialPlacement::FmemFirst).unwrap();
        let b = mem.register_workload(24 * MIB, InitialPlacement::AllSmem).unwrap();
        // A histogram over `b`'s region drives the predicate scans.
        let mut h = AccessHistogram::new(mem.region(b));
        for r in 0..24 {
            h.add_rank(r, (r as u64 + 1) * 3);
        }
        let mut e = MigrationEngine::new(64.0 * MIB as f64, MIB, 10.0).unwrap();
        e.set_fault_seed(seed);
        for (i, &(kind, start, len)) in ops.iter().enumerate() {
            e.set_tick_faults(1.0, prob);
            e.begin_tick(1.0);
            match kind {
                0 | 1 => {
                    let w = if kind == 0 { a } else { b };
                    let region = mem.region(w);
                    let s = start % region.n_pages;
                    let l = len.min(region.n_pages - s);
                    let pages: Vec<PageId> = (s..s + l).map(|r| region.page(r)).collect();
                    let to = if i % 2 == 0 { Tier::FMem } else { Tier::SMem };
                    let granted = e.try_consume_pages(pages.len() as u64) as usize;
                    mem.migrate_batch(&pages[..granted], to);
                }
                _ => {
                    let pa = mem.region(a).page(start % 12);
                    let pb = mem.region(b).page(start % 24);
                    let (fa, fb) = (mem.is_fmem(pa), mem.is_fmem(pb));
                    if fa && !fb {
                        let _ = mem.exchange(&[pb], &[pa]);
                    } else if fb && !fa {
                        let _ = mem.exchange(&[pa], &[pb]);
                    }
                }
            }
            for w in [a, b] {
                let region = mem.region(w);
                let mut fmem = 0u64;
                for r in 0..region.n_pages {
                    let p = region.page(r);
                    prop_assert_eq!(mem.is_fmem(p), mem.tier_of_unchecked(p) == Tier::FMem);
                    fmem += u64::from(mem.is_fmem(p));
                }
                prop_assert_eq!(mem.residency(w).fmem_pages, fmem);
            }
            prop_assert!(mem.check_invariants().is_ok());
            let hot_bitset = h.hottest_matching(6, |p| !mem.is_fmem(p));
            let hot_naive = h.hottest_matching(6, |p| mem.tier_of_unchecked(p) == Tier::SMem);
            prop_assert_eq!(hot_bitset, hot_naive);
            let cold_bitset = h.coldest_matching(6, |p| mem.is_fmem(p));
            let cold_naive = h.coldest_matching(6, |p| mem.tier_of_unchecked(p) == Tier::FMem);
            prop_assert_eq!(cold_bitset, cold_naive);
        }
    }
}
