//! Microbenchmarks for the SoA arena hot paths and the SAC agent.
//!
//! Times the primitives the adaptive per-tick cost decomposes into, in
//! isolation, so a regression in any one of them is visible before it
//! washes out in the end-to-end ticks/sec number:
//!
//! * **migrate_batch** — owner-run batched tier moves over a candidate
//!   slice (pages/sec, ping-ponging a block between tiers so every call
//!   does real work);
//! * **rebin** — `AccessHistogram::add_rank` calls that each cross a
//!   bin boundary, exercising the swap-remove + segment-push index
//!   maintenance as a one-rank batch of the rebin pass, whose copy of
//!   the bin table in and out it pays on every call (ops/sec);
//! * **hottest-scan / coldest-scan** — `hottest_matching_into` and
//!   `coldest_matching_into` over a populated histogram with the
//!   residency-bitset predicate, the gather step of every enforcement
//!   tick (scans/sec, and pages/sec for the hottest scan);
//! * **paper-density tick** — one workload of 17.2 K pages (33.6 GiB at
//!   2 MiB) sampled at period 1009: one `sample_weighted_estimates_touched`
//!   call (buffer reset, scatter and period scale-up; ns/event), the
//!   `AccessHistogram::record` call that records its ~7 K touched ranks,
//!   as the hotness tracker does every tick (ns/rank, reported as
//!   `hist_add_ranks_ns_per_rank`), and one `age` of the histogram with
//!   every page nonzero (ns/rank);
//! * **dense sample** — `sample_weighted_estimates_touched` at
//!   `heal_storm`'s shape: 2 048 pages (2 GiB at 1 MiB), Zipf 0.8,
//!   period 101, ~166 K events per call (~81 per page), buffers reused
//!   so every batch takes the dense bookkeeping (ns/event);
//! * **dense uniform sample** — `sample_uniform_estimates_touched` at
//!   `heal_storm`'s LC shape: 1 229 pages (1.2 GiB at 1 MiB), period
//!   101, ~31 K events per call (~25 per page), dense as well
//!   (ns/event);
//! * **sparse uniform sample** — `sample_uniform_estimates_touched` at
//!   the paper LC shape: 17.2 K pages at period 1009, ~0.3 events per
//!   page (~5.2 K per call), so every batch takes the sparse
//!   bookkeeping, as every paper-scale LC batch does (ns/event). The
//!   four sampler rows run on the sampler's kernel, reported as
//!   `sample_draw_kernel` (`"avx512"` or `"scalar"`, picked from the
//!   CPU at run time); the record row runs on the histogram's, reported
//!   as `hist_kernel`;
//! * **SAC** — one gradient round of a warmed paper-config agent (ms;
//!   MTAT runs one every second partitioning decision and every second
//!   pretraining step), and one greedy and one exploring action (µs;
//!   one per decision, one per pretraining step), on the networks'
//!   batched kernel, reported as `nn_kernel`;
//! * **page table** — on the paper-scale memory (an FMem-first 33 GiB
//!   workload and an all-SMem 35 GiB one): one page's
//!   SMem→FMem round trip through `migrate` (ns), one 64-page
//!   `exchange` round trip (µs), one tick of migration-engine budget
//!   accounting (ns), and a count of the first workload's FMem pages
//!   over its ~17 K-page residency (µs);
//! * **compete** — one `placement::compete_with` call, MEMTIS's whole
//!   placement step, on the paper-scale memory: five 16 GiB tenants
//!   whose FMem pages (40 % of each, at random to begin with) and
//!   histograms took ten ticks of Zipf-skewed noisy counts, an aging
//!   every fifth tick and one `compete_with` for each of the first
//!   nine, so the order inside each bin depends on that history and
//!   residency follows hotness; the timed call is the tenth tick's,
//!   with k = 1024 pairs (µs; each call starts from the same memory
//!   copy, which is not timed). It gathers ~5 K hot and ~5 K cold
//!   candidates, and its walk consumes a few dozen pairs, as MEMTIS's
//!   does in a steady state;
//! * **BE profiling** — `profile_all` over the paper's four BEs at
//!   32 GiB FMem, at 2 MiB and at 128 KiB pages (ms): the offline
//!   profile from the BE specs, and how its cost scales with the page
//!   count;
//! * **MTAT set-up** — `MtatPolicy::new` (MTAT (Full), 3 000
//!   pretraining steps, the agent taken from the process-wide cache
//!   that an untimed first call fills) plus a zero-tick
//!   `Experiment::try_run` on the paper's co-location (Redis and the
//!   four BEs at paper scale), in ms: everything a paper-scale MTAT
//!   run pays before its first tick apart from pretraining, including
//!   the BE inputs, the page table and the policy's `init`;
//! * **yardstick** — a frozen loop of dependent pointer-chase loads
//!   over a buffer larger than L2, each followed by a burst of integer
//!   arithmetic that the next load waits for (ns per step, best of 5).
//!   It times the machine, not the simulator: CI's benchmark gate
//!   multiplies each workload's ticks/s by it, so one committed floor
//!   holds on a faster or a more contended machine.
//!
//! Writes `BENCH_micro.json` (override with `--out PATH`); CI uploads
//! the file as an artifact next to the span traces. Absolute numbers
//! are machine-dependent and, apart from the yardstick, not gated.

use std::hint::black_box;
use std::time::Instant;

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::policy::{WorkloadClass, WorkloadObs};
use mtat_core::ppe::placement::{self, PlacementScratch};
use mtat_core::ppe::HOTNESS_HYSTERESIS;
use mtat_core::ppm::profiler::profile_all;
use mtat_core::runner::Experiment;
use mtat_core::tracker::HotnessTracker;
use mtat_nn::linear::Linear;
use mtat_obs::Obs;
use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_tiermem::histogram::{AccessHistogram, NUM_BINS};
use mtat_tiermem::memory::{InitialPlacement, MemorySpec, TieredMemory};
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::{PageId, PageRegion, Tier, WorkloadId};
use mtat_tiermem::sampler::{AccessSampler, TouchedSet, WeightTable};
use mtat_tiermem::{GIB, KIB, MIB};
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

/// Minimum wall time per measurement; repeats until exceeded so quick
/// primitives still get a stable rate.
const MIN_SECS: f64 = 0.25;

/// Ping-pongs a 256-page block between tiers and returns pages/sec.
fn bench_migrate_batch() -> f64 {
    let spec = MemorySpec::new(512 * MIB, 8192 * MIB, MIB).unwrap();
    let mut mem = TieredMemory::new(spec);
    let w = mem
        .register_workload(4096 * MIB, InitialPlacement::AllSmem)
        .unwrap();
    let batch: Vec<PageId> = (0..256).map(|r| mem.region(w).page(r)).collect();
    let mut pages = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        pages += mem.migrate_batch(&batch, Tier::FMem);
        pages += mem.migrate_batch(&batch, Tier::SMem);
    }
    assert!(mem.check_invariants().is_ok());
    pages as f64 / start.elapsed().as_secs_f64()
}

/// `add_rank` calls that each double the count — every call rebins
/// until the bin cap, then the histogram is aged back down. Returns
/// rebinning add_rank ops/sec.
fn bench_rebin() -> f64 {
    let n: u32 = 16384;
    let region = PageRegion {
        base: 0,
        n_pages: n,
    };
    let mut h = AccessHistogram::new(region);
    for r in 0..n {
        h.add_rank(r, 1);
    }
    let mut ops = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        // Doubling a nonzero count advances its exponent bin by one.
        for _round in 0..(NUM_BINS - 2) {
            for r in 0..n {
                let c = h.count(PageId(r));
                h.add_rank(r, c);
                ops += 1;
            }
        }
        // Age back to bin 1 so the next pass rebins again.
        for _ in 0..NUM_BINS {
            h.age();
        }
        for r in 0..n {
            if h.count(PageId(r)) == 0 {
                h.add_rank(r, 1);
            }
        }
    }
    assert!(h.check_invariants().is_ok());
    ops as f64 / start.elapsed().as_secs_f64()
}

/// `hottest_matching_into` (`hottest`) or `coldest_matching_into` with
/// the residency-bitset predicate over a zipf-populated histogram.
/// Returns (scans/sec, candidate pages/sec).
fn bench_scan(hottest: bool) -> (f64, f64) {
    let n: u32 = 16384;
    let spec = MemorySpec::new(2048 * MIB, 32768 * MIB, MIB).unwrap();
    let mut mem = TieredMemory::new(spec);
    let w = mem
        .register_workload(n as u64 * MIB, InitialPlacement::AllSmem)
        .unwrap();
    let region = mem.region(w);
    let mut h = AccessHistogram::new(region);
    for r in 0..n {
        // Zipf-ish spread across bins.
        h.add_rank(r, 1 + (n - r) as u64 * 17 / (r as u64 + 3));
    }
    // Promote a quarter so the predicate actually filters.
    let promoted: Vec<PageId> = (0..n / 4).map(|r| region.page(r * 4)).collect();
    mem.migrate_batch(&promoted, Tier::FMem);
    let k = 1024usize;
    let mut out = Vec::with_capacity(k);
    let mut scans = 0u64;
    let mut pages = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        if hottest {
            h.hottest_matching_into(&mut out, k, |p| !mem.is_fmem(p));
        } else {
            h.coldest_matching_into(&mut out, k, |p| mem.is_fmem(p));
        }
        scans += 1;
        pages += out.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (scans as f64 / secs, pages as f64 / secs)
}

/// Pages of the paper-density workload (a 33.6 GiB BE at 2 MiB pages).
const PAPER_PAGES: usize = 17_200;

/// The paper's sampling period.
const PAPER_PERIOD: f64 = 1009.0;

/// True accesses per tick that give the paper-density workload ~18 K
/// sampled events, as a paper-scale BE receives.
const PAPER_TRUE_PER_TICK: f64 = 18_000.0 * PAPER_PERIOD;

/// The sampler's table for a Zipf 0.8 workload of `pages` pages, the
/// skew of the paper BEs' and `heal_storm`'s SSSP.
fn zipf_table(pages: usize) -> WeightTable {
    let zipf: Vec<f64> = (0..pages).map(|r| ((r + 1) as f64).powf(-0.8)).collect();
    let mass: f64 = zipf.iter().sum();
    let weights: Vec<f64> = zipf.iter().map(|w| w / mass).collect();
    WeightTable::new(&weights).unwrap()
}

/// Times the paper-density tick's sampling and recording kernels.
/// Returns (sample ns/event, `record` ns/rank, touched ranks per
/// batch, `age` ns/rank).
fn bench_paper_tick() -> (f64, f64, f64, f64) {
    // Zipf 0.8 spreads ~18 K events over ~7 K distinct pages.
    let table = zipf_table(PAPER_PAGES);
    let mut sampler = AccessSampler::new(PAPER_PERIOD, 7).unwrap();
    let region = PageRegion {
        base: 0,
        n_pages: PAPER_PAGES as u32,
    };
    let mut h = AccessHistogram::new(region);
    let (mut est, mut touched, mut moved) =
        (vec![0u64; PAPER_PAGES], TouchedSet::default(), Vec::new());
    let (mut sample_secs, mut events) = (0.0, 0u64);
    let (mut add_secs, mut ranks, mut batches) = (0.0, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        let t = Instant::now();
        sampler.sample_weighted_estimates_touched(
            &mut est,
            &mut touched,
            PAPER_TRUE_PER_TICK,
            &table,
        );
        sample_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        h.record(&est, &touched, &mut moved);
        add_secs += t.elapsed().as_secs_f64();
        let batch: Vec<usize> = touched.iter_ranks().collect();
        events += batch
            .iter()
            .map(|&r| est[r] / PAPER_PERIOD as u64)
            .sum::<u64>();
        ranks += batch.len() as u64;
        batches += 1;
        // The paper ages every partitioning interval: 5 one-second ticks.
        if batches % 5 == 0 {
            h.age();
        }
    }
    assert!(h.check_invariants().is_ok());

    // Aging: every page nonzero, as at paper scale (~99.7 %).
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for r in 0..PAPER_PAGES as u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.add_rank(r, (1 + x % 64) * PAPER_PERIOD as u64);
    }
    let (mut age_secs, mut ages) = (0.0, 0u64);
    while age_secs < MIN_SECS {
        let mut aged = h.clone();
        let t = Instant::now();
        aged.age();
        age_secs += t.elapsed().as_secs_f64();
        ages += 1;
    }
    (
        sample_secs * 1e9 / events as f64,
        add_secs * 1e9 / ranks as f64,
        ranks as f64 / batches as f64,
        age_secs * 1e9 / (ages * PAPER_PAGES as u64) as f64,
    )
}

/// Pages of `heal_storm`'s BE (a 2 GiB SSSP at 1 MiB pages).
const HEAL_PAGES: usize = 2048;

/// `heal_storm`'s sampling period.
const HEAL_PERIOD: f64 = 101.0;

/// True accesses per call that give ~166 K sampled events, ~81 per
/// page, as `heal_storm`'s BE receives each tick.
const HEAL_TRUE_PER_TICK: f64 = 166_000.0 * HEAL_PERIOD;

/// Times `sample_weighted_estimates_touched` at `heal_storm`'s shape,
/// where every batch is dense (events ≥ pages / 2): the event loop
/// only increments, and one pass marks and scales the buffer. Returns
/// ns/event.
fn bench_dense_sample() -> f64 {
    let table = zipf_table(HEAL_PAGES);
    let mut sampler = AccessSampler::new(HEAL_PERIOD, 11).unwrap();
    let (mut est, mut touched) = (vec![0u64; HEAL_PAGES], TouchedSet::default());
    let (mut secs, mut events) = (0.0, 0u64);
    while secs < MIN_SECS {
        let t = Instant::now();
        sampler.sample_weighted_estimates_touched(
            &mut est,
            &mut touched,
            HEAL_TRUE_PER_TICK,
            &table,
        );
        secs += t.elapsed().as_secs_f64();
        events += est.iter().map(|&e| e / HEAL_PERIOD as u64).sum::<u64>();
    }
    secs * 1e9 / events as f64
}

/// Pages of `heal_storm`'s LC (a 1.2 GiB Redis at 1 MiB pages).
const HEAL_LC_PAGES: usize = 1229;

/// True accesses per page and call that give ~31 K sampled events, as
/// `heal_storm`'s LC receives each tick.
const HEAL_LC_TRUE_PER_PAGE: f64 = 31_000.0 * HEAL_PERIOD / HEAL_LC_PAGES as f64;

/// Times `sample_uniform_estimates_touched` at `heal_storm`'s LC shape,
/// where every batch is dense. Returns ns/event.
fn bench_uniform_dense_sample() -> f64 {
    let mut sampler = AccessSampler::new(HEAL_PERIOD, 13).unwrap();
    let (mut est, mut touched) = (vec![0u64; HEAL_LC_PAGES], TouchedSet::default());
    let (mut secs, mut events) = (0.0, 0u64);
    while secs < MIN_SECS {
        let t = Instant::now();
        sampler.sample_uniform_estimates_touched(&mut est, &mut touched, HEAL_LC_TRUE_PER_PAGE);
        secs += t.elapsed().as_secs_f64();
        events += est.iter().map(|&e| e / HEAL_PERIOD as u64).sum::<u64>();
    }
    secs * 1e9 / events as f64
}

/// Sampled events per page and call at the paper LC shape.
const PAPER_LC_EVENTS_PER_PAGE: f64 = 0.3;

/// Times `sample_uniform_estimates_touched` at the paper LC shape
/// ([`PAPER_PAGES`] pages at [`PAPER_PERIOD`]), where every batch is
/// sparse: each event sets its rank's bit, and only touched entries are
/// reset and scaled. Returns ns/event.
fn bench_uniform_sparse_sample() -> f64 {
    let mut sampler = AccessSampler::new(PAPER_PERIOD, 17).unwrap();
    let (mut est, mut touched) = (vec![0u64; PAPER_PAGES], TouchedSet::default());
    let (mut secs, mut events) = (0.0, 0u64);
    while secs < MIN_SECS {
        let t = Instant::now();
        sampler.sample_uniform_estimates_touched(
            &mut est,
            &mut touched,
            PAPER_LC_EVENTS_PER_PAGE * PAPER_PERIOD,
        );
        secs += t.elapsed().as_secs_f64();
        events += est.iter().map(|&e| e / PAPER_PERIOD as u64).sum::<u64>();
    }
    secs * 1e9 / events as f64
}

/// A paper-config agent whose replay buffer holds 512 plausible
/// transitions (and which has run its first rounds on them).
fn warmed_sac() -> Sac {
    let mut agent = Sac::new(SacConfig::paper(3, 1), 99);
    for i in 0..512 {
        let x = (i % 97) as f64 / 97.0;
        agent.observe(Transition {
            state: vec![x, x, 1.0 - x],
            action: vec![x * 2.0 - 1.0],
            reward: 1.0 - x,
            next_state: vec![x * 0.9, x * 0.9, 1.0 - x],
            done: false,
        });
    }
    agent
}

/// Mean seconds per call of `f`, repeated for at least [`MIN_SECS`].
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECS {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Returns (gradient round ms, greedy action µs, exploring action µs).
fn bench_sac() -> (f64, f64, f64) {
    let mut agent = warmed_sac();
    let state = [0.4, 0.4, 0.7];
    let round = secs_per_call(|| agent.update());
    let greedy = secs_per_call(|| {
        black_box(agent.act_deterministic(black_box(&state)));
    });
    let explore = secs_per_call(|| {
        black_box(agent.act(black_box(&state)));
    });
    (round * 1e3, greedy * 1e6, explore * 1e6)
}

/// The paper-scale memory with an FMem-first 33 GiB workload (which
/// fills FMem) and an all-SMem 35 GiB one.
fn paper_memory() -> TieredMemory {
    let mut mem = TieredMemory::new(MemorySpec::paper_scale());
    mem.register_workload(33 * GIB, InitialPlacement::FmemFirst)
        .unwrap();
    mem.register_workload(35 * GIB, InitialPlacement::AllSmem)
        .unwrap();
    mem
}

/// Returns (single-page `migrate` round trip ns, 64-page `exchange`
/// round trip µs, engine budget accounting ns per tick, FMem residency
/// count over ~17 K pages µs).
fn bench_page_table() -> (f64, f64, f64, f64) {
    let (lc, be) = (WorkloadId(0), WorkloadId(1));
    let mut mem = paper_memory();
    // The first workload fills FMem, so demote before promoting.
    let page = mem.region(lc).page(0);
    let roundtrip = secs_per_call(|| {
        mem.migrate(page, Tier::SMem).unwrap();
        mem.migrate(page, Tier::FMem).unwrap();
    });
    let demote: Vec<PageId> = (0..64).map(|r| mem.region(lc).page(r)).collect();
    let promote: Vec<PageId> = (0..64).map(|r| mem.region(be).page(r)).collect();
    let exchange = secs_per_call(|| {
        mem.exchange(&promote, &demote).unwrap();
        mem.exchange(&demote, &promote).unwrap();
    });
    assert!(mem.check_invariants().is_ok());
    let mut engine = MigrationEngine::new(4.0 * GIB as f64, 2 * MIB, 10.0).unwrap();
    let budget = secs_per_call(|| {
        engine.begin_tick(1.0);
        black_box(engine.try_consume_pages(512));
        black_box(engine.remaining_tick_pages());
    });
    let scan = secs_per_call(|| {
        black_box(mem.pages_in_tier(lc, Tier::FMem).count());
    });
    (roundtrip * 1e9, exchange * 1e6, budget * 1e9, scan * 1e6)
}

/// Tenants of the compete row.
const COMPETE_TENANTS: u16 = 5;

/// Pages per compete tenant (16 GiB at 2 MiB).
const COMPETE_PAGES: u32 = 8192;

/// MEMTIS's pair appetite per tick.
const COMPETE_PAIRS: u64 = 1024;

/// One `compete_with` call over [`COMPETE_TENANTS`] paper-scale
/// tenants, in µs (mean over calls from the same starting state).
fn bench_compete() -> f64 {
    let mut mem = TieredMemory::new(MemorySpec::paper_scale());
    let ids: Vec<WorkloadId> = (0..COMPETE_TENANTS)
        .map(|_| {
            mem.register_workload(COMPETE_PAGES as u64 * 2 * MIB, InitialPlacement::AllSmem)
                .unwrap()
        })
        .collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // 40 % of every tenant in FMem (16 K pages, FMem's capacity), picked
    // at random so residency and rank are unrelated.
    for &w in &ids {
        let region = mem.region(w);
        let promote: Vec<PageId> = (0..COMPETE_PAGES)
            .filter(|_| next() % 5 < 2)
            .map(|r| region.page(r))
            .collect();
        mem.migrate_batch(&promote, Tier::FMem);
    }
    let mut tracker = HotnessTracker::new(&mem);
    let mut scratch = PlacementScratch::default();
    for tick in 1..=10 {
        let obs: Vec<WorkloadObs> = ids
            .iter()
            .map(|&w| WorkloadObs {
                id: w,
                class: WorkloadClass::Be,
                name: format!("be{}", w.0),
                rss_bytes: COMPETE_PAGES as u64 * 2 * MIB,
                cores: 1,
                load_rps: 0.0,
                p99_secs: 0.0,
                slo_secs: f64::INFINITY,
                hit_ratio: 0.0,
                access_rate: 0.0,
                throughput: 0.0,
                // Zipf-skewed counts at the paper's sampling period, with
                // noise so every tick moves ranks between bins.
                sampled: (0..COMPETE_PAGES as u64)
                    .map(|r| (40_000 / (r + 8) + next() % 4) * PAPER_PERIOD as u64)
                    .collect(),
                touched: Default::default(),
                slo_violated: false,
            })
            .collect();
        tracker.record_tick(&obs);
        if tick % 5 == 0 {
            tracker.age_all();
        }
        // MEMTIS's own placement each tick, so residency follows hotness
        // and the timed call, the tenth tick's, walks a steady state's
        // few winners.
        if tick < 10 {
            compete_once(&mut scratch, &mut mem, &tracker, &ids);
        }
    }
    let (mut secs, mut calls) = (0.0, 0u64);
    while secs < MIN_SECS {
        let mut m = mem.clone();
        let t = Instant::now();
        black_box(compete_once(&mut scratch, &mut m, &tracker, &ids));
        secs += t.elapsed().as_secs_f64();
        calls += 1;
    }
    secs * 1e6 / calls as f64
}

/// One MEMTIS placement step over `ids` with a fresh one-second
/// budget at the paper's migration bandwidth. Returns pages moved.
fn compete_once(
    scratch: &mut PlacementScratch,
    mem: &mut TieredMemory,
    tracker: &HotnessTracker,
    ids: &[WorkloadId],
) -> u64 {
    let mut engine = MigrationEngine::new(4.0 * GIB as f64, 2 * MIB, 10.0).unwrap();
    engine.begin_tick(1.0);
    let pool_cap = mem.spec().fmem_pages();
    placement::compete_with(
        scratch,
        mem,
        &mut engine,
        tracker,
        ids,
        pool_cap,
        COMPETE_PAIRS,
        HOTNESS_HYSTERESIS,
    )
}

/// `profile_all` over the paper's four BEs at 32 GiB FMem and
/// `page_size`, in ms.
fn bench_be_profile(page_size: u64) -> f64 {
    let specs = BeSpec::all_paper_workloads();
    secs_per_call(|| {
        black_box(profile_all(black_box(&specs), 32 * GIB, page_size));
    }) * 1e3
}

/// SAC pretraining steps of the MTAT set-up row, as the benchmark's
/// MTAT workloads use.
const SETUP_PRETRAIN_STEPS: usize = 3_000;

/// `MtatPolicy::new` plus a zero-tick `Experiment::try_run` on the
/// paper's co-location at paper scale, in ms. The first, untimed call
/// pretrains the agent into the process-wide cache, so the timed calls
/// clone it as every later policy built in the process does.
fn bench_mtat_setup() -> f64 {
    let exp = Experiment::new(
        SimConfig::paper(),
        LcSpec::redis(),
        LoadPattern::Constant(0.5),
        BeSpec::all_paper_workloads(),
    )
    .with_duration(0.0)
    .with_obs(Obs::disabled());
    let cfg = MtatConfig {
        pretrain_steps: SETUP_PRETRAIN_STEPS,
        ..MtatConfig::full()
    };
    let setup = || {
        let mut policy = MtatPolicy::new(cfg.clone(), &exp.cfg, &exp.lc, &exp.bes);
        black_box(
            exp.try_run(&mut policy)
                .expect("the paper co-location fits"),
        );
    };
    setup();
    secs_per_call(setup) * 1e3
}

/// Slots of the yardstick's chase buffer: 8 MiB of `u32` links, larger
/// than any L2.
const YARDSTICK_SLOTS: usize = 1 << 21;

/// Steps per timed yardstick pass.
const YARDSTICK_STEPS: u32 = 1 << 19;

/// The yardstick, in ns per step (best of 5 passes). Each step loads
/// the next link of a single-cycle random permutation, then runs 24
/// multiply-xorshift rounds on eight independent lanes seeded from it,
/// whose combined result feeds the next load's address. So every step
/// pays one cache-missing load and then a burst of arithmetic, back to
/// back, in about equal shares on a 2.1 GHz Xeon VM: the two probes
/// whose contrasting response to a busy shared machine
/// `benchmark/README.md` describes. The lanes keep the multiplier busy
/// instead of waiting on one serial chain, so, like the simulator's
/// kernels, the loop slows when a co-tenant competes for execution
/// units (a serial chain kept its speed on that VM while the other
/// `microbench` kernels slowed by ~1.45×). The committed per-workload
/// floors in `.github/bench_gate.json` are in units of this loop:
/// changing it — buffer size, permutation, step count, lanes or rounds
/// — re-bases every floor.
fn bench_yardstick() -> f64 {
    // Sattolo's shuffle: one cycle through every slot, so the chase
    // never settles into a short cache-resident loop.
    let mut next: Vec<u32> = (0..YARDSTICK_SLOTS as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..YARDSTICK_SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut p = 0u32;
        for _ in 0..YARDSTICK_STEPS {
            let link = next[p as usize];
            let mut lanes: [u64; 8] = std::array::from_fn(|i| u64::from(link) ^ i as u64);
            for _ in 0..24 {
                for h in &mut lanes {
                    *h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
                    *h ^= *h >> 29;
                }
            }
            let h = lanes.iter().fold(0, |acc, &h| acc ^ h);
            // `h` is never all-ones in practice, but the compiler cannot
            // know it: the next address waits for the arithmetic.
            p = link ^ u32::from(h == u64::MAX);
        }
        black_box(p);
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(YARDSTICK_STEPS));
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_micro.json".to_string());

    eprintln!("# microbench: migrate_batch...");
    let migrate = bench_migrate_batch();
    eprintln!("#   {migrate:.0} pages/s");
    eprintln!("# microbench: rebin (bin-crossing add_rank)...");
    let rebin = bench_rebin();
    eprintln!("#   {rebin:.0} ops/s");
    let hist_kernel = AccessHistogram::new(PageRegion {
        base: 0,
        n_pages: 1,
    })
    .kernel()
    .name();
    eprintln!("# microbench: hottest-scan (k=1024, bitset predicate)...");
    let (scans, scan_pages) = bench_scan(true);
    eprintln!("#   {scans:.0} scans/s, {scan_pages:.0} pages/s");
    eprintln!("# microbench: coldest-scan (k=1024, bitset predicate)...");
    let (cold_scans, _) = bench_scan(false);
    eprintln!("#   {cold_scans:.0} scans/s");
    eprintln!("# microbench: paper-density sample, record and age (17.2 K pages)...");
    let (sample_ns, add_ns, batch_ranks, age_ns) = bench_paper_tick();
    eprintln!(
        "#   sample {sample_ns:.2} ns/event, record {add_ns:.2} ns/rank \
         ({batch_ranks:.0} ranks/batch), age {age_ns:.2} ns/rank"
    );
    eprintln!("# microbench: dense sample at heal_storm's shape (2048 pages, ~166 K events)...");
    let dense_ns = bench_dense_sample();
    eprintln!("#   {dense_ns:.2} ns/event");
    eprintln!(
        "# microbench: dense uniform sample at heal_storm's LC shape (1229 pages, ~31 K events)..."
    );
    let uniform_dense_ns = bench_uniform_dense_sample();
    let kernel = AccessSampler::new(HEAL_PERIOD, 0)
        .unwrap()
        .draw_kernel()
        .name();
    eprintln!("#   {uniform_dense_ns:.2} ns/event");
    eprintln!(
        "# microbench: sparse uniform sample at the paper LC shape (17.2 K pages, ~5.2 K events)..."
    );
    let uniform_sparse_ns = bench_uniform_sparse_sample();
    eprintln!("#   {uniform_sparse_ns:.2} ns/event; draw kernel {kernel}");
    eprintln!("# microbench: SAC gradient round and actions (paper config)...");
    let (round_ms, greedy_us, explore_us) = bench_sac();
    let nn_kernel = Linear::with_seed(1, 1, 0).kernel().name();
    eprintln!(
        "#   round {round_ms:.3} ms, greedy {greedy_us:.2} us, exploring {explore_us:.2} us; \
         nn kernel {nn_kernel}"
    );
    eprintln!("# microbench: page table and migration engine (paper scale)...");
    let (roundtrip_ns, exchange_us, budget_ns, residency_us) = bench_page_table();
    eprintln!(
        "#   migrate round trip {roundtrip_ns:.1} ns, exchange 64 {exchange_us:.2} us, \
         budget {budget_ns:.1} ns, residency scan {residency_us:.2} us"
    );
    eprintln!("# microbench: compete (five paper-scale tenants, k = 1024)...");
    let compete_us = bench_compete();
    eprintln!("#   {compete_us:.1} us/call");
    eprintln!("# microbench: BE profiling (four paper BEs, 32 GiB FMem)...");
    let profile_2mib = bench_be_profile(2 * MIB);
    let profile_128kib = bench_be_profile(128 * KIB);
    eprintln!("#   2 MiB pages {profile_2mib:.2} ms, 128 KiB pages {profile_128kib:.2} ms");
    eprintln!("# microbench: MTAT set-up (policy and zero-tick run, paper scale)...");
    let mtat_setup_ms = bench_mtat_setup();
    eprintln!("#   {mtat_setup_ms:.2} ms");
    eprintln!("# microbench: yardstick (pointer chase + integer arithmetic)...");
    let yardstick_ns = bench_yardstick();
    eprintln!("#   {yardstick_ns:.2} ns/step");

    let json = format!(
        "{{\n  \"schema\": 11,\n  \
         \"migrate_batch_pages_per_sec\": {migrate:.0},\n  \
         \"rebin_ops_per_sec\": {rebin:.0},\n  \
         \"hottest_scan_per_sec\": {scans:.0},\n  \
         \"hottest_scan_pages_per_sec\": {scan_pages:.0},\n  \
         \"coldest_scan_per_sec\": {cold_scans:.0},\n  \
         \"sample_weighted_ns_per_event\": {sample_ns:.3},\n  \
         \"sample_weighted_dense_ns_per_event\": {dense_ns:.3},\n  \
         \"sample_uniform_dense_ns_per_event\": {uniform_dense_ns:.3},\n  \
         \"sample_uniform_sparse_ns_per_event\": {uniform_sparse_ns:.3},\n  \
         \"sample_draw_kernel\": \"{kernel}\",\n  \
         \"hist_add_ranks_ns_per_rank\": {add_ns:.3},\n  \
         \"hist_age_ns_per_rank\": {age_ns:.3},\n  \
         \"hist_kernel\": \"{hist_kernel}\",\n  \
         \"sac_update_round_ms\": {round_ms:.4},\n  \
         \"sac_act_deterministic_us\": {greedy_us:.3},\n  \
         \"sac_act_us\": {explore_us:.3},\n  \
         \"nn_kernel\": \"{nn_kernel}\",\n  \
         \"migrate_roundtrip_ns\": {roundtrip_ns:.1},\n  \
         \"exchange_64_pages_us\": {exchange_us:.3},\n  \
         \"engine_budget_ns_per_tick\": {budget_ns:.1},\n  \
         \"residency_scan_17k_us\": {residency_us:.3},\n  \
         \"compete_us\": {compete_us:.1},\n  \
         \"be_profile_ms_2mib\": {profile_2mib:.3},\n  \
         \"be_profile_ms_128kib\": {profile_128kib:.3},\n  \
         \"mtat_setup_ms\": {mtat_setup_ms:.3},\n  \
         \"yardstick_ns_per_step\": {yardstick_ns:.3}\n}}\n"
    );
    print!("{json}");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("# wrote {out_path}");
}
