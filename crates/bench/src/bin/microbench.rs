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
//!   maintenance (ops/sec);
//! * **hottest-scan** — `hottest_matching_into` over a populated
//!   histogram with the residency-bitset predicate, the gather step of
//!   every enforcement tick (scans/sec and pages/sec);
//! * **SAC** — one gradient round of a warmed paper-config agent (ms;
//!   MTAT runs one every second partitioning decision and every second
//!   pretraining step), and one greedy and one exploring action (µs;
//!   one per decision, one per pretraining step).
//!
//! Writes `BENCH_micro.json` (override with `--out PATH`); CI uploads
//! the file as an artifact next to the span traces. Absolute numbers
//! are machine-dependent — the file is a provenance record, not a gate
//! (the gate is `perf_baseline --check`).

use std::time::Instant;

use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_tiermem::histogram::{AccessHistogram, NUM_BINS};
use mtat_tiermem::memory::{InitialPlacement, MemorySpec, TieredMemory};
use mtat_tiermem::page::{PageId, PageRegion, Tier};
use mtat_tiermem::MIB;

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

/// `hottest_matching_into` with the residency-bitset predicate over a
/// zipf-populated histogram. Returns (scans/sec, candidate pages/sec).
fn bench_hottest_scan() -> (f64, f64) {
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
        h.hottest_matching_into(&mut out, k, |p| !mem.is_fmem(p));
        scans += 1;
        pages += out.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (scans as f64 / secs, pages as f64 / secs)
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
        std::hint::black_box(agent.act_deterministic(std::hint::black_box(&state)));
    });
    let explore = secs_per_call(|| {
        std::hint::black_box(agent.act(std::hint::black_box(&state)));
    });
    (round * 1e3, greedy * 1e6, explore * 1e6)
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
    eprintln!("# microbench: hottest-scan (k=1024, bitset predicate)...");
    let (scans, scan_pages) = bench_hottest_scan();
    eprintln!("#   {scans:.0} scans/s, {scan_pages:.0} pages/s");
    eprintln!("# microbench: SAC gradient round and actions (paper config)...");
    let (round_ms, greedy_us, explore_us) = bench_sac();
    eprintln!("#   round {round_ms:.3} ms, greedy {greedy_us:.2} us, exploring {explore_us:.2} us");

    let json = format!(
        "{{\n  \"schema\": 2,\n  \
         \"migrate_batch_pages_per_sec\": {migrate:.0},\n  \
         \"rebin_ops_per_sec\": {rebin:.0},\n  \
         \"hottest_scan_per_sec\": {scans:.0},\n  \
         \"hottest_scan_pages_per_sec\": {scan_pages:.0},\n  \
         \"sac_update_round_ms\": {round_ms:.4},\n  \
         \"sac_act_deterministic_us\": {greedy_us:.3},\n  \
         \"sac_act_us\": {explore_us:.3}\n}}\n"
    );
    print!("{json}");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("# wrote {out_path}");
}
