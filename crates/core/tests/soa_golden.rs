//! Golden-digest regression suite for the SoA data-plane refactor.
//!
//! The digests below were captured from seeded runs **before** the
//! `tiermem` data plane was rebuilt on struct-of-arrays arenas (flat
//! tier/owner arrays, residency bitsets, flat-arena histograms,
//! range-batched migration). They pin down the determinism contract:
//! the refactor must reproduce every run bit-for-bit — placements,
//! latencies, fault outcomes, tie-break order — with observability and
//! tracing on or off.
//!
//! Regenerate (only when a *deliberate* behaviour change is made):
//!
//! ```text
//! MTAT_GOLDEN_PRINT=1 cargo test -p mtat-core --test soa_golden -- --nocapture
//! ```

use mtat_core::config::SimConfig;
use mtat_core::policy::memtis::MemtisPolicy;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::runner::Experiment;
use mtat_core::stats::RunResult;
use mtat_core::Policy;
use mtat_obs::Obs;
use mtat_snapshot::fnv1a64;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::histogram::AccessHistogram;
use mtat_tiermem::page::{PageId, PageRegion};
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

/// FNV-1a-64 digest over the bit patterns of every tick record — any
/// single-ULP divergence anywhere in the run changes the digest.
fn run_digest(r: &RunResult) -> u64 {
    let mut bytes = Vec::with_capacity(r.ticks.len() * 64);
    for t in &r.ticks {
        bytes.extend_from_slice(&t.t.to_bits().to_le_bytes());
        bytes.extend_from_slice(&t.lc_load_rps.to_bits().to_le_bytes());
        bytes.extend_from_slice(&t.lc_p99.to_bits().to_le_bytes());
        bytes.push(u8::from(t.lc_violated));
        bytes.extend_from_slice(&t.lc_fmem_ratio.to_bits().to_le_bytes());
        for &b in &t.fmem_bytes {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        for &thr in &t.be_throughput {
            bytes.extend_from_slice(&thr.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&t.migration_bw.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&r.lc_violated_requests.to_bits().to_le_bytes());
    fnv1a64(&bytes)
}

/// Paper-scale co-location (Redis + the four paper BE workloads) under
/// staircase load — the configuration the perf work targets.
fn paper_exp(seed: u64, secs: f64) -> Experiment {
    Experiment::new(
        SimConfig::paper().with_seed(seed),
        LcSpec::redis(),
        LoadPattern::staircase(&[0.5, 1.0, 0.3, 0.9], secs / 4.0),
        BeSpec::all_paper_workloads(),
    )
    .with_duration(secs)
}

fn small_lc() -> LcSpec {
    let mut s = LcSpec::redis();
    s.rss_bytes = (1.2 * GIB as f64) as u64;
    s
}

fn small_be() -> BeSpec {
    let mut s = BeSpec::sssp();
    s.rss_bytes = 2 * GIB;
    s
}

/// Small-scale co-location for the (pretraining) MTAT policy arms.
fn small_exp(seed: u64, secs: f64) -> Experiment {
    Experiment::new(
        SimConfig::small_test().with_seed(seed),
        small_lc(),
        LoadPattern::staircase(&[0.4, 0.9, 0.6], secs / 3.0),
        vec![small_be()],
    )
    .with_duration(secs)
}

/// Fault windows that exercise the batched migrate/exchange paths under
/// failure draws, sampler blackouts, and telemetry noise.
fn fault_plan(seed: u64, secs: f64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::MigrationFlaky { prob: 0.25 },
            0.2 * secs,
            0.3 * secs,
        )
        .with(FaultKind::SamplerBlackout, 0.55 * secs, 0.1 * secs)
        .with(
            FaultKind::TelemetryNoise { amplitude: 0.2 },
            0.7 * secs,
            0.2 * secs,
        )
        .with(
            FaultKind::MigrationThrottle { factor: 0.3 },
            0.8 * secs,
            0.15 * secs,
        )
}

fn mtat_policy(exp: &Experiment) -> MtatPolicy {
    let mut cfg = MtatConfig::full().supervised();
    cfg.pretrain_steps = 400; // real weights, cached per key
    cfg.online_learning = true;
    MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes)
}

/// Runs one scenario under the given obs handle and digests the result.
fn scenario(name: &str, obs: Obs) -> u64 {
    let (exp, mut policy): (Experiment, Box<dyn Policy>) = match name {
        "memtis_nominal" => (paper_exp(0xC0FFEE, 40.0), Box::new(MemtisPolicy::new())),
        "memtis_faults" => (
            paper_exp(7, 40.0).with_fault_plan(fault_plan(0xFA17, 40.0)),
            Box::new(MemtisPolicy::new()),
        ),
        "mtat_nominal" => {
            let exp = small_exp(11, 60.0);
            let p = mtat_policy(&exp);
            (exp, Box::new(p))
        }
        "mtat_faults" => {
            let exp = small_exp(13, 60.0).with_fault_plan(fault_plan(0xBADF, 60.0));
            let p = mtat_policy(&exp);
            (exp, Box::new(p))
        }
        other => panic!("unknown scenario {other}"),
    };
    run_digest(&exp.with_obs(obs).run(policy.as_mut()))
}

/// (scenario, digest) pairs captured at the pre-refactor HEAD.
const GOLDENS: [(&str, u64); 4] = [
    ("memtis_nominal", 0x624529c79fcde9d5),
    ("memtis_faults", 0x870642431a0b3207),
    ("mtat_nominal", 0x1c895a1b82512acc),
    ("mtat_faults", 0x5acfdb141f833c6c),
];

#[test]
fn seeded_runs_match_pre_refactor_goldens() {
    let print = std::env::var("MTAT_GOLDEN_PRINT").is_ok();
    for (name, golden) in GOLDENS {
        let d_off = scenario(name, Obs::disabled());
        let d_on = scenario(name, Obs::enabled());
        let d_traced = scenario(name, Obs::traced());
        assert_eq!(d_off, d_on, "{name}: obs perturbed the physics");
        assert_eq!(d_off, d_traced, "{name}: tracing perturbed the physics");
        if print {
            println!("    (\"{name}\", {d_off:#018x}),");
        } else {
            assert_eq!(
                d_off, golden,
                "{name}: run diverged from the pre-refactor golden digest"
            );
        }
    }
}

/// Digest of the hottest/coldest candidate *order* (ids in scan order)
/// after a scripted add/age workout. Tie-break order inside a bin is
/// history-dependent (swap-remove + push) and policy-observable, so the
/// flat-arena histogram must reproduce it exactly.
fn hist_order_digest() -> u64 {
    let region = PageRegion {
        base: 1000,
        n_pages: 4096,
    };
    let mut hist = AccessHistogram::new(region);
    // Deterministic LCG (no RNG dependency in this test).
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut bytes = Vec::new();
    for step in 0..20_000u32 {
        let rank = (next() % region.n_pages as u64) as u32;
        let delta = next() % 17; // frequently 0..16, many ties
        if delta > 0 {
            hist.add(PageId(region.base + rank), delta);
        }
        if step % 1024 == 1023 {
            hist.age();
        }
        if step % 2048 == 2047 {
            for n in [1usize, 7, 64, 512] {
                for p in hist.hottest_matching(n, |p: PageId| p.0.is_multiple_of(2)) {
                    bytes.extend_from_slice(&p.0.to_le_bytes());
                }
                for p in hist.coldest_matching(n, |p: PageId| !p.0.is_multiple_of(3)) {
                    bytes.extend_from_slice(&p.0.to_le_bytes());
                }
            }
            bytes.extend_from_slice(&hist.total().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Captured at the pre-refactor HEAD (Vec<Vec<u32>> bin layout).
const HIST_ORDER_GOLDEN: u64 = 0xdf2cea2b8856e291;

#[test]
fn hottest_coldest_order_matches_pre_refactor_golden() {
    let d = hist_order_digest();
    if std::env::var("MTAT_GOLDEN_PRINT").is_ok() {
        println!("const HIST_ORDER_GOLDEN: u64 = {d:#018x};");
    } else {
        assert_eq!(
            d, HIST_ORDER_GOLDEN,
            "hottest/coldest tie-break order diverged from the legacy bin layout"
        );
    }
}
