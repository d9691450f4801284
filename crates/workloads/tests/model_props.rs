//! Property-based tests of the workload models.

use proptest::prelude::*;

use mtat_tiermem::GIB;
use mtat_workloads::access::{AccessPattern, Popularity};
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

fn any_lc() -> impl Strategy<Value = LcSpec> {
    (0usize..4).prop_map(|i| LcSpec::all_paper_workloads().swap_remove(i))
}

fn any_be() -> impl Strategy<Value = BeSpec> {
    (0usize..4).prop_map(|i| BeSpec::all_paper_workloads().swap_remove(i))
}

proptest! {
    /// LC max load rises monotonically with FMem share, for every
    /// workload and any pair of shares (the Fig.-1 premise).
    #[test]
    fn lc_max_load_monotone(spec in any_lc(), f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let h_lo = spec.full_fmem_hit_ratio((lo * 32.0 * GIB as f64) as u64);
        let h_hi = spec.full_fmem_hit_ratio((hi * 32.0 * GIB as f64) as u64);
        prop_assert!(spec.max_load(h_lo) <= spec.max_load(h_hi) + 1e-9);
    }

    /// LC P99 is monotone in load at fixed hit ratio.
    #[test]
    fn lc_p99_monotone_in_load(spec in any_lc(), h in 0.0f64..1.0, frac in 0.05f64..0.9) {
        let cap = spec.cores as f64 / spec.service_time(h);
        let p_lo = spec.p99(frac * cap * 0.5, h);
        let p_hi = spec.p99(frac * cap, h);
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    /// BE throughput rises with hit ratio and never exceeds the
    /// CPU-bound ceiling.
    #[test]
    fn be_throughput_bounds(spec in any_be(), h in 0.0f64..1.0) {
        let t = spec.throughput(h);
        prop_assert!(t >= spec.throughput(0.0) - 1e-9);
        prop_assert!(t <= spec.throughput(1.0) + 1e-9);
        let cpu_bound = spec.cores as f64 / spec.cpu_secs_per_op;
        prop_assert!(t < cpu_bound);
    }

    /// The ideal hit ratio is monotone in the allocation and consistent
    /// with the popularity prefix.
    #[test]
    fn be_ideal_hit_monotone(spec in any_be(), g1 in 0u64..40, g2 in 0u64..40) {
        let page = 2 << 20;
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let pop = spec.popularity(spec.n_pages(page));
        let h_lo = spec.ideal_hit_ratio(&pop, lo * GIB, page);
        let h_hi = spec.ideal_hit_ratio(&pop, hi * GIB, page);
        prop_assert!(h_lo <= h_hi + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&h_lo));
    }

    /// Load patterns always return levels within [0, peak].
    #[test]
    fn load_levels_bounded(t in 0.0f64..1e4, base in 0.05f64..0.5, peak in 0.5f64..1.0) {
        for pattern in [
            LoadPattern::fig7(),
            LoadPattern::Constant(base),
            LoadPattern::spike(base, peak, 60.0, 40.0, 60.0),
            LoadPattern::staircase(&[base, peak], 30.0),
        ] {
            let level = pattern.level_at(t);
            prop_assert!(level >= 0.0);
            prop_assert!(level <= pattern.peak_level() + 1e-12);
        }
    }

    /// Uniform popularity equals the Zipf-0 limit for any size.
    #[test]
    fn uniform_is_zipf_zero(n in 1usize..300) {
        let u = Popularity::new(AccessPattern::Uniform, n);
        let z = Popularity::new(AccessPattern::Zipfian { exponent: 0.0 }, n);
        for r in 0..n {
            prop_assert!((u.weight(r) - z.weight(r)).abs() < 1e-12);
        }
    }
}
