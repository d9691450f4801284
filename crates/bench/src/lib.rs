//! Experiment harness for regenerating every table and figure of the
//! MTAT paper (Middleware '25).
//!
//! Each binary in `src/bin/` reproduces one table or figure and prints
//! the same rows/series the paper reports, as tab-separated values
//! suitable for plotting:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_latency_curves` | Fig. 1 — P99 vs load at FMem {0,25,50,75,100} % |
//! | `fig2_memtis_colocation` | Fig. 2 — Redis + SSSP under MEMTIS over time |
//! | `fig5_dynamic_load` | Fig. 5 — dynamic-load P99 + FMem ratio per policy |
//! | `fig6_be_summary` | Fig. 6 — BE fairness and throughput summary |
//! | `fig8_max_load` | Fig. 8 — max LC load normalized to FMEM_ALL |
//! | `fig9_load_levels` | Fig. 9 + Table 4 — BE metrics & SLO violations at 20/50/80 % load |
//! | `table1_lc_calibration` | Table 1 — LC benchmark characteristics |
//! | `table3_settings_sweep` | Table 3 — core/BE-count settings sweep |
//! | `sec55_overhead` | §5.5 — PP-M/PP-E overhead accounting |
//! | `chaos_matrix` | robustness: policy × fault-scenario matrix (not in the paper) |
//!
//! The `ablation_*` and `ext_*` binaries run the DESIGN.md ablations
//! and extensions, and `microbench` times the data-plane primitives
//! (`BENCH_micro.json`).

pub mod harness;
pub mod trace;

use mtat_core::config::SimConfig;
use mtat_core::policy::memtis::MemtisPolicy;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::policy::statics::StaticPolicy;
use mtat_core::policy::tpp::TppPolicy;
use mtat_core::Policy;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;

/// The policy names evaluated in the paper's main comparisons.
pub const MAIN_POLICIES: [&str; 6] = [
    "mtat_full",
    "mtat_lc_only",
    "memtis",
    "tpp",
    "fmem_all",
    "smem_all",
];

/// Builds a policy by name for the given co-location. MTAT variants
/// pretrain (or fetch the cached agent for) the LC workload.
///
/// # Panics
///
/// Panics on an unknown policy name.
pub fn make_policy(name: &str, cfg: &SimConfig, lc: &LcSpec, bes: &[BeSpec]) -> Box<dyn Policy> {
    match name {
        "mtat_full" => Box::new(MtatPolicy::new(MtatConfig::full(), cfg, lc, bes)),
        "mtat_lc_only" => Box::new(MtatPolicy::new(MtatConfig::lc_only(), cfg, lc, bes)),
        "mtat_full_supervised" => Box::new(MtatPolicy::new(
            MtatConfig::full().supervised(),
            cfg,
            lc,
            bes,
        )),
        "mtat_lc_only_supervised" => Box::new(MtatPolicy::new(
            MtatConfig::lc_only().supervised(),
            cfg,
            lc,
            bes,
        )),
        "mtat_full_heuristic" => Box::new(MtatPolicy::new(
            MtatConfig::full().with_heuristic_sizer(),
            cfg,
            lc,
            bes,
        )),
        "mtat_full_hardened" => {
            Box::new(MtatPolicy::new(MtatConfig::full().hardened(), cfg, lc, bes))
        }
        "memtis" => Box::new(MemtisPolicy::new()),
        "hotset" => Box::new(mtat_core::HotsetPolicy::new()),
        "tpp" => Box::new(TppPolicy::new()),
        "fmem_all" => Box::new(StaticPolicy::fmem_all()),
        "smem_all" => Box::new(StaticPolicy::smem_all()),
        other => panic!("unknown policy {other}"),
    }
}

/// Geometric mean of a slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a TSV header row.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn make_policy_covers_main_names() {
        let cfg = SimConfig::small_test();
        let mut lc = LcSpec::redis();
        lc.rss_bytes = 1 << 30;
        let bes: Vec<BeSpec> = vec![];
        // Only the non-pretraining policies here (MTAT covered elsewhere).
        for name in ["memtis", "tpp", "fmem_all", "smem_all"] {
            let p = make_policy(name, &cfg, &lc, &bes);
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        let cfg = SimConfig::small_test();
        let lc = LcSpec::redis();
        let _ = make_policy("nope", &cfg, &lc, &[]);
    }
}
