//! Ablation — the partitioning-interval length.
//!
//! The paper's prototype updates partitions once per minute; this
//! reproduction defaults to 5 s (`SimConfig::paper()`, DESIGN.md §4b).
//! This ablation sweeps the interval and shows the trade-off the choice
//! sits on:
//!
//! * shorter intervals track the Fig.-7 load steps faster (fewer
//!   transient violations) but decide more often;
//! * longer intervals approach the paper's 60 s cadence, where a 240 s
//!   trapezoid only gets four decisions and tracking visibly lags —
//!   while the Eq. (1) action bound `M·t/2` grows with `t`, so each
//!   decision can move more memory.
//!
//! Output: TSV rows `interval_s  violation_pct  mean_lc_fmem_pct
//! decisions  avg_migration_gbps`.

use mtat_bench::{header, make_policy};
use mtat_core::config::SimConfig;
use mtat_core::runner::Experiment;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

fn main() {
    header(&[
        "interval_s",
        "violation_pct",
        "mean_lc_fmem_pct",
        "decisions",
        "avg_migration_gbps",
    ]);
    for interval in [5.0, 10.0, 20.0, 30.0, 60.0] {
        let mut cfg = SimConfig::paper();
        cfg.interval_secs = interval;
        let exp = Experiment::new(
            cfg.clone(),
            LcSpec::redis(),
            LoadPattern::fig7(),
            BeSpec::all_paper_workloads(),
        );
        let mut policy = make_policy("mtat_full", &cfg, &exp.lc, &exp.bes);
        let r = exp.run(policy.as_mut());
        let decisions = (exp.duration_secs / interval).floor() as u64;
        println!(
            "{:.0}\t{:.2}\t{:.1}\t{}\t{:.2}",
            interval,
            r.violation_rate() * 100.0,
            r.mean_lc_fmem_ratio() * 100.0,
            decisions,
            r.avg_migration_bw() / 1e9
        );
    }
    println!("#");
    println!("# The paper's 60 s cadence on a 240 s trapezoid leaves only 4");
    println!("# decisions; the 10 s default keeps transient violations low");
    println!("# without raising the per-second migration bandwidth (the");
    println!("# Eq. (1) bound scales with the interval).");
}
