//! Ablation: LC-first time-sliced enforcement (Algorithm 3) vs bulk
//! reconfiguration.
//!
//! PP-E subdivides each partition change into `p_max`-bounded slices so
//! the LC workload's movement completes first and migration overhead is
//! spread across BE workloads; within a tick it drains as many slices
//! as the bandwidth budget allows, so slicing costs no completion time.
//! This ablation drives the *scheduler* with one slice per simulated
//! tick (the worst case for slicing) to expose the discipline's bounds:
//! the LC grows by 8 000 pages (16 GiB at 2 MiB) while four BEs shed
//! proportionally, with 1 024 page pairs of budget per tick (4 GB/s).
//!
//! Output: TSV rows `schedule  p_max  total_ticks  lc_complete_at_tick`.

use mtat_bench::header;
use mtat_core::ppe::adjust::AdjustmentSchedule;

/// Drains a schedule with a fixed per-tick budget, returning
/// `(ticks_total, ticks_until_lc_complete)`.
fn drain(deltas: Vec<i64>, p_max: u64, budget_per_tick: u64) -> (u32, u32) {
    let mut schedule = AdjustmentSchedule::new(deltas, 0, p_max);
    let mut ticks = 0;
    let mut lc_done_at = 0;
    while !schedule.is_complete() {
        let _slice = schedule.next_slice(budget_per_tick);
        ticks += 1;
        if schedule.delta(0) == 0 && lc_done_at == 0 {
            lc_done_at = ticks;
        }
        if ticks > 100_000 {
            break;
        }
    }
    (ticks, lc_done_at)
}

fn main() {
    let deltas = vec![8_000i64, -3_000, -2_500, -1_500, -1_000];
    let budget = 1_024;
    header(&["schedule", "p_max", "total_ticks", "lc_complete_at_tick"]);
    for (label, p_max) in [("sliced", 512u64), ("bulk", u64::MAX)] {
        let (ticks, lc_done) = drain(deltas.clone(), p_max, budget);
        let p_max = if p_max == u64::MAX {
            "unbounded".to_string()
        } else {
            p_max.to_string()
        };
        println!("{label}\t{p_max}\t{ticks}\t{lc_done}");
    }
}
