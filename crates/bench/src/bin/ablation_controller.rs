//! Ablation: SAC reinforcement learning vs a proportional feedback
//! controller for LC partition sizing (DESIGN.md §5.5).
//!
//! Rolls both sizers through the same scripted load trace (a 0.2–1.0
//! trapezoid, three passes, each level held for two decisions) on the
//! Redis latency model and reports their violation frequency and mean
//! FMem usage, the two terms of the Eq.-2 reward.
//!
//! Output: TSV rows `sizer  violation_freq  mean_usage`.

use mtat_bench::header;
use mtat_core::ppm::controller::ProportionalController;
use mtat_core::ppm::lc::{LcObservation, LcPartitioner, LcPartitionerConfig};
use mtat_tiermem::GIB;
use mtat_workloads::lc::LcSpec;

const FMEM: u64 = 32 * GIB;
const STEP: f64 = 20.0 * GIB as f64;

/// Scripted trapezoid of load levels, three passes.
fn load_trace() -> Vec<f64> {
    let mut t = Vec::new();
    for _ in 0..3 {
        for l in [0.2, 0.4, 0.6, 0.8, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2] {
            t.push(l);
            t.push(l);
        }
    }
    t
}

/// Evaluates a sizing function `decide(obs) -> target_bytes` over the
/// trace; returns (violation_freq, mean_usage).
fn evaluate(mut decide: impl FnMut(&LcObservation) -> u64) -> (f64, f64) {
    let spec = LcSpec::redis();
    let ref_max = spec.nominal_max_load() / 1.25;
    let mut alloc: u64 = FMEM / 2;
    let mut violations = 0u32;
    let mut usage_sum = 0.0;
    let trace = load_trace();
    for &level in &trace {
        let usage = (alloc as f64 / spec.rss_bytes as f64).min(1.0);
        // Worst-case clamped burst of the runner's model.
        let p99 = spec.p99(level * ref_max * 1.27, usage);
        let violated = p99 > spec.slo_secs;
        if violated {
            violations += 1;
        }
        usage_sum += usage;
        let obs = LcObservation {
            usage_ratio: usage,
            access_ratio: usage,
            access_count_norm: level * 0.8,
            p99_secs: p99,
            violated,
        };
        alloc = decide(&obs).min(FMEM);
    }
    (
        violations as f64 / trace.len() as f64,
        usage_sum / trace.len() as f64,
    )
}

fn main() {
    let spec = LcSpec::redis();

    let mut rl = LcPartitioner::pretrained(
        &spec,
        LcPartitionerConfig {
            fmem_total: FMEM,
            max_step_bytes: STEP,
            online_learning: false,
        },
        8_000,
        21,
    );
    rl.set_target_bytes(FMEM / 2);
    let mut ctl = ProportionalController::new(FMEM, spec.rss_bytes, STEP, spec.slo_secs);
    ctl.set_target_bytes(FMEM / 2);

    header(&["sizer", "violation_freq", "mean_usage"]);
    let (viol, usage) = evaluate(|obs| rl.decide(obs));
    println!("sac\t{viol:.3}\t{usage:.3}");
    let (viol, usage) = evaluate(|obs| ctl.decide(obs));
    println!("proportional\t{viol:.3}\t{usage:.3}");
}
