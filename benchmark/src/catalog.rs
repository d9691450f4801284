//! The metric catalog and the `BENCHMARK.json` document built from it.
//!
//! The catalog is the single list of what the benchmark reports; the
//! root `BENCHMARK.json` is rendered from it by `calibrate`, which also
//! fills in each end-to-end bound from measured run-to-run spreads.

use mtat_obs::export::json_string;
use mtat_obs::json::{self, Value};

use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, all host time or memory. On
/// `fleet_tiny` a "tick" is a shard's host time divided by its ticks.
pub const END_TO_END: [Metric; 4] = [
    m("ticks_per_s", "1/s", Higher),
    m("tick_p50_us", "us", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
];

/// Host time and work counts of the layers every workload runs, from the
/// traced repetition; a traced run's result line carries exactly these.
/// Every time here is measured on every workload. A count may read 0
/// where the workload never does that work (no plans under MEMTIS, no
/// checkpoints outside `heal_storm`).
///
/// `tick_p99_us`, the tail of the timed repetitions' ticks, is listed
/// here rather than end to end because it has no bound that holds on a
/// shared machine: its heaviest ticks (PP-M plans, large migrations)
/// slowed by up to a third in busy periods, twice as much as the median
/// tick, so ten runs in a busy period spread it by up to 24 %.
pub const PER_LAYER: [Metric; 21] = [
    m("tick_p99_us", "us", Lower),
    m("sample.self_us_per_tick", "us", Lower),
    m("sample.events_per_tick", "count", Lower),
    m("sample.ns_per_event", "ns", Lower),
    m("track.self_us_per_tick", "us", Lower),
    m("ppe.enforce_self_us_per_tick", "us", Lower),
    m("ppm.plans", "count", Lower),
    m("migrate.self_ns_per_call", "ns", Lower),
    m("migrate.calls_per_tick", "count", Lower),
    m("migration.granted_ratio", "ratio", Higher),
    m("migration.failed_pages", "count", Lower),
    m("migration.retried_pages", "count", Lower),
    m("runner.tick_self_us_per_tick", "us", Lower),
    m("ckpt.saves", "count", Lower),
    m("ckpt.restores", "count", Lower),
    m("health.rollbacks", "count", Lower),
    m("health.repairs", "count", Lower),
    m("scenario.phases", "count", Lower),
    m("obs.trace_overhead_pct", "%", Lower),
    m("obs.dropped_spans", "count", Lower),
    m("trace.stage_sum_pct", "%", Higher),
];

/// Timings of layers only some workloads run: PP-M and SAC, the policy
/// wrapper (not visible inside a fleet), checkpoints and health, the
/// fleet. A traced run's detail line carries those its workload ran; a
/// layer it did not run is absent rather than 0.
pub const WORKLOAD_LAYER: [Metric; 24] = [
    m("ppe.adjust_us_per_tick", "us", Lower),
    m("ppe.refine_us_per_tick", "us", Lower),
    m("ppm.plan_self_us_per_plan", "us", Lower),
    m("ppm.sac_forward_us_per_plan", "us", Lower),
    m("ppm.anneal_us_per_plan", "us", Lower),
    m("rl.pretrain_s", "s", Lower),
    m("runner.setup_ms", "ms", Lower),
    m("runner.outside_policy_us_per_tick", "us", Lower),
    m("policy.on_tick_us_per_tick", "us", Lower),
    m("policy.on_tick_p99_us", "us", Lower),
    m("policy.init_ms", "ms", Lower),
    m("ckpt.save_p50_us", "us", Lower),
    m("ckpt.save_tail_us", "us", Lower),
    m("ckpt.save_tail_pct", "%", Higher),
    m("ckpt.payload_kib", "KiB", Lower),
    m("ckpt.restore_p50_us", "us", Lower),
    m("ckpt.restore_tail_us", "us", Lower),
    m("ckpt.restore_tail_pct", "%", Higher),
    m("health.probe_ns_per_tick", "ns", Lower),
    m("fleet.plan_ms", "ms", Lower),
    m("fleet.worker_busy_pct", "%", Higher),
    m("fleet.anomaly_ms", "ms", Lower),
    m("fleet.shard_p50_ms", "ms", Lower),
    m("fleet.shard_p99_ms", "ms", Lower),
];

/// Looks a metric up in any of the lists.
#[must_use]
pub fn metric(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&WORKLOAD_LAYER)
        .copied()
        .find(|m| m.name == name)
}

/// Seconds one run measures (`--seconds` default and `run_seconds`).
pub const RUN_SECONDS: u64 = 22;

/// Largest bound a `BENCHMARK.json` metric may have.
pub const MAX_BOUND: f64 = 0.25;

/// Smallest bound `calibrate` writes.
pub const MIN_BOUND: f64 = 0.05;

/// The end-to-end bound for an observed relative spread: three times the
/// spread, rounded up to a whole percent, within
/// [[`MIN_BOUND`], [`MAX_BOUND`]]. `setup_s` always gets the largest
/// bound, since set-up is measured from few rounds.
#[must_use]
pub fn bound_for(name: &str, spread: f64) -> f64 {
    if name == "setup_s" {
        return MAX_BOUND;
    }
    let pct = (spread * 300.0 - 1e-9).ceil().max(0.0);
    (pct / 100.0).clamp(MIN_BOUND, MAX_BOUND)
}

/// Renders `BENCHMARK.json`; `bound(name)` gives each end-to-end bound.
#[must_use]
pub fn render_benchmark_json(bound: impl Fn(&str) -> f64) -> String {
    let strs = |v: &[&str]| {
        v.iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", strs(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", strs(&["benchmark"])));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name()),
                    json_string(w.why())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.better.label(),
                    bound(m.name)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.better.label()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// How the benchmark is launched from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Reads the end-to-end bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message when the text is not JSON or lacks a metric's bound.
pub fn read_bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("unnamed metric")?;
            let bound = e
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}
