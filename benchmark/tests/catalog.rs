//! `BENCHMARK.json` is the catalog rendered with its calibrated bounds,
//! and stays inside the limits its readers enforce.

use mtat_benchmark::catalog::{
    read_bounds, render_benchmark_json, END_TO_END, MAX_BOUND, MIN_BOUND, PER_LAYER, WORKLOAD_LAYER,
};
use mtat_benchmark::reference::reference;
use mtat_benchmark::workload::Workload;
use mtat_obs::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[test]
fn benchmark_json_is_the_rendered_catalog() {
    let bounds = read_bounds(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let bound = |name: &str| bounds.iter().find(|(n, _)| n == name).expect("bound").1;
    assert_eq!(render_benchmark_json(bound), BENCHMARK_JSON);
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_units_and_bounds_are_within_limits() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let metrics = || END_TO_END.iter().chain(&PER_LAYER).chain(&WORKLOAD_LAYER);
    names.extend(metrics().map(|m| m.name));
    for n in &names {
        assert!(valid_name(n), "bad name {n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for m in metrics() {
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {}",
            m.unit
        );
    }
    for w in Workload::ALL {
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    let bounds = read_bounds(BENCHMARK_JSON).unwrap();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    for (name, b) in &bounds {
        assert!((MIN_BOUND..=MAX_BOUND).contains(b), "{name} bound {b}");
        assert!(*b <= setup, "setup_s must have the largest bound");
    }
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let setup_metric = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .unwrap();
    assert_eq!(setup_metric.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(
        setup_metric.get("better").and_then(Value::as_str),
        Some("lower")
    );
}

#[test]
fn every_workload_has_reference_outputs() {
    for w in Workload::ALL {
        let r = reference(w).unwrap_or_else(|| panic!("no reference for {}", w.name()));
        assert!((0.0..=1.0).contains(&r.violation_rate));
        assert!(r.be_mops > 0.0);
        assert_eq!(r.digest.len(), 16);
    }
}
