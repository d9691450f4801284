//! Named-metric registry: counters, gauges, and histograms.
//!
//! A [`Registry`] is a plain single-threaded container (the thread-safe
//! wrapper is [`crate::Obs`]). Names are dotted paths
//! (`"tiermem.migration.granted_pages"`); `BTreeMap` storage keeps
//! exports deterministically ordered, which matters because snapshot
//! files are committed as CI artifacts and diffed across runs.

use std::collections::BTreeMap;

use crate::export::{
    json_f64, json_string, prometheus_f64, prometheus_help_text, prometheus_labels, prometheus_name,
};
use crate::hist::Histogram;

/// How a gauge combines under [`Registry::merge`].
///
/// Counters always add and histograms always union, but a gauge's
/// aggregation depends on what it *means*: a utilization gauge merged
/// last-write-wins across a fleet silently reports whichever shard
/// merged last. The annotation rides with the gauge so the fleet
/// aggregator doesn't need a name-based table of special cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugeMerge {
    /// Last write wins in merge order (the only pre-annotation
    /// behaviour; still right for point-in-time configuration echoes
    /// that are identical across shards, e.g. `fleet.workers`).
    #[default]
    Last,
    /// Values add (per-shard absolute quantities: planned bytes,
    /// offered load).
    Sum,
    /// The maximum survives (saturation-style signals: bandwidth
    /// utilization, thrash score — "the worst shard" is the question).
    Max,
}

impl GaugeMerge {
    /// Lowercase label for exports and debugging.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GaugeMerge::Last => "last",
            GaugeMerge::Sum => "sum",
            GaugeMerge::Max => "max",
        }
    }
}

/// A gauge value plus its merge annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gauge {
    value: f64,
    merge: GaugeMerge,
}

/// Counters (monotone `u64`), gauges (`f64` last-write-wins), and
/// log-linear histograms, all addressed by dotted name.
///
/// ```
/// use mtat_obs::registry::Registry;
///
/// let mut reg = Registry::new();
/// reg.counter_add("runner.ticks", 3);
/// reg.gauge_set("runner.fmem_bw_util", 0.42);
/// reg.observe("runner.lc_p99_ns", 73_000);
/// assert_eq!(reg.counter("runner.ticks"), 3);
/// assert_eq!(reg.gauge("runner.fmem_bw_util"), Some(0.42));
/// assert!(reg.to_json().contains("\"runner.ticks\": 3"));
/// assert!(reg.to_prometheus(&[]).contains("mtat_runner_ticks_total 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current counter value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (last write wins locally). The
    /// merge annotation is preserved if the gauge already carries one.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            g.value = value;
        } else {
            self.gauges.insert(
                name.to_string(),
                Gauge {
                    value,
                    merge: GaugeMerge::Last,
                },
            );
        }
    }

    /// Sets gauge `name` to `value` and annotates how it aggregates
    /// under [`Registry::merge`]. Within one registry the set itself is
    /// still last-write-wins — the mode only governs cross-registry
    /// folds.
    pub fn gauge_set_merged(&mut self, name: &str, value: f64, merge: GaugeMerge) {
        if let Some(g) = self.gauges.get_mut(name) {
            g.value = value;
            g.merge = merge;
        } else {
            self.gauges.insert(name.to_string(), Gauge { value, merge });
        }
    }

    /// Current gauge value, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|g| g.value)
    }

    /// Merge annotation of gauge `name`, if it exists.
    #[must_use]
    pub fn gauge_merge(&self, name: &str) -> Option<GaugeMerge> {
        self.gauges.get(name).map(|g| g.merge)
    }

    /// Records `value` into histogram `name`, creating it at the
    /// workspace-default resolution first.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` identical observations into histogram `name`.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record_n(value, n);
        } else {
            let mut h = Histogram::new();
            h.record_n(value, n);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Read access to histogram `name`, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// True when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds `other` into `self` — the fleet-aggregation primitive
    /// (one registry per shard, merged in shard order after the run):
    ///
    /// * counters **add** (totals across shards stay totals);
    /// * gauges combine per their [`GaugeMerge`] annotation — `Sum`
    ///   adds, `Max` keeps the maximum, and un-annotated (`Last`)
    ///   gauges stay last-write-wins in merge order, so merging shard
    ///   registries 0..N deterministically leaves shard N−1's value.
    ///   When the two sides disagree on the annotation, the non-`Last`
    ///   one wins (an annotated writer outranks a default one);
    /// * histograms **merge bucket-wise** ([`Histogram::merge`]), so
    ///   fleet-level quantiles come from the union of observations.
    ///
    /// Merging is associative, and commutative except for the
    /// `Last`-gauge order; callers wanting order-independent output
    /// should merge in a canonical (e.g. shard-id) order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.counter_add(k, *v);
        }
        for (k, g) in &other.gauges {
            match self.gauges.get_mut(k) {
                None => {
                    self.gauges.insert(k.clone(), *g);
                }
                Some(mine) => {
                    if mine.merge == GaugeMerge::Last {
                        mine.merge = g.merge;
                    }
                    match mine.merge {
                        GaugeMerge::Last => mine.value = g.value,
                        GaugeMerge::Sum => mine.value += g.value,
                        GaugeMerge::Max => mine.value = mine.value.max(g.value),
                    }
                }
            }
        }
        for (k, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(k) {
                mine.merge(h);
            } else {
                self.hists.insert(k.clone(), h.clone());
            }
        }
    }

    /// Snapshot as a pretty-printed JSON object with `counters`,
    /// `gauges`, and `histograms` sections; histograms export count,
    /// min/max/mean, and the standard quantile ladder.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json_string(k)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(k), json_f64(g.value)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}}}",
                json_string(k),
                h.count(),
                h.min(),
                h.max(),
                json_f64(h.mean()),
                h.p50(),
                h.p95(),
                h.p99(),
                h.p999(),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Snapshot in the Prometheus text exposition format. `labels` are
    /// attached to every sample (e.g. `[("cell", "ppm_crash/mtat_full")]`
    /// to distinguish matrix cells sharing one scrape file). Histograms
    /// export as summaries (quantile ladder + `_sum`/`_count`). Every
    /// family gets a generic `# HELP` line (the registry stores no
    /// per-metric descriptions) followed by its `# TYPE`, in the order
    /// scrapers require; conformance is covered by the
    /// [`crate::promlint`] round-trip tests.
    #[must_use]
    pub fn to_prometheus(&self, labels: &[(&str, &str)]) -> String {
        let sel = prometheus_labels(labels);
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prometheus_name(k);
            let help = prometheus_help_text(k);
            out.push_str(&format!("# HELP {name}_total mtat counter {help}\n"));
            out.push_str(&format!("# TYPE {name}_total counter\n"));
            out.push_str(&format!("{name}_total{sel} {v}\n"));
        }
        for (k, g) in &self.gauges {
            let name = prometheus_name(k);
            let help = prometheus_help_text(k);
            out.push_str(&format!("# HELP {name} mtat gauge {help}\n"));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name}{sel} {}\n", prometheus_f64(g.value)));
        }
        for (k, h) in &self.hists {
            let name = prometheus_name(k);
            let help = prometheus_help_text(k);
            out.push_str(&format!("# HELP {name} mtat histogram {help}\n"));
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [
                ("0.5", h.p50()),
                ("0.95", h.p95()),
                ("0.99", h.p99()),
                ("0.999", h.p999()),
            ] {
                let mut quantile_labels: Vec<(&str, &str)> = labels.to_vec();
                quantile_labels.push(("quantile", q));
                out.push_str(&format!(
                    "{name}{} {v}\n",
                    prometheus_labels(&quantile_labels)
                ));
            }
            out.push_str(&format!(
                "{name}_sum{sel} {}\n",
                prometheus_f64(h.mean() * h.count() as f64)
            ));
            out.push_str(&format!("{name}_count{sel} {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        assert_eq!(r.counter("a.b"), 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.gauge_set("g", 1.0);
        r.gauge_set("g", -2.5);
        assert_eq!(r.gauge("g"), Some(-2.5));
    }

    #[test]
    fn histograms_autocreate() {
        let mut r = Registry::new();
        r.observe("h", 10);
        r.observe_n("h", 20, 4);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 20);
    }

    #[test]
    fn merge_combines_all_metric_kinds() {
        let mut a = Registry::new();
        a.counter_add("c.shared", 2);
        a.counter_add("c.only_a", 1);
        a.gauge_set("g", 1.0);
        a.observe_n("h.shared", 10, 3);
        let mut b = Registry::new();
        b.counter_add("c.shared", 5);
        b.counter_add("c.only_b", 7);
        b.gauge_set("g", 2.5);
        b.observe_n("h.shared", 40, 2);
        b.observe("h.only_b", 9);

        a.merge(&b);
        assert_eq!(a.counter("c.shared"), 7);
        assert_eq!(a.counter("c.only_a"), 1);
        assert_eq!(a.counter("c.only_b"), 7);
        // Gauges: last write (the merged-in registry) wins.
        assert_eq!(a.gauge("g"), Some(2.5));
        let h = a.histogram("h.shared").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
        assert_eq!(a.histogram("h.only_b").unwrap().count(), 1);
        // `b` is untouched.
        assert_eq!(b.counter("c.shared"), 5);
    }

    #[test]
    fn merge_is_associative_on_counters_and_hists() {
        let mk = |seed: u64| {
            let mut r = Registry::new();
            r.counter_add("n", seed);
            r.observe("h", seed * 10 + 1);
            r
        };
        let (x, y, z) = (mk(1), mk(2), mk(3));
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        assert_eq!(left.counter("n"), right.counter("n"));
        assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn json_snapshot_is_well_formed_and_ordered() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.gauge_set("mid", f64::NAN);
        r.observe("lat", 100);
        let j = r.to_json();
        // BTreeMap ordering: a.first before z.last.
        let a = j.find("a.first").unwrap();
        let z = j.find("z.last").unwrap();
        assert!(a < z);
        // NaN gauge exports as null, not as bare NaN (invalid JSON).
        assert!(j.contains("\"mid\": null"));
        assert!(j.contains("\"p99\": 100"));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces in {j}"
        );
    }

    #[test]
    fn prometheus_snapshot_has_types_and_labels() {
        let mut r = Registry::new();
        r.counter_add("runner.ticks", 7);
        r.gauge_set("util", 0.5);
        r.observe("lat.ns", 1000);
        let p = r.to_prometheus(&[("cell", "x/y")]);
        assert!(p.contains("# TYPE mtat_runner_ticks_total counter"));
        assert!(p.contains("mtat_runner_ticks_total{cell=\"x/y\"} 7"));
        assert!(p.contains("# TYPE mtat_util gauge"));
        assert!(p.contains("mtat_util{cell=\"x/y\"} 0.5"));
        assert!(p.contains("# TYPE mtat_lat_ns summary"));
        assert!(p.contains("mtat_lat_ns{cell=\"x/y\",quantile=\"0.99\"}"));
        assert!(p.contains("mtat_lat_ns_count{cell=\"x/y\"} 1"));
    }

    #[test]
    fn prometheus_without_labels_has_bare_names() {
        let mut r = Registry::new();
        r.counter_add("c", 1);
        let p = r.to_prometheus(&[]);
        assert!(p.contains("mtat_c_total 1\n"));
    }

    /// A registry exercising every metric kind plus hostile label
    /// values and names needing sanitization, including the alerting
    /// and fleet-anomaly families served by the live telemetry plane.
    fn conformance_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add("runner.ticks", 7);
        r.counter_add("tiermem.migration.granted_pages", 123);
        r.counter_add("alert.transitions", 3);
        r.counter_add("alert.firing", 1);
        r.counter_add("fleet.anomaly.flagged", 8);
        r.gauge_set("mtat.sac_alpha", 0.25);
        r.gauge_set("weird-name with spaces", -1.5);
        r.gauge_set("nan.gauge", f64::NAN);
        r.gauge_set_merged("fleet.anomaly.max_score", 12.5, GaugeMerge::Max);
        r.gauge_set_merged("alert.fast_burn", 4.2, GaugeMerge::Max);
        // A name with every character the HELP escape table covers —
        // scenario-phase interpolation can produce these.
        r.gauge_set("phase \"spike\\drain\"\nrotate", 2.0);
        r.observe_n("runner.lc_p99_ns", 73_000, 10);
        r
    }

    #[test]
    fn hostile_metric_name_keeps_help_single_line() {
        let text = conformance_registry().to_prometheus(&[]);
        // The raw name contains a newline; an unescaped HELP body would
        // split the comment and leave `rotate` at the start of a line.
        assert!(!text.contains("\nrotate"));
        assert!(text.contains("spike\\\\drain"), "backslash not doubled");
        assert!(text.contains("\\nrotate"), "newline not escaped");
        // Still parses and lints cleanly.
        assert!(crate::promlint::parse(&text).is_ok());
        assert!(crate::promlint::lint(&text).is_empty());
    }

    #[test]
    fn gauge_merge_modes_combine_correctly() {
        let mut a = Registry::new();
        a.gauge_set_merged("bw.util", 0.7, GaugeMerge::Max);
        a.gauge_set_merged("load.rps", 100.0, GaugeMerge::Sum);
        a.gauge_set("cfg.workers", 8.0);
        let mut b = Registry::new();
        b.gauge_set_merged("bw.util", 0.4, GaugeMerge::Max);
        b.gauge_set_merged("load.rps", 50.0, GaugeMerge::Sum);
        b.gauge_set("cfg.workers", 8.0);
        a.merge(&b);
        assert_eq!(a.gauge("bw.util"), Some(0.7));
        assert_eq!(a.gauge("load.rps"), Some(150.0));
        assert_eq!(a.gauge("cfg.workers"), Some(8.0));
        assert_eq!(a.gauge_merge("bw.util"), Some(GaugeMerge::Max));
        assert_eq!(a.gauge_merge("load.rps"), Some(GaugeMerge::Sum));
        assert_eq!(a.gauge_merge("cfg.workers"), Some(GaugeMerge::Last));
    }

    #[test]
    fn annotated_side_wins_over_default_last() {
        // One side annotated, the other default: annotation survives in
        // either merge direction.
        let mut plain = Registry::new();
        plain.gauge_set("bw.util", 0.2);
        let mut annotated = Registry::new();
        annotated.gauge_set_merged("bw.util", 0.9, GaugeMerge::Max);
        let mut left = plain.clone();
        left.merge(&annotated);
        assert_eq!(left.gauge("bw.util"), Some(0.9));
        assert_eq!(left.gauge_merge("bw.util"), Some(GaugeMerge::Max));
        let mut right = annotated.clone();
        right.merge(&plain);
        assert_eq!(right.gauge("bw.util"), Some(0.9));
        assert_eq!(right.gauge_merge("bw.util"), Some(GaugeMerge::Max));
    }

    #[test]
    fn sum_and_max_merges_are_commutative_and_associative() {
        let mk = |v: f64| {
            let mut r = Registry::new();
            r.gauge_set_merged("s", v, GaugeMerge::Sum);
            r.gauge_set_merged("m", v, GaugeMerge::Max);
            r
        };
        let (x, y, z) = (mk(1.0), mk(4.0), mk(2.0));
        let mut ab = x.clone();
        ab.merge(&y);
        ab.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut a_bc = x.clone();
        a_bc.merge(&yz);
        assert_eq!(ab.gauge("s"), a_bc.gauge("s"));
        assert_eq!(ab.gauge("m"), a_bc.gauge("m"));
        let mut ba = y.clone();
        ba.merge(&x);
        ba.merge(&z);
        assert_eq!(ab.gauge("s"), ba.gauge("s"));
        assert_eq!(ab.gauge("m"), Some(4.0));
    }

    #[test]
    fn prometheus_export_passes_promlint() {
        let r = conformance_registry();
        for labels in [
            &[][..],
            &[("cell", "fault/mtat_full"), ("quote", "a\"b\\c\nd")][..],
        ] {
            let text = r.to_prometheus(labels);
            let issues = crate::promlint::lint(&text);
            assert!(issues.is_empty(), "promlint issues: {issues:?}\n{text}");
        }
    }

    #[test]
    fn prometheus_help_precedes_type_precedes_samples() {
        let text = conformance_registry().to_prometheus(&[]);
        let help = text.find("# HELP mtat_runner_ticks_total").unwrap();
        let ty = text.find("# TYPE mtat_runner_ticks_total").unwrap();
        let sample = text.find("\nmtat_runner_ticks_total 7").unwrap();
        assert!(help < ty && ty < sample);
    }

    #[test]
    fn prometheus_parse_back_roundtrips_values() {
        let r = conformance_registry();
        let text = r.to_prometheus(&[("cell", "x\"y\\z\nw")]);
        let samples = crate::promlint::parse(&text).expect("export must parse back");
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.iter().all(|(k, _)| k != "quantile"))
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
        assert_eq!(find("mtat_runner_ticks_total").value, 7.0);
        assert_eq!(find("mtat_mtat_sac_alpha").value, 0.25);
        assert_eq!(find("mtat_weird_name_with_spaces").value, -1.5);
        assert!(find("mtat_nan_gauge").value.is_nan());
        assert_eq!(find("mtat_runner_lc_p99_ns_count").value, 10.0);
        // The hostile label value survives the escape/unescape cycle.
        assert_eq!(find("mtat_runner_ticks_total").labels[0].1, "x\"y\\z\nw");
        // Quantile samples carry both the shared and the quantile label.
        let q99 = samples
            .iter()
            .find(|s| {
                s.name == "mtat_runner_lc_p99_ns"
                    && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.99")
            })
            .unwrap();
        assert_eq!(q99.labels.len(), 2);
    }
}
