//! # mtat-obs — zero-dependency observability for the MTAT workspace
//!
//! The paper's argument is about *tail* behaviour — MTAT is judged on
//! p99 response latency under co-location (§6) — yet a simulation run
//! that only reports end-of-run aggregates turns every chaos-scenario
//! or audit failure into a rerun-under-a-debugger session. This crate
//! is the common telemetry substrate the runner, PP-E, PP-M, the
//! supervisor, and the fault machinery all emit into:
//!
//! * [`registry::Registry`] — named counters, gauges, and log-linear
//!   HDR-style histograms ([`hist::Histogram`]) with a bounded relative
//!   error on p50/p95/p99/p999 queries; snapshots export to JSON and to
//!   the Prometheus text exposition format ([`export`]).
//! * [`event::FlightRecorder`] — a bounded ring of typed
//!   [`event::Event`] records (sim-time timestamp, component, severity,
//!   key/value payload), dumped automatically by the runner alongside
//!   any audit violation, supervisor ladder transition, PP-M
//!   crash/restore edge, or health-monitor rollback/quarantine/
//!   crash-stop directive (DESIGN.md §4g).
//! * [`Obs`] — the instrumentation facade threaded through every
//!   layer. A disabled handle is a `None` and every call is an early
//!   return past one branch, so the default-off path adds nothing
//!   measurable to a run's ticks/s; an enabled handle shares one
//!   mutex-guarded registry+recorder across clones.
//! * [`span`] — hierarchical phase spans (tick → sample → ppm-plan →
//!   ppe-enforce → migrate, ...) with wall-ns durations and sim-time
//!   anchors, exportable as Chrome trace-event JSON or collapsed
//!   stacks; present only on [`Obs::traced`] handles.
//! * [`provenance`] — per-plan decision provenance chaining interval
//!   stats → supervisor mode → SAC/anneal telemetry → clamps →
//!   enforcement outcome, exported as JSONL and embedded in trace
//!   files.
//! * [`json`] / [`promlint`] — a dependency-free JSON parser and a
//!   promtool-style text-format linter, so `mtat-trace` and the
//!   conformance tests can parse our own exports back.
//! * [`bucket`] — the audited bucket-index arithmetic shared with
//!   `mtat_tiermem::histogram` (one implementation of the bit tricks,
//!   one test suite).
//!
//! Like `mtat-snapshot`, the crate has **zero runtime dependencies** so
//! it can sit below `tiermem` in the dependency graph.
//!
//! ## Enabling
//!
//! Observability follows the `MTAT_OBS` environment variable (mirroring
//! `MTAT_AUDIT`): unset, empty, or `0` means **off** (perf first —
//! instrumentation must be asked for), anything else means on.
//! Harnesses can also bypass the environment entirely by attaching an
//! explicit handle ([`Obs::enabled`] / [`Obs::disabled`]) to an
//! experiment, which is what `chaos_matrix --metrics-out` does to give
//! every matrix cell its own registry. A third axis, `MTAT_TRACE`
//! (same on/off convention), upgrades the handle to [`Obs::traced`]:
//! metrics + events + phase spans + decision provenance.
//!
//! ## Health-subsystem names (emitted by `mtat-core`'s runner)
//!
//! The self-healing runtime (DESIGN.md §4g) reports through the same
//! facade. Counters: `health.incidents` (every incident handed to the
//! monitor), `health.repairs`, `health.rollbacks`,
//! `health.quarantines`, `health.crash_stops`, `runner.sac_poisons`
//! (fault injections, not detections), and `ckpt.skips_unhealthy`
//! (checkpoint captures refused because the policy's health probe
//! failed). Flight-recorder events: `health.incidents` carries the
//! incident kind/detail and the directive chosen; `rollback` carries
//! the restored generation (or `cold`); `checkpoint` gains a
//! `known_good` flag. Rollbacks, quarantines, and crash-stops also
//! trigger an automatic flight-recorder dump.
//!
//! ## Determinism contract
//!
//! Instrumentation must never feed back into simulation physics: an
//! [`Obs`] handle owns no RNG, and nothing read from it influences
//! control decisions. Runs with observability on and off are
//! bit-identical (asserted by `mtat-core`'s integration tests).

pub mod alert;
pub mod bucket;
pub mod env;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod promlint;
pub mod provenance;
pub mod registry;
pub mod serve;
pub mod span;

use std::sync::{Arc, Mutex};

use event::{FlightRecorder, Severity};
use provenance::{EnforceOutcome, PlanProvenance, ProvenanceBook};
use registry::{GaugeMerge, Registry};
use serve::TelemetryHub;
use span::{SpanGuard, Tracer};

/// Returns whether `MTAT_OBS` asks for observability: unset, empty,
/// `"0"`, `"off"`, `"false"`, or `"no"` (case-insensitive) mean off,
/// anything else means on.
///
/// Unlike `MTAT_AUDIT` (default-on under debug), the default here is
/// **off** in every build: telemetry is pull, not push, and the perf
/// smoke test relies on the disabled path being the ambient one.
#[must_use]
pub fn obs_enabled() -> bool {
    env::env_flag("MTAT_OBS").unwrap_or(false)
}

/// Returns whether `MTAT_TRACE` asks for span tracing + decision
/// provenance on top of metrics/events. Same semantics as
/// [`obs_enabled`]: unset, empty, `"0"`, `"off"`, `"false"`, or
/// `"no"` mean off. A set
/// `MTAT_TRACE` implies full observability ([`Obs::from_env`] returns
/// a traced handle regardless of `MTAT_OBS`).
#[must_use]
pub fn trace_enabled() -> bool {
    env::env_flag("MTAT_TRACE").unwrap_or(false)
}

#[derive(Debug)]
struct ObsInner {
    registry: Mutex<Registry>,
    recorder: Mutex<FlightRecorder>,
    /// Most recent flight-recorder dump, kept so harnesses and tests
    /// can retrieve the post-mortem after the failing call returned.
    last_dump: Mutex<Option<String>>,
    /// Span tracer — present only on traced handles ([`Obs::traced`]),
    /// so a plain enabled handle pays nothing for the tracing axis.
    tracer: Option<Mutex<Tracer>>,
    /// Decision-provenance book — rides the same axis as the tracer.
    provenance: Option<Mutex<ProvenanceBook>>,
    /// Live telemetry hub; when attached ([`Obs::attach_hub`]) every
    /// [`Obs::event`] also lands in the hub's SSE ring.
    hub: Mutex<Option<TelemetryHub>>,
}

/// Cheap, cloneable instrumentation handle.
///
/// A disabled handle (the [`Default`]) carries no allocation at all;
/// every method is a branch on `None` and returns immediately, which is
/// what keeps always-instrumented hot paths free when `MTAT_OBS` is
/// off. Clones of an enabled handle share one registry and recorder.
///
/// ```
/// use mtat_obs::Obs;
/// use mtat_obs::event::Severity;
///
/// let obs = Obs::enabled();
/// obs.count("runner.ticks", 1);
/// obs.gauge("runner.util", 0.5);
/// obs.observe("runner.lc_p99_ns", 73_000);
/// obs.event(1.0, "runner", Severity::Info, "run_start", &[]);
/// let dump = obs.dump_flight_recorder("demo").unwrap();
/// assert!(dump.contains("runner.run_start"));
/// assert!(obs.snapshot_json().unwrap().contains("runner.ticks"));
///
/// let off = Obs::disabled();
/// off.count("runner.ticks", 1); // no-op
/// assert!(off.snapshot_json().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A no-op handle: every call is an early return.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An active handle with a flight recorder of
    /// [`FlightRecorder::DEFAULT_CAPACITY`] events.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_recorder_capacity(FlightRecorder::DEFAULT_CAPACITY)
    }

    /// An active handle with a flight recorder of `cap` events.
    #[must_use]
    pub fn with_recorder_capacity(cap: usize) -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                registry: Mutex::new(Registry::new()),
                recorder: Mutex::new(FlightRecorder::new(cap)),
                last_dump: Mutex::new(None),
                tracer: None,
                provenance: None,
                hub: Mutex::new(None),
            })),
        }
    }

    /// A fully-instrumented handle: metrics + events + span tracer +
    /// decision provenance. The tracer stores up to
    /// [`Tracer::DEFAULT_CAPACITY`] completed spans (further
    /// completions are counted, not stored).
    #[must_use]
    pub fn traced() -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                registry: Mutex::new(Registry::new()),
                recorder: Mutex::new(FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)),
                last_dump: Mutex::new(None),
                tracer: Some(Mutex::new(Tracer::new(Tracer::DEFAULT_CAPACITY))),
                provenance: Some(Mutex::new(ProvenanceBook::new())),
                hub: Mutex::new(None),
            })),
        }
    }

    /// Handle per the environment: [`Obs::traced`] when `MTAT_TRACE`
    /// is set (see [`trace_enabled`]), else [`Obs::enabled`] when
    /// `MTAT_OBS` is set, else [`Obs::disabled`].
    #[must_use]
    pub fn from_env() -> Self {
        if trace_enabled() {
            Self::traced()
        } else if obs_enabled() {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// True when this handle records anything. Callers doing non-trivial
    /// work *just to build a metric* (string formatting, summing a
    /// slice) should guard on this; plain `count`/`gauge`/`observe`
    /// calls don't need to.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("obs poisoned")
                .counter_add(name, delta);
        }
    }

    /// Sets gauge `name` to `value`.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("obs poisoned")
                .gauge_set(name, value);
        }
    }

    /// Sets gauge `name` to `value` with a fleet-merge annotation
    /// ([`GaugeMerge`]) — use for gauges whose cross-shard aggregate is
    /// a sum or a maximum rather than "whichever shard merged last".
    #[inline]
    pub fn gauge_merged(&self, name: &str, value: f64, merge: GaugeMerge) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("obs poisoned")
                .gauge_set_merged(name, value, merge);
        }
    }

    /// Attaches a live [`TelemetryHub`]: from now on every
    /// [`Obs::event`] is also pushed (rendered) into the hub's SSE
    /// ring. No-op on a disabled handle. The hub only ever *receives*
    /// copies — nothing is read back, so determinism is unaffected.
    pub fn attach_hub(&self, hub: &TelemetryHub) {
        if let Some(inner) = &self.inner {
            *inner.hub.lock().expect("obs poisoned") = Some(hub.clone());
        }
    }

    /// The attached hub, if any.
    #[must_use]
    pub fn hub(&self) -> Option<TelemetryHub> {
        self.inner
            .as_ref()?
            .hub
            .lock()
            .expect("obs poisoned")
            .clone()
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("obs poisoned")
                .observe(name, value);
        }
    }

    /// Records `n` identical observations into histogram `name`.
    #[inline]
    pub fn observe_n(&self, name: &str, value: u64, n: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .lock()
                .expect("obs poisoned")
                .observe_n(name, value, n);
        }
    }

    /// Appends an event to the flight recorder. `kv` is cloned only on
    /// the enabled path; callers formatting payloads should still guard
    /// with [`Obs::is_enabled`] to keep the disabled path free.
    pub fn event(
        &self,
        now_secs: f64,
        component: &'static str,
        severity: Severity,
        name: &'static str,
        kv: &[(&'static str, String)],
    ) {
        if let Some(inner) = &self.inner {
            let mut recorder = inner.recorder.lock().expect("obs poisoned");
            recorder.push(now_secs, component, severity, name, kv.to_vec());
            let hub = inner.hub.lock().expect("obs poisoned").clone();
            if let Some(hub) = hub {
                if let Some(e) = recorder.last() {
                    hub.push_event(e.to_string());
                }
            }
        }
    }

    /// Renders a post-mortem dump of the flight recorder, stores it as
    /// [`Obs::last_dump`], bumps the `obs.flight_dumps` counter, and
    /// returns it. `None` when disabled.
    pub fn dump_flight_recorder(&self, reason: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let dump = inner.recorder.lock().expect("obs poisoned").dump(reason);
        inner
            .registry
            .lock()
            .expect("obs poisoned")
            .counter_add("obs.flight_dumps", 1);
        *inner.last_dump.lock().expect("obs poisoned") = Some(dump.clone());
        Some(dump)
    }

    /// The most recent flight-recorder dump, if any.
    #[must_use]
    pub fn last_dump(&self) -> Option<String> {
        self.inner
            .as_ref()?
            .last_dump
            .lock()
            .expect("obs poisoned")
            .clone()
    }

    /// Current counter value (`None` when disabled).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        Some(
            self.inner
                .as_ref()?
                .registry
                .lock()
                .expect("obs poisoned")
                .counter(name),
        )
    }

    /// Runs `f` against the shared registry (`None` when disabled).
    /// This is the escape hatch for bulk reads — quantile queries,
    /// cross-checks in tests — without cloning the registry.
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> Option<T> {
        Some(f(&self
            .inner
            .as_ref()?
            .registry
            .lock()
            .expect("obs poisoned")))
    }

    /// JSON snapshot of the registry (`None` when disabled).
    #[must_use]
    pub fn snapshot_json(&self) -> Option<String> {
        self.with_registry(Registry::to_json)
    }

    /// Prometheus text snapshot with `labels` on every sample (`None`
    /// when disabled).
    #[must_use]
    pub fn snapshot_prometheus(&self, labels: &[(&str, &str)]) -> Option<String> {
        self.with_registry(|r| r.to_prometheus(labels))
    }

    // --- span tracing & decision provenance (Obs::traced handles) ---

    fn tracer(&self) -> Option<&Mutex<Tracer>> {
        self.inner.as_ref()?.tracer.as_ref()
    }

    fn book(&self) -> Option<&Mutex<ProvenanceBook>> {
        self.inner.as_ref()?.provenance.as_ref()
    }

    /// True when this handle records spans + provenance. Callers doing
    /// non-trivial work *just to build a provenance record* should
    /// guard on this, like [`Obs::is_enabled`] for events.
    #[inline]
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.tracer().is_some()
    }

    /// Opens a phase span at sim time `now_secs`. `None` (free) when
    /// the handle has no tracer; otherwise the returned guard closes
    /// the span on drop. The guard owns an `Obs` clone, so it never
    /// borrows the instrumented object.
    #[inline]
    #[must_use]
    pub fn span(&self, now_secs: f64, name: &'static str) -> Option<SpanGuard> {
        let id = self
            .tracer()?
            .lock()
            .expect("obs poisoned")
            .begin(now_secs, name, None);
        Some(SpanGuard::new(self.clone(), id))
    }

    /// Like [`Obs::span`] with a per-instance label (e.g. the matrix
    /// cell name); the exporters display it as `name:label`.
    #[must_use]
    pub fn span_labeled(
        &self,
        now_secs: f64,
        name: &'static str,
        label: &str,
    ) -> Option<SpanGuard> {
        let id = self.tracer()?.lock().expect("obs poisoned").begin(
            now_secs,
            name,
            Some(label.to_string()),
        );
        Some(SpanGuard::new(self.clone(), id))
    }

    /// Opens a span inheriting the sim time of the innermost open span
    /// on this thread — for layers without a clock of their own
    /// (`MigrationEngine`, PP-M internals). Falls back to `0.0` when
    /// no span is open.
    #[inline]
    #[must_use]
    pub fn span_here(&self, name: &'static str) -> Option<SpanGuard> {
        let tracer = self.tracer()?;
        let mut t = tracer.lock().expect("obs poisoned");
        let now = t.current_sim_secs().unwrap_or(0.0);
        let id = t.begin(now, name, None);
        drop(t);
        Some(SpanGuard::new(self.clone(), id))
    }

    /// Closes span `id`. Called by [`SpanGuard::drop`]; harness code
    /// should hold guards rather than call this directly.
    pub(crate) fn span_end(&self, id: u64) {
        if let Some(tracer) = self.tracer() {
            tracer.lock().expect("obs poisoned").end(id);
        }
    }

    /// Runs `f` against the tracer (`None` when the handle has none) —
    /// the bulk-read escape hatch for exporters and tests.
    pub fn with_tracer<T>(&self, f: impl FnOnce(&Tracer) -> T) -> Option<T> {
        Some(f(&self.tracer()?.lock().expect("obs poisoned")))
    }

    /// Opens a provenance record for a freshly-decided plan and
    /// returns its sequence number (`None` when not tracing).
    #[must_use]
    pub fn provenance_open(&self, rec: PlanProvenance) -> Option<u64> {
        Some(self.book()?.lock().expect("obs poisoned").open(rec))
    }

    /// Attaches the enforcement outcome observed over the following
    /// interval to provenance record `seq`.
    pub fn provenance_finalize(&self, seq: u64, outcome: EnforceOutcome) {
        if let Some(book) = self.book() {
            book.lock().expect("obs poisoned").finalize(seq, outcome);
        }
    }

    /// All provenance records as JSONL (`None` when not tracing).
    #[must_use]
    pub fn provenance_jsonl(&self) -> Option<String> {
        Some(self.book()?.lock().expect("obs poisoned").to_jsonl())
    }

    /// The full trace document — completed spans plus provenance — as
    /// JSON (`None` when not tracing). This is the file format behind
    /// `--trace-out`, the input of `mtat-trace`:
    ///
    /// ```text
    /// {"version":1,"dropped_spans":N,"spans":[...],"provenance":[...]}
    /// ```
    #[must_use]
    pub fn trace_json(&self) -> Option<String> {
        let tracer = self.tracer()?;
        let mut out = String::from("{\"version\":1,");
        {
            let t = tracer.lock().expect("obs poisoned");
            out.push_str(&format!("\"dropped_spans\":{},\"spans\":[", t.dropped()));
            for (i, s) in t.spans().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&s.to_json());
            }
        }
        out.push_str("],\"provenance\":[");
        if let Some(book) = self.book() {
            let b = book.lock().expect("obs poisoned");
            for (i, r) in b.records().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&r.to_json());
            }
        }
        out.push_str("]}\n");
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_fully_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.count("c", 1);
        obs.gauge("g", 1.0);
        obs.gauge_merged("gm", 1.0, GaugeMerge::Max);
        obs.observe("h", 1);
        obs.event(0.0, "t", Severity::Error, "e", &[]);
        obs.attach_hub(&TelemetryHub::new());
        assert!(obs.hub().is_none());
        assert_eq!(obs.counter_value("c"), None);
        assert_eq!(obs.dump_flight_recorder("x"), None);
        assert_eq!(obs.last_dump(), None);
        assert_eq!(obs.snapshot_json(), None);
        assert_eq!(obs.snapshot_prometheus(&[]), None);
        assert!(obs.with_registry(|_| ()).is_none());
        assert!(!obs.tracing_enabled());
        assert!(obs.span(0.0, "tick").is_none());
        assert!(obs.span_labeled(0.0, "cell", "x").is_none());
        assert!(obs.span_here("migrate").is_none());
        assert!(obs.trace_json().is_none());
        assert!(obs.provenance_jsonl().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::enabled();
        let b = a.clone();
        a.count("shared", 2);
        b.count("shared", 3);
        assert_eq!(a.counter_value("shared"), Some(5));
        b.event(1.0, "t", Severity::Info, "e", &[]);
        let dump = a.dump_flight_recorder("shared-state").unwrap();
        assert!(dump.contains("t.e"));
        assert_eq!(b.last_dump().unwrap(), dump);
        assert_eq!(a.counter_value("obs.flight_dumps"), Some(1));
    }

    #[test]
    fn attached_hub_tails_events() {
        let obs = Obs::enabled();
        let hub = TelemetryHub::new();
        obs.event(0.5, "runner", Severity::Info, "before_attach", &[]);
        obs.attach_hub(&hub);
        obs.event(
            1.0,
            "runner",
            Severity::Warn,
            "after_attach",
            &[("k", "v".into())],
        );
        let lines = hub.events_after(0, 10);
        assert_eq!(lines.len(), 1, "only post-attach events are tailed");
        assert!(lines[0].1.contains("runner.after_attach"));
        assert!(lines[0].1.contains("k=v"));
        // Metrics/registry reads are unaffected.
        assert!(obs.hub().is_some());
    }

    #[test]
    fn gauge_merged_annotates_registry() {
        let obs = Obs::enabled();
        obs.gauge_merged("bw", 0.4, GaugeMerge::Max);
        assert_eq!(
            obs.with_registry(|r| r.gauge_merge("bw")).unwrap(),
            Some(GaugeMerge::Max)
        );
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let obs = Obs::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let o = obs.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        o.count("n", 1);
                    }
                });
            }
        });
        assert_eq!(obs.counter_value("n"), Some(4000));
    }

    #[test]
    fn plain_enabled_handle_has_no_tracer() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        assert!(!obs.tracing_enabled());
        assert!(obs.span(0.0, "tick").is_none());
        assert!(obs.span_here("migrate").is_none());
        assert!(obs.with_tracer(|_| ()).is_none());
        assert!(obs.trace_json().is_none());
        assert!(obs.provenance_jsonl().is_none());
    }

    #[test]
    fn traced_spans_nest_and_export() {
        let obs = Obs::traced();
        assert!(obs.tracing_enabled());
        {
            let _tick = obs.span(1.5, "tick");
            {
                // span_here inherits the enclosing span's sim time.
                let _mig = obs.span_here("migrate");
            }
        }
        let spans = obs.with_tracer(|t| t.spans().to_vec()).unwrap();
        assert_eq!(spans.len(), 2);
        let mig = spans.iter().find(|s| s.name == "migrate").unwrap();
        let tick = spans.iter().find(|s| s.name == "tick").unwrap();
        assert_eq!(mig.parent, Some(tick.id));
        assert_eq!(mig.sim_secs.to_bits(), 1.5f64.to_bits());
        // The trace document parses back with our own parser.
        let doc = json::parse(&obs.trace_json().unwrap()).unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn provenance_flows_through_handle() {
        let obs = Obs::traced();
        let rec = provenance::PlanProvenance {
            seq: 0,
            tick: 10,
            now_secs: 1.0,
            usage_ratio: 0.5,
            access_ratio: 0.5,
            access_count_norm: 1.0,
            p99_secs: 1e-4,
            violated: true,
            scenario_phase: 0,
            mode: "heuristic",
            sac: None,
            anneal: None,
            sizer_bytes: 1,
            guard_floor_bytes: 0,
            guard_applied: false,
            fmem_clamped: false,
            lc_bytes: 1,
            be_total_bytes: 2,
            enforce: None,
        };
        let seq = obs.provenance_open(rec).unwrap();
        obs.provenance_finalize(
            seq,
            provenance::EnforceOutcome {
                granted_pages: 5,
                failed_pages: 0,
                retried_pages: 0,
                deferred_pages: 1,
                schedule_done: false,
            },
        );
        let jsonl = obs.provenance_jsonl().unwrap();
        assert!(jsonl.contains("\"granted_pages\":5"));
        assert!(Obs::enabled().provenance_open(jsonl_rec()).is_none());
    }

    fn jsonl_rec() -> provenance::PlanProvenance {
        provenance::PlanProvenance {
            seq: 0,
            tick: 0,
            now_secs: 0.0,
            usage_ratio: 0.0,
            access_ratio: 0.0,
            access_count_norm: 0.0,
            p99_secs: 0.0,
            violated: false,
            scenario_phase: 0,
            mode: "static",
            sac: None,
            anneal: None,
            sizer_bytes: 0,
            guard_floor_bytes: 0,
            guard_applied: false,
            fmem_clamped: false,
            lc_bytes: 0,
            be_total_bytes: 0,
            enforce: None,
        }
    }

    #[test]
    fn snapshots_roundtrip_names() {
        let obs = Obs::enabled();
        obs.observe("lat.ns", 500);
        obs.gauge("util", 0.9);
        let j = obs.snapshot_json().unwrap();
        assert!(j.contains("lat.ns"));
        let p = obs.snapshot_prometheus(&[("cell", "a")]).unwrap();
        assert!(p.contains("mtat_lat_ns"));
        assert!(p.contains("cell=\"a\""));
    }
}
