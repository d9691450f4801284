//! The co-location simulation driver.
//!
//! [`Experiment`] wires everything together: it registers one LC and any
//! number of BE workloads in a [`TieredMemory`], then advances time in
//! ticks. Each tick it
//!
//! 1. evaluates the offered LC load (load pattern × optional log-normal
//!    burst),
//! 2. derives every workload's FMem hit ratio from the *actual* page
//!    placement,
//! 3. computes LC P99 latency (M/M/c) and BE throughput from those hit
//!    ratios — including any per-SMem-access penalty the policy imposes
//!    (TPP's hint faults),
//! 4. generates the tick's page accesses and thins them through the
//!    PEBS-like sampler, and
//! 5. hands the observations to the policy, which may migrate pages
//!    within the migration engine's bandwidth budget.
//!
//! The driver also implements the paper's *maximum load* measurement
//! ([`Experiment::find_max_load`]): the largest constant load a policy
//! can carry without SLO violations (Fig. 8, Table 3).

use std::collections::VecDeque;
use std::path::PathBuf;

use mtat_obs::alert::{AlertRule, AlertState, BurnRateEngine};
use mtat_obs::event::Severity;
use mtat_obs::export::{json_f64, json_string};
use mtat_obs::registry::GaugeMerge;
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_snapshot::{seal, unseal, CheckpointStore, SnapError};
use mtat_tiermem::bandwidth::BandwidthModel;
use mtat_tiermem::error::TierMemError;
use mtat_tiermem::faults::{FaultInjector, FaultKind, FaultPlan, TickFaults};
use mtat_tiermem::latency;
use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::page::Tier;
use mtat_tiermem::sampler::AccessSampler;
use mtat_tiermem::{audit_enabled, AuditViolation};
use mtat_workloads::access::Popularity;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::{PopMutation, ScenarioSchedule, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::health::{Directive, HealthConfig, HealthMonitor, Incident};
use crate::policy::{Policy, SimState, WorkloadClass, WorkloadObs};
use crate::stats::{AlertRecord, RunResult, TickRecord};

/// A configured co-location experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// System configuration.
    pub cfg: SimConfig,
    /// The latency-critical workload.
    pub lc: LcSpec,
    /// The offered-load schedule for the LC workload.
    pub load: LoadPattern,
    /// Co-located best-effort workloads.
    pub bes: Vec<BeSpec>,
    /// Run length in seconds.
    pub duration_secs: f64,
    /// Reference maximum load (requests/s); load-pattern levels are
    /// fractions of this. Defaults to the LC workload's sustainable load
    /// under FMEM_ALL.
    pub lc_max_ref: f64,
    /// Fault-injection schedule. Defaults to [`FaultPlan::none`], which
    /// leaves every substrate hook untouched — the run is bit-identical
    /// to one without the fault layer.
    pub fault_plan: FaultPlan,
    /// Use the pre-optimization O(total pages) per-tick accounting (full
    /// FMem rescan per BE hit ratio, one Poisson draw per page) instead
    /// of the incremental resident-popularity counters and batched
    /// sampler. The two modes are statistically equivalent — the batched
    /// sampler draws from the same distribution by Poisson splitting —
    /// but consume the RNG stream differently. Retained for equivalence
    /// tests and the `perf_baseline` speedup measurement.
    pub legacy_accounting: bool,
    /// PP-M checkpointing configuration. `None` (the default) disables
    /// checkpoint capture; a crashed controller then restarts cold.
    pub checkpoints: Option<CheckpointCfg>,
    /// Explicit telemetry handle. `None` (the default) defers to the
    /// `MTAT_OBS` environment variable ([`Obs::from_env`]); harnesses
    /// that need one registry per matrix cell attach their own handle.
    /// Telemetry never feeds back into simulation physics — runs are
    /// bit-identical with observability on or off.
    pub obs: Option<Obs>,
    /// Flight-recorder dump trigger on sustained SLO violation: after
    /// this many *consecutive* violating ticks the recorder is dumped
    /// once (re-arming only after the streak breaks). `None` (the
    /// default) disables the trigger.
    pub slo_streak_dump: Option<u32>,
    /// Self-healing health subsystem ([`crate::health`]). `None` (the
    /// default) keeps the pre-existing behavior: detections abort the
    /// run instead of triggering autonomous recovery.
    pub health: Option<HealthConfig>,
    /// Adversarial workload scenario ([`mtat_workloads::scenario`]).
    /// `None` (the default) runs the nominal workload mix; the run is
    /// then bit-identical to one built before scenario support existed.
    /// With a scenario, its compiled schedule mutates BE popularity
    /// distributions, BE access rates, and LC offered load at phase
    /// boundaries, and the active phase id is threaded into obs events
    /// and decision provenance.
    pub scenario: Option<ScenarioSpec>,
    /// Live telemetry hub ([`mtat_obs::serve`]). `None` (the default)
    /// publishes nothing. With a hub attached, the runner pushes
    /// rendered metrics/health/status snapshots at partitioning-interval
    /// boundaries and tails the event stream into the hub's SSE ring.
    /// The hub is publish-only — HTTP server threads read immutable
    /// snapshots and nothing flows back — so runs are bit-identical
    /// with serving on or off.
    pub hub: Option<TelemetryHub>,
    /// SLO burn-rate alert rules ([`mtat_obs::alert`]). `None` (the
    /// default) skips the engine entirely. Rules are evaluated on sim
    /// time, so alert transitions — timestamps included — replay
    /// bit-identically; the engine observes the run and never feeds
    /// back into the physics.
    pub alerts: Option<Vec<AlertRule>>,
}

/// Checkpointing and crash-recovery configuration for a run.
///
/// PP-M control state is captured at partitioning-interval boundaries —
/// the natural decision boundary: the per-interval accumulators have
/// just been reset and the new plan handed to PP-E, so restoring such a
/// checkpoint resumes *bit-identically* with the uninterrupted run.
/// Checkpoints are sealed in the versioned, checksummed envelope of
/// [`mtat_snapshot`]; up to `retain` generations are kept, and a restart
/// falls back to older generations when newer ones are corrupt.
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// Capture a checkpoint every this many partitioning intervals
    /// (values below 1 are treated as 1).
    pub every_intervals: u64,
    /// Number of checkpoint generations to keep (values below 1 are
    /// treated as 1).
    pub retain: usize,
    /// Directory for on-disk checkpoints (created if missing). `None`
    /// keeps the sealed blobs in memory — same envelope, same fallback
    /// semantics, no filesystem traffic.
    pub dir: Option<PathBuf>,
    /// Bit-identity probe: at the first interval boundary at or after
    /// this time, checkpoint, crash, and restore the controller in
    /// place. A correct checkpoint implementation continues exactly as
    /// if nothing happened; the regression tests assert tick-for-tick
    /// equality against an unprobed run.
    pub restart_probe_at: Option<f64>,
}

impl CheckpointCfg {
    /// In-memory checkpointing: every interval, three generations.
    pub fn in_memory() -> Self {
        Self {
            every_intervals: 1,
            retain: 3,
            dir: None,
            restart_probe_at: None,
        }
    }

    /// On-disk checkpointing under `dir`: every interval, three
    /// generations.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            ..Self::in_memory()
        }
    }

    /// Sets the capture cadence in partitioning intervals.
    pub fn with_every(mut self, intervals: u64) -> Self {
        self.every_intervals = intervals;
        self
    }

    /// Sets the retained generation count.
    pub fn with_retain(mut self, retain: usize) -> Self {
        self.retain = retain;
        self
    }

    /// Arms the bit-identity restart probe (see
    /// [`Self::restart_probe_at`]).
    pub fn with_restart_probe(mut self, at_secs: f64) -> Self {
        self.restart_probe_at = Some(at_secs);
        self
    }
}

fn checkpoint_err(e: SnapError) -> TierMemError {
    TierMemError::Checkpoint(e.to_string())
}

/// Executes the health monitor's directives for this tick's incidents.
///
/// Rollback semantics: the memory substrate is repaired in place first
/// (the restored controller must read consistent accounting), then the
/// last *known-good* checkpoint generation is restored — newer
/// generations are marked suspect (renamed `.suspect` on disk, dropped
/// from the in-memory ring) so neither this rollback nor a later crash
/// restart can resurrect state captured after the fault began. With no
/// known-good generation the controller restarts cold.
#[allow(clippy::too_many_arguments)]
fn handle_incidents(
    incidents: &[Incident],
    now: f64,
    mon: &mut HealthMonitor,
    policy: &mut dyn Policy,
    mem: &mut TieredMemory,
    ckpt_store: &mut Option<CheckpointStore>,
    ckpt_ring: &mut VecDeque<(u64, Vec<u8>)>,
    last_good_gen: &mut Option<u64>,
    crash_stopped: &mut bool,
    tele: &Obs,
) -> Result<(), TierMemError> {
    for incident in incidents {
        let directive = mon.on_incident(now, incident);
        if tele.is_enabled() {
            tele.count("health.incidents", 1);
            tele.event(
                now,
                "health",
                Severity::Warn,
                "incident",
                &[
                    ("kind", incident.label().to_string()),
                    ("detail", incident.detail()),
                    ("directive", format!("{directive:?}")),
                ],
            );
        }
        match directive {
            Directive::Continue => {}
            Directive::Repair => {
                let fixed = mem.repair_accounting();
                mon.note_repair(now, fixed);
                if tele.is_enabled() {
                    tele.count("health.repairs", 1);
                }
            }
            Directive::Rollback => {
                if tele.is_enabled() {
                    tele.count("health.rollbacks", 1);
                    tele.dump_flight_recorder("health rollback");
                }
                mem.repair_accounting();
                let (generation, payload): (Option<u64>, Option<Vec<u8>>) = match ckpt_store {
                    Some(store) => match *last_good_gen {
                        Some(g) => {
                            store.quarantine_newer_than(g).map_err(checkpoint_err)?;
                            match store
                                .load_latest_with_generation()
                                .map_err(checkpoint_err)?
                            {
                                Some((got, p)) => (Some(got), Some(p)),
                                None => (None, None),
                            }
                        }
                        None => (None, None),
                    },
                    None => {
                        match *last_good_gen {
                            Some(g) => {
                                while ckpt_ring.back().is_some_and(|(bg, _)| *bg > g) {
                                    ckpt_ring.pop_back();
                                }
                            }
                            None => ckpt_ring.clear(),
                        }
                        ckpt_ring
                            .iter()
                            .rev()
                            .find_map(|(g, blob)| {
                                unseal(blob).ok().map(|p| (Some(*g), Some(p.to_vec())))
                            })
                            .unwrap_or((None, None))
                    }
                };
                policy.on_controller_crash();
                policy.on_controller_restart(mem, payload.as_deref());
                policy.after_rollback(now);
                mon.on_rollback_complete(now, generation);
                if tele.is_enabled() {
                    tele.event(
                        now,
                        "health",
                        Severity::Warn,
                        "rollback",
                        &[(
                            "generation",
                            generation.map_or_else(|| "cold".to_string(), |g| g.to_string()),
                        )],
                    );
                }
            }
            Directive::Quarantine => {
                mem.repair_accounting();
                policy.enter_quarantine(now);
                if tele.is_enabled() {
                    tele.count("health.quarantines", 1);
                    tele.event(now, "health", Severity::Error, "quarantine", &[]);
                    tele.dump_flight_recorder("health quarantine");
                }
            }
            Directive::CrashStop => {
                if !*crash_stopped {
                    policy.on_controller_crash();
                    *crash_stopped = true;
                    if tele.is_enabled() {
                        tele.count("health.crash_stops", 1);
                        tele.event(now, "health", Severity::Error, "crash_stop", &[]);
                        tele.dump_flight_recorder("health crash-stop");
                    }
                }
                mem.repair_accounting();
            }
        }
    }
    Ok(())
}

/// Renders the `/status` JSON document published to the telemetry hub:
/// run progress, the active scenario phase, the supervisor's degradation
/// mode, health state, and currently firing alerts. Hand-rolled like the
/// rest of the JSON surface — the schema is small and dependency-free.
#[allow(clippy::too_many_arguments)]
fn render_status(
    policy: &str,
    tick: u64,
    n_ticks: u64,
    now: f64,
    duration: f64,
    phase: Option<(u32, &str)>,
    supervisor: Option<&'static str>,
    health: &str,
    firing: &[&str],
    violated_ticks: u64,
) -> String {
    let progress = if n_ticks == 0 {
        1.0
    } else {
        (tick + 1) as f64 / n_ticks as f64
    };
    let mut s = String::with_capacity(256);
    s.push('{');
    s.push_str(&format!("\"policy\":{},", json_string(policy)));
    s.push_str(&format!("\"tick\":{tick},\"ticks_total\":{n_ticks},"));
    s.push_str(&format!("\"t_secs\":{},", json_f64(now)));
    s.push_str(&format!("\"duration_secs\":{},", json_f64(duration)));
    s.push_str(&format!("\"progress\":{},", json_f64(progress)));
    match phase {
        Some((id, label)) => s.push_str(&format!(
            "\"scenario_phase\":{{\"id\":{id},\"label\":{}}},",
            json_string(label)
        )),
        None => s.push_str("\"scenario_phase\":null,"),
    }
    match supervisor {
        Some(mode) => s.push_str(&format!("\"supervisor_mode\":{},", json_string(mode))),
        None => s.push_str("\"supervisor_mode\":null,"),
    }
    s.push_str(&format!("\"health\":{},", json_string(health)));
    s.push_str("\"alerts_firing\":[");
    for (i, name) in firing.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_string(name));
    }
    s.push_str("],");
    s.push_str(&format!("\"violated_ticks\":{violated_ticks}"));
    s.push('}');
    s
}

impl Experiment {
    /// Creates an experiment. Duration defaults to the load pattern's
    /// length (or 240 s for open-ended patterns).
    ///
    /// The reference max load is the FMEM_ALL queueing knee divided by
    /// the [`burst_headroom`] of the configured burstiness, so that —
    /// exactly as in the paper's Fig. 5 setup — a load pattern peaking at
    /// 100 % is "the maximum capacity that FMEM_ALL can handle" without
    /// violating the SLO (at the 1 % tolerance used throughout).
    pub fn new(cfg: SimConfig, lc: LcSpec, load: LoadPattern, bes: Vec<BeSpec>) -> Self {
        let duration = match load.duration_secs() {
            d if d.is_finite() && d > 0.0 => d,
            _ => 240.0,
        };
        let knee = lc.max_load(lc.full_fmem_hit_ratio(cfg.mem.fmem_bytes()));
        let lc_max_ref = knee / burst_headroom(cfg.burst_sigma);
        Self {
            cfg,
            lc,
            load,
            bes,
            duration_secs: duration,
            lc_max_ref,
            fault_plan: FaultPlan::none(),
            legacy_accounting: false,
            checkpoints: None,
            obs: None,
            slo_streak_dump: None,
            health: None,
            scenario: None,
            hub: None,
            alerts: None,
        }
    }

    /// Overrides the run length.
    pub fn with_duration(mut self, secs: f64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Switches the run to the legacy O(total pages) accounting paths
    /// (see [`Self::legacy_accounting`]).
    pub fn with_legacy_accounting(mut self) -> Self {
        self.legacy_accounting = true;
        self
    }

    /// Installs a fault-injection schedule (see [`mtat_tiermem::faults`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the reference max load.
    pub fn with_lc_max_ref(mut self, rps: f64) -> Self {
        self.lc_max_ref = rps;
        self
    }

    /// Enables PP-M checkpointing (see [`CheckpointCfg`]).
    pub fn with_checkpoints(mut self, cfg: CheckpointCfg) -> Self {
        self.checkpoints = Some(cfg);
        self
    }

    /// Attaches an explicit telemetry handle instead of consulting
    /// `MTAT_OBS` (see [`Experiment::obs`]).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Arms the sustained-SLO-violation flight-recorder dump: after
    /// `ticks` consecutive violating ticks the recorder is dumped once
    /// (see [`Experiment::slo_streak_dump`]).
    pub fn with_slo_streak_dump(mut self, ticks: u32) -> Self {
        self.slo_streak_dump = Some(ticks);
        self
    }

    /// Enables the self-healing health subsystem (see [`crate::health`]).
    /// Detections then trigger autonomous recovery — accounting repair,
    /// checkpoint rollback, quarantine — instead of aborting the run.
    pub fn with_health(mut self, cfg: HealthConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// Drives the run through an adversarial workload scenario (see
    /// [`Experiment::scenario`]). The spec is compiled at run start; a
    /// malformed spec fails [`Self::try_run`] with
    /// [`TierMemError::InvalidConfig`] instead of panicking mid-run.
    pub fn with_scenario(mut self, spec: ScenarioSpec) -> Self {
        self.scenario = Some(spec);
        self
    }

    /// Publishes live metrics/health/status snapshots (and an SSE tail
    /// of the event stream) to a telemetry hub, typically one served
    /// over HTTP by [`mtat_obs::serve::TelemetryServer`] (see
    /// [`Experiment::hub`]).
    pub fn with_hub(mut self, hub: TelemetryHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Arms the SLO burn-rate alert engine with the given rules (see
    /// [`Experiment::alerts`] and [`mtat_obs::alert`]).
    pub fn with_alerts(mut self, rules: Vec<AlertRule>) -> Self {
        self.alerts = Some(rules);
        self
    }

    /// Runs the experiment under `policy`, panicking on runtime errors.
    ///
    /// # Panics
    ///
    /// Panics if the configured workloads do not fit in the configured
    /// memory (a misconfigured experiment, not a runtime condition), or
    /// if [`Self::try_run`] reports an audit violation or checkpoint
    /// I/O failure.
    pub fn run(&self, policy: &mut dyn Policy) -> RunResult {
        match self.try_run(policy) {
            Ok(r) => r,
            Err(e) => panic!("experiment run failed: {e}"),
        }
    }

    /// Runs the experiment under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::Audit`] when the runtime invariant
    /// auditor (enabled by default in debug builds, or via `MTAT_AUDIT`)
    /// detects an accounting violation,
    /// [`TierMemError::Checkpoint`] when checkpoint persistence fails,
    /// [`TierMemError::OutOfMemory`] when the configured workloads do
    /// not fit in the configured memory, and
    /// [`TierMemError::InvalidConfig`] for a malformed adversarial
    /// scenario, a sampler period that is not a finite number of at
    /// least one, or a migration bandwidth that is not positive and
    /// finite — misconfigured experiments surface as typed errors so
    /// a matrix harness can fail one cell without `catch_unwind`.
    pub fn try_run(&self, policy: &mut dyn Policy) -> Result<RunResult, TierMemError> {
        let page_size = self.cfg.mem.page_size();
        let mut mem = TieredMemory::new(self.cfg.mem);
        let lc_id = mem.register_workload(
            self.lc.rss_bytes,
            policy.initial_placement(WorkloadClass::Lc),
        )?;
        let mut be_ids = Vec::with_capacity(self.bes.len());
        for be in &self.bes {
            be_ids.push(
                mem.register_workload(be.rss_bytes, policy.initial_placement(WorkloadClass::Be))?,
            );
        }

        // Popularity distributions, hottest-first by rank. Mutable: an
        // adversarial scenario swaps them at phase boundaries.
        let mut be_pops: Vec<Popularity> = self
            .bes
            .iter()
            .zip(&be_ids)
            .map(|(spec, &id)| spec.popularity(mem.region(id).len()))
            .collect();
        // Fast path: register the weights with the page table so each
        // BE's FMem hit ratio is an incrementally maintained counter
        // (O(1) per migration) instead of an O(pages) rescan per tick,
        // and precompute the sampler's weight tables for batched draws.
        let mut be_tables: Vec<mtat_tiermem::sampler::WeightTable> = if self.legacy_accounting {
            Vec::new()
        } else {
            for (pop, &id) in be_pops.iter().zip(&be_ids) {
                mem.register_popularity(id, pop.weights())?;
            }
            be_pops.iter().map(|p| p.to_weight_table()).collect()
        };

        // Adversarial scenario: compile the mutator set into a
        // deterministic piecewise-constant schedule up front, so a
        // malformed spec fails the run (and its matrix cell) cleanly
        // before any tick executes.
        let schedule: Option<ScenarioSchedule> = match &self.scenario {
            Some(spec) => Some(
                spec.compile(self.cfg.tick_secs, self.duration_secs, self.bes.len())
                    .map_err(|e| TierMemError::InvalidConfig {
                        what: "scenario",
                        detail: e.to_string(),
                    })?,
            ),
            None => None,
        };
        let mut cur_phase: u32 = 0;
        let mut cur_pop_muts: Vec<Option<PopMutation>> = vec![None; self.bes.len()];

        let mut sampler = AccessSampler::new(self.cfg.sampler_period, self.cfg.seed ^ 0x5A)?;
        let mut burst_rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xB0);
        let mut engine =
            MigrationEngine::new(self.cfg.migration_bw, page_size, self.cfg.interval_secs)?;

        // Fault layer. When the plan is empty no hook is ever touched,
        // no observation is cloned, and the run is bit-identical to one
        // without fault support.
        let mut injector = FaultInjector::new(self.fault_plan.clone());
        let faults_enabled = !injector.is_disabled();
        if faults_enabled {
            engine.set_fault_seed(self.fault_plan.seed);
        }

        // Telemetry: an explicit handle wins, otherwise `MTAT_OBS`
        // decides. A disabled handle is inert (one `Option` check per
        // call) and telemetry never feeds back into the physics, so
        // runs are bit-identical with observability on or off.
        let tele = self.obs.clone().unwrap_or_else(Obs::from_env);
        if tele.is_enabled() {
            sampler.set_obs(tele.clone());
            engine.set_obs(tele.clone());
            tele.count("runner.runs", 1);
            tele.event(
                0.0,
                "runner",
                Severity::Info,
                "run_start",
                &[
                    ("policy", policy.name().to_string()),
                    ("load", self.load.describe()),
                    ("duration_secs", format!("{:.0}", self.duration_secs)),
                    ("seed", self.cfg.seed.to_string()),
                ],
            );
        }
        policy.set_obs(&tele);
        // Live telemetry plane: the hub receives rendered snapshots at
        // interval boundaries plus a tail of every obs event. Server
        // threads only ever read what is published here — publication
        // is one-way, so serving cannot perturb the physics.
        if let Some(hub) = &self.hub {
            tele.attach_hub(hub);
        }
        // SLO burn-rate alerting, fed from the same per-tick violation
        // verdict the SLO accounting uses. Sim-time windows only: the
        // transition log (timestamps included) replays bit-identically.
        let mut alert_engine: Option<BurnRateEngine> = self.alerts.clone().map(BurnRateEngine::new);
        let mut alerts_seen = 0usize;
        let mut violated_ticks: u64 = 0;
        // Root span for the whole run; every per-tick span nests under
        // it. Closed by the guard when `try_run` returns.
        let _run_span = tele.span(0.0, "run");
        let max_history = 1 + self
            .fault_plan
            .windows
            .iter()
            .map(|w| match w.kind {
                FaultKind::TelemetryStale { ticks } => ticks as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        // Observation snapshots are kept only when some fault window can
        // actually delay telemetry; the snapshot ring and the degraded
        // policy view below reuse their buffers across ticks instead of
        // cloning the observation vector (and every per-page `sampled`
        // vector inside it) each tick.
        let keep_history = faults_enabled && max_history > 1;
        let mut obs_history: VecDeque<Vec<WorkloadObs>> = VecDeque::with_capacity(max_history);
        let mut view_buf: Vec<WorkloadObs> = Vec::new();

        // Initial observations.
        let mut obs: Vec<WorkloadObs> = Vec::with_capacity(1 + self.bes.len());
        obs.push(WorkloadObs {
            id: lc_id,
            class: WorkloadClass::Lc,
            name: self.lc.name.clone(),
            rss_bytes: self.lc.rss_bytes,
            cores: self.lc.cores,
            load_rps: 0.0,
            p99_secs: 0.0,
            slo_secs: self.lc.slo_secs,
            hit_ratio: mem.residency(lc_id).fmem_usage_ratio(),
            access_rate: 0.0,
            throughput: 0.0,
            sampled: vec![0; mem.region(lc_id).len()],
            touched: Default::default(),
            slo_violated: false,
        });
        for (spec, &id) in self.bes.iter().zip(&be_ids) {
            obs.push(WorkloadObs {
                id,
                class: WorkloadClass::Be,
                name: spec.name.clone(),
                rss_bytes: spec.rss_bytes,
                cores: spec.cores,
                load_rps: 0.0,
                p99_secs: 0.0,
                slo_secs: f64::INFINITY,
                hit_ratio: 0.0,
                access_rate: 0.0,
                throughput: 0.0,
                sampled: vec![0; mem.region(id).len()],
                touched: Default::default(),
                slo_violated: false,
            });
        }
        policy.init(&mem, &obs);
        // Demand-driven telemetry: policies that never read per-page
        // sampled counts (e.g. FMEM_ALL) get the whole PEBS pass skipped
        // — the physics never read `sampled`, so outputs are identical.
        // The legacy mode always samples, as the pre-optimization runner
        // did.
        let sample_pages = self.legacy_accounting || policy.wants_page_samples();

        let tick_secs = self.cfg.tick_secs;
        let n_ticks = (self.duration_secs / tick_secs).round() as u64;
        let ticks_per_interval = self.cfg.ticks_per_interval();
        let sigma = self.cfg.burst_sigma;

        // Checkpointing state. On-disk stores get atomic writes and
        // generation pruning from `CheckpointStore`; the in-memory ring
        // keeps the same sealed envelope so corruption detection and
        // generation fallback behave identically.
        let ckpt_cfg = self.checkpoints.as_ref();
        let mut ckpt_store: Option<CheckpointStore> = match ckpt_cfg {
            Some(ck) => match &ck.dir {
                Some(dir) => Some(
                    CheckpointStore::open(dir.clone(), ck.retain.max(1)).map_err(checkpoint_err)?,
                ),
                None => None,
            },
            None => None,
        };
        let mut ckpt_ring: VecDeque<(u64, Vec<u8>)> = VecDeque::new();
        let mut ring_next_gen: u64 = 1;
        let mut boundaries_seen: u64 = 0;
        let mut probe_pending = ckpt_cfg.and_then(|ck| ck.restart_probe_at);
        let mut ppm_was_down = false;
        let audit_on = audit_enabled();

        // Self-healing state. The monitor owns the health state machine
        // and rollback budget; `last_good_gen` tracks the newest
        // checkpoint generation captured while the system was verifiably
        // healthy (newer generations are treated as suspect on
        // rollback). `crash_stopped` models the ablation arm that kills
        // the daemon permanently on first incident.
        let mut monitor: Option<HealthMonitor> = self.health.clone().map(HealthMonitor::new);
        let mut last_good_gen: Option<u64> = None;
        let mut crash_stopped = false;
        let mut sac_poison_was = false;

        let mut ticks = Vec::with_capacity(n_ticks as usize);
        let mut lc_requests = 0.0;
        let mut lc_violated_requests = 0.0;
        let mut be_ops = vec![0.0; self.bes.len()];

        // Bandwidth contention (lagged feedback): last tick's per-tier
        // demand sets this tick's latency-inflation multipliers.
        let bw = self.cfg.bandwidth;
        let mut fmem_util = 0.0f64;
        let mut smem_util = 0.0f64;

        // Sustained-SLO-violation dump trigger state (satellite of the
        // flight recorder): counts consecutive violating ticks and
        // re-arms only once the streak breaks.
        let mut slo_streak: u32 = 0;
        let mut streak_dumped = false;

        for tick_index in 0..n_ticks {
            let now = tick_index as f64 * tick_secs;
            let _tick_span = tele.span(now, "tick");

            // ---- Adversarial scenario phase ----
            // The scenario mutates the *workload*, not the policy's
            // view: at a phase boundary the mutated BE popularity is
            // materialized and re-registered (the incremental resident
            // mass recomputes from current placement, so accounting
            // stays exact), the sampler weight tables are rebuilt, and
            // the new phase id is announced on the obs stream.
            let phase = schedule.as_ref().map(|s| s.phase_at(tick_index));
            if let Some(ph) = phase {
                if ph.id != cur_phase {
                    for (bi, (spec, &id)) in self.bes.iter().zip(&be_ids).enumerate() {
                        let want = ph.be[bi].pop;
                        if want == cur_pop_muts[bi] {
                            continue;
                        }
                        let n = mem.region(id).len();
                        let pop = match want {
                            Some(m) => m.materialize(spec.pattern, n).map_err(|e| {
                                TierMemError::InvalidConfig {
                                    what: "scenario popularity",
                                    detail: e.to_string(),
                                }
                            })?,
                            None => spec.popularity(n),
                        };
                        if !self.legacy_accounting {
                            mem.register_popularity(id, pop.weights())?;
                            be_tables[bi] = pop.to_weight_table();
                        }
                        be_pops[bi] = pop;
                        cur_pop_muts[bi] = want;
                    }
                    cur_phase = ph.id;
                    if tele.is_enabled() {
                        tele.count("runner.scenario_phases", 1);
                        tele.event(
                            now,
                            "scenario",
                            Severity::Info,
                            "phase",
                            &[
                                ("id", ph.id.to_string()),
                                ("label", ph.label.clone()),
                                ("lc_load_mult", format!("{:.3}", ph.lc_load_mult)),
                            ],
                        );
                    }
                }
            }

            // ---- Fault effects for this tick ----
            let tf = if faults_enabled {
                let tf = injector.begin_tick(now);
                sampler.set_fault_state(tf.sampler_blackout, tf.sampler_keep);
                tf
            } else {
                TickFaults::nominal()
            };
            // A contention spike inflates both tiers' real latencies.
            let (cont_fmem_util, cont_smem_util) = if faults_enabled {
                (
                    (fmem_util + tf.bandwidth_extra_util).min(1.0),
                    (smem_util + tf.bandwidth_extra_util).min(1.0),
                )
            } else {
                (fmem_util, smem_util)
            };

            // ---- PP-M crash/restart edges ----
            // A `PpmCrash` fault models the user-space daemon dying
            // while the in-kernel PP-E survives: the policy keeps
            // enforcing its last plan but makes no new decisions. On
            // recovery a fresh daemon reloads the newest checkpoint
            // generation that passes verification (corrupt generations
            // are skipped), or restarts cold when none exists.
            if faults_enabled && !crash_stopped && tf.ppm_down != ppm_was_down {
                if tf.ppm_down {
                    policy.on_controller_crash();
                    if tele.is_enabled() {
                        tele.count("runner.ppm_crashes", 1);
                        tele.event(now, "runner", Severity::Warn, "ppm_crash", &[]);
                        tele.dump_flight_recorder("ppm crash");
                    }
                } else {
                    let restore_t0 = std::time::Instant::now();
                    let (generation, payload): (Option<u64>, Option<Vec<u8>>) = match &ckpt_store {
                        Some(store) => match store
                            .load_latest_with_generation()
                            .map_err(checkpoint_err)?
                        {
                            Some((gen, p)) => (Some(gen), Some(p)),
                            None => (None, None),
                        },
                        None => ckpt_ring
                            .iter()
                            .rev()
                            .find_map(|(g, blob)| {
                                unseal(blob).ok().map(|p| (Some(*g), Some(p.to_vec())))
                            })
                            .unwrap_or((None, None)),
                    };
                    if tele.is_enabled() {
                        tele.count("runner.ppm_restarts", 1);
                        tele.observe(
                            "ckpt.restore_ns",
                            u64::try_from(restore_t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        let source = match (&ckpt_store, &payload) {
                            (_, None) => "cold",
                            (Some(_), Some(_)) => "disk",
                            (None, Some(_)) => "ring",
                        };
                        tele.event(
                            now,
                            "runner",
                            Severity::Warn,
                            "ppm_restart",
                            &[
                                ("source", source.to_string()),
                                (
                                    "generation",
                                    generation.map_or_else(|| "-".to_string(), |g| g.to_string()),
                                ),
                                (
                                    "payload_bytes",
                                    payload.as_ref().map_or(0, Vec::len).to_string(),
                                ),
                            ],
                        );
                        tele.dump_flight_recorder("ppm restart");
                    }
                    policy.on_controller_restart(&mem, payload.as_deref());
                }
                ppm_was_down = tf.ppm_down;
            }

            // ---- Poison / drift fault application ----
            // SAC poisoning corrupts once per window (rising edge): the
            // NaN parameters persist until a rollback restores a clean
            // checkpoint, exactly like a corrupted weight load would.
            if faults_enabled && tf.sac_poison && !sac_poison_was && !crash_stopped && !tf.ppm_down
            {
                policy.inject_poison();
                if tele.is_enabled() {
                    tele.count("runner.sac_poisons", 1);
                    tele.event(now, "runner", Severity::Warn, "sac_poison", &[]);
                }
            }
            sac_poison_was = tf.sac_poison;
            // Accumulator drift perturbs the incrementally maintained
            // popularity mass of the first BE workload each tick — the
            // legacy path recomputes from scratch, so it has no
            // incremental state to drift.
            if faults_enabled && tf.accum_drift != 0.0 && !self.legacy_accounting {
                if let Some(&bid) = be_ids.first() {
                    mem.debug_corrupt_popularity(bid, tf.accum_drift);
                }
            }

            // ---- LC performance from current placement ----
            let level = self.load.level_at(now);
            // Flash crowds scale the offered load on top of the load
            // pattern. With no scenario the multiplier is exactly 1.0,
            // and `x * 1.0` is bit-exact for finite x — the no-scenario
            // run stays bit-identical to the pre-scenario runner.
            let offered = level * self.lc_max_ref * phase.map_or(1.0, |p| p.lc_load_mult);
            let burst = if sigma > 0.0 {
                // Truncated at ±2.5σ: real load generators have bounded
                // short-term variance, and a bounded tail is what makes
                // "maximum load without SLO violation" a sharp boundary.
                let z = standard_normal(&mut burst_rng).clamp(-2.5, 2.5);
                (sigma * z - sigma * sigma / 2.0).exp()
            } else {
                1.0
            };
            let load_rps = offered * burst;
            // Effective tier latencies under last tick's contention.
            let lat_f =
                mtat_tiermem::FMEM_LATENCY_NS * 1e-9 * bw.latency_multiplier(cont_fmem_util);
            let lat_s =
                mtat_tiermem::SMEM_LATENCY_NS * 1e-9 * bw.latency_multiplier(cont_smem_util);
            let lc_hit = mem.residency(lc_id).fmem_usage_ratio();
            let lc_pen = policy.smem_access_penalty(lc_id);
            let lc_service = service_time(
                self.lc.cpu_secs,
                self.lc.accesses_per_req,
                lc_hit,
                lat_f,
                lat_s,
                lc_pen,
            );
            let p99 = latency::p99_response(load_rps, lc_service, self.lc.cores);
            let violated = p99 > self.lc.slo_secs;
            let achieved = latency::achieved_throughput(load_rps, lc_service, self.lc.cores);
            lc_requests += offered * tick_secs;
            if violated {
                lc_violated_requests += offered * tick_secs;
                violated_ticks += 1;
            }
            if let Some(eng) = &mut alert_engine {
                let reqs = offered * tick_secs;
                eng.observe(now, if violated { reqs } else { 0.0 }, reqs);
                let transitions = eng.transitions();
                for t in &transitions[alerts_seen..] {
                    if tele.is_enabled() {
                        tele.count("alert.transitions", 1);
                        tele.gauge_merged("alert.fast_burn", t.fast_burn, GaugeMerge::Max);
                        let sev = if t.to == AlertState::Firing {
                            Severity::Warn
                        } else {
                            Severity::Info
                        };
                        tele.event(
                            now,
                            "alert",
                            sev,
                            "transition",
                            &[
                                ("rule", t.rule.clone()),
                                ("from", t.from.label().to_string()),
                                ("to", t.to.label().to_string()),
                                ("fast_burn", format!("{:.3}", t.fast_burn)),
                                ("slow_burn", format!("{:.3}", t.slow_burn)),
                            ],
                        );
                        if t.to == AlertState::Firing {
                            tele.count("alert.firing", 1);
                            // A firing alert is exactly the moment an
                            // on-call would want the recent event tail.
                            tele.dump_flight_recorder("alert firing");
                        }
                    }
                }
                alerts_seen = transitions.len();
                if tele.is_enabled() {
                    tele.gauge_merged(
                        "alert.firing_now",
                        eng.firing().len() as f64,
                        GaugeMerge::Sum,
                    );
                }
            }
            if tele.is_enabled() {
                tele.count("runner.ticks", 1);
                if violated {
                    tele.count("runner.slo_violations", 1);
                }
                // The `as` cast saturates, so an unstable queue's
                // infinite P99 lands in the histogram's top bucket.
                tele.observe("runner.lc_p99_ns", (p99 * 1e9).round() as u64);
                tele.gauge("runner.lc_load_rps", load_rps);
            }
            if let Some(n) = self.slo_streak_dump {
                if violated {
                    slo_streak = slo_streak.saturating_add(1);
                    if slo_streak >= n && !streak_dumped {
                        streak_dumped = true;
                        if tele.is_enabled() {
                            tele.count("runner.slo_streak_dumps", 1);
                            tele.event(
                                now,
                                "runner",
                                Severity::Warn,
                                "slo_streak",
                                &[("ticks", slo_streak.to_string())],
                            );
                            tele.dump_flight_recorder("slo violation streak");
                        }
                    }
                } else {
                    slo_streak = 0;
                    streak_dumped = false;
                }
            }

            // Demand-side access rate: queued requests still represent
            // arriving memory demand, so a saturated server must not
            // mask overload from the policy's Memory Access Count state.
            let lc_access_rate = load_rps * self.lc.accesses_per_req;
            {
                let o = &mut obs[0];
                o.load_rps = load_rps;
                o.p99_secs = p99;
                o.hit_ratio = lc_hit;
                o.access_rate = lc_access_rate;
                o.throughput = achieved;
                o.slo_violated = violated;
                // Uniform LC traffic: every page gets rate/n accesses.
                if sample_pages {
                    let n = o.sampled.len();
                    let per_page = lc_access_rate * tick_secs / n as f64;
                    if self.legacy_accounting {
                        for s in o.sampled.iter_mut() {
                            let ev = sampler.sample_count(per_page);
                            *s = sampler.estimate_from_samples(ev);
                        }
                    } else {
                        sampler.sample_uniform_estimates_touched(
                            &mut o.sampled,
                            &mut o.touched,
                            per_page,
                        );
                    }
                }
            }

            // ---- BE performance ----
            let mut be_thr_tick = Vec::with_capacity(self.bes.len());
            for (bi, (spec, &id)) in self.bes.iter().zip(&be_ids).enumerate() {
                let pop = &be_pops[bi];
                let hit: f64 = if self.legacy_accounting {
                    let base = mem.region(id).base;
                    mem.pages_in_tier(id, Tier::FMem)
                        .map(|p| pop.weight((p.0 - base) as usize))
                        .sum()
                } else {
                    mem.resident_popularity(id)
                        .expect("weights registered before the loop")
                };
                let pen = policy.smem_access_penalty(id);
                let s_op = service_time(
                    spec.cpu_secs_per_op,
                    spec.accesses_per_op,
                    hit,
                    lat_f,
                    lat_s,
                    pen,
                );
                let thr = spec.cores as f64 / s_op;
                be_ops[bi] += thr * tick_secs;
                be_thr_tick.push(thr);
                // An antagonistic burst multiplies the workload's memory
                // traffic — sampled pressure and bandwidth demand — not
                // its op throughput (same bit-exactness argument as the
                // LC multiplier above).
                let access_rate =
                    thr * spec.accesses_per_op * phase.map_or(1.0, |p| p.be[bi].rate_mult);
                let o = &mut obs[1 + bi];
                o.hit_ratio = hit;
                o.access_rate = access_rate;
                o.throughput = thr;
                if self.legacy_accounting {
                    for (rank, s) in o.sampled.iter_mut().enumerate() {
                        let true_count = access_rate * tick_secs * pop.weight(rank);
                        let ev = sampler.sample_count(true_count);
                        *s = sampler.estimate_from_samples(ev);
                    }
                } else if sample_pages {
                    sampler.sample_weighted_estimates_touched(
                        &mut o.sampled,
                        &mut o.touched,
                        access_rate * tick_secs,
                        &be_tables[bi],
                    );
                }
            }

            // ---- Policy-visible observations ----
            // Under telemetry faults the policy sees a degraded copy:
            // delayed (staleness), blinded (blackout hides the access
            // stream while P99/throughput stay live), and noisy. The
            // physics above always use the true values. The copy is
            // materialized — into a buffer reused across ticks — only on
            // ticks where some fault actually distorts it; otherwise the
            // policy reads the live observations directly.
            let (obs_age_ticks, use_view) = if faults_enabled {
                if keep_history {
                    let mut snap = if obs_history.len() == max_history {
                        obs_history.pop_front().expect("ring is full")
                    } else {
                        Vec::new()
                    };
                    copy_obs_into(&mut snap, &obs);
                    obs_history.push_back(snap);
                }
                let delay = if keep_history {
                    (tf.telemetry_delay_ticks as usize).min(obs_history.len() - 1)
                } else {
                    0
                };
                if delay > 0 || tf.sampler_blackout || tf.telemetry_noise_amp > 0.0 {
                    let src: &[WorkloadObs] = if delay > 0 {
                        &obs_history[obs_history.len() - 1 - delay]
                    } else {
                        &obs
                    };
                    copy_obs_into(&mut view_buf, src);
                    if tf.sampler_blackout {
                        for o in &mut view_buf {
                            o.access_rate = 0.0;
                            for s in &mut o.sampled {
                                *s = 0;
                            }
                        }
                    }
                    if tf.telemetry_noise_amp > 0.0 {
                        for o in &mut view_buf {
                            o.p99_secs *= injector.noise_factor(tf.telemetry_noise_amp);
                            o.throughput *= injector.noise_factor(tf.telemetry_noise_amp);
                            o.slo_violated = o.p99_secs > o.slo_secs;
                        }
                    }
                    (delay as u64, true)
                } else {
                    (0, false)
                }
            } else {
                (0, false)
            };
            let policy_obs: &[WorkloadObs] = if use_view { &view_buf } else { &obs };

            // ---- Policy tick ----
            let interval_boundary = tick_index > 0 && tick_index % ticks_per_interval == 0;
            if faults_enabled {
                engine.set_tick_faults(tf.migration_bw_factor, tf.migration_fail_prob);
            }
            engine.begin_tick(tick_secs);
            {
                let mut sim = SimState {
                    mem: &mut mem,
                    migration: &mut engine,
                    workloads: policy_obs,
                    tick_secs,
                    now_secs: now,
                    interval_boundary,
                    obs_age_ticks,
                    fmem_bw_util: fmem_util,
                    smem_bw_util: smem_util,
                    scenario_phase: cur_phase,
                };
                policy.on_tick(&mut sim);
            }

            // ---- Checkpoint capture & bit-identity restart probe ----
            // Captures happen right after the boundary tick: the policy
            // has just reset its interval accumulators and handed PP-E
            // the new plan, so the snapshot sits exactly on a decision
            // boundary. While the controller is down nothing is
            // captured (there is no daemon to ask).
            if let Some(ck) = ckpt_cfg {
                if interval_boundary && !tf.ppm_down && !crash_stopped {
                    boundaries_seen += 1;
                    if boundaries_seen.is_multiple_of(ck.every_intervals.max(1)) {
                        // With health enabled, captures are gated on the
                        // policy's own health probe: a checkpoint of an
                        // already-poisoned controller would poison every
                        // future rollback, so it is skipped, not saved.
                        let probe = if monitor.is_some() {
                            policy.health_probe()
                        } else {
                            Ok(())
                        };
                        if let Err(surface) = &probe {
                            if tele.is_enabled() {
                                tele.count("ckpt.skips_unhealthy", 1);
                                tele.event(
                                    now,
                                    "runner",
                                    Severity::Warn,
                                    "checkpoint_skipped",
                                    &[("probe", surface.clone())],
                                );
                            }
                        } else if let Some(payload) = policy.checkpoint() {
                            let save_t0 = std::time::Instant::now();
                            let mut blob = seal(&payload);
                            // A torn device write: flip one byte of the
                            // sealed envelope so the checksum rejects
                            // this generation on restore and the loader
                            // falls back to the previous one.
                            if faults_enabled && tf.checkpoint_corrupt && !blob.is_empty() {
                                let mid = blob.len() / 2;
                                blob[mid] ^= 0xFF;
                            }
                            let generation = if let Some(store) = &mut ckpt_store {
                                let g = store.next_generation();
                                store.save_sealed(&blob).map_err(checkpoint_err)?;
                                g
                            } else {
                                let g = ring_next_gen;
                                ring_next_gen += 1;
                                ckpt_ring.push_back((g, blob));
                                while ckpt_ring.len() > ck.retain.max(1) {
                                    ckpt_ring.pop_front();
                                }
                                g
                            };
                            // Known-good generations are the rollback
                            // targets. Only a capture taken while the
                            // monitor reads Healthy (and not corrupted
                            // by the fault plan) qualifies.
                            let trustworthy = !(faults_enabled && tf.checkpoint_corrupt)
                                && monitor
                                    .as_ref()
                                    .is_none_or(HealthMonitor::checkpoint_trustworthy);
                            if trustworthy {
                                last_good_gen = Some(generation);
                            }
                            if tele.is_enabled() {
                                tele.count("ckpt.saves", 1);
                                tele.observe(
                                    "ckpt.save_ns",
                                    u64::try_from(save_t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                );
                                tele.gauge("ckpt.payload_bytes", payload.len() as f64);
                                tele.event(
                                    now,
                                    "runner",
                                    Severity::Debug,
                                    "checkpoint",
                                    &[
                                        ("payload_bytes", payload.len().to_string()),
                                        ("generation", generation.to_string()),
                                        ("known_good", trustworthy.to_string()),
                                    ],
                                );
                            }
                        }
                    }
                    if probe_pending.is_some_and(|at| now >= at) {
                        probe_pending = None;
                        if let Some(payload) = policy.checkpoint() {
                            policy.on_controller_crash();
                            policy.on_controller_restart(&mem, Some(&payload));
                        }
                    }
                }
            }

            // ---- Health sentinels & runtime invariant audit ----
            // With the health subsystem enabled, detections become
            // incidents answered by the monitor's directive (repair,
            // rollback, quarantine) instead of aborting the run. Without
            // it the pre-existing fail-stop behavior is untouched.
            let mut incidents: Vec<Incident> = Vec::new();
            if let Some(mon) = &mut monitor {
                let skew = if faults_enabled {
                    tf.clock_skew_factor
                } else {
                    1.0
                };
                if let Some(i) = mon.observe_tick(now, violated, skew) {
                    incidents.push(i);
                }
                // NaN/poison sentinel on the policy's numeric surfaces.
                // Skipped in quarantine (the poisoned agent is contained,
                // not consulted) and while the daemon is down.
                if !mon.is_quarantined() && !crash_stopped && !tf.ppm_down {
                    if let Err(surface) = policy.health_probe() {
                        incidents.push(Incident::Poison(surface));
                    }
                }
            }
            if audit_on || monitor.is_some() {
                if let Err(v) = mem.audit() {
                    if monitor.is_some() {
                        incidents.push(Incident::AuditViolation(v.to_string()));
                    } else {
                        if tele.is_enabled() {
                            tele.event(
                                now,
                                "runner",
                                Severity::Error,
                                "audit_violation",
                                &[("detail", v.to_string())],
                            );
                            if let Some(dump) = tele.dump_flight_recorder("audit violation") {
                                eprintln!("{dump}");
                            }
                        }
                        return Err(v.into());
                    }
                }
            }
            if interval_boundary && (audit_on || monitor.is_some() || tele.is_enabled()) {
                // Conservation across the partition plan: the bytes
                // the policy hands out must fit in FMem. `u64::MAX`
                // is the static policies' "everything" sentinel. The
                // plan total is also what telemetry reports, so it is
                // computed whenever either consumer wants it.
                let fmem_bytes = self.cfg.mem.fmem_bytes();
                let mut plan_bytes = 0u64;
                for o in obs.iter() {
                    if let Some(t) = policy.fmem_target(o.id) {
                        let t = if t == u64::MAX { fmem_bytes } else { t };
                        plan_bytes = plan_bytes.saturating_add(t);
                    }
                }
                if tele.is_enabled() {
                    tele.count("runner.intervals", 1);
                    tele.gauge("runner.plan_bytes", plan_bytes as f64);
                    tele.event(
                        now,
                        "runner",
                        Severity::Info,
                        "plan",
                        &[
                            ("plan_bytes", plan_bytes.to_string()),
                            ("fmem_bytes", fmem_bytes.to_string()),
                        ],
                    );
                }
                if (audit_on || monitor.is_some()) && plan_bytes > fmem_bytes {
                    let v = AuditViolation::PlanExceedsFmem {
                        plan_bytes,
                        fmem_bytes,
                    };
                    if monitor.is_some() {
                        incidents.push(Incident::AuditViolation(v.to_string()));
                    } else {
                        if tele.is_enabled() {
                            tele.event(
                                now,
                                "runner",
                                Severity::Error,
                                "audit_violation",
                                &[("detail", v.to_string())],
                            );
                            if let Some(dump) = tele.dump_flight_recorder("audit violation") {
                                eprintln!("{dump}");
                            }
                        }
                        return Err(v.into());
                    }
                }
            }

            // ---- Incident handling: autonomous recovery ----
            if !incidents.is_empty() {
                let mon = monitor.as_mut().expect("incidents require the monitor");
                handle_incidents(
                    &incidents,
                    now,
                    mon,
                    policy,
                    &mut mem,
                    &mut ckpt_store,
                    &mut ckpt_ring,
                    &mut last_good_gen,
                    &mut crash_stopped,
                    &tele,
                )?;
                // Post-recovery verification: if the substrate audit
                // still fails after the directive ran, the fault is
                // unrepairable and the run aborts as it would have
                // without the health subsystem.
                if let Err(v) = mem.audit() {
                    if tele.is_enabled() {
                        tele.event(
                            now,
                            "runner",
                            Severity::Error,
                            "audit_violation",
                            &[("detail", format!("unrepairable: {v}"))],
                        );
                        if let Some(dump) = tele.dump_flight_recorder("unrepairable violation") {
                            eprintln!("{dump}");
                        }
                    }
                    return Err(v.into());
                }
            }

            // Update the contention state for the next tick: workload
            // traffic split by tier plus migration traffic (which
            // touches both tiers).
            let mut fmem_demand = 0.0;
            let mut smem_demand = 0.0;
            for o in &obs {
                fmem_demand += BandwidthModel::demand_from_access_rate(o.access_rate * o.hit_ratio);
                smem_demand +=
                    BandwidthModel::demand_from_access_rate(o.access_rate * (1.0 - o.hit_ratio));
            }
            let mig_bw = engine.tick_bandwidth_bytes_per_sec();
            fmem_demand += mig_bw;
            smem_demand += mig_bw;
            fmem_util = bw.utilization(fmem_demand, true);
            smem_util = bw.utilization(smem_demand, false);
            if tele.is_enabled() {
                tele.gauge("runner.fmem_bw_util", fmem_util);
                tele.gauge("runner.smem_bw_util", smem_util);
                tele.gauge("runner.migration_bw_bytes_per_sec", mig_bw);
            }

            // ---- Record ----
            let fmem_bytes: Vec<u64> = std::iter::once(lc_id)
                .chain(be_ids.iter().copied())
                .map(|id| mem.fmem_bytes_of(id))
                .collect();
            ticks.push(TickRecord {
                t: now,
                lc_load_rps: load_rps,
                lc_p99: p99,
                lc_violated: violated,
                lc_fmem_ratio: lc_hit,
                fmem_bytes,
                be_throughput: be_thr_tick,
                migration_bw: engine.tick_bandwidth_bytes_per_sec(),
                fmem_bw_util: fmem_util,
                smem_bw_util: smem_util,
                degradation: policy.degradation(),
            });

            // ---- Live telemetry publication ----
            // Snapshots are rendered at interval boundaries (and on the
            // final tick) and handed to the hub whole; scrapes between
            // boundaries see the previous snapshot. Publication reads
            // sim state but writes none back.
            if let Some(hub) = &self.hub {
                if interval_boundary || tick_index + 1 == n_ticks {
                    if let Some(text) = tele.snapshot_prometheus(&[("policy", policy.name())]) {
                        hub.publish_metrics(text);
                    }
                    let (hstate, serving) = match &monitor {
                        Some(m) => (m.state().label(), !m.is_quarantined()),
                        None => ("healthy", true),
                    };
                    hub.publish_health(hstate, serving);
                    let firing: Vec<&str> = alert_engine
                        .as_ref()
                        .map(BurnRateEngine::firing)
                        .unwrap_or_default();
                    hub.publish_status(render_status(
                        policy.name(),
                        tick_index,
                        n_ticks,
                        now,
                        self.duration_secs,
                        phase.map(|p| (p.id, p.label.as_str())),
                        policy.degradation().map(|d| d.label()),
                        hstate,
                        &firing,
                        violated_ticks,
                    ));
                }
            }
        }

        debug_assert!(mem.check_invariants().is_ok(), "placement invariants");

        // The summary's final-audit verdict runs the *full* audit once,
        // unconditionally, so even runs with per-tick auditing disabled
        // report whether they ended consistent.
        let final_audit_ok = mem.audit().is_ok();
        let duration = n_ticks as f64 * tick_secs;
        Ok(RunResult {
            policy: policy.name().to_string(),
            lc_name: self.lc.name.clone(),
            be_names: self.bes.iter().map(|b| b.name.clone()).collect(),
            ticks,
            lc_requests,
            lc_violated_requests,
            be_avg_throughput: be_ops
                .iter()
                .map(|&o| if duration > 0.0 { o / duration } else { 0.0 })
                .collect(),
            be_perf_full: self
                .bes
                .iter()
                .map(|b| b.perf_full(self.cfg.mem.fmem_bytes(), page_size))
                .collect(),
            total_migration_bytes: engine.total_bytes_moved(),
            failed_moves: engine.failed_moves(),
            retried_moves: engine.retried_moves(),
            duration_secs: duration,
            tick_secs,
            health: monitor.map(|m| m.summary(final_audit_ok)),
            alerts: alert_engine
                .map(|e| e.transitions().iter().map(AlertRecord::from).collect())
                .unwrap_or_default(),
        })
    }

    /// Measures the maximum constant load (requests/s) the policy
    /// sustains without violating the SLO, per the paper's methodology:
    /// each probe runs `probe_secs`, the first `grace_secs` are excluded
    /// (policy convergence), and a load level passes if its violation
    /// rate stays at or below `tolerance`.
    ///
    /// The search scans *downward* from `hi_frac` in `scan_step`
    /// decrements until the first passing level, then bisects within the
    /// last failing gap. A top-down scan (rather than pure bisection)
    /// is robust to adaptive policies whose violation behaviour is not
    /// monotone in load — e.g. a policy that allocates aggressively only
    /// once the load is clearly high.
    pub fn find_max_load(
        &self,
        make_policy: &mut dyn FnMut() -> Box<dyn Policy>,
        opts: &MaxLoadSearch,
    ) -> f64 {
        let probe = |frac: f64, make_policy: &mut dyn FnMut() -> Box<dyn Policy>| -> bool {
            let mut exp = self.clone();
            exp.load = LoadPattern::Constant(frac);
            exp.duration_secs = opts.probe_secs;
            let mut policy = make_policy();
            let result = exp.run(policy.as_mut());
            result.violation_rate_after(opts.grace_secs) <= opts.tolerance
        };
        // Downward coarse scan.
        let mut frac = opts.hi_frac;
        let mut pass = None;
        while frac >= opts.lo_frac {
            if probe(frac, make_policy) {
                pass = Some(frac);
                break;
            }
            frac -= opts.scan_step;
        }
        let Some(mut lo) = pass else {
            return 0.0;
        };
        // Refine inside the gap (lo, lo + scan_step).
        let mut hi = (lo + opts.scan_step).min(opts.hi_frac);
        for _ in 0..opts.iterations {
            if hi - lo < 1e-4 {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if probe(mid, make_policy) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo * self.lc_max_ref
    }
}

/// Options for [`Experiment::find_max_load`].
#[derive(Debug, Clone)]
pub struct MaxLoadSearch {
    /// Length of each probe run (seconds).
    pub probe_secs: f64,
    /// Convergence window excluded from violation accounting (seconds).
    pub grace_secs: f64,
    /// Maximum tolerated violation rate.
    pub tolerance: f64,
    /// Lower bracket (fraction of the reference max load).
    pub lo_frac: f64,
    /// Upper bracket (fraction of the reference max load).
    pub hi_frac: f64,
    /// Coarse downward-scan step (fraction of the reference max load).
    pub scan_step: f64,
    /// Refinement bisection iterations inside the last failing gap.
    pub iterations: usize,
}

impl Default for MaxLoadSearch {
    fn default() -> Self {
        Self {
            probe_secs: 190.0,
            grace_secs: 70.0,
            tolerance: 0.01,
            lo_frac: 0.05,
            hi_frac: 1.05,
            scan_step: 0.05,
            iterations: 3,
        }
    }
}

/// The load multiplier a mean-one log-normal burst with parameter
/// `sigma` stays below 99 % of the time: `exp(2.326·σ − σ²/2)`. A
/// workload loaded at `knee / burst_headroom(σ)` therefore violates its
/// SLO on about 1 % of ticks — the tolerance used by
/// [`Experiment::find_max_load`].
pub fn burst_headroom(sigma: f64) -> f64 {
    if sigma <= 0.0 {
        1.0
    } else {
        (2.326 * sigma - sigma * sigma / 2.0).exp()
    }
}

/// Service time from explicit (possibly contention-inflated) tier
/// latencies, with a per-SMem-access penalty folded in.
fn service_time(
    cpu: f64,
    accesses: f64,
    hit_ratio: f64,
    lat_f: f64,
    lat_s: f64,
    smem_penalty: f64,
) -> f64 {
    let h = hit_ratio.clamp(0.0, 1.0);
    cpu + accesses * (h * lat_f + (1.0 - h) * (lat_s + smem_penalty))
}

/// Copies observations into a reusable buffer, reusing each entry's
/// existing `name` and `sampled` allocations instead of cloning fresh
/// ones (the per-page `sampled` vectors dominate the cost).
fn copy_obs_into(dst: &mut Vec<WorkloadObs>, src: &[WorkloadObs]) {
    dst.truncate(src.len());
    let filled = dst.len();
    for (d, s) in dst.iter_mut().zip(src) {
        d.id = s.id;
        d.class = s.class;
        d.name.clone_from(&s.name);
        d.rss_bytes = s.rss_bytes;
        d.cores = s.cores;
        d.load_rps = s.load_rps;
        d.p99_secs = s.p99_secs;
        d.slo_secs = s.slo_secs;
        d.hit_ratio = s.hit_ratio;
        d.access_rate = s.access_rate;
        d.throughput = s.throughput;
        d.sampled.clone_from(&s.sampled);
        d.touched.clone_from(&s.touched);
        d.slo_violated = s.slo_violated;
    }
    dst.extend(src[filled..].iter().cloned());
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::statics::StaticPolicy;
    use mtat_tiermem::{GIB, MIB};

    /// Small-scale workloads fitting the small test memory (1 GiB FMem,
    /// 8 GiB SMem, 1 MiB pages).
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

    fn experiment(load: LoadPattern) -> Experiment {
        Experiment::new(SimConfig::small_test(), small_lc(), load, vec![small_be()])
            .with_duration(30.0)
    }

    #[test]
    fn fmem_all_meets_slo_at_moderate_load() {
        let exp = experiment(LoadPattern::Constant(0.5));
        let mut p = StaticPolicy::fmem_all();
        let r = exp.run(&mut p);
        assert_eq!(r.policy, "fmem_all");
        assert_eq!(r.ticks.len(), 30);
        assert_eq!(
            r.violation_rate(),
            0.0,
            "worst p99 {}",
            r.worst_p99_after(0.0)
        );
        // LC holds the whole FMem (1 GiB of its 1.2 GiB set).
        assert!(r.mean_lc_fmem_ratio() > 0.8);
    }

    #[test]
    fn smem_all_violates_at_max_load() {
        let exp = experiment(LoadPattern::Constant(1.0));
        let mut p = StaticPolicy::smem_all();
        let r = exp.run(&mut p);
        // Reference max assumes full FMem; from SMem it saturates.
        assert!(
            r.violation_rate_after(10.0) > 0.5,
            "rate {}",
            r.violation_rate_after(10.0)
        );
        // And the BE workload picks up the FMem the LC cannot use.
        let last = r.final_tick().expect("run produced ticks");
        assert_eq!(last.fmem_bytes[0], 0);
        assert!(last.fmem_bytes[1] > 0);
    }

    #[test]
    fn be_throughput_reflects_fmem_share() {
        // Under FMEM_ALL the BE runs from SMem; under SMEM_ALL it gets
        // all of FMem and must be faster.
        let exp = experiment(LoadPattern::Constant(0.2));
        let r_fmem = exp.run(&mut StaticPolicy::fmem_all());
        let r_smem = exp.run(&mut StaticPolicy::smem_all());
        assert!(
            r_smem.be_avg_throughput[0] > r_fmem.be_avg_throughput[0] * 1.05,
            "{} vs {}",
            r_smem.be_avg_throughput[0],
            r_fmem.be_avg_throughput[0]
        );
        assert!(r_smem.fairness() > r_fmem.fairness());
    }

    #[test]
    fn find_max_load_orders_policies() {
        let exp = experiment(LoadPattern::Constant(1.0));
        let opts = MaxLoadSearch {
            probe_secs: 20.0,
            grace_secs: 8.0,
            scan_step: 0.1,
            iterations: 4,
            ..MaxLoadSearch::default()
        };
        let max_fmem = exp.find_max_load(&mut || Box::new(StaticPolicy::fmem_all()), &opts);
        let max_smem = exp.find_max_load(&mut || Box::new(StaticPolicy::smem_all()), &opts);
        assert!(max_fmem > 0.0);
        assert!(
            max_smem < max_fmem,
            "SMem-only max {max_smem} must lag FMem-pinned {max_fmem}"
        );
    }

    #[test]
    fn burstiness_is_mean_preserving() {
        let mut cfg = SimConfig::small_test();
        cfg.burst_sigma = 0.3;
        let exp = Experiment::new(cfg, small_lc(), LoadPattern::Constant(0.5), vec![])
            .with_duration(200.0);
        let mut p = StaticPolicy::fmem_all();
        let r = exp.run(&mut p);
        let mean_load: f64 =
            r.ticks.iter().map(|t| t.lc_load_rps).sum::<f64>() / r.ticks.len() as f64;
        let offered = 0.5 * exp.lc_max_ref;
        assert!(
            (mean_load / offered - 1.0).abs() < 0.1,
            "mean {mean_load} vs offered {offered}"
        );
    }

    #[test]
    fn migration_accounting_is_reported() {
        let exp = experiment(LoadPattern::Constant(0.3));
        let mut p = StaticPolicy::smem_all(); // evicting LC costs bandwidth
        let r = exp.run(&mut p);
        assert!(r.total_migration_bytes > 0);
        assert!(r.avg_migration_bw() > 0.0);
        assert!(r.avg_migration_bw() <= exp.cfg.migration_bw);
    }

    /// A sampler period below one or NaN, or a migration bandwidth that
    /// is zero or NaN, fails `try_run` with an `InvalidConfig` naming the
    /// parameter instead of panicking.
    #[test]
    fn bad_sampler_or_migration_config_is_a_typed_error() {
        let bw = SimConfig::small_test().migration_bw;
        let period = SimConfig::small_test().sampler_period;
        for (sampler_period, migration_bw, what) in [
            (0.5, bw, "sampling period"),
            (f64::NAN, bw, "sampling period"),
            (period, 0.0, "bandwidth_bytes_per_sec"),
            (period, f64::NAN, "bandwidth_bytes_per_sec"),
        ] {
            let mut exp = experiment(LoadPattern::Constant(0.5));
            exp.cfg.sampler_period = sampler_period;
            exp.cfg.migration_bw = migration_bw;
            let err = exp.try_run(&mut StaticPolicy::fmem_all()).err();
            assert!(
                matches!(err, Some(TierMemError::InvalidConfig { what: w, .. }) if w == what),
                "sampler_period {sampler_period}, migration_bw {migration_bw}: {err:?}"
            );
        }
    }

    #[test]
    fn service_time_adds_smem_cost() {
        let lat_f = 73e-9;
        let lat_s = 202e-9;
        let base = service_time(1e-6, 10.0, 0.5, lat_f, lat_s, 0.0);
        let pen = service_time(1e-6, 10.0, 0.5, lat_f, lat_s, 100e-9);
        // 10 accesses × 0.5 smem × 100ns = 500ns.
        assert!((pen - base - 500e-9).abs() < 1e-15);
        // At hit ratio 1 the penalty disappears.
        assert_eq!(
            service_time(1e-6, 10.0, 1.0, lat_f, lat_s, 100e-9),
            service_time(1e-6, 10.0, 1.0, lat_f, lat_s, 0.0)
        );
        // Inflated latencies raise the service time.
        assert!(service_time(1e-6, 10.0, 0.5, lat_f * 2.0, lat_s * 2.0, 0.0) > base);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = FaultPlan::new(77)
            .with(FaultKind::SamplerBlackout, 5.0, 10.0)
            .with(FaultKind::MigrationFlaky { prob: 0.4 }, 0.0, 30.0)
            .with(FaultKind::TelemetryNoise { amplitude: 0.2 }, 0.0, 30.0)
            .with(FaultKind::TelemetryStale { ticks: 2 }, 10.0, 10.0);
        let exp = experiment(LoadPattern::Constant(0.5)).with_fault_plan(plan);
        let a = exp.run(&mut StaticPolicy::smem_all());
        let b = exp.run(&mut StaticPolicy::smem_all());
        assert_eq!(a.ticks.len(), b.ticks.len());
        for (x, y) in a.ticks.iter().zip(&b.ticks) {
            assert_eq!(x.lc_p99.to_bits(), y.lc_p99.to_bits());
            assert_eq!(x.fmem_bytes, y.fmem_bytes);
        }
        assert_eq!(a.failed_moves, b.failed_moves);
    }

    #[test]
    fn bandwidth_spike_inflates_latency() {
        let plan = FaultPlan::new(1).with(FaultKind::BandwidthSpike { extra: 0.9 }, 10.0, 10.0);
        let calm = experiment(LoadPattern::Constant(0.6));
        let spiky = calm.clone().with_fault_plan(plan);
        let r_calm = calm.run(&mut StaticPolicy::fmem_all());
        let r_spiky = spiky.run(&mut StaticPolicy::fmem_all());
        // Outside the window the runs agree; inside, latency is worse.
        assert_eq!(
            r_calm.ticks[5].lc_p99.to_bits(),
            r_spiky.ticks[5].lc_p99.to_bits()
        );
        assert!(
            r_spiky.ticks[15].lc_p99 > r_calm.ticks[15].lc_p99,
            "{} !> {}",
            r_spiky.ticks[15].lc_p99,
            r_calm.ticks[15].lc_p99
        );
    }

    #[test]
    fn migration_stall_blocks_all_moves() {
        let plan = FaultPlan::new(2).with(FaultKind::MigrationStall, 0.0, 1e9);
        let exp = experiment(LoadPattern::Constant(0.3)).with_fault_plan(plan);
        // smem_all evicts the LC set, which normally costs bandwidth
        // (see migration_accounting_is_reported); a full stall stops it.
        let r = exp.run(&mut StaticPolicy::smem_all());
        assert_eq!(r.total_migration_bytes, 0);
        assert_eq!(
            r.failed_moves, 0,
            "stall starves budget, it does not fail moves"
        );
    }

    #[test]
    fn flaky_migration_surfaces_failed_moves() {
        let plan = FaultPlan::new(3).with(FaultKind::MigrationFlaky { prob: 0.5 }, 0.0, 1e9);
        let exp = experiment(LoadPattern::Constant(0.3)).with_fault_plan(plan);
        let r = exp.run(&mut StaticPolicy::smem_all());
        assert!(r.failed_moves > 0, "half the granted moves should fail");
        let r_clean = experiment(LoadPattern::Constant(0.3)).run(&mut StaticPolicy::smem_all());
        assert_eq!(r_clean.failed_moves, 0);
    }

    #[test]
    fn workload_names_and_order_in_result() {
        let exp = experiment(LoadPattern::Constant(0.2));
        let r = exp.run(&mut StaticPolicy::fmem_all());
        assert_eq!(r.lc_name, "redis");
        assert_eq!(r.be_names, vec!["sssp".to_string()]);
        assert_eq!(r.be_perf_full.len(), 1);
        assert!(r.be_perf_full[0] > 0.0);
        let _ = MIB; // keep the import used in all cfg combinations
    }
}
