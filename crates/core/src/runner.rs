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
//!
//! A tick runs fixed stages in order, each a struct owning its state and
//! each under its own span: `scenario` → `faults` → `physics` → `alerts`
//! → `fault-view` → `policy` → `checkpoint` → `health` → `contention` →
//! `record` → `publish`. An optional feature is an absent stage, not a
//! branch; an empty fault plan's [`TickFaults::nominal`] effects change
//! nothing, so the fault stage always runs.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mtat_obs::alert::{AlertRule, AlertState, BurnRateEngine};
use mtat_obs::event::Severity;
use mtat_obs::export::{json_f64, json_string};
use mtat_obs::registry::GaugeMerge;
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_rl::policy::standard_normal;
use mtat_snapshot::{seal, CheckpointStore, SnapError};
use mtat_tiermem::bandwidth::BandwidthModel;
use mtat_tiermem::error::TierMemError;
use mtat_tiermem::faults::{FaultInjector, FaultKind, FaultPlan, TickFaults};
use mtat_tiermem::memory::{MemorySpec, TieredMemory};
use mtat_tiermem::migration::MigrationEngine;
use mtat_tiermem::sampler::{AccessSampler, WeightTable};
use mtat_tiermem::{audit_enabled, latency, AuditViolation, WorkloadId};
use mtat_tiermem::{FMEM_LATENCY_NS, SMEM_LATENCY_NS};
use mtat_workloads::access::{Popularity, RawWeights};
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::{PopMutation, ScenarioPhase, ScenarioSchedule, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// Fault-injection schedule. Defaults to [`FaultPlan::none`], whose
    /// every tick is [`mtat_tiermem::faults::TickFaults::nominal`] — the
    /// run is bit-identical to one without the fault layer.
    pub fault_plan: FaultPlan,
    /// PP-M checkpointing configuration. `None` (the default) disables
    /// checkpoint capture; a crashed controller then restarts cold.
    pub checkpoints: Option<CheckpointCfg>,
    /// Explicit telemetry handle. `None` (the default) defers to the
    /// `MTAT_OBS` environment variable ([`Obs::from_env`]); harnesses
    /// that need one registry per matrix cell attach their own handle.
    /// Telemetry never feeds back into simulation physics — runs are
    /// bit-identical with observability on or off.
    pub obs: Option<Obs>,
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
    /// Each BE's set-up inputs, shared with other experiments on the
    /// same BEs and memory. `None` (the default) builds them at run
    /// start; either way the run is the same to the bit.
    pub be_inputs: Option<Arc<BeInputs>>,
}

/// Each BE's set-up inputs: its set-up popularity (which the runner
/// registers with the page table, and MTAT profiles from there), the
/// sampler's weight table over it, and `Perf_full` (Eq. 3). They depend
/// only on the BE list and the memory's page size and FMem capacity,
/// so experiments that agree on those — a fleet's shards — can build
/// one set and share it ([`Experiment::with_be_inputs`]).
#[derive(Debug)]
pub struct BeInputs {
    bes: Vec<BeSpec>,
    page_size: u64,
    fmem_bytes: u64,
    pops: Vec<Popularity>,
    tables: Vec<WeightTable>,
    perf_full: Vec<f64>,
}

impl BeInputs {
    /// Builds the inputs of `bes` on a memory of shape `mem`: one
    /// popularity per BE over [`BeSpec::n_pages`] ranks, hottest first.
    pub fn new(bes: &[BeSpec], mem: &MemorySpec) -> Self {
        let (page_size, fmem_bytes) = (mem.page_size(), mem.fmem_bytes());
        let mut pops = Vec::with_capacity(bes.len());
        let mut tables = Vec::with_capacity(bes.len());
        let mut perf_full = Vec::with_capacity(bes.len());
        for spec in bes {
            let pop = spec.popularity(spec.n_pages(page_size));
            perf_full.push(spec.throughput_at_alloc(&pop, fmem_bytes, page_size));
            tables.push(pop.to_weight_table());
            pops.push(pop);
        }
        Self {
            bes: bes.to_vec(),
            page_size,
            fmem_bytes,
            pops,
            tables,
            perf_full,
        }
    }

    /// Whether these inputs were built for `bes` on a memory with
    /// `mem`'s page size and FMem capacity.
    fn covers(&self, bes: &[BeSpec], mem: &MemorySpec) -> bool {
        self.bes == bes && self.page_size == mem.page_size() && self.fmem_bytes == mem.fmem_bytes()
    }

    /// Registers each BE's popularity with the page table, the `i`-th
    /// for workload `ids[i]`.
    fn register(&self, mem: &mut TieredMemory, ids: &[WorkloadId]) -> Result<(), TierMemError> {
        for (pop, &id) in self.pops.iter().zip(ids) {
            mem.register_popularity(id, pop.weights())?;
        }
        Ok(())
    }
}

/// Checkpointing and crash-recovery configuration for a run.
///
/// PP-M control state is captured at partitioning-interval boundaries —
/// the natural decision boundary: the per-interval accumulators have
/// just been reset and the new plan handed to PP-E, so restoring such a
/// checkpoint resumes *bit-identically* with the uninterrupted run.
/// Checkpoints are sealed in the versioned, checksummed envelope of
/// [`mtat_snapshot`]; the newest three generations are kept, and a
/// restart falls back to older generations when newer ones are corrupt.
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// Capture a checkpoint every this many partitioning intervals
    /// (values below 1 are treated as 1).
    pub every_intervals: u64,
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
    /// In-memory checkpointing: every interval.
    pub fn in_memory() -> Self {
        Self {
            every_intervals: 1,
            dir: None,
            restart_probe_at: None,
        }
    }

    /// On-disk checkpointing under `dir`: every interval.
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

    /// Arms the bit-identity restart probe (see
    /// [`Self::restart_probe_at`]).
    pub fn with_restart_probe(mut self, at_secs: f64) -> Self {
        self.restart_probe_at = Some(at_secs);
        self
    }
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
            checkpoints: None,
            obs: None,
            health: None,
            scenario: None,
            hub: None,
            alerts: None,
            be_inputs: None,
        }
    }

    /// Overrides the run length.
    pub fn with_duration(mut self, secs: f64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Installs a fault-injection schedule (see [`mtat_tiermem::faults`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
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

    /// Runs on `inputs` instead of building each BE's set-up inputs (see
    /// [`Experiment::be_inputs`]). [`Self::try_run`] fails with
    /// [`TierMemError::InvalidConfig`] unless they were built for this
    /// experiment's BEs, page size and FMem capacity.
    pub fn with_be_inputs(mut self, inputs: Arc<BeInputs>) -> Self {
        self.be_inputs = Some(inputs);
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
    /// scenario, BE inputs built for other BEs or another memory, a
    /// tick length that is not positive and finite, a
    /// duration that is not finite and non-negative, a tick count whose
    /// record buffer cannot be reserved, a sampler period that is not a
    /// finite number of at least one, or a migration bandwidth that is
    /// not positive and finite — misconfigured experiments surface as
    /// typed errors so a matrix harness can fail one cell without
    /// `catch_unwind`.
    pub fn try_run(&self, policy: &mut dyn Policy) -> Result<RunResult, TierMemError> {
        let tick_secs = self.cfg.tick_secs;
        if !(tick_secs.is_finite() && tick_secs > 0.0) {
            return Err(TierMemError::InvalidConfig {
                what: "tick_secs",
                detail: format!("must be positive and finite, got {tick_secs}"),
            });
        }
        if !(self.duration_secs.is_finite() && self.duration_secs >= 0.0) {
            return Err(TierMemError::InvalidConfig {
                what: "duration_secs",
                detail: format!(
                    "must be finite and non-negative, got {}",
                    self.duration_secs
                ),
            });
        }
        let n_ticks = (self.duration_secs / tick_secs).round() as u64;
        let mut ticks: Vec<TickRecord> = Vec::new();
        usize::try_from(n_ticks)
            .ok()
            .and_then(|n| ticks.try_reserve_exact(n).ok())
            .ok_or_else(|| TierMemError::InvalidConfig {
                what: "duration_secs",
                detail: format!("{n_ticks} ticks of {tick_secs} s do not fit in memory"),
            })?;
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

        // Set-up popularity distributions, hottest-first by rank (an
        // adversarial scenario re-registers new ones at phase
        // boundaries), from the supplied BE inputs or ones built here.
        // The weights are registered with the page table so each BE's
        // FMem hit ratio is an incrementally maintained counter (O(1)
        // per migration) instead of an O(pages) rescan per tick; the
        // sampler draws from the inputs' weight tables until a scenario
        // phase replaces one. Inputs built here drop their popularities
        // once registered, so a run holds no second copy of the weights.
        let (be_tables, be_perf_full) = match &self.be_inputs {
            Some(shared) if shared.covers(&self.bes, &self.cfg.mem) => {
                shared.register(&mut mem, &be_ids)?;
                let tables = shared.tables.iter().map(Cow::Borrowed).collect();
                (tables, shared.perf_full.clone())
            }
            Some(_) => {
                return Err(TierMemError::InvalidConfig {
                    what: "be_inputs",
                    detail: "built for other BEs, page size or FMem capacity".to_string(),
                })
            }
            None => {
                let own = BeInputs::new(&self.bes, &self.cfg.mem);
                own.register(&mut mem, &be_ids)?;
                let tables = own.tables.into_iter().map(Cow::Owned).collect();
                (tables, own.perf_full)
            }
        };
        let mut scenario = self
            .scenario
            .as_ref()
            .map(|spec| Scenario::new(spec, self, &be_ids, &mem))
            .transpose()?;

        let mut sampler = AccessSampler::new(self.cfg.sampler_period, self.cfg.seed ^ 0x5A)?;
        let mut engine =
            MigrationEngine::new(self.cfg.migration_bw, page_size, self.cfg.interval_secs)?;
        let mut faults = Faults::new(&self.fault_plan, &mut engine, be_ids.first().copied());

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
        // The hub also tails every obs event into its SSE ring.
        if let Some(hub) = &self.hub {
            tele.attach_hub(hub);
        }
        let mut alerts = self.alerts.clone().map(Alerts::new);
        // Root span for the whole run; every per-tick span nests under
        // it. Closed by the guard when `try_run` returns.
        let _run_span = tele.span(0.0, "run");

        let mut obs = self.initial_obs(&mem, lc_id, &be_ids);
        policy.init(&mem, &obs);
        let mut physics = Physics::new(self, be_tables, policy.wants_page_samples());
        let mut ckpt = self
            .checkpoints
            .as_ref()
            .map(Checkpoints::new)
            .transpose()?;
        let mut health = self.health.clone().map(Health::new);
        let audit_on = audit_enabled() || health.is_some();
        let publish = self.hub.clone().map(|hub| Publish {
            hub,
            n_ticks,
            duration_secs: self.duration_secs,
        });
        let ticks_per_interval = self.cfg.ticks_per_interval();

        for index in 0..n_ticks {
            let now = index as f64 * tick_secs;
            let _tick_span = tele.span(now, "tick");
            let mut t = Tick {
                index,
                now,
                boundary: index > 0 && index % ticks_per_interval == 0,
                phase: None,
                tele: &tele,
            };
            if let Some(s) = &mut scenario {
                let _stage = tele.span(now, "scenario");
                t.phase = Some(s.advance(&t, &self.bes, &mut mem, &mut physics.tables)?);
            }
            let dead = health.as_ref().is_some_and(|h| h.crash_stopped);
            let tf = {
                let _stage = tele.span(now, "faults");
                let h = health.as_ref();
                faults.begin_tick(&t, &mut sampler, policy, &mut mem, ckpt.as_ref(), h)?
            };
            let (offered, mut record) = {
                let _stage = tele.span(now, "physics");
                let extra = tf.bandwidth_extra_util;
                physics.tick(&t, extra, &mem, policy, &mut sampler, &mut obs)
            };
            if let Some(a) = &mut alerts {
                let _stage = tele.span(now, "alerts");
                a.observe(&t, offered * tick_secs, record.lc_violated);
            }
            let (view, obs_age_ticks) = {
                let _stage = tele.span(now, "fault-view");
                faults.view(&tf, &obs)
            };
            {
                let _stage = tele.span(now, "policy");
                engine.set_tick_faults(tf.migration_bw_factor, tf.migration_fail_prob);
                engine.begin_tick(tick_secs);
                policy.on_tick(&mut SimState {
                    mem: &mut mem,
                    migration: &mut engine,
                    workloads: view,
                    tick_secs,
                    now_secs: now,
                    interval_boundary: t.boundary,
                    obs_age_ticks,
                    fmem_bw_util: physics.fmem_util,
                    smem_bw_util: physics.smem_util,
                    scenario_phase: t.phase.map_or(0, |p| p.id),
                });
            }
            // While the controller is down nothing is captured: there is
            // no daemon to ask.
            if let Some(c) = ckpt
                .as_mut()
                .filter(|_| t.boundary && !tf.ppm_down && !dead)
            {
                let _stage = tele.span(now, "checkpoint");
                c.capture(&t, &tf, policy, &mem, health.as_ref().map(|h| &h.monitor))?;
            }
            {
                let _stage = tele.span(now, "health");
                if let Some(h) = &mut health {
                    h.sentinels(&t, record.lc_violated, &tf, policy);
                }
                let incidents = health.as_mut().map(|h| &mut h.incidents);
                audit(&t, audit_on, &mem, policy, &obs, incidents)?;
                if let Some(h) = &mut health {
                    let held = h.recover(&t, policy, &mut mem, ckpt.as_mut(), tf.ppm_down)?;
                    faults.rolled_back_while_down |= held;
                }
            }
            {
                let _stage = tele.span(now, "contention");
                physics.contend(&t, &obs, &engine);
            }
            {
                let _stage = tele.span(now, "record");
                record.fmem_bytes = obs.iter().map(|o| mem.fmem_bytes_of(o.id)).collect();
                record.migration_bw = engine.tick_bandwidth_bytes_per_sec();
                record.fmem_bw_util = physics.fmem_util;
                record.smem_bw_util = physics.smem_util;
                record.degradation = policy.degradation();
                ticks.push(record);
            }
            if let Some(p) = &publish {
                let _stage = tele.span(now, "publish");
                let monitor = health.as_ref().map(|h| &h.monitor);
                p.publish(&t, policy, monitor, alerts.as_ref(), physics.violated_ticks);
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
            lc_requests: physics.lc_requests,
            lc_violated_requests: physics.lc_violated_requests,
            be_avg_throughput: physics
                .be_ops
                .iter()
                .map(|&o| if duration > 0.0 { o / duration } else { 0.0 })
                .collect(),
            be_perf_full,
            total_migration_bytes: engine.total_bytes_moved(),
            failed_moves: engine.failed_moves(),
            retried_moves: engine.retried_moves(),
            duration_secs: duration,
            tick_secs,
            health: health.map(|h| h.monitor.summary(final_audit_ok)),
            alerts: alerts.map(|a| a.records()).unwrap_or_default(),
        })
    }

    /// The observations before the first tick: the LC first, then each
    /// BE, every per-page sample count zero.
    fn initial_obs(
        &self,
        mem: &TieredMemory,
        lc: WorkloadId,
        bes: &[WorkloadId],
    ) -> Vec<WorkloadObs> {
        let blank = |id| WorkloadObs {
            id,
            class: WorkloadClass::Be,
            name: String::new(),
            rss_bytes: 0,
            cores: 0,
            load_rps: 0.0,
            p99_secs: 0.0,
            slo_secs: f64::INFINITY,
            hit_ratio: 0.0,
            access_rate: 0.0,
            throughput: 0.0,
            sampled: vec![0; mem.region(id).len()],
            touched: Default::default(),
            slo_violated: false,
        };
        let mut obs = Vec::with_capacity(1 + bes.len());
        obs.push(WorkloadObs {
            class: WorkloadClass::Lc,
            name: self.lc.name.clone(),
            rss_bytes: self.lc.rss_bytes,
            cores: self.lc.cores,
            slo_secs: self.lc.slo_secs,
            hit_ratio: mem.residency(lc).fmem_usage_ratio(),
            ..blank(lc)
        });
        for (spec, &id) in self.bes.iter().zip(bes) {
            obs.push(WorkloadObs {
                name: spec.name.clone(),
                rss_bytes: spec.rss_bytes,
                cores: spec.cores,
                ..blank(id)
            });
        }
        obs
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

/// What every stage may read about the current tick.
struct Tick<'a> {
    index: u64,
    now: f64,
    /// The tick starts a partitioning interval (never tick 0).
    boundary: bool,
    phase: Option<&'a ScenarioPhase>,
    tele: &'a Obs,
}

fn checkpoint_err(e: SnapError) -> TierMemError {
    TierMemError::Checkpoint(e.to_string())
}

/// Restarts PP-M from the `saved` checkpoint payload, or cold without
/// one — the one restore path of a crash-restart edge, a health rollback
/// and the restart probe. Quarantine is terminal across every restore: a
/// controller the health monitor has `quarantined` re-enters quarantine
/// at `now`, whatever the payload held. A daemon that a `PpmCrash`
/// window still holds down (`down`) is restored but stays down until the
/// window ends.
fn restore_controller(
    policy: &mut dyn Policy,
    mem: &TieredMemory,
    saved: Option<&[u8]>,
    down: bool,
    quarantined: bool,
    now: f64,
) {
    policy.on_controller_crash();
    policy.on_controller_restart(mem, saved);
    if quarantined {
        policy.enter_quarantine(now);
    }
    if down {
        policy.on_controller_crash();
    }
}

/// Fail-stops the run on an audit violation nothing will recover: logs
/// it, prints the flight recorder to stderr and returns the error.
/// `unrepairable` marks a violation that survived its health directive.
fn audit_abort(tele: &Obs, now: f64, v: AuditViolation, unrepairable: bool) -> TierMemError {
    if tele.is_enabled() {
        let (detail, reason) = if unrepairable {
            (format!("unrepairable: {v}"), "unrepairable violation")
        } else {
            (v.to_string(), "audit violation")
        };
        let kv = [("detail", detail)];
        tele.event(now, "runner", Severity::Error, "audit_violation", &kv);
        if let Some(dump) = tele.dump_flight_recorder(reason) {
            eprintln!("{dump}");
        }
    }
    v.into()
}

/// Adversarial scenario: the compiled schedule and the popularity
/// mutation each BE currently runs under.
struct Scenario {
    schedule: ScenarioSchedule,
    /// Id of the phase in force (0 before the first tick).
    phase: u32,
    /// Per BE: its id, the mutation it runs under, and its raw weights,
    /// computed at the first phase that needs a pattern and reused by
    /// every later phase with it.
    bes: Vec<(WorkloadId, Option<PopMutation>, RawWeights)>,
}

impl Scenario {
    /// Compiles `spec` into a deterministic piecewise-constant schedule
    /// up front, so a malformed spec fails the run (and its matrix
    /// cell) cleanly before any tick executes.
    fn new(
        spec: &ScenarioSpec,
        exp: &Experiment,
        be_ids: &[WorkloadId],
        mem: &TieredMemory,
    ) -> Result<Self, TierMemError> {
        let schedule = spec
            .compile(exp.cfg.tick_secs, exp.duration_secs, exp.bes.len())
            .map_err(|e| TierMemError::InvalidConfig {
                what: "scenario",
                detail: e.to_string(),
            })?;
        let bes = be_ids
            .iter()
            .map(|&id| (id, None, RawWeights::new(mem.region(id).len())));
        Ok(Self {
            schedule,
            phase: 0,
            bes: bes.collect(),
        })
    }

    /// Enters the phase covering this tick. The scenario mutates the
    /// *workload*, not the policy's view: at a phase boundary the
    /// mutated BE popularity is materialized and re-registered (the
    /// incremental resident mass recomputes from current placement, so
    /// accounting stays exact), the sampler weight `tables` are rebuilt,
    /// and the new phase is announced on the obs stream.
    fn advance(
        &mut self,
        t: &Tick,
        bes: &[BeSpec],
        mem: &mut TieredMemory,
        tables: &mut [Cow<'_, WeightTable>],
    ) -> Result<&ScenarioPhase, TierMemError> {
        let ph = self.schedule.phase_at(t.index);
        if ph.id == self.phase {
            return Ok(ph);
        }
        for (bi, (spec, (id, cur, raw))) in bes.iter().zip(&mut self.bes).enumerate() {
            let want = ph.be[bi].pop;
            if want == *cur {
                continue;
            }
            let pop = want
                .unwrap_or_default()
                .materialize(spec.pattern, raw)
                .map_err(|e| TierMemError::InvalidConfig {
                    what: "scenario popularity",
                    detail: e.to_string(),
                })?;
            mem.register_popularity(*id, pop.weights())?;
            tables[bi] = Cow::Owned(pop.to_weight_table());
            *cur = want;
        }
        self.phase = ph.id;
        if t.tele.is_enabled() {
            t.tele.count("runner.scenario_phases", 1);
            t.tele.event(
                t.now,
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
        Ok(ph)
    }
}

/// Fault injection: this tick's effects and their edges, and the
/// degraded view of the observations the policy reads.
struct Faults {
    injector: FaultInjector,
    /// The workload whose popularity mass `AccumulatorDrift` perturbs:
    /// the first BE.
    drift_target: Option<WorkloadId>,
    ppm_was_down: bool,
    /// A health rollback restored the daemon while a `PpmCrash` window
    /// held it down; the window-end restart re-enters conservatively.
    rolled_back_while_down: bool,
    poison_was: bool,
    /// Observation snapshots kept for delayed telemetry: one more than
    /// the longest `TelemetryStale` delay, so 1 (none kept) without one.
    max_history: usize,
    history: VecDeque<Vec<WorkloadObs>>,
    /// The degraded copy, a buffer reused across ticks.
    degraded: Vec<WorkloadObs>,
}

impl Faults {
    /// Arms `plan`, seeding the migration engine's per-move failure
    /// stream from it.
    fn new(plan: &FaultPlan, engine: &mut MigrationEngine, drift: Option<WorkloadId>) -> Self {
        engine.set_fault_seed(plan.seed);
        let stale = plan.windows.iter().map(|w| match w.kind {
            FaultKind::TelemetryStale { ticks } => ticks as usize,
            _ => 0,
        });
        let max_history = 1 + stale.max().unwrap_or(0);
        Self {
            injector: FaultInjector::new(plan.clone()),
            drift_target: drift,
            ppm_was_down: false,
            rolled_back_while_down: false,
            poison_was: false,
            max_history,
            history: VecDeque::with_capacity(max_history),
            degraded: Vec::new(),
        }
    }

    /// Computes and applies this tick's effects: the sampler's blackout
    /// and dropout, PP-M crash and restart edges, SAC poisoning and
    /// accumulator drift; a daemon the health monitor crash-stopped sees
    /// neither edges nor poison. A `PpmCrash` window models the user-space
    /// daemon dying while the in-kernel PP-E keeps enforcing its last
    /// plan; on recovery a fresh daemon reloads the newest checkpoint
    /// generation that verifies, or restarts cold, and after a rollback
    /// inside the window re-enters as after any rollback. A quarantine
    /// the monitor entered meanwhile holds: the restore re-enters it, and
    /// the supervisor's latch ignores the rollback's demotion.
    fn begin_tick(
        &mut self,
        t: &Tick,
        sampler: &mut AccessSampler,
        policy: &mut dyn Policy,
        mem: &mut TieredMemory,
        ckpt: Option<&Checkpoints>,
        health: Option<&Health>,
    ) -> Result<TickFaults, TierMemError> {
        let tele = t.tele;
        let dead = health.is_some_and(|h| h.crash_stopped);
        let quarantined = health.is_some_and(|h| h.monitor.is_quarantined());
        let tf = self.injector.begin_tick(t.now);
        sampler.set_fault_state(tf.sampler_blackout, tf.sampler_keep);
        if !dead && tf.ppm_down != self.ppm_was_down {
            if tf.ppm_down {
                policy.on_controller_crash();
                tele.count("runner.ppm_crashes", 1);
                tele.event(t.now, "runner", Severity::Warn, "ppm_crash", &[]);
                tele.dump_flight_recorder("ppm crash");
            } else {
                let restore_t0 = Instant::now();
                let store = ckpt.map(|c| &c.store);
                let latest = store.map(CheckpointStore::load_latest_with_generation);
                let latest = latest.transpose().map_err(checkpoint_err)?.flatten();
                if tele.is_enabled() {
                    tele.count("runner.ppm_restarts", 1);
                    tele.observe("ckpt.restore_ns", elapsed_ns(restore_t0));
                    let on_disk = store.is_some_and(|s| s.dir().is_some());
                    let source = match (&latest, on_disk) {
                        (None, _) => "cold",
                        (Some(_), true) => "disk",
                        (Some(_), false) => "ring",
                    };
                    let (generation, bytes) = latest
                        .as_ref()
                        .map_or(("-".to_string(), 0), |(g, p)| (g.to_string(), p.len()));
                    tele.event(
                        t.now,
                        "runner",
                        Severity::Warn,
                        "ppm_restart",
                        &[
                            ("source", source.to_string()),
                            ("generation", generation),
                            ("payload_bytes", bytes.to_string()),
                        ],
                    );
                    tele.dump_flight_recorder("ppm restart");
                }
                let payload = latest.as_ref().map(|(_, p)| p.as_slice());
                restore_controller(policy, mem, payload, false, quarantined, t.now);
                if std::mem::take(&mut self.rolled_back_while_down) {
                    policy.after_rollback(t.now);
                }
            }
            self.ppm_was_down = tf.ppm_down;
        }
        // SAC poisoning corrupts once per window (rising edge): the NaN
        // parameters persist until a rollback restores a clean
        // checkpoint, exactly like a corrupted weight load would.
        if tf.sac_poison && !self.poison_was && !dead && !tf.ppm_down {
            policy.inject_poison();
            tele.count("runner.sac_poisons", 1);
            tele.event(t.now, "runner", Severity::Warn, "sac_poison", &[]);
        }
        self.poison_was = tf.sac_poison;
        if let Some(id) = self.drift_target.filter(|_| tf.accum_drift != 0.0) {
            mem.debug_corrupt_popularity(id, tf.accum_drift);
        }
        Ok(tf)
    }

    /// The observations the policy reads this tick, and their age in
    /// ticks. Under telemetry faults the policy sees a degraded copy:
    /// delayed (staleness), blinded (a blackout hides the access stream
    /// while P99 and throughput stay live), and noisy; the physics
    /// always use the true values. The copy is built only on ticks
    /// where some fault distorts it; otherwise the policy reads `obs`.
    fn view<'a>(&'a mut self, tf: &TickFaults, obs: &'a [WorkloadObs]) -> (&'a [WorkloadObs], u64) {
        if self.max_history > 1 {
            let mut snap = if self.history.len() == self.max_history {
                self.history.pop_front().expect("ring is full")
            } else {
                Vec::new()
            };
            copy_obs_into(&mut snap, obs);
            self.history.push_back(snap);
        }
        let delay = (tf.telemetry_delay_ticks as usize).min(self.history.len().saturating_sub(1));
        let degraded = delay > 0 || tf.sampler_blackout || tf.telemetry_noise_amp > 0.0;
        if !degraded {
            return (obs, 0);
        }
        let src: &[WorkloadObs] = if delay > 0 {
            &self.history[self.history.len() - 1 - delay]
        } else {
            obs
        };
        copy_obs_into(&mut self.degraded, src);
        if tf.sampler_blackout {
            for o in &mut self.degraded {
                o.access_rate = 0.0;
                o.sampled.fill(0);
            }
        }
        if tf.telemetry_noise_amp > 0.0 {
            for o in &mut self.degraded {
                o.p99_secs *= self.injector.noise_factor(tf.telemetry_noise_amp);
                o.throughput *= self.injector.noise_factor(tf.telemetry_noise_amp);
                o.slo_violated = o.p99_secs > o.slo_secs;
            }
        }
        (&self.degraded, delay as u64)
    }
}

/// LC and BE physics: offered load and bursts, service times from the
/// actual placement under bandwidth contention, SLO and throughput
/// accounting, and the tick's page sampling.
struct Physics<'a> {
    exp: &'a Experiment,
    burst_rng: StdRng,
    /// Whether the policy reads per-page sampled counts. When it does
    /// not (e.g. FMEM_ALL), the whole PEBS pass is skipped — the physics
    /// never read `sampled`, so outputs are identical.
    sample_pages: bool,
    /// Each BE's sampler weight table: the BE inputs' until a scenario
    /// phase builds its own.
    tables: Vec<Cow<'a, WeightTable>>,
    /// Last tick's per-tier bandwidth utilization (see
    /// [`Physics::contend`]).
    fmem_util: f64,
    smem_util: f64,
    lc_requests: f64,
    lc_violated_requests: f64,
    violated_ticks: u64,
    be_ops: Vec<f64>,
}

impl<'a> Physics<'a> {
    fn new(exp: &'a Experiment, tables: Vec<Cow<'a, WeightTable>>, sample_pages: bool) -> Self {
        Self {
            exp,
            burst_rng: StdRng::seed_from_u64(exp.cfg.seed ^ 0xB0),
            sample_pages,
            tables,
            fmem_util: 0.0,
            smem_util: 0.0,
            lc_requests: 0.0,
            lc_violated_requests: 0.0,
            violated_ticks: 0,
            be_ops: vec![0.0; exp.bes.len()],
        }
    }

    /// Runs the tick under last tick's contention plus a spike's `extra`
    /// utilization, writing the live observations into `obs`. Returns
    /// the offered LC load (requests/s, before the burst) and the tick's
    /// record as far as the physics know it.
    fn tick(
        &mut self,
        t: &Tick,
        extra: f64,
        mem: &TieredMemory,
        policy: &dyn Policy,
        sampler: &mut AccessSampler,
        obs: &mut [WorkloadObs],
    ) -> (f64, TickRecord) {
        let exp = self.exp;
        let (lc, tick_secs, sigma) = (&exp.lc, exp.cfg.tick_secs, exp.cfg.burst_sigma);
        // Flash crowds scale the offered load on top of the load
        // pattern. With no scenario the multiplier is exactly 1.0, and
        // `x * 1.0` is bit-exact for finite x — the no-scenario run stays
        // bit-identical to the pre-scenario runner.
        let offered =
            exp.load.level_at(t.now) * exp.lc_max_ref * t.phase.map_or(1.0, |p| p.lc_load_mult);
        let burst = if sigma > 0.0 {
            // Truncated at ±2.5σ: real load generators have bounded
            // short-term variance, and a bounded tail is what makes
            // "maximum load without SLO violation" a sharp boundary.
            let z = standard_normal(&mut self.burst_rng).clamp(-2.5, 2.5);
            (sigma * z - sigma * sigma / 2.0).exp()
        } else {
            1.0
        };
        let load_rps = offered * burst;
        let bw = &exp.cfg.bandwidth;
        let lat_f =
            FMEM_LATENCY_NS * 1e-9 * bw.latency_multiplier((self.fmem_util + extra).min(1.0));
        let lat_s =
            SMEM_LATENCY_NS * 1e-9 * bw.latency_multiplier((self.smem_util + extra).min(1.0));
        let service = |cpu, accesses, hit, pen| service_time(cpu, accesses, hit, lat_f, lat_s, pen);
        let lc_id = obs[0].id;
        let lc_hit = mem.residency(lc_id).fmem_usage_ratio();
        let lc_pen = policy.smem_access_penalty(lc_id);
        let lc_service = service(lc.cpu_secs, lc.accesses_per_req, lc_hit, lc_pen);
        let p99 = latency::p99_response(load_rps, lc_service, lc.cores);
        let violated = p99 > lc.slo_secs;
        let achieved = latency::achieved_throughput(load_rps, lc_service, lc.cores);
        let tele = t.tele;
        tele.count("runner.ticks", 1);
        self.lc_requests += offered * tick_secs;
        if violated {
            self.lc_violated_requests += offered * tick_secs;
            self.violated_ticks += 1;
            tele.count("runner.slo_violations", 1);
        }
        // The `as` cast saturates, so an unstable queue's infinite
        // P99 lands in the histogram's top bucket.
        tele.observe("runner.lc_p99_ns", (p99 * 1e9).round() as u64);
        tele.gauge("runner.lc_load_rps", load_rps);

        // Demand-side access rate: queued requests still represent
        // arriving memory demand, so a saturated server must not mask
        // overload from the policy's Memory Access Count state.
        let lc_access_rate = load_rps * lc.accesses_per_req;
        let o = &mut obs[0];
        o.load_rps = load_rps;
        o.p99_secs = p99;
        o.hit_ratio = lc_hit;
        o.access_rate = lc_access_rate;
        o.throughput = achieved;
        o.slo_violated = violated;
        // Uniform LC traffic: every page gets rate/n accesses.
        if self.sample_pages {
            let per_page = lc_access_rate * tick_secs / o.sampled.len() as f64;
            sampler.sample_uniform_estimates_touched(&mut o.sampled, &mut o.touched, per_page);
        }

        let mut be_throughput = Vec::with_capacity(exp.bes.len());
        for (bi, (spec, o)) in exp.bes.iter().zip(&mut obs[1..]).enumerate() {
            let hit: f64 = mem
                .resident_popularity(o.id)
                .expect("weights registered before the loop");
            let pen = policy.smem_access_penalty(o.id);
            let s_op = service(spec.cpu_secs_per_op, spec.accesses_per_op, hit, pen);
            let thr = spec.cores as f64 / s_op;
            self.be_ops[bi] += thr * tick_secs;
            be_throughput.push(thr);
            // An antagonistic burst multiplies the workload's memory
            // traffic — sampled pressure and bandwidth demand — not its
            // op throughput (same bit-exactness argument as the LC
            // multiplier above).
            let access_rate =
                thr * spec.accesses_per_op * t.phase.map_or(1.0, |p| p.be[bi].rate_mult);
            o.hit_ratio = hit;
            o.access_rate = access_rate;
            o.throughput = thr;
            if self.sample_pages {
                sampler.sample_weighted_estimates_touched(
                    &mut o.sampled,
                    &mut o.touched,
                    access_rate * tick_secs,
                    &self.tables[bi],
                );
            }
        }
        let record = TickRecord {
            t: t.now,
            lc_load_rps: load_rps,
            lc_p99: p99,
            lc_violated: violated,
            lc_fmem_ratio: lc_hit,
            be_throughput,
            ..TickRecord::default()
        };
        (offered, record)
    }

    /// The contention stage, lagged feedback: this tick's demand —
    /// workload traffic split by tier plus migration traffic, which
    /// touches both tiers — sets next tick's utilization.
    fn contend(&mut self, t: &Tick, obs: &[WorkloadObs], engine: &MigrationEngine) {
        let mut fmem_demand = 0.0;
        let mut smem_demand = 0.0;
        for o in obs {
            fmem_demand += BandwidthModel::demand_from_access_rate(o.access_rate * o.hit_ratio);
            smem_demand +=
                BandwidthModel::demand_from_access_rate(o.access_rate * (1.0 - o.hit_ratio));
        }
        let mig_bw = engine.tick_bandwidth_bytes_per_sec();
        fmem_demand += mig_bw;
        smem_demand += mig_bw;
        self.fmem_util = self.exp.cfg.bandwidth.utilization(fmem_demand, true);
        self.smem_util = self.exp.cfg.bandwidth.utilization(smem_demand, false);
        t.tele.gauge("runner.fmem_bw_util", self.fmem_util);
        t.tele.gauge("runner.smem_bw_util", self.smem_util);
        t.tele.gauge("runner.migration_bw_bytes_per_sec", mig_bw);
    }
}

/// SLO burn-rate alerting, fed from the same per-tick violation verdict
/// the SLO accounting uses. Sim-time windows only: the transition log,
/// timestamps included, replays bit-identically.
struct Alerts {
    engine: BurnRateEngine,
    /// Transitions already reported on the obs stream.
    seen: usize,
}

impl Alerts {
    fn new(rules: Vec<AlertRule>) -> Self {
        let engine = BurnRateEngine::new(rules);
        Self { engine, seen: 0 }
    }

    /// Feeds the tick's `reqs` requests, all violating when `violated`.
    fn observe(&mut self, t: &Tick, reqs: f64, violated: bool) {
        let tele = t.tele;
        self.engine
            .observe(t.now, if violated { reqs } else { 0.0 }, reqs);
        let transitions = self.engine.transitions();
        if tele.is_enabled() {
            for tr in &transitions[self.seen..] {
                tele.count("alert.transitions", 1);
                tele.gauge_merged("alert.fast_burn", tr.fast_burn, GaugeMerge::Max);
                let firing = tr.to == AlertState::Firing;
                let sev = if firing {
                    Severity::Warn
                } else {
                    Severity::Info
                };
                tele.event(
                    t.now,
                    "alert",
                    sev,
                    "transition",
                    &[
                        ("rule", tr.rule.clone()),
                        ("from", tr.from.label().to_string()),
                        ("to", tr.to.label().to_string()),
                        ("fast_burn", format!("{:.3}", tr.fast_burn)),
                        ("slow_burn", format!("{:.3}", tr.slow_burn)),
                    ],
                );
                if firing {
                    tele.count("alert.firing", 1);
                    // A firing alert is exactly the moment an on-call
                    // would want the recent event tail.
                    tele.dump_flight_recorder("alert firing");
                }
            }
            let firing_now = self.engine.firing().len() as f64;
            tele.gauge_merged("alert.firing_now", firing_now, GaugeMerge::Sum);
        }
        self.seen = transitions.len();
    }

    fn records(&self) -> Vec<AlertRecord> {
        let transitions = self.engine.transitions();
        transitions.iter().map(AlertRecord::from).collect()
    }
}

/// PP-M checkpointing: the generation store, the capture cadence, the
/// newest known-good generation, and the bit-identity restart probe.
struct Checkpoints {
    store: CheckpointStore,
    every: u64,
    boundaries: u64,
    probe_at: Option<f64>,
    /// The newest generation captured while the system was verifiably
    /// healthy; newer ones are suspect on rollback.
    last_good: Option<u64>,
}

/// Checkpoint generations kept; older ones are the fallback when newer
/// ones are corrupt.
const RETAIN_GENERATIONS: usize = 3;

impl Checkpoints {
    fn new(cfg: &CheckpointCfg) -> Result<Self, TierMemError> {
        let store = match &cfg.dir {
            Some(dir) => CheckpointStore::open(dir.clone(), RETAIN_GENERATIONS),
            None => CheckpointStore::in_memory(RETAIN_GENERATIONS),
        };
        Ok(Self {
            store: store.map_err(checkpoint_err)?,
            every: cfg.every_intervals.max(1),
            boundaries: 0,
            probe_at: cfg.restart_probe_at,
            last_good: None,
        })
    }

    /// The rollback target: quarantines every generation newer than the
    /// last known-good one — all of them when none is known-good — so
    /// neither this rollback nor a later crash restart can resurrect
    /// state captured after the fault began, then returns the newest
    /// generation left that verifies.
    fn rollback_target(&mut self) -> Result<Option<(u64, Vec<u8>)>, TierMemError> {
        self.store
            .quarantine_newer_than(self.last_good)
            .map_err(checkpoint_err)?;
        let target = self.store.load_latest_with_generation();
        target.map_err(checkpoint_err)
    }

    /// Runs at an interval boundary with the daemon up, right after the
    /// policy tick: the accumulators have just been reset and the new
    /// plan handed to PP-E, so a capture sits exactly on a decision
    /// boundary. Captures every `every` boundaries, then fires the
    /// restart probe once it is due.
    fn capture(
        &mut self,
        t: &Tick,
        tf: &TickFaults,
        policy: &mut dyn Policy,
        mem: &TieredMemory,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(), TierMemError> {
        self.boundaries += 1;
        if self.boundaries.is_multiple_of(self.every) {
            self.save(t, tf, policy, monitor)?;
        }
        if self.probe_at.is_some_and(|at| t.now >= at) {
            self.probe_at = None;
            if let Some(payload) = policy.checkpoint() {
                let quarantined = monitor.is_some_and(HealthMonitor::is_quarantined);
                restore_controller(policy, mem, Some(&payload), false, quarantined, t.now);
            }
        }
        Ok(())
    }

    /// Captures one generation. With health enabled, captures are gated
    /// on the policy's own health probe: a checkpoint of an
    /// already-poisoned controller would poison every future rollback,
    /// so it is skipped, not saved.
    fn save(
        &mut self,
        t: &Tick,
        tf: &TickFaults,
        policy: &dyn Policy,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(), TierMemError> {
        let tele = t.tele;
        if let Some(Err(surface)) = monitor.map(|_| policy.health_probe()) {
            if tele.is_enabled() {
                tele.count("ckpt.skips_unhealthy", 1);
                let kv = [("probe", surface)];
                tele.event(t.now, "runner", Severity::Warn, "checkpoint_skipped", &kv);
            }
            return Ok(());
        }
        let Some(payload) = policy.checkpoint() else {
            return Ok(());
        };
        let save_t0 = Instant::now();
        let mut blob = seal(&payload);
        // A torn device write: flip one byte of the sealed envelope so
        // the checksum rejects this generation on restore and the loader
        // falls back to the previous one.
        if tf.checkpoint_corrupt && !blob.is_empty() {
            let mid = blob.len() / 2;
            blob[mid] ^= 0xFF;
        }
        let generation = self.store.save_sealed(blob).map_err(checkpoint_err)?;
        // Known-good generations are the rollback targets. Only a capture
        // taken while the monitor reads Healthy (and not corrupted by the
        // fault plan) qualifies.
        let known_good =
            !tf.checkpoint_corrupt && monitor.is_none_or(HealthMonitor::checkpoint_trustworthy);
        if known_good {
            self.last_good = Some(generation);
        }
        if tele.is_enabled() {
            tele.count("ckpt.saves", 1);
            tele.observe("ckpt.save_ns", elapsed_ns(save_t0));
            tele.gauge("ckpt.payload_bytes", payload.len() as f64);
            tele.event(
                t.now,
                "runner",
                Severity::Debug,
                "checkpoint",
                &[
                    ("payload_bytes", payload.len().to_string()),
                    ("generation", generation.to_string()),
                    ("known_good", known_good.to_string()),
                ],
            );
        }
        Ok(())
    }
}

/// The runtime invariant audit, when `on`: page-table conservation
/// every tick, and the partition plan's conservation at interval
/// boundaries. With the health subsystem a violation becomes one of its
/// `incidents`; without it the first violation aborts the run.
fn audit(
    t: &Tick,
    on: bool,
    mem: &TieredMemory,
    policy: &dyn Policy,
    obs: &[WorkloadObs],
    mut incidents: Option<&mut Vec<Incident>>,
) -> Result<(), TierMemError> {
    let mut flag = |v: AuditViolation| match incidents.as_deref_mut() {
        Some(queue) => {
            queue.push(Incident::AuditViolation(v.to_string()));
            Ok(())
        }
        None => Err(audit_abort(t.tele, t.now, v, false)),
    };
    if on {
        if let Err(v) = mem.audit() {
            flag(v)?;
        }
    }
    let tele = t.tele;
    if !(t.boundary && (on || tele.is_enabled())) {
        return Ok(());
    }
    // Conservation across the partition plan: the bytes the policy hands
    // out must fit in FMem. `u64::MAX` is the static policies'
    // "everything" sentinel. The plan total is also what telemetry
    // reports, so it is computed whenever either consumer wants it.
    let fmem_bytes = mem.spec().fmem_bytes();
    let plan_bytes = obs
        .iter()
        .filter_map(|o| policy.fmem_target(o.id))
        .map(|target| {
            if target == u64::MAX {
                fmem_bytes
            } else {
                target
            }
        })
        .fold(0u64, u64::saturating_add);
    if tele.is_enabled() {
        tele.count("runner.intervals", 1);
        tele.gauge("runner.plan_bytes", plan_bytes as f64);
        tele.event(
            t.now,
            "runner",
            Severity::Info,
            "plan",
            &[
                ("plan_bytes", plan_bytes.to_string()),
                ("fmem_bytes", fmem_bytes.to_string()),
            ],
        );
    }
    if on && plan_bytes > fmem_bytes {
        flag(AuditViolation::PlanExceedsFmem {
            plan_bytes,
            fmem_bytes,
        })?;
    }
    Ok(())
}

/// The self-healing health subsystem ([`crate::health`]): the monitor's
/// state machine and rollback budget, fed by the sentinels, answering
/// incidents with autonomous recovery instead of aborting the run.
struct Health {
    monitor: HealthMonitor,
    /// The crash-stop ablation arm killed the daemon for good.
    crash_stopped: bool,
    /// This tick's incidents, answered by [`Health::recover`].
    incidents: Vec<Incident>,
}

impl Health {
    fn new(cfg: HealthConfig) -> Self {
        Self {
            monitor: HealthMonitor::new(cfg),
            crash_stopped: false,
            incidents: Vec::new(),
        }
    }

    /// The SLO-streak and watchdog sentinels, and the NaN/poison
    /// sentinel on the policy's numeric surfaces — skipped in quarantine
    /// (the poisoned agent is contained, not consulted) and while the
    /// daemon is down.
    fn sentinels(&mut self, t: &Tick, violated: bool, tf: &TickFaults, policy: &dyn Policy) {
        let mon = &mut self.monitor;
        if let Some(i) = mon.observe_tick(t.now, violated, tf.clock_skew_factor) {
            self.incidents.push(i);
        }
        if !mon.is_quarantined() && !self.crash_stopped && !tf.ppm_down {
            if let Err(surface) = policy.health_probe() {
                self.incidents.push(Incident::Poison(surface));
            }
        }
    }

    /// Executes the monitor's directive for each incident, then audits
    /// the substrate again: a violation that survives its directive is
    /// unrepairable and aborts the run. A rollback repairs accounting
    /// first (the restored controller must read it consistent), then
    /// restores the last known-good generation, or restarts cold; a
    /// daemon a `PpmCrash` window holds down (`down`) stays down. Returns
    /// whether it rolled back such a held-down daemon.
    fn recover(
        &mut self,
        t: &Tick,
        policy: &mut dyn Policy,
        mem: &mut TieredMemory,
        mut ckpt: Option<&mut Checkpoints>,
        down: bool,
    ) -> Result<bool, TierMemError> {
        if self.incidents.is_empty() {
            return Ok(false);
        }
        let (tele, now, mon) = (t.tele, t.now, &mut self.monitor);
        let mut rolled_back = false;
        for incident in self.incidents.drain(..) {
            let directive = mon.on_incident(now, &incident);
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
                    tele.count("health.repairs", 1);
                }
                Directive::Rollback => {
                    tele.count("health.rollbacks", 1);
                    tele.dump_flight_recorder("health rollback");
                    mem.repair_accounting();
                    let target = match ckpt.as_deref_mut() {
                        Some(c) => c.rollback_target()?,
                        None => None,
                    };
                    let payload = target.as_ref().map(|(_, p)| p.as_slice());
                    restore_controller(policy, mem, payload, down, mon.is_quarantined(), now);
                    policy.after_rollback(now);
                    rolled_back = true;
                    let generation = target.map(|(g, _)| g);
                    mon.on_rollback_complete(now, generation);
                    if tele.is_enabled() {
                        let g = generation.map_or_else(|| "cold".to_string(), |g| g.to_string());
                        let kv = [("generation", g)];
                        tele.event(now, "health", Severity::Warn, "rollback", &kv);
                    }
                }
                Directive::Quarantine => {
                    mem.repair_accounting();
                    policy.enter_quarantine(now);
                    tele.count("health.quarantines", 1);
                    tele.event(now, "health", Severity::Error, "quarantine", &[]);
                    tele.dump_flight_recorder("health quarantine");
                }
                Directive::CrashStop => {
                    if !self.crash_stopped {
                        policy.on_controller_crash();
                        self.crash_stopped = true;
                        tele.count("health.crash_stops", 1);
                        tele.event(now, "health", Severity::Error, "crash_stop", &[]);
                        tele.dump_flight_recorder("health crash-stop");
                    }
                    mem.repair_accounting();
                }
            }
        }
        mem.audit().map_err(|v| audit_abort(tele, now, v, true))?;
        Ok(rolled_back && down)
    }
}

/// Live telemetry publication to a hub. Publication reads sim state
/// but writes none back, and server threads only read what is published
/// here, so serving cannot perturb the physics.
struct Publish {
    hub: TelemetryHub,
    n_ticks: u64,
    duration_secs: f64,
}

impl Publish {
    /// Renders and hands the hub whole metrics, health and status
    /// snapshots at interval boundaries and on the final tick; scrapes
    /// between boundaries see the previous snapshot. The `/status`
    /// document (progress, scenario phase, degradation mode, health,
    /// firing alerts) is hand-rolled JSON: the schema is small.
    fn publish(
        &self,
        t: &Tick,
        policy: &dyn Policy,
        monitor: Option<&HealthMonitor>,
        alerts: Option<&Alerts>,
        violated_ticks: u64,
    ) {
        if !(t.boundary || t.index + 1 == self.n_ticks) {
            return;
        }
        let name = policy.name();
        if let Some(text) = t.tele.snapshot_prometheus(&[("policy", name)]) {
            self.hub.publish_metrics(text);
        }
        let (health, serving) = match monitor {
            Some(m) => (m.state().label(), !m.is_quarantined()),
            None => ("healthy", true),
        };
        self.hub.publish_health(health, serving);
        let firing = alerts.map(|a| a.engine.firing()).unwrap_or_default();
        let firing: Vec<String> = firing.iter().map(|f| json_string(f)).collect();
        // Publication runs inside the tick loop, so `n_ticks` ≥ 1.
        let progress = (t.index + 1) as f64 / self.n_ticks as f64;
        let phase = t.phase.map_or("null".to_string(), |p| {
            format!("{{\"id\":{},\"label\":{}}}", p.id, json_string(&p.label))
        });
        let mode = policy
            .degradation()
            .map_or("null".to_string(), |d| json_string(d.label()));
        self.hub.publish_status(format!(
            "{{\"policy\":{},\"tick\":{},\"ticks_total\":{},\"t_secs\":{},\
             \"duration_secs\":{},\"progress\":{},\"scenario_phase\":{phase},\
             \"supervisor_mode\":{mode},\"health\":{},\"alerts_firing\":[{}],\
             \"violated_ticks\":{violated_ticks}}}",
            json_string(name),
            t.index,
            self.n_ticks,
            json_f64(t.now),
            json_f64(self.duration_secs),
            json_f64(progress),
            json_string(health),
            firing.join(","),
        ));
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Service time from explicit (possibly contention-inflated) tier
/// latencies, with a per-SMem-access penalty `pen` folded in.
fn service_time(cpu: f64, accesses: f64, hit: f64, lat_f: f64, lat_s: f64, pen: f64) -> f64 {
    let h = hit.clamp(0.0, 1.0);
    cpu + accesses * (h * lat_f + (1.0 - h) * (lat_s + pen))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::statics::StaticPolicy;
    use mtat_tiermem::faults::FaultKind;
    use mtat_tiermem::{GIB, MIB};
    use mtat_workloads::access::Popularity;

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

    /// A tick length that is not positive and finite, or a duration that
    /// is not finite and non-negative, fails `try_run` with an
    /// `InvalidConfig` naming the parameter, instead of panicking on the
    /// tick buffer's reservation or running zero ticks as a success.
    #[test]
    fn bad_tick_length_or_duration_is_a_typed_error() {
        for (tick_secs, duration_secs, what) in [
            (0.0, 60.0, "tick_secs"),
            (f64::NAN, 60.0, "tick_secs"),
            (-1.0, 60.0, "tick_secs"),
            (f64::INFINITY, 60.0, "tick_secs"),
            (1e-300, 60.0, "duration_secs"),
            (1.0, f64::INFINITY, "duration_secs"),
            (1.0, f64::NAN, "duration_secs"),
            (1.0, -1.0, "duration_secs"),
        ] {
            let mut exp = experiment(LoadPattern::Constant(0.5)).with_duration(duration_secs);
            exp.cfg.tick_secs = tick_secs;
            let err = exp.try_run(&mut StaticPolicy::fmem_all()).err();
            assert!(
                matches!(err, Some(TierMemError::InvalidConfig { what: w, .. }) if w == what),
                "tick_secs {tick_secs}, duration_secs {duration_secs}: {err:?}"
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

    /// Supplied BE inputs run an experiment to the bit of one that
    /// builds its own; inputs built for another BE list, page size or
    /// FMem capacity fail `try_run` with an `InvalidConfig`.
    #[test]
    fn be_inputs_must_cover_the_experiments_bes_and_memory() {
        use crate::policy::mtat::{MtatConfig, MtatPolicy};
        let exp = experiment(LoadPattern::Constant(0.5)).with_duration(20.0);
        let mtat = || {
            let cfg = MtatConfig::full().with_heuristic_sizer();
            MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes)
        };
        let mem = exp.cfg.mem;
        let shared = Arc::new(BeInputs::new(&exp.bes, &mem));
        let own = exp.run(&mut mtat());
        let on_shared = exp.clone().with_be_inputs(shared).run(&mut mtat());
        assert_eq!(own.digest(), on_shared.digest());
        let bits = |r: &RunResult| {
            r.be_perf_full
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&own), bits(&on_shared));

        let mut pr = small_be();
        pr.pattern = BeSpec::pagerank().pattern;
        let page_2mib = MemorySpec::new(mem.fmem_bytes(), mem.smem_bytes(), 2 * MIB).unwrap();
        let half_fmem = MemorySpec::new(GIB / 2, mem.smem_bytes(), mem.page_size()).unwrap();
        for (what, inputs) in [
            ("other BEs", BeInputs::new(&[pr], &mem)),
            ("no BEs", BeInputs::new(&[], &mem)),
            ("other page size", BeInputs::new(&exp.bes, &page_2mib)),
            ("other FMem", BeInputs::new(&exp.bes, &half_fmem)),
        ] {
            let exp = exp.clone().with_be_inputs(Arc::new(inputs));
            let err = exp.try_run(&mut mtat()).err();
            assert!(
                matches!(
                    err,
                    Some(TierMemError::InvalidConfig {
                        what: "be_inputs",
                        ..
                    })
                ),
                "{what}: {err:?}"
            );
        }
    }

    /// `be_perf_full` equals each BE's `Perf_full` as a fresh build of
    /// its unmutated popularity computes it, bit for bit, on a plain run
    /// and on runs whose scenario has rotated or re-skewed the
    /// popularity by the last tick. `RunResult::digest` does not cover
    /// the field, so this test does.
    #[test]
    fn be_perf_full_comes_from_the_unmutated_popularity() {
        let cfg = SimConfig::small_test();
        let (page, fmem) = (cfg.mem.page_size(), cfg.mem.fmem_bytes());
        let mut pr = BeSpec::pagerank();
        pr.rss_bytes = (1.3 * GIB as f64) as u64;
        let bes = vec![small_be(), pr];
        let fresh_perf_full = |spec: &BeSpec| {
            let pop = Popularity::new(spec.pattern, spec.rss_bytes.div_ceil(page) as usize);
            spec.throughput(pop.fraction_top((fmem / page) as usize))
        };
        let want: Vec<u64> = bes.iter().map(|b| fresh_perf_full(b).to_bits()).collect();
        // thrash_rotate rotates from 30 s; zipf_phase_shift flattens
        // the skew to 0.25 from 60 s.
        for (scenario, secs) in [
            (None, 10.0),
            (Some("thrash_rotate"), 40.0),
            (Some("zipf_phase_shift"), 70.0),
        ] {
            let mut exp = Experiment::new(
                cfg.clone(),
                small_lc(),
                LoadPattern::Constant(0.5),
                bes.clone(),
            )
            .with_duration(secs);
            if let Some(name) = scenario {
                exp = exp.with_scenario(mtat_workloads::scenario::adversarial(name).unwrap());
            }
            let r = exp.run(&mut StaticPolicy::fmem_all());
            let got: Vec<u64> = r.be_perf_full.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{scenario:?}");
        }
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
