//! The MTAT policy: PP-M + PP-E glued behind the [`Policy`] interface.
//!
//! Two variants, as evaluated in the paper:
//!
//! * **MTAT (Full)** — the RL agent sizes the LC partition and the
//!   simulated-annealing search explicitly partitions the remaining FMem
//!   among the BE workloads (fairness-driven, Algorithm 2); PP-E
//!   enforces every partition with LC-first time slicing (Algorithm 3)
//!   and per-partition hotness refinement (Fig. 4).
//! * **MTAT (LC Only)** — only the LC partition is enforced; the BE
//!   workloads compete for the residual pool with ordinary
//!   frequency-based placement.
//!
//! Because experiments start from a fresh process while the paper's
//! daemon has been learning for its whole uptime, the SAC agent is
//! pretrained on the analytic environment ([`crate::ppm::env`]) and the
//! trained network is cached per (workload, cores, FMem) configuration —
//! repeated runs (e.g. the Fig. 8 binary search) reuse it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mtat_obs::event::Severity;
use mtat_obs::provenance::{AnnealTrace, EnforceOutcome, PlanProvenance, SacTrace};
use mtat_obs::Obs;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::WorkloadId;
use mtat_workloads::access::AccessPattern;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;

use crate::config::SimConfig;
use crate::hardening::Hardening;
use crate::policy::{Policy, SimState, WorkloadObs};
use crate::ppe::PartitionPolicyEnforcer;
use crate::ppm::annealing::AnnealingConfig;
use crate::ppm::be::BePartitioner;
use crate::ppm::controller::ProportionalController;
use crate::ppm::lc::{LcObservation, LcPartitioner, LcPartitionerConfig};
use crate::ppm::profiler::BeProfile;
use crate::ppm::{LcSizer, PartitionPlan, PartitionPolicyMaker};
use crate::supervisor::{DegradationState, Supervisor};

/// Which MTAT variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtatVariant {
    /// Explicit partitions for LC and every BE workload.
    Full,
    /// Explicit partition for LC only; BE workloads compete.
    LcOnly,
}

/// MTAT policy construction options.
#[derive(Debug, Clone)]
pub struct MtatConfig {
    /// Full or LC-only partitioning.
    pub variant: MtatVariant,
    /// Use the paper's RL sizer (`true`) or the ablation controller.
    pub use_rl: bool,
    /// Keep learning online during the run.
    pub online_learning: bool,
    /// Pretraining interactions on the analytic environment.
    pub pretrain_steps: usize,
    /// RNG seed for pretraining and annealing.
    pub seed: u64,
    /// §7 extension: pause placement churn when FMem bandwidth
    /// utilization exceeds this threshold (`None` disables).
    pub bandwidth_freeze_util: Option<f64>,
    /// Run the policy under a graceful-degradation [`Supervisor`] that
    /// demotes the RL sizer to the proportional controller (and, as a
    /// last resort, a static LC-priority split) on divergence, stale
    /// telemetry, dead sensors, or sustained SLO violation (`false` is
    /// the paper's unsupervised behavior).
    pub supervised: bool,
    /// Adversarial-dynamics guards ([`crate::hardening`]): thrash
    /// quarantine, working-set-pressure throttle, leak renormalization
    /// (`false` is the naive ablation arm). Implies `supervised`: the
    /// pressure guard escalates through the supervisor's ladder.
    pub hardened: bool,
}

/// SLO-guard growth (fraction of the Eq. 1 bound) applied on a violated
/// interval (DESIGN §4b).
const SLO_GUARD_STEP: f64 = 1.0;
/// PP-E's per-tick refinement appetite per workload (page pairs).
const REFINE_PAIRS: u64 = 256;

impl MtatConfig {
    /// MTAT (Full) with paper defaults.
    pub fn full() -> Self {
        Self {
            variant: MtatVariant::Full,
            use_rl: true,
            online_learning: true,
            pretrain_steps: 12_000,
            seed: 0x517A7,
            bandwidth_freeze_util: None,
            supervised: false,
            hardened: false,
        }
    }

    /// MTAT (LC Only) with paper defaults.
    pub fn lc_only() -> Self {
        Self {
            variant: MtatVariant::LcOnly,
            ..Self::full()
        }
    }

    /// Swap the RL sizer for the proportional controller (ablation).
    pub fn with_heuristic_sizer(mut self) -> Self {
        self.use_rl = false;
        self
    }

    /// Enables the §7 bandwidth-aware extension: placement churn pauses
    /// whenever FMem bandwidth utilization exceeds `threshold`.
    pub fn with_bandwidth_awareness(mut self, threshold: f64) -> Self {
        self.bandwidth_freeze_util = Some(threshold);
        self
    }

    /// Runs the policy under a graceful-degradation supervisor.
    pub fn supervised(mut self) -> Self {
        self.supervised = true;
        self
    }

    /// Arms the adversarial-dynamics guards (thrash quarantine,
    /// pressure throttle, leak renormalization), and with them the
    /// supervisor.
    pub fn hardened(mut self) -> Self {
        self.hardened = true;
        self
    }
}

/// The MTAT policy.
#[derive(Debug)]
pub struct MtatPolicy {
    cfg: MtatConfig,
    name: String,
    ppm: PartitionPolicyMaker,
    ppe: Option<PartitionPolicyEnforcer>,
    lc_id: Option<WorkloadId>,
    page_size: u64,
    /// Reference access rate (accesses/s at the workload's max load) for
    /// normalizing the Memory Access Count state component.
    ref_access_rate: f64,
    // Interval accumulators.
    acc_violated: bool,
    acc_worst_p99: f64,
    acc_access_rate: f64,
    acc_hit_ratio: f64,
    acc_load_rps: f64,
    acc_ticks: u32,
    latest_plan: Option<PartitionPlan>,
    /// Graceful-degradation supervisor (None = unsupervised).
    supervisor: Option<Supervisor>,
    /// Adversarial-dynamics guards (None = naive). Ephemeral state:
    /// excluded from checkpoints (like PP-E, it models monitoring that
    /// survives a daemon crash in place) and reset on cold restart.
    hardening: Option<Hardening>,
    /// True while the PP-M daemon is crashed
    /// ([`crate::policy::Policy::on_controller_crash`]): PP-E keeps
    /// enforcing the last plan; no new decisions are made.
    ppm_down: bool,
    // Construction parameters retained for cold restarts (rebuilding a
    // fresh sizer when no usable checkpoint exists).
    lc_spec: LcSpec,
    /// The BEs [`Policy::init`] profiles for MTAT (Full).
    be_specs: Vec<BeSpec>,
    fmem_total: u64,
    max_step_bytes: f64,
    /// Telemetry handle ([`Policy::set_obs`]); disabled (inert) by
    /// default. Never consulted by any control path.
    obs: Obs,
    /// Open provenance record awaiting its enforcement outcome, plus
    /// the migration-engine counter snapshot taken when its plan was
    /// installed. Telemetry only: excluded from checkpoints, and never
    /// read by any control path.
    prov_snap: Option<ProvSnap>,
}

/// Migration-engine counters at plan-installation time; the deltas at
/// the next decision boundary become the plan's enforcement outcome.
#[derive(Debug, Clone, Copy)]
struct ProvSnap {
    seq: u64,
    moved: u64,
    failed: u64,
    retried: u64,
}

/// Pretrained-agent cache keyed by every input of
/// [`LcPartitioner::pretrained`] ([`agent_key`]). Each key maps to its
/// own slot mutex so concurrent builders of the *same* configuration
/// (e.g. parallel bench-matrix cells) block on one pretraining run
/// instead of duplicating it, while distinct configurations still
/// pretrain concurrently.
type AgentSlot = Arc<Mutex<Option<Sac>>>;

fn agent_cache() -> &'static Mutex<HashMap<String, AgentSlot>> {
    static CACHE: OnceLock<Mutex<HashMap<String, AgentSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The agent-cache key: the whole [`LcSpec`], the FMem capacity in
/// bytes, the bits of the Eq. (1) step bound, the pretraining steps and
/// the seed — everything [`LcPartitioner::pretrained`] reads, floats by
/// their bits. The exhaustive destructure turns a new `LcSpec` field
/// into a compile error here instead of a silent key collision.
fn agent_key(lc: &LcSpec, fmem_total: u64, max_step_bytes: f64, steps: usize, seed: u64) -> String {
    let LcSpec {
        name,
        rss_bytes,
        slo_secs,
        cores,
        cpu_secs,
        accesses_per_req,
        pattern,
    } = lc;
    let pattern = match *pattern {
        AccessPattern::Uniform => "uniform".to_string(),
        AccessPattern::Zipfian { exponent } => format!("zipf{:x}", exponent.to_bits()),
    };
    format!(
        "{name:?}/r{rss_bytes}/slo{:x}/c{cores}/cpu{:x}/a{:x}/{pattern}/f{fmem_total}/s{:x}/p{steps}/seed{seed}",
        slo_secs.to_bits(),
        cpu_secs.to_bits(),
        accesses_per_req.to_bits(),
        max_step_bytes.to_bits(),
    )
}

/// Returns the cached agent for `key`, pretraining it via `train` if
/// absent. Pretraining is deterministic, so whichever thread wins the
/// per-key slot produces the same agent any other would have.
fn cached_agent(key: &str, train: impl FnOnce() -> Sac) -> Sac {
    let slot = Arc::clone(
        agent_cache()
            .lock()
            .expect("cache lock")
            .entry(key.to_string())
            .or_default(),
    );
    let mut guard = slot.lock().expect("cache slot lock");
    guard.get_or_insert_with(train).clone()
}

impl MtatPolicy {
    /// Builds an MTAT policy for an experiment co-locating `lc_spec`
    /// with `be_specs` under `sim`. Pretraining (or cache lookup) happens
    /// here and BE profiling at [`Policy::init`], both before the run
    /// starts — both are offline activities in the paper's prototype.
    pub fn new(cfg: MtatConfig, sim: &SimConfig, lc_spec: &LcSpec, be_specs: &[BeSpec]) -> Self {
        let fmem_total = sim.mem.fmem_bytes();
        let max_step_bytes = sim.migration_bw * sim.interval_secs / 2.0;
        let lc_cfg = LcPartitionerConfig {
            fmem_total,
            max_step_bytes,
            online_learning: cfg.online_learning,
        };

        let sizer = if cfg.use_rl {
            let key = agent_key(
                lc_spec,
                fmem_total,
                max_step_bytes,
                cfg.pretrain_steps,
                cfg.seed,
            );
            let agent = cached_agent(&key, || {
                LcPartitioner::pretrained(lc_spec, lc_cfg.clone(), cfg.pretrain_steps, cfg.seed)
                    .agent()
                    .clone()
            });
            LcSizer::Rl(LcPartitioner::new(lc_spec.clone(), lc_cfg, agent))
        } else {
            LcSizer::Heuristic(ProportionalController::new(
                fmem_total,
                lc_spec.rss_bytes,
                max_step_bytes,
                lc_spec.slo_secs,
            ))
        };

        // Profiled at init, from the weights the runner registers.
        let be = match cfg.variant {
            MtatVariant::Full => Some(BePartitioner::new(
                Vec::new(),
                AnnealingConfig::default(),
                cfg.seed ^ 0xBE,
            )),
            MtatVariant::LcOnly => None,
        };

        let supervised = cfg.supervised || cfg.hardened;
        let mut ppm =
            PartitionPolicyMaker::new(sizer, be, fmem_total, max_step_bytes, Some(SLO_GUARD_STEP));
        if supervised {
            // Degradation ladder: proportional latency-headroom control,
            // then the static LC-priority split (all the FMem the LC
            // resident set can use).
            let fallback = ProportionalController::new(
                fmem_total,
                lc_spec.rss_bytes,
                max_step_bytes,
                lc_spec.slo_secs,
            );
            ppm = ppm.with_fallback(fallback, fmem_total.min(lc_spec.rss_bytes));
        }
        let mut name = match (cfg.variant, cfg.use_rl) {
            (MtatVariant::Full, true) => "mtat_full",
            (MtatVariant::LcOnly, true) => "mtat_lc_only",
            (MtatVariant::Full, false) => "mtat_full_heuristic",
            (MtatVariant::LcOnly, false) => "mtat_lc_only_heuristic",
        }
        .to_string();
        if cfg.hardened {
            // Hardened implies supervised; one suffix names the arm.
            name.push_str("_hardened");
        } else if supervised {
            name.push_str("_supervised");
        }
        let ref_access_rate =
            lc_spec.max_load(lc_spec.full_fmem_hit_ratio(fmem_total)) * lc_spec.accesses_per_req;
        let supervisor = supervised.then(Supervisor::default);
        let hardening = cfg.hardened.then(Hardening::default);
        Self {
            cfg,
            name,
            ppm,
            ppe: None,
            lc_id: None,
            page_size: sim.mem.page_size(),
            ref_access_rate,
            acc_violated: false,
            acc_worst_p99: 0.0,
            acc_access_rate: 0.0,
            acc_hit_ratio: 0.0,
            acc_load_rps: 0.0,
            acc_ticks: 0,
            latest_plan: None,
            supervisor,
            hardening,
            ppm_down: false,
            lc_spec: lc_spec.clone(),
            be_specs: be_specs.to_vec(),
            fmem_total,
            max_step_bytes,
            obs: Obs::disabled(),
            prov_snap: None,
        }
    }

    /// Exports the interval's control-plane diagnostics: plan deltas,
    /// SAC learner health, annealing search stats, and enforcement
    /// backlog. Called only on the enabled path.
    fn emit_interval_telemetry(&self, now_secs: f64, plan: &PartitionPlan, prev_lc_bytes: u64) {
        self.obs.count("mtat.plans", 1);
        self.obs.gauge("mtat.plan_lc_bytes", plan.lc_bytes as f64);
        let delta = plan.lc_bytes as f64 - prev_lc_bytes as f64;
        self.obs.gauge("mtat.plan_lc_delta_bytes", delta);
        self.obs
            .observe("mtat.plan_lc_delta_abs_bytes", delta.abs() as u64);
        if let Some(sac) = self.ppm.sac_agent() {
            self.obs.gauge("mtat.sac_alpha", sac.alpha());
            self.obs
                .gauge("mtat.sac_updates", sac.updates_done() as f64);
            self.obs
                .gauge("mtat.sac_replay_len", sac.replay_len() as f64);
            self.obs
                .gauge("mtat.sac_critic_loss", sac.last_critic_loss());
            self.obs.gauge("mtat.sac_entropy", sac.last_entropy());
            self.obs
                .gauge("mtat.sac_critic_param_l2", sac.critic_param_l2());
        }
        if let Some(a) = self.ppm.last_anneal() {
            self.obs
                .gauge("mtat.anneal_iterations", a.iterations as f64);
            self.obs.gauge("mtat.anneal_best_score", a.best_score);
            self.obs.gauge("mtat.anneal_temperature", a.final_temp);
        }
        self.obs.event(
            now_secs,
            "mtat",
            Severity::Info,
            "plan",
            &[
                ("lc_bytes", plan.lc_bytes.to_string()),
                ("delta_bytes", format!("{delta:.0}")),
                ("be_workloads", plan.be_bytes.len().to_string()),
                ("mode", self.ppm.mode().label().to_string()),
            ],
        );
    }

    /// The most recent PP-M plan (diagnostics).
    pub fn latest_plan(&self) -> Option<&PartitionPlan> {
        self.latest_plan.as_ref()
    }

    /// Live hardening-guard state (None unless configured via
    /// [`MtatConfig::hardened`]) — diagnostics and tests.
    pub fn hardening_state(&self) -> Option<&Hardening> {
        self.hardening.as_ref()
    }

    /// Opens the provenance record for a freshly decided `plan` —
    /// interval inputs, supervisor mode, SAC/anneal telemetry, clamp
    /// diagnostics — and snapshots the migration-engine counters that
    /// the next decision boundary diffs into the enforcement outcome.
    /// Tracing path only (callers guard on [`Obs::tracing_enabled`]).
    fn open_plan_provenance(
        &mut self,
        sim: &SimState<'_>,
        obs: &LcObservation,
        plan: &PartitionPlan,
    ) {
        let meta = self.ppm.last_decision();
        let sac = match (
            self.ppm.mode(),
            self.ppm.sac_agent(),
            self.ppm.rl_raw_action(),
        ) {
            (DegradationState::Rl, Some(agent), Some(raw)) => Some(SacTrace {
                raw_action: raw,
                alpha: agent.alpha(),
                entropy: agent.last_entropy(),
            }),
            _ => None,
        };
        let anneal = self.ppm.last_anneal().map(|a| AnnealTrace {
            iterations: a.iterations as u64,
            best_score: a.best_score,
            final_temp: a.final_temp,
        });
        let rec = PlanProvenance {
            seq: 0,
            tick: (sim.now_secs / sim.tick_secs).round() as u64,
            now_secs: sim.now_secs,
            usage_ratio: obs.usage_ratio,
            access_ratio: obs.access_ratio,
            access_count_norm: obs.access_count_norm,
            p99_secs: obs.p99_secs,
            violated: obs.violated,
            scenario_phase: sim.scenario_phase,
            mode: self.ppm.mode().label(),
            sac,
            anneal,
            sizer_bytes: meta.map_or(plan.lc_bytes, |m| m.sizer_bytes),
            guard_floor_bytes: meta.map_or(0, |m| m.guard_floor_bytes),
            guard_applied: meta.is_some_and(|m| m.guard_applied),
            fmem_clamped: meta.is_some_and(|m| m.fmem_clamped),
            lc_bytes: plan.lc_bytes,
            be_total_bytes: plan.be_bytes.iter().sum(),
            enforce: None,
        };
        if let Some(seq) = self.obs.provenance_open(rec) {
            self.prov_snap = Some(ProvSnap {
                seq,
                moved: sim.migration.total_pages_moved(),
                failed: sim.migration.failed_moves(),
                retried: sim.migration.retried_moves(),
            });
        }
    }

    /// Each BE's offline profile (§4). The `i`-th BE workload's weights
    /// in the page table, when they have the length `be_specs[i]`
    /// profiles at, are the set-up popularity the runner registered for
    /// it, so [`BeProfile::from_weights`] gives [`BeProfile::measure`]'s
    /// profile to the bit without building the popularity again. Any
    /// other BE (a hand-built memory registers no weights) is measured
    /// from its spec.
    fn be_profiles(&self, mem: &TieredMemory, workloads: &[WorkloadObs]) -> Vec<BeProfile> {
        let mut be_ids = workloads.iter().filter(|w| !w.is_lc()).map(|w| w.id);
        let (fmem, page) = (self.fmem_total, self.page_size);
        self.be_specs
            .iter()
            .map(|spec| {
                let registered = be_ids.next().and_then(|id| mem.popularity_weights(id));
                match registered {
                    Some(w) if w.len() == spec.n_pages(page) => {
                        BeProfile::from_weights(spec, w, fmem, page)
                    }
                    _ => BeProfile::measure(spec, fmem, page),
                }
            })
            .collect()
    }

    fn reset_accumulators(&mut self) {
        self.acc_violated = false;
        self.acc_worst_p99 = 0.0;
        self.acc_access_rate = 0.0;
        self.acc_hit_ratio = 0.0;
        self.acc_load_rps = 0.0;
        self.acc_ticks = 0;
    }

    /// Serializes the full PP-M control state — the sizer (including
    /// the SAC agent's networks, optimizers, replay buffer, and RNG),
    /// the BE annealing seed, the SLO guard, the supervisor's ladder
    /// position, the interval accumulators, and the latest plan — as a
    /// raw checkpoint payload. PP-E state (hotness histograms, retry
    /// queue, adjustment schedule) is deliberately excluded: it models
    /// the in-kernel enforcer, which survives a daemon crash in place.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        use mtat_snapshot::{Snap, SnapWriter};
        let mut w = SnapWriter::new();
        self.ppm.save_state(&mut w);
        self.supervisor.snap(&mut w);
        w.put_bool(self.acc_violated);
        w.put_f64(self.acc_worst_p99);
        w.put_f64(self.acc_access_rate);
        w.put_f64(self.acc_hit_ratio);
        w.put_f64(self.acc_load_rps);
        w.put_u32(self.acc_ticks);
        self.latest_plan.snap(&mut w);
        // v1-compatible tail extension: the supervisor's quarantine
        // latch rides after everything v1 wrote, and the decoder reads
        // it only when present — payloads from before the health
        // subsystem still decode (latch clear).
        w.put_bool(self.supervisor.as_ref().is_some_and(Supervisor::is_latched));
        w.into_bytes()
    }

    /// Restores control state captured by [`Self::encode_checkpoint`].
    /// The checkpoint's structure must match this policy's
    /// configuration (sizer kind, BE partitioning, supervision); a
    /// mismatch or short payload is rejected. On `Err` the policy may
    /// be partially overwritten — callers fall back to
    /// [`Self::cold_restart`], which resets everything the decode
    /// touches.
    pub fn decode_checkpoint(&mut self, bytes: &[u8]) -> Result<(), mtat_snapshot::SnapError> {
        use mtat_snapshot::{Snap, SnapError, SnapReader};
        let mut r = SnapReader::new(bytes);
        self.ppm.load_state(&mut r)?;
        let supervisor: Option<Supervisor> = Snap::unsnap(&mut r)?;
        match (&mut self.supervisor, supervisor) {
            (Some(cur), Some(restored)) => *cur = restored,
            (None, None) => {}
            _ => return Err(SnapError::Malformed("checkpoint supervision mismatch")),
        }
        self.acc_violated = r.get_bool()?;
        self.acc_worst_p99 = r.get_f64()?;
        self.acc_access_rate = r.get_f64()?;
        self.acc_hit_ratio = r.get_f64()?;
        self.acc_load_rps = r.get_f64()?;
        self.acc_ticks = r.get_u32()?;
        self.latest_plan = Snap::unsnap(&mut r)?;
        let latched = if r.is_exhausted() {
            false // pre-latch v1 payload
        } else {
            r.get_bool()?
        };
        if let Some(sup) = &mut self.supervisor {
            sup.restore_latched(latched);
        }
        if !r.is_exhausted() {
            return Err(SnapError::Malformed("trailing checkpoint bytes"));
        }
        Ok(())
    }

    /// Cold restart: the daemon is back but all user-space state is
    /// lost. The RL variant returns with a *fresh, untrained* network —
    /// relearning from scratch is exactly the cost checkpointing
    /// exists to avoid — the annealing seed rewinds, the supervisor
    /// restarts at the top of its ladder, and the sizer target realigns
    /// to the placement PP-E actually maintained through the outage.
    pub fn cold_restart(&mut self, mem: &TieredMemory) {
        let lc_cfg = LcPartitionerConfig {
            fmem_total: self.fmem_total,
            max_step_bytes: self.max_step_bytes,
            online_learning: self.cfg.online_learning,
        };
        let sizer = if self.cfg.use_rl {
            let mut sac_cfg = SacConfig::paper(3, 1);
            sac_cfg.update_every = 2;
            LcSizer::Rl(LcPartitioner::new(
                self.lc_spec.clone(),
                lc_cfg,
                Sac::new(sac_cfg, self.cfg.seed),
            ))
        } else {
            LcSizer::Heuristic(ProportionalController::new(
                self.fmem_total,
                self.lc_spec.rss_bytes,
                self.max_step_bytes,
                self.lc_spec.slo_secs,
            ))
        };
        self.ppm.cold_restart(sizer, self.cfg.seed ^ 0xBE);
        if let Some(sup) = &mut self.supervisor {
            *sup = Supervisor::default();
        }
        if let Some(h) = &mut self.hardening {
            *h = Hardening::default();
        }
        self.latest_plan = None;
        self.reset_accumulators();
        if let Some(lc_id) = self.lc_id {
            self.ppm.set_lc_target_bytes(mem.fmem_bytes_of(lc_id));
        }
    }
}

impl Policy for MtatPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        // PP-M opens the sac-forward / anneal child spans itself; PP-E
        // (created later, in init) is wired there.
        self.ppm.set_obs(obs.clone());
        if let Some(ppe) = &mut self.ppe {
            ppe.set_obs(obs.clone());
        }
    }

    fn init(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) {
        let lc = workloads
            .iter()
            .find(|w| w.is_lc())
            .expect("MTAT needs an LC workload");
        self.lc_id = Some(lc.id);
        let p_max_pairs = 512;
        let mut ppe = PartitionPolicyEnforcer::new(mem, lc.id.index(), p_max_pairs, REFINE_PAIRS);
        // The runner attaches the handle before init; forward it to the
        // freshly built enforcer.
        ppe.set_obs(self.obs.clone());
        self.ppe = Some(ppe);
        // Align the sizer's starting target with the initial placement.
        self.ppm.set_lc_target_bytes(mem.fmem_bytes_of(lc.id));
        if self.cfg.variant == MtatVariant::Full {
            let profiles = self.be_profiles(mem, workloads);
            self.ppm.set_be_profiles(profiles);
        }
        self.reset_accumulators();
    }

    fn fmem_target(&self, w: WorkloadId) -> Option<u64> {
        let ppe = self.ppe.as_ref()?;
        ppe.target_pages(w).map(|pages| pages * self.page_size)
    }

    fn degradation(&self) -> Option<DegradationState> {
        self.supervisor.as_ref().map(|s| s.state())
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.encode_checkpoint())
    }

    fn on_controller_crash(&mut self) {
        self.ppm_down = true;
    }

    fn on_controller_restart(&mut self, mem: &TieredMemory, checkpoint: Option<&[u8]>) {
        self.ppm_down = false;
        if let Some(payload) = checkpoint {
            if self.decode_checkpoint(payload).is_ok() {
                return;
            }
        }
        self.cold_restart(mem);
    }

    fn health_probe(&self) -> Result<(), String> {
        // The SAC diagnostics last_critic_loss / last_entropy are
        // legitimately NaN before the first gradient round and after a
        // restore (they are excluded from checkpoints), so the sentinel
        // deliberately skips them. acc_worst_p99 may be +inf on a
        // saturated interval; only NaN is poison there.
        if let Some(sac) = self.ppm.sac_agent() {
            if !sac.actor_param_l2().is_finite() {
                return Err("sac_actor_params".to_string());
            }
            if !sac.alpha().is_finite() {
                return Err("sac_alpha".to_string());
            }
        }
        if let Some(raw) = self.ppm.rl_raw_action() {
            if !raw.is_finite() {
                return Err("sac_raw_action".to_string());
            }
        }
        if self.acc_worst_p99.is_nan()
            || self.acc_access_rate.is_nan()
            || self.acc_hit_ratio.is_nan()
            || self.acc_load_rps.is_nan()
        {
            return Err("interval_accumulators".to_string());
        }
        if let Some(plan) = &self.latest_plan {
            let be_total: u64 = plan.be_bytes.iter().sum();
            let total = plan.lc_bytes.saturating_add(be_total);
            if total > self.fmem_total {
                return Err(format!(
                    "plan_overcommit: {total} > fmem {}",
                    self.fmem_total
                ));
            }
        }
        Ok(())
    }

    fn inject_poison(&mut self) {
        if let Some(sac) = self.ppm.sac_agent_mut() {
            sac.poison_actor();
        }
    }

    fn enter_quarantine(&mut self, now_secs: f64) {
        if let Some(sup) = &mut self.supervisor {
            // Latch the ladder at its trustworthy last rung; on_interval
            // holds there with no re-promotion.
            sup.set_latched(true, now_secs);
            self.ppm.set_mode(sup.state());
        } else {
            // Unsupervised: park the daemon entirely. PP-E keeps
            // enforcing the last plan — the paper's crash-survival
            // posture, reused as containment.
            self.ppm_down = true;
        }
    }

    fn after_rollback(&mut self, now_secs: f64) {
        // Re-enter via a conservative rung: the restored agent proved
        // trustworthy once, but the condition that poisoned its
        // successor may still be live. The ladder re-promotes to RL
        // only after its healthy window. A latched ladder stays at
        // Static.
        if let Some(sup) = &mut self.supervisor {
            sup.force_demote(DegradationState::Proportional, now_secs);
            self.ppm.set_mode(sup.state());
        }
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        let lc_id = self.lc_id.expect("init() must run first");
        let mut ppe = self.ppe.take().expect("init() must run first");
        {
            let _track = self.obs.span(sim.now_secs, "track");
            ppe.record_tick(sim.workloads);
        }

        if self.ppm_down {
            // The user-space daemon is dead. The in-kernel enforcer
            // carries on alone: it keeps enforcing and refining the
            // last plan and ages its histograms on the usual cadence,
            // but no observation is accumulated and no decision made.
            if sim.interval_boundary {
                ppe.age();
            }
            let _enforce = self.obs.span(sim.now_secs, "ppe-enforce");
            ppe.tick(sim.mem, sim.migration);
            self.ppe = Some(ppe);
            return;
        }

        // Accumulate the interval's LC observation.
        let lc = &sim.workloads[lc_id.index()];
        self.acc_violated |= lc.slo_violated;
        self.acc_worst_p99 = self.acc_worst_p99.max(lc.p99_secs);
        self.acc_access_rate += lc.access_rate;
        self.acc_hit_ratio += lc.hit_ratio;
        self.acc_load_rps += lc.load_rps;
        self.acc_ticks += 1;
        if let Some(sup) = &mut self.supervisor {
            sup.note_tick(sim.obs_age_ticks);
        }

        if sim.interval_boundary && self.acc_ticks > 0 {
            let transitions_before = self
                .supervisor
                .as_ref()
                .map_or(0, |s| s.transitions().len());
            // Adversarial-dynamics guards observe the interval first:
            // a pressure escalation must land on the supervisor before
            // its own on_interval runs, so the demotion takes effect in
            // this decision rather than the next.
            let guard_acts = self
                .hardening
                .as_mut()
                .map(|h| h.on_interval(sim.mem, sim.workloads))
                .unwrap_or_default();
            if guard_acts.escalate_pressure {
                if let Some(sup) = &mut self.supervisor {
                    sup.force_demote(DegradationState::Proportional, sim.now_secs);
                }
            }
            let prev_lc_bytes = self
                .latest_plan
                .as_ref()
                .map_or_else(|| self.ppm.lc_target_bytes(), |p| p.lc_bytes);
            let n = self.acc_ticks as f64;
            let usage = sim.mem.residency(lc_id).fmem_usage_ratio();
            let obs = LcObservation {
                usage_ratio: usage,
                access_ratio: self.acc_hit_ratio / n,
                access_count_norm: (self.acc_access_rate / n) / self.ref_access_rate,
                p99_secs: self.acc_worst_p99,
                violated: self.acc_violated,
            };
            // The previous plan has had its full interval of
            // enforcement: close its provenance record from the
            // migration-engine counter deltas, before set_plan clears
            // the retry queue and replaces the schedule.
            if let Some(snap) = self.prov_snap.take() {
                self.obs.provenance_finalize(
                    snap.seq,
                    EnforceOutcome {
                        granted_pages: sim.migration.total_pages_moved() - snap.moved,
                        failed_pages: sim.migration.failed_moves() - snap.failed,
                        retried_pages: sim.migration.retried_moves() - snap.retried,
                        deferred_pages: ppe.deferred_pages(),
                        schedule_done: !ppe.adjusting(),
                    },
                );
            }
            let plan_span = self.obs.span(sim.now_secs, "ppm-plan");
            if let Some(sup) = &mut self.supervisor {
                // Dead-sensor signature: requests are being served (the
                // LC server knows its own offered load) yet the sampled
                // access rate is zero — a PEBS blackout, not idleness.
                let sensor_dead = obs.access_count_norm <= 1e-6 && self.acc_load_rps / n > 0.0;
                let mode = sup.on_interval(sim.now_secs, obs.violated, sensor_dead);
                self.ppm.set_mode(mode);
            }
            let mut plan = self.ppm.decide(&obs);
            // Migration quarantine applies Jenga-style hysteresis to the
            // throughput side of the plan: while the thrash guard holds,
            // the BE-to-BE split is pinned at its pre-quarantine
            // proportions (rescaled into whatever pool the fresh
            // decision leaves the BEs), so the annealer stops feeding
            // Algorithm 3 slab flip-flops. The LC target keeps tracking
            // load — the SLO constraint always outranks the hysteresis,
            // so a load surge or drop re-sizes the LC partition even
            // mid-quarantine. The quarantine is bounded, so the full
            // plan always resumes within `quarantine_intervals`.
            let hold_plan = self.hardening.as_ref().is_some_and(Hardening::quarantined);
            if hold_plan {
                if let Some(prev) = &self.latest_plan {
                    let pool: u64 = plan.be_bytes.iter().sum();
                    let held: u64 = prev.be_bytes.iter().sum();
                    if held > 0 && prev.be_bytes.len() == plan.be_bytes.len() {
                        for (b, &h) in plan.be_bytes.iter_mut().zip(&prev.be_bytes) {
                            *b = (u128::from(h) * u128::from(pool) / u128::from(held)) as u64;
                        }
                    }
                }
            }
            if self.supervisor.is_some() && self.ppm.mode() == DegradationState::Rl {
                if let Some(raw) = self.ppm.rl_raw_action() {
                    if !raw.is_finite() {
                        // Diverged network: the partitioner held its
                        // target this interval; demote at the next
                        // boundary.
                        if let Some(sup) = &mut self.supervisor {
                            sup.note_nonfinite();
                        }
                    }
                }
            }

            // Convert the byte plan into PP-E page targets.
            let mut targets = vec![None; sim.workloads.len()];
            targets[lc_id.index()] = Some(plan.lc_bytes / self.page_size);
            if self.cfg.variant == MtatVariant::Full {
                let mut be_iter = plan.be_bytes.iter();
                for w in sim.workloads.iter() {
                    if !w.is_lc() {
                        if let Some(&bytes) = be_iter.next() {
                            targets[w.id.index()] = Some(bytes / self.page_size);
                        }
                    }
                }
            }
            ppe.set_plan(sim.mem, targets);
            ppe.age();
            if guard_acts.extra_age {
                // Leak-drift renormalization: one extra halving round
                // drains the popularity mass that dead (leaked) pages
                // accumulated, so live pages win refinement again.
                ppe.age();
            }
            drop(plan_span);
            if self.obs.tracing_enabled() {
                self.open_plan_provenance(sim, &obs, &plan);
            }
            if self.obs.is_enabled() {
                if let Some(h) = &self.hardening {
                    self.obs.gauge("mtat.thrash_signal", h.thrash_signal());
                    self.obs
                        .gauge("mtat.guard_throttle_shift", h.throttle_shift() as f64);
                    let fire = |kind: &str| {
                        self.obs.count("mtat.guard_events", 1);
                        self.obs.event(
                            sim.now_secs,
                            "mtat",
                            Severity::Warn,
                            "guard",
                            &[("kind", kind.to_string())],
                        );
                    };
                    if guard_acts.quarantine_entered {
                        fire("quarantine_entered");
                    }
                    if guard_acts.quarantine_exited {
                        fire("quarantine_exited");
                    }
                    if guard_acts.escalate_pressure {
                        fire("pressure_escalation");
                    }
                    if guard_acts.extra_age {
                        fire("leak_renorm");
                    }
                    if hold_plan {
                        fire("plan_held");
                    }
                }
                self.emit_interval_telemetry(sim.now_secs, &plan, prev_lc_bytes);
                if let Some(sup) = &self.supervisor {
                    let transitions = sup.transitions();
                    if transitions.len() > transitions_before {
                        let t = transitions.last().expect("length just checked");
                        self.obs.count("mtat.supervisor_transitions", 1);
                        self.obs.event(
                            sim.now_secs,
                            "mtat",
                            Severity::Warn,
                            "supervisor_transition",
                            &[("to", t.to.label().to_string())],
                        );
                        self.obs.dump_flight_recorder("supervisor transition");
                    }
                }
            }
            self.latest_plan = Some(plan);
            self.reset_accumulators();
        }

        // Placement freeze composes two causes: the §7 bandwidth
        // extension and the thrash guard's quarantine. Either alone
        // freezes; on the plain paper configuration, with neither
        // configured, PP-E stays unfrozen at the nominal rate.
        let bw_frozen = self
            .cfg
            .bandwidth_freeze_util
            .is_some_and(|t| sim.fmem_bw_util > t);
        let hardening = self.hardening.as_ref();
        ppe.set_placement_frozen(bw_frozen || hardening.is_some_and(Hardening::quarantined));
        ppe.set_migration_throttle(hardening.map_or(0, Hardening::throttle_shift));
        {
            let _enforce = self.obs.span(sim.now_secs, "ppe-enforce");
            ppe.tick(sim.mem, sim.migration);
        }
        if self.obs.is_enabled() {
            self.obs
                .gauge("mtat.ppe_deferred_pages", ppe.deferred_pages() as f64);
        }
        self.ppe = Some(ppe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::policy::WorkloadClass;
    use mtat_tiermem::memory::InitialPlacement;

    fn small_lc() -> LcSpec {
        let mut s = LcSpec::redis();
        // Shrink the resident set so tests run on the small memory spec.
        s.rss_bytes = 512 * mtat_tiermem::MIB;
        s
    }

    fn small_be() -> BeSpec {
        let mut s = BeSpec::sssp();
        s.rss_bytes = 512 * mtat_tiermem::MIB;
        s
    }

    fn obs(
        mem: &TieredMemory,
        w: WorkloadId,
        class: WorkloadClass,
        sampled: Vec<u64>,
        violated: bool,
        load: f64,
    ) -> WorkloadObs {
        WorkloadObs {
            id: w,
            class,
            name: format!("w{}", w.0),
            rss_bytes: mem.region(w).n_pages as u64 * mem.spec().page_size(),
            cores: 1,
            load_rps: load,
            p99_secs: if violated { 1.0 } else { 1e-3 },
            slo_secs: 20e-3,
            hit_ratio: mem.residency(w).fmem_usage_ratio(),
            access_rate: load * 28.0,
            throughput: load,
            sampled,
            touched: Default::default(),
            slo_violated: violated,
        }
    }

    /// A policy gets the agent its own inputs pretrain, whatever the
    /// process pretrained before it: the agent cache keys on every
    /// input of `LcPartitioner::pretrained`, exactly.
    #[test]
    fn agent_cache_keys_on_every_pretraining_input() {
        use mtat_snapshot::{Snap, SnapWriter};
        use mtat_tiermem::{memory::MemorySpec, GIB, MIB};
        const STEPS: usize = 96;
        // Builds the policy, asserts it holds the agent its inputs
        // pretrain, and returns that agent's bytes.
        let agent_of = |lc: &LcSpec, sim: &SimConfig, seed: u64| {
            let bytes = |agent: &Sac| {
                let mut w = SnapWriter::new();
                agent.snap(&mut w);
                w.into_bytes()
            };
            let cfg = MtatConfig {
                pretrain_steps: STEPS,
                seed,
                ..MtatConfig::lc_only()
            };
            let policy = MtatPolicy::new(cfg, sim, lc, &[]);
            let lc_cfg = LcPartitionerConfig {
                fmem_total: sim.mem.fmem_bytes(),
                max_step_bytes: sim.migration_bw * sim.interval_secs / 2.0,
                online_learning: true,
            };
            let want = bytes(LcPartitioner::pretrained(lc, lc_cfg, STEPS, seed).agent());
            let got = bytes(policy.ppm.sac_agent().expect("RL sizer"));
            assert!(
                got == want,
                "seed {seed}, fmem {}, bw {}, {lc:?}",
                sim.mem.fmem_bytes(),
                sim.migration_bw
            );
            want
        };
        // A name no other test pretrains, so this test owns its keys.
        // Its RSS exceeds both FMem sizes below, so FMem caps the
        // allocation.
        let lc = LcSpec {
            name: "agent-cache-key-probe".to_string(),
            rss_bytes: 2 * GIB,
            ..LcSpec::redis()
        };
        let sim = SimConfig::small_test();
        let base = agent_of(&lc, &sim, 1);
        // Each case changes one input the old key (name, cores, whole
        // GiB of FMem and of step, steps) could not see, by enough to
        // change the pretrained agent.
        let fmem = SimConfig {
            mem: MemorySpec::new(GIB + GIB / 2, 8 * GIB, MIB).expect("valid spec"),
            ..sim.clone()
        };
        let step = SimConfig {
            migration_bw: sim.migration_bw * 1.1,
            ..sim.clone()
        };
        let with = |f: &dyn Fn(&mut LcSpec)| {
            let mut s = lc.clone();
            f(&mut s);
            s
        };
        let cases = [
            ("seed", lc.clone(), &sim, 2),
            ("slo", with(&|s| s.slo_secs = 1e-6), &sim, 1),
            ("cpu", with(&|s| s.cpu_secs *= 1e3), &sim, 1),
            ("rss", with(&|s| s.rss_bytes /= 2), &sim, 1),
            ("accesses", with(&|s| s.accesses_per_req *= 1e2), &sim, 1),
            ("fmem", lc.clone(), &fmem, 1),
            ("step", lc.clone(), &step, 1),
        ];
        for (what, lc, sim, seed) in &cases {
            assert!(
                agent_of(lc, sim, *seed) != base,
                "changing {what} pretrains the same agent"
            );
        }
    }

    /// The bits of each profile's throughput steps and `Perf_full`.
    fn profile_bits(profiles: &[BeProfile]) -> Vec<(Vec<u64>, u64)> {
        let bits = |p: &BeProfile| p.throughput.iter().map(|x| x.to_bits()).collect();
        profiles
            .iter()
            .map(|p| (bits(p), p.perf_full.to_bits()))
            .collect()
    }

    /// MTAT (Full) with the heuristic sizer, for profiling tests.
    fn heuristic_full(sim: &SimConfig, lc: &LcSpec, bes: &[BeSpec]) -> MtatPolicy {
        MtatPolicy::new(MtatConfig::full().with_heuristic_sizer(), sim, lc, bes)
    }

    /// `init` profiles each BE from the weights the runner registered
    /// with the page table, and the result is `profile_all`'s bit for
    /// bit: the paper's four BEs at 2 MiB and 128 KiB pages, and
    /// `heal_storm`'s 2 GiB SSSP at 1 MiB, each at 32 GiB and 1 GiB of
    /// FMem, through a zero-tick run. Two 2 GiB BEs of different skew
    /// have weights of one length, so a BE profiled from the other's
    /// weights fails there.
    #[test]
    fn init_profiles_from_registered_weights_bit_for_bit() {
        use crate::ppm::profiler::profile_all;
        use crate::runner::Experiment;
        use mtat_tiermem::memory::MemorySpec;
        use mtat_tiermem::{GIB, KIB, MIB};
        use mtat_workloads::load::LoadPattern;
        let two_gib = |spec: BeSpec| BeSpec {
            rss_bytes: 2 * GIB,
            ..spec
        };
        let heal_sssp = two_gib(BeSpec::sssp());
        let paper = BeSpec::all_paper_workloads();
        let cases = [
            (&paper, 2 * MIB),
            (&paper, 128 * KIB),
            (&vec![heal_sssp.clone()], MIB),
            (&vec![heal_sssp, two_gib(BeSpec::pagerank())], MIB),
        ];
        for (bes, page) in cases {
            for fmem in [32 * GIB, GIB] {
                let sim = SimConfig {
                    mem: MemorySpec::new(fmem, 256 * GIB, page).expect("valid spec"),
                    ..SimConfig::small_test()
                };
                let lc = LcSpec {
                    rss_bytes: GIB,
                    ..LcSpec::redis()
                };
                let exp = Experiment::new(sim, lc, LoadPattern::Constant(0.5), bes.clone())
                    .with_duration(0.0);
                let mut policy = heuristic_full(&exp.cfg, &exp.lc, &exp.bes);
                exp.try_run(&mut policy).expect("zero-tick run");
                let want = profile_all(bes, fmem, page);
                assert_eq!(
                    profile_bits(policy.ppm.be_profiles()),
                    profile_bits(&want),
                    "{} BEs, page {page}, fmem {fmem}",
                    bes.len()
                );
            }
        }
    }

    /// On a memory with no weights of the expected length registered —
    /// none at all, or a region at another page size than the policy's
    /// — `init` profiles from the spec; weights of that length are what
    /// it profiles, whatever their shape.
    #[test]
    fn init_profiles_from_the_spec_without_matching_weights() {
        use crate::ppm::profiler::profile_all;
        use mtat_tiermem::memory::MemorySpec;
        use mtat_tiermem::MIB;
        let sim = SimConfig::small_test();
        let (lc_spec, be_spec) = (small_lc(), small_be());
        let bes = std::slice::from_ref(&be_spec);
        let (fmem, page) = (sim.mem.fmem_bytes(), sim.mem.page_size());
        let from_spec = profile_all(bes, fmem, page);
        let profiled = |mem: &TieredMemory, lc, be| {
            let mut policy = heuristic_full(&sim, &lc_spec, bes);
            let init = [
                obs(mem, lc, WorkloadClass::Lc, Vec::new(), false, 0.0),
                obs(mem, be, WorkloadClass::Be, Vec::new(), false, 0.0),
            ];
            policy.init(mem, &init);
            policy.ppm.be_profiles().to_vec()
        };
        let build = |spec: MemorySpec| {
            let mut mem = TieredMemory::new(spec);
            let lc = mem
                .register_workload(lc_spec.rss_bytes, InitialPlacement::FmemFirst)
                .unwrap();
            let be = mem
                .register_workload(be_spec.rss_bytes, InitialPlacement::AllSmem)
                .unwrap();
            (mem, lc, be)
        };

        let (mut mem, lc, be) = build(sim.mem);
        assert_eq!(
            profile_bits(&profiled(&mem, lc, be)),
            profile_bits(&from_spec)
        );
        let n = mem.region(be).len();
        let uniform = vec![1.0 / n as f64; n];
        mem.register_popularity(be, &uniform).unwrap();
        let want = BeProfile::from_weights(&be_spec, &uniform, fmem, page);
        let got = profiled(&mem, lc, be);
        assert_eq!(profile_bits(&got), profile_bits(&[want]));
        assert_ne!(profile_bits(&got), profile_bits(&from_spec));

        // The same BE at 2 MiB pages registers half as many weights as
        // the policy's 1 MiB pages profile.
        let coarse = MemorySpec::new(fmem, sim.mem.smem_bytes(), 2 * MIB).unwrap();
        let (mut mem, lc, be) = build(coarse);
        let n = mem.region(be).len();
        mem.register_popularity(be, &vec![1.0 / n as f64; n])
            .unwrap();
        assert_eq!(
            profile_bits(&profiled(&mem, lc, be)),
            profile_bits(&from_spec)
        );
    }

    /// Heuristic-sizer MTAT on a miniature system: a violated interval
    /// grows the LC partition; a calm one shrinks it.
    #[test]
    fn mtat_grows_lc_partition_on_violation() {
        let sim_cfg = SimConfig::small_test();
        let lc_spec = small_lc();
        let be_spec = small_be();
        let mut policy = MtatPolicy::new(
            MtatConfig::full().with_heuristic_sizer(),
            &sim_cfg,
            &lc_spec,
            std::slice::from_ref(&be_spec),
        );

        let mut mem = TieredMemory::new(sim_cfg.mem);
        let lc = mem
            .register_workload(lc_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let be = mem
            .register_workload(be_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = mtat_tiermem::migration::MigrationEngine::new(
            sim_cfg.migration_bw,
            sim_cfg.mem.page_size(),
            sim_cfg.interval_secs,
        )
        .unwrap();

        let n_lc = mem.region(lc).n_pages as usize;
        let n_be = mem.region(be).n_pages as usize;
        let init = [
            obs(&mem, lc, WorkloadClass::Lc, vec![0; n_lc], false, 0.0),
            obs(&mem, be, WorkloadClass::Be, vec![0; n_be], false, 0.0),
        ];
        policy.init(&mem, &init);
        assert_eq!(policy.name(), "mtat_full_heuristic");

        // Drive several intervals of SLO violations.
        for t in 0..30 {
            let w = [
                obs(&mem, lc, WorkloadClass::Lc, vec![1; n_lc], true, 1000.0),
                obs(&mem, be, WorkloadClass::Be, vec![3; n_be], false, 0.0),
            ];
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t > 0 && t % 5 == 0,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
        let grown = mem.residency(lc).fmem_pages;
        assert!(grown > 0, "LC partition should have grown, got {grown}");
        let plan = policy.latest_plan().expect("plan exists").clone();
        assert!(plan.lc_bytes > 0);
        assert_eq!(plan.be_bytes.len(), 1);

        // Now calm intervals: partition should shrink back.
        for t in 30..80 {
            let w = [
                obs(&mem, lc, WorkloadClass::Lc, vec![1; n_lc], false, 10.0),
                obs(&mem, be, WorkloadClass::Be, vec![3; n_be], false, 0.0),
            ];
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t % 5 == 0,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
        let shrunk = mem.residency(lc).fmem_pages;
        assert!(
            shrunk < grown,
            "LC partition should shrink when idle: {grown} -> {shrunk}"
        );
        mem.check_invariants().unwrap();
    }

    /// The supervised policy demotes to the proportional controller
    /// after a sustained SLO-violation streak and re-promotes to the RL
    /// sizer once the configured healthy window passes.
    #[test]
    fn supervisor_demotes_on_violation_streak_and_repromotes() {
        let sim_cfg = SimConfig::small_test();
        let lc_spec = small_lc();
        let be_spec = small_be();
        let mut policy = MtatPolicy::new(
            MtatConfig::full().with_heuristic_sizer().supervised(),
            &sim_cfg,
            &lc_spec,
            std::slice::from_ref(&be_spec),
        );
        assert_eq!(policy.name(), "mtat_full_heuristic_supervised");
        assert_eq!(policy.degradation(), Some(DegradationState::Rl));

        let mut mem = TieredMemory::new(sim_cfg.mem);
        let lc = mem
            .register_workload(lc_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let be = mem
            .register_workload(be_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = mtat_tiermem::migration::MigrationEngine::new(
            sim_cfg.migration_bw,
            sim_cfg.mem.page_size(),
            sim_cfg.interval_secs,
        )
        .unwrap();
        let n_lc = mem.region(lc).n_pages as usize;
        let n_be = mem.region(be).n_pages as usize;
        let init = [
            obs(&mem, lc, WorkloadClass::Lc, vec![0; n_lc], false, 0.0),
            obs(&mem, be, WorkloadClass::Be, vec![0; n_be], false, 0.0),
        ];
        policy.init(&mem, &init);

        let drive = |policy: &mut MtatPolicy,
                     mem: &mut TieredMemory,
                     engine: &mut mtat_tiermem::migration::MigrationEngine,
                     t0: usize,
                     ticks: usize,
                     violated: bool| {
            for t in t0..t0 + ticks {
                let w = [
                    obs(mem, lc, WorkloadClass::Lc, vec![1; n_lc], violated, 800.0),
                    obs(mem, be, WorkloadClass::Be, vec![3; n_be], false, 0.0),
                ];
                engine.begin_tick(1.0);
                let mut sim = SimState {
                    mem,
                    migration: engine,
                    workloads: &w,
                    tick_secs: 1.0,
                    now_secs: t as f64,
                    interval_boundary: t > 0 && t % 5 == 0,
                    obs_age_ticks: 0,
                    fmem_bw_util: 0.0,
                    smem_bw_util: 0.0,
                    scenario_phase: 0,
                };
                policy.on_tick(&mut sim);
            }
        };

        // Default thresholds demote after 3 consecutive violating
        // intervals: 4 intervals of violations are plenty.
        drive(&mut policy, &mut mem, &mut engine, 0, 21, true);
        assert_eq!(
            policy.degradation(),
            Some(DegradationState::Proportional),
            "sustained violations should demote the RL sizer"
        );

        // A healthy window re-promotes.
        drive(&mut policy, &mut mem, &mut engine, 21, 25, false);
        assert_eq!(
            policy.degradation(),
            Some(DegradationState::Rl),
            "healthy intervals should re-promote to the RL sizer"
        );
    }

    /// A PEBS blackout (zero sampled access rate while requests are
    /// being served) demotes immediately — and keeps the policy demoted
    /// for as long as the sensor stays dead.
    #[test]
    fn supervisor_demotes_on_dead_sensor() {
        let sim_cfg = SimConfig::small_test();
        let lc_spec = small_lc();
        let mut policy = MtatPolicy::new(
            MtatConfig::lc_only().with_heuristic_sizer().supervised(),
            &sim_cfg,
            &lc_spec,
            &[],
        );
        let mut mem = TieredMemory::new(sim_cfg.mem);
        let lc = mem
            .register_workload(lc_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let mut engine = mtat_tiermem::migration::MigrationEngine::new(
            sim_cfg.migration_bw,
            sim_cfg.mem.page_size(),
            sim_cfg.interval_secs,
        )
        .unwrap();
        let n_lc = mem.region(lc).n_pages as usize;
        let init = [obs(&mem, lc, WorkloadClass::Lc, vec![0; n_lc], false, 0.0)];
        policy.init(&mem, &init);

        for t in 0..11 {
            // Requests flow (load 800) but the sampler reports nothing.
            let mut lc_obs = obs(&mem, lc, WorkloadClass::Lc, vec![0; n_lc], false, 800.0);
            lc_obs.access_rate = 0.0;
            let w = [lc_obs];
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t > 0 && t % 5 == 0,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
        assert_eq!(
            policy.degradation(),
            Some(DegradationState::Proportional),
            "a dead sensor should demote even without SLO violations"
        );
    }

    #[test]
    fn lc_only_variant_has_no_be_targets() {
        let sim_cfg = SimConfig::small_test();
        let lc_spec = small_lc();
        let be_spec = small_be();
        let mut policy = MtatPolicy::new(
            MtatConfig::lc_only().with_heuristic_sizer(),
            &sim_cfg,
            &lc_spec,
            std::slice::from_ref(&be_spec),
        );
        let mut mem = TieredMemory::new(sim_cfg.mem);
        let lc = mem
            .register_workload(lc_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let be = mem
            .register_workload(be_spec.rss_bytes, InitialPlacement::AllSmem)
            .unwrap();
        let n_lc = mem.region(lc).n_pages as usize;
        let n_be = mem.region(be).n_pages as usize;
        let init = [
            obs(&mem, lc, WorkloadClass::Lc, vec![0; n_lc], false, 0.0),
            obs(&mem, be, WorkloadClass::Be, vec![0; n_be], false, 0.0),
        ];
        policy.init(&mem, &init);
        assert_eq!(policy.name(), "mtat_lc_only_heuristic");

        let mut engine = mtat_tiermem::migration::MigrationEngine::new(
            sim_cfg.migration_bw,
            sim_cfg.mem.page_size(),
            sim_cfg.interval_secs,
        )
        .unwrap();
        for t in 0..12 {
            let w = [
                obs(&mem, lc, WorkloadClass::Lc, vec![1; n_lc], true, 500.0),
                obs(&mem, be, WorkloadClass::Be, vec![5; n_be], false, 0.0),
            ];
            engine.begin_tick(1.0);
            let mut sim = SimState {
                mem: &mut mem,
                migration: &mut engine,
                workloads: &w,
                tick_secs: 1.0,
                now_secs: t as f64,
                interval_boundary: t > 0 && t % 5 == 0,
                obs_age_ticks: 0,
                fmem_bw_util: 0.0,
                smem_bw_util: 0.0,
                scenario_phase: 0,
            };
            policy.on_tick(&mut sim);
        }
        // LC has an explicit target; BE does not.
        assert!(policy.fmem_target(lc).is_some());
        assert_eq!(policy.fmem_target(be), None);
    }
}
