//! The four benchmark workloads and the inputs each generates from its
//! seed. The program under test receives only these inputs.

use mtat_core::config::SimConfig;
use mtat_core::policy::memtis::MemtisPolicy;
use mtat_core::policy::mtat::{MtatConfig, MtatPolicy};
use mtat_core::runner::{CheckpointCfg, Experiment};
use mtat_core::{HealthConfig, Policy};
use mtat_fleet::{FleetConfig, RouterCfg, RoutingPolicy, ShardSize};
use mtat_obs::alert::AlertRule;
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::adversarial;

/// The seed used when none is given (`SimConfig::paper()`'s own seed).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// SAC pretraining interactions for the MTAT workloads: a quarter of the
/// paper default (12 000), so that a run's cold start pretrains in a few
/// seconds. Pretraining cost is linear in this count.
pub const MTAT_PRETRAIN_STEPS: usize = 3_000;

/// Shards per fleet repetition, as many as the fleet gate runs, so that
/// a repetition's p99 shard has ten shards beyond it.
pub const FLEET_SHARDS: usize = 1000;

/// Ticks each fleet shard runs: 20 one-second ticks (two routing
/// epochs), a sixth of the fleet gate's day, so that a 1000-shard
/// repetition takes about three and a half seconds on two cores and
/// five fit in a run.
pub const FLEET_TICKS: usize = 20;

/// Shards in the fleet warm-up.
pub const FLEET_WARMUP_SHARDS: usize = 16;

/// Ticks in the single-host warm-up.
pub const WARMUP_TICKS: u64 = 240;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMtat,
    PaperMemtis,
    HealStorm,
    FleetTiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMtat,
        Workload::PaperMemtis,
        Workload::HealStorm,
        Workload::FleetTiny,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMtat => "paper_mtat",
            Workload::PaperMemtis => "paper_memtis",
            Workload::HealStorm => "heal_storm",
            Workload::FleetTiny => "fleet_tiny",
        }
    }

    /// Why the workload exists, in one line.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperMtat => {
                "the paper's own system on its Fig. 7 evaluation shape: SAC pretraining, \
                 PP-M plans (SAC forward + annealing) and PP-E enforcement at paper scale"
            }
            Workload::PaperMemtis => {
                "same page-table and sampler work with no PP-M and no pretraining: \
                 sampler and tracker gains show here, PP-M gains do not"
            }
            Workload::HealStorm => {
                "the same layers used differently: 10x denser sampling, per-call migration \
                 faults, checkpoints, rollbacks, scenario churn and telemetry publishing"
            }
            Workload::FleetTiny => {
                "many short experiments: per-experiment construction, traffic and routing \
                 planning and the worker pool matter here and nowhere else"
            }
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Fig. 7 trapezoid repeated 5 times: 1200 one-second ticks, so a
/// repetition's p99 tick has ten ticks beyond it.
fn fig7_repeated() -> LoadPattern {
    let LoadPattern::Steps(steps) = LoadPattern::fig7() else {
        unreachable!("fig7 is a step pattern")
    };
    LoadPattern::Steps(steps.repeat(5))
}

/// Length of `heal_storm`'s simulated day, seconds.
const HEAL_DAY_SECS: f64 = 1200.0;

/// The soak harness's diurnal curve compressed to a 20-minute day:
/// 24 steps from a 0.35 trough to a 0.75 midday peak.
fn compressed_day() -> LoadPattern {
    LoadPattern::Steps(
        (0..24)
            .map(|h| {
                let s = (std::f64::consts::PI * f64::from(h) / 24.0).sin();
                (HEAL_DAY_SECS / 24.0, 0.35 + 0.4 * s * s)
            })
            .collect(),
    )
}

/// `heal_storm`'s fault schedule: the same five windows in every 600 s
/// period of the day; the seed drives the fault layer's own draws
/// (per-page migration failures, telemetry noise). The offsets are
/// fixed because where faults land decides how much recovery work a
/// run does: seed-drawn offsets moved host time per tick by a third
/// from seed to seed. Each sits 1 s past a 5 s partitioning-interval
/// boundary, so no fault edge coincides with one. The corruption window
/// covers the capture at 300 s and the controller crash follows it, so
/// each restart falls back a generation.
#[must_use]
pub fn heal_faults(seed: u64) -> FaultPlan {
    const PERIOD: f64 = 600.0;
    let windows = [
        (FaultKind::FaultStorm { intensity: 0.95 }, 46.0, 60.0),
        (FaultKind::MigrationFlaky { prob: 0.2 }, 151.0, 60.0),
        (FaultKind::CheckpointCorrupt, 271.0, 30.0),
        (FaultKind::PpmCrash, 306.0, 20.0),
        (FaultKind::AccumulatorDrift { delta: 5e-4 }, 451.0, 10.0),
    ];
    let mut plan = FaultPlan::new(seed ^ 0x50AC);
    for period in 0..(HEAL_DAY_SECS / PERIOD) as usize {
        for &(kind, at, dur) in &windows {
            plan = plan.with(kind, period as f64 * PERIOD + at, dur);
        }
    }
    plan
}

/// The single-host experiment of `w`, telemetry explicitly off.
///
/// # Panics
///
/// Panics for [`Workload::FleetTiny`], which is not a single host.
#[must_use]
pub fn host_experiment(w: Workload, seed: u64) -> Experiment {
    let exp = match w {
        Workload::PaperMtat | Workload::PaperMemtis => Experiment::new(
            SimConfig::paper().with_seed(seed),
            LcSpec::redis(),
            fig7_repeated(),
            BeSpec::all_paper_workloads(),
        ),
        Workload::HealStorm => {
            let mut lc = LcSpec::redis();
            lc.rss_bytes = (1.2 * GIB as f64) as u64;
            let mut be = BeSpec::sssp();
            be.rss_bytes = 2 * GIB;
            Experiment::new(
                SimConfig::small_test().with_seed(seed),
                lc,
                compressed_day(),
                vec![be],
            )
            .with_fault_plan(heal_faults(seed))
            .with_checkpoints(CheckpointCfg::in_memory().with_every(12))
            .with_health(HealthConfig::self_heal())
            .with_scenario(adversarial("thrash_rotate").expect("thrash_rotate is registered"))
        }
        Workload::FleetTiny => panic!("fleet_tiny is not a single-host workload"),
    };
    with_telemetry(w, exp, false)
}

/// Attaches a fresh telemetry handle: traced when `traced`, otherwise
/// off, except that `heal_storm` always runs with metrics, SLO alerts
/// and a telemetry hub (no server thread), which it exists to exercise.
#[must_use]
pub fn with_telemetry(w: Workload, exp: Experiment, traced: bool) -> Experiment {
    let obs = if traced {
        Obs::traced()
    } else if w == Workload::HealStorm {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let exp = exp.with_obs(obs);
    if w == Workload::HealStorm {
        exp.with_alerts(AlertRule::default_rules(0.01))
            .with_hub(TelemetryHub::new())
    } else {
        exp
    }
}

/// Builds `w`'s policy for `exp`. For the MTAT workloads this pretrains
/// the SAC agent (or takes it from the process-wide agent cache).
#[must_use]
pub fn host_policy(w: Workload, exp: &Experiment) -> Box<dyn Policy> {
    let mtat = |cfg: MtatConfig| -> Box<dyn Policy> {
        let cfg = MtatConfig {
            pretrain_steps: MTAT_PRETRAIN_STEPS,
            ..cfg
        };
        Box::new(MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes))
    };
    match w {
        Workload::PaperMtat => mtat(MtatConfig::full()),
        Workload::PaperMemtis => Box::new(MemtisPolicy::new()),
        Workload::HealStorm => mtat(MtatConfig::full().supervised()),
        Workload::FleetTiny => panic!("fleet_tiny builds its policies per shard"),
    }
}

/// The fleet of `n_shards` tiny hosts under the heuristic MTAT policy
/// and hot-shard-aware routing, seeded by `seed`.
#[must_use]
pub fn fleet_config(seed: u64, n_shards: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(n_shards, seed, FLEET_TICKS as f64, 10.0);
    cfg.policy = "mtat_full_heuristic".into();
    cfg.shard_size = ShardSize::Tiny;
    cfg.router = RouterCfg {
        policy: RoutingPolicy::HotShardAware { hot_mult: 1.25 },
        ..RouterCfg::default()
    };
    cfg
}
