//! The fleet itself: N independent shards under routed traffic.
//!
//! A **shard** is one simulated host — a full `Experiment` with its own
//! PP-M/PP-E instance, an LC serving its routed slice of fleet traffic
//! and a BE soaking up leftover FMem. Shards never share mutable state;
//! each is a pure function of `(FleetConfig, shard_id)`:
//!
//! * the shard's `SimConfig` seed is [`crate::shard_seed`]`(fleet_seed,
//!   id)`;
//! * its offered-load trace is row `id` of the routed level matrix,
//!   which is itself deterministic arithmetic over the traffic spec;
//! * its fault plan is the first [`ShardFaultPlane`] whose id range
//!   contains it (or no faults).
//!
//! The one thing shards share is read-only: every shard runs the same
//! BE on the same memory, so the fleet builds that BE's set-up inputs
//! ([`BeInputs`]) once, on the first shard that runs, and hands every
//! shard the same set. A shard on inputs of its own
//! ([`Fleet::run_shard_own_inputs`]) is bit-identical.
//!
//! Because of that purity, [`Fleet::run`] is bit-identical at any
//! worker count and under any shard execution order — the property the
//! `fleet_sim --check` gate asserts — and per-shard fault planes are
//! *confined by construction* when router draining is off: routing
//! never looks at the fault planes, so an untargeted shard's inputs
//! (and hence its digest) are unchanged by chaos elsewhere in the
//! fleet.
//!
//! Aggregation merges per-shard registries **in shard order** with
//! [`Registry::merge`] — deterministic, unlike having shards write a
//! shared registry from racing workers — and summarizes SLO compliance,
//! BE throughput, and migration totals across the fleet.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use mtat_bench::harness::{chunk_for, run_matrix_chunked};
use mtat_bench::make_policy;
use mtat_core::config::SimConfig;
use mtat_core::runner::{BeInputs, CheckpointCfg, Experiment};
use mtat_core::HealthConfig;
use mtat_obs::registry::Registry;
use mtat_obs::Obs;
use mtat_snapshot::fnv1a64;
use mtat_tiermem::faults::FaultPlan;
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;

use crate::routing::{route, Routed, RouterCfg};
use crate::traffic::{TrafficError, TrafficSpec};

/// Hard per-shard level cap (multiple of the shard's reference load).
/// Demand above the fleet-wide cap is dropped.
pub const LEVEL_CAP: f64 = 1.6;
/// Capacity multiplier applied to a draining shard (only when
/// [`RouterCfg::drain`] is set).
pub const DRAIN_FRAC: f64 = 0.25;

/// A fault plan targeted at a contiguous range of shard ids. Chaos hits
/// the subset; the rest of the fleet absorbs routed traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFaultPlane {
    /// The targeted shard ids (half-open).
    pub shards: Range<usize>,
    /// The plan every targeted shard runs.
    pub plan: FaultPlan,
}

impl ShardFaultPlane {
    /// Whether shard `i` is targeted by this plane.
    #[must_use]
    pub fn targets(&self, i: usize) -> bool {
        self.shards.contains(&i)
    }
}

/// How big each simulated host is. Shard size trades fidelity for
/// fleet scale: per-shard cost is dominated by page-move count
/// (migration bandwidth over page size), so the tiny profile runs
/// roughly an order of magnitude more shards per core-second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSize {
    /// The soak-harness host: 1 GiB FMem / 8 GiB SMem / 1 MiB pages,
    /// 1 GiB/s migration, redis at 1.2 GiB + sssp at 2 GiB, PEBS
    /// period 101.
    Small,
    /// The same host with a 10× coarser PEBS period (1009). Per-shard
    /// cost is dominated by sampler events — O(accesses / period) —
    /// so this runs ~8× more shards per core-second at the price of
    /// noisier per-page hotness estimates, which is the right trade
    /// for 1000-shard quick fleets.
    Tiny,
}

impl ShardSize {
    fn sim_config(self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::small_test().with_seed(seed);
        if self == ShardSize::Tiny {
            cfg.sampler_period = 1009.0;
        }
        cfg
    }

    fn lc(self) -> LcSpec {
        let mut s = LcSpec::redis();
        s.rss_bytes = (1.2 * GIB as f64) as u64;
        s
    }

    fn be(self) -> BeSpec {
        let mut s = BeSpec::sssp();
        s.rss_bytes = 2 * GIB;
        s
    }
}

/// Everything that defines a fleet run. Two equal configs produce
/// bit-identical [`FleetResult`]s at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shards (simulated hosts).
    pub n_shards: usize,
    /// Fleet master seed; every shard seed is split from it.
    pub fleet_seed: u64,
    /// Policy name for every shard (see `mtat_bench::make_policy`).
    pub policy: String,
    /// Run length in simulated seconds.
    pub duration_secs: f64,
    /// Routing-epoch length in simulated seconds.
    pub epoch_secs: f64,
    /// The open-loop fleet demand.
    pub traffic: TrafficSpec,
    /// How demand is assigned to shards.
    pub router: RouterCfg,
    /// Fault planes; a shard runs the first plane that targets it.
    pub faults: Vec<ShardFaultPlane>,
    /// Collect per-shard registries and merge them fleet-wide.
    pub metrics: bool,
    /// Capture a full span trace on this one shard (tracing the whole
    /// fleet would be gigabytes; one exemplar shard is the debuggable
    /// unit).
    pub trace_shard: Option<usize>,
    /// Arm the self-healing runtime (health sentinel + in-memory
    /// checkpoints) on every shard. Required for fault plans that
    /// poison the agent (e.g. `SacPoison`, storms with intensity
    /// ≥ 0.9).
    pub self_heal: bool,
    /// How big each simulated host is.
    pub shard_size: ShardSize,
}

impl FleetConfig {
    /// A baseline fleet: `n_shards` hosts over `duration_secs` with the
    /// default diurnal traffic (scenario attached), hot-shard-aware
    /// routing, no faults, no metrics.
    #[must_use]
    pub fn new(n_shards: usize, fleet_seed: u64, duration_secs: f64, epoch_secs: f64) -> Self {
        Self {
            n_shards,
            fleet_seed,
            policy: "mtat_full".into(),
            duration_secs,
            epoch_secs,
            traffic: TrafficSpec::diurnal(duration_secs)
                .with_default_scenario(fleet_seed, duration_secs),
            router: RouterCfg::default(),
            faults: Vec::new(),
            metrics: false,
            trace_shard: None,
            self_heal: false,
            shard_size: ShardSize::Small,
        }
    }

    fn plan_for(&self, shard: usize) -> FaultPlan {
        self.faults
            .iter()
            .find(|p| p.targets(shard))
            .map_or_else(FaultPlan::none, |p| p.plan.clone())
    }
}

/// What one shard reports back. Deliberately summary-sized — the tick
/// series is digested and dropped so a 1000-shard fleet doesn't hold
/// 1000 full time series in memory.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard id.
    pub shard: usize,
    /// The shard's derived simulation seed.
    pub seed: u64,
    /// FNV-1a-64 digest over the shard's full tick series
    /// (`RunResult::digest`) — the bit-identity witness.
    pub digest: u64,
    /// Number of simulation ticks.
    pub ticks: usize,
    /// LC requests offered to this shard.
    pub lc_requests: f64,
    /// LC requests offered during SLO-violating ticks.
    pub lc_violated_requests: f64,
    /// Total BE throughput (ops/s, averaged over the run).
    pub be_throughput: f64,
    /// Bytes migrated between tiers.
    pub migration_bytes: u64,
    /// Page moves that failed under injected faults.
    pub failed_moves: u64,
    /// Previously failed moves that enforcement retried.
    pub retried_moves: u64,
    /// Mean routed load level (fraction of the shard's reference load).
    pub mean_level: f64,
    /// Worst LC P99 after the first routing epoch (seconds) — the
    /// cold-start transient, before the policy has pulled the LC into
    /// FMem, is excluded the way the single-host harnesses apply a
    /// warm-up grace.
    pub worst_p99: f64,
    /// The shard's metric registry (when fleet metrics are on).
    pub registry: Option<Registry>,
    /// Span-trace JSON (only on the `trace_shard`).
    pub trace: Option<String>,
}

impl ShardOutcome {
    /// This shard's SLO violation rate (violated requests over offered
    /// requests). The robust per-shard health number: a transient
    /// load-step saturation makes `worst_p99` infinite while barely
    /// moving this rate.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.lc_requests <= 0.0 {
            0.0
        } else {
            self.lc_violated_requests / self.lc_requests
        }
    }
}

/// A planned fleet: config plus the routed per-shard load traces,
/// ready to run at any worker count.
#[derive(Debug, Clone)]
pub struct Fleet {
    cfg: FleetConfig,
    routed: Routed,
    /// The shards' BE set-up inputs, built by the first shard that runs.
    be_inputs: OnceLock<Arc<BeInputs>>,
}

impl Fleet {
    /// Generates traffic, builds the per-epoch capacity matrix (capacity
    /// reduced for drained shards only when the router drains), and
    /// routes — everything up-front and deterministic, so [`Fleet::run`]
    /// is pure fan-out.
    ///
    /// # Errors
    ///
    /// [`TrafficError`] for a malformed traffic spec or scenario.
    pub fn plan(cfg: FleetConfig) -> Result<Fleet, TrafficError> {
        let traffic = cfg
            .traffic
            .generate(cfg.n_shards, cfg.duration_secs, cfg.epoch_secs)?;
        let epochs = traffic.epochs();
        let mut caps = vec![vec![LEVEL_CAP; cfg.n_shards]; epochs];
        if cfg.router.drain {
            for (e, row) in caps.iter_mut().enumerate() {
                let t = (e as f64 + 0.5) * cfg.epoch_secs;
                for plane in &cfg.faults {
                    if plane.plan.windows.iter().any(|w| w.active_at(t)) {
                        for i in plane.shards.clone() {
                            if i < cfg.n_shards {
                                row[i] = LEVEL_CAP * DRAIN_FRAC;
                            }
                        }
                    }
                }
            }
        }
        let routed = route(&traffic, &caps, &cfg.router);
        Ok(Fleet {
            cfg,
            routed,
            be_inputs: OnceLock::new(),
        })
    }

    /// The fleet config this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The routed assignment (per-shard level traces, dropped demand).
    #[must_use]
    pub fn routed(&self) -> &Routed {
        &self.routed
    }

    /// Runs one shard to completion, on the fleet's shared BE set-up
    /// inputs. Pure in `(self, shard)`: calling this from any thread, in
    /// any order, any number of times gives the same [`ShardOutcome`].
    #[must_use]
    pub fn run_shard(&self, shard: usize) -> ShardOutcome {
        let inputs = self.be_inputs.get_or_init(|| {
            let mem = self.cfg.shard_size.sim_config(0).mem;
            Arc::new(BeInputs::new(&[self.cfg.shard_size.be()], &mem))
        });
        self.run_shard_on(shard, Some(Arc::clone(inputs)))
    }

    /// [`Fleet::run_shard`] with BE set-up inputs built for this shard
    /// alone: the reference that sharing must match bit for bit, which
    /// `fleet_sim --check` compares.
    #[must_use]
    pub fn run_shard_own_inputs(&self, shard: usize) -> ShardOutcome {
        self.run_shard_on(shard, None)
    }

    fn run_shard_on(&self, shard: usize, inputs: Option<Arc<BeInputs>>) -> ShardOutcome {
        let seed = crate::shard_seed(self.cfg.fleet_seed, shard);
        let cfg = self.cfg.shard_size.sim_config(seed);
        let lc = self.cfg.shard_size.lc();
        let bes = vec![self.cfg.shard_size.be()];
        let levels = &self.routed.levels[shard];
        let steps: Vec<(f64, f64)> = levels.iter().map(|&l| (self.cfg.epoch_secs, l)).collect();
        let mean_level = levels.iter().sum::<f64>() / levels.len().max(1) as f64;

        let obs = if self.cfg.trace_shard == Some(shard) {
            Obs::traced()
        } else if self.cfg.metrics {
            Obs::enabled()
        } else {
            Obs::disabled()
        };

        let mut exp = Experiment::new(
            cfg.clone(),
            lc.clone(),
            LoadPattern::Steps(steps),
            bes.clone(),
        )
        .with_duration(self.cfg.duration_secs)
        .with_fault_plan(self.cfg.plan_for(shard))
        .with_obs(obs.clone());
        if self.cfg.self_heal {
            exp = exp
                .with_checkpoints(CheckpointCfg::in_memory().with_every(12))
                .with_health(HealthConfig::self_heal());
        }
        if let Some(inputs) = inputs {
            exp = exp.with_be_inputs(inputs);
        }

        let mut policy = make_policy(&self.cfg.policy, &cfg, &lc, &bes);
        let r = exp.run(policy.as_mut());

        ShardOutcome {
            shard,
            seed,
            digest: r.digest(),
            ticks: r.ticks.len(),
            lc_requests: r.lc_requests,
            lc_violated_requests: r.lc_violated_requests,
            be_throughput: r.be_total_throughput(),
            migration_bytes: r.total_migration_bytes,
            failed_moves: r.failed_moves,
            retried_moves: r.retried_moves,
            mean_level,
            worst_p99: r.worst_p99_after(self.cfg.epoch_secs),
            registry: obs.with_registry(Clone::clone),
            trace: obs.trace_json(),
        }
    }

    /// Runs every shard on `workers` threads (chunk-claimed on the
    /// bench harness pool) and aggregates. Results are bit-identical
    /// for any `workers`.
    #[must_use]
    pub fn run(&self, workers: usize) -> FleetResult {
        self.run_with_progress(workers, &|_, _| {})
    }

    /// [`Fleet::run`] with a completion callback: `progress(done, &outcome)`
    /// fires from worker threads after each shard finishes, with `done`
    /// the total completed so far. The callback observes outcomes but
    /// cannot influence them — shard inputs are fixed at plan time — so
    /// results stay bit-identical with or without a callback attached
    /// (the live-telemetry contract). Callback *ordering* follows
    /// execution order and is therefore not deterministic; deterministic
    /// consumers should read the returned result, which is.
    #[must_use]
    pub fn run_with_progress(
        &self,
        workers: usize,
        progress: &(dyn Fn(usize, &ShardOutcome) + Sync),
    ) -> FleetResult {
        let ids: Vec<usize> = (0..self.cfg.n_shards).collect();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let shards = run_matrix_chunked(&ids, workers, chunk_for(ids.len(), workers), |_, &i| {
            let outcome = self.run_shard(i);
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            progress(n, &outcome);
            outcome
        });

        // Merge registries in shard order — deterministic aggregation
        // (counters add; gauges take the highest-id shard's value).
        let mut registry = Registry::new();
        for s in &shards {
            if let Some(r) = &s.registry {
                registry.merge(r);
            }
        }
        registry.gauge_set("fleet.shards", self.cfg.n_shards as f64);
        registry.gauge_set("fleet.workers", workers as f64);
        registry.gauge_set("fleet.dropped_demand", self.routed.total_dropped());

        // The aggregate digest witnesses the whole fleet: any single
        // tick bit-flip on any shard changes it.
        let mut bytes = Vec::with_capacity(shards.len() * 24);
        for s in &shards {
            bytes.extend_from_slice(&(s.shard as u64).to_le_bytes());
            bytes.extend_from_slice(&s.seed.to_le_bytes());
            bytes.extend_from_slice(&s.digest.to_le_bytes());
        }
        let aggregate_digest = fnv1a64(&bytes);

        FleetResult {
            shards,
            registry,
            aggregate_digest,
            workers,
            dropped_demand: self.routed.total_dropped(),
        }
    }
}

/// The aggregated fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Fleet-wide merged registry (plus `fleet.*` gauges); empty when
    /// metrics were off.
    pub registry: Registry,
    /// FNV-1a-64 over every shard's `(id, seed, digest)` — the
    /// fleet-level bit-identity witness.
    pub aggregate_digest: u64,
    /// Worker threads used (recorded in artifacts; never affects
    /// results).
    pub workers: usize,
    /// Total demand the router shed (shard-load units).
    pub dropped_demand: f64,
}

impl FleetResult {
    /// Fleet SLO violation rate: violated requests over offered
    /// requests, fleet-wide.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        let offered: f64 = self.shards.iter().map(|s| s.lc_requests).sum();
        if offered <= 0.0 {
            0.0
        } else {
            self.shards
                .iter()
                .map(|s| s.lc_violated_requests)
                .sum::<f64>()
                / offered
        }
    }

    /// Total BE throughput across the fleet (ops/s).
    #[must_use]
    pub fn be_total_throughput(&self) -> f64 {
        self.shards.iter().map(|s| s.be_throughput).sum()
    }

    /// Total bytes migrated across the fleet.
    #[must_use]
    pub fn total_migration_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.migration_bytes).sum()
    }

    /// Worst LC P99 across all shards (seconds).
    #[must_use]
    pub fn worst_p99(&self) -> f64 {
        self.shards.iter().map(|s| s.worst_p99).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtat_tiermem::faults::FaultKind;

    /// A small cheap fleet: heuristic policy (no RL pretraining),
    /// short run.
    fn tiny_cfg(n: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(n, 0xF1EE7, 120.0, 10.0);
        cfg.policy = "memtis".into();
        cfg.shard_size = ShardSize::Tiny;
        cfg
    }

    #[test]
    fn fleet_is_bit_identical_across_worker_counts() {
        let fleet = Fleet::plan(tiny_cfg(6)).expect("valid config");
        let serial = fleet.run(1);
        let parallel = fleet.run(4);
        assert_eq!(serial.aggregate_digest, parallel.aggregate_digest);
        for (a, b) in serial.shards.iter().zip(&parallel.shards) {
            assert_eq!(a.digest, b.digest, "shard {} diverged", a.shard);
        }
        // Worker count is recorded but never part of the digest input.
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 4);
    }

    /// A shard on the fleet's shared BE inputs has the digest of the
    /// same shard on inputs of its own: under MTAT (Full), which
    /// profiles from the page table, for shards with no faults, under a
    /// fault plane, and with the self-healing runtime armed.
    #[test]
    fn shared_be_inputs_match_each_shards_own() {
        let mut cfg = tiny_cfg(6);
        cfg.policy = "mtat_full_heuristic".into();
        cfg.faults = vec![ShardFaultPlane {
            shards: 2..3,
            plan: FaultPlan::new(9).with(FaultKind::FaultStorm { intensity: 0.6 }, 20.0, 60.0),
        }];
        let mut healing = cfg.clone();
        healing.self_heal = true;
        for (cfg, ids) in [(cfg, vec![0, 2, 5]), (healing, vec![1, 2])] {
            let fleet = Fleet::plan(cfg).expect("valid config");
            for i in ids {
                let own = fleet.run_shard_own_inputs(i);
                assert_eq!(fleet.run_shard(i).digest, own.digest, "shard {i}");
            }
        }
    }

    #[test]
    fn every_shard_receives_traffic() {
        let fleet = Fleet::plan(tiny_cfg(6)).expect("valid config");
        let result = fleet.run(2);
        for s in &result.shards {
            assert!(s.lc_requests > 0.0, "shard {} starved", s.shard);
            assert!(s.ticks > 0);
            assert!(s.mean_level > 0.0);
        }
        assert!(result.violation_rate() >= 0.0 && result.violation_rate() <= 1.0);
    }

    #[test]
    fn faults_stay_confined_to_the_targeted_subset() {
        let base = Fleet::plan(tiny_cfg(6)).expect("valid config");
        let mut chaotic_cfg = tiny_cfg(6);
        chaotic_cfg.faults = vec![ShardFaultPlane {
            shards: 1..3,
            plan: FaultPlan::new(9).with(FaultKind::FaultStorm { intensity: 0.6 }, 20.0, 60.0),
        }];
        let chaotic = Fleet::plan(chaotic_cfg).expect("valid config");
        let a = base.run(2);
        let b = chaotic.run(2);
        let mut targeted_diverged = false;
        for (x, y) in a.shards.iter().zip(&b.shards) {
            if (1..3).contains(&x.shard) {
                targeted_diverged |= x.digest != y.digest;
            } else {
                assert_eq!(x.digest, y.digest, "chaos leaked into shard {}", x.shard);
            }
        }
        assert!(targeted_diverged, "the storm had no observable effect");
    }

    #[test]
    fn progress_callback_does_not_perturb_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fleet = Fleet::plan(tiny_cfg(4)).expect("valid config");
        let calls = AtomicUsize::new(0);
        let observed = fleet.run_with_progress(2, &|done, o| {
            assert!(o.ticks > 0);
            assert!((1..=4).contains(&done));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        let blind = fleet.run(2);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(observed.aggregate_digest, blind.aggregate_digest);
    }

    #[test]
    fn metrics_merge_without_perturbing_results() {
        let mut cfg = tiny_cfg(4);
        cfg.metrics = true;
        cfg.trace_shard = Some(2);
        let observed = Fleet::plan(cfg).expect("valid config").run(2);
        let blind = Fleet::plan(tiny_cfg(4)).expect("valid config").run(2);
        assert_eq!(observed.aggregate_digest, blind.aggregate_digest);
        assert!(!observed.registry.is_empty());
        assert_eq!(observed.registry.gauge("fleet.shards"), Some(4.0));
        assert!(observed.shards[2].trace.is_some());
        assert!(observed.shards[0].trace.is_none());
    }
}
