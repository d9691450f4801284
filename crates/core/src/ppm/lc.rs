//! RL-based FMem partitioning for the LC workload (§3.2.1, Algorithm 1).
//!
//! [`LcPartitioner`] wraps a SAC agent. Every partitioning interval the
//! policy maker feeds it the observed state — FMem Usage Ratio, FMem
//! Access Ratio, normalized Memory Access Count — together with the
//! interval's SLO outcome. The partitioner:
//!
//! 1. converts the outcome of the *previous* action into the Eq. (2)
//!    reward and stores the transition in the replay buffer,
//! 2. (optionally) keeps learning online, as the prototype's user-space
//!    daemon does with its incremental updates: the agent runs one
//!    gradient round every second stored transition (`update_every = 2`,
//!    set by [`LcPartitioner::pretrained`] and carried into online
//!    learning; the paper's daemon waits for 50 new samples), and
//! 3. emits the next action — a net FMem change clipped to `±M/2t` —
//!    and the resulting target allocation in bytes.

use mtat_rl::replay::Transition;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_workloads::lc::LcSpec;

use crate::ppm::env::{LcEnvConfig, LcPartitionEnv};

/// Observed LC state at a partitioning interval boundary.
#[derive(Debug, Clone, Copy)]
pub struct LcObservation {
    /// Fraction of the LC resident set currently in FMem.
    pub usage_ratio: f64,
    /// Fraction of LC memory accesses that hit FMem last interval.
    pub access_ratio: f64,
    /// Memory accesses per second last interval, normalized to the
    /// workload's access rate at its reference max load.
    pub access_count_norm: f64,
    /// Worst P99 observed during the interval (seconds).
    pub p99_secs: f64,
    /// Whether any tick of the interval violated the SLO.
    pub violated: bool,
}

impl LcObservation {
    fn state(&self) -> Vec<f64> {
        vec![
            self.usage_ratio.clamp(0.0, 1.0),
            self.access_ratio.clamp(0.0, 1.0),
            self.access_count_norm.clamp(0.0, 2.0),
        ]
    }

    /// The Eq. (2) reward for the interval.
    pub fn reward(&self) -> f64 {
        if self.violated {
            -1.0
        } else {
            1.0 - self.usage_ratio.clamp(0.0, 1.0)
        }
    }
}

/// Configuration of the LC partitioner.
#[derive(Debug, Clone)]
pub struct LcPartitionerConfig {
    /// Total FMem in bytes (allocation ceiling, together with the RSS).
    pub fmem_total: u64,
    /// Eq. (1) action bound `M·t/2` in bytes.
    pub max_step_bytes: f64,
    /// Keep learning online from live transitions.
    pub online_learning: bool,
}

/// The RL-based LC FMem partitioner.
#[derive(Debug)]
pub struct LcPartitioner {
    spec: LcSpec,
    cfg: LcPartitionerConfig,
    agent: Sac,
    target_bytes: u64,
    pending: Option<(Vec<f64>, Vec<f64>)>,
    /// Raw (unclamped) action component from the most recent decision —
    /// the supervisor inspects this for divergence (NaN/inf).
    last_raw_action: Option<f64>,
}

impl LcPartitioner {
    /// Creates a partitioner around an existing (possibly pretrained)
    /// agent, starting from a zero-byte target.
    pub fn new(spec: LcSpec, cfg: LcPartitionerConfig, agent: Sac) -> Self {
        Self {
            spec,
            cfg,
            agent,
            target_bytes: 0,
            pending: None,
            last_raw_action: None,
        }
    }

    /// Pretrains a fresh SAC agent on the analytic environment
    /// ([`LcPartitionEnv`]) for `steps` intervals and wraps it. This is
    /// the reproduction's stand-in for the paper's long-lived daemon
    /// whose model has already converged when an experiment starts.
    pub fn pretrained(spec: &LcSpec, cfg: LcPartitionerConfig, steps: usize, seed: u64) -> Self {
        let mut env_cfg = LcEnvConfig::paper_scale(spec);
        env_cfg.fmem_total = cfg.fmem_total;
        env_cfg.max_step_bytes = cfg.max_step_bytes;
        let mut env = LcPartitionEnv::new(spec.clone(), env_cfg, seed ^ 0xE);
        let mut sac_cfg = SacConfig::paper(3, 1);
        sac_cfg.update_every = 2;
        let mut agent = Sac::new(sac_cfg, seed);
        agent.train(&mut env, steps);
        Self::new(spec.clone(), cfg, agent)
    }

    /// The current target allocation in bytes.
    pub fn target_bytes(&self) -> u64 {
        self.target_bytes
    }

    /// Overrides the current target (used at experiment start to align
    /// with the actual initial placement).
    pub fn set_target_bytes(&mut self, bytes: u64) {
        self.target_bytes = bytes.min(self.ceiling());
    }

    /// Access to the underlying agent (diagnostics, persistence).
    pub fn agent(&self) -> &Sac {
        &self.agent
    }

    /// Mutable access to the underlying agent. Exists for fault
    /// injection ([`Sac::poison_actor`]); control code must not use it.
    pub fn agent_mut(&mut self) -> &mut Sac {
        &mut self.agent
    }

    /// The raw action component of the most recent decision, before
    /// clamping — `None` until the first decision. A non-finite value
    /// here means the network has diverged.
    pub fn last_raw_action(&self) -> Option<f64> {
        self.last_raw_action
    }

    fn ceiling(&self) -> u64 {
        self.cfg.fmem_total.min(self.spec.rss_bytes)
    }

    /// Serializes the mutable partitioner state: the current target,
    /// the in-flight (state, action) pair awaiting its reward, the last
    /// raw action, and the full SAC agent (networks, optimizers, replay
    /// buffer, RNG). The spec and config are rebuilt from the
    /// experiment configuration on restart.
    pub fn save_state(&self, w: &mut mtat_snapshot::SnapWriter) {
        use mtat_snapshot::Snap;
        w.put_u64(self.target_bytes);
        self.pending.snap(w);
        self.last_raw_action.snap(w);
        self.agent.snap(w);
    }

    /// Restores state captured by [`Self::save_state`] into this
    /// partitioner, replacing its agent.
    pub fn load_state(
        &mut self,
        r: &mut mtat_snapshot::SnapReader<'_>,
    ) -> Result<(), mtat_snapshot::SnapError> {
        use mtat_snapshot::Snap;
        let target = r.get_u64()?;
        self.target_bytes = target.min(self.ceiling());
        self.pending = Snap::unsnap(r)?;
        self.last_raw_action = Snap::unsnap(r)?;
        self.agent = Snap::unsnap(r)?;
        Ok(())
    }

    /// One PP-M decision: consume the interval observation, learn from
    /// the previous action's outcome, and return the new target FMem
    /// allocation in bytes.
    pub fn decide(&mut self, obs: &LcObservation) -> u64 {
        let state = obs.state();

        // Close the loop on the previous action (Algorithm 1 lines 7-13).
        if let Some((prev_state, prev_action)) = self.pending.take() {
            let transition = Transition {
                state: prev_state,
                action: prev_action,
                reward: obs.reward(),
                next_state: state.clone(),
                done: false,
            };
            if self.cfg.online_learning {
                self.agent.observe(transition);
            }
        }

        // Select the next action (line 4-5): a ∈ [-1, 1] scaled to
        // ±max_step_bytes, already respecting the Eq. (1) clip. Decisions
        // take the deterministic policy; exploration is for training.
        let action = self.agent.act_deterministic(&state);
        let raw = action[0];
        self.last_raw_action = Some(raw);
        // A diverged network (NaN/inf action) must not corrupt the
        // target: NaN.clamp is NaN and `as u64` would zero the
        // partition. Hold the current target and let the supervisor
        // (which watches `last_raw_action`) demote the sizer.
        let delta = if raw.is_finite() {
            raw.clamp(-1.0, 1.0) * self.cfg.max_step_bytes
        } else {
            0.0
        };
        let new_target = (self.target_bytes as f64 + delta).clamp(0.0, self.ceiling() as f64);
        self.target_bytes = new_target as u64;
        self.pending = Some((state, action));
        self.target_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtat_rl::env::Environment;
    use mtat_tiermem::GIB;

    fn cfg() -> LcPartitionerConfig {
        LcPartitionerConfig {
            fmem_total: 32 * GIB,
            max_step_bytes: 20.0 * GIB as f64,
            online_learning: false,
        }
    }

    fn obs(usage: f64, load: f64, violated: bool) -> LcObservation {
        LcObservation {
            usage_ratio: usage,
            access_ratio: usage,
            access_count_norm: load,
            p99_secs: if violated { 1.0 } else { 1e-3 },
            violated,
        }
    }

    #[test]
    fn reward_follows_eq2() {
        assert_eq!(obs(0.3, 0.5, true).reward(), -1.0);
        assert!((obs(0.3, 0.5, false).reward() - 0.7).abs() < 1e-12);
        assert_eq!(obs(1.0, 0.5, false).reward(), 0.0);
    }

    #[test]
    fn decide_respects_bounds() {
        let spec = LcSpec::redis();
        let agent = Sac::new(SacConfig::small(3, 1), 0);
        let mut p = LcPartitioner::new(spec, cfg(), agent);
        for i in 0..20 {
            let t = p.decide(&obs(0.5, (i % 10) as f64 / 10.0, i % 3 == 0));
            assert!(t <= 32 * GIB);
        }
    }

    #[test]
    fn target_moves_by_at_most_the_eq1_bound() {
        let spec = LcSpec::redis();
        let agent = Sac::new(SacConfig::small(3, 1), 1);
        let mut p = LcPartitioner::new(spec, cfg(), agent);
        p.set_target_bytes(16 * GIB);
        let mut prev = p.target_bytes();
        for i in 0..10 {
            let t = p.decide(&obs(0.5, i as f64 / 10.0, false));
            let moved = (t as i64 - prev as i64).unsigned_abs();
            assert!(
                moved as f64 <= 20.0 * GIB as f64 + 1.0,
                "moved {moved} bytes in one interval"
            );
            prev = t;
        }
    }

    #[test]
    fn set_target_clamps_to_ceiling() {
        let spec = LcSpec::memcached(); // RSS 31.4 GiB < 32 GiB FMem
        let rss = spec.rss_bytes;
        let agent = Sac::new(SacConfig::small(3, 1), 2);
        let mut p = LcPartitioner::new(spec, cfg(), agent);
        p.set_target_bytes(u64::MAX);
        assert_eq!(p.target_bytes(), rss);
    }

    #[test]
    fn online_learning_stores_transitions() {
        let spec = LcSpec::redis();
        let agent = Sac::new(SacConfig::small(3, 1), 3);
        let mut c = cfg();
        c.online_learning = true;
        let mut p = LcPartitioner::new(spec, c, agent);
        for i in 0..10 {
            p.decide(&obs(0.4, i as f64 / 10.0, false));
        }
        // First decide has no previous action; 9 transitions afterwards.
        assert_eq!(p.agent().replay_len(), 9);
    }

    /// End-to-end sanity: a briefly pretrained agent should allocate more
    /// FMem at high load than at low load (the monotone response that
    /// makes Fig. 5's allocation track the trapezoid).
    #[test]
    fn pretrained_agent_responds_to_load() {
        let spec = LcSpec::redis();
        let mut p = LcPartitioner::pretrained(&spec, cfg(), 6000, 42);

        // Present a stable low-load picture, let the target settle.
        let mut low_target = 0;
        for _ in 0..8 {
            let usage = p.target_bytes() as f64 / spec.rss_bytes as f64;
            low_target = p.decide(&obs(usage, 0.1, false));
        }
        // Present a saturated, violating high-load picture.
        let mut high_target = 0;
        for _ in 0..8 {
            let usage = p.target_bytes() as f64 / spec.rss_bytes as f64;
            high_target = p.decide(&obs(usage, 1.0, usage < 0.8));
        }
        assert!(
            high_target > low_target,
            "high-load target {high_target} should exceed low-load {low_target}"
        );
    }

    #[test]
    fn env_is_reachable_via_reexports() {
        // Guard that the training env advertises the paper's state shape.
        let spec = LcSpec::silo();
        let env = LcPartitionEnv::new(spec.clone(), LcEnvConfig::paper_scale(&spec), 0);
        assert_eq!(env.state_dim(), 3);
    }
}
