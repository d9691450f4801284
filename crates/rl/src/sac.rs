//! The Soft Actor-Critic agent (Algorithm 1).
//!
//! SAC maintains twin Q-networks `Q₁, Q₂` (the critic), a squashed-
//! Gaussian policy `π` (the actor), slowly-tracking target copies of the
//! critics, and a replay buffer `D`. Each update:
//!
//! 1. **Critic** — regress both critics toward the soft Bellman target
//!    `y = r + γ(1−done)·(min(Q₁ᵗ, Q₂ᵗ)(s′, a′) − α·log π(a′|s′))` with
//!    `a′ ~ π(·|s′)`.
//! 2. **Actor** — descend `E[α·log π(a|s) − min(Q₁, Q₂)(s, a)]` through
//!    the reparameterized sample.
//! 3. **Temperature** — optionally adapt `α` toward a target entropy.
//! 4. **Targets** — soft-update `θᵗ ← τθ + (1−τ)θᵗ`.

use mtat_nn::activation::Activation;
use mtat_nn::mlp::{BatchCache, Mlp};
use mtat_nn::optim::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::env::Environment;
use crate::policy::{squash_correction_grad, GaussianPolicy, PolicyBatch};
use crate::replay::{ReplayBuffer, Transition};

/// Hyperparameters for [`Sac`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SacConfig {
    /// State dimension.
    pub state_dim: usize,
    /// Action dimension.
    pub action_dim: usize,
    /// Hidden layer widths shared by actor and critics.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// Target-network soft-update rate τ.
    pub tau: f64,
    /// Initial entropy temperature α.
    pub alpha: f64,
    /// Automatically tune α toward `-action_dim` target entropy.
    pub auto_alpha: bool,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Temperature learning rate (if `auto_alpha`).
    pub alpha_lr: f64,
    /// Mini-batch size per update.
    pub batch_size: usize,
    /// Gradient updates are attempted once this many *new* transitions
    /// have accumulated since the previous update round (the paper's "50
    /// new data points" cadence, §4).
    pub update_every: usize,
    /// Minimum transitions before learning starts.
    pub warmup: usize,
    /// Replay capacity.
    pub buffer_capacity: usize,
}

impl SacConfig {
    /// The paper's configuration: 3-dimensional state, scalar action,
    /// updates every 50 new transitions (§4), standard SAC defaults.
    /// MTAT's partitioner (`mtat_core::ppm::lc`) overrides the cadence
    /// to `update_every = 2`, in pretraining and online.
    pub fn paper(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            hidden: vec![64, 64],
            gamma: 0.99,
            tau: 0.005,
            alpha: 0.2,
            auto_alpha: true,
            actor_lr: 3e-4,
            critic_lr: 3e-4,
            alpha_lr: 3e-4,
            batch_size: 64,
            update_every: 50,
            warmup: 200,
            buffer_capacity: 100_000,
        }
    }

    /// A small, fast configuration for tests and examples.
    pub fn small(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            hidden: vec![32, 32],
            gamma: 0.95,
            tau: 0.01,
            alpha: 0.1,
            auto_alpha: true,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            alpha_lr: 1e-3,
            batch_size: 32,
            update_every: 1,
            warmup: 64,
            buffer_capacity: 20_000,
        }
    }
}

/// The Soft Actor-Critic agent.
#[derive(Debug, Clone)]
pub struct Sac {
    cfg: SacConfig,
    policy: GaussianPolicy,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    actor_adam: Adam,
    q1_adam: Adam,
    q2_adam: Adam,
    log_alpha: f64,
    target_entropy: f64,
    replay: ReplayBuffer,
    rng: StdRng,
    since_update: usize,
    updates_done: u64,
    /// Mean squared TD error of the last gradient round (NaN before the
    /// first). Diagnostic only — excluded from snapshots, so the
    /// checkpoint format is unchanged and a restored agent simply
    /// reports NaN until its next update.
    last_critic_loss: f64,
    /// Policy entropy estimate `−E[log π]` from the last gradient round
    /// (NaN before the first). Diagnostic only, excluded from snapshots.
    last_entropy: f64,
    /// Buffers the gradient rounds reuse; never part of the agent state.
    scratch: Scratch,
}

/// The mini-batch buffers of a gradient round, feature-major
/// (`dim × batch`, see [`mtat_nn::linear`]). They carry no state from one
/// round to the next, so a clone or a restored agent starts empty.
#[derive(Debug, Default)]
struct Scratch {
    /// Critic input `(s, a)`: state rows, then the replayed actions
    /// (critic regression) or freshly sampled ones (actor step).
    sa: Vec<f64>,
    /// Critic input `(s′, a′)` for the soft Bellman targets.
    next_sa: Vec<f64>,
    reward: Vec<f64>,
    done: Vec<f64>,
    /// Soft Bellman target `y` per sample.
    target: Vec<f64>,
    q1: Vec<f64>,
    q2: Vec<f64>,
    /// Output gradient fed to a critic; also `dL/du` for the actor.
    grad: Vec<f64>,
    /// `∂Q₁/∂a` of the actor step.
    dq1_da: Vec<f64>,
    policy: PolicyBatch,
    critic: BatchCache,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Sac {
    /// Creates an agent with freshly initialized networks.
    pub fn new(cfg: SacConfig, seed: u64) -> Self {
        let q_dims: Vec<usize> = std::iter::once(cfg.state_dim + cfg.action_dim)
            .chain(cfg.hidden.iter().copied())
            .chain(std::iter::once(1))
            .collect();
        let q1 = Mlp::new(&q_dims, Activation::Relu, seed ^ 0x1111);
        let q2 = Mlp::new(&q_dims, Activation::Relu, seed ^ 0x2222);
        let mut q1_target = q1.clone();
        let mut q2_target = q2.clone();
        q1_target.soft_update_from(&q1, 1.0);
        q2_target.soft_update_from(&q2, 1.0);
        Self {
            policy: GaussianPolicy::new(cfg.state_dim, cfg.action_dim, &cfg.hidden, seed ^ 0x3333),
            q1,
            q2,
            q1_target,
            q2_target,
            actor_adam: Adam::new(cfg.actor_lr),
            q1_adam: Adam::new(cfg.critic_lr),
            q2_adam: Adam::new(cfg.critic_lr),
            log_alpha: cfg.alpha.max(1e-8).ln(),
            target_entropy: -(cfg.action_dim as f64),
            replay: ReplayBuffer::new(cfg.buffer_capacity),
            rng: StdRng::seed_from_u64(seed ^ 0x4444),
            since_update: 0,
            updates_done: 0,
            last_critic_loss: f64::NAN,
            last_entropy: f64::NAN,
            scratch: Scratch::default(),
            cfg,
        }
    }

    /// The configuration this agent was created with.
    pub fn config(&self) -> &SacConfig {
        &self.cfg
    }

    /// Current entropy temperature α.
    pub fn alpha(&self) -> f64 {
        self.log_alpha.exp()
    }

    /// Number of gradient update rounds performed so far.
    pub fn updates_done(&self) -> u64 {
        self.updates_done
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Stochastic (exploration) action in `[-1, 1]^action_dim`.
    pub fn act(&mut self, state: &[f64]) -> Vec<f64> {
        let batch = &mut self.scratch.policy;
        self.policy.sample_batch(state, 1, &mut self.rng, batch);
        batch.action.clone()
    }

    /// Deterministic (evaluation) action `tanh(μ(s))`.
    pub fn act_deterministic(&self, state: &[f64]) -> Vec<f64> {
        self.policy.deterministic(state)
    }

    /// Stores a transition (Algorithm 1 line 12) and performs gradient
    /// updates when the cadence and warmup allow (lines 14–18). Returns
    /// the number of update rounds executed (0 or 1).
    pub fn observe(&mut self, t: Transition) -> usize {
        self.replay.push(t);
        self.since_update += 1;
        if self.replay.len() >= self.cfg.warmup && self.since_update >= self.cfg.update_every {
            self.since_update = 0;
            self.update();
            1
        } else {
            0
        }
    }

    /// One SAC gradient round over a sampled mini-batch.
    ///
    /// Each network sees the whole batch at once through the batched
    /// kernels of `mtat-nn`, which reproduce the per-sample arithmetic
    /// bit for bit. The RNG is drawn in the per-sample order: the replay
    /// indices, then the target-action noise, then the actor-step noise,
    /// each sample by sample.
    pub fn update(&mut self) {
        let b = self.cfg.batch_size;
        if self.replay.is_empty() {
            return;
        }
        let sd = self.cfg.state_dim;
        let alpha = self.alpha();
        let sc = &mut self.scratch;
        let sa_len = (sd + self.cfg.action_dim) * b;
        sc.sa.resize(sa_len, 0.0);
        sc.next_sa.resize(sa_len, 0.0);
        sc.reward.clear();
        sc.done.clear();
        for (s, t) in self.replay.sample(&mut self.rng, b).enumerate() {
            set_column(&mut sc.sa[..sd * b], b, s, &t.state);
            set_column(&mut sc.sa[sd * b..], b, s, &t.action);
            set_column(&mut sc.next_sa[..sd * b], b, s, &t.next_state);
            sc.reward.push(t.reward);
            sc.done.push(t.done as u8 as f64);
        }

        // ---- Critic targets (no gradients) ----
        self.policy
            .sample_batch(&sc.next_sa[..sd * b], b, &mut self.rng, &mut sc.policy);
        sc.next_sa[sd * b..].copy_from_slice(&sc.policy.action);
        copy_into(
            &mut sc.q1,
            self.q1_target.forward_batch(&sc.next_sa, b, &mut sc.critic),
        );
        copy_into(
            &mut sc.q2,
            self.q2_target.forward_batch(&sc.next_sa, b, &mut sc.critic),
        );
        sc.target.clear();
        for s in 0..b {
            let soft_q = sc.q1[s].min(sc.q2[s]) - alpha * sc.policy.log_prob[s];
            let y = sc.reward[s] + self.cfg.gamma * (1.0 - sc.done[s]) * soft_q;
            sc.target.push(y);
        }

        // ---- Critic regression ----
        for (q, qv) in [(&mut self.q1, &mut sc.q1), (&mut self.q2, &mut sc.q2)] {
            copy_into(qv, q.forward_batch(&sc.sa, b, &mut sc.critic));
            sc.grad.clear();
            sc.grad
                .extend(qv.iter().zip(&sc.target).map(|(&v, &y)| 2.0 * (v - y)));
            q.zero_grad();
            q.backward_batch(&mut sc.critic, &sc.grad);
        }
        let mut critic_sq_err = 0.0;
        for ((&q1v, &q2v), &y) in sc.q1.iter().zip(&sc.q2).zip(&sc.target) {
            critic_sq_err += ((q1v - y).powi(2) + (q2v - y).powi(2)) / (2.0 * b as f64);
        }
        self.last_critic_loss = critic_sq_err;
        self.q1.adam_step_batch(&mut self.q1_adam, b);
        self.q2.adam_step_batch(&mut self.q2_adam, b);

        // ---- Actor update through min(Q1, Q2) ----
        // Only ∂Q/∂a is needed from the critics, so their backward pass
        // computes input gradients and leaves parameter gradients alone.
        self.policy.zero_grad();
        self.policy
            .sample_batch(&sc.sa[..sd * b], b, &mut self.rng, &mut sc.policy);
        let mut mean_log_prob = 0.0;
        for &lp in &sc.policy.log_prob {
            mean_log_prob += lp / b as f64;
        }
        sc.sa[sd * b..].copy_from_slice(&sc.policy.action);
        sc.grad.clear();
        sc.grad.resize(b, 1.0);
        copy_into(&mut sc.q1, self.q1.forward_batch(&sc.sa, b, &mut sc.critic));
        let dq1 = self.q1.input_grad_batch(&mut sc.critic, &sc.grad);
        copy_into(&mut sc.dq1_da, &dq1[sd * b..]);
        copy_into(&mut sc.q2, self.q2.forward_batch(&sc.sa, b, &mut sc.critic));
        let dq2_da = &self.q2.input_grad_batch(&mut sc.critic, &sc.grad)[sd * b..];

        // L = α·logπ − Qmin, with dQmin/da through the smaller critic;
        // see policy.rs for the chain rule.
        sc.grad.clear();
        for (j, (&a, (&dq1, &dq2))) in sc
            .policy
            .action
            .iter()
            .zip(sc.dq1_da.iter().zip(dq2_da))
            .enumerate()
        {
            let s = j % b;
            let dq = if sc.q1[s] <= sc.q2[s] { dq1 } else { dq2 };
            let dlogp_du = squash_correction_grad(a);
            let dq_du = dq * (1.0 - a * a);
            sc.grad.push(alpha * dlogp_du - dq_du);
        }
        self.policy.backward_batch(&mut sc.policy, &sc.grad, -alpha);
        self.policy.adam_step_batch(&mut self.actor_adam, b);

        self.last_entropy = -mean_log_prob;

        // ---- Temperature ----
        if self.cfg.auto_alpha {
            // J(α) = −log α · (log π + H_target); ∂J/∂log α applied to
            // log α directly keeps α positive.
            let grad = -(mean_log_prob + self.target_entropy);
            self.log_alpha -= self.cfg.alpha_lr * grad;
            self.log_alpha = self.log_alpha.clamp(-10.0, 2.0);
        }

        // ---- Target soft updates ----
        self.q1_target.soft_update_from(&self.q1, self.cfg.tau);
        self.q2_target.soft_update_from(&self.q2, self.cfg.tau);
        self.updates_done += 1;
    }

    /// Critic value estimate `min(Q₁, Q₂)(s, a)` — for diagnostics.
    pub fn q_value(&self, state: &[f64], action: &[f64]) -> f64 {
        let xin = concat(state, action);
        self.q1.forward(&xin)[0].min(self.q2.forward(&xin)[0])
    }

    /// Mean squared TD error of the most recent gradient round (NaN
    /// before the first update, or right after a checkpoint restore).
    pub fn last_critic_loss(&self) -> f64 {
        self.last_critic_loss
    }

    /// Policy entropy estimate `−E[log π(a|s)]` from the most recent
    /// gradient round (NaN before the first update or after restore).
    pub fn last_entropy(&self) -> f64 {
        self.last_entropy
    }

    /// L2 norm of the online critics' parameters — a divergence
    /// diagnostic (exploding critics show up here before actions
    /// saturate).
    pub fn critic_param_l2(&self) -> f64 {
        (self.q1.param_l2().powi(2) + self.q2.param_l2().powi(2)).sqrt()
    }

    /// L2 norm of the actor's parameters. A single NaN weight makes the
    /// norm NaN, so this is the health sentinel's poison probe: it fires
    /// on the tick the corruption lands rather than at the next decision
    /// boundary.
    pub fn actor_param_l2(&self) -> f64 {
        self.policy.param_l2()
    }

    /// Overwrites the actor parameters with NaN, modelling a corrupted
    /// gradient round or bad parameter load. Fault-injection support for
    /// the self-healing runtime; the agent is unusable until rolled back
    /// to a known-good checkpoint.
    pub fn poison_actor(&mut self) {
        self.policy.fill_params(f64::NAN);
    }

    /// Runs `steps` environment interactions with exploration and online
    /// updates — the while-loop of Algorithm 1. Returns the total reward
    /// collected.
    pub fn train<E: Environment>(&mut self, env: &mut E, steps: usize) -> f64 {
        let mut state = env.state();
        let mut total = 0.0;
        for _ in 0..steps {
            let action = self.act(&state);
            let (next, reward, done) = env.step(&action);
            total += reward;
            self.observe(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: next.clone(),
                done,
            });
            state = if done { env.reset() } else { next };
        }
        total
    }

    /// Evaluates the deterministic policy for `steps` interactions
    /// without learning, returning total reward.
    pub fn evaluate<E: Environment>(&self, env: &mut E, steps: usize) -> f64 {
        let mut state = env.reset();
        let mut total = 0.0;
        for _ in 0..steps {
            let action = self.act_deterministic(&state);
            let (next, reward, done) = env.step(&action);
            total += reward;
            state = if done { env.reset() } else { next };
        }
        total
    }
}

impl mtat_snapshot::Snap for SacConfig {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.state_dim.snap(w);
        self.action_dim.snap(w);
        self.hidden.snap(w);
        self.gamma.snap(w);
        self.tau.snap(w);
        self.alpha.snap(w);
        self.auto_alpha.snap(w);
        self.actor_lr.snap(w);
        self.critic_lr.snap(w);
        self.alpha_lr.snap(w);
        self.batch_size.snap(w);
        self.update_every.snap(w);
        self.warmup.snap(w);
        self.buffer_capacity.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            state_dim: usize::unsnap(r)?,
            action_dim: usize::unsnap(r)?,
            hidden: Vec::unsnap(r)?,
            gamma: f64::unsnap(r)?,
            tau: f64::unsnap(r)?,
            alpha: f64::unsnap(r)?,
            auto_alpha: bool::unsnap(r)?,
            actor_lr: f64::unsnap(r)?,
            critic_lr: f64::unsnap(r)?,
            alpha_lr: f64::unsnap(r)?,
            batch_size: usize::unsnap(r)?,
            update_every: usize::unsnap(r)?,
            warmup: usize::unsnap(r)?,
            buffer_capacity: usize::unsnap(r)?,
        })
    }
}

/// The complete learning state: networks *and* target copies, all three
/// optimizers (with their step counts), the temperature, the replay
/// buffer with its ring pointer, the exploration RNG stream, and the
/// update cadence counters. Restoring this and feeding the same
/// observations continues bit-identically to the uninterrupted agent.
impl mtat_snapshot::Snap for Sac {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.cfg.snap(w);
        self.policy.snap(w);
        self.q1.snap(w);
        self.q2.snap(w);
        self.q1_target.snap(w);
        self.q2_target.snap(w);
        self.actor_adam.snap(w);
        self.q1_adam.snap(w);
        self.q2_adam.snap(w);
        self.log_alpha.snap(w);
        self.target_entropy.snap(w);
        self.replay.snap(w);
        self.rng.snap(w);
        self.since_update.snap(w);
        self.updates_done.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            cfg: SacConfig::unsnap(r)?,
            policy: GaussianPolicy::unsnap(r)?,
            q1: Mlp::unsnap(r)?,
            q2: Mlp::unsnap(r)?,
            q1_target: Mlp::unsnap(r)?,
            q2_target: Mlp::unsnap(r)?,
            actor_adam: Adam::unsnap(r)?,
            q1_adam: Adam::unsnap(r)?,
            q2_adam: Adam::unsnap(r)?,
            log_alpha: f64::unsnap(r)?,
            target_entropy: f64::unsnap(r)?,
            replay: ReplayBuffer::unsnap(r)?,
            rng: StdRng::unsnap(r)?,
            since_update: usize::unsnap(r)?,
            updates_done: u64::unsnap(r)?,
            // Diagnostics are transient by design: keeping them out of
            // the encoding preserves checkpoint format v1 exactly.
            last_critic_loss: f64::NAN,
            last_entropy: f64::NAN,
            scratch: Scratch::default(),
        })
    }
}

fn concat(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut v = Vec::with_capacity(a.len() + b.len());
    v.extend_from_slice(a);
    v.extend_from_slice(b);
    v
}

/// Writes `v` into column `s` of the feature-major matrix `m`, whose rows
/// hold `n` samples each.
///
/// # Panics
///
/// Panics if `v` does not have one entry per row of `m` (a transition
/// whose dimensions do not match the agent's).
fn set_column(m: &mut [f64], n: usize, s: usize, v: &[f64]) {
    assert_eq!(m.len(), v.len() * n, "transition dimension mismatch");
    for (row, &x) in m.chunks_exact_mut(n).zip(v) {
        row[s] = x;
    }
}

/// Overwrites `dst` with `src`, reusing its allocation.
fn copy_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.extend_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SetPointEnv;

    #[test]
    fn act_is_bounded_and_deterministic_eval_is_stable() {
        let mut agent = Sac::new(SacConfig::small(2, 1), 0);
        let s = vec![0.2, 0.8];
        for _ in 0..50 {
            let a = agent.act(&s);
            assert!((-1.0..=1.0).contains(&a[0]));
        }
        let d1 = agent.act_deterministic(&s);
        let d2 = agent.act_deterministic(&s);
        assert_eq!(d1, d2);
    }

    #[test]
    fn update_cadence_respects_warmup_and_every() {
        let mut cfg = SacConfig::small(1, 1);
        cfg.warmup = 10;
        cfg.update_every = 5;
        cfg.batch_size = 4;
        let mut agent = Sac::new(cfg, 1);
        let t = Transition {
            state: vec![0.0],
            action: vec![0.1],
            reward: 0.0,
            next_state: vec![0.1],
            done: false,
        };
        let mut updates = 0;
        for _ in 0..9 {
            updates += agent.observe(t.clone());
        }
        assert_eq!(updates, 0, "no updates before warmup");
        for _ in 0..11 {
            updates += agent.observe(t.clone());
        }
        assert!(updates >= 2, "updates every 5 after warmup, got {updates}");
        assert_eq!(agent.updates_done() as usize, updates);
    }

    #[test]
    fn critic_learns_constant_reward_value() {
        // With reward 1 everywhere, done always true, gamma arbitrary:
        // Q(s,a) should converge to 1.
        let mut cfg = SacConfig::small(1, 1);
        cfg.warmup = 8;
        cfg.update_every = 1;
        cfg.batch_size = 16;
        cfg.auto_alpha = false;
        cfg.alpha = 0.0;
        let mut agent = Sac::new(cfg, 3);
        let t = Transition {
            state: vec![0.5],
            action: vec![0.2],
            reward: 1.0,
            next_state: vec![0.5],
            done: true,
        };
        for _ in 0..400 {
            agent.observe(t.clone());
        }
        let q = agent.q_value(&[0.5], &[0.2]);
        assert!((q - 1.0).abs() < 0.15, "q = {q}");
    }

    #[test]
    fn learns_set_point_tracking() {
        // The canonical smoke test: SAC should learn to push the position
        // toward the target and hold it, clearly beating the untrained
        // policy.
        let mut env = SetPointEnv::new(0.7, 40);
        let mut cfg = SacConfig::small(1, 1);
        cfg.batch_size = 32;
        cfg.warmup = 100;
        let mut agent = Sac::new(cfg, 7);

        let mut eval_env = SetPointEnv::new(0.7, 40);
        let before = agent.evaluate(&mut eval_env, 200);
        agent.train(&mut env, 3000);
        let after = agent.evaluate(&mut eval_env, 200);
        // Perfect play collects ~0 reward after converging to the target
        // (a few steps of approach each episode); random play sits far
        // below.
        assert!(
            after > before + 10.0 || after > -25.0,
            "before {before}, after {after}"
        );
        assert!(agent.updates_done() > 1000);
    }

    #[test]
    fn auto_alpha_moves_toward_target_entropy() {
        let mut env = SetPointEnv::new(0.5, 20);
        let mut cfg = SacConfig::small(1, 1);
        cfg.alpha = 1.0; // start very exploratory
        let mut agent = Sac::new(cfg, 11);
        let a0 = agent.alpha();
        agent.train(&mut env, 1500);
        // With a deterministic optimum the temperature should shrink.
        assert!(agent.alpha() < a0, "alpha {} -> {}", a0, agent.alpha());
    }

    #[test]
    fn snapshot_mid_training_resumes_bit_identically() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};

        // Train past warmup so the snapshot captures a learning agent:
        // non-trivial replay contents, Adam moments, RNG mid-stream.
        let mut cfg = SacConfig::small(1, 1);
        cfg.warmup = 32;
        cfg.batch_size = 8;
        let mut env = SetPointEnv::new(0.6, 25);
        let mut agent = Sac::new(cfg, 13);
        agent.train(&mut env, 120);

        let mut w = SnapWriter::new();
        agent.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = Sac::unsnap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.updates_done(), agent.updates_done());
        assert_eq!(restored.replay_len(), agent.replay_len());

        // Both agents must now produce identical trajectories: same
        // exploration draws, same sampled mini-batches, same updates.
        let mut env_a = SetPointEnv::new(0.6, 25);
        let mut env_b = SetPointEnv::new(0.6, 25);
        agent.train(&mut env_a, 120);
        restored.train(&mut env_b, 120);
        let s = [0.37];
        assert_eq!(agent.act_deterministic(&s), restored.act_deterministic(&s));
        assert_eq!(agent.act(&s), restored.act(&s));
        assert_eq!(agent.updates_done(), restored.updates_done());
        assert_eq!(
            agent.q_value(&s, &[0.1]).to_bits(),
            restored.q_value(&s, &[0.1]).to_bits()
        );
        assert_eq!(agent.alpha().to_bits(), restored.alpha().to_bits());
    }

    #[test]
    fn q_value_is_min_of_twins() {
        let agent = Sac::new(SacConfig::small(2, 1), 5);
        let s = [0.1, 0.2];
        let a = [0.3];
        let xin: Vec<f64> = s.iter().chain(a.iter()).copied().collect();
        let q1 = agent.q1.forward(&xin)[0];
        let q2 = agent.q2.forward(&xin)[0];
        assert_eq!(agent.q_value(&s, &a), q1.min(q2));
    }
}
