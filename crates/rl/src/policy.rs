//! Tanh-squashed Gaussian policy with exact reparameterized gradients.
//!
//! The actor outputs, per action dimension, a mean `μ` and a raw log
//! standard deviation (clamped to `[LOG_STD_MIN, LOG_STD_MAX]`). An
//! action is sampled by the reparameterization trick
//! `a = tanh(μ + σ·ε)`, `ε ~ N(0, 1)`, and its log-density includes the
//! tanh change-of-variables correction:
//!
//! ```text
//! log π(a|s) = Σ_k [ −ε_k²/2 − log σ_k − log√(2π) − log(1 − a_k² + ϵ) ]
//! ```
//!
//! The gradients of the SAC actor loss with respect to `μ` and `log σ`
//! are derived by hand here and validated against finite differences in
//! the tests.
//!
//! The policy samples and back-propagates a whole mini-batch at a time;
//! per-sample rows are feature-major (`action_dim × n`), as in
//! [`mtat_nn::linear`], and acting on one state is the batch of one.

use mtat_nn::activation::Activation;
use mtat_nn::mlp::{BatchCache, Mlp};
use mtat_nn::optim::Adam;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lower clamp for the log standard deviation.
pub const LOG_STD_MIN: f64 = -5.0;
/// Upper clamp for the log standard deviation.
pub const LOG_STD_MAX: f64 = 2.0;
const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_7;
const SQUASH_EPS: f64 = 1e-6;

/// A batch of sampled actions with everything the actor's backward pass
/// needs. The buffers are reused from one batch to the next.
#[derive(Debug, Clone, Default)]
pub struct PolicyBatch {
    /// Actor-network activations of the batch.
    cache: BatchCache,
    /// The standard-normal noise used (reparameterization),
    /// `action_dim × n`.
    eps: Vec<f64>,
    /// Clamped log standard deviation, `action_dim × n`.
    log_std: Vec<f64>,
    /// Whether each raw log-std hit the clamp (gradient gate).
    log_std_clamped: Vec<bool>,
    /// Squashed action `tanh(u)`, componentwise in `(-1, 1)`,
    /// `action_dim × n`.
    pub action: Vec<f64>,
    /// Total log-density of each sample's squashed action (`n`).
    pub log_prob: Vec<f64>,
    /// Gradient with respect to the network output, `2·action_dim × n`.
    grad_out: Vec<f64>,
}

/// The SAC actor network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianPolicy {
    net: Mlp,
    action_dim: usize,
}

impl GaussianPolicy {
    /// Builds a policy with hidden layers `hidden` mapping `state_dim`
    /// inputs to `2·action_dim` outputs (means then raw log-stds).
    pub fn new(state_dim: usize, action_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(action_dim > 0, "action_dim must be nonzero");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(state_dim);
        dims.extend_from_slice(hidden);
        dims.push(2 * action_dim);
        Self {
            net: Mlp::new(&dims, Activation::Relu, seed),
            action_dim,
        }
    }

    /// Number of action dimensions.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// L2 norm of the actor network's parameters — the health sentinel's
    /// cheapest poison detector: any NaN weight makes the whole norm NaN
    /// immediately, without waiting for a decision boundary.
    pub fn param_l2(&self) -> f64 {
        self.net.param_l2()
    }

    /// Overwrites every actor parameter with `v`. Fault-injection
    /// support (see [`mtat_nn::mlp::Mlp::fill_params`]).
    pub fn fill_params(&mut self, v: f64) {
        self.net.fill_params(v);
    }

    /// Samples one squashed action per state with the reparameterization
    /// trick. `states` is `state_dim × n`; the results land in `out`.
    ///
    /// Noise is drawn sample by sample, and within a sample dimension by
    /// dimension, so a batch consumes the RNG exactly as `n` batches of
    /// one in a row would.
    pub fn sample_batch(&self, states: &[f64], n: usize, rng: &mut StdRng, out: &mut PolicyBatch) {
        let len = self.action_dim * n;
        out.eps.resize(len, 0.0);
        for s in 0..n {
            for k in 0..self.action_dim {
                out.eps[k * n + s] = standard_normal(rng);
            }
        }
        let raw = self.net.forward_batch(states, n, &mut out.cache);
        let (mu, raw_log_std) = raw.split_at(len);
        out.log_std.clear();
        out.log_std_clamped.clear();
        out.action.clear();
        out.log_prob.clear();
        out.log_prob.resize(n, 0.0);
        for (j, ((&m, &v), &e)) in mu.iter().zip(raw_log_std).zip(&out.eps).enumerate() {
            let log_std = v.clamp(LOG_STD_MIN, LOG_STD_MAX);
            let sigma = log_std.exp();
            let a = (m + sigma * e).tanh();
            out.log_prob[j % n] +=
                -0.5 * e * e - log_std - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln();
            out.log_std.push(log_std);
            out.log_std_clamped
                .push(!(LOG_STD_MIN..=LOG_STD_MAX).contains(&v));
            out.action.push(a);
        }
    }

    /// Deterministic (evaluation) action: `tanh(μ)`.
    pub fn deterministic(&self, state: &[f64]) -> Vec<f64> {
        let raw = self.net.forward(state);
        raw[..self.action_dim].iter().map(|&m| m.tanh()).collect()
    }

    /// Accumulates actor-loss gradients for the batch sampled into
    /// `batch` by [`Self::sample_batch`].
    ///
    /// `dl_du` (`action_dim × n`) must be the total derivative of the
    /// scalar loss with respect to each pre-squash sample `u` *holding ε
    /// fixed*, and `dl_dlogstd_direct` any additional direct dependence
    /// of the loss on `log σ` (for the SAC actor loss this is `−α` from
    /// the `−log σ` term of the entropy). The chain rules `∂u/∂μ = 1` and
    /// `∂u/∂log σ = σ·ε` are applied here, and the clamp gates gradients
    /// on saturated log-std dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dl_du` does not match the batch.
    pub fn backward_batch(
        &mut self,
        batch: &mut PolicyBatch,
        dl_du: &[f64],
        dl_dlogstd_direct: f64,
    ) {
        assert_eq!(
            dl_du.len(),
            batch.action.len(),
            "dl_du does not match the batch"
        );
        let gated = batch
            .log_std
            .iter()
            .zip(&batch.eps)
            .zip(&batch.log_std_clamped);
        let dl_dlogstd = dl_du.iter().zip(gated).map(|(&g, ((&ls, &e), &clamped))| {
            if clamped {
                0.0
            } else {
                g * ls.exp() * e + dl_dlogstd_direct
            }
        });
        batch.grad_out.clear();
        batch.grad_out.extend_from_slice(dl_du); // dL/dμ = dL/du
        batch.grad_out.extend(dl_dlogstd);
        self.net.backward_batch(&mut batch.cache, &batch.grad_out);
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Adam step over the policy parameters (batch-averaged).
    pub fn adam_step_batch(&mut self, adam: &mut Adam, batch: usize) {
        self.net.adam_step_batch(adam, batch);
    }

    /// Restores transient buffers after deserialization.
    pub fn restore_buffers(&mut self) {
        self.net.restore_buffers();
    }
}

impl mtat_snapshot::Snap for GaussianPolicy {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.net.snap(w);
        self.action_dim.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let net = Mlp::unsnap(r)?;
        let action_dim = usize::unsnap(r)?;
        if action_dim == 0 || net.out_dim() != 2 * action_dim {
            return Err(SnapError::Malformed(
                "policy head does not match action_dim",
            ));
        }
        Ok(Self { net, action_dim })
    }
}

/// Standard normal via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Derivative helper: `∂log π/∂u_k` for the squash-correction term,
/// `D_k = 2·a·(1−a²)/(1−a²+ϵ)` with `a = tanh(u)`.
pub fn squash_correction_grad(a: f64) -> f64 {
    2.0 * a * (1.0 - a * a) / (1.0 - a * a + SQUASH_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Samples one action for `state` (the batch of one).
    fn sample_one(p: &GaussianPolicy, state: &[f64], rng: &mut StdRng) -> PolicyBatch {
        let mut batch = PolicyBatch::default();
        p.sample_batch(state, 1, rng, &mut batch);
        batch
    }

    #[test]
    fn actions_are_squashed() {
        let p = GaussianPolicy::new(3, 2, &[16], 0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = sample_one(&p, &[0.1, -0.5, 2.0], &mut rng);
            for &a in &s.action {
                assert!((-1.0..=1.0).contains(&a));
            }
            assert!(s.log_prob[0].is_finite());
        }
        let d = p.deterministic(&[0.1, -0.5, 2.0]);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|a| (-1.0..=1.0).contains(a)));
    }

    #[test]
    fn log_prob_matches_manual_computation() {
        let p = GaussianPolicy::new(2, 1, &[8], 3);
        let mut rng = StdRng::seed_from_u64(9);
        let s = sample_one(&p, &[0.3, 0.3], &mut rng);
        let sigma = s.log_std[0].exp();
        let e = s.eps[0];
        let a = s.action[0];
        let manual = -0.5 * e * e - sigma.ln() - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln();
        assert!((manual - s.log_prob[0]).abs() < 1e-12);
        // The action is consistent with tanh(mu + sigma * eps).
        let mu = p.net.forward(&[0.3, 0.3])[0];
        assert!((a - (mu + sigma * e).tanh()).abs() < 1e-12);
    }

    #[test]
    fn batch_sampling_matches_batches_of_one() {
        let p = GaussianPolicy::new(3, 2, &[16, 16], 5);
        let states = [[0.1, -0.5, 2.0], [0.7, 0.2, 0.0], [-1.0, 0.4, 0.9]];
        // Feature-major: row f holds feature f of every state.
        let columns: Vec<f64> = (0..3)
            .flat_map(|f| states.iter().map(move |s| s[f]))
            .collect();
        let mut batch_rng = StdRng::seed_from_u64(2);
        let mut batch = PolicyBatch::default();
        p.sample_batch(&columns, 3, &mut batch_rng, &mut batch);
        let mut one_rng = StdRng::seed_from_u64(2);
        for (j, state) in states.iter().enumerate() {
            let one = sample_one(&p, state, &mut one_rng);
            assert_eq!(one.log_prob[0].to_bits(), batch.log_prob[j].to_bits());
            for k in 0..2 {
                assert_eq!(one.action[k].to_bits(), batch.action[k * 3 + j].to_bits());
                assert_eq!(one.eps[k].to_bits(), batch.eps[k * 3 + j].to_bits());
            }
        }
        // Both streams consumed the same draws.
        assert_eq!(
            standard_normal(&mut batch_rng),
            standard_normal(&mut one_rng)
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Consistency check of the hand-derived chain rule on the entropy
    /// part of the SAC loss (α·log π), whose `dl_du` is `α·D` and whose
    /// direct log-std term is `−α`: with the noise frozen, the analytic
    /// derivatives with respect to `μ` and `log σ` match central finite
    /// differences of the log-density formula.
    #[test]
    fn entropy_gradient_matches_finite_difference() {
        let alpha = 0.7;
        let state = [0.25, -0.4];
        let mut p = GaussianPolicy::new(2, 1, &[8], 21);
        let mut batch = sample_one(&p, &state, &mut StdRng::seed_from_u64(12));
        let eps = batch.eps[0];
        let log_std = batch.log_std[0];
        let sigma = log_std.exp();
        let mu = p.net.forward(&state)[0];
        let a = batch.action[0];

        let loss = |mu: f64, ls: f64| {
            let a = (mu + ls.exp() * eps).tanh();
            alpha * (-0.5 * eps * eps - ls - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln())
        };
        let h = 1e-6;
        let dl_du = alpha * squash_correction_grad(a);
        let numeric_dmu = (loss(mu + h, log_std) - loss(mu - h, log_std)) / (2.0 * h);
        assert!(
            (numeric_dmu - dl_du).abs() < 1e-5,
            "dmu: numeric {numeric_dmu} vs analytic {dl_du}"
        );
        let numeric_dlogstd = (loss(mu, log_std + h) - loss(mu, log_std - h)) / (2.0 * h);
        let analytic_dlogstd = dl_du * sigma * eps - alpha;
        assert!(
            (numeric_dlogstd - analytic_dlogstd).abs() < 1e-5,
            "dlogstd: numeric {numeric_dlogstd} vs analytic {analytic_dlogstd}"
        );

        // The backward pass accepts the batch and moves the parameters.
        p.zero_grad();
        p.backward_batch(&mut batch, &[dl_du], -alpha);
        p.adam_step_batch(&mut Adam::new(1e-2), 1);
        assert_ne!(p.net.forward(&state)[0], mu);
    }

    #[test]
    fn squash_correction_grad_signs() {
        assert!(squash_correction_grad(0.5) > 0.0);
        assert!(squash_correction_grad(-0.5) < 0.0);
        assert_eq!(squash_correction_grad(0.0), 0.0);
    }
}
