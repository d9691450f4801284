//! Multi-layer perceptron with explicit forward caches.
//!
//! SAC needs three things from its networks beyond plain inference:
//! parameter gradients (critic regression), gradients *with respect to
//! inputs* (the actor update differentiates Q(s, a) with respect to a),
//! and soft target-network updates. [`Mlp`] provides all three, for a
//! whole mini-batch at a time: [`Mlp::forward_batch`] records each
//! layer's activated output in a caller-owned [`BatchCache`] whose
//! buffers are reused from one batch to the next, and the backward
//! passes read them back. Batches are feature-major, as in
//! [`crate::linear`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::linear::Linear;
use crate::optim::Adam;

/// A feed-forward network: `Linear → act → … → Linear` with the hidden
/// activation applied between layers and an identity output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
}

/// Buffers of one batched pass through an [`Mlp`], kept for the
/// backward pass and reused across batches (they only grow).
#[derive(Debug, Clone, Default)]
pub struct BatchCache {
    /// Samples in the recorded batch.
    n: usize,
    /// `acts[0]` is the network input and `acts[l + 1]` the output of
    /// layer `l` after its activation, each `dim × n`.
    acts: Vec<Vec<f64>>,
    /// Gradient with respect to the current layer's output.
    grad: Vec<f64>,
    /// Gradient with respect to the current layer's input.
    grad_in: Vec<f64>,
    /// Transposed output gradient for the parameter-gradient kernel.
    gyt: Vec<f64>,
}

impl Mlp {
    /// Builds an MLP with the given layer `dims` (at least input and
    /// output) and hidden activation, deterministically initialized from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new(dims: &[usize], hidden_act: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers, hidden_act }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("nonempty").in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The linear layers, input first. For tests and diagnostics.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// L2 norm of all parameters (weights and biases across layers).
    ///
    /// A cheap divergence diagnostic for telemetry: SAC training that
    /// is blowing up shows as an exploding parameter norm long before
    /// actions saturate, and a healthy run keeps it bounded.
    pub fn param_l2(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                l.weights().iter().map(|w| w * w).sum::<f64>()
                    + l.biases().iter().map(|b| b * b).sum::<f64>()
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Overwrites every parameter in every layer with `v` (see
    /// [`Linear::fill_params`]). Fault-injection support.
    pub fn fill_params(&mut self, v: f64) {
        for layer in &mut self.layers {
            layer.fill_params(v);
        }
    }

    /// Inference-only forward pass for one input: the batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_batch(x, 1, &mut BatchCache::default())
            .to_vec()
    }

    /// Forward pass over a batch of `n` inputs (`in_dim × n`,
    /// feature-major), recording every layer's output in `cache` for the
    /// backward passes. Returns the `out_dim × n` network output.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `x.len() != self.in_dim() * n`.
    pub fn forward_batch<'c>(&self, x: &[f64], n: usize, cache: &'c mut BatchCache) -> &'c [f64] {
        assert_eq!(x.len(), self.in_dim() * n, "input dimension mismatch");
        let depth = self.layers.len();
        cache.n = n;
        cache.acts.resize_with(depth + 1, Vec::new);
        cache.acts[0].clear();
        cache.acts[0].extend_from_slice(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.acts.split_at_mut(l + 1);
            let y = &mut rest[0];
            y.resize(layer.out_dim() * n, 0.0);
            layer.forward_batch(&done[l], n, y);
            if l + 1 < depth {
                self.hidden_act.forward_in_place(y);
            }
        }
        &cache.acts[depth]
    }

    /// Back-propagates `grad_out` (`out_dim × n`) through the batch
    /// recorded in `cache`, accumulating every layer's parameter
    /// gradients in sample order.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not hold a pass of this network or
    /// `grad_out` does not match its batch.
    pub fn backward_batch(&mut self, cache: &mut BatchCache, grad_out: &[f64]) {
        self.load_grad(cache, grad_out);
        for l in (0..self.layers.len()).rev() {
            let BatchCache {
                n, acts, grad, gyt, ..
            } = cache;
            self.layers[l].backward_params_batch(&acts[l], grad, *n, gyt);
            if l > 0 {
                self.step_down(l, cache);
            }
        }
    }

    /// Gradient of the batch's outputs, weighted by `grad_out`
    /// (`out_dim × n`), with respect to the network input (`in_dim × n`).
    /// Parameter gradients are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not hold a pass of this network or
    /// `grad_out` does not match its batch.
    pub fn input_grad_batch<'c>(&self, cache: &'c mut BatchCache, grad_out: &[f64]) -> &'c [f64] {
        self.load_grad(cache, grad_out);
        for l in (1..self.layers.len()).rev() {
            self.step_down(l, cache);
        }
        self.grad_to_layer_input(0, cache);
        &cache.grad_in
    }

    /// Seeds the backward pass with the gradient of the network output.
    fn load_grad(&self, cache: &mut BatchCache, grad_out: &[f64]) {
        assert_eq!(
            cache.acts.len(),
            self.layers.len() + 1,
            "cache depth mismatch"
        );
        assert_eq!(
            grad_out.len(),
            self.out_dim() * cache.n,
            "output gradient mismatch"
        );
        cache.grad.clear();
        cache.grad.extend_from_slice(grad_out);
    }

    /// Moves the backward pass from layer `l` down to layer `l − 1`:
    /// `cache.grad` turns from the gradient with respect to layer `l`'s
    /// output into the gradient with respect to layer `l − 1`'s
    /// pre-activation output.
    fn step_down(&self, l: usize, cache: &mut BatchCache) {
        self.grad_to_layer_input(l, cache);
        std::mem::swap(&mut cache.grad, &mut cache.grad_in);
        self.hidden_act
            .backward_in_place(&cache.acts[l], &mut cache.grad);
    }

    /// Writes the gradient with respect to layer `l`'s input into
    /// `cache.grad_in`, given the gradient with respect to its output in
    /// `cache.grad`.
    fn grad_to_layer_input(&self, l: usize, cache: &mut BatchCache) {
        let layer = &self.layers[l];
        cache.grad_in.resize(layer.in_dim() * cache.n, 0.0);
        layer.backward_input_batch(&cache.grad, cache.n, &mut cache.grad_in);
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Applies one Adam step to every layer (gradient scale 1) and
    /// advances the optimizer clock.
    pub fn adam_step(&mut self, adam: &mut Adam) {
        self.adam_step_batch(adam, 1);
    }

    /// Applies one Adam step with gradients averaged over `batch`
    /// samples, then advances the optimizer clock.
    pub fn adam_step_batch(&mut self, adam: &mut Adam, batch: usize) {
        for l in &mut self.layers {
            l.adam_step(adam, batch);
        }
        adam.tick();
    }

    /// Soft-updates all parameters toward `source`
    /// (`θ ← τ·θ_src + (1−τ)·θ`), the SAC target-network rule.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "depth mismatch");
        for (t, s) in self.layers.iter_mut().zip(&source.layers) {
            t.soft_update_from(s, tau);
        }
    }

    /// Re-creates transient buffers after deserialization.
    pub fn restore_buffers(&mut self) {
        for l in &mut self.layers {
            l.restore_buffers();
        }
    }
}

impl mtat_snapshot::Snap for Mlp {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.layers.snap(w);
        self.hidden_act.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let layers = Vec::<Linear>::unsnap(r)?;
        let hidden_act = Activation::unsnap(r)?;
        if layers.is_empty() {
            return Err(SnapError::Malformed("MLP with no layers"));
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(SnapError::Malformed("MLP layer dims do not chain"));
            }
        }
        Ok(Self { layers, hidden_act })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;

    #[test]
    fn shapes() {
        let net = Mlp::new(&[3, 8, 8, 2], Activation::Relu, 0);
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 2);
        assert_eq!(net.depth(), 3);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    /// Input gradient of the (scalar) output at one point.
    fn input_grad_one(net: &Mlp, x: &[f64]) -> Vec<f64> {
        let mut cache = BatchCache::default();
        net.forward_batch(x, 1, &mut cache);
        net.input_grad_batch(&mut cache, &[1.0]).to_vec()
    }

    /// One MSE training step on a batch of one.
    fn train_one(net: &mut Mlp, adam: &mut Adam, x: f64, target: f64) {
        let mut cache = BatchCache::default();
        let y = net.forward_batch(&[x], 1, &mut cache).to_vec();
        let grad = loss::mse_grad(&y, &[target]);
        net.zero_grad();
        net.backward_batch(&mut cache, &grad);
        net.adam_step(adam);
    }

    #[test]
    fn forward_and_forward_batch_agree() {
        let net = Mlp::new(&[2, 5, 1], Activation::Tanh, 11);
        let mut cache = BatchCache::default();
        // Two samples, feature-major: columns (0.4, -0.9) and (0.1, 0.3).
        let y = net.forward_batch(&[0.4, 0.1, -0.9, 0.3], 2, &mut cache);
        assert_eq!(y[0], net.forward(&[0.4, -0.9])[0]);
        assert_eq!(y[1], net.forward(&[0.1, 0.3])[0]);
    }

    #[test]
    fn tanh_network_input_gradient_check() {
        // Scalar-output net; loss = output itself.
        let net = Mlp::new(&[2, 4, 1], Activation::Tanh, 3);
        let x = [0.7, -0.2];
        let grad_in = input_grad_one(&net, &x);

        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "input grad {i}: {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn relu_network_input_gradient_check() {
        let net = Mlp::new(&[3, 6, 1], Activation::Relu, 17);
        let x = [0.5, 0.25, -0.75];
        let grad_in = input_grad_one(&net, &x);
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!((numeric - grad_in[i]).abs() < 1e-5, "input grad {i}");
        }
    }

    #[test]
    fn input_grad_leaves_parameter_gradients_alone() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, 8);
        let mut adam = Adam::new(1e-2);
        let before = net.clone();
        net.zero_grad();
        let _ = input_grad_one(&net, &[0.3, 0.6]);
        // An Adam step on zero gradients leaves parameters unchanged.
        net.adam_step(&mut adam);
        assert_eq!(net.forward(&[0.2, 0.1]), before.forward(&[0.2, 0.1]));
    }

    #[test]
    fn learns_linear_function() {
        let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, 42);
        let mut adam = Adam::new(1e-2);
        for step in 0..600 {
            let x = ((step % 10) as f64) / 10.0;
            train_one(&mut net, &mut adam, x, 2.0 * x + 0.5);
        }
        for x in [0.15, 0.55, 0.85] {
            let y = net.forward(&[x])[0];
            assert!((y - (2.0 * x + 0.5)).abs() < 0.15, "f({x}) = {y}");
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x^2 on [-1, 1] — requires the hidden layers to do real
        // work. Full-batch gradient accumulation keeps training stable.
        let mut net = Mlp::new(&[1, 32, 32, 1], Activation::Tanh, 5);
        let mut adam = Adam::new(1e-2);
        let mut cache = BatchCache::default();
        let xs: Vec<f64> = (0..41).map(|i| -1.0 + 2.0 * i as f64 / 40.0).collect();
        let targets: Vec<f64> = xs.iter().map(|x| x * x).collect();
        for _ in 0..800 {
            net.zero_grad();
            let y = net.forward_batch(&xs, xs.len(), &mut cache).to_vec();
            let grad: Vec<f64> = y
                .iter()
                .zip(&targets)
                .map(|(&p, &t)| loss::mse_grad(&[p], &[t])[0])
                .collect();
            net.backward_batch(&mut cache, &grad);
            net.adam_step_batch(&mut adam, xs.len());
        }
        let mut worst: f64 = 0.0;
        for &x in &xs {
            worst = worst.max((net.forward(&[x])[0] - x * x).abs());
        }
        assert!(worst < 0.1, "worst error {worst}");
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut target = Mlp::new(&[2, 4, 1], Activation::Relu, 1);
        let source = Mlp::new(&[2, 4, 1], Activation::Relu, 2);
        for _ in 0..2000 {
            target.soft_update_from(&source, 0.01);
        }
        let x = [0.3, 0.3];
        assert!((target.forward(&x)[0] - source.forward(&x)[0]).abs() < 1e-3);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        assert_eq!(a.forward(&[0.1, 0.9]), b.forward(&[0.1, 0.9]));
        let c = Mlp::new(&[2, 4, 1], Activation::Relu, 78);
        assert_ne!(a.forward(&[0.1, 0.9]), c.forward(&[0.1, 0.9]));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_dims_panics() {
        let _ = Mlp::new(&[3], Activation::Relu, 0);
    }

    #[test]
    fn snapshot_roundtrip_resumes_training_bit_identically() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};

        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, 21);
        let mut adam = Adam::new(1e-2);
        let step = |net: &mut Mlp, adam: &mut Adam, x: f64| train_one(net, adam, x, 2.0 * x);
        for i in 0..50 {
            step(&mut net, &mut adam, (i % 7) as f64 / 7.0);
        }

        let mut w = SnapWriter::new();
        net.snap(&mut w);
        adam.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut net2 = Mlp::unsnap(&mut r).unwrap();
        let mut adam2 = Adam::unsnap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(adam2.step_count(), adam.step_count());

        // Training both copies further must stay bit-identical: the Adam
        // moments and step count travelled with the snapshot.
        for i in 0..50 {
            let x = (i % 7) as f64 / 7.0;
            step(&mut net, &mut adam, x);
            step(&mut net2, &mut adam2, x);
        }
        for (a, b) in net.layers.iter().zip(&net2.layers) {
            assert_eq!(a.weights(), b.weights());
            assert_eq!(a.biases(), b.biases());
        }
    }

    #[test]
    fn snapshot_rejects_malformed_shapes() {
        use mtat_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

        let net = Mlp::new(&[2, 3, 1], Activation::Relu, 4);
        let mut w = SnapWriter::new();
        net.snap(&mut w);
        let mut bytes = w.into_bytes();
        // The first field is the layer count; claim zero layers.
        bytes[0] = 0;
        let got = Mlp::unsnap(&mut SnapReader::new(&bytes[..9]));
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }
}
