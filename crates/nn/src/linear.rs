//! Fully-connected layer with gradient accumulation and Adam moments.
//!
//! The layer runs on whole mini-batches. A batch of `n` vectors of
//! dimension `d` is a `d × n` matrix stored *feature-major*: element
//! `(f, s)`, feature `f` of sample `s`, lives at index `f·n + s`, so each
//! feature is one contiguous row over the samples. A single vector is
//! the batch of one, where both layouts coincide.
//!
//! The kernels reorder loops, never arithmetic: every output and
//! gradient entry is the same sequence of IEEE operations, in the same
//! order, that one sample at a time would compute (DESIGN.md §4l). They
//! run on one of two [`Kernel`]s, picked from the CPU when a layer is
//! built or restored, and give the same bits on either.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::optim::Adam;

/// A dense layer `y = W·x + b` with `W ∈ R^{out×in}` stored row-major.
///
/// The layer owns its gradient accumulators and Adam first/second
/// moments, so a whole network can be stepped by iterating its layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    #[serde(skip)]
    gw: Vec<f64>,
    #[serde(skip)]
    gb: Vec<f64>,
    #[serde(skip)]
    mw: Vec<f64>,
    #[serde(skip)]
    vw: Vec<f64>,
    #[serde(skip)]
    mb: Vec<f64>,
    #[serde(skip)]
    vb: Vec<f64>,
    #[serde(skip)]
    kernel: Kernel,
}

/// Which form of the batched kernels a layer runs.
///
/// The same choice, by the same check, as `mtat_tiermem::kernel::Kernel`
/// makes for the sampler and the histograms, kept as a copy: this crate
/// is the network library under `mtat-rl` and depends on no simulator
/// crate, and the two share only the checkpoint codec. One check for
/// both needs a crate that both depend on, which rewrites the
/// benchmark's lockfile, so it waits for the next change to the
/// benchmark (ROADMAP.md). Until then `mtat-core`'s
/// `tracker_picks_the_avx512_kernels_on_avx512` asserts that a layer
/// and a histogram built on the same CPU pick the same kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable loops, over register tiles of eight samples or
    /// outputs.
    Scalar,
    /// The same loops compiled for AVX-512F, DQ and VL, over tiles of
    /// 32: four independent add chains of eight lanes each. A pass too
    /// small for one such tile runs the scalar loops.
    Avx512,
}

impl Kernel {
    /// `Avx512` where the CPU reports AVX-512F, DQ and VL, `Scalar`
    /// everywhere else: this crate's one check that licenses the
    /// AVX-512 form.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            return Self::Avx512;
        }
        Self::Scalar
    }

    /// `"avx512"` or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx512 => "avx512",
        }
    }
}

impl Linear {
    /// Creates a layer with He-uniform initialization (suitable for ReLU
    /// and tanh hidden layers at these scales) and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be nonzero"
        );
        let bound = (6.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
            kernel: Kernel::detect(),
        }
    }

    /// Convenience constructor seeding its own RNG.
    pub fn with_seed(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(in_dim, out_dim, &mut rng)
    }

    /// Input dimension.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The kernel the batched passes run on.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Computes `y = W·x + b` for a batch of `n` samples.
    ///
    /// `x` is `in_dim × n` and `y` is `out_dim × n`, both feature-major
    /// (see the [module docs](self)). Every output is `b[o] + S`, where
    /// `S` adds the products `w[o,i]·x[i]` left to right in input order,
    /// starting from `−0.0` as [`Iterator::sum`] does.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a slice length does not match its shape.
    pub fn forward_batch(&self, x: &[f64], n: usize, y: &mut [f64]) {
        assert!(n > 0, "empty batch");
        assert_eq!(x.len(), self.in_dim * n, "input dimension mismatch");
        assert_eq!(y.len(), self.out_dim * n, "output dimension mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.kernel == Kernel::Avx512 && n >= WIDE_TILE {
            // SAFETY: `kernel` is `Avx512` only where `Kernel::detect`
            // found AVX-512F, DQ and VL on this CPU.
            return unsafe { self.forward_avx512(x, n, y) };
        }
        self.forward_rows::<TILE>(x, n, y);
    }

    /// [`Self::forward_batch`] on [`Kernel::Avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn forward_avx512(&self, x: &[f64], n: usize, y: &mut [f64]) {
        self.forward_rows::<WIDE_TILE>(x, n, y);
    }

    /// [`Self::forward_batch`]'s loops: per output row, tiles of `W`
    /// samples, then of [`TILE`], then single samples.
    #[inline(always)]
    fn forward_rows<const W: usize>(&self, x: &[f64], n: usize, y: &mut [f64]) {
        let (wide, tiled) = (n - n % W, n - n % TILE);
        let rows = self.w.chunks_exact(self.in_dim).zip(&self.b);
        for (yr, (w, &b)) in y.chunks_exact_mut(n).zip(rows) {
            for s in (0..wide).step_by(W) {
                forward_tile::<W>(w, b, x, n, s, yr);
            }
            for s in (wide..tiled).step_by(TILE) {
                forward_tile::<TILE>(w, b, x, n, s, yr);
            }
            for s in tiled..n {
                forward_tile::<1>(w, b, x, n, s, yr);
            }
        }
    }

    /// Accumulates the parameter gradients of a batch:
    /// `gw[o,i] += gy[o]·x[i]` and `gb[o] += gy[o]` for every sample,
    /// each entry adding its samples in order `0..n`.
    ///
    /// `x` is the `in_dim × n` input of the matching
    /// [`Self::forward_batch`] call and `gy` the `out_dim × n` gradient
    /// of the loss with respect to its output. `gyt` is scratch space:
    /// `gy` is transposed into it so that a tile of outputs reads
    /// contiguous gradients.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a slice length does not match its shape.
    pub fn backward_params_batch(&mut self, x: &[f64], gy: &[f64], n: usize, gyt: &mut Vec<f64>) {
        assert!(n > 0, "empty batch");
        assert_eq!(x.len(), self.in_dim * n, "input dimension mismatch");
        assert_eq!(gy.len(), self.out_dim * n, "output dimension mismatch");
        for (gb, gyr) in self.gb.iter_mut().zip(gy.chunks_exact(n)) {
            for &g in gyr {
                *gb += g;
            }
        }
        gyt.resize(n * self.out_dim, 0.0);
        for (o, gyr) in gy.chunks_exact(n).enumerate() {
            for (s, &g) in gyr.iter().enumerate() {
                gyt[s * self.out_dim + o] = g;
            }
        }
        #[cfg(target_arch = "x86_64")]
        if self.kernel == Kernel::Avx512 && self.out_dim >= WIDE_TILE {
            // SAFETY: `kernel` is `Avx512` only where `Kernel::detect`
            // found AVX-512F, DQ and VL on this CPU.
            return unsafe { self.params_avx512(x, n, gyt) };
        }
        self.params_columns::<TILE>(x, n, gyt);
    }

    /// The weight-gradient loops of [`Self::backward_params_batch`] on
    /// [`Kernel::Avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn params_avx512(&mut self, x: &[f64], n: usize, gyt: &[f64]) {
        self.params_columns::<WIDE_TILE>(x, n, gyt);
    }

    /// The weight-gradient loops of [`Self::backward_params_batch`]: per
    /// input column, tiles of `W` outputs, then of [`TILE`], then single
    /// outputs.
    #[inline(always)]
    fn params_columns<const W: usize>(&mut self, x: &[f64], n: usize, gyt: &[f64]) {
        let (wide, tiled) = (
            self.out_dim - self.out_dim % W,
            self.out_dim - self.out_dim % TILE,
        );
        for (i, xr) in x.chunks_exact(n).enumerate() {
            let gw = &mut self.gw[i..];
            for o in (0..wide).step_by(W) {
                params_tile::<W>(gyt, self.out_dim, xr, o, self.in_dim, gw);
            }
            for o in (wide..tiled).step_by(TILE) {
                params_tile::<TILE>(gyt, self.out_dim, xr, o, self.in_dim, gw);
            }
            for o in tiled..self.out_dim {
                params_tile::<1>(gyt, self.out_dim, xr, o, self.in_dim, gw);
            }
        }
    }

    /// Computes the gradient with respect to the input of a batch:
    /// `gx[i] = Σ_o gy[o]·w[o,i]`, adding outputs in order starting from
    /// `+0.0`. `gy` is `out_dim × n` and `gx` is `in_dim × n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a slice length does not match its shape.
    pub fn backward_input_batch(&self, gy: &[f64], n: usize, gx: &mut [f64]) {
        assert!(n > 0, "empty batch");
        assert_eq!(gy.len(), self.out_dim * n, "output dimension mismatch");
        assert_eq!(gx.len(), self.in_dim * n, "input dimension mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.kernel == Kernel::Avx512 && n >= WIDE_TILE {
            // SAFETY: `kernel` is `Avx512` only where `Kernel::detect`
            // found AVX-512F, DQ and VL on this CPU.
            return unsafe { self.input_avx512(gy, n, gx) };
        }
        self.input_columns::<TILE>(gy, n, gx);
    }

    /// [`Self::backward_input_batch`] on [`Kernel::Avx512`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn input_avx512(&self, gy: &[f64], n: usize, gx: &mut [f64]) {
        self.input_columns::<WIDE_TILE>(gy, n, gx);
    }

    /// [`Self::backward_input_batch`]'s loops: per input column, tiles of
    /// `W` samples, then of [`TILE`], then single samples.
    #[inline(always)]
    fn input_columns<const W: usize>(&self, gy: &[f64], n: usize, gx: &mut [f64]) {
        let (wide, tiled) = (n - n % W, n - n % TILE);
        for (i, gxr) in gx.chunks_exact_mut(n).enumerate() {
            let w = &self.w[i..];
            for s in (0..wide).step_by(W) {
                input_tile::<W>(w, self.in_dim, gy, n, s, gxr);
            }
            for s in (wide..tiled).step_by(TILE) {
                input_tile::<TILE>(w, self.in_dim, gy, n, s, gxr);
            }
            for s in tiled..n {
                input_tile::<1>(w, self.in_dim, gy, n, s, gxr);
            }
        }
    }

    /// Zeroes the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Applies one Adam update with the currently accumulated gradients,
    /// scaled by `1/batch` (pass `batch = 1` for per-sample updates).
    pub fn adam_step(&mut self, adam: &Adam, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        adam.update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, scale);
        adam.update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, scale);
    }

    /// Soft-updates this layer's parameters toward `source`:
    /// `θ ← τ·θ_src + (1−τ)·θ`. Used for SAC target networks.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn soft_update_from(&mut self, source: &Linear, tau: f64) {
        assert_eq!(self.in_dim, source.in_dim);
        assert_eq!(self.out_dim, source.out_dim);
        for (t, &s) in self.w.iter_mut().zip(&source.w) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, &s) in self.b.iter_mut().zip(&source.b) {
            *t = tau * s + (1.0 - tau) * *t;
        }
    }

    /// Ensures transient buffers (skipped by serde) match parameter
    /// shapes after deserialization.
    pub fn restore_buffers(&mut self) {
        let nw = self.in_dim * self.out_dim;
        for buf in [&mut self.gw, &mut self.mw, &mut self.vw] {
            buf.resize(nw, 0.0);
        }
        for buf in [&mut self.gb, &mut self.mb, &mut self.vb] {
            buf.resize(self.out_dim, 0.0);
        }
    }

    /// Immutable view of the weight matrix (row-major, `out×in`). For
    /// tests and diagnostics.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Immutable view of the bias vector.
    pub fn biases(&self) -> &[f64] {
        &self.b
    }

    /// Immutable view of the accumulated weight gradients (row-major,
    /// `out×in`). For tests and diagnostics.
    pub fn weight_grads(&self) -> &[f64] {
        &self.gw
    }

    /// Immutable view of the accumulated bias gradients.
    pub fn bias_grads(&self) -> &[f64] {
        &self.gb
    }

    /// Overwrites every weight and bias with `v`. Fault-injection
    /// support: writing a non-finite value models a corrupted gradient
    /// round or a bad parameter load, the poison the health sentinel
    /// must detect and contain.
    pub fn fill_params(&mut self, v: f64) {
        self.w.fill(v);
        self.b.fill(v);
    }
}

/// Width of a register tile in the batched kernels: a tile keeps this
/// many independent accumulators in registers, so their add chains
/// overlap and LLVM can pack them into vector instructions. Sizes that
/// are not a multiple of the width finish with tiles of width one,
/// which run the same code.
const TILE: usize = 8;

/// Width of a register tile on [`Kernel::Avx512`]: four zmm registers of
/// eight lanes, so four add chains overlap where one [`TILE`] would
/// fill a single register and wait on its add latency. Sizes that are
/// not a multiple finish with [`TILE`]s, then tiles of width one. A
/// pass with fewer samples (or outputs) than this runs the scalar
/// loops: the batch of one read ×1.14 of their time compiled for
/// AVX-512, where its one-wide tiles gain nothing.
const WIDE_TILE: usize = 32;

/// `y[s + k] = b + Σ_i w[i]·x[i, s + k]` for `k < W`, each sum started
/// at `−0.0` and taken in input order.
#[inline(always)]
fn forward_tile<const W: usize>(w: &[f64], b: f64, x: &[f64], n: usize, s: usize, y: &mut [f64]) {
    let mut acc = [-0.0; W];
    for (&wi, xr) in w.iter().zip(x.chunks_exact(n)) {
        for (a, &xs) in acc.iter_mut().zip(&xr[s..s + W]) {
            *a += wi * xs;
        }
    }
    for (ys, a) in y[s..s + W].iter_mut().zip(acc) {
        *ys = b + a;
    }
}

/// `gw[o + k, i] += Σ_s gy[s, o + k]·x[i, s]` for `k < W`, samples in
/// order. `gyt` is the gradient transposed to sample-major rows of
/// `out_dim`; `gw` is the weight-gradient matrix offset to column `i`.
#[inline(always)]
fn params_tile<const W: usize>(
    gyt: &[f64],
    out_dim: usize,
    xr: &[f64],
    o: usize,
    in_dim: usize,
    gw: &mut [f64],
) {
    let mut acc: [f64; W] = std::array::from_fn(|k| gw[(o + k) * in_dim]);
    for (gs, &xi) in gyt.chunks_exact(out_dim).zip(xr) {
        for (a, &g) in acc.iter_mut().zip(&gs[o..o + W]) {
            *a += g * xi;
        }
    }
    for (k, a) in acc.into_iter().enumerate() {
        gw[(o + k) * in_dim] = a;
    }
}

/// `gx[s + k] = Σ_o gy[o, s + k]·w[o, i]` for `k < W`, each sum started
/// at `+0.0` and taken in output order. `w` is the weight matrix offset
/// to column `i`, so row `o`'s entry sits at `o·in_dim`.
#[inline(always)]
fn input_tile<const W: usize>(
    w: &[f64],
    in_dim: usize,
    gy: &[f64],
    n: usize,
    s: usize,
    gx: &mut [f64],
) {
    let mut acc = [0.0; W];
    for (wr, gyr) in w.chunks(in_dim).zip(gy.chunks_exact(n)) {
        let wi = wr[0];
        for (a, &g) in acc.iter_mut().zip(&gyr[s..s + W]) {
            *a += g * wi;
        }
    }
    gx[s..s + W].copy_from_slice(&acc);
}

/// Checkpoints the parameters *and* the Adam moments — a resumed update
/// with stale or zeroed moments would diverge from the uninterrupted
/// run on the very next optimizer step. Gradient accumulators are
/// transient (always zeroed before use) and are rebuilt as zeros.
impl mtat_snapshot::Snap for Linear {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.in_dim.snap(w);
        self.out_dim.snap(w);
        self.w.snap(w);
        self.b.snap(w);
        self.mw.snap(w);
        self.vw.snap(w);
        self.mb.snap(w);
        self.vb.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let in_dim = usize::unsnap(r)?;
        let out_dim = usize::unsnap(r)?;
        let w = Vec::<f64>::unsnap(r)?;
        let b = Vec::<f64>::unsnap(r)?;
        let mw = Vec::<f64>::unsnap(r)?;
        let vw = Vec::<f64>::unsnap(r)?;
        let mb = Vec::<f64>::unsnap(r)?;
        let vb = Vec::<f64>::unsnap(r)?;
        let nw = in_dim
            .checked_mul(out_dim)
            .ok_or(SnapError::Malformed("layer shape overflow"))?;
        if in_dim == 0
            || out_dim == 0
            || w.len() != nw
            || mw.len() != nw
            || vw.len() != nw
            || b.len() != out_dim
            || mb.len() != out_dim
            || vb.len() != out_dim
        {
            return Err(SnapError::Malformed("layer shape mismatch"));
        }
        Ok(Self {
            in_dim,
            out_dim,
            w,
            b,
            gw: vec![0.0; nw],
            gb: vec![0.0; out_dim],
            mw,
            vw,
            mb,
            vb,
            kernel: Kernel::detect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one sample through the batched forward kernel.
    fn forward_one(l: &Linear, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; l.out_dim];
        l.forward_batch(x, 1, &mut y);
        y
    }

    /// Accumulates one sample's parameter gradients and returns its
    /// input gradient.
    fn backward_one(l: &mut Linear, x: &[f64], gy: &[f64]) -> Vec<f64> {
        l.backward_params_batch(x, gy, 1, &mut Vec::new());
        let mut gx = vec![0.0; l.in_dim];
        l.backward_input_batch(gy, 1, &mut gx);
        gx
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::with_seed(2, 2, 0);
        // Overwrite parameters with known values.
        l.w = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        l.b = vec![0.5, -0.5];
        assert_eq!(forward_one(&l, &[1.0, 1.0]), vec![3.5, 6.5]);
        // Two samples, feature-major: x = [[1, 1], [0, 2]] as columns.
        let mut y = vec![0.0; 4];
        l.forward_batch(&[1.0, 0.0, 1.0, 2.0], 2, &mut y);
        assert_eq!(y, vec![3.5, 4.5, 6.5, 7.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut l = Linear::with_seed(3, 2, 7);
        let x = [0.3, -0.8, 1.2];
        // Scalar loss: sum of outputs.
        let grad_y = [1.0, 1.0];
        l.zero_grad();
        let grad_x = backward_one(&mut l, &x, &grad_y);

        let eps = 1e-6;
        // Check input gradient.
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f64 = forward_one(&l, &xp).iter().sum();
            let fm: f64 = forward_one(&l, &xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad_x[i]).abs() < 1e-6, "input {i}");
        }
        // Check one weight gradient: dL/dw[0][1] = x[1].
        assert!((l.gw[1] - x[1]).abs() < 1e-12);
        // Bias gradient is 1 for each output.
        assert!((l.gb[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adam_step_reduces_simple_loss() {
        let mut l = Linear::with_seed(1, 1, 3);
        let adam = Adam::new(0.05);
        // Minimize (y - 2)^2 for input 1: w + b -> 2.
        for _ in 0..300 {
            let y = forward_one(&l, &[1.0])[0];
            let g = 2.0 * (y - 2.0);
            l.zero_grad();
            backward_one(&mut l, &[1.0], &[g]);
            l.adam_step(&adam, 1);
        }
        let y = forward_one(&l, &[1.0])[0];
        assert!((y - 2.0).abs() < 0.05, "{y}");
    }

    #[test]
    fn soft_update_interpolates() {
        let mut a = Linear::with_seed(2, 2, 1);
        let b = Linear::with_seed(2, 2, 2);
        let before = a.w.clone();
        a.soft_update_from(&b, 0.5);
        for (i, &prev) in before.iter().enumerate() {
            let want = 0.5 * b.w[i] + 0.5 * prev;
            assert!((a.w[i] - want).abs() < 1e-12);
        }
        // tau = 1 copies the source exactly.
        a.soft_update_from(&b, 1.0);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = Linear::with_seed(1, 1, 5);
        backward_one(&mut l, &[1.0], &[1.0]);
        backward_one(&mut l, &[1.0], &[1.0]);
        assert!((l.gb[0] - 2.0).abs() < 1e-12);
        // A batch of two accumulates on top, in sample order.
        l.backward_params_batch(&[1.0, 1.0], &[1.0, 1.0], 2, &mut Vec::new());
        assert!((l.gb[0] - 4.0).abs() < 1e-12);
        l.zero_grad();
        assert_eq!(l.gb[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dim_panics() {
        let _ = Linear::with_seed(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_wrong_dim_panics() {
        let l = Linear::with_seed(2, 1, 0);
        let _ = forward_one(&l, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let l = Linear::with_seed(2, 1, 0);
        l.forward_batch(&[], 0, &mut []);
    }

    /// A layer built or restored on a CPU that reports AVX-512F, DQ and
    /// VL runs the wide-tile kernel, and on any other the scalar one, so
    /// a broken dispatch cannot fall back to the scalar loops unseen.
    #[test]
    fn layers_pick_the_avx512_kernel_on_avx512() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        let want = if avx512 {
            Kernel::Avx512
        } else {
            Kernel::Scalar
        };
        let l = Linear::with_seed(3, 2, 0);
        assert_eq!(l.kernel(), want);
        let mut w = mtat_snapshot::SnapWriter::new();
        mtat_snapshot::Snap::snap(&l, &mut w);
        let bytes = w.into_bytes();
        let restored =
            <Linear as mtat_snapshot::Snap>::unsnap(&mut mtat_snapshot::SnapReader::new(&bytes));
        assert_eq!(restored.expect("valid layer").kernel(), want);
        assert_eq!(want.name(), if avx512 { "avx512" } else { "scalar" });
        println!("SAC layers' kernel: {}", want.name());
    }

    #[test]
    fn restore_buffers_resizes_transients() {
        let l = Linear::with_seed(4, 3, 9);
        let mut copy = l.clone();
        copy.gw.clear();
        copy.mb.clear();
        copy.restore_buffers();
        assert_eq!(copy.gw.len(), 12);
        assert_eq!(copy.mb.len(), 3);
    }
}
