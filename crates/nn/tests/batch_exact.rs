//! Bit-exactness of the batched kernels.
//!
//! Each batched kernel must produce, for every sample, the very bits the
//! per-sample arithmetic produces: a forward output is the bias plus a
//! per-row `Iterator::sum` of products, and the gradients follow the
//! per-sample backward loop below, sample after sample. The references
//! here are written that way, one sample at a time, and the kernels are
//! compared against them bit for bit on shapes that exercise full
//! register tiles, partial tails and the batch of one, with inputs that
//! include `±0.0` and magnitudes spread over forty binades (where any
//! reassociation changes the rounding). The shapes lie on both sides of
//! the AVX-512 tile of 32: on a CPU with AVX-512F, DQ and VL the passes
//! below it run the tiles of eight and those at or past it the wide
//! tiles, and on any other CPU every pass runs the tiles of eight.

use mtat_nn::activation::Activation;
use mtat_nn::linear::Linear;
use mtat_nn::mlp::{BatchCache, Mlp};
use mtat_snapshot::{Snap, SnapReader, SnapWriter};
use proptest::prelude::*;

const IN_DIMS: [usize; 5] = [1, 3, 4, 5, 64];
/// Output widths: below, at and past the scalar tile of 8 and the
/// AVX-512 tile of 32, and 40 and 97, which end a run of wide tiles
/// with a scalar tile or a single output.
const OUT_DIMS: [usize; 9] = [1, 2, 3, 4, 5, 40, 64, 65, 97];
/// Batch sizes, tiled the same way over the samples.
const BATCHES: [usize; 12] = [1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 97];

/// A SplitMix64 stream of test values: a quarter are `+0.0` or `−0.0`,
/// the rest have a random sign and a magnitude in `[2⁻²⁰, 2²¹)`.
struct Values(u64);

impl Values {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn value(&mut self) -> f64 {
        match self.next_u64() % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let mantissa = 1.0 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let exp = (self.next_u64() % 41) as i32 - 20;
                let sign = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                sign * mantissa * 2f64.powi(exp)
            }
        }
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }
}

/// A layer with arbitrary weights and biases (built through its
/// snapshot encoding) and zero gradients and moments.
fn layer(in_dim: usize, out_dim: usize, v: &mut Values) -> Linear {
    let mut w = SnapWriter::new();
    in_dim.snap(&mut w);
    out_dim.snap(&mut w);
    v.vec(in_dim * out_dim).snap(&mut w);
    v.vec(out_dim).snap(&mut w);
    for len in [in_dim * out_dim, in_dim * out_dim, out_dim, out_dim] {
        vec![0.0; len].snap(&mut w);
    }
    Linear::unsnap(&mut SnapReader::new(&w.into_bytes())).expect("valid layer")
}

/// Column `s` of a feature-major matrix with `n` samples per row.
fn column(m: &[f64], n: usize, s: usize) -> Vec<f64> {
    m.chunks_exact(n).map(|row| row[s]).collect()
}

/// Reference forward pass of one sample: the bias plus a per-row
/// `Iterator::sum` of the products.
fn ref_forward(l: &Linear, x: &[f64]) -> Vec<f64> {
    let rows = l.weights().chunks_exact(l.in_dim()).zip(l.biases());
    rows.map(|(row, &b)| {
        let mut y = b;
        y += row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f64>();
        y
    })
    .collect()
}

/// Reference backward pass of one sample: accumulates into `gw`/`gb`
/// and returns the input gradient, in the per-sample loop order.
fn ref_backward(l: &Linear, gw: &mut [f64], gb: &mut [f64], x: &[f64], gy: &[f64]) -> Vec<f64> {
    let (in_dim, w) = (l.in_dim(), l.weights());
    let mut grad_x = vec![0.0; in_dim];
    for (o, &g) in gy.iter().enumerate() {
        gb[o] += g;
        let row_start = o * in_dim;
        for i in 0..in_dim {
            gw[row_start + i] += g * x[i];
            grad_x[i] += g * w[row_start + i];
        }
    }
    grad_x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs every kernel of one layer shape against the references. The
/// parameter gradients are accumulated over two batches, so the second
/// starts from nonzero sums.
fn check_layer(in_dim: usize, out_dim: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut v = Values(seed);
    let mut l = layer(in_dim, out_dim, &mut v);
    let (mut gw, mut gb) = (vec![0.0; in_dim * out_dim], vec![0.0; out_dim]);
    let mut scratch = Vec::new();
    for round in 0..2 {
        let x = v.vec(in_dim * n);
        let gy = v.vec(out_dim * n);
        let mut y = vec![f64::NAN; out_dim * n];
        l.forward_batch(&x, n, &mut y);
        let mut gx = vec![f64::NAN; in_dim * n];
        l.backward_input_batch(&gy, n, &mut gx);
        l.backward_params_batch(&x, &gy, n, &mut scratch);
        for s in 0..n {
            let (xs, gys) = (column(&x, n, s), column(&gy, n, s));
            let want_y = ref_forward(&l, &xs);
            let want_gx = ref_backward(&l, &mut gw, &mut gb, &xs, &gys);
            if bits(&column(&y, n, s)) != bits(&want_y) {
                return Err(format!("forward, round {round}, sample {s}"));
            }
            if bits(&column(&gx, n, s)) != bits(&want_gx) {
                return Err(format!("input gradient, round {round}, sample {s}"));
            }
        }
        if bits(l.weight_grads()) != bits(&gw) || bits(l.bias_grads()) != bits(&gb) {
            return Err(format!("parameter gradients, round {round}"));
        }
    }
    Ok(())
}

#[test]
fn linear_kernels_match_reference_on_every_shape() {
    for (k, &in_dim) in IN_DIMS.iter().enumerate() {
        for (j, &out_dim) in OUT_DIMS.iter().enumerate() {
            for (i, &n) in BATCHES.iter().enumerate() {
                let seed = (k * 10_000 + j * 100 + i) as u64;
                if let Err(what) = check_layer(in_dim, out_dim, n, seed) {
                    panic!("{in_dim}→{out_dim}, batch {n}: {what} differs");
                }
            }
        }
    }
}

/// Reference MLP pass of one sample, written the per-sample way:
/// activations from the pre-activation values, derivatives too.
/// Accumulates parameter gradients into `grads` and returns the output
/// and the input gradient for the output gradient `gy`.
fn ref_mlp(
    layers: &[Linear],
    act: Activation,
    grads: &mut [(Vec<f64>, Vec<f64>)],
    x: &[f64],
    gy: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let last = layers.len() - 1;
    let (mut inputs, mut pres) = (Vec::new(), Vec::new());
    let mut cur = x.to_vec();
    for (l, layer) in layers.iter().enumerate() {
        inputs.push(cur.clone());
        let pre = ref_forward(layer, &cur);
        cur = match act {
            _ if l == last => pre.clone(),
            Activation::Relu => pre.iter().map(|&p| p.max(0.0)).collect(),
            Activation::Tanh => pre.iter().map(|&p| p.tanh()).collect(),
            Activation::Identity => pre.clone(),
        };
        pres.push(pre);
    }
    let mut grad = gy.to_vec();
    for l in (0..layers.len()).rev() {
        if l < last {
            grad = match act {
                Activation::Relu => pres[l]
                    .iter()
                    .zip(&grad)
                    .map(|(&p, &g)| if p > 0.0 { g } else { 0.0 })
                    .collect(),
                Activation::Tanh => pres[l]
                    .iter()
                    .zip(&grad)
                    .map(|(&p, &g)| {
                        let t = p.tanh();
                        g * (1.0 - t * t)
                    })
                    .collect(),
                Activation::Identity => grad,
            };
        }
        let (gw, gb) = &mut grads[l];
        grad = ref_backward(&layers[l], gw, gb, &inputs[l], &grad);
    }
    (cur, grad)
}

/// An MLP over `dims` with arbitrary parameters.
fn mlp(dims: &[usize], act: Activation, v: &mut Values) -> Mlp {
    let layers: Vec<Linear> = dims.windows(2).map(|d| layer(d[0], d[1], v)).collect();
    let mut w = SnapWriter::new();
    layers.snap(&mut w);
    act.snap(&mut w);
    Mlp::unsnap(&mut SnapReader::new(&w.into_bytes())).expect("valid MLP")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random layer shapes and values, beyond the fixed grid above.
    #[test]
    fn linear_kernels_match_reference(
        k in 0..IN_DIMS.len(),
        j in 0..OUT_DIMS.len(),
        i in 0..BATCHES.len(),
        seed in 0u64..u64::MAX,
    ) {
        let (in_dim, out_dim, n) = (IN_DIMS[k], OUT_DIMS[j], BATCHES[i]);
        let checked = check_layer(in_dim, out_dim, n, seed);
        prop_assert!(checked.is_ok(), "{in_dim}→{out_dim}, batch {n}: {:?}", checked);
    }

    /// One batched forward, backward and input-gradient pass of a ReLU
    /// or tanh MLP equals `n` single-sample reference passes.
    #[test]
    fn mlp_batch_matches_single_sample_passes(
        tanh in prop::bool::ANY,
        k in 0..IN_DIMS.len(),
        j in 0..OUT_DIMS.len(),
        i in 0..BATCHES.len(),
        seed in 0u64..u64::MAX,
    ) {
        let act = if tanh { Activation::Tanh } else { Activation::Relu };
        let (in_dim, out_dim, n) = (IN_DIMS[k], OUT_DIMS[j], BATCHES[i]);
        let mut v = Values(seed);
        let dims = [in_dim, 64, 5, out_dim];
        let mut net = mlp(&dims, act, &mut v);
        let x = v.vec(in_dim * n);
        let gy = v.vec(out_dim * n);

        let mut cache = BatchCache::default();
        let y = net.forward_batch(&x, n, &mut cache).to_vec();
        let gx = net.input_grad_batch(&mut cache, &gy).to_vec();
        net.backward_batch(&mut cache, &gy);

        let mut grads: Vec<(Vec<f64>, Vec<f64>)> = dims
            .windows(2)
            .map(|d| (vec![0.0; d[0] * d[1]], vec![0.0; d[1]]))
            .collect();
        for s in 0..n {
            let (want_y, want_gx) =
                ref_mlp(net.layers(), act, &mut grads, &column(&x, n, s), &column(&gy, n, s));
            prop_assert_eq!(bits(&column(&y, n, s)), bits(&want_y));
            prop_assert_eq!(bits(&column(&gx, n, s)), bits(&want_gx));
        }
        for (layer, (gw, gb)) in net.layers().iter().zip(&grads) {
            prop_assert_eq!(bits(layer.weight_grads()), bits(gw));
            prop_assert_eq!(bits(layer.bias_grads()), bits(gb));
        }
    }
}
