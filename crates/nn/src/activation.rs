//! Element-wise activation functions.

use serde::{Deserialize, Serialize};

/// An element-wise activation applied between [`crate::linear::Linear`]
/// layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op (used for output layers).
    Identity,
}

impl Activation {
    /// Applies the activation in place, turning pre-activation values
    /// into the activated output.
    pub fn forward_in_place(&self, x: &mut [f64]) {
        match self {
            Activation::Relu => x.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => x.iter_mut().for_each(|v| *v = v.tanh()),
            Activation::Identity => {}
        }
    }

    /// Multiplies `grad` in place by the activation's derivative,
    /// turning the gradient with respect to the output into the gradient
    /// with respect to the pre-activation values.
    ///
    /// The derivative is read off the activated output `out`, so the
    /// pre-activation values need not be kept: `max(0, x) > 0` exactly
    /// when `x > 0` (NaN included), and `out` is the very `tanh(x)` the
    /// tanh derivative `1 − tanh²(x)` needs.
    pub fn backward_in_place(&self, out: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(out.len(), grad.len());
        match self {
            Activation::Relu => {
                for (g, &y) in grad.iter_mut().zip(out) {
                    *g = if y > 0.0 { *g } else { 0.0 };
                }
            }
            Activation::Tanh => {
                for (g, &t) in grad.iter_mut().zip(out) {
                    *g *= 1.0 - t * t;
                }
            }
            Activation::Identity => {}
        }
    }
}

impl mtat_snapshot::Snap for Activation {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u8(match self {
            Activation::Relu => 0,
            Activation::Tanh => 1,
            Activation::Identity => 2,
        });
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(Activation::Relu),
            1 => Ok(Activation::Tanh),
            2 => Ok(Activation::Identity),
            _ => Err(mtat_snapshot::SnapError::Malformed("activation tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `pre` through the activation and its derivative, returning
    /// `(output, gradient)` for an upstream gradient `grad_out`.
    fn run(act: Activation, pre: &[f64], grad_out: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut out = pre.to_vec();
        act.forward_in_place(&mut out);
        let mut grad = grad_out.to_vec();
        act.backward_in_place(&out, &mut grad);
        (out, grad)
    }

    #[test]
    fn relu_forward_backward() {
        let (out, grad) = run(Activation::Relu, &[-1.0, 0.0, 2.0], &[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![0.0, 0.0, 2.0]);
        assert_eq!(grad, vec![0.0, 0.0, 1.0]);
        // NaN pre-activations pass no gradient, as `x > 0` would decide.
        let (_, grad) = run(Activation::Relu, &[f64::NAN, -0.0], &[1.0, 1.0]);
        assert_eq!(grad, vec![0.0, 0.0]);
    }

    #[test]
    fn tanh_forward_backward() {
        let (out, grad) = run(Activation::Tanh, &[0.0, 1.0], &[1.0, 1.0]);
        assert!((out[0] - 0.0).abs() < 1e-12);
        assert!((out[1] - 1.0_f64.tanh()).abs() < 1e-12);
        assert!((grad[0] - 1.0).abs() < 1e-12);
        let t = 1.0_f64.tanh();
        assert_eq!(grad[1], 1.0 * (1.0 - t * t));
    }

    #[test]
    fn identity_passthrough() {
        let (out, grad) = run(Activation::Identity, &[3.0, -4.0], &[0.5, 0.25]);
        assert_eq!(out, vec![3.0, -4.0]);
        assert_eq!(grad, vec![0.5, 0.25]);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for &x in &[-0.7, 0.3, 1.5] {
                let f = |v: f64| run(act, &[v], &[1.0]).0[0];
                let numeric = (f(x + eps) - f(x - eps)) / (2.0 * eps);
                let analytic = run(act, &[x], &[1.0]).1[0];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }
}
