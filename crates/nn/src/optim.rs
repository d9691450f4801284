//! The Adam optimizer.

use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Adam optimizer state shared across a network's layers.
///
/// The time step `t` advances once per [`Adam::tick`] (one optimizer step
/// over the whole network), not per parameter tensor, so bias correction
/// is consistent across layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: Cell<u64>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: Cell::new(1),
        }
    }

    /// Advances the shared time step; call once after all layers of a
    /// network have been updated for the current optimizer step.
    pub fn tick(&self) {
        self.t.set(self.t.get() + 1);
    }

    /// Current time step (starts at 1).
    pub fn step_count(&self) -> u64 {
        self.t.get()
    }

    /// Applies one Adam update to `params` given accumulated `grads`
    /// (scaled by `grad_scale`, e.g. `1/batch`), maintaining first and
    /// second moments `m` and `v` in place.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if slice lengths differ.
    pub fn update(
        &self,
        params: &mut [f64],
        grads: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        grad_scale: f64,
    ) {
        debug_assert_eq!(params.len(), grads.len());
        debug_assert_eq!(params.len(), m.len());
        debug_assert_eq!(params.len(), v.len());
        let t = self.t.get() as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for i in 0..params.len() {
            let g = grads[i] * grad_scale;
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

impl mtat_snapshot::Snap for Adam {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_f64(self.lr);
        w.put_f64(self.beta1);
        w.put_f64(self.beta2);
        w.put_f64(self.eps);
        w.put_u64(self.t.get());
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        Ok(Self {
            lr: r.get_f64()?,
            beta1: r.get_f64()?,
            beta2: r.get_f64()?,
            eps: r.get_f64()?,
            t: Cell::new(r.get_u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2.
        let adam = Adam::new(0.1);
        let mut x = vec![0.0];
        let mut m = vec![0.0];
        let mut v = vec![0.0];
        for _ in 0..500 {
            let mut g = vec![2.0 * (x[0] - 3.0)];
            adam.update(&mut x, &mut g, &mut m, &mut v, 1.0);
            adam.tick();
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "{}", x[0]);
    }

    #[test]
    fn grad_scale_divides() {
        let adam = Adam::new(0.1);
        let mut x1 = vec![0.0];
        let mut x2 = vec![0.0];
        let (mut m1, mut v1) = (vec![0.0], vec![0.0]);
        let (mut m2, mut v2) = (vec![0.0], vec![0.0]);
        // A gradient of 4 at scale 0.25 equals a gradient of 1 at scale 1.
        adam.update(&mut x1, &mut [4.0], &mut m1, &mut v1, 0.25);
        adam.update(&mut x2, &mut [1.0], &mut m2, &mut v2, 1.0);
        assert!((x1[0] - x2[0]).abs() < 1e-15);
    }

    #[test]
    fn tick_advances_step() {
        let adam = Adam::new(0.01);
        assert_eq!(adam.step_count(), 1);
        adam.tick();
        adam.tick();
        assert_eq!(adam.step_count(), 3);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_lr_panics() {
        let _ = Adam::new(0.0);
    }
}
