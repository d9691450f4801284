//! Property-based gradient checks: for random network shapes, inputs,
//! and output gradients, analytic backprop must match central finite
//! differences — on parameters reachable through the input gradient and
//! on the input itself.

use proptest::prelude::*;

use mtat_nn::activation::Activation;
use mtat_nn::loss;
use mtat_nn::mlp::{BatchCache, Mlp};
use mtat_nn::optim::Adam;

fn scalar_net(hidden: usize, act: Activation, seed: u64) -> Mlp {
    Mlp::new(&[3, hidden, 1], act, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Input gradients match finite differences for random nets/points.
    #[test]
    fn input_gradient_matches_finite_difference(
        hidden in 1usize..12,
        seed in 0u64..1000,
        x0 in -1.0f64..1.0,
        x1 in -1.0f64..1.0,
        x2 in -1.0f64..1.0,
        use_tanh in prop::bool::ANY,
    ) {
        let act = if use_tanh { Activation::Tanh } else { Activation::Relu };
        let net = scalar_net(hidden, act, seed);
        let x = [x0, x1, x2];
        let mut cache = BatchCache::default();
        net.forward_batch(&x, 1, &mut cache);
        let grad = net.input_grad_batch(&mut cache, &[1.0]).to_vec();

        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            // ReLU kinks can make the FD estimate locally wrong; allow a
            // loose bound for ReLU, tight for tanh.
            let tol: f64 = if use_tanh { 1e-5 } else { 1e-3 };
            prop_assert!(
                (numeric - grad[i]).abs() < tol.max(numeric.abs() * tol),
                "dim {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    /// MSE loss + gradient are consistent: a small step against the
    /// gradient reduces the loss.
    #[test]
    fn gradient_step_reduces_loss(
        seed in 0u64..1000,
        target in -2.0f64..2.0,
    ) {
        let mut net = scalar_net(8, Activation::Tanh, seed);
        let x = [0.3, -0.5, 0.9];
        let mut cache = BatchCache::default();
        let y0 = net.forward_batch(&x, 1, &mut cache).to_vec();
        let loss0 = loss::mse(&y0, &[target]);
        if loss0 < 1e-9 {
            return Ok(()); // already at the optimum
        }
        let grad = loss::mse_grad(&y0, &[target]);
        net.zero_grad();
        net.backward_batch(&mut cache, &grad);
        let mut adam = Adam::new(1e-3);
        net.adam_step(&mut adam);
        let y1 = net.forward(&x);
        let loss1 = loss::mse(&y1, &[target]);
        prop_assert!(loss1 < loss0 + 1e-12, "{loss0} -> {loss1}");
    }

    /// Soft target updates converge to the source network: parameters
    /// contract geometrically, so after enough updates the outputs agree.
    /// (Mid-way the *output* gap of a nonlinear net may transiently grow,
    /// so the property is formulated in the limit.)
    #[test]
    fn soft_update_converges(seed_a in 0u64..500, seed_b in 500u64..1000, tau in 0.05f64..0.95) {
        let mut target = scalar_net(6, Activation::Relu, seed_a);
        let source = scalar_net(6, Activation::Relu, seed_b);
        let x = [0.2, 0.4, -0.3];
        for _ in 0..400 {
            target.soft_update_from(&source, tau);
        }
        let after = (target.forward(&x)[0] - source.forward(&x)[0]).abs();
        prop_assert!(after < 1e-6, "residual gap {after}");
    }

    /// Determinism: same seed, same outputs; forward has no hidden state.
    #[test]
    fn forward_is_pure(seed in 0u64..1000, x0 in -1.0f64..1.0) {
        let net = scalar_net(5, Activation::Tanh, seed);
        let a = net.forward(&[x0, 0.0, 0.0]);
        let b = net.forward(&[x0, 0.0, 0.0]);
        prop_assert_eq!(a, b);
    }
}
