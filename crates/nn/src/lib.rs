//! # mtat-nn — a minimal dense neural-network library
//!
//! MTAT's Partition Policy Maker trains a Soft Actor-Critic agent whose
//! actor and critics are small multi-layer perceptrons (3-dimensional
//! state, 1-dimensional action). Rather than pulling in an ML framework,
//! this crate implements the required pieces from scratch:
//!
//! * [`linear::Linear`] — a fully-connected layer with gradient
//!   accumulation and per-parameter Adam moments.
//! * [`activation::Activation`] — ReLU / tanh / identity.
//! * [`mlp::Mlp`] — a feed-forward stack run a mini-batch at a time,
//!   with a reusable [`mlp::BatchCache`] so gradients can flow back to
//!   the parameters and to the *inputs* (SAC's actor update needs
//!   ∂Q/∂action).
//! * [`optim::Adam`] — the Adam optimizer.
//! * [`loss`] — mean-squared error.
//!
//! Everything is `f64`, deterministic under a seeded RNG, and unit-tested
//! against finite-difference gradients. The batched kernels produce the
//! same bits as one sample at a time would (DESIGN.md §4l).
//!
//! ## Example
//!
//! ```
//! use mtat_nn::mlp::{BatchCache, Mlp};
//! use mtat_nn::activation::Activation;
//! use mtat_nn::optim::Adam;
//! use mtat_nn::loss;
//!
//! // Learn y = 2x on a tiny net.
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, 42);
//! let mut adam = Adam::new(1e-2);
//! let mut cache = BatchCache::default();
//! for step in 0..400 {
//!     let x = [((step % 10) as f64) / 10.0];
//!     let target = [2.0 * x[0]];
//!     let y = net.forward_batch(&x, 1, &mut cache);
//!     let grad = loss::mse_grad(y, &target);
//!     net.zero_grad();
//!     net.backward_batch(&mut cache, &grad);
//!     net.adam_step(&mut adam);
//! }
//! let y = net.forward(&[0.35]);
//! assert!((y[0] - 0.7).abs() < 0.1, "got {}", y[0]);
//! ```

pub mod activation;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use activation::Activation;
pub use linear::Linear;
pub use mlp::{BatchCache, Mlp};
pub use optim::Adam;
