//! Bit-level golden for SAC arithmetic.
//!
//! The decision goldens in `mtat-core` see only which partitioning
//! decisions came out of a run; they cannot tell whether a gradient
//! round still computes every sum in the same order. This test pins the
//! agent itself: a paper-config agent at MTAT's cadence
//! (`update_every = 2`) trained for 600 steps on a fixed deterministic
//! environment — 201 gradient rounds with automatic temperature tuning —
//! must reproduce the exact snapshot bytes, diagnostics and greedy
//! actions recorded below. Any change to summation order, fused
//! multiply-adds, or RNG draw order shows up here as a different hash.

use mtat_rl::env::Environment;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_snapshot::{fnv1a64, Snap, SnapWriter};

/// A deterministic three-dimensional control problem shaped like the
/// partitioning environment: the action moves an allocation, the state
/// reports the allocation, a hit ratio derived from it, and a demand
/// level that cycles with period 37. Reward favours a small allocation
/// that still covers the demand.
struct Drift {
    alloc: f64,
    t: u64,
}

impl Drift {
    fn demand(&self) -> f64 {
        0.3 + 0.6 * ((self.t % 37) as f64 / 36.0)
    }
}

impl Environment for Drift {
    fn state_dim(&self) -> usize {
        3
    }
    fn action_dim(&self) -> usize {
        1
    }
    fn state(&self) -> Vec<f64> {
        let d = self.demand();
        vec![self.alloc, (self.alloc / d).min(1.0), d]
    }
    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        self.alloc = (self.alloc + 0.1 * action[0]).clamp(0.0, 1.0);
        self.t += 1;
        let d = self.demand();
        let reward = if self.alloc < d {
            -1.0
        } else {
            1.0 - self.alloc
        };
        (self.state(), reward, self.t.is_multiple_of(50))
    }
    fn reset(&mut self) -> Vec<f64> {
        self.alloc = 0.5;
        self.state()
    }
}

fn trained_agent() -> Sac {
    let mut cfg = SacConfig::paper(3, 1);
    cfg.update_every = 2;
    let mut agent = Sac::new(cfg, 20_251_017);
    let mut env = Drift { alloc: 0.5, t: 0 };
    agent.train(&mut env, 600);
    agent
}

#[test]
fn sac_training_is_bit_identical_to_golden() {
    let agent = trained_agent();
    assert_eq!(agent.updates_done(), 201);

    let mut w = SnapWriter::new();
    agent.snap(&mut w);
    let digest = fnv1a64(&w.into_bytes());

    let states = [[0.1, 0.2, 0.3], [0.5, 0.9, 0.6], [1.0, 0.0, 1.5]];
    let actions: Vec<u64> = states
        .iter()
        .map(|s| agent.act_deterministic(s)[0].to_bits())
        .collect();

    let got = (
        digest,
        agent.last_critic_loss().to_bits(),
        agent.last_entropy().to_bits(),
        agent.alpha().to_bits(),
        actions,
    );
    // Recorded from the per-sample implementation that preceded the
    // batched kernels; the batched round must reproduce it bit for bit.
    let want = (
        0xe397_a38e_d198_4f5f,
        0x3fb9_6a0c_c93b_7d94,
        0x3fe0_bf55_46db_c7c1,
        0x3fc7_72c3_d11e_d5b7,
        vec![
            0x3fb4_57e1_56f5_a478,
            0x3fdd_6348_cfcf_44a0,
            0xbfe2_b693_1237_74ca,
        ],
    );
    assert_eq!(got, want);
}
