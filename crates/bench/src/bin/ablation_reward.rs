//! Ablation: the Eq.-(2) reward's hard −1 violation penalty vs a softer
//! penalty.
//!
//! The paper argues the binary penalty "enforces strict compliance".
//! This ablation trains two agents on the same analytic environment —
//! one with the paper's −1, one with a mild −0.2 — for 6000 steps each
//! and evaluates the violation frequency and mean FMem usage of the
//! learned policies over 800 greedy intervals.
//!
//! Output: TSV rows `penalty  violation_freq  mean_usage`.

use mtat_bench::header;
use mtat_core::ppm::env::{LcEnvConfig, LcPartitionEnv};
use mtat_rl::env::Environment;
use mtat_rl::sac::{Sac, SacConfig};
use mtat_workloads::lc::LcSpec;

/// Wraps the partitioning environment, rescaling the violation penalty.
struct PenaltyScaled {
    inner: LcPartitionEnv,
    penalty: f64,
}

impl Environment for PenaltyScaled {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }
    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }
    fn state(&self) -> Vec<f64> {
        self.inner.state()
    }
    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        let (s, r, d) = self.inner.step(action);
        let r = if r < 0.0 { self.penalty } else { r };
        (s, r, d)
    }
    fn reset(&mut self) -> Vec<f64> {
        self.inner.reset()
    }
}

fn train_and_eval(penalty: f64, steps: usize) -> (f64, f64) {
    let spec = LcSpec::redis();
    let mut env = PenaltyScaled {
        inner: LcPartitionEnv::new(spec.clone(), LcEnvConfig::paper_scale(&spec), 3),
        penalty,
    };
    let mut cfg = SacConfig::paper(3, 1);
    cfg.update_every = 4;
    let mut agent = Sac::new(cfg, 11);
    agent.train(&mut env, steps);

    let mut state = env.reset();
    let mut violations = 0u32;
    let mut usage = 0.0;
    let n = 800;
    for _ in 0..n {
        let action = agent.act_deterministic(&state);
        let (next, reward, done) = env.step(&action);
        if reward < 0.0 {
            violations += 1;
        }
        usage += state[0];
        state = if done { env.reset() } else { next };
    }
    (violations as f64 / n as f64, usage / n as f64)
}

fn main() {
    header(&["penalty", "violation_freq", "mean_usage"]);
    for penalty in [-1.0, -0.2] {
        let (viol, usage) = train_and_eval(penalty, 6000);
        println!("{penalty:.1}\t{viol:.3}\t{usage:.3}");
    }
}
