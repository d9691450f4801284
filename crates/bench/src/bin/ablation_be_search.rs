//! Ablation: simulated annealing (Algorithm 2) vs alternatives for the
//! BE fairness allocation.
//!
//! DESIGN.md §5.2 asks what the SA search buys over (a) the naive even
//! split and (b) a greedy hill-climb. Each strategy splits 16 GiB of
//! residual FMem among the paper's four BE workloads (profiled at
//! 32 GiB FMem, 2 MiB pages) to maximise the min-NP objective; the
//! `evaluations` column counts objective calls, the search's cost.
//!
//! Output: TSV rows `strategy  min_np  evaluations  allocation_gib`.

use std::cell::Cell;

use mtat_bench::header;
use mtat_core::ppm::annealing::{anneal, even_split, AnnealingConfig};
use mtat_core::ppm::be::min_np;
use mtat_core::ppm::profiler::{profile_all, BeProfile};
use mtat_tiermem::{GIB, MIB};
use mtat_workloads::be::BeSpec;

const UNITS: u64 = 16; // 16 GiB residual FMem

/// Greedy hill-climb: repeatedly apply the single ±1 GB move that most
/// improves the objective, until no move improves it.
fn greedy(objective: impl Fn(&[u64]) -> f64, initial: &[u64]) -> (Vec<u64>, f64) {
    let mut alloc = initial.to_vec();
    let mut best = objective(&alloc);
    loop {
        let mut improved = false;
        for i in 0..alloc.len() {
            for j in 0..alloc.len() {
                if i == j || alloc[j] == 0 {
                    continue;
                }
                alloc[i] += 1;
                alloc[j] -= 1;
                let score = objective(&alloc);
                if score > best {
                    best = score;
                    improved = true;
                } else {
                    alloc[i] -= 1;
                    alloc[j] += 1;
                }
            }
        }
        if !improved {
            return (alloc, best);
        }
    }
}

fn row(strategy: &str, score: f64, evaluations: u64, alloc: &[u64]) {
    let alloc: Vec<String> = alloc.iter().map(u64::to_string).collect();
    println!("{strategy}\t{score:.3}\t{evaluations}\t{}", alloc.join(","));
}

fn main() {
    let profiles: Vec<BeProfile> = profile_all(&BeSpec::all_paper_workloads(), 32 * GIB, 2 * MIB);
    let initial = even_split(UNITS, profiles.len());
    let calls = Cell::new(0u64);
    let objective = |a: &[u64]| {
        calls.set(calls.get() + 1);
        min_np(&profiles, a)
    };

    header(&["strategy", "min_np", "evaluations", "allocation_gib"]);
    row(
        "even_split",
        objective(&initial),
        calls.replace(0),
        &initial,
    );
    let (alloc, score) = greedy(objective, &initial);
    row("greedy", score, calls.replace(0), &alloc);
    let sa = anneal(&initial, objective, &AnnealingConfig::default(), 7);
    row("annealing", sa.best_score, calls.replace(0), &sa.best);
}
