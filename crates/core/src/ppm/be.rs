//! Fairness-driven BE FMem partitioning (§3.2.2, Algorithm 2).
//!
//! After PP-M reserves `M_LC` for the LC workload, the remaining FMem is
//! divided among BE workloads to maximize the *minimum* normalized
//! performance `NP_i = Perf_alloc / Perf_full` (Eq. 3) — lifting the
//! worst-off workload as close as possible to the best-off one. The
//! search is the simulated annealing of [`crate::ppm::annealing`] over
//! whole-GiB units, seeded from the even split.

use mtat_tiermem::GIB;
use serde::{Deserialize, Serialize};

use crate::ppm::annealing::{anneal, even_split, AnnealingConfig};
use crate::ppm::profiler::BeProfile;

/// The fairness objective `P(M) = min_i NP_i` evaluated on a candidate
/// allocation in GiB units.
pub fn min_np(profiles: &[BeProfile], alloc_gb: &[u64]) -> f64 {
    profiles
        .iter()
        .zip(alloc_gb)
        .map(|(p, &g)| p.np_at_gb(g))
        .fold(f64::INFINITY, f64::min)
}

/// Diagnostics from the most recent annealing search. Telemetry only:
/// deliberately excluded from [`BePartitioner::save_state`], so the
/// checkpoint payload is unchanged by its existence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// Iterations the search actually executed.
    pub iterations: usize,
    /// Objective value (`min NP`) of the accepted allocation.
    pub best_score: f64,
    /// Temperature when the search stopped: `T₀ · γ^iterations`.
    pub final_temp: f64,
}

/// BE partitioner: owns the offline profiles and the SA configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BePartitioner {
    profiles: Vec<BeProfile>,
    cfg: AnnealingConfig,
    seed: u64,
    last_anneal: Option<AnnealStats>,
}

impl BePartitioner {
    /// Creates a partitioner from offline profiles.
    pub fn new(profiles: Vec<BeProfile>, cfg: AnnealingConfig, seed: u64) -> Self {
        Self {
            profiles,
            cfg,
            seed,
            last_anneal: None,
        }
    }

    /// Diagnostics from the most recent [`Self::partition`] call
    /// (`None` before the first search, or when there are no BE
    /// workloads to partition).
    pub fn last_anneal(&self) -> Option<AnnealStats> {
        self.last_anneal
    }

    /// The profiles this partitioner allocates against.
    pub fn profiles(&self) -> &[BeProfile] {
        &self.profiles
    }

    /// Replaces the profiles, keeping the annealing state.
    pub fn set_profiles(&mut self, profiles: Vec<BeProfile>) {
        self.profiles = profiles;
    }

    /// Serializes the mutable partitioner state. Only the annealing
    /// seed mutates at runtime (it advances per [`Self::partition`]
    /// call); the profiles and SA configuration are offline artifacts
    /// rebuilt deterministically on restart.
    pub fn save_state(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u64(self.seed);
    }

    /// Restores state captured by [`Self::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mtat_snapshot::SnapReader<'_>,
    ) -> Result<(), mtat_snapshot::SnapError> {
        self.seed = r.get_u64()?;
        Ok(())
    }

    /// Rewinds the annealing seed (a cold daemon restart begins its
    /// random walk from the configured seed again).
    pub fn reset_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Splits `remaining_bytes` of FMem among the BE workloads,
    /// returning per-workload byte allocations (whole GiB granularity,
    /// as in the paper's ±1 GB moves). The sub-GiB remainder of
    /// `remaining_bytes` is handed to the workload with the lowest NP.
    pub fn partition(&mut self, remaining_bytes: u64) -> Vec<u64> {
        let n = self.profiles.len();
        if n == 0 {
            return Vec::new();
        }
        let units = remaining_bytes / GIB;
        let initial = even_split(units, n);
        let profiles = &self.profiles;
        let result = anneal(
            &initial,
            |alloc| min_np(profiles, alloc),
            &self.cfg,
            self.seed,
        );
        self.last_anneal = Some(AnnealStats {
            iterations: result.iterations,
            best_score: result.best_score,
            final_temp: self.cfg.t0 * self.cfg.gamma.powi(result.iterations as i32),
        });
        // Vary the seed between invocations so repeated partitioning
        // calls explore different random walks, as a daemon would.
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);

        let mut bytes: Vec<u64> = result.best.iter().map(|&g| g * GIB).collect();
        let leftover = remaining_bytes - units * GIB;
        if leftover > 0 {
            // Give the sub-GiB tail to the worst-off workload.
            let worst = self
                .profiles
                .iter()
                .zip(&result.best)
                .enumerate()
                .min_by(|(_, (pa, &ga)), (_, (pb, &gb))| {
                    pa.np_at_gb(ga)
                        .partial_cmp(&pb.np_at_gb(gb))
                        .expect("NP values are finite")
                })
                .map(|(i, _)| i)
                .expect("nonempty profiles");
            bytes[worst] += leftover;
        }
        bytes
    }

    /// The fairness score `min NP` the partitioner expects for a given
    /// byte allocation (interpolated).
    pub fn expected_fairness(&self, alloc_bytes: &[u64]) -> f64 {
        self.profiles
            .iter()
            .zip(alloc_bytes)
            .map(|(p, &b)| p.at_bytes(b) / p.perf_full)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppm::profiler::profile_all;
    use mtat_tiermem::MIB;
    use mtat_workloads::be::BeSpec;

    fn partitioner() -> BePartitioner {
        let profiles = profile_all(&BeSpec::all_paper_workloads(), 32 * GIB, 2 * MIB);
        BePartitioner::new(profiles, AnnealingConfig::default(), 99)
    }

    #[test]
    fn partition_conserves_total() {
        let mut p = partitioner();
        for total in [0u64, GIB, 7 * GIB + 123 * MIB, 24 * GIB] {
            let alloc = p.partition(total);
            assert_eq!(alloc.len(), 4);
            assert_eq!(alloc.iter().sum::<u64>(), total, "total {total}");
        }
    }

    #[test]
    fn sa_beats_or_matches_even_split() {
        let mut p = partitioner();
        let total = 20 * GIB;
        let alloc = p.partition(total);
        let sa_fair = p.expected_fairness(&alloc);
        let even: Vec<u64> = even_split(total / GIB, 4)
            .iter()
            .map(|&g| g * GIB)
            .collect();
        let even_fair = p.expected_fairness(&even);
        assert!(
            sa_fair >= even_fair - 1e-9,
            "SA fairness {sa_fair} vs even {even_fair}"
        );
    }

    #[test]
    fn flat_workload_gets_more_memory() {
        // XSBench (flat popularity) needs more FMem per unit of NP than
        // PageRank (heavily skewed), so a fairness-maximizing allocation
        // gives XSBench a larger share.
        let mut p = partitioner();
        let alloc = p.partition(16 * GIB);
        let pr_share = alloc[2];
        let xs_share = alloc[3];
        assert!(
            xs_share > pr_share,
            "xsbench {xs_share} should exceed pr {pr_share}: {alloc:?}"
        );
    }

    #[test]
    fn min_np_matches_manual() {
        let p = partitioner();
        let alloc = [4u64, 4, 4, 4];
        let manual = p
            .profiles()
            .iter()
            .zip(alloc)
            .map(|(pr, g)| pr.np_at_gb(g))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_np(p.profiles(), &alloc), manual);
    }

    #[test]
    fn zero_remaining_gives_zero_allocations() {
        let mut p = partitioner();
        let alloc = p.partition(0);
        assert!(alloc.iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_profile_set() {
        let mut p = BePartitioner::new(Vec::new(), AnnealingConfig::default(), 0);
        assert!(p.partition(4 * GIB).is_empty());
    }

    mod snapshot_props {
        use super::*;
        use mtat_snapshot::{SnapReader, SnapWriter};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// save_state/load_state after an arbitrary warm-up resumes
            /// the annealing random walk exactly: a restored partitioner
            /// must produce the same allocation sequence as the one that
            /// kept running.
            #[test]
            fn annealing_state_roundtrip_resumes_walk(
                seed in 0u64..1_000_000_000,
                warmup in 0u64..4,
                total_gb in 1u64..24,
            ) {
                let profiles = profile_all(&BeSpec::all_paper_workloads(), 32 * GIB, 2 * MIB);
                let mut live =
                    BePartitioner::new(profiles.clone(), AnnealingConfig::default(), seed);
                for _ in 0..warmup {
                    live.partition(total_gb * GIB);
                }

                let mut w = SnapWriter::new();
                live.save_state(&mut w);
                let bytes = w.into_bytes();

                // Restore into a partitioner built with a different seed:
                // the checkpoint must fully override it.
                let mut restored =
                    BePartitioner::new(profiles, AnnealingConfig::default(), seed ^ 0x5eed);
                restored.load_state(&mut SnapReader::new(&bytes)).unwrap();

                for step in 0..3u64 {
                    let total = (1 + (total_gb + step) % 24) * GIB;
                    prop_assert_eq!(live.partition(total), restored.partition(total));
                }
            }
        }
    }
}
