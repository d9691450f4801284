//! Offline BE throughput profiling.
//!
//! PP-M "employs offline profiling data for BE workload partitioning,
//! which measured their throughput under varying FMem allocations,
//! ranging from 0 GB to higher capacities in 1 GB increments" (§4).
//! [`BeProfile`] is that table: throughput at every whole-GiB FMem
//! allocation, built by running the BE model standalone under ideal
//! hotness-based placement, with linear interpolation between points.

use mtat_workloads::be::BeSpec;
use serde::{Deserialize, Serialize};

use mtat_tiermem::GIB;

/// Offline profile of one BE workload: throughput vs FMem allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeProfile {
    /// Workload name.
    pub name: String,
    /// `throughput[g]` = ops/s with `g` GiB of FMem.
    pub throughput: Vec<f64>,
    /// `Perf_full` (Eq. 3): throughput with all of FMem.
    pub perf_full: f64,
}

impl BeProfile {
    /// Profiles `spec` from 0 GiB up to `total_fmem_bytes` in 1 GiB
    /// steps at `page_size` granularity.
    ///
    /// Builds the workload's popularity (one `powf` per page) and
    /// profiles its weights with [`Self::from_weights`].
    ///
    /// # Panics
    ///
    /// Panics if `total_fmem_bytes < 1 GiB`.
    pub fn measure(spec: &BeSpec, total_fmem_bytes: u64, page_size: u64) -> Self {
        let pop = spec.popularity(spec.n_pages(page_size));
        Self::from_weights(spec, pop.weights(), total_fmem_bytes, page_size)
    }

    /// Profiles `spec` from its normalised per-rank weights, hottest
    /// first: the step at `g` GiB is the throughput at the sum of the
    /// hottest `g · GiB / page_size` weights (all of them once that
    /// exceeds their count). The sums are one pass in rank order from
    /// `0.0`, as [`Popularity`](mtat_workloads::access::Popularity)
    /// builds its prefix sums, so over a popularity's weights every
    /// step is `fraction_top`'s value to the bit. O(pages + GiB steps).
    ///
    /// # Panics
    ///
    /// Panics if `total_fmem_bytes < 1 GiB`.
    pub fn from_weights(
        spec: &BeSpec,
        weights: &[f64],
        total_fmem_bytes: u64,
        page_size: u64,
    ) -> Self {
        let gbs = total_fmem_bytes / GIB;
        assert!(gbs >= 1, "profile needs at least 1 GiB of FMem");
        // `top` sums the hottest `summed` weights; `k` never decreases.
        let mut top = 0.0;
        let mut summed = 0;
        let throughput: Vec<f64> = (0..=gbs)
            .map(|g| {
                let k = ((g * GIB / page_size) as usize).min(weights.len());
                for &w in &weights[summed..k] {
                    top += w;
                }
                summed = k;
                spec.throughput(top)
            })
            .collect();
        let perf_full = *throughput.last().expect("nonempty profile");
        Self {
            name: spec.name.clone(),
            throughput,
            perf_full,
        }
    }

    /// Highest profiled allocation in GiB.
    pub fn max_gb(&self) -> u64 {
        (self.throughput.len() - 1) as u64
    }

    /// Throughput at an allocation of `gb` whole GiB (clamped to the
    /// profiled range).
    pub fn at_gb(&self, gb: u64) -> f64 {
        let idx = (gb as usize).min(self.throughput.len() - 1);
        self.throughput[idx]
    }

    /// Throughput at an arbitrary byte allocation, linearly interpolated
    /// between the 1 GiB profile points.
    pub fn at_bytes(&self, bytes: u64) -> f64 {
        let g = bytes as f64 / GIB as f64;
        let lo = g.floor() as usize;
        let hi = lo + 1;
        if hi >= self.throughput.len() {
            return *self.throughput.last().expect("nonempty profile");
        }
        let frac = g - lo as f64;
        self.throughput[lo] * (1.0 - frac) + self.throughput[hi] * frac
    }

    /// Normalized performance `NP` (Eq. 3) at `gb` GiB:
    /// `Perf_alloc / Perf_full`.
    pub fn np_at_gb(&self, gb: u64) -> f64 {
        self.at_gb(gb) / self.perf_full
    }
}

/// Profiles a whole BE workload set against the same FMem capacity.
pub fn profile_all(specs: &[BeSpec], total_fmem_bytes: u64, page_size: u64) -> Vec<BeProfile> {
    specs
        .iter()
        .map(|s| BeProfile::measure(s, total_fmem_bytes, page_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtat_tiermem::{KIB, MIB};
    use mtat_workloads::access::Popularity;

    fn profile() -> BeProfile {
        BeProfile::measure(&BeSpec::sssp(), 32 * GIB, 2 * MIB)
    }

    /// The profile as it was computed per GiB step: the page count
    /// `rss.div_ceil(page)`, `g · GiB / page` resident pages, and the
    /// throughput at that prefix of a freshly built popularity. The
    /// build is pure, so it is hoisted out of the step loop to keep
    /// fine page sizes fast. Kept as the oracle for `measure`.
    fn measure_per_gib(spec: &BeSpec, total_fmem_bytes: u64, page_size: u64) -> Vec<f64> {
        let n_pages = spec.rss_bytes.div_ceil(page_size) as usize;
        let pop = Popularity::new(spec.pattern, n_pages);
        (0..=total_fmem_bytes / GIB)
            .map(|g| spec.throughput(pop.fraction_top((g * GIB / page_size) as usize)))
            .collect()
    }

    /// `measure` equals the per-step profile bit for bit on the paper's
    /// four BEs and `heal_storm`'s 2 GiB SSSP, at every page size and
    /// FMem capacity below.
    #[test]
    fn measure_is_bit_identical_to_per_gib_profile() {
        let mut specs = BeSpec::all_paper_workloads();
        let mut small_sssp = BeSpec::sssp();
        small_sssp.rss_bytes = 2 * GIB;
        specs.push(small_sssp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for spec in &specs {
            for page in [MIB, 2 * MIB, 128 * KIB] {
                for fmem in [GIB, 8 * GIB, 32 * GIB] {
                    let got = BeProfile::measure(spec, fmem, page);
                    let want = measure_per_gib(spec, fmem, page);
                    let at = format!("{} page {page} fmem {fmem}", spec.name);
                    assert_eq!(bits(&got.throughput), bits(&want), "{at}");
                    assert_eq!(got.perf_full.to_bits(), want[want.len() - 1].to_bits());
                }
            }
        }
    }

    #[test]
    fn profile_has_33_points_for_32_gib() {
        let p = profile();
        assert_eq!(p.throughput.len(), 33);
        assert_eq!(p.max_gb(), 32);
        assert_eq!(p.perf_full, *p.throughput.last().unwrap());
    }

    #[test]
    fn profile_is_monotone() {
        let p = profile();
        for w in p.throughput.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn np_is_normalized() {
        let p = profile();
        assert!((p.np_at_gb(32) - 1.0).abs() < 1e-12);
        assert!(p.np_at_gb(0) > 0.0 && p.np_at_gb(0) < 1.0);
        for g in 0..32 {
            assert!(p.np_at_gb(g) <= p.np_at_gb(g + 1) + 1e-12);
        }
    }

    #[test]
    fn interpolation_between_points() {
        let p = profile();
        let mid = p.at_bytes(GIB + GIB / 2);
        assert!(mid > p.at_gb(1) && mid < p.at_gb(2));
        // Exactly on a grid point.
        assert!((p.at_bytes(4 * GIB) - p.at_gb(4)).abs() < 1e-9);
        // Beyond range clamps.
        assert_eq!(p.at_bytes(100 * GIB), p.perf_full);
        assert_eq!(p.at_gb(100), p.perf_full);
    }

    #[test]
    fn profile_all_covers_set() {
        let ps = profile_all(&BeSpec::all_paper_workloads(), 32 * GIB, 2 * MIB);
        assert_eq!(ps.len(), 4);
        let names: Vec<&str> = ps.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["sssp", "bfs", "pr", "xsbench"]);
    }

    #[test]
    fn skewed_workload_saturates_earlier() {
        // PR's NP at 8 GiB is higher than XSBench's: skew means a small
        // allocation already captures most accesses.
        let pr = BeProfile::measure(&BeSpec::pagerank(), 32 * GIB, 2 * MIB);
        let xs = BeProfile::measure(&BeSpec::xsbench(), 32 * GIB, 2 * MIB);
        assert!(pr.np_at_gb(8) > xs.np_at_gb(8));
    }
}
