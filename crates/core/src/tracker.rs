//! Shared hotness-tracking machinery.
//!
//! Both MTAT's PP-E and the MEMTIS baseline maintain per-workload
//! exponential-bin access histograms fed by sampled access counts and
//! aged (halved) periodically. [`HotnessTracker`] bundles one
//! [`AccessHistogram`] per workload with the update/age plumbing.

use mtat_tiermem::histogram::AccessHistogram;
use mtat_tiermem::memory::TieredMemory;
use mtat_tiermem::page::{PageId, WorkloadId};

use crate::policy::WorkloadObs;

/// Per-workload access histograms with bulk update and aging.
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    hists: Vec<AccessHistogram>,
    /// [`AccessHistogram::record`]'s scratch, shared by every
    /// histogram.
    moved: Vec<u32>,
}

impl HotnessTracker {
    /// Builds one histogram per registered workload.
    pub fn new(mem: &TieredMemory) -> Self {
        let hists = (0..mem.workload_count())
            .map(|i| AccessHistogram::new(mem.region(WorkloadId(i as u16))))
            .collect();
        Self {
            hists,
            moved: Vec::new(),
        }
    }

    /// Number of tracked workloads.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// Returns `true` if no workloads are tracked.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// The histogram of workload `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn histogram(&self, w: WorkloadId) -> &AccessHistogram {
        &self.hists[w.index()]
    }

    /// Feeds this tick's sampled access estimates into the histograms.
    ///
    /// Ranks are visited through each observation's touched-set when it
    /// carries one — ascending rank order, exactly the order (and thus
    /// the histogram bin-insertion order) of the dense front-to-back
    /// walk it replaces — and densely in the all-dirty fallback state
    /// ([`AccessHistogram::record`]). Zero estimates change no count and
    /// no bin, so neither path needs to skip them.
    pub fn record_tick(&mut self, workloads: &[WorkloadObs]) {
        for obs in workloads {
            self.hists[obs.id.index()].record(&obs.sampled, &obs.touched, &mut self.moved);
        }
    }

    /// Ages every histogram (halves all counts), as PP-E does at each
    /// partitioning-policy update interval (§3.3.2).
    pub fn age_all(&mut self) {
        for h in &mut self.hists {
            h.age();
        }
    }

    /// The `n` hottest SMem-resident pages of workload `w` (promotion
    /// candidates per Fig. 4a), into a caller-owned buffer (cleared
    /// first), so per-tick queries reuse one allocation. `n` is clamped
    /// to the workload's SMem residency so the bin scan stops as soon as
    /// the last match is found (a workload fully resident in FMem costs
    /// nothing); the returned list is identical either way.
    pub fn hottest_smem_into(
        &self,
        out: &mut Vec<PageId>,
        mem: &TieredMemory,
        w: WorkloadId,
        n: usize,
    ) {
        let n = n.min(mem.residency(w).smem_pages as usize);
        self.hists[w.index()].hottest_matching_into(out, n, |p| !mem.is_fmem(p));
    }

    /// The `n` coldest FMem-resident pages of workload `w` (demotion
    /// candidates per Fig. 4a), into a caller-owned buffer (cleared
    /// first). `n` is clamped to the workload's FMem residency so the
    /// bin scan stops as soon as the last match is found (a workload with
    /// no FMem pages costs nothing); the returned list is identical
    /// either way.
    pub fn coldest_fmem_into(
        &self,
        out: &mut Vec<PageId>,
        mem: &TieredMemory,
        w: WorkloadId,
        n: usize,
    ) {
        let n = n.min(mem.residency(w).fmem_pages as usize);
        self.hists[w.index()].coldest_matching_into(out, n, |p| mem.is_fmem(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorkloadClass;
    use mtat_tiermem::kernel::Kernel;
    use mtat_tiermem::memory::{InitialPlacement, MemorySpec};
    use mtat_tiermem::MIB;

    fn setup() -> (TieredMemory, Vec<WorkloadObs>) {
        let spec = MemorySpec::new(4 * MIB, 32 * MIB, MIB).unwrap();
        let mut mem = TieredMemory::new(spec);
        let a = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let b = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let mk = |id, sampled: Vec<u64>| WorkloadObs {
            id,
            class: WorkloadClass::Be,
            name: format!("w{}", id.0),
            rss_bytes: 4 * MIB,
            cores: 1,
            load_rps: 0.0,
            p99_secs: 0.0,
            slo_secs: f64::INFINITY,
            hit_ratio: 0.0,
            access_rate: 0.0,
            throughput: 0.0,
            sampled,
            touched: Default::default(),
            slo_violated: false,
        };
        let obs = vec![mk(a, vec![10, 0, 5, 0]), mk(b, vec![0, 100, 0, 1])];
        (mem, obs)
    }

    #[test]
    fn record_and_query() {
        let (mem, obs) = setup();
        let mut t = HotnessTracker::new(&mem);
        assert_eq!(t.len(), 2);
        t.record_tick(&obs);
        let a = WorkloadId(0);
        let b = WorkloadId(1);
        assert_eq!(t.histogram(a).total(), 15);
        assert_eq!(t.histogram(b).total(), 101);
        let mut pages = Vec::new();
        // Workload a is fully in FMem: no SMem promotion candidates.
        t.hottest_smem_into(&mut pages, &mem, a, 2);
        assert!(pages.is_empty());
        // Its coldest FMem pages are the untouched ones.
        t.coldest_fmem_into(&mut pages, &mem, a, 2);
        assert_eq!(pages.len(), 2);
        // Workload b is fully in SMem: hottest candidate is rank 1.
        t.hottest_smem_into(&mut pages, &mem, b, 1);
        assert_eq!(pages.len(), 1);
        assert_eq!(t.histogram(b).count(pages[0]), 100);
    }

    /// The tracker's histograms record on the AVX-512 kernel on a CPU
    /// that reports AVX-512F, DQ and VL, and on the scalar loop on any
    /// other, so the histogram's kernel test covers the path every tick
    /// takes. A SAC layer, whose crate keeps its own copy of the check,
    /// picks the same kernel.
    #[test]
    fn tracker_picks_the_avx512_kernels_on_avx512() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        let want = if avx512 {
            Kernel::Avx512
        } else {
            Kernel::Scalar
        };
        let (mem, _) = setup();
        let t = HotnessTracker::new(&mem);
        for w in [WorkloadId(0), WorkloadId(1)] {
            assert_eq!(t.histogram(w).kernel(), want);
        }
        let layer = mtat_nn::linear::Linear::with_seed(1, 1, 0);
        assert_eq!(layer.kernel().name(), want.name());
        println!("tracker histograms' record kernel: {}", want.name());
    }

    #[test]
    fn aging_halves_counts() {
        let (mem, obs) = setup();
        let mut t = HotnessTracker::new(&mem);
        t.record_tick(&obs);
        t.age_all();
        assert_eq!(t.histogram(WorkloadId(0)).total(), 7); // 5 + 2
        assert_eq!(t.histogram(WorkloadId(1)).total(), 50);
    }
}
