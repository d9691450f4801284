//! The tiered-memory page table: ownership, placement, and migration.
//!
//! [`TieredMemory`] is the single source of truth for *where every page
//! lives*. Policies (MTAT's PP-E, MEMTIS, TPP, …) mutate placement only
//! through [`TieredMemory::migrate`] / [`TieredMemory::exchange`], which
//! keep per-tier occupancy and per-workload residency counters exact.

use serde::{Deserialize, Serialize};

use crate::audit::AuditViolation;
use crate::error::TierMemError;
use crate::page::{PageId, PageRegion, Tier, WorkloadId};

/// Static description of a two-tier memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    fmem_bytes: u64,
    smem_bytes: u64,
    page_size: u64,
}

impl MemorySpec {
    /// Creates a specification for a system with `fmem_bytes` of fast
    /// memory, `smem_bytes` of slow memory, and the given page size.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if the page size is zero or
    /// not a power of two, or if either capacity is smaller than one page.
    pub fn new(fmem_bytes: u64, smem_bytes: u64, page_size: u64) -> Result<Self, TierMemError> {
        if page_size == 0 || !page_size.is_power_of_two() {
            return Err(TierMemError::InvalidConfig {
                what: "page_size",
                detail: format!("must be a nonzero power of two, got {page_size}"),
            });
        }
        if fmem_bytes < page_size {
            return Err(TierMemError::InvalidConfig {
                what: "fmem_bytes",
                detail: format!(
                    "must hold at least one page of {page_size} bytes, got {fmem_bytes}"
                ),
            });
        }
        if smem_bytes < page_size {
            return Err(TierMemError::InvalidConfig {
                what: "smem_bytes",
                detail: format!(
                    "must hold at least one page of {page_size} bytes, got {smem_bytes}"
                ),
            });
        }
        Ok(Self {
            fmem_bytes,
            smem_bytes,
            page_size,
        })
    }

    /// Paper-scale configuration: 32 GiB FMem, 256 GiB SMem (§5), 2 MiB pages.
    ///
    /// The paper's prototype tracks 4 KiB pages; the simulator defaults to
    /// 2 MiB granularity so that a full co-location experiment manipulates
    /// ~10⁵ pages instead of ~10⁸. All capacities and ratios are unchanged.
    pub fn paper_scale() -> Self {
        Self::new(32 * crate::GIB, 256 * crate::GIB, 2 * crate::MIB)
            .expect("paper-scale spec is valid")
    }

    /// Capacity of the fast tier in bytes.
    #[inline]
    pub fn fmem_bytes(&self) -> u64 {
        self.fmem_bytes
    }

    /// Capacity of the slow tier in bytes.
    #[inline]
    pub fn smem_bytes(&self) -> u64 {
        self.smem_bytes
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Capacity of the fast tier in pages (rounded down).
    #[inline]
    pub fn fmem_pages(&self) -> u64 {
        self.fmem_bytes / self.page_size
    }

    /// Capacity of the slow tier in pages (rounded down).
    #[inline]
    pub fn smem_pages(&self) -> u64 {
        self.smem_bytes / self.page_size
    }

    /// Capacity of a tier in pages.
    #[inline]
    pub fn tier_pages(&self, tier: Tier) -> u64 {
        match tier {
            Tier::FMem => self.fmem_pages(),
            Tier::SMem => self.smem_pages(),
        }
    }

    /// Converts a byte count to whole pages, rounding up.
    #[inline]
    pub fn bytes_to_pages(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }
}

/// Where a newly registered workload's pages are initially placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialPlacement {
    /// All pages start in the slow tier (cold start).
    AllSmem,
    /// Pages fill the fast tier first (in rank order), spilling the
    /// remainder into the slow tier. This models the paper's Fig. 2 setup
    /// where Redis "initially occupies 100 % of available FMem".
    FmemFirst,
}

/// Per-workload residency counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Residency {
    /// Pages of this workload currently resident in FMem.
    pub fmem_pages: u64,
    /// Pages of this workload currently resident in SMem.
    pub smem_pages: u64,
}

impl Residency {
    /// Total pages owned by the workload.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.fmem_pages + self.smem_pages
    }

    /// Fraction of the workload's pages resident in FMem
    /// (the paper's *FMem Usage Ratio* state component).
    ///
    /// Returns 0 for a workload with no pages.
    #[inline]
    pub fn fmem_usage_ratio(&self) -> f64 {
        let t = self.total_pages();
        if t == 0 {
            0.0
        } else {
            self.fmem_pages as f64 / t as f64
        }
    }
}

/// Cumulative per-workload migration flow: how many page moves each
/// direction has executed since registration. Unlike [`Residency`]
/// (current placement), these only ever grow — the promote↔demote
/// *reversal* rate a thrash detector needs is invisible in net
/// residency, which a perfect ping-pong leaves unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationFlow {
    /// Cumulative SMem→FMem page moves.
    pub promoted: u64,
    /// Cumulative FMem→SMem page moves.
    pub demoted: u64,
}

/// One `u64` word of residency bits per 64 pages: bit set ⇔ the page is
/// FMem-resident. The word index and mask for page-table index `i`.
#[inline]
fn bit_parts(i: usize) -> (usize, u64) {
    (i >> 6, 1u64 << (i & 63))
}

/// Incrementally maintained FMem-resident popularity mass of one
/// workload: the sum of the registered per-rank access weights over the
/// pages currently in FMem. Updated in O(1) per migration with Kahan
/// compensation so the running sum stays within 1e-9 of a from-scratch
/// recompute over arbitrarily long migrate/exchange histories.
#[derive(Debug, Clone)]
struct PopularityMass {
    /// Per-rank access weight; index = page rank within the region.
    weights: Vec<f64>,
    /// Running sum of `weights[rank]` over FMem-resident pages.
    fmem_mass: f64,
    /// Kahan compensation term for `fmem_mass`.
    comp: f64,
}

impl PopularityMass {
    #[inline]
    fn add(&mut self, x: f64) {
        let y = x - self.comp;
        let t = self.fmem_mass + y;
        self.comp = (t - self.fmem_mass) - y;
        self.fmem_mass = t;
    }
}

/// The simulated two-tier memory system.
///
/// Holds the global page table and enforces tier capacities. See the
/// [crate-level documentation](crate) for an end-to-end example.
///
/// The page table is struct-of-arrays: `owners` is a dense flat array
/// indexed by page-table index, and tier residency is a bitset
/// (`fmem_bits`, one `u64` word per 64 pages) instead of a per-page
/// enum. Placement predicates — the hottest/coldest candidate scans
/// that run over every page of a workload each tick — thus cost one L1
/// word probe per page (~11 KiB of bitset for the paper-scale 88k-page
/// co-location) rather than a cache-missing walk over a `Vec` of
/// per-page structs.
#[derive(Debug, Clone)]
pub struct TieredMemory {
    spec: MemorySpec,
    /// Owner of page-table index `i` (parallel flat array).
    owners: Vec<WorkloadId>,
    /// Residency bitset: bit `i` set ⇔ page `i` is FMem-resident.
    fmem_bits: Vec<u64>,
    /// Total registered pages (the bitset tail word is partial).
    n_pages: usize,
    regions: Vec<PageRegion>,
    residency: Vec<Residency>,
    popularity: Vec<Option<PopularityMass>>,
    flows: Vec<MigrationFlow>,
    fmem_used: u64,
    smem_used: u64,
}

impl TieredMemory {
    /// Creates an empty tiered memory system with the given specification.
    pub fn new(spec: MemorySpec) -> Self {
        Self {
            spec,
            owners: Vec::new(),
            fmem_bits: Vec::new(),
            n_pages: 0,
            regions: Vec::new(),
            residency: Vec::new(),
            popularity: Vec::new(),
            flows: Vec::new(),
            fmem_used: 0,
            smem_used: 0,
        }
    }

    /// The static specification this system was created with.
    #[inline]
    pub fn spec(&self) -> &MemorySpec {
        &self.spec
    }

    /// Number of registered workloads.
    #[inline]
    pub fn workload_count(&self) -> usize {
        self.regions.len()
    }

    /// Total number of registered pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.n_pages
    }

    /// Raw FMem-residency bit for a page-table index. Callers must pass
    /// an index below [`Self::page_count`]; out-of-range indices inside
    /// the bitset's tail word read as SMem.
    #[inline]
    fn is_fmem_raw(&self, i: usize) -> bool {
        let (w, m) = bit_parts(i);
        self.fmem_bits[w] & m != 0
    }

    /// Infallible FMem-residency test: one bitset word probe. The fast
    /// form of `tier_of_unchecked(p) == Tier::FMem` used by the per-tick
    /// candidate scans.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the page id is unregistered.
    #[inline]
    pub fn is_fmem(&self, page: PageId) -> bool {
        debug_assert!(page.index() < self.n_pages, "unregistered {page:?}");
        self.is_fmem_raw(page.index())
    }

    /// Pages currently used in a tier.
    #[inline]
    pub fn used_pages(&self, tier: Tier) -> u64 {
        match tier {
            Tier::FMem => self.fmem_used,
            Tier::SMem => self.smem_used,
        }
    }

    /// Free pages remaining in a tier.
    #[inline]
    pub fn free_pages(&self, tier: Tier) -> u64 {
        self.spec.tier_pages(tier) - self.used_pages(tier)
    }

    /// Registers a workload with a resident set of `rss_bytes`, placing
    /// its pages per `placement`. Returns the new workload's id.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::OutOfMemory`] if the combined free space of
    /// both tiers cannot hold the resident set, or
    /// [`TierMemError::InvalidConfig`] if `rss_bytes` is zero.
    pub fn register_workload(
        &mut self,
        rss_bytes: u64,
        placement: InitialPlacement,
    ) -> Result<WorkloadId, TierMemError> {
        if rss_bytes == 0 {
            return Err(TierMemError::InvalidConfig {
                what: "rss_bytes",
                detail: "workload resident set must be nonzero".to_string(),
            });
        }
        let n_pages = self.spec.bytes_to_pages(rss_bytes);
        let available = self.free_pages(Tier::FMem) + self.free_pages(Tier::SMem);
        if n_pages > available {
            return Err(TierMemError::OutOfMemory {
                requested_pages: n_pages,
                available_pages: available,
            });
        }
        let id = WorkloadId(self.regions.len() as u16);
        let base = self.n_pages as u32;
        let region = PageRegion {
            base,
            n_pages: n_pages as u32,
        };

        let fmem_take = match placement {
            InitialPlacement::AllSmem => {
                // Even with AllSmem, a resident set larger than free SMem
                // must spill its *tail* into FMem to fit.
                let smem_free = self.free_pages(Tier::SMem);
                n_pages.saturating_sub(smem_free)
            }
            InitialPlacement::FmemFirst => n_pages.min(self.free_pages(Tier::FMem)),
        };
        let mut res = Residency::default();
        self.owners.resize(self.n_pages + n_pages as usize, id);
        self.fmem_bits
            .resize((self.n_pages + n_pages as usize).div_ceil(64), 0);
        for rank in 0..n_pages {
            // FmemFirst places the lowest ranks (hottest, by convention)
            // in FMem; AllSmem spills the highest ranks into FMem only if
            // SMem alone cannot hold the set.
            let tier = match placement {
                InitialPlacement::FmemFirst if rank < fmem_take => Tier::FMem,
                InitialPlacement::AllSmem if rank >= n_pages - fmem_take => Tier::FMem,
                _ => Tier::SMem,
            };
            match tier {
                Tier::FMem => {
                    let (w, m) = bit_parts(self.n_pages + rank as usize);
                    self.fmem_bits[w] |= m;
                    self.fmem_used += 1;
                    res.fmem_pages += 1;
                }
                Tier::SMem => {
                    self.smem_used += 1;
                    res.smem_pages += 1;
                }
            }
        }
        self.n_pages += n_pages as usize;
        self.regions.push(region);
        self.residency.push(res);
        self.popularity.push(None);
        self.flows.push(MigrationFlow::default());
        Ok(id)
    }

    /// Registers the per-rank access weights of workload `w` so that the
    /// FMem-resident popularity mass (the workload's ideal hit ratio under
    /// the current placement) is maintained incrementally: after this
    /// call, [`Self::resident_popularity`] is an O(1) counter read and
    /// every [`Self::migrate`] / [`Self::exchange`] keeps it exact.
    ///
    /// Re-registering replaces the previous weights and recomputes the
    /// mass from the current placement.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::InvalidConfig`] if the weight vector's
    /// length differs from the workload's page count or any weight is
    /// non-finite or negative.
    pub fn register_popularity(
        &mut self,
        w: WorkloadId,
        weights: &[f64],
    ) -> Result<(), TierMemError> {
        let region = self.regions[w.index()];
        if weights.len() != region.n_pages as usize {
            return Err(TierMemError::InvalidConfig {
                what: "popularity weights",
                detail: format!(
                    "length {} != workload page count {}",
                    weights.len(),
                    region.n_pages
                ),
            });
        }
        if let Some(&bad) = weights.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(TierMemError::InvalidConfig {
                what: "popularity weights",
                detail: format!("weights must be finite and non-negative, got {bad}"),
            });
        }
        let mut mass = PopularityMass {
            weights: weights.to_vec(),
            fmem_mass: 0.0,
            comp: 0.0,
        };
        for (rank, page) in region.iter().enumerate() {
            if self.is_fmem_raw(page.index()) {
                mass.add(mass.weights[rank]);
            }
        }
        self.popularity[w.index()] = Some(mass);
        Ok(())
    }

    /// The incrementally maintained FMem-resident popularity mass of
    /// workload `w` (sum of registered weights over FMem-resident pages,
    /// clamped to `[0, 1]` for normalized weights), or `None` if no
    /// weights were registered via [`Self::register_popularity`].
    #[inline]
    pub fn resident_popularity(&self, w: WorkloadId) -> Option<f64> {
        self.popularity[w.index()]
            .as_ref()
            .map(|m| m.fmem_mass.clamp(0.0, 1.0))
    }

    /// The per-rank access weights last registered for workload `w` via
    /// [`Self::register_popularity`], exactly as passed, or `None` if
    /// none were.
    #[inline]
    pub fn popularity_weights(&self, w: WorkloadId) -> Option<&[f64]> {
        self.popularity[w.index()].as_ref().map(|m| &m.weights[..])
    }

    /// Returns the page region of a workload.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not returned by [`Self::register_workload`].
    #[inline]
    pub fn region(&self, w: WorkloadId) -> PageRegion {
        self.regions[w.index()]
    }

    /// Returns residency counters for a workload.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not returned by [`Self::register_workload`].
    #[inline]
    pub fn residency(&self, w: WorkloadId) -> Residency {
        self.residency[w.index()]
    }

    /// Returns the cumulative per-direction migration flow of a
    /// workload. Monotone counters; consumers (the thrash detector)
    /// diff successive reads to get per-interval promote/demote volume.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not returned by [`Self::register_workload`].
    #[inline]
    pub fn migration_flow(&self, w: WorkloadId) -> MigrationFlow {
        self.flows[w.index()]
    }

    /// Returns the tier a page currently resides in.
    ///
    /// # Errors
    ///
    /// Returns [`TierMemError::UnknownPage`] for an unregistered page id.
    #[inline]
    pub fn tier_of(&self, page: PageId) -> Result<Tier, TierMemError> {
        if page.index() >= self.n_pages {
            return Err(TierMemError::UnknownPage(page));
        }
        Ok(if self.is_fmem_raw(page.index()) {
            Tier::FMem
        } else {
            Tier::SMem
        })
    }

    /// Infallible tier lookup for pages known to be registered.
    ///
    /// # Panics
    ///
    /// Panics if the page id is unregistered. Intended for hot paths that
    /// iterate over a [`PageRegion`] obtained from this same system.
    #[inline]
    pub fn tier_of_unchecked(&self, page: PageId) -> Tier {
        assert!(page.index() < self.n_pages, "unregistered {page:?}");
        if self.is_fmem_raw(page.index()) {
            Tier::FMem
        } else {
            Tier::SMem
        }
    }

    /// Moves a page to `to` tier.
    ///
    /// # Errors
    ///
    /// * [`TierMemError::UnknownPage`] — unregistered page.
    /// * [`TierMemError::AlreadyResident`] — the page is already in `to`.
    /// * [`TierMemError::TierFull`] — no free page frames in `to`.
    pub fn migrate(&mut self, page: PageId, to: Tier) -> Result<(), TierMemError> {
        let i = page.index();
        let owner = *self.owners.get(i).ok_or(TierMemError::UnknownPage(page))?;
        if self.is_fmem_raw(i) == (to == Tier::FMem) {
            return Err(TierMemError::AlreadyResident { page, tier: to });
        }
        if self.free_pages(to) == 0 {
            return Err(TierMemError::TierFull {
                tier: to,
                capacity_pages: self.spec.tier_pages(to),
            });
        }
        let (w, m) = bit_parts(i);
        let res = &mut self.residency[owner.index()];
        let flow = &mut self.flows[owner.index()];
        match to {
            Tier::FMem => {
                self.fmem_bits[w] |= m;
                self.fmem_used += 1;
                self.smem_used -= 1;
                res.fmem_pages += 1;
                res.smem_pages -= 1;
                flow.promoted += 1;
            }
            Tier::SMem => {
                self.fmem_bits[w] &= !m;
                self.smem_used += 1;
                self.fmem_used -= 1;
                res.smem_pages += 1;
                res.fmem_pages -= 1;
                flow.demoted += 1;
            }
        }
        if let Some(mass) = self.popularity[owner.index()].as_mut() {
            let rank = (page.0 - self.regions[owner.index()].base) as usize;
            let wt = mass.weights[rank];
            mass.add(if to == Tier::FMem { wt } else { -wt });
        }
        Ok(())
    }

    /// Moves every movable page of `pages` to `to`, in slice order,
    /// stopping when the destination tier fills. Pages already resident
    /// in `to` are skipped (they still consume their slice slot, exactly
    /// as the per-page `migrate` loop they replace burned a granted
    /// budget slot on the failed call). Returns the number of pages
    /// actually moved.
    ///
    /// Batching model: residency bitset words and the integer occupancy
    /// counters (`fmem_used`/`smem_used`, per-workload residency) are
    /// accumulated over each run of slice entries sharing one owner —
    /// contiguous ranks of one workload — and applied once per run.
    /// Popularity mass is the one per-page cost kept deliberately
    /// per-page *in slice order*: the Kahan-compensated sum is
    /// order-sensitive at the last ULP, and the determinism contract
    /// (bit-identical seeded runs vs. the per-page legacy path) pins the
    /// legacy call order.
    pub fn migrate_batch(&mut self, pages: &[PageId], to: Tier) -> u64 {
        let promote = to == Tier::FMem;
        let mut free = self.free_pages(to);
        let mut moved_total = 0u64;
        let Self {
            owners,
            fmem_bits,
            regions,
            residency,
            popularity,
            flows,
            fmem_used,
            smem_used,
            ..
        } = self;
        let mut i = 0usize;
        while i < pages.len() && free > 0 {
            let owner = owners[pages[i].index()];
            let o = owner.index();
            let base = regions[o].base;
            let mut mass = popularity[o].as_mut();
            let mut run_moved = 0u64;
            // Inner loop: one owner's run of candidates.
            while i < pages.len() && free > 0 {
                let p = pages[i];
                let idx = p.index();
                if owners[idx] != owner {
                    break;
                }
                i += 1;
                let (w, m) = bit_parts(idx);
                if (fmem_bits[w] & m != 0) == promote {
                    continue;
                }
                if promote {
                    fmem_bits[w] |= m;
                } else {
                    fmem_bits[w] &= !m;
                }
                if let Some(mass) = mass.as_deref_mut() {
                    let wt = mass.weights[(p.0 - base) as usize];
                    mass.add(if promote { wt } else { -wt });
                }
                run_moved += 1;
                free -= 1;
            }
            // Counters once per owner run.
            let res = &mut residency[o];
            let flow = &mut flows[o];
            if promote {
                *fmem_used += run_moved;
                *smem_used -= run_moved;
                res.fmem_pages += run_moved;
                res.smem_pages -= run_moved;
                flow.promoted += run_moved;
            } else {
                *smem_used += run_moved;
                *fmem_used -= run_moved;
                res.smem_pages += run_moved;
                res.fmem_pages -= run_moved;
                flow.demoted += run_moved;
            }
            moved_total += run_moved;
        }
        moved_total
    }

    /// Performs a simultaneous bidirectional exchange: `demote` pages move
    /// FMem→SMem and `promote` pages move SMem→FMem, as in the paper's
    /// "memory tier exchange" (§3.1).
    ///
    /// Demotions are applied first so that an exchange that is balanced
    /// overall succeeds even when FMem is completely full beforehand.
    ///
    /// # Errors
    ///
    /// Fails atomically-in-intent (the struct may have applied a prefix of
    /// demotions) only on programming errors: unknown pages, pages not in
    /// the expected source tier, or a promotion that exceeds FMem capacity
    /// after all demotions. Callers construct exchanges from placement
    /// queries, so an error indicates a policy bug.
    pub fn exchange(&mut self, promote: &[PageId], demote: &[PageId]) -> Result<(), TierMemError> {
        for &p in demote {
            self.migrate(p, Tier::SMem)?;
        }
        for &p in promote {
            self.migrate(p, Tier::FMem)?;
        }
        Ok(())
    }

    /// Iterates over the pages of workload `w` resident in `tier`.
    pub fn pages_in_tier(&self, w: WorkloadId, tier: Tier) -> impl Iterator<Item = PageId> + '_ {
        let region = self.regions[w.index()];
        let want_fmem = tier == Tier::FMem;
        region
            .iter()
            .filter(move |&p| self.is_fmem_raw(p.index()) == want_fmem)
    }

    /// Bytes of workload `w` resident in FMem.
    #[inline]
    pub fn fmem_bytes_of(&self, w: WorkloadId) -> u64 {
        self.residency[w.index()].fmem_pages * self.spec.page_size()
    }

    /// Audits the conservation laws of this memory system against an
    /// O(n) recount of the page table: per-tier occupancy counters,
    /// tier capacities, page-to-region ownership, per-workload residency
    /// counters, and the incrementally maintained popularity masses.
    ///
    /// This is the substrate half of the runtime invariant auditor
    /// ([`crate::audit`]); the experiment runner calls it after every
    /// tick when [`crate::audit::audit_enabled`] says so.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditViolation`] found.
    pub fn audit(&self) -> Result<(), AuditViolation> {
        let mut fmem = 0u64;
        let mut smem = 0u64;
        let mut per_w: Vec<Residency> = vec![Residency::default(); self.regions.len()];
        for (i, &owner) in self.owners.iter().enumerate() {
            let r = &mut per_w[owner.index()];
            if self.is_fmem_raw(i) {
                fmem += 1;
                r.fmem_pages += 1;
            } else {
                smem += 1;
                r.smem_pages += 1;
            }
            let region = self.regions[owner.index()];
            if (i as u32) < region.base || (i as u32) >= region.base + region.n_pages {
                return Err(AuditViolation::PageOutsideRegion {
                    page_index: i,
                    workload: owner,
                });
            }
        }
        // Bitset shape: the tail word must not carry residency bits for
        // pages beyond the registered range.
        if let Some(&tail) = self.fmem_bits.last() {
            let used_bits = self.n_pages - (self.fmem_bits.len() - 1) * 64;
            if used_bits < 64 && tail >> used_bits != 0 {
                return Err(AuditViolation::TierCount {
                    tier: Tier::FMem,
                    counter: self.fmem_used,
                    recount: fmem + (tail >> used_bits).count_ones() as u64,
                });
            }
        }
        if fmem != self.fmem_used {
            return Err(AuditViolation::TierCount {
                tier: Tier::FMem,
                counter: self.fmem_used,
                recount: fmem,
            });
        }
        if smem != self.smem_used {
            return Err(AuditViolation::TierCount {
                tier: Tier::SMem,
                counter: self.smem_used,
                recount: smem,
            });
        }
        if fmem > self.spec.fmem_pages() {
            return Err(AuditViolation::TierOvercommit {
                tier: Tier::FMem,
                used: fmem,
                capacity: self.spec.fmem_pages(),
            });
        }
        if smem > self.spec.smem_pages() {
            return Err(AuditViolation::TierOvercommit {
                tier: Tier::SMem,
                used: smem,
                capacity: self.spec.smem_pages(),
            });
        }
        for (i, (got, want)) in per_w.iter().zip(self.residency.iter()).enumerate() {
            if got != want {
                return Err(AuditViolation::ResidencyMismatch {
                    workload: WorkloadId(i as u16),
                    counter: (want.fmem_pages, want.smem_pages),
                    recount: (got.fmem_pages, got.smem_pages),
                });
            }
        }
        for (i, mass) in self.popularity.iter().enumerate() {
            let Some(mass) = mass else { continue };
            let region = self.regions[i];
            let scratch: f64 = region
                .iter()
                .enumerate()
                .filter(|(_, p)| self.is_fmem_raw(p.index()))
                .map(|(rank, _)| mass.weights[rank])
                .sum();
            if (scratch - mass.fmem_mass).abs() > 1e-9 {
                return Err(AuditViolation::PopularityDrift {
                    workload: WorkloadId(i as u16),
                    incremental: mass.fmem_mass,
                    recomputed: scratch,
                });
            }
        }
        Ok(())
    }

    /// Checks internal counter consistency; used by tests and property
    /// tests as the system invariant. Stringly-typed wrapper around
    /// [`Self::audit`].
    pub fn check_invariants(&self) -> Result<(), String> {
        self.audit().map_err(|v| v.to_string())
    }

    /// Deliberately desynchronizes a tier occupancy counter from the page
    /// table. Exists only so tests can prove the auditor catches broken
    /// accounting; never call this outside a test.
    #[doc(hidden)]
    pub fn debug_corrupt_tier_counter(&mut self, tier: Tier, delta: i64) {
        let counter = match tier {
            Tier::FMem => &mut self.fmem_used,
            Tier::SMem => &mut self.smem_used,
        };
        *counter = counter.wrapping_add_signed(delta);
    }

    /// Deliberately drifts a workload's incremental popularity mass.
    /// Exists only so tests can prove the auditor catches broken
    /// accounting; never call this outside a test.
    #[doc(hidden)]
    pub fn debug_corrupt_popularity(&mut self, w: WorkloadId, delta: f64) {
        if let Some(mass) = self.popularity[w.index()].as_mut() {
            mass.fmem_mass += delta;
        }
    }

    /// Rebuilds every derived counter from the page table — the ground
    /// truth that placement mutations never touch directly. Used by the
    /// self-healing runtime to repair accounting drift (a poisoned
    /// accumulator, a corrupted counter) instead of aborting the run.
    ///
    /// Recomputes per-tier occupancy, per-workload residency, and the
    /// FMem-resident popularity masses (resetting their Kahan
    /// compensation terms). Page ownership itself is *not* repairable:
    /// if a page lies outside its owner's region the page table is the
    /// corrupted party and rollback, not repair, is the only recovery.
    ///
    /// Returns the number of counters that actually changed, so callers
    /// can distinguish a no-op sweep from a real repair.
    pub fn repair_accounting(&mut self) -> u32 {
        let mut repaired = 0u32;
        let mut fmem = 0u64;
        let mut smem = 0u64;
        let mut per_w: Vec<Residency> = vec![Residency::default(); self.regions.len()];
        for (i, &owner) in self.owners.iter().enumerate() {
            let r = &mut per_w[owner.index()];
            if self.is_fmem_raw(i) {
                fmem += 1;
                r.fmem_pages += 1;
            } else {
                smem += 1;
                r.smem_pages += 1;
            }
        }
        if self.fmem_used != fmem {
            self.fmem_used = fmem;
            repaired += 1;
        }
        if self.smem_used != smem {
            self.smem_used = smem;
            repaired += 1;
        }
        for (counter, recount) in self.residency.iter_mut().zip(per_w) {
            if *counter != recount {
                *counter = recount;
                repaired += 1;
            }
        }
        for (i, mass) in self.popularity.iter_mut().enumerate() {
            let Some(mass) = mass else { continue };
            let region = self.regions[i];
            let recomputed: f64 = region
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let (w, m) = bit_parts(p.index());
                    self.fmem_bits[w] & m != 0
                })
                .map(|(rank, _)| mass.weights[rank])
                .sum();
            // `!(x <= tol)` instead of `x > tol` so a NaN-poisoned mass
            // counts as repaired. Normalize unconditionally: after a
            // repair sweep the mass is exact with zero compensation.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !((mass.fmem_mass - recomputed).abs() <= 1e-9) {
                repaired += 1;
            }
            mass.fmem_mass = recomputed;
            mass.comp = 0.0;
        }
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GIB, MIB};

    fn small_spec() -> MemorySpec {
        // 8 pages of FMem, 64 pages of SMem, 1 MiB pages.
        MemorySpec::new(8 * MIB, 64 * MIB, MIB).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(MemorySpec::new(0, GIB, MIB).is_err());
        assert!(MemorySpec::new(GIB, 0, MIB).is_err());
        assert!(MemorySpec::new(GIB, GIB, 0).is_err());
        assert!(MemorySpec::new(GIB, GIB, 3 * MIB).is_err()); // not a power of two
        let s = MemorySpec::paper_scale();
        assert_eq!(s.fmem_pages(), 32 * 512); // 32 GiB / 2 MiB
        assert_eq!(s.smem_pages(), 256 * 512);
    }

    #[test]
    fn bytes_to_pages_rounds_up() {
        let s = small_spec();
        assert_eq!(s.bytes_to_pages(1), 1);
        assert_eq!(s.bytes_to_pages(MIB), 1);
        assert_eq!(s.bytes_to_pages(MIB + 1), 2);
    }

    #[test]
    fn register_all_smem() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(10 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let r = mem.residency(w);
        assert_eq!(r.fmem_pages, 0);
        assert_eq!(r.smem_pages, 10);
        assert_eq!(r.fmem_usage_ratio(), 0.0);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn register_fmem_first_spills() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(10 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let r = mem.residency(w);
        assert_eq!(r.fmem_pages, 8); // FMem holds only 8 pages
        assert_eq!(r.smem_pages, 2);
        // Lowest ranks are the ones in FMem.
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(0)).unwrap(), Tier::FMem);
        assert_eq!(mem.tier_of(region.page(9)).unwrap(), Tier::SMem);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn register_rejects_oversized() {
        let mut mem = TieredMemory::new(small_spec());
        // 8 + 64 = 72 pages total.
        let err = mem
            .register_workload(73 * MIB, InitialPlacement::AllSmem)
            .unwrap_err();
        assert!(matches!(err, TierMemError::OutOfMemory { .. }));
        assert!(mem.register_workload(0, InitialPlacement::AllSmem).is_err());
    }

    #[test]
    fn all_smem_spills_tail_into_fmem_when_needed() {
        let mut mem = TieredMemory::new(small_spec());
        // 70 pages: 64 fit in SMem, 6 must land in FMem despite AllSmem.
        let w = mem
            .register_workload(70 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let r = mem.residency(w);
        assert_eq!(r.smem_pages, 64);
        assert_eq!(r.fmem_pages, 6);
        // The *tail* ranks are the spilled ones.
        let region = mem.region(w);
        assert_eq!(mem.tier_of(region.page(0)).unwrap(), Tier::SMem);
        assert_eq!(mem.tier_of(region.page(69)).unwrap(), Tier::FMem);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn migrate_moves_and_updates_counters() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let p = mem.region(w).page(0);
        mem.migrate(p, Tier::FMem).unwrap();
        assert_eq!(mem.tier_of(p).unwrap(), Tier::FMem);
        assert_eq!(mem.residency(w).fmem_pages, 1);
        assert_eq!(mem.used_pages(Tier::FMem), 1);
        // Migrating again to the same tier fails.
        assert!(matches!(
            mem.migrate(p, Tier::FMem),
            Err(TierMemError::AlreadyResident { .. })
        ));
        mem.migrate(p, Tier::SMem).unwrap();
        assert_eq!(mem.residency(w).fmem_pages, 0);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn migrate_respects_capacity() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(20 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        let region = mem.region(w);
        for rank in 0..8 {
            mem.migrate(region.page(rank), Tier::FMem).unwrap();
        }
        let err = mem.migrate(region.page(8), Tier::FMem).unwrap_err();
        assert!(matches!(
            err,
            TierMemError::TierFull {
                tier: Tier::FMem,
                ..
            }
        ));
        mem.check_invariants().unwrap();
    }

    #[test]
    fn exchange_is_bidirectional_under_full_fmem() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(20 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let region = mem.region(w);
        assert_eq!(mem.free_pages(Tier::FMem), 0);
        // Swap rank 0 (FMem) with rank 10 (SMem): demote first makes room.
        mem.exchange(&[region.page(10)], &[region.page(0)]).unwrap();
        assert_eq!(mem.tier_of(region.page(0)).unwrap(), Tier::SMem);
        assert_eq!(mem.tier_of(region.page(10)).unwrap(), Tier::FMem);
        assert_eq!(mem.free_pages(Tier::FMem), 0);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn pages_in_tier_iterates_correctly() {
        let mut mem = TieredMemory::new(small_spec());
        let a = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        let b = mem
            .register_workload(4 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        assert_eq!(mem.pages_in_tier(a, Tier::FMem).count(), 4);
        assert_eq!(mem.pages_in_tier(a, Tier::SMem).count(), 0);
        assert_eq!(mem.pages_in_tier(b, Tier::FMem).count(), 0);
        assert_eq!(mem.pages_in_tier(b, Tier::SMem).count(), 4);
        assert_eq!(mem.fmem_bytes_of(a), 4 * MIB);
    }

    #[test]
    fn popularity_mass_tracks_migrations() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(4 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        // Rejects a wrong-length vector and bad weights.
        assert!(mem.register_popularity(w, &[0.5, 0.5]).is_err());
        assert!(mem.register_popularity(w, &[0.5, 0.5, -0.1, 0.1]).is_err());
        assert!(mem
            .register_popularity(w, &[0.5, f64::NAN, 0.25, 0.25])
            .is_err());
        assert_eq!(mem.resident_popularity(w), None);
        assert_eq!(mem.popularity_weights(w), None);

        let weights = [0.4, 0.3, 0.2, 0.1];
        mem.register_popularity(w, &weights).unwrap();
        assert_eq!(mem.popularity_weights(w), Some(&weights[..]));
        // All four pages start in FMem.
        assert!((mem.resident_popularity(w).unwrap() - 1.0).abs() < 1e-12);
        let region = mem.region(w);
        mem.migrate(region.page(0), Tier::SMem).unwrap();
        assert!((mem.resident_popularity(w).unwrap() - 0.6).abs() < 1e-12);
        mem.exchange(&[region.page(0)], &[region.page(3)]).unwrap();
        assert!((mem.resident_popularity(w).unwrap() - 0.9).abs() < 1e-12);
        mem.check_invariants().unwrap();
    }

    #[test]
    fn popularity_reregistration_recomputes_from_placement() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(2 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        mem.register_popularity(w, &[0.75, 0.25]).unwrap();
        assert_eq!(mem.resident_popularity(w).unwrap(), 0.0);
        mem.migrate(mem.region(w).page(1), Tier::FMem).unwrap();
        assert!((mem.resident_popularity(w).unwrap() - 0.25).abs() < 1e-12);
        // New weights pick up the *current* placement, not the initial one.
        mem.register_popularity(w, &[0.1, 0.9]).unwrap();
        assert!((mem.resident_popularity(w).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(mem.popularity_weights(w), Some(&[0.1, 0.9][..]));
        mem.check_invariants().unwrap();
    }

    #[test]
    fn auditor_catches_deliberate_counter_corruption() {
        use crate::audit::AuditViolation;

        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(6 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        mem.register_popularity(w, &[0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
            .unwrap();
        mem.audit().unwrap();

        // Tier-counter drift is detected and names the tier.
        let mut broken = mem.clone();
        broken.debug_corrupt_tier_counter(Tier::FMem, 1);
        assert!(matches!(
            broken.audit(),
            Err(AuditViolation::TierCount {
                tier: Tier::FMem,
                ..
            })
        ));

        // Popularity-mass drift beyond the Kahan tolerance is detected.
        let mut broken = mem.clone();
        broken.debug_corrupt_popularity(w, 1e-6);
        assert!(matches!(
            broken.audit(),
            Err(AuditViolation::PopularityDrift { .. })
        ));
        // And the stringly wrapper reports the same failure.
        assert!(broken.check_invariants().is_err());

        // Drift *within* tolerance stays silent.
        let mut ok = mem;
        ok.debug_corrupt_popularity(w, 1e-12);
        ok.audit().unwrap();
    }

    #[test]
    fn repair_accounting_restores_corrupted_counters() {
        let mut mem = TieredMemory::new(small_spec());
        let w = mem
            .register_workload(6 * MIB, InitialPlacement::FmemFirst)
            .unwrap();
        mem.register_popularity(w, &[0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
            .unwrap();
        mem.migrate(mem.region(w).page(0), Tier::SMem).unwrap();
        mem.audit().unwrap();

        // A healthy system needs no counter repairs.
        let before = mem.resident_popularity(w).unwrap();
        assert_eq!(mem.repair_accounting(), 0);
        mem.audit().unwrap();
        // Normalization keeps the mass within audit tolerance.
        assert!((mem.resident_popularity(w).unwrap() - before).abs() <= 1e-9);

        // Corrupt every repairable surface at once, including a
        // NaN-poisoned popularity mass.
        mem.debug_corrupt_tier_counter(Tier::FMem, 2);
        mem.debug_corrupt_tier_counter(Tier::SMem, -1);
        mem.debug_corrupt_popularity(w, f64::NAN);
        assert!(mem.audit().is_err());

        let repaired = mem.repair_accounting();
        assert!(repaired >= 3, "expected >=3 repairs, got {repaired}");
        mem.audit().unwrap();
        assert!((mem.resident_popularity(w).unwrap() - before).abs() <= 1e-9);

        // Idempotent: a second sweep finds nothing to fix.
        assert_eq!(mem.repair_accounting(), 0);
    }

    #[test]
    fn tier_lookup_rejects_unknown_pages() {
        let mut mem = TieredMemory::new(small_spec());
        mem.register_workload(2 * MIB, InitialPlacement::AllSmem)
            .unwrap();
        assert!(mem.tier_of(PageId(999)).is_err());
    }
}
