//! Exponentially-binned page access-frequency histograms (Fig. 4).
//!
//! State-of-the-art tiered memory systems (MEMTIS, FlexMem) and MTAT's
//! PP-E categorize pages by access count into bins that double in width at
//! each step (2⁰, 2¹, …, 2ⁿ). Each bin is linked to the list of pages
//! whose current count falls in its range, "making it straightforward to
//! identify specific pages and correlate them with their memory
//! locations" (§4). To track shifts in the hot set, counts are *aged* —
//! halved — at every partitioning-policy update interval (§3.3.2).
//!
//! [`AccessHistogram`] implements exactly that: O(1) count updates with
//! automatic re-binning, O(pages-returned) hottest/coldest queries, and
//! O(n) aging.
//!
//! The count update the hotness tracker runs every tick,
//! [`AccessHistogram::record`], runs on one of two [`Kernel`]s picked
//! from the CPU when the histogram is built: an AVX-512 form that
//! updates eight counts per instruction, and the scalar loop everywhere
//! else. Both give the same counts, bins and bin order (DESIGN.md §4h,
//! "Vectorised tracking").

use crate::kernel::Kernel;
use crate::page::{PageId, PageRegion};
use crate::sampler::TouchedSet;

/// Number of exponential bins. Bin 0 holds untouched pages; bin *k*≥1
/// holds counts in `[2^(k−1), 2^k)`. 48 bins cover counts up to 2⁴⁷,
/// far beyond anything a sampling period ≥ 1 can produce per interval.
pub const NUM_BINS: usize = 48;

/// The top bin, which clamps every count of at least 2⁴⁶.
const TOP_BIN: u8 = (NUM_BINS - 1) as u8;

/// The lowest count of the top bin, which clamps every larger count:
/// a count at or above it never changes bin.
#[cfg(target_arch = "x86_64")]
const TOP_BIN_MIN: u64 = 1 << (NUM_BINS - 2);

/// A touched-set word with at least this many of its 64 ranks set takes
/// the AVX-512 record kernel's eight-lane update; sparser words take the
/// per-rank loop. The exact value matters little: at paper scale 12–16 %
/// of touched words are sparser than 8, and end to end 4, 8 and 16 read
/// the same while sending every word to the lanes read lower, inside the
/// noise (DESIGN.md §4h, "Vectorised tracking").
#[cfg(target_arch = "x86_64")]
const DENSE_WORD: u32 = 8;

/// Per-workload access-frequency histogram with exponential bins.
///
/// The histogram covers the pages of one [`PageRegion`] (one workload).
/// Queries take a predicate so the caller can restrict results to pages
/// currently resident in one tier — this is how the separate "FMem
/// histogram" and "SMem histogram" of Fig. 4 are realized without
/// duplicating count state.
///
/// ```
/// use mtat_tiermem::histogram::AccessHistogram;
/// use mtat_tiermem::page::{PageId, PageRegion};
///
/// let region = PageRegion { base: 0, n_pages: 4 };
/// let mut h = AccessHistogram::new(region);
/// h.add(PageId(0), 100);
/// h.add(PageId(1), 3);
/// h.add(PageId(2), 1);
///
/// let hottest = h.hottest_matching(2, |_| true);
/// assert_eq!(hottest[0], PageId(0));
/// assert_eq!(hottest[1], PageId(1));
///
/// // Aging halves every count.
/// h.age();
/// assert_eq!(h.count(PageId(0)), 50);
/// assert_eq!(h.count(PageId(2)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AccessHistogram {
    region: PageRegion,
    counts: Vec<u64>,
    /// All bins' local ranks in one flat arena, segmented per bin
    /// (`segs[b]` names bin b's window). Replaces the former
    /// `Vec<Vec<u32>>`: one allocation, no per-bin pointer chase, and
    /// the hottest/coldest scans walk (mostly) contiguous memory.
    arena: Vec<u32>,
    /// Per-bin (offset, live length, capacity) into `arena`.
    segs: [BinSeg; NUM_BINS],
    /// Arena slots leaked by segment relocations; compaction trigger.
    garbage: u32,
    /// local rank -> (bin, position within bin's segment)
    slots: Vec<(u8, u32)>,
    total: u64,
    /// How [`Self::record`] runs; picked from the CPU by `new` and
    /// `unsnap`, never serialized.
    kernel: Kernel,
}

/// One bin's window into the arena. `cap - len` trailing slots are
/// reserved so pushes are O(1) until the window fills, at which point
/// the segment relocates to the arena's end with doubled capacity
/// (amortized O(1) per push, like `Vec` — but all bins share one
/// allocation).
#[derive(Debug, Clone, Copy, Default)]
struct BinSeg {
    off: u32,
    len: u32,
    cap: u32,
}

/// Returns the bin index for an access count.
///
/// Delegates to the workspace-shared, audited bucket arithmetic in
/// [`mtat_obs::bucket::exponent_bin`] so this histogram and the
/// observability histograms cannot drift apart on boundary cases (the
/// contract — 0 → bin 0, count `c > 0` → bin `⌈log2(c)⌉+1` clamped —
/// is property-tested there and boundary-tested below).
#[inline]
pub fn bin_for_count(count: u64) -> usize {
    mtat_obs::bucket::exponent_bin(count, NUM_BINS)
}

impl AccessHistogram {
    /// Creates an all-zero histogram over `region`.
    pub fn new(region: PageRegion) -> Self {
        let n = region.len();
        let mut segs = [BinSeg::default(); NUM_BINS];
        segs[0] = BinSeg {
            off: 0,
            len: n as u32,
            cap: n as u32,
        };
        let slots = (0..n as u32).map(|r| (0u8, r)).collect();
        Self {
            region,
            counts: vec![0; n],
            arena: (0..n as u32).collect(),
            segs,
            garbage: 0,
            slots,
            total: 0,
            kernel: Kernel::detect(),
        }
    }

    /// The kernel [`Self::record`] runs on.
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Bin `b`'s live ranks, in bin-internal (history-dependent) order.
    #[inline]
    fn bin_slice(&self, b: usize) -> &[u32] {
        let s = self.segs[b];
        &self.arena[s.off as usize..(s.off + s.len) as usize]
    }

    /// The region this histogram covers.
    #[inline]
    pub fn region(&self) -> PageRegion {
        self.region
    }

    /// Current access count of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside this histogram's region.
    #[inline]
    pub fn count(&self, page: PageId) -> u64 {
        let rank = self.rank(page);
        self.counts[rank as usize]
    }

    /// Sum of all counts.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `delta` accesses to `page`, re-binning if needed.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside this histogram's region.
    pub fn add(&mut self, page: PageId, delta: u64) {
        let rank = self.rank(page);
        self.add_rank(rank, delta);
    }

    /// [`Self::add`] addressed by rank directly, skipping the page-id
    /// translation. A bin crossing takes [`Self::record`]'s rebin pass
    /// on a one-rank batch.
    #[inline]
    pub fn add_rank(&mut self, rank: u32, delta: u64) {
        let r = rank as usize;
        let old = self.counts[r];
        let new = old.saturating_add(delta);
        self.total += new - old;
        self.counts[r] = new;
        if bin_for_count(new) != bin_for_count(old) {
            self.rebin_moved(&[rank]);
        }
    }

    /// [`Self::record`]'s two passes over `ranks`, which must be strictly
    /// ascending (debug-asserted). Only the tests feed a histogram this
    /// way, to drive the rebin pass with rank sets of their own.
    #[cfg(test)]
    pub fn add_ranks<I>(&mut self, ranks: I, sampled: &[u64], moved: &mut Vec<u32>)
    where
        I: IntoIterator<Item = usize>,
    {
        if moved.len() < sampled.len() {
            moved.resize(sampled.len(), 0);
        }
        let k = self.update_counts(ranks, sampled, moved);
        self.rebin_moved(&moved[..k]);
    }

    /// [`Self::record`]'s count pass over `ranks`, strictly ascending:
    /// updates their counts and total and writes those that changed
    /// bin, in order, to `moved[..k]`; returns `k`.
    #[inline(always)]
    fn update_counts<I>(&mut self, ranks: I, sampled: &[u64], moved: &mut [u32]) -> usize
    where
        I: IntoIterator<Item = usize>,
    {
        let mut k = 0;
        let mut next_min = 0;
        for rank in ranks {
            debug_assert!(rank >= next_min, "ranks must be strictly ascending");
            next_min = rank + 1;
            k = self.update_count(rank, sampled, moved, k);
        }
        k
    }

    /// One rank of [`Self::update_counts`], with `k` ranks moved so far;
    /// returns the new `k`. It writes the rank to `moved[k]` and
    /// advances `k` by whether its bin changed, rather than branching on
    /// it: at paper scale ~37 % of sampled ranks change bin, in no
    /// pattern a branch predictor can learn.
    #[inline(always)]
    fn update_count(&mut self, rank: usize, sampled: &[u64], moved: &mut [u32], k: usize) -> usize {
        let old = self.counts[rank];
        let new = old.saturating_add(sampled[rank]);
        self.total += new - old;
        self.counts[rank] = new;
        moved[k] = rank as u32;
        k + usize::from(bin_for_count(new) != bin_for_count(old))
    }

    /// Records one tick's sampled estimates:
    /// [`Self::add_rank`]`(r, sampled[r])` for every rank `r` that
    /// `touched` holds, or for every rank of `sampled` when it is in the
    /// all-dirty state. This is the hotness tracker's per-tick entry. It
    /// runs in two passes: the first updates every count and total and
    /// notes which ranks changed bin, the second rebins those in order.
    /// The result is the one-at-a-time loop's, bit for bit, on either
    /// kernel: counts do not depend on bins, each rank appears once, and
    /// a rank that keeps its bin is a no-op for the rebin step — so the
    /// second pass performs the same swap-removes and pushes in the same
    /// order. `moved` is scratch, grown to `sampled.len()` and never
    /// shrunk, so one buffer serves every histogram a caller feeds.
    ///
    /// On [`Kernel::Avx512`], a word of `touched` with at least eight of
    /// its 64 ranks set updates eight counts per instruction, the word's
    /// bits as the lane mask, and appends the ranks that changed bin to
    /// `moved` in ascending order; sparser words, and a last word the buffer
    /// covers only in part, take the per-rank loop.
    pub fn record(&mut self, sampled: &[u64], touched: &TouchedSet, moved: &mut Vec<u32>) {
        self.record_counted(sampled, touched, moved);
    }

    /// [`Self::record`], returning how many ranks changed bin: those are
    /// `moved[..k]`, in the order they were rebinned.
    fn record_counted(
        &mut self,
        sampled: &[u64],
        touched: &TouchedSet,
        moved: &mut Vec<u32>,
    ) -> usize {
        if moved.len() < sampled.len() {
            moved.resize(sampled.len(), 0);
        }
        let k = self.record_counts(sampled, touched, moved);
        self.rebin_moved(&moved[..k]);
        k
    }

    /// [`Self::record`]'s first pass on this histogram's kernel.
    /// `moved.len() >= sampled.len()`.
    fn record_counts(&mut self, sampled: &[u64], touched: &TouchedSet, moved: &mut [u32]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self.kernel == Kernel::Avx512 {
            // SAFETY: `kernel` is `Avx512` only where `Kernel::detect`
            // found AVX-512F, DQ and VL on this CPU.
            return unsafe { self.record_counts_avx512(sampled, touched, moved) };
        }
        if touched.is_all() {
            self.update_counts(0..sampled.len(), sampled, moved)
        } else {
            self.update_counts(touched.iter_ranks(), sampled, moved)
        }
    }

    /// [`Self::record_counts`] on AVX-512, word by word of `touched` (all
    /// ones, and the buffer's partial tail, in the all-dirty state). A
    /// word whose 64 ranks index both `counts` and `sampled` and that
    /// holds at least [`DENSE_WORD`] ranks runs as eight 8-lane groups,
    /// the word's bits as lane masks: the count is a saturating add
    /// (compare-and-blend to `u64::MAX` where the sum wrapped), the total
    /// grows by the lanes' `new - old` (zero on masked-off lanes, which
    /// load as zero), and a lane changed bin iff `old < TOP_BIN_MIN` and
    /// `(new ^ old) > old`, i.e. `new` has a bit above `old`'s highest
    /// (exact for `new >= old`, and the top bin's clamp is the first
    /// condition). Those ranks are compressed, in lane order, into one
    /// register stored whole at `moved[k..]` (the memory-destination
    /// compress is microcoded on some AVX-512 cores), so `moved` holds
    /// ascending ranks as on the scalar kernel. Every other word takes
    /// [`Self::update_count`] per rank.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn record_counts_avx512(
        &mut self,
        sampled: &[u64],
        touched: &TouchedSet,
        moved: &mut [u32],
    ) -> usize {
        use std::arch::x86_64::*;

        let n = sampled.len();
        assert!(moved.len() >= n, "record needs a moved slot per rank");
        let full_words = self.counts.len().min(n) / 64;
        let n_words = if touched.is_all() {
            n.div_ceil(64)
        } else {
            touched.words().len()
        };
        let top = _mm512_set1_epi64(TOP_BIN_MIN as i64);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut total = _mm512_setzero_si512();
        let mut k = 0;
        for wi in 0..n_words {
            let word = if !touched.is_all() {
                touched.words()[wi]
            } else if (wi + 1) * 64 <= n {
                u64::MAX
            } else {
                u64::MAX >> (64 - n % 64)
            };
            if wi >= full_words || word.count_ones() < DENSE_WORD {
                let mut bits = word;
                while bits != 0 {
                    let rank = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    k = self.update_count(rank, sampled, moved, k);
                }
                continue;
            }
            for g in 0..8 {
                let r0 = wi * 64 + g * 8;
                let m = (word >> (g * 8)) as u8;
                // SAFETY: `wi < full_words`, so ranks `r0..r0 + 8` index
                // both `counts` and `sampled`.
                let (old, d) = unsafe {
                    (
                        _mm512_maskz_loadu_epi64(m, self.counts.as_ptr().add(r0).cast()),
                        _mm512_maskz_loadu_epi64(m, sampled.as_ptr().add(r0).cast()),
                    )
                };
                let sum = _mm512_add_epi64(old, d);
                let new = _mm512_mask_mov_epi64(
                    sum,
                    _mm512_cmplt_epu64_mask(sum, old),
                    _mm512_set1_epi64(-1),
                );
                total = _mm512_add_epi64(total, _mm512_sub_epi64(new, old));
                let changed = _mm512_mask_cmplt_epu64_mask(m, old, top)
                    & _mm512_cmpgt_epu64_mask(_mm512_xor_si512(new, old), old);
                let ranks = _mm256_add_epi32(_mm256_set1_epi32(r0 as i32), lane);
                let ranks = _mm256_maskz_compress_epi32(changed, ranks);
                // SAFETY: as above for `counts`. `moved[..k]` holds
                // distinct ranks below `r0` (ranks arrive ascending), so
                // `k + 8 <= r0 + 8 <= n <= moved.len()`: the 8 entries
                // stored from `moved[k]` fit.
                unsafe {
                    _mm512_mask_storeu_epi64(self.counts.as_mut_ptr().add(r0).cast(), m, new);
                    _mm256_storeu_si256(moved.as_mut_ptr().add(k).cast(), ranks);
                }
                k += changed.count_ones() as usize;
            }
        }
        self.total += _mm512_reduce_add_epi64(total) as u64;
        k
    }

    /// The bin index `page` currently occupies.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside this histogram's region.
    #[inline]
    pub fn bin_of(&self, page: PageId) -> usize {
        let rank = self.rank(page);
        self.slots[rank as usize].0 as usize
    }

    /// Ages the histogram: halves every count (integer division) and
    /// re-bins, exactly as PP-E does at each partitioning update.
    ///
    /// Two passes. The first halves every count and sums the total, a
    /// streaming loop the compiler vectorises. The second walks the ranks
    /// in rank order and moves each one of bin b ≥ 1 to bin b − 1:
    /// halving a count in [2^(b−1), 2^b) lands it in [2^(b−2), 2^(b−1)).
    /// Only the clamped top bin splits, so there the halved count picks
    /// the bin and a rank that stays is skipped. Bin 0 holds exactly the
    /// zero counts, which stay. These are the swap-removes and pushes,
    /// in the same order, of rebinning every nonzero rank by its halved
    /// count in rank order, so every bin keeps the history-dependent
    /// order the goldens pin (DESIGN.md §4h, "Aging as a shift-down
    /// walk"). At paper scale ~99.7 % of a workload's pages are nonzero,
    /// so the walk is O(region).
    pub fn age(&mut self) {
        let mut total = 0;
        for c in &mut self.counts {
            *c /= 2;
            total += *c;
        }
        self.total = total;
        let mut segs = self.segs;
        for rank in 0..self.slots.len() {
            let slot = self.slots[rank];
            let to = match slot.0 {
                0 => continue,
                TOP_BIN => match bin_for_count(self.counts[rank]) as u8 {
                    TOP_BIN => continue,
                    to => to,
                },
                b => b - 1,
            };
            self.move_rank(&mut segs, rank as u32, slot, to);
        }
        self.segs = segs;
    }

    /// Returns up to `n` of the *hottest* pages satisfying `pred`,
    /// scanning bins from the highest-frequency bin downward (Fig. 4a:
    /// "promotes pages from SMem to FMem by selecting those in the
    /// highest frequency bin"). Pages in the zero bin are returned last,
    /// only if the hotter bins could not satisfy `n`.
    pub fn hottest_matching<F>(&self, n: usize, pred: F) -> Vec<PageId>
    where
        F: FnMut(PageId) -> bool,
    {
        let mut out = Vec::new();
        self.hottest_matching_into(&mut out, n, pred);
        out
    }

    /// [`Self::hottest_matching`] into a caller-owned buffer (cleared
    /// first), so per-tick candidate queries can reuse one allocation.
    pub fn hottest_matching_into<F>(&self, out: &mut Vec<PageId>, n: usize, pred: F)
    where
        F: FnMut(PageId) -> bool,
    {
        self.scan_into(out, n, (0..NUM_BINS).rev(), pred);
    }

    /// Returns up to `n` of the *coldest* pages satisfying `pred`,
    /// scanning bins from the zero bin upward (Fig. 4a: "pages are
    /// demoted from FMem to SMem following the lowest-frequency bin").
    pub fn coldest_matching<F>(&self, n: usize, pred: F) -> Vec<PageId>
    where
        F: FnMut(PageId) -> bool,
    {
        let mut out = Vec::new();
        self.coldest_matching_into(&mut out, n, pred);
        out
    }

    /// [`Self::coldest_matching`] into a caller-owned buffer (cleared
    /// first), so per-tick candidate queries can reuse one allocation.
    pub fn coldest_matching_into<F>(&self, out: &mut Vec<PageId>, n: usize, pred: F)
    where
        F: FnMut(PageId) -> bool,
    {
        self.scan_into(out, n, 0..NUM_BINS, pred);
    }

    /// The first `n` pages (clamped to the region) satisfying `pred`,
    /// walking `bins` in the given order and each bin in its internal
    /// order. Every scanned page is written to `out[len]` and `len`
    /// advances by the predicate's verdict, so the filter is a store
    /// and an add instead of a branch the predictor cannot learn (at
    /// paper scale MEMTIS scans ~68 K pages per tick to keep ~9 K).
    fn scan_into<B, F>(&self, out: &mut Vec<PageId>, n: usize, bins: B, mut pred: F)
    where
        B: Iterator<Item = usize>,
        F: FnMut(PageId) -> bool,
    {
        let n = n.min(self.counts.len());
        out.clear();
        if n == 0 {
            return;
        }
        out.resize(n, PageId(0));
        let mut len = 0;
        'bins: for bin in bins {
            for &rank in self.bin_slice(bin) {
                let page = PageId(self.region.base + rank);
                out[len] = page;
                len += usize::from(pred(page));
                if len == n {
                    break 'bins;
                }
            }
        }
        out.truncate(len);
    }

    /// Iterates `(page, count)` over all pages in the region.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(rank, &c)| (PageId(self.region.base + rank as u32), c))
    }

    #[inline]
    fn rank(&self, page: PageId) -> u32 {
        self.region
            .rank_of(page)
            .unwrap_or_else(|| panic!("{page} outside histogram region {:?}", self.region))
    }

    /// The rebin pass of [`Self::record`] and [`Self::add_rank`]: moves each rank of `ranks`, in order, from the
    /// bin its slot names to the bin its count now demands. Every rank
    /// must have changed bin, as the count passes guarantee.
    fn rebin_moved(&mut self, ranks: &[u32]) {
        let mut segs = self.segs;
        for &rank in ranks {
            let slot = self.slots[rank as usize];
            let to = bin_for_count(self.counts[rank as usize]) as u8;
            debug_assert_ne!(to, slot.0, "rank {rank} did not change bin");
            self.move_rank(&mut segs, rank, slot, to);
        }
        self.segs = segs;
    }

    /// Moves `rank` from `(from, pos)`, its bin and position, to the tail
    /// of bin `to`. `segs` stands in for `self.segs` through a pass: a
    /// local copy, so that the stores into `arena` and `slots` do not
    /// force the bin table to be re-read. It is written back around the
    /// cold [`Self::grow_bin`], which reads and rewrites the whole table,
    /// and the caller writes it back when the pass ends.
    ///
    /// The move is the same swap-remove + push the `Vec<Vec>` layout
    /// performed, applied to the arena segments — crucially preserving
    /// the history-dependent bin-internal order, which is observable
    /// through hottest/coldest tie-breaks and pinned by the determinism
    /// contract.
    #[inline(always)]
    fn move_rank(
        &mut self,
        segs: &mut [BinSeg; NUM_BINS],
        rank: u32,
        (from, pos): (u8, u32),
        to: u8,
    ) {
        // Swap-remove from the old segment, fixing the displaced slot.
        // Removing the segment's last rank needs no branch: it becomes a
        // self-copy, and the push below overwrites its slot.
        let seg = &mut segs[from as usize];
        seg.len -= 1;
        let last = self.arena[(seg.off + seg.len) as usize];
        self.arena[(seg.off + pos) as usize] = last;
        self.slots[last as usize].1 = pos;
        // Push onto the new segment's tail.
        if segs[to as usize].len == segs[to as usize].cap {
            self.segs = *segs;
            self.grow_bin(to);
            *segs = self.segs;
        }
        let seg = &mut segs[to as usize];
        self.arena[(seg.off + seg.len) as usize] = rank;
        self.slots[rank as usize] = (to, seg.len);
        seg.len += 1;
    }

    /// Relocates bin `b`'s segment to the arena's end with doubled
    /// capacity; compacts the whole arena first when relocation garbage
    /// exceeds the live population.
    #[cold]
    fn grow_bin(&mut self, b: u8) {
        if self.garbage as usize > self.counts.len() + 64 {
            self.compact();
            if self.segs[b as usize].len < self.segs[b as usize].cap {
                return;
            }
        }
        let seg = self.segs[b as usize];
        let new_cap = (seg.cap * 2).max(8);
        let new_off = self.arena.len() as u32;
        self.arena
            .resize(new_off as usize + new_cap as usize, u32::MAX);
        self.arena.copy_within(
            seg.off as usize..(seg.off + seg.len) as usize,
            new_off as usize,
        );
        self.garbage += seg.cap;
        self.segs[b as usize] = BinSeg {
            off: new_off,
            len: seg.len,
            cap: new_cap,
        };
    }

    /// Rebuilds the arena tight: every segment packed in bin order with
    /// headroom, positions within each bin unchanged (slots stay valid).
    fn compact(&mut self) {
        let live: usize = self.segs.iter().map(|s| s.len as usize).sum();
        let mut arena = Vec::with_capacity(live * 2 + NUM_BINS * 8);
        for b in 0..NUM_BINS {
            let s = self.segs[b];
            let off = arena.len() as u32;
            arena.extend_from_slice(&self.arena[s.off as usize..(s.off + s.len) as usize]);
            let cap = s.len + (s.len / 2).max(4);
            arena.resize(off as usize + cap as usize, u32::MAX);
            self.segs[b] = BinSeg {
                off,
                len: s.len,
                cap,
            };
        }
        self.arena = arena;
        self.garbage = 0;
    }

    /// Verifies internal consistency: bin membership matches counts and
    /// slots, and the arena segments are in-bounds, non-overlapping
    /// windows. Used by tests and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Arena segment geometry.
        let mut windows: Vec<(u32, u32, usize)> = self
            .segs
            .iter()
            .enumerate()
            .map(|(b, s)| (s.off, s.cap, b))
            .collect();
        windows.sort_unstable();
        let mut prev_end = 0u32;
        for &(off, cap, b) in &windows {
            if off < prev_end {
                return Err(format!("bin {b} segment overlaps its predecessor"));
            }
            if (off + cap) as usize > self.arena.len() {
                return Err(format!("bin {b} segment exceeds arena bounds"));
            }
            prev_end = off + cap;
        }
        for (b, s) in self.segs.iter().enumerate() {
            if s.len > s.cap {
                return Err(format!("bin {b} len {} exceeds cap {}", s.len, s.cap));
            }
        }
        // Membership, slots, and totals.
        let mut seen = vec![false; self.counts.len()];
        let mut total = 0u64;
        for bin in 0..NUM_BINS {
            for (pos, &rank) in self.bin_slice(bin).iter().enumerate() {
                let r = rank as usize;
                if r >= self.counts.len() {
                    return Err(format!("rank {rank} out of range in bin {bin}"));
                }
                if seen[r] {
                    return Err(format!("rank {rank} appears in multiple bins"));
                }
                seen[r] = true;
                if bin_for_count(self.counts[r]) != bin {
                    return Err(format!(
                        "rank {rank} count {} belongs in bin {}, found in {bin}",
                        self.counts[r],
                        bin_for_count(self.counts[r])
                    ));
                }
                if self.slots[r] != (bin as u8, pos as u32) {
                    return Err(format!(
                        "rank {rank} slot {:?} != ({bin},{pos})",
                        self.slots[r]
                    ));
                }
                total += self.counts[r];
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some rank missing from all bins".to_string());
        }
        if total != self.total {
            return Err(format!("total {} != recount {total}", self.total));
        }
        Ok(())
    }
}

/// The checkpoint carries the *full* internal state, not just the
/// counts: re-binning uses swap-remove, so the order of ranks inside a
/// bin is history-dependent, and `hottest_matching` breaks ties in bin
/// order. Rebuilding bins from counts alone would produce a histogram
/// that answers tie-broken queries differently from the original —
/// violating bit-identical resume.
///
/// The wire format is the v1 *per-page* layout — bins as a
/// `Vec<Vec<u32>>` of ranks — even though the in-memory representation
/// is the flat arena. The codec materializes the per-bin lists on
/// encode and rebuilds the arena on decode, so every pre-refactor
/// checkpoint still decodes, and a decode→re-encode roundtrip stays
/// byte-identical (arena segment capacities are free parameters the
/// wire never sees).
impl mtat_snapshot::Snap for AccessHistogram {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.region.snap(w);
        self.counts.snap(w);
        // v1 layout: Vec<Vec<u32>> — outer length, then each bin as
        // length + ranks in bin-internal order.
        (NUM_BINS as u64).snap(w);
        for b in 0..NUM_BINS {
            let s = self.bin_slice(b);
            (s.len() as u64).snap(w);
            for &rank in s {
                rank.snap(w);
            }
        }
        self.slots.snap(w);
        self.total.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let region = PageRegion::unsnap(r)?;
        let counts: Vec<u64> = Vec::unsnap(r)?;
        let bins: Vec<Vec<u32>> = Vec::unsnap(r)?;
        let slots: Vec<(u8, u32)> = Vec::unsnap(r)?;
        let total = u64::unsnap(r)?;
        if counts.len() != region.len() || slots.len() != region.len() || bins.len() != NUM_BINS {
            return Err(SnapError::Malformed("histogram shape mismatch"));
        }
        // Rebuild the flat arena from the per-page lists, preserving
        // bin-internal order.
        let mut segs = [BinSeg::default(); NUM_BINS];
        let mut arena = Vec::with_capacity(region.len());
        for (b, ranks) in bins.iter().enumerate() {
            segs[b] = BinSeg {
                off: arena.len() as u32,
                len: ranks.len() as u32,
                cap: ranks.len() as u32,
            };
            arena.extend_from_slice(ranks);
        }
        let h = Self {
            region,
            counts,
            arena,
            segs,
            garbage: 0,
            slots,
            total,
            kernel: Kernel::detect(),
        };
        if h.check_invariants().is_err() {
            return Err(SnapError::Malformed("histogram internal inconsistency"));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(n: u32) -> PageRegion {
        PageRegion {
            base: 100,
            n_pages: n,
        }
    }

    /// v1's per-call rebin and per-rank aging, the references the rebin
    /// pass and the shift-down walk must match bit for bit.
    impl AccessHistogram {
        /// v1's `add_rank`: the count update, then [`Self::rebin_v1`].
        fn add_rank_v1(&mut self, rank: u32, delta: u64) {
            if delta == 0 {
                return;
            }
            let rank = rank as usize;
            let new = self.counts[rank].saturating_add(delta);
            self.total += new - self.counts[rank];
            self.counts[rank] = new;
            self.rebin_v1(rank as u32);
        }

        /// v1's `age`: halves every nonzero count and rebins it, in rank
        /// order.
        fn age_v1(&mut self) {
            self.total = 0;
            for rank in 0..self.counts.len() {
                let c = self.counts[rank];
                if c == 0 {
                    continue;
                }
                let halved = c / 2;
                self.counts[rank] = halved;
                self.total += halved;
                self.rebin_v1(rank as u32);
            }
        }

        /// v1's `rebin`: moves `rank` to the bin its current count
        /// demands, if different, by swap-remove and push.
        fn rebin_v1(&mut self, rank: u32) {
            let (old_bin, pos) = self.slots[rank as usize];
            let new_bin = bin_for_count(self.counts[rank as usize]) as u8;
            if new_bin == old_bin {
                return;
            }
            let seg = &mut self.segs[old_bin as usize];
            seg.len -= 1;
            let moved_rank = self.arena[(seg.off + seg.len) as usize];
            self.arena[(seg.off + pos) as usize] = moved_rank;
            self.slots[moved_rank as usize].1 = pos;
            let seg = self.segs[new_bin as usize];
            if seg.len == seg.cap {
                self.grow_bin(new_bin);
            }
            let seg = &mut self.segs[new_bin as usize];
            self.arena[(seg.off + seg.len) as usize] = rank;
            self.slots[rank as usize] = (new_bin, seg.len);
            seg.len += 1;
        }
    }

    #[test]
    fn bin_boundaries_double() {
        assert_eq!(bin_for_count(0), 0);
        assert_eq!(bin_for_count(1), 1);
        assert_eq!(bin_for_count(2), 2);
        assert_eq!(bin_for_count(3), 2);
        assert_eq!(bin_for_count(4), 3);
        assert_eq!(bin_for_count(7), 3);
        assert_eq!(bin_for_count(8), 4);
        assert_eq!(bin_for_count(u64::MAX), NUM_BINS - 1);
    }

    #[test]
    fn new_histogram_is_all_zero_bin() {
        let h = AccessHistogram::new(region(10));
        assert!((100..110).all(|p| h.bin_of(PageId(p)) == 0));
        assert_eq!(h.total(), 0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn add_rebins() {
        let mut h = AccessHistogram::new(region(4));
        h.add(PageId(100), 5);
        assert_eq!(h.bin_of(PageId(100)), 3);
        assert_eq!(h.count(PageId(100)), 5);
        h.add(PageId(100), 3); // now 8 -> bin 4
        assert_eq!(h.bin_of(PageId(100)), 4);
        assert_eq!(h.total(), 8);
        h.add(PageId(101), 0); // no-op
        assert_eq!(h.bin_of(PageId(101)), 0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn age_halves_and_rebins() {
        let mut h = AccessHistogram::new(region(3));
        h.add(PageId(100), 8);
        h.add(PageId(101), 1);
        h.age();
        assert_eq!(h.count(PageId(100)), 4);
        assert_eq!(h.bin_of(PageId(100)), 3);
        assert_eq!(h.count(PageId(101)), 0);
        assert_eq!(h.bin_of(PageId(101)), 0);
        assert_eq!(h.total(), 4);
        h.check_invariants().unwrap();
    }

    #[test]
    fn repeated_aging_forgets_everything() {
        let mut h = AccessHistogram::new(region(2));
        h.add(PageId(100), 1000);
        for _ in 0..11 {
            h.age();
        }
        assert_eq!(h.total(), 0);
        assert!((100..102).all(|p| h.bin_of(PageId(p)) == 0));
        h.check_invariants().unwrap();
    }

    #[test]
    fn hottest_and_coldest_ordering() {
        let mut h = AccessHistogram::new(region(5));
        h.add(PageId(100), 100);
        h.add(PageId(101), 10);
        h.add(PageId(102), 1);
        // 103, 104 untouched.
        let hot = h.hottest_matching(3, |_| true);
        assert_eq!(hot, vec![PageId(100), PageId(101), PageId(102)]);
        let cold = h.coldest_matching(2, |_| true);
        assert!(cold.contains(&PageId(103)) && cold.contains(&PageId(104)));
        // Hottest falls through to the zero bin when needed.
        let all = h.hottest_matching(5, |_| true);
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], PageId(100));
    }

    #[test]
    fn predicate_filters() {
        let mut h = AccessHistogram::new(region(4));
        for (i, c) in [(0u32, 50u64), (1, 40), (2, 30), (3, 20)] {
            h.add(PageId(100 + i), c);
        }
        let even_only = h.hottest_matching(2, |p| p.0 % 2 == 0);
        assert_eq!(even_only, vec![PageId(100), PageId(102)]);
    }

    /// The scan before it became branch-free: push each match, stop at
    /// the `n`-th.
    fn filtered_scan(
        h: &AccessHistogram,
        n: usize,
        hottest: bool,
        pred: impl Fn(PageId) -> bool,
    ) -> Vec<PageId> {
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        let bins: Vec<usize> = if hottest {
            (0..NUM_BINS).rev().collect()
        } else {
            (0..NUM_BINS).collect()
        };
        for bin in bins {
            for &rank in h.bin_slice(bin) {
                let page = PageId(h.region.base + rank);
                if pred(page) {
                    out.push(page);
                    if out.len() == n {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Both scans return the reference's pages in its order for every
    /// kind of `n` (none, one, around the match count, the region, and
    /// `usize::MAX`, which must not overflow an allocation) and for
    /// always-true, always-false and mixed predicates, through both the
    /// allocating and the buffer-reusing entry points.
    #[test]
    fn scans_match_filtered_reference() {
        let mut x = 0x0bad_5eed_1234_5678u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut buf = vec![PageId(7); 3];
        for len in [1u32, 2, 4, 37, 300] {
            for _ in 0..6 {
                let mut h = AccessHistogram::new(region(len));
                for _ in 0..len * 3 {
                    let r = next();
                    h.add(
                        PageId(100 + (r % len as u64) as u32),
                        r % 3 * (r >> 40 & 0xfff),
                    );
                    if r % 41 == 0 {
                        h.age();
                    }
                }
                let mask = next();
                let preds: [&dyn Fn(PageId) -> bool; 3] = [&|_| true, &|_| false, &|p: PageId| {
                    mask >> (p.0 % 64) & 1 == 1
                }];
                for pred in preds {
                    for hottest in [true, false] {
                        let matches = filtered_scan(&h, usize::MAX, hottest, pred).len();
                        let ns = [
                            0,
                            1,
                            matches.saturating_sub(1),
                            matches,
                            matches + 1,
                            len as usize,
                            usize::MAX,
                        ];
                        for n in ns {
                            let want = filtered_scan(&h, n, hottest, pred);
                            let got = if hottest {
                                h.hottest_matching_into(&mut buf, n, pred);
                                h.hottest_matching(n, pred)
                            } else {
                                h.coldest_matching_into(&mut buf, n, pred);
                                h.coldest_matching(n, pred)
                            };
                            assert_eq!(got, want, "len {len}, n {n}, hottest {hottest}");
                            assert_eq!(buf, want, "len {len}, n {n}, hottest {hottest}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn iter_covers_region() {
        let mut h = AccessHistogram::new(region(3));
        h.add(PageId(101), 2);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[1], (PageId(101), 2));
    }

    #[test]
    #[should_panic(expected = "outside histogram region")]
    fn out_of_region_panics() {
        let mut h = AccessHistogram::new(region(2));
        h.add(PageId(0), 1);
    }

    #[test]
    fn snapshot_preserves_bin_internal_order() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};

        // Build a history-dependent bin layout: several pages in the same
        // bin, arrived via different rebinning paths (swap_remove order).
        let mut h = AccessHistogram::new(region(16));
        let mut x = 0xD1CEu64;
        for _ in 0..800 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.add(PageId(100 + (x % 16) as u32), x % 9);
            if x.is_multiple_of(97) {
                h.age();
            }
        }
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        let restored = AccessHistogram::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        restored.check_invariants().unwrap();
        // Tie-broken queries must agree exactly, which requires the
        // bin-internal order to have survived the roundtrip.
        assert_eq!(
            h.hottest_matching(16, |_| true),
            restored.hottest_matching(16, |_| true)
        );
        assert_eq!(
            h.coldest_matching(16, |_| true),
            restored.coldest_matching(16, |_| true)
        );
        // And re-encoding the restored histogram is byte-identical.
        let mut w2 = SnapWriter::new();
        restored.snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn snapshot_rejects_inconsistent_state() {
        use mtat_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

        let mut h = AccessHistogram::new(region(4));
        h.add(PageId(100), 9);
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the total (last 8 bytes) — counts no longer sum to it.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        let got = AccessHistogram::unsnap(&mut SnapReader::new(&bytes));
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn stress_rebinning_consistency() {
        let mut h = AccessHistogram::new(region(64));
        // Deterministic pseudo-random walk of adds and ages.
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let rank = (x % 64) as u32;
            let delta = x % 37;
            h.add(PageId(100 + rank), delta);
            if step % 257 == 0 {
                h.age();
            }
        }
        h.check_invariants().unwrap();
    }

    /// Keeps the lowest `k` set bits of `x`.
    fn lowest_bits(mut x: u64, k: u32) -> u64 {
        let mut kept = 0;
        for _ in 0..k {
            if x == 0 {
                break;
            }
            kept |= x & x.wrapping_neg();
            x &= x - 1;
        }
        kept
    }

    /// A touched pattern over `n` ranks from `seed`, word by word: empty,
    /// 1–6, 7 or 8 ranks (either side of the record kernel's threshold),
    /// about half the word, or all of it. Bits past `n` are clear, as
    /// the sampler leaves them.
    fn touched_words(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut words: Vec<u64> = (0..n.div_ceil(64))
            .map(|_| {
                let r = next();
                match next() % 6 {
                    0 => 0,
                    1 => lowest_bits(r, 1 + (r >> 59) as u32 % 6),
                    2 => lowest_bits(r, 7),
                    3 => lowest_bits(r, 8),
                    4 => r,
                    _ => u64::MAX,
                }
            })
            .collect();
        if !n.is_multiple_of(64) {
            *words.last_mut().unwrap() &= u64::MAX >> (64 - n % 64);
        }
        words
    }

    /// Estimates for `n` ranks from `seed`, on every rank (the untouched
    /// ones must not be recorded): zero, multiples of the paper's period
    /// 1009, small raw counts, and counts in the clamped top bin, both in
    /// [2⁴⁶, 2⁴⁷), which aging drops to bin 46, and in [2⁴⁷, 2⁴⁸), which
    /// stay in the top bin. With `giant`, rank `giant % n` instead reads
    /// near `u64::MAX` and every other rank zero, so its count saturates
    /// while the total stays below 2⁶⁴.
    fn estimates(n: usize, seed: u64, giant: Option<usize>) -> Vec<u64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        if let Some(g) = giant {
            let mut est = vec![0; n];
            est[g % n] = u64::MAX - next() % 4096;
            return est;
        }
        (0..n)
            .map(|_| {
                let r = next();
                match r % 5 {
                    0 => 0,
                    1 => 1009 * (r >> 50),
                    2 => r >> 60,
                    3 => 1 << 46 | r >> 18,
                    _ => 1 << 47 | r >> 17,
                }
            })
            .collect()
    }

    /// The ranks a batch of `est` over `ranks` moves to another bin, in
    /// order: what the rebin pass must see.
    fn bin_changes(h: &AccessHistogram, ranks: &[usize], est: &[u64]) -> Vec<u32> {
        ranks
            .iter()
            .filter(|&&r| {
                bin_for_count(h.counts[r]) != bin_for_count(h.counts[r].saturating_add(est[r]))
            })
            .map(|&r| r as u32)
            .collect()
    }

    fn snap_bytes(h: &AccessHistogram) -> Vec<u8> {
        use mtat_snapshot::{Snap, SnapWriter};
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        w.into_bytes()
    }

    /// `h` restored from its own snapshot on the same kernel: the arena
    /// rebuilt with no headroom in any segment, so the next push into
    /// any bin grows it.
    fn restored(h: &AccessHistogram) -> AccessHistogram {
        use mtat_snapshot::{Snap, SnapReader};
        let bytes = snap_bytes(h);
        let mut r = AccessHistogram::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        r.kernel = h.kernel;
        r
    }

    /// The shift-down walk leaves every histogram of a long history
    /// exactly as v1's per-rank aging does, through restores whose tight
    /// segments make the walk's pushes grow bins, and through at least
    /// one compaction of the arena inside a walk.
    #[test]
    fn age_walk_matches_v1_through_grow_and_compact() {
        let n = 300;
        let mut reference = AccessHistogram::new(region(n as u32));
        let mut h = reference.clone();
        let (mut grew, mut compacted) = (false, false);
        for step in 0..40u64 {
            let est = estimates(n, step.wrapping_mul(0x9e37_79b9_7f4a_7c15), None);
            for (r, &e) in est.iter().enumerate() {
                if !(r as u64 + step).is_multiple_of(3) {
                    reference.add_rank_v1(r as u32, e);
                    h.add_rank(r as u32, e);
                }
            }
            if step % 4 == 0 {
                h = restored(&h);
            }
            let (arena, garbage) = (h.arena.len(), h.garbage);
            for _ in 0..1 + step % 3 {
                reference.age_v1();
                h.age();
                assert_eq!(snap_bytes(&h), snap_bytes(&reference), "step {step}");
            }
            grew |= h.arena.len() > arena;
            compacted |= h.garbage < garbage;
            h.check_invariants().unwrap();
        }
        assert!(grew && compacted, "grew {grew}, compacted {compacted}");
    }

    mod v1_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `record` on every kernel, `add_ranks` and a loop of
            /// `add_rank` each leave the histogram exactly as v1's loop of
            /// per-call rebins does, and `age` exactly as v1's per-rank
            /// walk (same `Snap` bytes: counts, total, bins, bin order and
            /// slots), and `record`'s count pass hands the rebin pass the
            /// ranks that changed bin in ascending order. The histories
            /// mix touched and all-dirty batches, agings, and restores
            /// through `unsnap`, over buffers whose last word is partial,
            /// full or the only one; counts reach both halves of the top
            /// bin, and one history in seven saturates a count.
            #[test]
            fn rebin_passes_and_aging_match_v1(
                n_pick in 0usize..6,
                steps in prop::collection::vec((0u8..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..12),
                giant in (0u8..7, 0usize..1000),
            ) {
                let n = [1usize, 63, 64, 65, 127, 300][n_pick];
                let giant = (giant.0 == 0).then_some(giant.1);
                let mut reference = AccessHistogram::new(region(n as u32));
                // One histogram per record kernel, then the `add_ranks`
                // and the `add_rank` one.
                let kernels = Kernel::available();
                let mut hists = vec![reference.clone(); kernels.len() + 2];
                for (h, &kernel) in hists.iter_mut().zip(&kernels) {
                    h.kernel = kernel;
                }
                let mut moved = Vec::new();
                for &(kind, touch_seed, est_seed) in &steps {
                    match kind {
                        0 | 1 => {
                            reference.age_v1();
                            for h in &mut hists {
                                h.age();
                            }
                        }
                        2 => {
                            for h in &mut hists {
                                *h = restored(h);
                            }
                        }
                        _ => {
                            // One batch in five is all-dirty.
                            let touched = if kind == 3 {
                                TouchedSet::default()
                            } else {
                                TouchedSet::from_words(touched_words(n, touch_seed))
                            };
                            let ranks: Vec<usize> = if touched.is_all() {
                                (0..n).collect()
                            } else {
                                touched.iter_ranks().collect()
                            };
                            let est = estimates(n, est_seed, giant);
                            let want_moved = bin_changes(&reference, &ranks, &est);
                            for &r in &ranks {
                                reference.add_rank_v1(r as u32, est[r]);
                            }
                            let (record, rest) = hists.split_at_mut(kernels.len());
                            for h in record {
                                let k = h.record_counted(&est, &touched, &mut moved);
                                assert_eq!(&moved[..k], &want_moved[..], "{:?}", h.kernel);
                            }
                            rest[0].add_ranks(ranks.iter().copied(), &est, &mut moved);
                            for &r in &ranks {
                                rest[1].add_rank(r as u32, est[r]);
                            }
                        }
                    }
                    let want = snap_bytes(&reference);
                    for (i, h) in hists.iter().enumerate() {
                        assert_eq!(snap_bytes(h), want, "histogram {i}, step kind {kind}");
                    }
                }
                for h in &hists {
                    h.check_invariants().unwrap();
                }
            }

            /// `add_ranks` leaves the histogram exactly as v1's loop of
            /// `add_rank` over the same ranks does — counts, every bin's
            /// internal order, slots and total, compared as `Snap` bytes —
            /// across batches on the dense `0..n` path and on ascending
            /// sparse subsets, with aging in between (`age` on one side,
            /// v1's walk on the other). One case in five sends a single
            /// rank estimates near `u64::MAX`, so its count saturates in
            /// the clamped top bin (one such rank at a time: two would
            /// overflow the total).
            #[test]
            fn add_ranks_matches_add_rank_loop(
                n in 1usize..MAX_PAGES + 1,
                saturate in 0usize..5 * MAX_PAGES,
                batches in prop::collection::vec(
                    (
                        prop::bool::ANY,
                        prop::collection::vec((prop::bool::ANY, estimate()), MAX_PAGES),
                        prop::bool::ANY,
                    ),
                    1..10,
                ),
            ) {
                let region = PageRegion { base: 11, n_pages: n as u32 };
                let mut batched = AccessHistogram::new(region);
                let mut looped = AccessHistogram::new(region);
                let mut moved = Vec::new();
                for (dense, pages, age) in batches {
                    let est: Vec<u64> = pages[..n]
                        .iter()
                        .enumerate()
                        .map(|(r, &(_, e))| {
                            if saturate >= MAX_PAGES {
                                e
                            } else if r == saturate % n {
                                u64::MAX - e % 4
                            } else {
                                0
                            }
                        })
                        .collect();
                    if age {
                        batched.age();
                        looped.age_v1();
                    }
                    let ranks: Vec<usize> = (0..n).filter(|&r| dense || pages[r].0).collect();
                    if dense {
                        batched.add_ranks(0..n, &est, &mut moved);
                    } else {
                        batched.add_ranks(ranks.iter().copied(), &est, &mut moved);
                    }
                    for &r in &ranks {
                        looped.add_rank_v1(r as u32, est[r]);
                    }
                    prop_assert_eq!(snap_bytes(&batched), snap_bytes(&looped));
                }
                prop_assert!(batched.check_invariants().is_ok());
            }
        }

        /// Largest region `add_ranks_matches_add_rank_loop` draws.
        const MAX_PAGES: usize = 300;

        /// One estimate as the tracker receives it: zero, a multiple of
        /// the paper's sampling period 1009, a small raw count, or a
        /// count in the clamped top bin (≥ 2⁴⁶; below 2⁵⁰, so 300 pages
        /// over nine batches cannot overflow the total).
        fn estimate() -> impl Strategy<Value = u64> {
            (0u8..4, 0u64..1 << 50).prop_map(|(kind, x)| match kind {
                0 => 0,
                1 => (x % 200 + 1) * 1009,
                2 => x % 4096 + 1,
                _ => 1 << 46 | x,
            })
        }
    }

    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Snapshot/restore of an arbitrary add/age history preserves
            /// every observable: totals, per-rank counts, the exact
            /// tie-breaking order of hottest/coldest scans (bin-internal
            /// order is history-dependent), and the internal invariants.
            #[test]
            fn roundtrip_preserves_arbitrary_histories(
                ops in prop::collection::vec(
                    (0u32..24, 0u64..40, prop::bool::ANY),
                    0..200,
                ),
            ) {
                use mtat_snapshot::{Snap, SnapReader, SnapWriter};

                let mut h = AccessHistogram::new(region(24));
                for &(page, count, do_age) in &ops {
                    h.add(PageId(100 + page), count);
                    if do_age {
                        h.age();
                    }
                }

                let mut w = SnapWriter::new();
                h.snap(&mut w);
                let bytes = w.into_bytes();
                let restored = AccessHistogram::unsnap(&mut SnapReader::new(&bytes)).unwrap();

                prop_assert_eq!(restored.total(), h.total());
                prop_assert_eq!(
                    restored.hottest_matching(24, |_| true),
                    h.hottest_matching(24, |_| true)
                );
                prop_assert_eq!(
                    restored.coldest_matching(24, |_| true),
                    h.coldest_matching(24, |_| true)
                );
                restored.check_invariants().unwrap();

                // Re-serializing yields the same bytes: the codec has a
                // canonical form.
                let mut w2 = SnapWriter::new();
                restored.snap(&mut w2);
                prop_assert_eq!(bytes, w2.into_bytes());
            }
        }
    }
}
