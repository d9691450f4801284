//! A resumable prefix sort: the standard library's unstable sort,
//! stopped as soon as the prefix a caller reads is final.
//!
//! Every sort that decides physics orders `(key, page)` candidates by
//! key alone, so candidates with equal keys land in whatever order the
//! algorithm leaves them, and that tie order reaches every seeded
//! digest (DESIGN §4h). This module owns that order. It transcribes the
//! exact path that rustc 1.95.0's `slice::sort_unstable_by_key` takes
//! on the 16-byte `Copy` type [`Ranked`] = `(u64, PageId)` (ipnsort, by
//! Lukas Bergdoll and Orson Peters):
//!
//! * up to 20 elements, insertion sort;
//! * above that, a scan for an existing ascending or strictly
//!   descending run covering the whole slice, then quicksort with a
//!   limit of `2 * floor(log2(len))` partitions;
//! * each quicksort step small-sorts up to 32 elements (two stable
//!   8-element sorts, insertion into each half, one bidirectional
//!   merge), falls back to heapsort once the limit is spent, and
//!   otherwise picks a recursive pseudo-median pivot and runs the
//!   branchless cyclic Lomuto partition. A pivot no greater than the
//!   ancestor pivot just left of the slice puts every equal element
//!   left of it, and only the right side is sorted further.
//!
//! std's quicksort finishes each left partition before the right one,
//! and the partitions are disjoint, so sorting them in any order gives
//! the same result. [`PrefixSort`] keeps the pending right partitions
//! on a stack of frames (leftmost on top) and [`PrefixSort::sort_to`]
//! stops once no pending frame starts below the requested prefix: then
//! `v[..k]` holds exactly what the full sort would leave there. The
//! walks that consume a few hundred of several thousand candidates
//! (`ppe::placement::compete_with`) pay only for the partitions their
//! prefix crosses.
//!
//! The code was transcribed from the Rust standard library's
//! `core::slice::sort` (`unstable/mod.rs`, `unstable/quicksort.rs`,
//! `unstable/heapsort.rs`, `shared/mod.rs`, `shared/pivot.rs` and
//! `shared/smallsort.rs`) as rustc 1.95.0 ships it, read from the
//! toolchain's rendered sources under
//! `share/doc/rust/html/src/core/slice/sort/` (the `rust-docs`
//! component). The Rust standard library is licensed MIT OR
//! Apache-2.0, as this repository is. The transcription uses safe
//! indexing in place of std's pointers; each element moves where std
//! moves it, and every comparison std makes is made in the same order.
//! The tests pin it against `sort_unstable_by_key` and against a
//! committed digest of its own output.

use mtat_tiermem::page::PageId;

/// A `(key, page)` candidate as the physics sorts it.
pub type Ranked = (u64, PageId);

/// Key direction of a [`PrefixSort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Order {
    /// Smallest key first: `sort_unstable_by_key(|&(k, _)| k)`.
    #[default]
    Ascending,
    /// Largest key first: `sort_unstable_by_key(|&(k, _)| Reverse(k))`.
    Descending,
}

/// Slices up to this length are insertion-sorted outright.
const MAX_LEN_ALWAYS_INSERTION_SORT: usize = 20;
/// Quicksort hands slices up to this length to the small sort.
const SMALL_SORT_THRESHOLD: usize = 32;
/// Pivot selection recurses into pseudo-medians at this length.
const PSEUDO_MEDIAN_REC_THRESHOLD: usize = 64;

/// One pending quicksort call: `v[start..end]`, whether the pivot at
/// `start - 1` is its ancestor, and its remaining partition limit.
#[derive(Debug, Clone, Copy)]
struct Frame {
    start: usize,
    end: usize,
    ancestor: bool,
    limit: u32,
}

/// A sort of one candidate slice in progress. Hold one per slice
/// across ticks: its frame stack keeps its allocation.
#[derive(Debug, Clone, Default)]
pub struct PrefixSort {
    /// Pending right partitions, leftmost on top. The frames have
    /// distinct partition limits below the first, `2 * floor(log2(len))`,
    /// so the stack stays that short.
    frames: Vec<Frame>,
    /// `v[..done]` is final.
    done: usize,
    order: Order,
}

impl PrefixSort {
    /// Starts sorting `v` by key in `order`. Slices the full sort
    /// finishes without quicksort (up to 20 elements, or one run) are
    /// sorted here; otherwise nothing is final until
    /// [`sort_to`](Self::sort_to).
    pub fn start(&mut self, v: &mut [Ranked], order: Order) {
        self.order = order;
        self.frames.clear();
        self.done = v.len();
        match order {
            Order::Ascending => self.begin(v, &mut |a: &Ranked, b: &Ranked| a.0 < b.0),
            Order::Descending => self.begin(v, &mut |a: &Ranked, b: &Ranked| b.0 < a.0),
        }
    }

    /// Sorts on until `v[..k]` (all of `v` if `k` exceeds its length)
    /// is exactly what `sort_unstable_by_key` leaves there. `v` must be
    /// the slice last passed to [`start`](Self::start), changed only by
    /// earlier `sort_to` calls.
    #[inline]
    pub fn sort_to(&mut self, v: &mut [Ranked], k: usize) {
        if k > self.done {
            match self.order {
                Order::Ascending => self.resume(v, k, &mut |a: &Ranked, b: &Ranked| a.0 < b.0),
                Order::Descending => self.resume(v, k, &mut |a: &Ranked, b: &Ranked| b.0 < a.0),
            }
        }
    }

    /// [`start`](Self::start), then [`sort_to`](Self::sort_to)`(v, k)`:
    /// for callers that read one prefix of known length.
    pub fn sort_prefix(&mut self, v: &mut [Ranked], order: Order, k: usize) {
        self.start(v, order);
        self.sort_to(v, k);
    }

    /// `slice::sort_unstable`'s entry and `ipnsort`.
    fn begin<F: FnMut(&Ranked, &Ranked) -> bool>(&mut self, v: &mut [Ranked], is_less: &mut F) {
        let len = v.len();
        if len < 2 {
            return;
        }
        if len <= MAX_LEN_ALWAYS_INSERTION_SORT {
            insertion_sort_shift_left(v, 1, is_less);
            return;
        }
        let (run_len, was_reversed) = find_existing_run(v, is_less);
        if run_len == len {
            if was_reversed {
                v.reverse();
            }
            return;
        }
        let limit = 2 * (len | 1).ilog2();
        self.frames.push(Frame {
            start: 0,
            end: len,
            ancestor: false,
            limit,
        });
        self.done = 0;
    }

    /// Runs pending frames, leftmost first, until none starts below `k`.
    fn resume<F: FnMut(&Ranked, &Ranked) -> bool>(
        &mut self,
        v: &mut [Ranked],
        k: usize,
        is_less: &mut F,
    ) {
        while let Some(&frame) = self.frames.last() {
            if frame.start >= k {
                break;
            }
            self.frames.pop();
            self.quicksort(v, frame, k, is_less);
        }
        self.done = self.frames.last().map_or(v.len(), |f| f.start);
    }

    /// std's `quicksort` on one frame. The recursion into the left side
    /// becomes the loop's next pass; the right side is pushed as a frame.
    fn quicksort<F: FnMut(&Ranked, &Ranked) -> bool>(
        &mut self,
        v: &mut [Ranked],
        frame: Frame,
        k: usize,
        is_less: &mut F,
    ) {
        let Frame {
            mut start,
            mut end,
            mut ancestor,
            mut limit,
        } = frame;
        loop {
            if start >= k {
                // Only the equal-partition step moves `start`; what is
                // left lies beyond the prefix.
                if start < end {
                    self.frames.push(Frame {
                        start,
                        end,
                        ancestor,
                        limit,
                    });
                }
                return;
            }
            if end - start <= SMALL_SORT_THRESHOLD {
                small_sort_general(&mut v[start..end], is_less);
                return;
            }
            if limit == 0 {
                heapsort(&mut v[start..end], is_less);
                return;
            }
            limit -= 1;
            let pivot_pos = choose_pivot(&v[start..end], is_less);
            // A pivot equal to the ancestor pivot is the slice's minimum:
            // partition into `<= pivot` and `> pivot`, and go on right.
            if ancestor && !is_less(&v[start - 1], &v[start + pivot_pos]) {
                let num_le = partition(&mut v[start..end], pivot_pos, &mut |a, b| !is_less(b, a));
                start += num_le + 1;
                ancestor = false;
                continue;
            }
            let num_lt = partition(&mut v[start..end], pivot_pos, is_less);
            if start + num_lt + 1 < end {
                self.frames.push(Frame {
                    start: start + num_lt + 1,
                    end,
                    ancestor: true,
                    limit,
                });
            }
            end = start + num_lt;
        }
    }
}

/// Length of the run at the start of `v`, and whether it is strictly
/// descending.
fn find_existing_run<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &[Ranked],
    is_less: &mut F,
) -> (usize, bool) {
    let len = v.len();
    if len < 2 {
        return (len, false);
    }
    let mut run_len = 2;
    let strictly_descending = is_less(&v[1], &v[0]);
    if strictly_descending {
        while run_len < len && is_less(&v[run_len], &v[run_len - 1]) {
            run_len += 1;
        }
    } else {
        while run_len < len && !is_less(&v[run_len], &v[run_len - 1]) {
            run_len += 1;
        }
    }
    (run_len, strictly_descending)
}

/// Moves `v[pivot]` to index 0, partitions the rest around it, and puts
/// it between the sides. Returns how many elements are `is_less` than
/// the pivot, which is now the pivot's index.
fn partition<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &mut [Ranked],
    pivot: usize,
    is_less: &mut F,
) -> usize {
    if v.is_empty() {
        return 0;
    }
    v.swap(0, pivot);
    let (head, rest) = v.split_at_mut(1);
    let num_lt = partition_lomuto_branchless_cyclic(rest, &head[0], is_less);
    v.swap(0, num_lt);
    num_lt
}

/// Lomuto partition as one cyclic permutation: the first element is
/// lifted out, every later one is written into the gap the previous
/// step left, and the lifted element closes the cycle last.
fn partition_lomuto_branchless_cyclic<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &mut [Ranked],
    pivot: &Ranked,
    is_less: &mut F,
) -> usize {
    let len = v.len();
    if len == 0 {
        return 0;
    }
    let gap_value = v[0];
    let mut gap_pos = 0;
    let mut num_lt = 0;
    for right in 1..=len {
        let value = if right < len { v[right] } else { gap_value };
        let right_is_lt = is_less(&value, pivot);
        v[gap_pos] = v[num_lt];
        v[num_lt] = value;
        gap_pos = right;
        num_lt += right_is_lt as usize;
    }
    num_lt
}

/// Pseudo-median of `v` (at least 8 elements): median of three samples
/// below 64 elements, of three recursive pseudo-medians above.
fn choose_pivot<F: FnMut(&Ranked, &Ranked) -> bool>(v: &[Ranked], is_less: &mut F) -> usize {
    let len = v.len();
    let len_div_8 = len / 8;
    let (a, b, c) = (0, len_div_8 * 4, len_div_8 * 7);
    if len < PSEUDO_MEDIAN_REC_THRESHOLD {
        median3(v, a, b, c, is_less)
    } else {
        median3_rec(v, a, b, c, len_div_8, is_less)
    }
}

/// Approximate median of the regions of `n` elements at `a`, `b` and
/// `c`, recursing into eighths while a region holds 8 or more.
fn median3_rec<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &[Ranked],
    mut a: usize,
    mut b: usize,
    mut c: usize,
    n: usize,
    is_less: &mut F,
) -> usize {
    if n * 8 >= PSEUDO_MEDIAN_REC_THRESHOLD {
        let n8 = n / 8;
        a = median3_rec(v, a, a + n8 * 4, a + n8 * 7, n8, is_less);
        b = median3_rec(v, b, b + n8 * 4, b + n8 * 7, n8, is_less);
        c = median3_rec(v, c, c + n8 * 4, c + n8 * 7, n8, is_less);
    }
    median3(v, a, b, c, is_less)
}

/// Index of the median of `v[a]`, `v[b]` and `v[c]`.
fn median3<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &[Ranked],
    a: usize,
    b: usize,
    c: usize,
    is_less: &mut F,
) -> usize {
    let x = is_less(&v[a], &v[b]);
    let y = is_less(&v[a], &v[c]);
    if x == y {
        // a is the minimum or the maximum: the median is the max (x =
        // false) or the min (x = true) of b and c.
        let z = is_less(&v[b], &v[c]);
        if z ^ x {
            c
        } else {
            b
        }
    } else {
        a
    }
}

/// Sorts `v[..=tail]`, given `v[..tail]` sorted (`tail >= 1`).
fn insert_tail<F: FnMut(&Ranked, &Ranked) -> bool>(v: &mut [Ranked], tail: usize, is_less: &mut F) {
    let tmp = v[tail];
    let mut sift = tail - 1;
    if !is_less(&tmp, &v[sift]) {
        return;
    }
    let mut gap = tail;
    loop {
        v[gap] = v[sift];
        gap = sift;
        if sift == 0 {
            break;
        }
        sift -= 1;
        if !is_less(&tmp, &v[sift]) {
            break;
        }
    }
    v[gap] = tmp;
}

/// Sorts `v`, given `v[..offset]` sorted (`offset >= 1`).
fn insertion_sort_shift_left<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &mut [Ranked],
    offset: usize,
    is_less: &mut F,
) {
    for tail in offset..v.len() {
        insert_tail(v, tail, is_less);
    }
}

/// Sorts `v` of up to [`SMALL_SORT_THRESHOLD`] elements: each half is
/// presorted (8 elements at a time from 16 elements up, 4 from 8) and
/// insertion-sorted into a scratch copy, then the halves merge back.
fn small_sort_general<F: FnMut(&Ranked, &Ranked) -> bool>(v: &mut [Ranked], is_less: &mut F) {
    let len = v.len();
    if len < 2 {
        return;
    }
    let mut buf = [v[0]; SMALL_SORT_THRESHOLD];
    let scratch = &mut buf[..len];
    let len_div_2 = len / 2;
    let presorted_len = if len >= 16 {
        sort8_stable(&v[..8], &mut scratch[..8], is_less);
        sort8_stable(
            &v[len_div_2..len_div_2 + 8],
            &mut scratch[len_div_2..len_div_2 + 8],
            is_less,
        );
        8
    } else if len >= 8 {
        sort4_stable(&v[..4], &mut scratch[..4], is_less);
        sort4_stable(
            &v[len_div_2..len_div_2 + 4],
            &mut scratch[len_div_2..len_div_2 + 4],
            is_less,
        );
        4
    } else {
        scratch[0] = v[0];
        scratch[len_div_2] = v[len_div_2];
        1
    };
    for offset in [0, len_div_2] {
        let desired_len = if offset == 0 {
            len_div_2
        } else {
            len - len_div_2
        };
        let half = &mut scratch[offset..offset + desired_len];
        for i in presorted_len..desired_len {
            half[i] = v[offset + i];
            insert_tail(half, i, is_less);
        }
    }
    bidirectional_merge(scratch, v, is_less);
}

/// Stable sort of `src[..4]` into `dst[..4]` with five comparisons.
fn sort4_stable<F: FnMut(&Ranked, &Ranked) -> bool>(
    src: &[Ranked],
    dst: &mut [Ranked],
    is_less: &mut F,
) {
    // Two ordered pairs (a, b) and (c, d).
    let c1 = is_less(&src[1], &src[0]);
    let c2 = is_less(&src[3], &src[2]);
    let a = c1 as usize;
    let b = !c1 as usize;
    let c = 2 + c2 as usize;
    let d = 2 + !c2 as usize;
    // The minimum, the maximum, and the two middle elements in order
    // of their position.
    let c3 = is_less(&src[c], &src[a]);
    let c4 = is_less(&src[d], &src[b]);
    let min = if c3 { c } else { a };
    let max = if c4 { b } else { d };
    let unknown_left = if c3 {
        a
    } else if c4 {
        c
    } else {
        b
    };
    let unknown_right = if c4 {
        d
    } else if c3 {
        b
    } else {
        c
    };
    let c5 = is_less(&src[unknown_right], &src[unknown_left]);
    let lo = if c5 { unknown_right } else { unknown_left };
    let hi = if c5 { unknown_left } else { unknown_right };
    dst[0] = src[min];
    dst[1] = src[lo];
    dst[2] = src[hi];
    dst[3] = src[max];
}

/// Stable sort of `src[..8]` into `dst[..8]`: two [`sort4_stable`]s
/// and one merge.
fn sort8_stable<F: FnMut(&Ranked, &Ranked) -> bool>(
    src: &[Ranked],
    dst: &mut [Ranked],
    is_less: &mut F,
) {
    let mut tmp = [src[0]; 8];
    sort4_stable(&src[..4], &mut tmp[..4], is_less);
    sort4_stable(&src[4..8], &mut tmp[4..], is_less);
    bidirectional_merge(&tmp, dst, is_less);
}

/// Merges the sorted halves `src[..len / 2]` and `src[len / 2..]` into
/// `dst`, from both ends at once (`len >= 2`).
fn bidirectional_merge<F: FnMut(&Ranked, &Ranked) -> bool>(
    src: &[Ranked],
    dst: &mut [Ranked],
    is_less: &mut F,
) {
    let len = src.len();
    let len_div_2 = len / 2;
    let (mut left, mut right, mut out) = (0, len_div_2, 0);
    let (mut left_rev, mut right_rev, mut out_rev) = (len_div_2 - 1, len - 1, len - 1);
    for _ in 0..len_div_2 {
        // The smaller head goes to the front; the left wins ties.
        let is_l = !is_less(&src[right], &src[left]);
        dst[out] = if is_l { src[left] } else { src[right] };
        right += !is_l as usize;
        left += is_l as usize;
        out += 1;
        // The larger tail goes to the back; the right wins ties.
        let is_l = !is_less(&src[right_rev], &src[left_rev]);
        dst[out_rev] = if is_l { src[right_rev] } else { src[left_rev] };
        right_rev = right_rev.wrapping_sub(is_l as usize);
        left_rev = left_rev.wrapping_sub(!is_l as usize);
        out_rev = out_rev.wrapping_sub(1);
    }
    let left_end = left_rev.wrapping_add(1);
    let right_end = right_rev.wrapping_add(1);
    if !len.is_multiple_of(2) {
        let left_nonempty = left < left_end;
        dst[out] = if left_nonempty { src[left] } else { src[right] };
        left += left_nonempty as usize;
        right += !left_nonempty as usize;
    }
    assert!(
        left == left_end && right == right_end,
        "comparison does not implement a total order"
    );
}

/// Heapsort, the fallback once quicksort's partition limit is spent.
fn heapsort<F: FnMut(&Ranked, &Ranked) -> bool>(v: &mut [Ranked], is_less: &mut F) {
    #[cfg(test)]
    HEAPSORTS.with(|c| c.set(c.get() + 1));
    let len = v.len();
    for i in (0..len + len / 2).rev() {
        let sift_idx = if i >= len {
            i - len
        } else {
            v.swap(0, i);
            0
        };
        sift_down(&mut v[..i.min(len)], sift_idx, is_less);
    }
}

/// Restores the max-heap property below `node`.
fn sift_down<F: FnMut(&Ranked, &Ranked) -> bool>(
    v: &mut [Ranked],
    mut node: usize,
    is_less: &mut F,
) {
    let len = v.len();
    loop {
        let mut child = 2 * node + 1;
        if child >= len {
            break;
        }
        if child + 1 < len {
            child += is_less(&v[child], &v[child + 1]) as usize;
        }
        if !is_less(&v[node], &v[child]) {
            break;
        }
        v.swap(node, child);
        node = child;
    }
}

#[cfg(test)]
thread_local! {
    /// Heapsort calls on this thread, so a test can tell it reached the
    /// fallback.
    static HEAPSORTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // std's sort is the reference here
mod tests {
    use super::*;
    use mtat_snapshot::fnv1a64;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` candidates with distinct pages in index order. `keys`
    /// picks how many distinct keys: 0 one, 1 two, 2 eight, 3 about
    /// √len, 4 all distinct. `shape`: 0 random, 1 ascending keys, 2
    /// descending keys, 3 and 4 the same with one pair swapped.
    fn input(len: usize, keys: usize, shape: usize, seed: u64) -> Vec<Ranked> {
        let mut s = seed;
        let distinct = match keys {
            0 => 1,
            1 => 2,
            2 => 8,
            3 => (len as f64).sqrt() as u64 + 1,
            _ => u64::MAX,
        };
        let mut ks: Vec<u64> = (0..len).map(|_| splitmix(&mut s) % distinct).collect();
        match shape {
            1 | 3 => ks.sort(),
            2 | 4 => ks.sort_by_key(|&k| Reverse(k)),
            _ => {}
        }
        if shape >= 3 && len >= 2 {
            let i = (splitmix(&mut s) % len as u64) as usize;
            let j = (splitmix(&mut s) % len as u64) as usize;
            ks.swap(i, j);
        }
        ks.into_iter()
            .enumerate()
            .map(|(i, k)| (k, PageId(i as u32)))
            .collect()
    }

    fn std_sorted(v: &[Ranked], order: Order) -> Vec<Ranked> {
        let mut r = v.to_vec();
        match order {
            Order::Ascending => r.sort_unstable_by_key(|&(k, _)| k),
            Order::Descending => r.sort_unstable_by_key(|&(k, _)| Reverse(k)),
        }
        r
    }

    fn order_of(descending: bool) -> Order {
        if descending {
            Order::Descending
        } else {
            Order::Ascending
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Every prefix `sort_to` reports final equals std's, resumed
        /// over one to three calls, and the finished slice equals std's.
        #[test]
        fn prefixes_match_std_on_every_length_path(
            path_and_frac in (0usize..4, 0.0f64..1.0),
            keys_and_shape in (0usize..5, 0usize..5),
            descending in prop::bool::ANY,
            seed in 0u64..u64::MAX,
            cuts in prop::collection::vec(0.0f64..1.0, 1..4),
        ) {
            let (path, frac) = path_and_frac;
            // Up to 20 (insertion sort), 21-32 (one small sort), 33-63
            // (median-of-three pivots), 64 up to 10 K (pseudo-medians).
            let len = match path {
                0 => (frac * 21.0) as usize,
                1 => 21 + (frac * 12.0) as usize,
                2 => 33 + (frac * 31.0) as usize,
                _ => (64.0 * (10_000.0f64 / 64.0).powf(frac)) as usize,
            };
            let (keys, shape) = keys_and_shape;
            let order = order_of(descending);
            let v0 = input(len, keys, shape, seed);
            let reference = std_sorted(&v0, order);
            let mut ks: Vec<usize> = cuts.iter().map(|c| (c * (len + 2) as f64) as usize).collect();
            ks.sort();
            let mut v = v0.clone();
            let mut sort = PrefixSort::default();
            sort.start(&mut v, order);
            for &k in &ks {
                sort.sort_to(&mut v, k);
                let k = k.min(len);
                prop_assert_eq!(&v[..k], &reference[..k]);
            }
            sort.sort_to(&mut v, len);
            prop_assert_eq!(v, reference);
        }
    }

    #[test]
    fn a_finished_sort_reports_everything_final() {
        let mut sort = PrefixSort::default();
        for len in [0, 1, 20, 21, 33, 500] {
            let mut v = input(len, 2, 0, len as u64);
            sort.start(&mut v, Order::Ascending);
            sort.sort_to(&mut v, len);
            assert_eq!(sort.done, len);
            assert!(sort.frames.is_empty());
            assert_eq!(
                v,
                std_sorted(&input(len, 2, 0, len as u64), Order::Ascending)
            );
        }
    }

    #[test]
    fn a_short_prefix_leaves_the_tail_partitions_pending() {
        let mut v = input(5000, 3, 0, 7);
        let mut sort = PrefixSort::default();
        sort.start(&mut v, Order::Descending);
        sort.sort_to(&mut v, 96);
        assert!(sort.done >= 96 && sort.done < 5000, "done = {}", sort.done);
        assert!(!sort.frames.is_empty());
        // Frames are disjoint, leftmost on top.
        let starts: Vec<usize> = sort.frames.iter().rev().map(|f| f.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    }

    /// Sorted and a permutation of the input: the properties heapsort
    /// owes, since no ordinary input reaches it through quicksort.
    #[test]
    fn heapsort_sorts_every_length_and_tie_pattern() {
        for len in [0, 1, 2, 3, 33, 64, 100, 257, 1000] {
            for keys in 0..5 {
                for descending in [false, true] {
                    let v0 = input(len, keys, 0, 31 * len as u64 + keys as u64);
                    let mut v = v0.clone();
                    let before = HEAPSORTS.with(|c| c.get());
                    if descending {
                        heapsort(&mut v, &mut |a: &Ranked, b: &Ranked| b.0 < a.0);
                    } else {
                        heapsort(&mut v, &mut |a: &Ranked, b: &Ranked| a.0 < b.0);
                    }
                    assert_eq!(HEAPSORTS.with(|c| c.get()), before + 1);
                    let sorted = if descending {
                        v.windows(2).all(|w| w[0].0 >= w[1].0)
                    } else {
                        v.windows(2).all(|w| w[0].0 <= w[1].0)
                    };
                    assert!(sorted, "len {len}, keys {keys}, descending {descending}");
                    let mut pages: Vec<u32> = v.iter().map(|&(_, p)| p.0).collect();
                    pages.sort();
                    assert!(pages.iter().copied().eq(0..len as u32));
                }
            }
        }
    }

    /// Keys from McIlroy's adversary ("A Killer Adversary for
    /// Quicksort", 1999) run against std's sort: it fixes each key only
    /// when a comparison needs it, so that pivots come out near the
    /// minimum. Re-sorting the fixed keys repeats every comparison, so
    /// std takes the same path.
    fn killer_keys(n: usize) -> Vec<u64> {
        let gas = n as u64;
        let mut val = vec![gas; n];
        // The smallest key second, so the run scan stops at two.
        val[1] = 0;
        let mut solid = 1;
        let mut candidate = 0;
        let mut items: Vec<usize> = (0..n).collect();
        items.sort_unstable_by(|&x, &y| {
            if val[x] == gas && val[y] == gas {
                if x == candidate {
                    val[x] = solid;
                } else {
                    val[y] = solid;
                }
                solid += 1;
            }
            if val[x] == gas {
                candidate = x;
            } else if val[y] == gas {
                candidate = y;
            }
            val[x].cmp(&val[y])
        });
        val
    }

    #[test]
    fn adversarial_keys_reach_heapsort_and_still_match_std() {
        for n in [200, 1000, 5000] {
            let keys = killer_keys(n);

            let v0: Vec<Ranked> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, PageId(i as u32)))
                .collect();
            let reference = std_sorted(&v0, Order::Ascending);
            let mut v = v0.clone();
            let before = HEAPSORTS.with(|c| c.get());
            let mut sort = PrefixSort::default();
            sort.start(&mut v, Order::Ascending);
            sort.sort_to(&mut v, n / 2);
            assert_eq!(&v[..n / 2], &reference[..n / 2]);
            assert!(sort.frames.len() <= 2 * n.ilog2() as usize);
            sort.sort_to(&mut v, n);
            assert_eq!(v, reference, "n = {n}");
            assert!(HEAPSORTS.with(|c| c.get()) > before, "n = {n}: no heapsort");
        }
    }

    /// Output of the port on seeded inputs, every length path, key
    /// pattern, shape and direction, each resumed once mid-way, plus
    /// direct heapsorts and the adversarial inputs. Minted with rustc 1.95.0, where it equals
    /// std's output; it pins the port if a later std changes.
    const PORT_DIGEST: u64 = 0xdb4369a1a09100f2;

    #[test]
    fn port_output_matches_its_committed_digest() {
        let mut bytes = Vec::new();
        let mut sort = PrefixSort::default();
        let mut seed = 0u64;
        let lens = [
            0, 1, 2, 7, 8, 15, 16, 20, 21, 31, 32, 33, 47, 63, 64, 65, 100, 257, 1000, 4099, 10_000,
        ];
        for len in lens {
            for keys in 0..5 {
                for shape in 0..5 {
                    for descending in [false, true] {
                        seed += 1;
                        let mut v = input(len, keys, shape, seed);
                        sort.start(&mut v, order_of(descending));
                        sort.sort_to(&mut v, len / 3);
                        sort.sort_to(&mut v, len);
                        let mut h = input(len, keys, shape, seed);
                        heapsort(&mut h, &mut |a: &Ranked, b: &Ranked| a.0 < b.0);
                        for &(k, p) in v.iter().chain(&h) {
                            bytes.extend_from_slice(&k.to_le_bytes());
                            bytes.extend_from_slice(&p.0.to_le_bytes());
                        }
                    }
                }
            }
        }
        for n in [200, 1000, 5000] {
            let mut v: Vec<Ranked> = killer_keys(n)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, PageId(i as u32)))
                .collect();
            sort.sort_prefix(&mut v, Order::Ascending, n);
            for &(k, p) in &v {
                bytes.extend_from_slice(&k.to_le_bytes());
                bytes.extend_from_slice(&p.0.to_le_bytes());
            }
        }
        let digest = fnv1a64(&bytes);
        assert_eq!(digest, PORT_DIGEST, "port output moved: {digest:#018x}");
    }
}
