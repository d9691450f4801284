//! LC-first, time-sliced partition adjustment (§3.3.1, Algorithm 3).
//!
//! When PP-M issues a new partitioning plan, PP-E must migrate data
//! between tiers to realize it. Because every page move competes with
//! the workloads for memory bandwidth, the adjustment is divided into
//! time slices of at most `p_max` page-pairs each, and within every
//! slice the LC workload's movement takes precedence: its promotions
//! (demotions) are matched by demotions (promotions) distributed across
//! the BE workloads *proportionally to their respective demands*, so the
//! migration overhead is fairly shared. Only when the LC workload needs
//! nothing does a slice exchange pages among the BE sets.
//!
//! [`AdjustmentSchedule`] is the stateful scheduler: construct it from
//! the per-workload page deltas, then call
//! [`AdjustmentSchedule::next_slice`] once per tick until
//! [`AdjustmentSchedule::is_complete`].

/// Page movements for one time slice: `(workload index, pages)` with
/// positive = promote (SMem→FMem), negative = demote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMoves {
    /// Per-workload movements, only nonzero entries.
    pub moves: Vec<(usize, i64)>,
}

impl SliceMoves {
    /// Total pages that will physically move (promotions + demotions).
    pub fn total_pages(&self) -> u64 {
        self.moves.iter().map(|&(_, m)| m.unsigned_abs()).sum()
    }

    /// Returns `true` if the slice moves nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// The Algorithm 3 scheduler.
#[derive(Debug, Clone)]
pub struct AdjustmentSchedule {
    /// Remaining page delta per workload (+ promote / − demote).
    deltas: Vec<i64>,
    /// Index of the LC workload within `deltas`.
    lc_index: usize,
    /// `p_max`: page-pair cap per slice.
    p_max: u64,
}

impl AdjustmentSchedule {
    /// Creates a schedule from per-workload page deltas
    /// (`target − current`, in pages) and the LC workload's index.
    ///
    /// # Panics
    ///
    /// Panics if `lc_index` is out of range or `p_max == 0`.
    pub fn new(deltas: Vec<i64>, lc_index: usize, p_max: u64) -> Self {
        assert!(lc_index < deltas.len(), "lc_index out of range");
        assert!(p_max > 0, "p_max must be nonzero");
        Self {
            deltas,
            lc_index,
            p_max,
        }
    }

    /// Returns `true` once every delta has been scheduled.
    pub fn is_complete(&self) -> bool {
        self.deltas.iter().all(|&d| d == 0)
    }

    /// Remaining delta of workload `i` (diagnostics).
    pub fn delta(&self, i: usize) -> i64 {
        self.deltas[i]
    }

    /// Produces the next slice's movements, bounded by
    /// `min(p_max, budget_pairs)` page-pairs, and advances the schedule.
    ///
    /// The LC workload's movement is satisfied first; matching BE
    /// movement (and, if slice capacity remains after the LC demand is
    /// fully scheduled, BE↔BE exchange) is distributed proportionally to
    /// each BE workload's outstanding demand.
    pub fn next_slice(&mut self, budget_pairs: u64) -> SliceMoves {
        let p = self.p_max.min(budget_pairs);
        let mut moves: Vec<i64> = vec![0; self.deltas.len()];
        if p == 0 || self.is_complete() {
            return SliceMoves { moves: Vec::new() };
        }

        // --- LC-first movement ---
        let lc_delta = self.deltas[self.lc_index];
        let m_lc = if lc_delta > 0 {
            (lc_delta as u64).min(p) as i64
        } else if lc_delta < 0 {
            -(((-lc_delta) as u64).min(p) as i64)
        } else {
            0
        };
        if m_lc != 0 {
            moves[self.lc_index] += m_lc;
            self.deltas[self.lc_index] -= m_lc;
            if m_lc > 0 {
                // LC promotions are paired with BE demotions,
                // distributed proportionally to |Δ_i| over the DemoteSet.
                let shares = self.proportional_be(m_lc as u64, false);
                for (i, s) in shares {
                    moves[i] -= s as i64;
                    self.deltas[i] += s as i64;
                }
            } else {
                // LC demotions free FMem for BE promotions.
                let shares = self.proportional_be((-m_lc) as u64, true);
                for (i, s) in shares {
                    moves[i] += s as i64;
                    self.deltas[i] -= s as i64;
                }
            }
        }

        // --- BE↔BE exchange with any slice capacity left ---
        let used = m_lc.unsigned_abs();
        let p_left = p - used.min(p);
        if p_left > 0 && self.deltas[self.lc_index] == 0 {
            let promote_shares = self.proportional_be(p_left, true);
            for (i, s) in promote_shares {
                moves[i] += s as i64;
                self.deltas[i] -= s as i64;
            }
            let demote_shares = self.proportional_be(p_left, false);
            for (i, s) in demote_shares {
                moves[i] -= s as i64;
                self.deltas[i] += s as i64;
            }
        }

        SliceMoves {
            moves: moves
                .into_iter()
                .enumerate()
                .filter(|&(_, m)| m != 0)
                .collect(),
        }
    }

    /// Distributes up to `amount` pages across the BE workloads in the
    /// PromoteSet (`promote = true`, `Δ_i > 0`) or DemoteSet
    /// (`promote = false`, `Δ_i < 0`), proportionally to their remaining
    /// demands, using largest-remainder rounding. Shares are capped by
    /// each workload's remaining demand, so the returned total may be
    /// less than `amount` when demand is scarce.
    fn proportional_be(&self, amount: u64, promote: bool) -> Vec<(usize, u64)> {
        let demands: Vec<(usize, u64)> = self
            .deltas
            .iter()
            .enumerate()
            .filter(|&(i, &d)| i != self.lc_index && if promote { d > 0 } else { d < 0 })
            .map(|(i, &d)| (i, d.unsigned_abs()))
            .collect();
        let total_demand: u64 = demands.iter().map(|&(_, d)| d).sum();
        if total_demand == 0 || amount == 0 {
            return Vec::new();
        }
        let grant = amount.min(total_demand);

        // Largest-remainder apportionment of `grant` over `demands`.
        let mut shares: Vec<(usize, u64, f64)> = demands
            .iter()
            .map(|&(i, d)| {
                let exact = grant as f64 * d as f64 / total_demand as f64;
                (i, exact.floor() as u64, exact - exact.floor())
            })
            .collect();
        let mut assigned: u64 = shares.iter().map(|&(_, s, _)| s).sum();
        // Hand out the remainder to the largest fractional parts, never
        // exceeding a workload's demand.
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            shares[b]
                .2
                .partial_cmp(&shares[a].2)
                .expect("finite fractions")
        });
        let mut k = 0;
        while assigned < grant && k < order.len() * 2 {
            let idx = order[k % order.len()];
            let demand = demands[idx].1;
            if shares[idx].1 < demand {
                shares[idx].1 += 1;
                assigned += 1;
            }
            k += 1;
        }
        shares
            .into_iter()
            .filter(|&(_, s, _)| s > 0)
            .map(|(i, s, _)| (i, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a schedule, returning every slice and checking conservation.
    fn drain(mut s: AdjustmentSchedule, budget: u64) -> Vec<SliceMoves> {
        let mut out = Vec::new();
        let mut guard = 0;
        while !s.is_complete() {
            let slice = s.next_slice(budget);
            assert!(!slice.is_empty(), "no progress: {:?}", s);
            out.push(slice);
            guard += 1;
            assert!(guard < 10_000, "schedule did not terminate");
        }
        out
    }

    #[test]
    fn lc_promotion_paired_with_be_demotions() {
        // LC needs +100; BE0 must release 60, BE1 release 40.
        let mut s = AdjustmentSchedule::new(vec![100, -60, -40], 0, 30);
        let slice = s.next_slice(u64::MAX);
        // LC gets the full slice (30), BE demotions proportional 60:40.
        let map: std::collections::HashMap<usize, i64> = slice.moves.iter().copied().collect();
        assert_eq!(map[&0], 30);
        assert_eq!(map[&1], -18);
        assert_eq!(map[&2], -12);
        assert_eq!(slice.total_pages(), 60);
    }

    #[test]
    fn lc_demotion_paired_with_be_promotions() {
        let mut s = AdjustmentSchedule::new(vec![-50, 30, 20], 0, 25);
        let slice = s.next_slice(u64::MAX);
        let map: std::collections::HashMap<usize, i64> = slice.moves.iter().copied().collect();
        assert_eq!(map[&0], -25);
        assert_eq!(map[&1], 15);
        assert_eq!(map[&2], 10);
    }

    #[test]
    fn full_drain_conserves_deltas() {
        let deltas = vec![100i64, -60, -40];
        let s = AdjustmentSchedule::new(deltas.clone(), 0, 7);
        let slices = drain(s, u64::MAX);
        let mut applied = vec![0i64; 3];
        for slice in &slices {
            for &(i, m) in &slice.moves {
                applied[i] += m;
            }
        }
        assert_eq!(applied, deltas);
        // Every slice respects p_max pairs (7 promote + 7 demote = 14).
        for slice in &slices {
            assert!(slice.total_pages() <= 14, "{slice:?}");
        }
    }

    #[test]
    fn be_only_exchange_when_lc_idle() {
        let s = AdjustmentSchedule::new(vec![0, 40, -40], 0, 10);
        let slices = drain(s, u64::MAX);
        // Every slice promotes BE1 and demotes BE2 in equal measure.
        for slice in &slices {
            let map: std::collections::HashMap<usize, i64> = slice.moves.iter().copied().collect();
            assert!(!map.contains_key(&0));
            assert_eq!(map[&1], -map[&2]);
        }
        let total: i64 = slices
            .iter()
            .flat_map(|s| s.moves.iter())
            .filter(|&&(i, _)| i == 1)
            .map(|&(_, m)| m)
            .sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn lc_finishes_before_be_exchange_in_same_run() {
        // LC +10 with p_max 25: first slice covers LC fully (10) and
        // uses remaining capacity (15) for BE exchange.
        let mut s = AdjustmentSchedule::new(vec![10, 20, -30], 0, 25);
        let slice = s.next_slice(u64::MAX);
        let map: std::collections::HashMap<usize, i64> = slice.moves.iter().copied().collect();
        assert_eq!(map[&0], 10);
        // BE demotions pair LC promotions (10) plus exchange (15): -25.
        assert_eq!(map[&2], -25);
        // BE promotions come only from the exchange capacity: +15.
        assert_eq!(map[&1], 15);
        assert_eq!(s.delta(0), 0);
    }

    #[test]
    fn unmatched_lc_promotion_uses_free_fmem() {
        // LC +20 but no BE demand at all (free FMem absorbs it).
        let s = AdjustmentSchedule::new(vec![20, 0, 0], 0, 8);
        let slices = drain(s, u64::MAX);
        let total: i64 = slices
            .iter()
            .flat_map(|s| s.moves.iter())
            .map(|&(_, m)| m)
            .sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn budget_limits_slice() {
        let mut s = AdjustmentSchedule::new(vec![100, -100], 0, 50);
        let slice = s.next_slice(5); // engine only granted 5 pairs
        let map: std::collections::HashMap<usize, i64> = slice.moves.iter().copied().collect();
        assert_eq!(map[&0], 5);
        assert_eq!(map[&1], -5);
        // Zero budget produces an empty slice without consuming demand.
        let empty = s.next_slice(0);
        assert!(empty.is_empty());
        assert_eq!(s.delta(0), 95);
    }

    #[test]
    fn zero_deltas_are_complete() {
        assert!(AdjustmentSchedule::new(vec![0, 0, 0], 0, 10).is_complete());
    }

    #[test]
    fn largest_remainder_is_exact() {
        // 10 pages over demands 1:1:1 → 4,3,3 in some order.
        let mut s = AdjustmentSchedule::new(vec![10, -5, -5, -5], 0, 10);
        let slice = s.next_slice(u64::MAX);
        let demoted: u64 = slice
            .moves
            .iter()
            .filter(|&&(i, _)| i != 0)
            .map(|&(_, m)| m.unsigned_abs())
            .sum();
        assert_eq!(demoted, 10);
    }

    #[test]
    #[should_panic(expected = "p_max must be nonzero")]
    fn zero_p_max_panics() {
        let _ = AdjustmentSchedule::new(vec![0], 0, 0);
    }
}
