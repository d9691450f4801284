//! Request routing: per-epoch fleet demand → per-shard offered load.
//!
//! Routing is **deterministic pure arithmetic** — no RNG, no shared
//! state, no dependence on the order shards execute in. The router sees
//! the demand matrix from [`crate::traffic`] and a per-epoch capacity
//! for every shard (the level cap, reduced for shards being drained
//! during a fault window), and produces the offered-load level each
//! shard plays back as its LC `LoadPattern::Steps` trace.
//!
//! Three policies span the realism spectrum:
//!
//! * [`RoutingPolicy::StaticHash`] — pure key-affinity routing. Each
//!   shard gets exactly its demand, clipped at capacity; the excess is
//!   dropped (a real fleet would shed or queue it). Hot shards overload
//!   under skew — the baseline the smarter routers are judged against.
//! * [`RoutingPolicy::LeastLoaded`] — an idealized global balancer that
//!   ignores affinity entirely and water-fills the total demand across
//!   shard capacities (every shard ends at the common level λ or at its
//!   cap). Best-case load spreading, worst-case cache locality.
//! * [`RoutingPolicy::HotShardAware`] — bounded-load consistent
//!   hashing: affinity is honoured up to a hot threshold
//!   `hot_mult × mean demand`, and only the excess spills, water-filled
//!   into the remaining headroom of colder shards. The practical
//!   middle ground.

use crate::traffic::FleetTraffic;

/// How fleet demand is assigned to shards each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Pure key-affinity: demand clipped at capacity, excess dropped.
    StaticHash,
    /// Capacity-aware water-filling of total demand, ignoring affinity.
    LeastLoaded,
    /// Affinity up to `hot_mult × mean`, spill water-filled to colder
    /// shards.
    HotShardAware {
        /// Hot threshold as a multiple of the epoch's mean demand.
        hot_mult: f64,
    },
}

impl RoutingPolicy {
    /// Parses a CLI name: `static`, `least`, or `hot[:MULT]`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" | "static_hash" => Some(RoutingPolicy::StaticHash),
            "least" | "least_loaded" => Some(RoutingPolicy::LeastLoaded),
            "hot" | "hot_shard" => Some(RoutingPolicy::HotShardAware { hot_mult: 1.25 }),
            _ => {
                let mult = s.strip_prefix("hot:")?.parse::<f64>().ok()?;
                (mult.is_finite() && mult >= 1.0)
                    .then_some(RoutingPolicy::HotShardAware { hot_mult: mult })
            }
        }
    }

    /// Stable label for artifacts and logs.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RoutingPolicy::StaticHash => "static_hash".into(),
            RoutingPolicy::LeastLoaded => "least_loaded".into(),
            RoutingPolicy::HotShardAware { hot_mult } => format!("hot_shard:{hot_mult}"),
        }
    }
}

/// Router configuration shared by every epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterCfg {
    /// The assignment policy.
    pub policy: RoutingPolicy,
    /// Whether the router drains shards under active fault windows (a
    /// drained shard's capacity is [`DRAIN_FRAC`] of [`LEVEL_CAP`]). Off
    /// by default so fault confinement holds by construction: with no
    /// drain, routing is independent of the fault planes and untargeted
    /// shards replay bit-identically to a fault-free fleet.
    ///
    /// [`DRAIN_FRAC`]: crate::fleet::DRAIN_FRAC
    /// [`LEVEL_CAP`]: crate::fleet::LEVEL_CAP
    pub drain: bool,
}

impl Default for RouterCfg {
    fn default() -> Self {
        Self {
            policy: RoutingPolicy::HotShardAware { hot_mult: 1.25 },
            drain: false,
        }
    }
}

/// The routed assignment: per-shard offered-load traces plus what was
/// shed.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// Offered level per shard per epoch (`levels[shard][epoch]`) —
    /// transposed from the demand matrix so each shard's trace is
    /// contiguous for `LoadPattern::Steps`.
    pub levels: Vec<Vec<f64>>,
    /// Demand dropped per epoch (shard-load units).
    pub dropped: Vec<f64>,
}

impl Routed {
    /// Total dropped demand across the run.
    #[must_use]
    pub fn total_dropped(&self) -> f64 {
        self.dropped.iter().sum()
    }
}

/// Water-fills `target` units of load across `caps`: every shard is
/// assigned `min(cap_i, λ)` for the common level λ at which the
/// assignment sums to `min(target, Σcaps)`. Deterministic sequential
/// arithmetic; ties broken by shard index via a stable sort on the cap
/// bit pattern.
#[must_use]
pub fn waterfill(caps: &[f64], target: f64) -> Vec<f64> {
    let n = caps.len();
    let mut out = vec![0.0; n];
    if n == 0 || target <= 0.0 {
        return out;
    }
    let total_cap: f64 = caps.iter().sum();
    if target >= total_cap {
        out.copy_from_slice(caps);
        return out;
    }
    // Sort shard indices by capacity; fill the common level upward,
    // freezing shards as they saturate.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (caps[i].to_bits(), i));
    let mut remaining = target;
    let mut live = n;
    for (k, &i) in order.iter().enumerate() {
        let lambda = remaining / live as f64;
        if caps[i] <= lambda {
            out[i] = caps[i];
            remaining -= caps[i];
            live -= 1;
        } else {
            // Every later shard in the order has cap ≥ this one, so all
            // of them take exactly λ.
            for &j in &order[k..] {
                out[j] = lambda;
            }
            break;
        }
    }
    out
}

/// Routes the traffic under `cfg` given per-epoch shard capacities
/// (`caps[epoch][shard]`, already reduced for draining shards).
///
/// # Panics
///
/// Panics if the capacity matrix shape does not match the traffic.
#[must_use]
pub fn route(traffic: &FleetTraffic, caps: &[Vec<f64>], cfg: &RouterCfg) -> Routed {
    let epochs = traffic.epochs();
    assert_eq!(caps.len(), epochs, "capacity matrix epoch mismatch");
    let n = traffic.demand.first().map_or(0, Vec::len);
    let mut levels = vec![vec![0.0; epochs]; n];
    let mut dropped = vec![0.0; epochs];

    for e in 0..epochs {
        let demand = &traffic.demand[e];
        let cap = &caps[e];
        assert_eq!(cap.len(), n, "capacity matrix shard mismatch at epoch {e}");
        let total: f64 = demand.iter().sum();

        let assigned: Vec<f64> = match cfg.policy {
            RoutingPolicy::StaticHash => demand.iter().zip(cap).map(|(&d, &c)| d.min(c)).collect(),
            RoutingPolicy::LeastLoaded => waterfill(cap, total),
            RoutingPolicy::HotShardAware { hot_mult } => {
                let live = cap.iter().filter(|&&c| c > 0.0).count().max(1);
                let theta = hot_mult * total / live as f64;
                // Keep affinity up to the hot threshold (and the cap)…
                let base: Vec<f64> = demand
                    .iter()
                    .zip(cap)
                    .map(|(&d, &c)| d.min(theta).min(c))
                    .collect();
                let spill = total - base.iter().sum::<f64>();
                if spill > 0.0 {
                    // …then water-fill the excess into the headroom
                    // below θ on colder shards, and finally above θ up
                    // to the hard cap if the fleet is saturated.
                    let head_theta: Vec<f64> = base
                        .iter()
                        .zip(cap)
                        .map(|(&b, &c)| (theta.min(c) - b).max(0.0))
                        .collect();
                    let first = waterfill(&head_theta, spill);
                    let placed: f64 = first.iter().sum();
                    let mut out: Vec<f64> = base.iter().zip(&first).map(|(&b, &f)| b + f).collect();
                    let left = spill - placed;
                    if left > 1e-12 {
                        let head_cap: Vec<f64> = out
                            .iter()
                            .zip(cap)
                            .map(|(&o, &c)| (c - o).max(0.0))
                            .collect();
                        let second = waterfill(&head_cap, left);
                        for (o, s) in out.iter_mut().zip(&second) {
                            *o += s;
                        }
                    }
                    out
                } else {
                    base
                }
            }
        };

        let placed: f64 = assigned.iter().sum();
        dropped[e] = (total - placed).max(0.0);
        for (i, &a) in assigned.iter().enumerate() {
            levels[i][e] = a;
        }
    }

    Routed { levels, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::LEVEL_CAP;
    use crate::traffic::{FleetTraffic, TrafficSpec};
    use mtat_workloads::access::AccessPattern;

    fn caps_flat(epochs: usize, n: usize, cap: f64) -> Vec<Vec<f64>> {
        vec![vec![cap; n]; epochs]
    }

    fn skewed_traffic(n: usize) -> FleetTraffic {
        TrafficSpec {
            pattern: AccessPattern::Zipfian { exponent: 0.6 },
            ..TrafficSpec::diurnal(100.0)
        }
        .generate(n, 100.0, 10.0)
        .expect("valid spec")
    }

    #[test]
    fn waterfill_equalizes_below_cap() {
        let fill = waterfill(&[1.0, 1.0, 1.0, 1.0], 2.0);
        assert!(fill.iter().all(|&f| (f - 0.5).abs() < 1e-12));
        let fill = waterfill(&[0.2, 1.0, 1.0], 1.7);
        assert!((fill[0] - 0.2).abs() < 1e-12);
        assert!((fill[1] - 0.75).abs() < 1e-12 && (fill[2] - 0.75).abs() < 1e-12);
        // Saturation clips at total capacity.
        let fill = waterfill(&[0.5, 0.5], 9.0);
        assert_eq!(fill, vec![0.5, 0.5]);
    }

    #[test]
    fn routing_conserves_demand_up_to_drops() {
        let t = skewed_traffic(16);
        for policy in [
            RoutingPolicy::StaticHash,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::HotShardAware { hot_mult: 1.25 },
        ] {
            let cfg = RouterCfg {
                policy,
                ..RouterCfg::default()
            };
            let routed = route(&t, &caps_flat(t.epochs(), 16, LEVEL_CAP), &cfg);
            for e in 0..t.epochs() {
                let placed: f64 = routed.levels.iter().map(|l| l[e]).sum();
                let total = t.total_demand(e);
                assert!(
                    (placed + routed.dropped[e] - total).abs() < 1e-9,
                    "{policy:?} epoch {e}: {placed} + {} != {total}",
                    routed.dropped[e]
                );
                for l in &routed.levels {
                    assert!(l[e] <= LEVEL_CAP + 1e-12, "{policy:?} breached cap");
                }
            }
        }
    }

    #[test]
    fn least_loaded_flattens_skew_that_static_hash_keeps() {
        let t = skewed_traffic(16);
        let e = t.epochs() / 2;
        let spread = |routed: &Routed| {
            let vals: Vec<f64> = routed.levels.iter().map(|l| l[e]).collect();
            let max = vals.iter().cloned().fold(0.0, f64::max);
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        let mk = |policy| {
            let cfg = RouterCfg {
                policy,
                ..RouterCfg::default()
            };
            route(&t, &caps_flat(t.epochs(), 16, LEVEL_CAP), &cfg)
        };
        let sh = mk(RoutingPolicy::StaticHash);
        let ll = mk(RoutingPolicy::LeastLoaded);
        let hot = mk(RoutingPolicy::HotShardAware { hot_mult: 1.25 });
        assert!(
            spread(&ll) < 1e-9,
            "least-loaded must equalize: {}",
            spread(&ll)
        );
        assert!(
            spread(&sh) > 0.1,
            "static hash keeps the skew: {}",
            spread(&sh)
        );
        assert!(
            spread(&hot) < spread(&sh),
            "hot-shard-aware bounds the skew"
        );
    }

    #[test]
    fn hot_shard_aware_caps_hot_shards_at_theta() {
        let t = skewed_traffic(16);
        let hot_mult = 1.25;
        let cfg = RouterCfg {
            policy: RoutingPolicy::HotShardAware { hot_mult },
            ..RouterCfg::default()
        };
        let routed = route(&t, &caps_flat(t.epochs(), 16, LEVEL_CAP), &cfg);
        for e in 0..t.epochs() {
            let total = t.total_demand(e);
            let theta = hot_mult * total / 16.0;
            // Below saturation no shard exceeds θ.
            if total <= theta * 16.0 {
                for l in &routed.levels {
                    assert!(l[e] <= theta + 1e-9);
                }
            }
        }
    }

    #[test]
    fn policy_parse_roundtrip() {
        assert_eq!(
            RoutingPolicy::parse("static"),
            Some(RoutingPolicy::StaticHash)
        );
        assert_eq!(
            RoutingPolicy::parse("least_loaded"),
            Some(RoutingPolicy::LeastLoaded)
        );
        assert_eq!(
            RoutingPolicy::parse("hot:1.5"),
            Some(RoutingPolicy::HotShardAware { hot_mult: 1.5 })
        );
        assert_eq!(RoutingPolicy::parse("hot:0.5"), None);
        assert_eq!(RoutingPolicy::parse("bogus"), None);
        assert_eq!(
            RoutingPolicy::parse("hot").unwrap().label(),
            "hot_shard:1.25"
        );
    }
}
