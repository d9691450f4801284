//! Fleet determinism contract: seed derivation, worker-count and
//! execution-order bit-identity, routing conservation, fault
//! confinement.
//!
//! These are the properties `fleet_sim --check` gates in CI, proven
//! here at test scale (small fleets, the cheap heuristic policy) so a
//! regression is caught by `cargo test` before the binary gate runs.

use mtat_fleet::fleet::{DRAIN_FRAC, LEVEL_CAP};
use mtat_fleet::routing::{route, waterfill, RouterCfg, RoutingPolicy};
use mtat_fleet::{shard_seed, Fleet, FleetConfig, ShardFaultPlane, ShardSize, TrafficSpec};
use mtat_tiermem::faults::{FaultKind, FaultPlan};
use mtat_workloads::access::AccessPattern;
use proptest::prelude::*;

fn quick_fleet(n: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(n, seed, 120.0, 10.0);
    cfg.policy = "mtat_full_heuristic".into();
    cfg.shard_size = ShardSize::Tiny;
    cfg
}

/// Workers-1 vs workers-N produce bit-identical per-shard digests and
/// the same aggregate digest — the headline fleet contract.
#[test]
fn fleet_digests_are_worker_count_invariant() {
    let fleet = Fleet::plan(quick_fleet(10, 0xBEEF)).expect("valid config");
    let serial = fleet.run(1);
    for workers in [2, 5, 16] {
        let parallel = fleet.run(workers);
        assert_eq!(
            serial.aggregate_digest, parallel.aggregate_digest,
            "aggregate digest diverged at {workers} workers"
        );
        for (a, b) in serial.shards.iter().zip(&parallel.shards) {
            assert_eq!(
                a.digest, b.digest,
                "shard {} diverged at {workers} workers",
                a.shard
            );
            assert_eq!(a.seed, b.seed);
        }
    }
}

/// Each shard is a pure function of `(config, id)`: running shards in
/// reverse order reproduces the forward digests exactly.
#[test]
fn shard_results_are_execution_order_invariant() {
    let fleet = Fleet::plan(quick_fleet(6, 0xCAFE)).expect("valid config");
    let forward: Vec<u64> = (0..6).map(|i| fleet.run_shard(i).digest).collect();
    let reverse: Vec<u64> = (0..6).rev().map(|i| fleet.run_shard(i).digest).collect();
    for (i, (f, r)) in forward.iter().zip(reverse.iter().rev()).enumerate() {
        assert_eq!(f, r, "shard {i} depends on execution order");
    }
}

/// Chaos on a targeted shard range must not perturb any untargeted
/// shard (router draining off — routing never sees the fault planes).
#[test]
fn fault_planes_are_confined_without_drain() {
    let base = Fleet::plan(quick_fleet(8, 0xD00D)).expect("valid config");
    let mut chaos_cfg = quick_fleet(8, 0xD00D);
    chaos_cfg.faults = vec![ShardFaultPlane {
        shards: 2..4,
        plan: FaultPlan::new(3)
            .with(FaultKind::FaultStorm { intensity: 0.6 }, 20.0, 40.0)
            .with(FaultKind::PpmCrash, 80.0, 10.0),
    }];
    let chaos = Fleet::plan(chaos_cfg).expect("valid config");
    let a = base.run(3);
    let b = chaos.run(3);
    let mut hit = 0;
    for (x, y) in a.shards.iter().zip(&b.shards) {
        if (2..4).contains(&x.shard) {
            hit += u32::from(x.digest != y.digest);
        } else {
            assert_eq!(x.digest, y.digest, "fault leaked into shard {}", x.shard);
        }
    }
    assert!(
        hit > 0,
        "storm + crash left no trace on the targeted shards"
    );
}

/// With draining on, the router *is* allowed to shift load away from
/// faulted shards — confinement of the load trace no longer holds, but
/// determinism still does.
#[test]
fn draining_reroutes_deterministically() {
    let mut cfg = quick_fleet(8, 0x7EA);
    cfg.router.drain = true;
    cfg.faults = vec![ShardFaultPlane {
        shards: 0..2,
        plan: FaultPlan::new(1).with(FaultKind::MigrationStall, 30.0, 60.0),
    }];
    let fleet = Fleet::plan(cfg).expect("valid config");
    // Drained epochs cap the targeted shards well below the others.
    let drained_peak = fleet.routed().levels[0]
        .iter()
        .skip(3)
        .take(6)
        .cloned()
        .fold(0.0, f64::max);
    assert!(
        drained_peak <= LEVEL_CAP * DRAIN_FRAC + 1e-12,
        "drain did not cap the faulted shard: {drained_peak}"
    );
    assert_eq!(fleet.run(1).aggregate_digest, fleet.run(4).aggregate_digest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seed derivation: per-shard seeds never collide within a fleet,
    /// are independent of every other shard's existence (order
    /// independence: the seed for shard `i` does not depend on how many
    /// shards there are), and differ across fleet seeds.
    #[test]
    fn shard_seed_derivation_is_collision_free(fleet_seed in 0u64..u64::MAX, n in 2usize..600) {
        let seeds: Vec<u64> = (0..n).map(|i| shard_seed(fleet_seed, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
        // Order/extent independence: same id, same seed, any fleet size.
        prop_assert_eq!(shard_seed(fleet_seed, 0), seeds[0]);
        prop_assert_eq!(shard_seed(fleet_seed, n - 1), seeds[n - 1]);
        // Distinct fleets get distinct streams for the same shard id.
        prop_assert!(shard_seed(fleet_seed ^ 1, 0) != seeds[0]);
    }

    /// Water-filling conserves load, respects capacities, and
    /// equalizes: no shard sits below the common level while another
    /// unsaturated shard sits above it.
    #[test]
    fn waterfill_conserves_and_equalizes(
        caps in prop::collection::vec(0.0f64..2.0, 1..40),
        target in 0.0f64..60.0,
    ) {
        let fill = waterfill(&caps, target);
        let total_cap: f64 = caps.iter().sum();
        let placed: f64 = fill.iter().sum();
        prop_assert!((placed - target.min(total_cap)).abs() < 1e-9);
        let mut lambda = 0.0f64;
        for (f, c) in fill.iter().zip(&caps) {
            prop_assert!(*f <= c + 1e-12, "assignment above capacity");
            if f < &(c - 1e-9) {
                lambda = lambda.max(*f);
            }
        }
        for (f, c) in fill.iter().zip(&caps) {
            if f < &(c - 1e-9) {
                prop_assert!((f - lambda).abs() < 1e-9, "unsaturated shards must share one level");
            }
        }
    }

    /// Every routing policy conserves demand up to explicit drops and
    /// never breaches the level cap.
    #[test]
    fn routing_conserves_demand(
        n in 2usize..24,
        exponent in 0.0f64..0.8,
        policy_ix in 0usize..3,
    ) {
        let policy = [
            RoutingPolicy::StaticHash,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::HotShardAware { hot_mult: 1.25 },
        ][policy_ix];
        let pattern = if exponent < 1e-3 {
            AccessPattern::Uniform
        } else {
            AccessPattern::Zipfian { exponent }
        };
        let traffic = TrafficSpec { pattern, ..TrafficSpec::diurnal(120.0) }
            .generate(n, 120.0, 10.0)
            .expect("valid spec");
        let cfg = RouterCfg { policy, ..RouterCfg::default() };
        let caps = vec![vec![LEVEL_CAP; n]; traffic.epochs()];
        let routed = route(&traffic, &caps, &cfg);
        for e in 0..traffic.epochs() {
            let placed: f64 = routed.levels.iter().map(|l| l[e]).sum();
            prop_assert!((placed + routed.dropped[e] - traffic.total_demand(e)).abs() < 1e-9);
            for l in &routed.levels {
                prop_assert!(l[e] <= LEVEL_CAP + 1e-12);
            }
        }
    }
}
