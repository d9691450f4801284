//! Order statistics, generated inputs, and the verdict rule.

use mtat_benchmark::catalog::Better;
use mtat_benchmark::stats::{nearest_rank, quartiles, tail, Summary};
use mtat_benchmark::suite::{verdict, Verdict};
use mtat_benchmark::workload::{fleet_config, heal_faults, host_experiment, Workload};
use mtat_fleet::shard_seed;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_picks_a_sample() {
    let v = ascending(100);
    assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
    assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
    assert_eq!(nearest_rank(&v, 99.5), Some(100.0));
    assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&ascending(3), 50.0), Some(2.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
}

#[test]
fn tail_leaves_ten_samples_beyond() {
    let v = ascending(1000);
    assert_eq!(tail(&v), Some((99.0, 990.0)));
    let (pct, value) = tail(&ascending(60)).unwrap();
    assert!((pct - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    assert_eq!(value, 50.0);
    assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
    assert_eq!(tail(&ascending(11)), Some((100.0 / 11.0, 1.0)));
    assert_eq!(tail(&ascending(10)), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(values, n=4), method "exclusive".
    assert_eq!(quartiles(&ascending(10)), Some((2.75, 5.5, 8.25)));
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
    assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
    assert_eq!(quartiles(&[]), None);
    let s = Summary::of(&ascending(10)).unwrap();
    assert!((s.rel_spread() - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn same_seed_gives_same_inputs() {
    for w in [
        Workload::PaperMtat,
        Workload::PaperMemtis,
        Workload::HealStorm,
    ] {
        let (a, b) = (host_experiment(w, 42), host_experiment(w, 42));
        assert_eq!(a.cfg.seed, b.cfg.seed);
        assert_eq!(a.load, b.load);
        assert_eq!(a.fault_plan, b.fault_plan);
        assert_eq!(a.duration_secs, b.duration_secs);
        assert_eq!(a.cfg.seed, 42);
    }
    assert_eq!(heal_faults(42), heal_faults(42));
    assert_eq!(fleet_config(42, 250), fleet_config(42, 250));
}

#[test]
fn another_seed_gives_other_fault_plans_and_fleet_seeds() {
    let (a, b) = (heal_faults(42), heal_faults(43));
    assert_ne!(a, b);
    assert_ne!(a.seed, b.seed);
    assert_eq!(host_experiment(Workload::HealStorm, 43).fault_plan, b);
    for w in &a.windows {
        // Each window starts 1 s past an interval boundary and ends
        // inside its 600 s period.
        assert_eq!((w.start_secs - 1.0) % 5.0, 0.0);
        let period = (w.start_secs / 600.0).floor();
        assert!(w.start_secs + w.duration_secs <= (period + 1.0) * 600.0);
    }

    let (fa, fb) = (fleet_config(42, 250), fleet_config(43, 250));
    assert_ne!(fa.fleet_seed, fb.fleet_seed);
    assert_ne!(shard_seed(fa.fleet_seed, 0), shard_seed(fb.fleet_seed, 0));
}

fn summary(median: f64, q1: f64, q3: f64) -> Summary {
    Summary {
        median,
        q1,
        q3,
        n: 10,
    }
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let a = summary(100.0, 99.0, 101.0);
    let va = [99.0, 100.0, 101.0];
    let v = |b: &Summary, vb: &[f64], better| verdict(better, (&a, &va), (b, vb), 0.05, true);
    // Within the bound.
    assert_eq!(
        v(&summary(103.0, 102.0, 104.0), &[103.0], Better::Higher),
        Verdict::Unchanged
    );
    // Beyond it, in each direction.
    assert_eq!(
        v(&summary(110.0, 109.0, 111.0), &[110.0], Better::Higher),
        Verdict::Better
    );
    assert_eq!(
        v(&summary(110.0, 109.0, 111.0), &[110.0], Better::Lower),
        Verdict::Worse
    );
    assert_eq!(
        v(&summary(90.0, 89.0, 91.0), &[90.0], Better::Higher),
        Verdict::Worse
    );
    // A spread wider than the bound leaves the move unresolved ...
    let wide = summary(90.0, 70.0, 110.0);
    assert_eq!(
        v(&wide, &[70.0, 90.0, 110.0], Better::Higher),
        Verdict::Unresolved
    );
    // ... unless every run of the change beats every run of the parent.
    let wide_win = summary(120.0, 105.0, 135.0);
    assert_eq!(
        v(&wide_win, &[105.0, 120.0, 135.0], Better::Higher),
        Verdict::Better
    );
    assert_eq!(
        v(&wide_win, &[105.0, 120.0, 135.0], Better::Lower),
        Verdict::Unresolved
    );
    // Without the spread gate only the medians count.
    let medians_only = |b: &Summary| verdict(Better::Lower, (&a, &va), (b, &[]), 0.05, false);
    assert_eq!(medians_only(&wide), Verdict::Better);
    assert_eq!(
        medians_only(&summary(103.0, 70.0, 140.0)),
        Verdict::Unchanged
    );
    assert_eq!(medians_only(&wide_win), Verdict::Worse);
}
