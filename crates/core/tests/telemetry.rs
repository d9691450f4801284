//! End-to-end tests for the live telemetry plane wired through the
//! runner:
//!
//! * attaching the serving hub and the SLO burn-rate alert engine must
//!   not perturb the simulation — a served run is bit-identical with a
//!   blind one under the full MTAT policy;
//! * the hub actually receives what the endpoints would serve: interval
//!   metrics snapshots, `/status` documents, and the event tail;
//! * a `thrash_rotate` adversarial run under the hardened policy fires
//!   the fast-burn alert within two sim-minutes of the rotation onset
//!   and resolves after the thrash guard's migration quarantine
//!   engages;
//! * alert transitions — including their sim-time timestamps — replay
//!   bit-identically.

use mtat_core::config::SimConfig;
use mtat_core::policy::mtat::MtatConfig;
use mtat_core::runner::Experiment;
use mtat_core::MtatPolicy;
use mtat_obs::alert::AlertRule;
use mtat_obs::serve::TelemetryHub;
use mtat_obs::Obs;
use mtat_tiermem::GIB;
use mtat_workloads::be::BeSpec;
use mtat_workloads::lc::LcSpec;
use mtat_workloads::load::LoadPattern;
use mtat_workloads::scenario::{BeSelector, Mutator, ScenarioSpec};

fn small_lc() -> LcSpec {
    let mut s = LcSpec::redis();
    s.rss_bytes = (1.2 * GIB as f64) as u64;
    s
}

fn small_bes() -> Vec<BeSpec> {
    let mut b1 = BeSpec::sssp();
    b1.rss_bytes = 2 * GIB;
    let mut b2 = BeSpec::pagerank();
    b2.rss_bytes = (1.5 * GIB as f64) as u64;
    vec![b1, b2]
}

/// The heuristic-sizer hardened arm (no pretraining, full guard +
/// supervisor stack) — the same shape the adversarial matrix runs.
fn hardened_policy(exp: &Experiment) -> MtatPolicy {
    let mut cfg = MtatConfig::full().with_heuristic_sizer().hardened();
    cfg.online_learning = false;
    MtatPolicy::new(cfg, &exp.cfg, &exp.lc, &exp.bes)
}

/// Serving the live plane must be invisible to the physics: the same
/// experiment with the hub, the alert engine, and full telemetry
/// attached is bit-identical with a blind run under the full MTAT
/// policy — while the hub actually receives the snapshots the HTTP
/// endpoints would serve.
#[test]
fn serve_on_and_off_are_bit_identical() {
    let load = LoadPattern::staircase(&[0.4, 0.9, 0.5], 15.0);
    let experiment = |load: LoadPattern| {
        Experiment::new(SimConfig::small_test(), small_lc(), load, small_bes()).with_duration(45.0)
    };
    let hub = TelemetryHub::new();
    let served = experiment(load.clone())
        .with_obs(Obs::enabled())
        .with_hub(hub.clone())
        .with_alerts(AlertRule::default_rules(0.01));
    let blind = experiment(load);

    let mk = |exp: &Experiment| MtatPolicy::new(MtatConfig::full(), &exp.cfg, &exp.lc, &exp.bes);
    let r_on = served.run(&mut mk(&served));
    let r_off = blind.run(&mut mk(&blind));

    assert_eq!(r_on.ticks.len(), r_off.ticks.len());
    for (a, b) in r_on.ticks.iter().zip(&r_off.ticks) {
        assert_eq!(a.lc_p99.to_bits(), b.lc_p99.to_bits(), "t={}", a.t);
        assert_eq!(
            a.migration_bw.to_bits(),
            b.migration_bw.to_bits(),
            "t={}",
            a.t
        );
        assert_eq!(a.fmem_bytes, b.fmem_bytes, "t={}", a.t);
        assert_eq!(a, b, "tick records diverge at t={}", a.t);
    }

    // ...and the hub holds what /metrics, /status, and /events serve.
    let prom = hub.metrics().expect("interval snapshots published");
    assert!(
        prom.contains("mtat_runner_ticks_total"),
        "metrics snapshot missing tick counter:\n{prom}"
    );
    let status = hub.status().expect("status published");
    assert!(
        status.contains("\"policy\"") && status.contains("\"progress\""),
        "status document malformed: {status}"
    );
    assert!(hub.last_seq() > 0, "event tail must receive plan events");
}

/// The `thrash_rotate` scenario from the adversarial registry, rebased
/// to rotate from t=30 s: the BE hot sets rotate faster than pages can
/// be promoted, so a reactive policy chases them with futile migration
/// churn that — under the constrained bandwidth model — steals demand
/// bandwidth from the LC and burns the SLO budget.
fn thrash_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "thrash_rotate",
        seed: 0x7A5B_0001,
        mutators: vec![Mutator::HotSetRotate {
            be: BeSelector::All,
            start_secs: 30.0,
            period_secs: 1.5,
            stride_frac: 0.37,
            jitter_frac: 0.1,
        }],
    }
}

/// Fast-burn rule compressed for a 4-minute run: 20 s / 60 s windows
/// at 3× a 1 % budget, 5 s pending dwell, 30 s clear dwell.
fn test_rule() -> AlertRule {
    AlertRule {
        name: "slo_fast_burn".to_string(),
        budget: 0.01,
        factor: 3.0,
        fast_secs: 20.0,
        slow_secs: 60.0,
        pending_secs: 5.0,
        clear_secs: 30.0,
    }
}

fn thrash_experiment() -> Experiment {
    // The chaos-matrix adversarial cell shape: paper-scale capacities
    // under the §7 constrained bandwidth model, where the rotation's
    // futile migration churn competes with demand traffic for the same
    // channels and actually burns the SLO budget.
    Experiment::new(
        SimConfig::paper().with_constrained_bandwidth(),
        LcSpec::redis(),
        LoadPattern::Steps(vec![(100.0, 0.45), (60.0, 0.9), (80.0, 0.45)]),
        BeSpec::all_paper_workloads(),
    )
    .with_duration(240.0)
    .with_scenario(thrash_scenario())
}

/// Sim times of every hub event line matching `needle` (the event
/// tail renders `#seq t=  NNN.NNNs SEV component.name k=v ...`).
fn event_times(hub: &TelemetryHub, needle: &str) -> Vec<f64> {
    hub.events_after(0, usize::MAX)
        .into_iter()
        .filter(|(_, l)| l.contains(needle))
        .filter_map(|(_, l)| {
            let rest = l.split("t=").nth(1)?;
            rest.split('s').next()?.trim().parse().ok()
        })
        .collect()
}

/// The alerting contract on a thrashing run: the fast-burn alert fires
/// within two sim-minutes of the rotation onset (the surge collides
/// with the rotation churn and burns the budget), the thrash guard's
/// migration quarantine engages against the rotation, and the alert
/// resolves after the quarantine is in force.
#[test]
fn thrash_rotate_fires_fast_burn_and_resolves_after_quarantine() {
    let hub = TelemetryHub::new();
    let exp = thrash_experiment()
        .with_obs(Obs::enabled())
        .with_hub(hub.clone())
        .with_alerts(vec![test_rule()]);
    let r = exp.run(&mut hardened_policy(&exp));

    let fired = r
        .alerts
        .iter()
        .find(|a| a.to == "firing")
        .unwrap_or_else(|| panic!("fast-burn alert never fired: {:?}", r.alerts));
    assert!(
        fired.at_secs >= 30.0 && fired.at_secs <= 150.0,
        "alert must fire within two sim-minutes of the 30 s rotation onset, fired at {}",
        fired.at_secs
    );
    assert!(
        fired.fast_burn >= 3.0 && fired.slow_burn >= 3.0,
        "both windows must exceed the factor at the firing edge: {fired:?}"
    );

    // The guard must quarantine the rotation itself, not just the
    // warm-up transient: at least one quarantine entry at/after the
    // 30 s onset, and the alert resolves only once it is in force.
    let quarantined_at = event_times(&hub, "kind=quarantine_entered")
        .into_iter()
        .find(|&t| t >= 30.0)
        .expect("the thrash guard must quarantine the rotation churn");
    let resolved = r
        .alerts
        .iter()
        .find(|a| a.from == "firing" && a.to == "inactive")
        .unwrap_or_else(|| panic!("alert never resolved: {:?}", r.alerts));
    assert!(
        resolved.at_secs > quarantined_at,
        "resolution ({}) must follow the quarantine ({quarantined_at})",
        resolved.at_secs
    );

    // The firing alert reached the event tail and the flight recorder
    // path: the runner logs every transition as an `alert` event.
    assert!(
        !event_times(&hub, "alert.transition").is_empty(),
        "alert transitions must land in the event stream"
    );
}

/// Alert transitions are part of the deterministic replay: a second
/// run of the identical experiment produces the identical transition
/// log — same rules, same states, same sim-time timestamps, same burn
/// rates.
#[test]
fn alert_transitions_replay_bit_identically() {
    let run = |obs: Obs| {
        let exp = thrash_experiment()
            .with_obs(obs)
            .with_alerts(vec![test_rule()]);
        exp.run(&mut hardened_policy(&exp))
    };
    let a = run(Obs::enabled());
    let b = run(Obs::disabled());
    assert!(
        !a.alerts.is_empty(),
        "the thrashing run must produce transitions"
    );
    assert_eq!(
        a.alerts, b.alerts,
        "alert logs diverge between replays (telemetry on vs off)"
    );
    assert_eq!(a.digest(), b.digest(), "physics diverged between replays");
}
