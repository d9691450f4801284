//! Fleet-scale simulation driver.
//!
//! Runs a [`Fleet`] of N simulated MTAT hosts under diurnal routed
//! traffic and prints a fleet summary as JSON on stdout (status lines
//! go to stderr, `#`-prefixed, like every harness binary here).
//!
//! Usage:
//!
//! ```text
//! fleet_sim [--shards N] [--workers N] [--quick] [--check]
//!           [--policy NAME] [--routing static|least|hot[:MULT]]
//!           [--seed S] [--duration SECS] [--epoch SECS]
//!           [--chaos] [--drain] [--self-heal] [--serve ADDR]
//!           [--metrics-out FILE] [--trace-out FILE] [--digests-out FILE]
//! ```
//!
//! * `--quick` is the PR-gate preset: 1000 shards, a compressed
//!   2-simulated-minute day, cheap heuristic policy.
//! * `--check` asserts the determinism contract and exits non-zero on
//!   violation: per-shard and aggregate digests bit-identical between
//!   `--workers 1` and `--workers N`, and between shards on the fleet's
//!   shared BE inputs and a few rebuilt on inputs of their own; every
//!   shard receives traffic;
//!   fault confinement — chaos on a targeted subset leaves every
//!   untargeted shard's digest unchanged (router draining off) — and
//!   anomaly precision: the MAD detector flags only targeted shards.
//!   With `--serve`, additionally asserts that the scrape endpoints
//!   answered *while* the fleet was still running.
//! * `--chaos` arms the default fleet fault planes (a fault storm plus
//!   a PP-M crash on the first eighth of the fleet).
//! * `--serve ADDR` (e.g. `127.0.0.1:9090`, port 0 for ephemeral)
//!   exposes the run live over HTTP: `/metrics` (Prometheus text),
//!   `/healthz`, `/status` (progress + top anomaly outliers), and
//!   `/events` (SSE tail). Serving is read-only — digests are
//!   bit-identical with it on or off, which `--check` verifies.
//! * `--metrics-out` writes the merged fleet registry (JSON);
//!   `--digests-out` writes one `{"shard":..,"seed":..,"digest":..}`
//!   line per shard (JSONL) — the nightly artifacts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mtat_bench::harness;
use mtat_fleet::anomaly::{self, AnomalyConfig, AnomalyReport};
use mtat_fleet::{Fleet, FleetConfig, RouterCfg, RoutingPolicy, ShardFaultPlane, ShardSize};
use mtat_obs::serve::{TelemetryHub, TelemetryServer};
use mtat_tiermem::faults::{FaultKind, FaultPlan};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_f64 = |name: &str, default: f64| -> f64 {
        opt(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("bad {name}: {v:?}")))
        })
    };
    let parse_usize = |name: &str, default: usize| -> usize {
        opt(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("bad {name}: {v:?}")))
        })
    };

    let quick = flag("--quick");
    // Quick: many cheap shards (PR gate, exercises fleet-scale
    // claiming). Full: fewer shards over a longer simulated day with
    // the real policy (nightly).
    let n_shards = parse_usize("--shards", if quick { 1000 } else { 128 });
    let duration = parse_f64("--duration", if quick { 120.0 } else { 900.0 });
    let epoch = parse_f64("--epoch", if quick { 10.0 } else { 30.0 });
    let policy = opt("--policy").unwrap_or_else(|| {
        // Quick uses the heuristic PP-M (no SAC pretraining, ~8× the
        // shard throughput); the nightly full fleet runs the real agent.
        if quick {
            "mtat_full_heuristic".into()
        } else {
            "mtat_full".into()
        }
    });
    let seed = parse_f64("--seed", 0xF1EE7 as f64) as u64;
    let workers = parse_usize("--workers", harness::worker_count(n_shards));

    let routing = opt("--routing").map_or(RoutingPolicy::HotShardAware { hot_mult: 1.25 }, |v| {
        RoutingPolicy::parse(&v).unwrap_or_else(|| die(&format!("bad --routing: {v:?}")))
    });

    let mut cfg = FleetConfig::new(n_shards, seed, duration, epoch);
    cfg.policy = policy;
    cfg.shard_size = opt("--size").map_or(
        if quick {
            ShardSize::Tiny
        } else {
            ShardSize::Small
        },
        |v| match v.as_str() {
            "small" => ShardSize::Small,
            "tiny" => ShardSize::Tiny,
            _ => die(&format!("bad --size: {v:?} (small|tiny)")),
        },
    );
    cfg.router = RouterCfg {
        policy: routing,
        drain: flag("--drain"),
        ..RouterCfg::default()
    };
    cfg.self_heal = flag("--self-heal");
    let serve_addr = opt("--serve");
    // Serving needs per-shard registries to render /metrics, so --serve
    // implies fleet metrics. Metrics never perturb shard physics.
    cfg.metrics = opt("--metrics-out").is_some() || serve_addr.is_some();
    cfg.trace_shard = opt("--trace-out").map(|_| 0);
    if flag("--chaos") {
        cfg.faults = default_chaos(n_shards, seed, duration);
    }

    eprintln!(
        "# fleet_sim: {n_shards} shards x {duration:.0}s sim, epoch {epoch:.0}s, \
         policy {}, routing {}, {workers} workers",
        cfg.policy,
        cfg.router.policy.label()
    );

    // Live telemetry plane. The hub holds whole published snapshots;
    // the server threads only ever read them, so the fleet result is
    // bit-identical with serving on or off (--check verifies this: the
    // serial replay below runs without any publication at all).
    let hub = TelemetryHub::new();
    let server: Option<TelemetryServer> = serve_addr.as_deref().map(|addr| {
        let s = TelemetryServer::bind(addr, hub.clone())
            .unwrap_or_else(|e| die(&format!("cannot serve on {addr}: {e}")));
        eprintln!("# serving telemetry on http://{}/", s.local_addr());
        s
    });

    let fleet = Fleet::plan(cfg.clone()).unwrap_or_else(|e| die(&format!("plan failed: {e}")));
    let t0 = std::time::Instant::now();

    // Self-scrape watchdog: under --check --serve, poll our own /status
    // from a side thread and record whether it answered while shards
    // were still running — the "scrape answers during the run" gate.
    let run_done = Arc::new(AtomicBool::new(false));
    let scraped_mid_run = Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().filter(|_| flag("--check")).map(|s| {
        let addr = s.local_addr();
        let done = Arc::clone(&run_done);
        let hit = Arc::clone(&scraped_mid_run);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if self_scrape(addr, "/status").is_some_and(|r| r.starts_with("HTTP/1.1 200")) {
                    hit.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        })
    });

    let result = if server.is_some() {
        let total = cfg.n_shards;
        hub.publish_health("running", true);
        hub.publish_status(fleet_status_json("running", 0, total, 0.0, None));
        fleet.run_with_progress(workers, &|done, outcome| {
            hub.push_event(format!(
                "shard {:4} done ({done}/{total}) viol_rate={:.4}",
                outcome.shard,
                outcome.violation_rate()
            ));
            hub.publish_status(fleet_status_json("running", done, total, 0.0, None));
        })
    } else {
        fleet.run(workers)
    };
    run_done.store(true, Ordering::Relaxed);
    if let Some(t) = scraper {
        let _ = t.join();
    }
    eprintln!("# fleet run: {:.1}s wall", t0.elapsed().as_secs_f64());

    // Fleet anomaly sweep: robust per-shard outlier scores over the
    // completed outcomes, folded into the merged registry and the
    // /status document.
    let mut result = result;
    let report = anomaly::detect(&result.shards, &AnomalyConfig::default());
    report.annotate(&mut result.registry);
    if !report.flagged.is_empty() {
        eprintln!(
            "# anomaly: {} shard(s) flagged, max score {:.1}",
            report.flagged.len(),
            report.max_score()
        );
    }
    if server.is_some() {
        hub.publish_metrics(result.registry.to_prometheus(&[("harness", "fleet_sim")]));
        hub.publish_status(fleet_status_json(
            "checking",
            cfg.n_shards,
            cfg.n_shards,
            result.violation_rate(),
            Some(&report),
        ));
    }

    if flag("--check") {
        run_checks(
            &cfg,
            &fleet,
            &result,
            workers,
            if server.is_some() { Some(&hub) } else { None },
            server
                .as_ref()
                .map(|_| scraped_mid_run.load(Ordering::Relaxed)),
        );
    }

    if server.is_some() {
        hub.publish_health("done", true);
        hub.publish_status(fleet_status_json(
            "done",
            cfg.n_shards,
            cfg.n_shards,
            result.violation_rate(),
            Some(&report),
        ));
    }

    if let Some(path) = opt("--metrics-out") {
        write_file(&path, &result.registry.to_json());
        eprintln!("# wrote fleet metrics to {path}");
    }
    if let Some(path) = opt("--trace-out") {
        if let Some(trace) = result.shards.first().and_then(|s| s.trace.as_deref()) {
            write_file(&path, trace);
            eprintln!("# wrote shard-0 trace to {path}");
        }
    }
    if let Some(path) = opt("--digests-out") {
        let mut lines = String::with_capacity(result.shards.len() * 64);
        for s in &result.shards {
            lines.push_str(&format!(
                "{{\"shard\":{},\"seed\":{},\"digest\":{}}}\n",
                s.shard, s.seed, s.digest
            ));
        }
        write_file(&path, &lines);
        eprintln!(
            "# wrote {} per-shard digests to {path}",
            result.shards.len()
        );
    }

    print_summary(&cfg, &result, workers, quick);
}

/// The default fleet chaos: a correlated fault storm plus a PP-M crash
/// confined to the first eighth of the fleet (at least one shard).
/// Intensity stays below the 0.9 poison threshold so the plan is safe
/// without the self-healing runtime; pass `--self-heal` for hotter
/// plans.
fn default_chaos(n_shards: usize, seed: u64, duration: f64) -> Vec<ShardFaultPlane> {
    let targeted = (n_shards / 8).max(1);
    vec![ShardFaultPlane {
        shards: 0..targeted,
        plan: FaultPlan::new(seed ^ 0x50AC)
            .with(
                FaultKind::FaultStorm { intensity: 0.6 },
                duration * 0.25 + 1.0,
                duration * 0.15,
            )
            .with(FaultKind::PpmCrash, duration * 0.6 + 1.0, duration * 0.05),
    }]
}

/// The `--check` gate: bit-identity across worker counts and between
/// shared and per-shard BE inputs, universal traffic delivery, fault
/// confinement on a sub-fleet, anomaly-detector precision on that same
/// sub-fleet, and — when serving — live-scrape availability plus
/// serve-on/off bit-identity.
fn run_checks(
    cfg: &FleetConfig,
    fleet: &Fleet,
    result: &mtat_fleet::fleet::FleetResult,
    workers: usize,
    hub: Option<&TelemetryHub>,
    scraped_mid_run: Option<bool>,
) {
    if let Some(hit) = scraped_mid_run {
        assert!(
            hit,
            "telemetry /status never answered while the fleet was running"
        );
        eprintln!("# check: /status answered mid-run");
    }
    eprintln!("# check: replaying fleet with 1 worker for bit-identity");
    let serial = fleet.run(1);
    assert_eq!(
        serial.aggregate_digest, result.aggregate_digest,
        "aggregate digest diverged between 1 and {workers} workers"
    );
    for (a, b) in serial.shards.iter().zip(&result.shards) {
        assert_eq!(
            a.digest, b.digest,
            "shard {} digest diverged between 1 and {workers} workers",
            a.shard
        );
    }

    eprintln!("# check: shards rebuilt on BE inputs of their own");
    let n = cfg.n_shards;
    let mut spread: Vec<usize> = [0, n / 3, 2 * n / 3, n.saturating_sub(1)]
        .into_iter()
        .filter(|&i| i < n)
        .collect();
    spread.dedup();
    assert_own_inputs_match(fleet, &result.shards, &spread);

    for s in &result.shards {
        assert!(s.lc_requests > 0.0, "shard {} received no traffic", s.shard);
        assert!(s.ticks > 0, "shard {} ran no ticks", s.shard);
    }

    // Confinement: chaos on a targeted subset of a small sub-fleet must
    // leave untargeted digests bit-identical (drain off, so routing
    // never sees the faults).
    eprintln!("# check: fault confinement on a sub-fleet");
    let sub = cfg.n_shards.min(64);
    let mut base_cfg = cfg.clone();
    base_cfg.n_shards = sub;
    base_cfg.faults.clear();
    base_cfg.router.drain = false;
    base_cfg.metrics = false;
    base_cfg.trace_shard = None;
    let mut chaos_cfg = base_cfg.clone();
    chaos_cfg.faults = default_chaos(sub, cfg.fleet_seed, cfg.duration_secs);
    let targeted = chaos_cfg.faults[0].shards.clone();
    let base = Fleet::plan(base_cfg.clone())
        .expect("base sub-fleet plans")
        .run(workers);
    let chaos_fleet = Fleet::plan(chaos_cfg).expect("chaos sub-fleet plans");
    let chaos = chaos_fleet.run(workers);
    // A fault-hit shard on inputs of its own, too.
    assert_own_inputs_match(&chaos_fleet, &chaos.shards, &[targeted.start]);
    let mut diverged = false;
    for (a, b) in base.shards.iter().zip(&chaos.shards) {
        if targeted.contains(&a.shard) {
            diverged |= a.digest != b.digest;
        } else {
            assert_eq!(
                a.digest, b.digest,
                "fault leaked into untargeted shard {}",
                a.shard
            );
        }
    }
    assert!(
        diverged,
        "chaos plan had no observable effect on targeted shards"
    );

    // Anomaly precision: on the chaos sub-fleet, the MAD detector must
    // flag fault-windowed shards and *only* fault-windowed shards —
    // chaos elsewhere in a confined fleet must not smear suspicion
    // across clean hosts.
    eprintln!("# check: anomaly detection on the chaos sub-fleet");
    let chaos_report = anomaly::detect(&chaos.shards, &AnomalyConfig::default());
    assert!(
        !chaos_report.flagged.is_empty(),
        "no anomalies flagged on the fault-windowed sub-fleet"
    );
    for a in &chaos_report.flagged {
        assert!(
            targeted.contains(&a.shard),
            "untargeted shard {} falsely flagged (score {:.1})",
            a.shard,
            a.score
        );
    }
    if let Some(hub) = hub {
        hub.publish_status(fleet_status_json(
            "checking",
            sub,
            sub,
            chaos.violation_rate(),
            Some(&chaos_report),
        ));
    }

    // Serve-on/off bit-identity, witnessed directly: the same sub-fleet
    // with per-shard metrics collection (what --serve turns on) must
    // produce the identical aggregate digest as the blind run above.
    if hub.is_some() {
        eprintln!("# check: serve-on/off bit-identity on the sub-fleet");
        let mut served_cfg = base_cfg;
        served_cfg.metrics = true;
        let served = Fleet::plan(served_cfg)
            .expect("served sub-fleet plans")
            .run(workers);
        assert_eq!(
            served.aggregate_digest, base.aggregate_digest,
            "metrics collection for serving perturbed the fleet digest"
        );
    }
    eprintln!("# check: all assertions passed");
}

/// Asserts that each shard in `ids`, rebuilt on BE set-up inputs of its
/// own, reproduces its digest in `shards` (run on the fleet's shared
/// inputs).
fn assert_own_inputs_match(fleet: &Fleet, shards: &[mtat_fleet::ShardOutcome], ids: &[usize]) {
    for &i in ids {
        assert_eq!(
            fleet.run_shard_own_inputs(i).digest,
            shards[i].digest,
            "shard {i} digest diverged between shared and its own BE inputs"
        );
    }
}

/// Fleet-level `/status` document. `done`/`total` count shards;
/// `report` carries the anomaly verdict once detection has run.
fn fleet_status_json(
    phase: &str,
    done: usize,
    total: usize,
    violation_rate: f64,
    report: Option<&AnomalyReport>,
) -> String {
    let progress = if total == 0 {
        1.0
    } else {
        done as f64 / total as f64
    };
    let outliers = report.map_or_else(|| "[]".to_string(), AnomalyReport::top_outliers_json);
    let flagged = report.map_or(0, |r| r.flagged.len());
    format!(
        "{{\"harness\":\"fleet_sim\",\"phase\":\"{phase}\",\"shards_done\":{done},\
         \"shards_total\":{total},\"progress\":{progress:.4},\
         \"violation_rate\":{violation_rate:.6},\"anomalies_flagged\":{flagged},\
         \"top_outliers\":{outliers}}}"
    )
}

/// One HTTP/1.1 GET against our own telemetry server; `None` on any
/// socket error (the server may not have finished binding yet).
fn self_scrape(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut s =
        std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(2)).ok()?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .ok()?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .ok()?;
    let mut out = Vec::new();
    s.read_to_end(&mut out).ok()?;
    Some(String::from_utf8_lossy(&out).into_owned())
}

fn print_summary(
    cfg: &FleetConfig,
    result: &mtat_fleet::fleet::FleetResult,
    workers: usize,
    quick: bool,
) {
    // Per-shard violation rates are the robust tail summary (a single
    // load-step transient makes worst_p99 infinite); worst_p99 is still
    // reported fleet-wide.
    let mut rates: Vec<f64> = result.shards.iter().map(|s| s.violation_rate()).collect();
    rates.sort_by(f64::total_cmp);
    let pct = |q: f64| rates[((rates.len() - 1) as f64 * q) as usize];
    let total_requests: f64 = result.shards.iter().map(|s| s.lc_requests).sum();
    println!("{{");
    println!("  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    println!("  \"shards\": {}, \"workers\": {workers},", cfg.n_shards);
    println!("  \"policy\": \"{}\",", cfg.policy);
    println!("  \"routing\": \"{}\",", cfg.router.policy.label());
    println!(
        "  \"duration_secs\": {}, \"epoch_secs\": {},",
        cfg.duration_secs, cfg.epoch_secs
    );
    println!("  \"seed\": {},", cfg.fleet_seed);
    println!("  \"chaos_planes\": {},", cfg.faults.len());
    println!("  \"lc_requests\": {total_requests:.0},");
    println!("  \"slo_violation_rate\": {:.6},", result.violation_rate());
    println!(
        "  \"be_total_throughput\": {:.1},",
        result.be_total_throughput()
    );
    println!(
        "  \"migration_gib\": {:.3},",
        result.total_migration_bytes() as f64 / (1u64 << 30) as f64
    );
    println!(
        "  \"failed_moves\": {},",
        result.shards.iter().map(|s| s.failed_moves).sum::<u64>()
    );
    println!("  \"dropped_demand\": {:.4},", result.dropped_demand);
    // A saturated shard has an unbounded queueing P99; `inf` is not
    // valid JSON, so saturation prints as null.
    let ms = |v: f64| {
        if v.is_finite() {
            format!("{:.3}", v * 1e3)
        } else {
            "null".into()
        }
    };
    println!("  \"worst_p99_ms\": {},", ms(result.worst_p99()));
    println!(
        "  \"shard_violation_rate\": {{ \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6} }},",
        pct(0.5),
        pct(0.9),
        pct(0.99)
    );
    println!(
        "  \"aggregate_digest\": \"{:016x}\"",
        result.aggregate_digest
    );
    println!("}}");
}

fn write_file(path: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

fn die(msg: &str) -> ! {
    eprintln!("# fleet_sim: {msg}");
    std::process::exit(2);
}
