//! Command-line entry point of the benchmark.
//!
//! ```text
//! mtat-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! mtat-benchmark run [--seed N] [--seconds S] [--invocations K] [--out FILE]
//! mtat-benchmark compare A.json B.json [--bench-json PATH]
//! mtat-benchmark calibrate [--runs N] [--seed N] [--seconds S] [--bench-json PATH] [--out FILE]
//! mtat-benchmark reference
//! ```

use mtat_benchmark::catalog::{read_bounds, render_benchmark_json, MAX_BOUND, RUN_SECONDS};
use mtat_benchmark::measure::{measure, reference_outputs, Request};
use mtat_benchmark::reference;
use mtat_benchmark::report::{detail_line, result_line};
use mtat_benchmark::suite::{calibrate, compare, Suite};
use mtat_benchmark::workload::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  mtat-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  mtat-benchmark run [--seed N] [--seconds S] [--invocations K] [--out FILE]
  mtat-benchmark compare A.json B.json [--bench-json PATH]
  mtat-benchmark calibrate [--runs N] [--seed N] [--seconds S] [--bench-json PATH] [--out FILE]
  mtat-benchmark reference
workloads: paper_mtat, paper_memtis, heal_storm, fleet_tiny";

/// Parsed `--flag value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown option {a}"));
                }
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.push((name.to_string(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(DEFAULT_SEED), |s| {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.map_err(|_| format!("bad --seed {s:?}"))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        self.get("seconds").map_or(Ok(RUN_SECONDS as f64), |s| {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("bad --seconds {s:?}"))
        })
    }

    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        self.get(name).map_or(Ok(default), |s| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad --{name} {s:?}"))
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn main() {
    // Observability, auditing and worker counts are set explicitly by
    // the benchmark; none may leak in from the caller's environment.
    // Children inherit the cleaned environment.
    for var in ["MTAT_OBS", "MTAT_TRACE", "MTAT_AUDIT", "MTAT_BENCH_THREADS"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "calibrate" | "reference")) => (c, &args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        _ => ("measure", &args[..]),
    };
    if cmd != "compare" && cfg!(debug_assertions) {
        eprintln!("mtat-benchmark: refusing to time a build with debug assertions; use --release");
        std::process::exit(2);
    }
    let outcome = match cmd {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "calibrate" => cmd_calibrate(rest),
        "reference" => cmd_reference(),
        _ => cmd_measure(rest),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mtat-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// One workload: the form `BENCHMARK.json`'s command takes.
fn cmd_measure(args: &[String]) -> Result<i32, String> {
    let a = Args::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let trace = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t:?}")),
    };
    let req = Request {
        workload: a.workload()?,
        seed: a.seed()?,
        seconds: a.seconds()?,
        trace,
    };
    let out = measure(&req);
    for f in &out.failures {
        eprintln!("# {} FAILED: {f}", req.workload.name());
    }
    println!("{}", detail_line(&req, &out));
    println!("{}", result_line(&req, &out));
    Ok(0)
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let a = Args::parse(args, &["seed", "seconds", "invocations", "out"])?;
    let seeds = vec![a.seed()?; a.count("invocations", 1)?];
    let suite = Suite::collect(&seeds, a.seconds()?, true)?;
    print!("{}", suite.table());
    if let Some(path) = a.get("out") {
        std::fs::write(path, suite.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(i32::from(!suite.all_correct()))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let a = Args::parse(args, &["bench-json"])?;
    let [pa, pb] = a.positional.as_slice() else {
        return Err("compare takes two suite files".into());
    };
    let bounds = read_bounds(&read(a.get("bench-json").unwrap_or("BENCHMARK.json"))?)?;
    let (report, bad) = compare(
        &Suite::parse(&read(pa)?)?,
        &Suite::parse(&read(pb)?)?,
        &bounds,
    );
    print!("{report}");
    Ok(i32::from(bad))
}

fn cmd_calibrate(args: &[String]) -> Result<i32, String> {
    let a = Args::parse(args, &["runs", "seed", "seconds", "bench-json", "out"])?;
    let first = a.seed()?;
    let seeds: Vec<u64> = (0..a.count("runs", 10)? as u64)
        .map(|i| first + i)
        .collect();
    let suite = Suite::collect(&seeds, a.seconds()?, false)?;
    if let Some(path) = a.get("out") {
        std::fs::write(path, suite.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if !suite.all_correct() {
        print!("{}", suite.table());
        eprintln!("# some runs failed their checks; BENCHMARK.json left as it is");
        return Ok(1);
    }
    let (report, bounds) = calibrate(&suite);
    print!("{report}");
    let path = a.get("bench-json").unwrap_or("BENCHMARK.json");
    let bound = |name: &str| {
        bounds
            .iter()
            .find(|(n, _)| n == name)
            .map_or(MAX_BOUND, |b| b.1)
    };
    std::fs::write(path, render_benchmark_json(bound))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("# wrote {path}");
    Ok(0)
}

/// Prints a fresh `reference.json` from one repetition per workload at
/// the default seed.
fn cmd_reference() -> Result<i32, String> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        eprintln!("# {}", w.name());
        rows.push((
            w,
            reference_outputs(w).map_err(|e| format!("{}: {e}", w.name()))?,
        ));
    }
    print!("{}", reference::render(&rows));
    Ok(0)
}
