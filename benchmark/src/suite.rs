//! Commands over many runs: `run`, `compare` and `calibrate`.
//!
//! Each run is a child process of this executable, so every workload
//! starts cold and no run's allocations or caches leak into another's.
//! A suite file stores the environment and every run's two output
//! lines; `compare` and `calibrate` read nothing else.

use std::process::{Command, Stdio};

use mtat_obs::export::json_string;
use mtat_obs::json::{self, Value};

use crate::catalog::{bound_for, metric, Better, END_TO_END};
use crate::measure::nproc;
use crate::report::{num, RunRecord};
use crate::stats::Summary;
use crate::workload::Workload;

/// Every run of a suite, with the environment it ran in.
#[derive(Debug, Clone, Default)]
pub struct Suite {
    /// `nproc`, `rustc -V`, the git commit and the run length.
    pub env: Vec<(String, String)>,
    pub runs: Vec<RunRecord>,
    /// Each run's entry as written to the suite file.
    entries: Vec<String>,
}

/// The first line a program prints for `args`, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result depends on besides the code: cores, compiler, commit.
#[must_use]
pub fn environment(seconds: f64) -> Vec<(String, String)> {
    // Only a checkout that is itself a repository has a commit; git is
    // not asked to search the directories above it.
    let commit = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("nproc".into(), nproc().to_string()),
        ("rustc".into(), first_line("rustc", &["-V"])),
        ("commit".into(), commit),
        ("seconds".into(), num(seconds)),
    ]
}

/// Runs one workload in a child process and reads its output, returning
/// the run and its suite-file entry.
///
/// # Errors
///
/// A message when the child cannot start, fails, or prints no result.
pub fn invoke(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(RunRecord, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(num(seconds))
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let (rec, detail, result) = RunRecord::from_stdout(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{}: {e}", w.name()))?;
    Ok((rec, format!("{{\"run\": {detail}, \"result\": {result}}}")))
}

impl Suite {
    /// Runs every workload once per seed, untraced, then (when `traced`)
    /// once more traced at the first seed.
    ///
    /// # Errors
    ///
    /// The first run that could not be read.
    pub fn collect(seeds: &[u64], seconds: f64, traced: bool) -> Result<Self, String> {
        let mut suite = Suite {
            env: environment(seconds),
            ..Suite::default()
        };
        let traced_seed = seeds.first().copied().filter(|_| traced);
        let plan = seeds
            .iter()
            .flat_map(|&s| Workload::ALL.map(|w| (w, s, false)))
            .chain(
                traced_seed
                    .into_iter()
                    .flat_map(|s| Workload::ALL.map(|w| (w, s, true))),
            );
        for (w, seed, trace) in plan {
            eprintln!("# {} seed {seed} trace {}", w.name(), u8::from(trace));
            let (run, entry) = invoke(w, seed, seconds, trace)?;
            suite.runs.push(run);
            suite.entries.push(entry);
        }
        Ok(suite)
    }

    /// The suite as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!(
            "{{\"env\": {{{}}},\n\"runs\": [\n{}\n]}}\n",
            env.join(", "),
            self.entries.join(",\n")
        )
    }

    /// Reads a suite document.
    ///
    /// # Errors
    ///
    /// A message when the text is not a suite document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let env = doc
            .get("env")
            .and_then(Value::as_obj)
            .ok_or("suite has no env")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        let runs = doc
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("suite has no runs")?
            .iter()
            .map(|e| {
                RunRecord::from_json(
                    e.get("run").ok_or("run entry without run")?,
                    e.get("result").ok_or("run entry without result")?,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Suite {
            env,
            runs,
            entries: Vec::new(),
        })
    }

    fn untraced(&self, w: &str) -> Vec<&RunRecord> {
        self.runs
            .iter()
            .filter(|r| r.workload == w && !r.trace)
            .collect()
    }

    fn traced(&self, w: &str) -> Option<&RunRecord> {
        self.runs.iter().find(|r| r.workload == w && r.trace)
    }

    fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload) {
                names.push(r.workload.clone());
            }
        }
        names
    }

    /// An end-to-end metric of one workload: its distribution over the
    /// runs when there are several, else over the one run's own
    /// repetitions, plus each run's value.
    #[must_use]
    pub fn side(&self, w: &str, metric: &str) -> Option<(Summary, Vec<f64>)> {
        let runs = self.untraced(w);
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(metric)).collect();
        let summary = if runs.len() >= 2 {
            Summary::of(&values)?
        } else {
            let d = runs
                .first()?
                .distributions
                .iter()
                .find(|(n, _)| n == metric)?;
            d.1
        };
        Some((summary, values))
    }

    /// Failed operations over attempted ones, %, across all runs of `w`.
    fn failed_pct(&self, w: &str) -> f64 {
        let (att, fail) = self
            .runs
            .iter()
            .filter(|r| r.workload == w)
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        if att == 0 {
            100.0
        } else {
            fail as f64 / att as f64 * 100.0
        }
    }

    /// Whether every run passed its checks.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.runs.iter().all(|r| r.correct)
    }

    /// The table `run` prints: every metric by name with its unit.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.env {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        out.push_str("workload\tmetric\tmedian\tq1\tq3\tn\tunit\n");
        for w in self.workloads() {
            for m in &END_TO_END {
                if let Some((s, _)) = self.side(&w, m.name) {
                    out.push_str(&format!(
                        "{w}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                        m.name,
                        fmt(s.median),
                        fmt(s.q1),
                        fmt(s.q3),
                        s.n,
                        m.unit
                    ));
                }
            }
            out.push_str(&format!(
                "{w}\tfailed_pct\t{}\t\t\t\t%\n",
                fmt(self.failed_pct(&w))
            ));
            for r in self.untraced(&w) {
                out.push_str(&format!(
                    "{w}\t# seed {} digest {} violation_rate {} be_mops {}\n",
                    r.seed,
                    r.digest,
                    fmt(r.violation_rate),
                    fmt(r.be_mops)
                ));
                for f in &r.failures {
                    out.push_str(&format!("{w}\t# FAILED {f}\n"));
                }
            }
            if let Some(t) = self.traced(&w) {
                for (name, v) in &t.layers {
                    let unit = metric(name).map_or("", |m| m.unit);
                    out.push_str(&format!("{w}\t{name}\t{}\t\t\t1\t{unit}\n", fmt(*v)));
                }
                for f in &t.failures {
                    out.push_str(&format!("{w}\t# FAILED (traced) {f}\n"));
                }
            }
        }
        out
    }
}

/// A value with about four significant digits.
fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v == 0.0 || v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
        format!("{v:.digits$}")
    }
}

/// How a metric moved between two suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`. A change of the median beyond `bound` (as a
/// share of `a`'s median) is better or worse; when `spread_gated` and
/// either side's spread exceeds the bound the move is unresolved, unless
/// every run of `b` reads better than every run of `a`.
#[must_use]
pub fn verdict(
    better: Better,
    a: (&Summary, &[f64]),
    b: (&Summary, &[f64]),
    bound: f64,
    spread_gated: bool,
) -> Verdict {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let gain = sign * (b.0.median - a.0.median) / a.0.median.abs();
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let clear_win = !a.1.is_empty() && !b.1.is_empty() && worst(b.1) > best(a.1);
    if spread_gated && a.0.rel_spread().max(b.0.rel_spread()) > bound {
        return if clear_win && gain > 0.0 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// The `compare` report of `b` against `a`, and whether any metric came
/// out worse or unresolved.
#[must_use]
pub fn compare(a: &Suite, b: &Suite, bounds: &[(String, f64)]) -> (String, bool) {
    let mut out = String::from(
        "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict\n",
    );
    let mut bad = false;
    for w in a.workloads() {
        let mut moved = false;
        for m in &END_TO_END {
            let (Some((sa, va)), Some((sb, vb))) = (a.side(&w, m.name), b.side(&w, m.name)) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(crate::catalog::MAX_BOUND, |p| p.1);
            // `setup_s` is judged on its medians alone: set-ups on a
            // shared machine swing further between invocations than any
            // useful bound.
            let spread_gated = m.name != "setup_s";
            let v = verdict(m.better, (&sa, &va), (&sb, &vb), bound, spread_gated);
            bad |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            moved |= matches!(v, Verdict::Better | Verdict::Worse);
            out.push_str(&format!(
                "{w}\t{}\t{} [{}, {}]\t{} [{}, {}]\t{:+.1}%\t{:.0}%\t{}\n",
                m.name,
                fmt(sa.median),
                fmt(sa.q1),
                fmt(sa.q3),
                fmt(sb.median),
                fmt(sb.q1),
                fmt(sb.q3),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                bound * 100.0,
                v.label()
            ));
        }
        if moved {
            out.push_str(&attribution(a, b, &w));
        }
    }
    (out, bad)
}

/// Names the stage whose traced self time per tick moved most.
fn attribution(a: &Suite, b: &Suite, w: &str) -> String {
    let (Some(ta), Some(tb)) = (a.traced(w), b.traced(w)) else {
        return format!("{w}\t# no traced runs to attribute the move to\n");
    };
    let most = ta
        .stages
        .iter()
        .filter_map(|(name, va)| {
            let vb = tb.stages.iter().find(|(n, _)| n == name)?.1;
            Some((name, *va, vb))
        })
        .max_by(|x, y| (x.2 - x.1).abs().total_cmp(&(y.2 - y.1).abs()));
    match most {
        Some((name, va, vb)) => format!(
            "{w}\t# stage that moved most: {name} {} -> {} us/tick ({:+.3})\n",
            fmt(va),
            fmt(vb),
            vb - va
        ),
        None => format!("{w}\t# no common traced stages\n"),
    }
}

/// Each end-to-end metric's largest relative spread over the workloads,
/// and the bound it calibrates to.
#[must_use]
pub fn calibrate(suite: &Suite) -> (String, Vec<(String, f64)>) {
    let mut report = String::from("metric\tworkload\tmedian\tq1\tq3\tspread\n");
    let mut bounds = Vec::new();
    for m in &END_TO_END {
        let mut worst = 0.0f64;
        for w in suite.workloads() {
            if let Some((s, _)) = suite.side(&w, m.name) {
                let spread = s.rel_spread();
                worst = worst.max(spread);
                report.push_str(&format!(
                    "{}\t{w}\t{}\t{}\t{}\t{:.2}%\n",
                    m.name,
                    fmt(s.median),
                    fmt(s.q1),
                    fmt(s.q3),
                    spread * 100.0
                ));
            }
        }
        let bound = bound_for(m.name, worst);
        report.push_str(&format!(
            "{}\t(all)\t\t\t\t{:.2}% -> bound {:.0}%\n",
            m.name,
            worst * 100.0,
            bound * 100.0
        ));
        bounds.push((m.name.to_string(), bound));
    }
    (report, bounds)
}
