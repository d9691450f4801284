//! The JSON a run prints and the record the suite commands read back.
//!
//! A run prints two lines on stdout: a `{"detail": ...}` line with the
//! quartiles, digests, every layer metric the workload measured and the
//! traced stage times behind its numbers, then, last, the result line
//! `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
//! whose metrics are every end-to-end metric (untraced run) or every
//! per-layer metric (traced run), each as `{"value": v, "unit": u}`.

use mtat_obs::export::json_string;
use mtat_obs::json::{self, Value};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::measure::{nproc, Outcome, Request};
use crate::stats::Summary;

/// A number with all its digits; `null` when not finite.
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A reported value with the quartiles of its per-repetition (or
/// per-set-up) values and the number of samples behind it.
fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"value\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
        num(s.median),
        num(s.q1),
        num(s.q3),
        s.n
    )
}

fn object(pairs: impl Iterator<Item = (String, String)>) -> String {
    let body: Vec<String> = pairs
        .map(|(k, v)| format!("{}: {v}", json_string(&k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line.
#[must_use]
pub fn result_line(req: &Request, out: &Outcome) -> String {
    let metric = |name: &str, unit: &str, v: f64| {
        (
            name.to_string(),
            format!("{{\"value\": {}, \"unit\": {}}}", num(v), json_string(unit)),
        )
    };
    // A metric a failed run could not measure reads 0 (per layer) or
    // `null` (end to end); the run is then not correct.
    let metrics = if req.trace {
        object(PER_LAYER.iter().map(|m| {
            let v = out.per_layer.iter().find(|(g, _)| g.name == m.name);
            metric(m.name, m.unit, v.map_or(0.0, |g| g.1))
        }))
    } else {
        object(END_TO_END.iter().map(|m| {
            let s = out.end_to_end.iter().find(|(g, _)| g.name == m.name);
            metric(m.name, m.unit, s.map_or(f64::NAN, |g| g.1.median))
        }))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    )
}

/// The detail line printed before the result line.
#[must_use]
pub fn detail_line(req: &Request, out: &Outcome) -> String {
    let fields = [
        ("workload", json_string(req.workload.name())),
        ("seed", req.seed.to_string()),
        ("seconds", num(req.seconds)),
        ("trace", req.trace.to_string()),
        ("nproc", nproc().to_string()),
        ("reps", out.reps.to_string()),
        ("setup_rounds", out.setup_rounds.to_string()),
        ("digest", json_string(&format!("{:016x}", out.digest))),
        ("violation_rate", num(out.violation_rate)),
        ("be_mops", num(out.be_mops)),
        (
            "distributions",
            object(
                out.end_to_end
                    .iter()
                    .map(|(m, s)| (m.name.to_string(), summary_json(s))),
            ),
        ),
        (
            "layers",
            object(
                out.per_layer
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), num(*v))),
            ),
        ),
        (
            "stages_us_per_tick",
            object(
                out.stages_us_per_tick
                    .iter()
                    .map(|(n, v)| (n.clone(), num(*v))),
            ),
        ),
        (
            "failures",
            format!(
                "[{}]",
                out.failures
                    .iter()
                    .map(|f| json_string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    format!(
        "{{\"detail\": {}}}",
        object(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
    )
}

/// One run as read back from its two output lines.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub violation_rate: f64,
    pub be_mops: f64,
    /// Metric values of the result line.
    pub values: Vec<(String, f64)>,
    /// Within-run distributions of the end-to-end metrics.
    pub distributions: Vec<(String, Summary)>,
    /// Every layer metric the run measured (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Traced self time per tick of each stage, µs.
    pub stages: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    match get(v, key)? {
        Value::Null => Ok(f64::NAN),
        x => x.as_f64().ok_or_else(|| format!("{key:?} is not a number")),
    }
}

fn pairs<T>(
    v: &Value,
    f: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    v.as_obj()
        .ok_or("not an object")?
        .iter()
        .map(|(k, x)| Ok((k.clone(), f(x)?)))
        .collect()
}

impl RunRecord {
    /// Reads a run from its parsed detail object and result object.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn from_json(detail: &Value, result: &Value) -> Result<Self, String> {
        let d = get(detail, "detail")?;
        let value_of = |x: &Value| match get(x, "value")? {
            Value::Null => Ok(f64::NAN),
            v => v
                .as_f64()
                .ok_or_else(|| "metric value is not a number".to_string()),
        };
        let summary = |x: &Value| -> Result<Summary, String> {
            Ok(Summary {
                median: get_f64(x, "value")?,
                q1: get_f64(x, "q1")?,
                q3: get_f64(x, "q3")?,
                n: get(x, "n")?.as_u64().ok_or("n is not a count")? as usize,
            })
        };
        let number = |x: &Value| match x {
            Value::Null => Ok(f64::NAN),
            v => v.as_f64().ok_or_else(|| "not a number".to_string()),
        };
        Ok(Self {
            workload: get(d, "workload")?
                .as_str()
                .ok_or("bad workload")?
                .to_string(),
            seed: get(d, "seed")?.as_u64().ok_or("bad seed")?,
            trace: get(d, "trace")?.as_bool().ok_or("bad trace flag")?,
            correct: get(result, "correct")?.as_bool().ok_or("bad correct")?,
            attempted: get(result, "attempted")?.as_u64().ok_or("bad attempted")?,
            failed: get(result, "failed")?.as_u64().ok_or("bad failed")?,
            digest: get(d, "digest")?.as_str().ok_or("bad digest")?.to_string(),
            violation_rate: get_f64(d, "violation_rate")?,
            be_mops: get_f64(d, "be_mops")?,
            values: pairs(get(result, "metrics")?, value_of)?,
            distributions: pairs(get(d, "distributions")?, summary)?,
            layers: pairs(get(d, "layers")?, number)?,
            stages: pairs(get(d, "stages_us_per_tick")?, number)?,
            failures: get(d, "failures")?
                .as_arr()
                .ok_or("bad failures")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// Reads a run from the stdout of a benchmark invocation: the detail
    /// line and the last line.
    ///
    /// # Errors
    ///
    /// A message when either line is missing or malformed.
    pub fn from_stdout(stdout: &str) -> Result<(Self, String, String), String> {
        let last = stdout.lines().last().ok_or("no output")?.to_string();
        let detail = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with("{\"detail\""))
            .ok_or("no detail line")?
            .to_string();
        let rec = Self::from_json(&json::parse(&detail)?, &json::parse(&last)?)?;
        Ok((rec, detail, last))
    }

    /// The result-line value of `metric`.
    #[must_use]
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == metric).map(|p| p.1)
    }
}
