//! Model outputs at the default seed, recorded in `reference.json`.
//!
//! A run at [`DEFAULT_SEED`] fails when its SLO violation rate leaves a
//! ±0.5 percentage-point band around the reference, or its best-effort
//! throughput a ±1 % band. The digest is recorded for information: it
//! changes with any change to the simulated physics, while the bands
//! only catch changes to what the model computes.

use mtat_obs::json::{self, Value};

use crate::workload::{Workload, DEFAULT_SEED};

/// Half-width of the violation-rate band, as a rate (0.5 pp).
pub const VIOLATION_BAND: f64 = 0.005;

/// Half-width of the BE-throughput band, relative.
pub const MOPS_BAND: f64 = 0.01;

const REFERENCE_JSON: &str = include_str!("../reference.json");

/// One workload's recorded outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub violation_rate: f64,
    pub be_mops: f64,
    pub digest: String,
}

/// The recorded outputs of `w`, if `reference.json` has them.
#[must_use]
pub fn reference(w: Workload) -> Option<Reference> {
    let doc = json::parse(REFERENCE_JSON).ok()?;
    let r = doc.get(w.name())?;
    Some(Reference {
        violation_rate: r.get("violation_rate")?.as_f64()?,
        be_mops: r.get("be_mops")?.as_f64()?,
        digest: r.get("digest").and_then(Value::as_str)?.to_string(),
    })
}

/// Checks a run's outputs against the reference bands. Runs at other
/// seeds than [`DEFAULT_SEED`] always pass.
///
/// # Errors
///
/// A message naming the output that left its band, or the missing
/// reference.
pub fn check(w: Workload, seed: u64, violation_rate: f64, be_mops: f64) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let r = reference(w).ok_or_else(|| format!("reference.json has no entry for {}", w.name()))?;
    if (violation_rate - r.violation_rate).abs() > VIOLATION_BAND {
        return Err(format!(
            "violation rate {violation_rate:.6} outside {:.6} ± {VIOLATION_BAND}",
            r.violation_rate
        ));
    }
    if (be_mops - r.be_mops).abs() > MOPS_BAND * r.be_mops {
        return Err(format!(
            "BE throughput {be_mops:.4} Mops/s outside {:.4} ± {:.0} %",
            r.be_mops,
            MOPS_BAND * 100.0
        ));
    }
    Ok(())
}

/// Renders a `reference.json` document from `(workload, reference)`
/// pairs.
#[must_use]
pub fn render(rows: &[(Workload, Reference)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(w, r)| {
            format!(
                "  \"{}\": {{\"violation_rate\": {}, \"be_mops\": {}, \"digest\": \"{}\"}}",
                w.name(),
                r.violation_rate,
                r.be_mops,
                r.digest
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}
