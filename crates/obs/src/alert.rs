//! SLO burn-rate alerting over sim-time windows.
//!
//! The batch path already *counts* SLO violations
//! (`runner.slo_violations`, `lc_violated_requests`); this module
//! *judges* them the way an on-call rotation would: a multi-window
//! burn-rate rule in the Google SRE mold. The burn rate over a window
//! is the fraction of requests that violated the SLO divided by the
//! error budget — burn 1.0 means "spending the budget exactly at the
//! sustainable rate", burn 10 means "the budget is gone in a tenth of
//! the period". A rule fires only when both a *fast* window (catches
//! the incident quickly) and a *slow* window (rejects blips) exceed the
//! threshold, holds through a pending dwell, and resolves with a dwell
//! of its own so a single good tick can't flap the alert.
//!
//! Everything is computed from **sim time** fed by the runner, never
//! wall clock, so alert transitions — including their timestamps — are
//! bit-identical across replays of a seeded experiment. The engine is
//! an observer: nothing it computes feeds back into simulation physics
//! (same contract as the rest of [`crate`]).

use std::collections::VecDeque;

use crate::export::{json_f64, json_string};

/// Alert lifecycle state: `Inactive → Pending → Firing → Inactive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition not met.
    Inactive,
    /// Condition met, dwell not yet served.
    Pending,
    /// Alert is live (would page).
    Firing,
}

impl AlertState {
    /// Lowercase label for exports and `/status`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One multi-window burn-rate rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Rule name (`slo_fast_burn`, ...); becomes the event/metric key.
    pub name: String,
    /// SLO error budget as a violation fraction (e.g. `0.01` = 99%).
    pub budget: f64,
    /// Burn-rate threshold both windows must exceed to fire.
    pub factor: f64,
    /// Fast window length, sim seconds.
    pub fast_secs: f64,
    /// Slow window length, sim seconds (≥ `fast_secs`).
    pub slow_secs: f64,
    /// Dwell above threshold before `Pending` promotes to `Firing`.
    pub pending_secs: f64,
    /// Dwell with the fast burn below `factor` before `Firing` clears.
    pub clear_secs: f64,
}

impl AlertRule {
    /// The paging rule: a fast 60 s window gated by a 5 min window,
    /// threshold 6× budget burn, 10 s pending dwell.
    #[must_use]
    pub fn fast_burn(budget: f64) -> Self {
        Self {
            name: "slo_fast_burn".to_string(),
            budget,
            factor: 6.0,
            fast_secs: 60.0,
            slow_secs: 300.0,
            pending_secs: 10.0,
            clear_secs: 30.0,
        }
    }

    /// The ticket rule: 5 min / 30 min windows at 2× budget burn.
    #[must_use]
    pub fn slow_burn(budget: f64) -> Self {
        Self {
            name: "slo_slow_burn".to_string(),
            budget,
            factor: 2.0,
            fast_secs: 300.0,
            slow_secs: 1800.0,
            pending_secs: 60.0,
            clear_secs: 120.0,
        }
    }

    /// The default rule pair for a given budget.
    #[must_use]
    pub fn default_rules(budget: f64) -> Vec<Self> {
        vec![Self::fast_burn(budget), Self::slow_burn(budget)]
    }
}

/// One recorded state change, with the burns that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// Sim time of the transition.
    pub at_secs: f64,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

impl AlertTransition {
    /// One-line JSON record (the alert-log JSONL format).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"at_secs\":{},\"from\":\"{}\",\"to\":\"{}\",\
             \"fast_burn\":{},\"slow_burn\":{}}}",
            json_string(&self.rule),
            json_f64(self.at_secs),
            self.from.label(),
            self.to.label(),
            json_f64(self.fast_burn),
            json_f64(self.slow_burn),
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    t: f64,
    viol: f64,
    total: f64,
}

/// Running sum over a suffix of the shared sample deque. `start` is an
/// absolute sample index (survives front-pops).
#[derive(Debug, Clone, Copy, Default)]
struct WindowSum {
    start: usize,
    viol: f64,
    total: f64,
}

#[derive(Debug, Clone)]
struct RuleState {
    state: AlertState,
    /// Sim time the pending dwell began (while `Pending`).
    pending_since: f64,
    /// Sim time the clear dwell began (while `Firing` with the fast burn
    /// below `factor`); `None` while still burning.
    clear_since: Option<f64>,
    fast: WindowSum,
    slow: WindowSum,
}

/// The burn-rate engine: feed it per-tick violation counts, read back
/// states and transitions.
///
/// ```
/// use mtat_obs::alert::{AlertRule, AlertState, BurnRateEngine};
///
/// let mut rule = AlertRule::fast_burn(0.01);
/// rule.pending_secs = 0.0;
/// let mut eng = BurnRateEngine::new(vec![rule]);
/// // A hard outage: every request violates.
/// for tick in 0..80 {
///     eng.observe(tick as f64, 100.0, 100.0);
/// }
/// assert_eq!(eng.firing(), vec!["slo_fast_burn"]);
/// assert!(eng.transitions().iter().any(|t| t.to == AlertState::Firing));
/// ```
#[derive(Debug, Clone)]
pub struct BurnRateEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    samples: VecDeque<Sample>,
    /// Absolute index of `samples.front()`.
    base: usize,
    transitions: Vec<AlertTransition>,
}

impl BurnRateEngine {
    /// An engine over the given rules.
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = rules
            .iter()
            .map(|_| RuleState {
                state: AlertState::Inactive,
                pending_since: 0.0,
                clear_since: None,
                fast: WindowSum::default(),
                slow: WindowSum::default(),
            })
            .collect();
        Self {
            rules,
            states,
            samples: VecDeque::new(),
            base: 0,
            transitions: Vec::new(),
        }
    }

    /// Feeds one tick: `viol` of `total` requests violated the SLO in
    /// the tick ending at sim time `now`. Must be called with
    /// non-decreasing `now`.
    pub fn observe(&mut self, now: f64, viol: f64, total: f64) {
        self.samples.push_back(Sample {
            t: now,
            viol,
            total,
        });
        for i in 0..self.rules.len() {
            let (fast_burn, slow_burn) = self.advance_windows(i, now, viol, total);
            self.step_rule(i, now, fast_burn, slow_burn);
        }
        self.trim();
    }

    /// Adds the new sample to rule `i`'s windows, expires old samples,
    /// and returns the current (fast, slow) burn rates.
    fn advance_windows(&mut self, i: usize, now: f64, viol: f64, total: f64) -> (f64, f64) {
        let rule = &self.rules[i];
        let (budget, fast_secs, slow_secs) = (rule.budget, rule.fast_secs, rule.slow_secs);
        let st = &mut self.states[i];
        st.fast.viol += viol;
        st.fast.total += total;
        st.slow.viol += viol;
        st.slow.total += total;
        let base = self.base;
        let expire = |w: &mut WindowSum, horizon: f64, samples: &VecDeque<Sample>| {
            while let Some(s) = samples.get(w.start - base) {
                if s.t <= now - horizon {
                    w.viol -= s.viol;
                    w.total -= s.total;
                    w.start += 1;
                } else {
                    break;
                }
            }
        };
        expire(&mut st.fast, fast_secs, &self.samples);
        expire(&mut st.slow, slow_secs, &self.samples);
        let burn = |w: &WindowSum| {
            if w.total <= 0.0 {
                0.0
            } else {
                (w.viol / w.total) / budget
            }
        };
        (burn(&st.fast), burn(&st.slow))
    }

    /// Runs the state machine for rule `i` with fresh burn rates.
    fn step_rule(&mut self, i: usize, now: f64, fast_burn: f64, slow_burn: f64) {
        let rule = &self.rules[i];
        let active = fast_burn >= rule.factor && slow_burn >= rule.factor;
        let cleared = fast_burn < rule.factor;
        let (pending_secs, clear_secs) = (rule.pending_secs, rule.clear_secs);
        let st = &mut self.states[i];
        let from = st.state;
        match st.state {
            AlertState::Inactive => {
                if active {
                    st.state = AlertState::Pending;
                    st.pending_since = now;
                    // A zero dwell promotes within the same tick.
                    if pending_secs <= 0.0 {
                        st.state = AlertState::Firing;
                    }
                }
            }
            AlertState::Pending => {
                if !active {
                    st.state = AlertState::Inactive;
                } else if now - st.pending_since >= pending_secs {
                    st.state = AlertState::Firing;
                }
            }
            AlertState::Firing => {
                if cleared {
                    let since = *st.clear_since.get_or_insert(now);
                    if now - since >= clear_secs {
                        st.state = AlertState::Inactive;
                    }
                } else {
                    st.clear_since = None; // relapse: dwell restarts
                }
            }
        }
        if st.state != from {
            st.clear_since = None;
            self.transitions.push(AlertTransition {
                rule: self.rules[i].name.clone(),
                at_secs: now,
                from,
                to: self.states[i].state,
                fast_burn,
                slow_burn,
            });
        }
    }

    /// Drops samples no rule's slow window can still reference.
    fn trim(&mut self) {
        let min_start = self
            .states
            .iter()
            .map(|s| s.fast.start.min(s.slow.start))
            .min()
            .unwrap_or(self.base + self.samples.len());
        while self.base < min_start && self.samples.pop_front().is_some() {
            self.base += 1;
        }
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Current state of every rule, in rule order.
    #[must_use]
    pub fn states(&self) -> Vec<(&str, AlertState)> {
        self.rules
            .iter()
            .zip(&self.states)
            .map(|(r, s)| (r.name.as_str(), s.state))
            .collect()
    }

    /// Names of currently-firing rules, in rule order.
    #[must_use]
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.state == AlertState::Firing)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Every state change so far, in occurrence order.
    #[must_use]
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// The alert log as JSONL (one transition per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.transitions.len() * 96);
        for t in &self.transitions {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(factor: f64, pending: f64, clear: f64) -> AlertRule {
        AlertRule {
            name: "t".to_string(),
            budget: 0.01,
            factor,
            fast_secs: 10.0,
            slow_secs: 30.0,
            pending_secs: pending,
            clear_secs: clear,
        }
    }

    /// Drives `eng` with `viol_frac` violations for `secs` at 1 Hz.
    fn drive(eng: &mut BurnRateEngine, from: f64, secs: f64, viol_frac: f64) -> f64 {
        let mut t = from;
        while t < from + secs {
            t += 1.0;
            eng.observe(t, viol_frac * 100.0, 100.0);
        }
        t
    }

    #[test]
    fn quiet_stream_never_alerts() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 5.0, 5.0)]);
        drive(&mut eng, 0.0, 600.0, 0.0);
        assert!(eng.transitions().is_empty());
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn sustained_burn_fires_after_pending_dwell() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 5.0, 5.0)]);
        // 100% violations: burn = 100x budget, far over factor 6.
        let t = drive(&mut eng, 0.0, 60.0, 1.0);
        assert_eq!(eng.firing(), vec!["t"]);
        let fired = eng
            .transitions()
            .iter()
            .find(|tr| tr.to == AlertState::Firing)
            .expect("must fire");
        assert!(fired.at_secs <= t);
        assert!(fired.fast_burn > 6.0 && fired.slow_burn > 6.0);
        // Pending preceded firing.
        assert_eq!(eng.transitions()[0].to, AlertState::Pending);
        assert!(fired.at_secs - eng.transitions()[0].at_secs >= 5.0);
    }

    #[test]
    fn blip_shorter_than_pending_never_fires() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 20.0, 5.0)]);
        let t = drive(&mut eng, 0.0, 5.0, 1.0);
        // Burn collapses before the pending dwell is served: the fast
        // window (10 s) flushes the 5 s blip quickly.
        drive(&mut eng, t, 120.0, 0.0);
        assert!(eng
            .transitions()
            .iter()
            .all(|tr| tr.to != AlertState::Firing));
        // It did go pending, then returned.
        assert_eq!(
            eng.transitions().first().map(|t| t.to),
            Some(AlertState::Pending)
        );
        assert_eq!(
            eng.transitions().last().map(|t| t.to),
            Some(AlertState::Inactive)
        );
    }

    #[test]
    fn firing_resolves_after_clear_dwell() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 5.0, 10.0)]);
        let t = drive(&mut eng, 0.0, 60.0, 1.0);
        assert_eq!(eng.firing(), vec!["t"]);
        let t = drive(&mut eng, t, 120.0, 0.0);
        assert!(eng.firing().is_empty(), "alert should have resolved");
        let resolved = eng.transitions().last().unwrap();
        assert_eq!(resolved.from, AlertState::Firing);
        assert_eq!(resolved.to, AlertState::Inactive);
        assert!(resolved.at_secs <= t);
    }

    #[test]
    fn resolve_requires_the_full_clear_dwell() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 0.0, 30.0)]);
        let t = drive(&mut eng, 0.0, 60.0, 1.0);
        assert_eq!(eng.firing(), vec!["t"]);
        // Clean for 15 s (fast window empties after 10 s) — clear dwell
        // (30 s) not served yet, still firing.
        let t = drive(&mut eng, t, 15.0, 0.0);
        assert_eq!(eng.firing(), vec!["t"]);
        // Relapse, then the dwell must restart.
        let t = drive(&mut eng, t, 20.0, 1.0);
        let _ = drive(&mut eng, t, 45.0, 0.0);
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn transitions_are_deterministic_across_replays() {
        let run = || {
            let mut eng = BurnRateEngine::new(AlertRule::default_rules(0.01));
            let mut t = 0.0;
            for i in 0..2000u32 {
                t += 0.25;
                // A deterministic viol pattern with two incident bursts.
                let frac = if (300..500).contains(&i) || (1200..1500).contains(&i) {
                    0.8
                } else {
                    0.001
                };
                eng.observe(t, frac * 50.0, 50.0);
            }
            eng.to_jsonl()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty(), "pattern should produce transitions");
    }

    #[test]
    fn empty_window_burn_is_zero() {
        let mut eng = BurnRateEngine::new(vec![rule(0.0, 0.0, 0.0)]);
        eng.observe(1.0, 0.0, 0.0);
        // factor 0 with burn 0: 0 >= 0 fires immediately — degenerate
        // but well-defined; with no requests burn stays 0.
        assert_eq!(eng.states()[0].1, AlertState::Firing);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 5.0, 5.0)]);
        drive(&mut eng, 0.0, 10_000.0, 0.3);
        // Slow window is 30 s at 1 Hz: the deque must stay near that.
        assert!(eng.samples.len() < 64, "deque grew: {}", eng.samples.len());
    }

    #[test]
    fn jsonl_round_trips_through_parser() {
        let mut eng = BurnRateEngine::new(vec![rule(6.0, 5.0, 5.0)]);
        let t = drive(&mut eng, 0.0, 60.0, 1.0);
        drive(&mut eng, t, 120.0, 0.0);
        for line in eng.to_jsonl().lines() {
            let doc = crate::json::parse(line).expect("valid JSON");
            assert!(doc.get("rule").is_some());
            assert!(doc.get("at_secs").is_some());
        }
    }
}
