//! [`TimedPolicy`]: times the policy layer from outside.
//!
//! The wrapper forwards every [`Policy`] method to the policy it wraps
//! and records host time around the calls the runner makes into it. The
//! runner calls `on_tick` exactly once per tick, so the gap between two
//! successive `on_tick` entries is the host time of one whole tick
//! (sampling, accounting, health, publication and the policy itself),
//! and the gap minus the `on_tick` duration is the runner's own share.
//! Nothing recorded here is read back by the policy, so a wrapped run is
//! bit-identical to an unwrapped one.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use mtat_core::policy::{Policy, SimState, WorkloadClass, WorkloadObs};
use mtat_core::supervisor::DegradationState;
use mtat_obs::Obs;
use mtat_tiermem::memory::{InitialPlacement, TieredMemory};
use mtat_tiermem::page::WorkloadId;

/// What a [`TimedPolicy`] recorded over one run.
#[derive(Debug, Clone, Default)]
pub struct PolicyLog {
    /// When `init` was entered (the runner has built the page table).
    pub init_at: Option<Instant>,
    /// Duration of `init`, ns.
    pub init_ns: u64,
    /// Entry instant of every `on_tick` call.
    pub tick_entries: Vec<Instant>,
    /// Duration of every `on_tick` call, ns.
    pub on_tick_ns: Vec<u64>,
    /// Duration of every `checkpoint` call that returned a payload, ns.
    pub checkpoint_ns: Vec<u64>,
    /// Payload size of every such checkpoint, bytes.
    pub checkpoint_bytes: Vec<usize>,
    /// Duration of every `on_controller_restart` call, ns.
    pub restart_ns: Vec<u64>,
    /// Total time spent in `health_probe`, ns.
    pub probe_ns: u64,
    /// Number of `health_probe` calls.
    pub probes: u64,
}

impl PolicyLog {
    /// Host time of each tick but the last, ns: the gaps between
    /// successive `on_tick` entries.
    #[must_use]
    pub fn tick_gaps_ns(&self) -> Vec<u64> {
        self.tick_entries
            .windows(2)
            .map(|w| nanos(w[1].duration_since(w[0])))
            .collect()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A delegating [`Policy`] that times the calls made into it.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    // `checkpoint` and `health_probe` take `&self`, so the log sits in a
    // cell; the runner drives a policy from one thread.
    log: RefCell<PolicyLog>,
}

impl TimedPolicy {
    #[must_use]
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            log: RefCell::new(PolicyLog::default()),
        }
    }

    /// Consumes the wrapper, returning its timings.
    #[must_use]
    pub fn into_log(self) -> PolicyLog {
        self.log.into_inner()
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, mem: &TieredMemory, workloads: &[WorkloadObs]) {
        let t0 = Instant::now();
        self.inner.init(mem, workloads);
        let log = self.log.get_mut();
        log.init_at = Some(t0);
        log.init_ns = nanos(t0.elapsed());
    }

    fn set_obs(&mut self, obs: &Obs) {
        self.inner.set_obs(obs);
    }

    fn on_tick(&mut self, sim: &mut SimState<'_>) {
        let t0 = Instant::now();
        self.inner.on_tick(sim);
        let log = self.log.get_mut();
        log.tick_entries.push(t0);
        log.on_tick_ns.push(nanos(t0.elapsed()));
    }

    fn initial_placement(&self, class: WorkloadClass) -> InitialPlacement {
        self.inner.initial_placement(class)
    }

    fn smem_access_penalty(&self, w: WorkloadId) -> f64 {
        self.inner.smem_access_penalty(w)
    }

    fn fmem_target(&self, w: WorkloadId) -> Option<u64> {
        self.inner.fmem_target(w)
    }

    fn degradation(&self) -> Option<DegradationState> {
        self.inner.degradation()
    }

    fn wants_page_samples(&self) -> bool {
        self.inner.wants_page_samples()
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        let payload = self.inner.checkpoint();
        if let Some(p) = &payload {
            let mut log = self.log.borrow_mut();
            log.checkpoint_ns.push(nanos(t0.elapsed()));
            log.checkpoint_bytes.push(p.len());
        }
        payload
    }

    fn on_controller_crash(&mut self) {
        self.inner.on_controller_crash();
    }

    fn on_controller_restart(&mut self, mem: &TieredMemory, checkpoint: Option<&[u8]>) {
        let t0 = Instant::now();
        self.inner.on_controller_restart(mem, checkpoint);
        self.log.get_mut().restart_ns.push(nanos(t0.elapsed()));
    }

    fn health_probe(&self) -> Result<(), String> {
        let t0 = Instant::now();
        let verdict = self.inner.health_probe();
        let mut log = self.log.borrow_mut();
        log.probe_ns += nanos(t0.elapsed());
        log.probes += 1;
        verdict
    }

    fn inject_poison(&mut self) {
        self.inner.inject_poison();
    }

    fn enter_quarantine(&mut self, now_secs: f64) {
        self.inner.enter_quarantine(now_secs);
    }

    fn after_rollback(&mut self, now_secs: f64) {
        self.inner.after_rollback(now_secs);
    }
}
