//! # mtat-core — MTAT: adaptive FMem management for co-located LC/BE workloads
//!
//! This crate is the heart of the reproduction of *MTAT: Adaptive Fast
//! Memory Management for Co-located Latency-Critical Workloads in Tiered
//! Memory System* (Middleware '25). It implements:
//!
//! * the **Partition Policy Maker** ([`ppm`]) — reinforcement-learning
//!   LC partition sizing (§3.2.1, Algorithm 1) and fairness-driven
//!   simulated-annealing BE partitioning (§3.2.2, Algorithm 2) on top of
//!   offline throughput profiles;
//! * the **Partition Policy Enforcer** ([`ppe`]) — LC-first time-sliced
//!   partition adjustment (§3.3.1, Algorithm 3) and hotness-aware page
//!   placement with exponential-bin histograms (§3.3.2, Fig. 4);
//! * the **baseline policies** ([`policy`]) the paper compares against —
//!   MEMTIS-like global hotness placement, TPP-like fault-driven
//!   promotion, and the FMEM_ALL / SMEM_ALL static placements;
//! * the **simulation driver** ([`runner`]) that co-locates workloads on
//!   the tiered-memory substrate and measures P99 latencies, SLO
//!   violation rates, throughput, and fairness (Eq. 3).
//!
//! ## Quick start
//!
//! ```
//! use mtat_core::config::SimConfig;
//! use mtat_core::policy::statics::StaticPolicy;
//! use mtat_core::runner::Experiment;
//! use mtat_workloads::lc::LcSpec;
//! use mtat_workloads::load::LoadPattern;
//!
//! // A short FMEM_ALL run of Redis at half load on a small system.
//! let mut lc = LcSpec::redis();
//! lc.rss_bytes = 1 << 30; // shrink to the test-scale memory
//! let exp = Experiment::new(
//!     SimConfig::small_test(),
//!     lc,
//!     LoadPattern::Constant(0.5),
//!     vec![],
//! )
//! .with_duration(10.0);
//! let result = exp.run(&mut StaticPolicy::fmem_all());
//! assert_eq!(result.violation_rate(), 0.0);
//! ```

pub mod config;
pub mod hardening;
pub mod health;
pub mod policy;
pub mod ppe;
pub mod ppm;
pub(crate) mod prefix_sort;
pub mod runner;
pub mod stats;
pub mod supervisor;
pub mod tracker;

pub use config::SimConfig;
pub use hardening::Hardening;
pub use health::{HealthConfig, HealthMonitor, HealthState, HealthSummary, RecoveryMode};
pub use policy::hotset::HotsetPolicy;
pub use policy::memtis::MemtisPolicy;
pub use policy::mtat::{MtatConfig, MtatPolicy, MtatVariant};
pub use policy::statics::StaticPolicy;
pub use policy::tpp::TppPolicy;
pub use policy::Policy;
pub use runner::{BeInputs, CheckpointCfg, Experiment, MaxLoadSearch};
pub use stats::RunResult;
pub use supervisor::{DegradationState, Supervisor};
