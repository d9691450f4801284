//! # mtat-tiermem — tiered-memory substrate
//!
//! This crate implements the memory substrate that the MTAT framework
//! (Middleware '25) manages: a two-tier memory system with a small, fast
//! tier (**FMem**, e.g. local DRAM at ~73 ns) and a large, slow tier
//! (**SMem**, e.g. CXL-attached or remote DRAM at ~202 ns), together with
//! everything a page-placement policy needs to observe and act on it:
//!
//! * [`memory::TieredMemory`] — the page table: per-page owner and tier,
//!   per-workload residency accounting, capacity enforcement, and page
//!   migration primitives.
//! * [`migration::MigrationEngine`] — a bandwidth-limited migration budget
//!   that enforces the paper's Eq. (1) bound (`|α| ≤ M/2t`) and the
//!   per-time-slice page cap `p_max` of Algorithm 3.
//! * [`histogram::AccessHistogram`] — the exponentially-binned access
//!   frequency histogram of Fig. 4 (bins double from 2⁰ to 2ⁿ, aged by
//!   half at every partitioning interval), with per-bin page lists so the
//!   hottest/coldest pages can be located in O(1) per page.
//! * [`sampler::AccessSampler`] — a PEBS-like sampler that thins the true
//!   access stream down to what hardware counter sampling would observe.
//! * [`latency`] — the M/M/c queueing model used to turn a workload's
//!   FMem hit ratio and offered load into service times, mean and P99
//!   response times, and maximum sustainable loads (the knee of Fig. 1).
//!
//! The substrate is deliberately deterministic: given the same seed, the
//! same experiment produces the same results, which makes the paper's
//! figures reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use mtat_tiermem::memory::{MemorySpec, TieredMemory, InitialPlacement};
//! use mtat_tiermem::page::Tier;
//!
//! # fn main() -> Result<(), mtat_tiermem::TierMemError> {
//! // 1 GiB of FMem and 8 GiB of SMem, 2 MiB pages.
//! let spec = MemorySpec::new(1 << 30, 8 << 30, 2 << 20)?;
//! let mut mem = TieredMemory::new(spec);
//!
//! // Register a workload with a 2 GiB resident set, initially all in SMem.
//! let w = mem.register_workload(2 << 30, InitialPlacement::AllSmem)?;
//! assert_eq!(mem.residency(w).smem_pages, 1024);
//!
//! // Promote its first page to FMem.
//! let page = mem.region(w).page(0);
//! mem.migrate(page, Tier::FMem)?;
//! assert_eq!(mem.residency(w).fmem_pages, 1);
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod bandwidth;
pub mod error;
pub mod faults;
pub mod histogram;
pub mod kernel;
pub mod latency;
pub mod memory;
pub mod migration;
pub mod page;
pub mod sampler;

pub use audit::{audit_enabled, AuditViolation};
pub use bandwidth::BandwidthModel;
pub use error::TierMemError;
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow, TickFaults};
pub use histogram::AccessHistogram;
pub use memory::{InitialPlacement, MemorySpec, MigrationFlow, TieredMemory};
pub use migration::MigrationEngine;
pub use page::{PageId, Tier, WorkloadId};
pub use sampler::{AccessSampler, TouchedSet};

/// One kibibyte (2¹⁰ bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2²⁰ bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2³⁰ bytes).
pub const GIB: u64 = 1 << 30;

/// Local-DRAM (FMem) load latency measured by the paper with Intel MLC (§5).
pub const FMEM_LATENCY_NS: f64 = 73.0;
/// CXL-emulated remote-DRAM (SMem) load latency measured by the paper (§5).
pub const SMEM_LATENCY_NS: f64 = 202.0;
