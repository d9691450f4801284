//! # mtat-benchmark — the MTAT simulator's host-time benchmark
//!
//! Four workloads, each run in its own process, time the simulator end
//! to end (ticks per host second, host time per tick, set-up time, peak
//! memory) and layer by layer (sampler, tracker, PP-E, PP-M and SAC,
//! migration, runner, checkpoints and health, fleet), and check that
//! the simulator's outputs are correct. Every layer is timed from
//! outside, through calls into the simulator's public functions; see
//! `README.md` for the metric catalog and how to run, trace, compare
//! and calibrate.

pub mod affinity;
pub mod catalog;
pub mod measure;
pub mod reference;
pub mod report;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod workload;
