//! The sv-sim benchmark: three seeded workloads driven through the public
//! APIs of `svsim-qasm`, `svsim-core` and `svsim-engine`, timed from
//! outside the program, with output checks and an optional span trace.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! the layer each metric belongs to.

pub mod check;
pub mod gen;
pub mod host;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
