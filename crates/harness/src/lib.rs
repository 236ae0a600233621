//! Measurement harness for the CSCV experiment suite.
//!
//! Implements the paper's measurement methodology (§V-C): performance is
//! the **minimum** SpMV execution time over ≥ 100 iterations (immune to
//! fork-join and allocation noise), reported as
//! `F = 2·nnz(A)/T` GFLOP/s, alongside the memory-requirement model
//! `M_Rit = M(A)+M(x)+M(y)` and the effective-bandwidth ratio
//! `R_EM = M_Rit/(T·M_PBw)` where `M_PBw` comes from the built-in
//! STREAM-style bandwidth meter ([`membw`], the Intel MLC substitute).
//!
//! [`suite`] wires datasets to executor fields so every experiment
//! driver in `cscv-bench` is a short loop; [`table`] renders aligned
//! text tables and CSV.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation
)]
// Test code narrows freely; clippy.toml exempts its panics the same way.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]

pub mod gen;
pub mod manifest;
pub mod membw;
pub mod plotting;
pub mod roofline;
pub mod suite;
pub mod table;
pub mod timing;

pub use roofline::{classify, model_point, Bound, RooflinePoint};
pub use suite::{executor_field, prepare, PreparedDataset};
pub use timing::{
    measure_spmm, measure_spmv, modeled_batch_speedup, summarize_samples, LatencySummary,
    SpmmMeasurement, SpmvMeasurement,
};
