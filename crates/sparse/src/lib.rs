//! Sparse-matrix substrate for the CSCV SpMV suite.
//!
//! The CSCV paper benchmarks its contribution against a field of general
//! sparse formats (MKL CSR/CSC, merge-path CSR, CSR5, ESB, SPC5, CVR).
//! None of those implementations are redistributable Rust, so this crate
//! provides the substrate from scratch:
//!
//! * canonical storage: [`Coo`], [`Csr`], [`Csc`] with conversions and a
//!   dense reference ([`dense`]);
//! * an execution abstraction: [`SpmvExecutor`] — every format in the
//!   suite (including CSCV itself, in `cscv-core`) implements it so the
//!   experiment drivers can sweep implementations uniformly;
//! * a persistent [`ThreadPool`] (OpenMP analog) plus nnz-balanced
//!   [`partition`] helpers;
//! * re-implementations of the paper's baselines in [`formats`].

// Index narrowing and panics are checked per site: a site that is safe
// by an invariant says so in `#[expect(…, reason = "…")]`.
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

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod executor;
#[allow(unsafe_code)]
pub mod formats;
pub mod invariants;
pub mod io;
pub mod partition;
#[allow(unsafe_code)]
pub mod pool;
#[allow(unsafe_code)]
pub mod shared;
pub mod stats;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use executor::SpmvExecutor;
pub use pool::ThreadPool;

// Re-export the element trait so downstream crates have a single import
// point for matrix + scalar machinery.
pub use cscv_simd::Scalar;
