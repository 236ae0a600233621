//! Iterative CT image reconstruction on top of the CSCV SpMV suite.
//!
//! The paper's motivating application: model-based iterative
//! reconstruction executes `y = Ax` (forward projection) and `x = Aᵀy`
//! (back projection) hundreds of times per image, so SpMV throughput is
//! the reconstruction wall-clock. This crate provides the algorithms the
//! CT literature actually runs:
//!
//! * [`sirt`](sirt::sirt) — Simultaneous Iterative Reconstruction
//!   Technique (row/column-normalized Landweber; robust default);
//! * [`art`] — ART/Kaczmarz row-action sweeps (the classic; row-driven,
//!   which is why CSC/CSCV matter for its coordinate-descent duals);
//! * [`cgls`](cgls::cgls) — Conjugate Gradient on the normal equations
//!   (fastest convergence per iteration);
//! * [`landweber`](landweber::landweber) — plain gradient descent with a
//!   power-method step size (baseline and building block);
//! * [`operators`] — the forward/transpose operator abstraction that
//!   plugs any `SpmvExecutor` pair (CSCV, CSR, …) into the solvers;
//! * [`batch`] — the one iteration loop of SIRT, CGLS and Landweber. It
//!   reconstructs a stack of slices sharing one operator through
//!   `apply_multi`, so the matrix is streamed once per register-tile
//!   chunk instead of once per slice (the multi-RHS amortization the
//!   batched SpMM kernels exist for); the single-image `sirt`, `cgls`
//!   and `landweber` above are its width-1 calls;
//! * [`metrics`] — RMSE / PSNR / relative error image quality metrics;
//! * [`driver`] — a solver selector plus the trajectory/bitwise
//!   comparison predicates the sharded-equivalence gates run on.

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

pub mod art;
pub mod batch;
pub mod cgls;
pub mod driver;
pub mod landweber;
pub mod metrics;
pub mod operators;
pub mod os_sart;
pub mod sirt;

pub use batch::{cgls_batch, landweber_batch, sirt_batch, BatchReconResult};
pub use cgls::cgls;
pub use driver::{bitwise_equal, run_solver, trajectory_max_rel_diff, Solver};
pub use landweber::landweber;
pub use operators::{LinearOperator, SpmvOperator};
pub use sirt::sirt;

pub use operators::CscvOperator;
