//! Sharded multi-process CT reconstruction.
//!
//! The paper's CSCV SpMV is the *intra-node* kernel; this crate is the
//! first inter-process layer on top of it. An assembled system matrix is
//! partitioned into contiguous **row shards** ([`plan`]), a coordinator
//! hands each shard to a worker *process* over a framed Unix-socket
//! protocol ([`wire`], [`protocol`]), and the workers execute their
//! shard through the existing executor stack — a CSCV-M
//! [`cscv_core::CscvExec`] built from the static heuristic when the
//! shard is view-aligned, the CSR pair otherwise ([`worker`]).
//!
//! Data flow per solver iteration (row decomposition, as in the
//! MLEM/LAIK row-block scheme):
//!
//! * **Forward** `y = A x`: broadcast the full `x`, gather each shard's
//!   contiguous `y` slice. Placement only — no floating-point merge, so
//!   the forward product is bitwise equal to the single-process result
//!   for any shard count.
//! * **Adjoint** `x = Aᵀ y`: scatter each shard's `y` slice, gather
//!   full-width partial `x̃` vectors (trimmed to each shard's column
//!   support — the halo window), and merge them with a **fixed-order
//!   tree reduction** ([`cluster::tree_reduce`]). The reduction order
//!   depends only on the shard indices, never on reply arrival order,
//!   so repeated runs are deterministic and `shards = 1` is
//!   byte-identical to the local executor.
//!
//! [`ShardedOperator`] packages a running [`cluster::Cluster`] as a
//! [`cscv_recon::LinearOperator`], so every solver in `cscv-recon`
//! (SIRT, CGLS, Landweber, …) runs unmodified across processes.
//! `cscv-xtask shard` drives the whole stack end to end and gates
//! single- vs multi-process residual equivalence.

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

pub mod cluster;
pub mod operator;
pub mod plan;
pub mod protocol;
pub mod wire;
pub mod worker;

pub use cluster::{Cluster, ClusterStats, Launch, WorkerReport};
pub use operator::{LocalOperator, ShardedOperator};
pub use plan::{slice_rows, ColWindow, PartitionMethod, ShardPlan};
pub use worker::WorkerStats;
