//! CSCV — Compressed Sparse Column Vector — the paper's contribution.
//!
//! CSCV is a column-major sparse format for matrices arising from
//! line-integral imaging operators (CT/PET/SPECT). It exploits three
//! geometric properties of such operators (paper §IV-B):
//!
//! * **P1** — contiguous pixels map to contiguous-or-identical bins;
//! * **P2** — a pixel maps to one closed bin interval per view;
//! * **P3** — per-column nnz is near-uniform.
//!
//! The format groups the matrix into blocks (an `S_ImgB × S_ImgB` pixel
//! tile × `S_VVec` consecutive views), locally reorders the output vector
//! with **IOBLR** so each column becomes a handful of dense `S_VVec`-lane
//! vectors (**CSCVE**s) addressed by *(parallel-curve offset, view)*, and
//! packs the CSCVEs of `S_VxG` offset-sorted columns into **VxG**s that
//! share one `ỹ` accumulator. The SpMV kernel is then gather/scatter-free:
//! load `ỹ` lanes, FMA, store (Alg. 3 of the paper).
//!
//! Two storage variants:
//! * **CSCV-Z** keeps IOBLR/VxG padding zeros — lowest instruction count;
//! * **CSCV-M** strips them behind per-CSCVE bitmasks decompressed with
//!   AVX-512 `vexpand` (or `soft-vexpand`) — lowest memory traffic.
//!
//! Entry points: [`builder::build`] → [`format::CscvMatrix`] →
//! [`exec::CscvExec`] (implementing `cscv_sparse::SpmvExecutor` for both
//! variants).

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

pub mod analysis;
pub mod builder;
#[allow(unsafe_code)]
pub mod exec;
pub mod format;
pub mod invariants;
pub mod ioblr;
#[allow(unsafe_code)]
pub mod kernels;
pub mod layout;
pub mod layout_eff;
pub mod params;

pub use builder::{
    build, build_with_curves, try_build, try_build_with_curves, BuildError, CurveProvider,
    DataDrivenCurves,
};
pub use exec::{CscvExec, ExecConfig};
pub use format::{CscvMatrix, CscvStats, Variant};
pub use invariants::Violation;
pub use layout::SinoLayout;
pub use params::CscvParams;
