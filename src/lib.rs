//! # cscv-repro — CSCV vectorized SpMV, reproduced in Rust
//!
//! Umbrella crate for the reproduction of *"An Integral-equation-oriented
//! Vectorized SpMV Algorithm and its Application on CT Imaging
//! Reconstruction"* (Ye et al., IPDPS 2022). It re-exports the suite's
//! crates under one roof and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ## Crate map
//!
//! * [`sparse`] — sparse substrate: COO/CSR/CSC, thread pool, the seven
//!   reproduced baseline SpMV implementations;
//! * [`simd`] — lane kernels and the `vexpand`/`soft-vexpand` pair;
//! * [`ct`] — 2-D parallel-beam CT system-matrix generator and phantoms;
//! * [`core`] — **CSCV** itself: IOBLR, CSCVEs, VxGs, the Z/M kernels;
//! * [`recon`] — SIRT/OS-SART/CGLS/Landweber iterative reconstruction;
//! * [`harness`] — minimum-time measurement, bandwidth meter, tables.
//!
//! ## Quickstart
//!
//! ```
//! use cscv_repro::prelude::*;
//!
//! // A small CT geometry and its system matrix.
//! let ds = cscv_repro::ct::datasets::tiny();
//! let geom = ds.geometry();
//! let a = SystemMatrix::assemble_csc::<f32>(&geom);
//!
//! // Convert to CSCV-M and run SpMV.
//! let layout = SinoLayout { n_views: ds.n_views, n_bins: ds.n_bins };
//! let img = ImageShape { nx: ds.img, ny: ds.img };
//! let m = build(&a, layout, img, CscvParams::default_m(), Variant::M);
//! let exec = CscvExec::new(m);
//!
//! let pool = ThreadPool::new(2);
//! let x = vec![1.0f32; exec.n_cols()];
//! let mut y = vec![0.0f32; exec.n_rows()];
//! exec.spmv(&x, &mut y, &pool);
//! assert!(y.iter().any(|&v| v > 0.0));
//! ```

pub use cscv_core as core;
pub use cscv_ct as ct;
pub use cscv_harness as harness;
pub use cscv_recon as recon;
pub use cscv_simd as simd;
pub use cscv_sparse as sparse;
pub use cscv_trace as trace;

/// The commonly used names in one import.
pub mod prelude {
    pub use cscv_core::layout::ImageShape;
    pub use cscv_core::{build, CscvExec, CscvParams, SinoLayout, Variant};
    pub use cscv_ct::system::SystemMatrix;
    pub use cscv_ct::{CtDataset, CtGeometry, Phantom};
    pub use cscv_sparse::{Coo, Csc, Csr, Scalar, SpmvExecutor, ThreadPool};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let pool = ThreadPool::new(1);
        assert_eq!(pool.n_threads(), 1);
        let p = CscvParams::default_z();
        assert_eq!(p.s_vvec, 16);
    }
}
