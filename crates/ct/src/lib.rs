//! 2-D parallel-beam CT substrate for the CSCV SpMV suite.
//!
//! The paper's matrices come from discretizing the X-ray transform
//! (Eq. 1 with `L ≡ 1`): image pixels are piecewise-constant basis
//! functions, rays are zero-width lines, and the system-matrix entry
//! `A[(view, bin), pixel]` is the chord length of the ray through the
//! pixel square. This crate builds those matrices from scratch:
//!
//! * [`geometry`] — image grid, parallel-beam detector, row/column
//!   index conventions (`row = view·n_bins + bin`, bin fastest);
//! * [`chord`] — closed-form pixel footprint / chord length (the
//!   column-driven generator);
//! * [`siddon`] — Siddon grid traversal (the independent row-driven
//!   generator; cross-checked against [`chord`] in tests);
//! * [`joseph`] — Joseph interpolation projector (an alternative
//!   discretization used by reconstruction examples);
//! * [`phantom`] — Shepp-Logan and synthetic phantoms with analytic
//!   ellipse sinograms for projector validation;
//! * [`system`] — sparse system-matrix assembly (CSC column-driven, CSR
//!   row-driven) and per-pixel trajectory access (what CSCV consumes);
//! * [`datasets`] — the Table II matrix family at default (¼ linear)
//!   and paper scale.

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

pub mod chord;
pub mod datasets;
pub mod fanbeam;
pub mod geometry;
pub mod io;
pub mod joseph;
pub mod phantom;
pub mod siddon;
pub mod sinogram;
pub mod system;

pub use datasets::CtDataset;
pub use fanbeam::FanBeamGeometry;
pub use geometry::{CtGeometry, ImageGrid, ParallelGeometry};
pub use phantom::Phantom;
pub use sinogram::Sinogram;
