//! SIMD kernel layer for the CSCV SpMV suite.
//!
//! The CSCV paper's implementation philosophy is *compiler-assisted
//! vectorization*: all floating-point kernels are written as fixed-width
//! lane-array loops that LLVM turns into packed FMA instructions, with one
//! single exception — the AVX-512 `vexpand` instruction used by CSCV-M to
//! decompress mask-packed nonzeros, for which no portable formulation
//! exists. This crate mirrors that split:
//!
//! * [`scalar`] — the [`Scalar`] element trait (`f32`/`f64`).
//! * [`lanes`] — portable `[T; W]` micro-kernels (FMA, axpy, reductions)
//!   written so the auto-vectorizer emits packed instructions.
//! * [`expand`] — mask expansion: `soft-vexpand` (portable) and the
//!   hardware `vexpandps/vexpandpd` paths (x86-64, runtime detected).
//! * [`detect`] — cached CPU feature detection and the build's
//!   compile-time target features.
//! * [`rng`] — the in-tree xorshift PRNG used by tests, noise models and
//!   benchmark input generation (keeps the workspace dependency-free).

pub mod detect;
#[allow(unsafe_code)]
pub mod expand;
pub mod lanes;
pub mod rng;
pub mod scalar;

pub use detect::{build_features, cpu_features, CpuFeatures};
pub use expand::{ExpandPath, MaskExpand};
pub use scalar::Scalar;
mod randomized;
