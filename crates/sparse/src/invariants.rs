//! Deep structural validators for the canonical sparse formats.
//!
//! [`Csr::try_from_parts`] checks raw arrays against the CSR rows of
//! the table below and returns the first [`Violation`] as its error
//! (`Csr::from_parts` panics with it). This module is also the
//! *conversion-boundary* check: every format
//! conversion (`Coo::to_csr`, `Csr::to_csc`, `Csr::transpose`, …)
//! re-validates its **output** in every build with debug assertions
//! (`cargo test` included), so a bug in a conversion routine is caught
//! at the boundary where it was introduced instead of ten layers later
//! as a wrong SpMV result.
//!
//! Each invariant carries a stable ID. The IDs are shared with the CSCV
//! invariants in `cscv-core::invariants` (which builds on these formats) and
//! referenced from SAFETY comments, documentation, and the fuzzer's
//! failure reports:
//!
//! | ID          | invariant                                              |
//! |-------------|--------------------------------------------------------|
//! | `CSR-PTR`   | `row_ptr` starts at 0, is monotone, ends at `nnz`      |
//! | `CSR-IDX`   | column indices strictly sorted per row, `< n_cols`     |
//! | `CSC-PTR`   | `col_ptr` starts at 0, is monotone, ends at `nnz`      |
//! | `CSC-IDX`   | row indices strictly sorted per column, `< n_rows`     |
//! | `COO-BOUNDS`| every triplet's indices are in bounds                  |
//! | `IDX-U32`   | dimensions fit the `u32` index compression             |
//!
//! In a release build [`assert_csr`]/[`assert_csc`]/[`assert_coo`]
//! reduce to empty bodies — release conversions carry zero checking
//! cost.

use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use cscv_simd::Scalar;

/// One violated invariant: stable ID plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant ID (e.g. `CSR-PTR`).
    pub id: &'static str,
    /// What exactly is wrong, with indices.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.id, self.detail)
    }
}

impl std::error::Error for Violation {}

fn check_ptr(
    ptr: &[usize],
    n_outer: usize,
    nnz: usize,
    id: &'static str,
    out: &mut Vec<Violation>,
) {
    if ptr.len() != n_outer + 1 {
        out.push(Violation {
            id,
            detail: format!(
                "pointer array has {} entries, expected {}",
                ptr.len(),
                n_outer + 1
            ),
        });
        return;
    }
    if ptr.first() != Some(&0) {
        out.push(Violation {
            id,
            detail: format!("pointer array starts at {:?}, expected 0", ptr.first()),
        });
    }
    if ptr.last() != Some(&nnz) {
        out.push(Violation {
            id,
            detail: format!(
                "pointer array ends at {:?}, expected nnz = {nnz}",
                ptr.last()
            ),
        });
    }
    for (i, w) in ptr.windows(2).enumerate() {
        if w[0] > w[1] {
            out.push(Violation {
                id,
                detail: format!("pointer array not monotone at {i}: {} > {}", w[0], w[1]),
            });
            return; // one report per array is enough
        }
    }
}

fn check_idx(
    ptr: &[usize],
    idx: &[u32],
    bound: usize,
    id: &'static str,
    axis: &str,
    out: &mut Vec<Violation>,
) {
    if ptr.len() < 2 {
        return;
    }
    for outer in 0..ptr.len() - 1 {
        let (lo, hi) = (ptr[outer], ptr[outer + 1]);
        if lo > hi || hi > idx.len() {
            return; // already reported by check_ptr
        }
        let seg = &idx[lo..hi];
        for w in seg.windows(2) {
            if w[0] >= w[1] {
                out.push(Violation {
                    id,
                    detail: format!(
                        "{axis} {outer}: indices not strictly sorted ({} then {})",
                        w[0], w[1]
                    ),
                });
                return;
            }
        }
        if let Some(&last) = seg.last() {
            if last as usize >= bound {
                out.push(Violation {
                    id,
                    detail: format!("{axis} {outer}: index {last} out of bounds (< {bound})"),
                });
                return;
            }
        }
    }
}

fn check_u32_fit(n_rows: usize, n_cols: usize, out: &mut Vec<Violation>) {
    if n_rows > u32::MAX as usize {
        out.push(Violation {
            id: "IDX-U32",
            detail: format!("n_rows = {n_rows} exceeds the u32 index range"),
        });
    }
    if n_cols > u32::MAX as usize {
        out.push(Violation {
            id: "IDX-U32",
            detail: format!("n_cols = {n_cols} exceeds the u32 index range"),
        });
    }
}

/// Deep-validate a CSR matrix; returns every violated invariant.
pub fn validate_csr<T: Scalar>(m: &Csr<T>) -> Vec<Violation> {
    validate_csr_parts(m.n_rows(), m.n_cols(), m.row_ptr(), m.col_idx(), m.nnz())
}

/// [`validate_csr`] on raw arrays (`n_vals` is the length of `vals`),
/// before they are a [`Csr`]. Never panics, whatever the arrays hold.
pub fn validate_csr_parts(
    n_rows: usize,
    n_cols: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    n_vals: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_u32_fit(n_rows, n_cols, &mut out);
    if col_idx.len() != n_vals {
        out.push(Violation {
            id: "CSR-PTR",
            detail: format!(
                "col_idx has {} entries but vals has {n_vals}",
                col_idx.len()
            ),
        });
    }
    check_ptr(row_ptr, n_rows, n_vals, "CSR-PTR", &mut out);
    check_idx(row_ptr, col_idx, n_cols, "CSR-IDX", "row", &mut out);
    out
}

/// Deep-validate a CSC matrix; returns every violated invariant.
pub fn validate_csc<T: Scalar>(m: &Csc<T>) -> Vec<Violation> {
    let mut out = Vec::new();
    check_u32_fit(m.n_rows(), m.n_cols(), &mut out);
    if m.row_idx().len() != m.vals().len() {
        out.push(Violation {
            id: "CSC-PTR",
            detail: format!(
                "row_idx has {} entries but vals has {}",
                m.row_idx().len(),
                m.vals().len()
            ),
        });
    }
    check_ptr(m.col_ptr(), m.n_cols(), m.nnz(), "CSC-PTR", &mut out);
    check_idx(
        m.col_ptr(),
        m.row_idx(),
        m.n_rows(),
        "CSC-IDX",
        "column",
        &mut out,
    );
    out
}

/// Deep-validate a COO matrix; returns every violated invariant.
pub fn validate_coo<T: Scalar>(m: &Coo<T>) -> Vec<Violation> {
    let mut out = Vec::new();
    check_u32_fit(m.n_rows(), m.n_cols(), &mut out);
    for (i, &(r, c, _)) in m.entries().iter().enumerate() {
        if r as usize >= m.n_rows() || c as usize >= m.n_cols() {
            out.push(Violation {
                id: "COO-BOUNDS",
                detail: format!(
                    "entry {i} at ({r},{c}) out of bounds for {}x{}",
                    m.n_rows(),
                    m.n_cols()
                ),
            });
            break;
        }
    }
    out
}

#[expect(
    clippy::panic,
    reason = "this is the validation boundary: a malformed matrix must stop the run with the full violation list"
)]
fn panic_violations(what: &str, boundary: &str, violations: &[Violation]) -> ! {
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    panic!(
        "invariant violation in {what} after {boundary}:\n{}",
        rendered.join("\n")
    );
}

/// Conversion-boundary hook: panic (naming the boundary) if the CSR
/// output of a conversion violates any invariant. No-op in release
/// builds.
pub fn assert_csr<T: Scalar>(m: &Csr<T>, boundary: &str) {
    if cfg!(debug_assertions) {
        let v = validate_csr(m);
        if !v.is_empty() {
            panic_violations("Csr", boundary, &v);
        }
    }
}

/// Conversion-boundary hook: panic (naming the boundary) if the CSC
/// output of a conversion violates any invariant. No-op in release
/// builds.
pub fn assert_csc<T: Scalar>(m: &Csc<T>, boundary: &str) {
    if cfg!(debug_assertions) {
        let v = validate_csc(m);
        if !v.is_empty() {
            panic_violations("Csc", boundary, &v);
        }
    }
}

/// Conversion-boundary hook: panic (naming the boundary) if a COO
/// violates any invariant. No-op in release builds.
pub fn assert_coo<T: Scalar>(m: &Coo<T>, boundary: &str) {
    if cfg!(debug_assertions) {
        let v = validate_coo(m);
        if !v.is_empty() {
            panic_violations("Coo", boundary, &v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_csr() -> Csr<f64> {
        Coo::from_triplets(
            3,
            4,
            vec![(0, 1, 1.0), (1, 0, 2.0), (1, 3, 3.0), (2, 2, 4.0)],
        )
        .to_csr()
    }

    #[test]
    fn valid_matrices_have_no_violations() {
        let csr = small_csr();
        assert!(validate_csr(&csr).is_empty());
        assert!(validate_csc(&csr.to_csc()).is_empty());
        assert!(validate_coo(&csr.to_coo()).is_empty());
    }

    #[test]
    fn violations_render_with_ids() {
        let v = Violation {
            id: "CSR-PTR",
            detail: "broken".into(),
        };
        assert_eq!(v.to_string(), "[CSR-PTR] broken");
    }

    #[test]
    fn empty_matrix_is_valid() {
        let coo: Coo<f64> = Coo::new(0, 0);
        assert!(validate_coo(&coo).is_empty());
        assert!(validate_csr(&coo.to_csr()).is_empty());
        assert!(validate_csc(&coo.to_csc()).is_empty());
    }
}
