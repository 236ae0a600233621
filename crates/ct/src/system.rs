//! System-matrix assembly.
//!
//! Two independent builders produce the same matrix:
//!
//! * **column-driven** (closed-form chords): for each pixel, its
//!   projection trajectory — per view, the contiguous bin interval the
//!   pixel footprint covers (paper properties P1/P2). This is the natural
//!   generator for CSC and for the CSCV builder, which consumes exactly
//!   these per-column trajectories.
//! * **row-driven** (Siddon traversal): for each ray, the pixels it
//!   crosses. Used for CSR assembly, for ART-type row-action algorithms,
//!   and as a structural cross-check of the column-driven builder.

use crate::chord::PixelFootprint;
use crate::geometry::CtGeometry;
use crate::joseph::joseph_ray;
use crate::siddon::trace_ray;
use cscv_sparse::partition::even_chunks;
use cscv_sparse::pool::fork_join;
use cscv_sparse::{Csc, Csr, Scalar, ThreadPool};
use std::ops::Range;

/// Discretization model for the detector response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProjectorModel {
    /// Zero-width ray: entry = chord length at the bin-center line.
    /// Matches Siddon ray tracing exactly (used for cross-checks).
    Line,
    /// Finite detector cell: entry = pixel/strip intersection area
    /// divided by the cell width (average chord over the cell). The
    /// standard iterative-CT model; reproduces the paper's nnz density
    /// (~2.6 nonzeros per column per view). **Default.**
    #[default]
    Strip,
}

/// Namespace for the matrix builders.
pub struct SystemMatrix;

/// One nonzero of a pixel's trajectory: `(view, bin, chord length)`.
pub type TrajectoryEntry = (u32, u32, f64);

/// Trigonometry and pixel footprint of one view, computed once per view
/// and shared by every column's trajectory.
#[derive(Debug, Clone, Copy)]
struct ViewTrig {
    cos: f64,
    sin: f64,
    fp: PixelFootprint,
}

/// The [`ViewTrig`] of each view in `views`.
fn view_table(ct: &CtGeometry, views: Range<usize>) -> Vec<ViewTrig> {
    let h = ct.grid.pixel_size;
    views
        .map(|v| {
            let theta = ct.proj.view_angle(v);
            ViewTrig {
                cos: theta.cos(),
                sin: theta.sin(),
                fp: PixelFootprint::new(theta, h),
            }
        })
        .collect()
}

/// Center offset `s_c` of pixel `(cx, cy)` on a view's detector.
fn center_offset(t: &ViewTrig, cx: f64, cy: f64) -> f64 {
    cx * t.cos + cy * t.sin
}

/// Feed one column's trajectory to `push(view, bin, value)`, ordered by
/// view then bin. `table` covers every view.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bins are clamped to [0, n_bins - 1] before their float-to-int casts (which saturate)"
)]
fn trajectory(
    ct: &CtGeometry,
    table: &[ViewTrig],
    col: usize,
    model: ProjectorModel,
    mut push: impl FnMut(usize, usize, f64),
) {
    let (ix, iy) = ct.grid.pixel_of_col(col);
    let (cx, cy) = ct.grid.pixel_center(ix, iy);
    let ds = ct.proj.bin_spacing;
    // Strip support extends half a cell beyond the footprint.
    let pad = match model {
        ProjectorModel::Line => 0.0,
        ProjectorModel::Strip => ds / 2.0,
    };
    for (v, t) in table.iter().enumerate() {
        let fp = &t.fp;
        let s_c = center_offset(t, cx, cy);
        let b_lo = ct
            .proj
            .s_to_bin(s_c - fp.half_support - pad)
            .ceil()
            .max(0.0) as usize;
        let b_hi = ct
            .proj
            .s_to_bin(s_c + fp.half_support + pad)
            .floor()
            .min(ct.proj.n_bins as f64 - 1.0);
        if b_hi < 0.0 {
            continue;
        }
        for b in b_lo..=(b_hi as usize) {
            let d = ct.proj.bin_center(b) - s_c;
            let val = match model {
                ProjectorModel::Line => fp.chord(d),
                ProjectorModel::Strip => fp.chord_integral(d - ds / 2.0, d + ds / 2.0) / ds,
            };
            if val > 1e-14 {
                push(v, b, val);
            }
        }
    }
}

/// Per view of `table`, the minimum bin a pixel's strip-model footprint
/// can touch.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a bin index of the detector, give or take one footprint; float-to-int casts saturate"
)]
fn min_bins(ct: &CtGeometry, table: &[ViewTrig], col: usize) -> Vec<i64> {
    let (ix, iy) = ct.grid.pixel_of_col(col);
    let (cx, cy) = ct.grid.pixel_center(ix, iy);
    let pad = ct.proj.bin_spacing / 2.0;
    table
        .iter()
        .map(|t| {
            let s_c = center_offset(t, cx, cy);
            ct.proj.s_to_bin(s_c - t.fp.half_support - pad).ceil() as i64
        })
        .collect()
}

impl SystemMatrix {
    /// The projection trajectory of one pixel (matrix column) under a
    /// given model: all `(view, bin, value)` entries, ordered by view
    /// then bin — i.e. by ascending row index.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "view/bin ids lie below n_views·n_bins, the row count Csc::from_parts bounds by u32::MAX"
    )]
    pub fn col_entries_model(
        ct: &CtGeometry,
        col: usize,
        model: ProjectorModel,
    ) -> Vec<TrajectoryEntry> {
        let table = view_table(ct, 0..ct.proj.n_views);
        let mut out = Vec::with_capacity(ct.proj.n_views * 3);
        trajectory(ct, &table, col, model, |v, b, val| {
            out.push((v as u32, b as u32, val));
        });
        out
    }

    /// Trajectory under the default (strip) model.
    pub fn col_entries(ct: &CtGeometry, col: usize) -> Vec<TrajectoryEntry> {
        Self::col_entries_model(ct, col, ProjectorModel::Strip)
    }

    /// Geometric reference curve of a pixel: per view of `views`, the
    /// *minimum* bin index its footprint can touch under the default
    /// strip model (may be negative or ≥ n_bins at the detector edges —
    /// callers clamp). This is the curve IOBLR aligns parallel polylines
    /// to when no data-driven curve is available.
    pub fn min_bin_curve(ct: &CtGeometry, col: usize, views: Range<usize>) -> Vec<i64> {
        min_bins(ct, &view_table(ct, views), col)
    }

    /// Column-driven CSC assembly under a given model, on every core.
    pub fn assemble_csc_model<T: Scalar>(ct: &CtGeometry, model: ProjectorModel) -> Csc<T> {
        Self::assemble_in_parts(ct, model, ThreadPool::max_parallelism())
    }

    /// [`Self::assemble_csc_model`] over at most `parts` contiguous
    /// column ranges, concatenated in column order: the arrays do not
    /// depend on `parts`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids < n_rays, and Csc::from_parts asserts the row count fits u32, so no wrapped id escapes"
    )]
    fn assemble_in_parts<T: Scalar>(
        ct: &CtGeometry,
        model: ProjectorModel,
        parts: usize,
    ) -> Csc<T> {
        let _span = cscv_trace::span::enter("system.assemble_csc");
        let n_cols = ct.n_cols();
        let table = view_table(ct, 0..ct.proj.n_views);
        let mut pieces = fork_join(even_chunks(n_cols, parts.min(n_cols).max(1)), |cols| {
            let mut col_end = Vec::with_capacity(cols.len());
            let mut row_idx = Vec::new();
            let mut vals = Vec::new();
            for col in cols {
                trajectory(ct, &table, col, model, |v, b, val| {
                    row_idx.push(ct.proj.row_index(v, b) as u32);
                    vals.push(T::from_f64(val));
                });
                col_end.push(row_idx.len());
            }
            (col_end, row_idx, vals)
        })
        .into_iter();
        // Part 0's arrays grow in place; the others are appended in order.
        let (col_end, mut row_idx, mut vals) = pieces.next().unwrap_or_default();
        let mut col_ptr = Vec::with_capacity(n_cols + 1);
        col_ptr.push(0usize);
        col_ptr.extend(col_end);
        let rest: usize = pieces.as_slice().iter().map(|p| p.1.len()).sum();
        row_idx.reserve_exact(rest);
        vals.reserve_exact(rest);
        for (col_end, rows, part_vals) in pieces {
            let base = row_idx.len();
            col_ptr.extend(col_end.iter().map(|e| base + e));
            row_idx.extend_from_slice(&rows);
            vals.extend_from_slice(&part_vals);
        }
        Csc::from_parts(ct.n_rows(), n_cols, col_ptr, row_idx, vals)
    }

    /// Column-driven CSC assembly (default strip model).
    pub fn assemble_csc<T: Scalar>(ct: &CtGeometry) -> Csc<T> {
        Self::assemble_csc_model(ct, ProjectorModel::Strip)
    }

    /// Row-driven CSR assembly via Siddon traversal.
    pub fn assemble_csr_siddon<T: Scalar>(ct: &CtGeometry) -> Csr<T> {
        Self::assemble_csr_with(ct, |theta, s| trace_ray(&ct.grid, theta, s, 1e-12))
    }

    /// Row-driven CSR assembly via the Joseph interpolation projector
    /// (a different discretization — not expected to equal the chord
    /// matrix, but structurally similar).
    pub fn assemble_csr_joseph<T: Scalar>(ct: &CtGeometry) -> Csr<T> {
        Self::assemble_csr_with(ct, |theta, s| joseph_ray(&ct.grid, theta, s))
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids < n_rays and column ids < n_pixels, and Csc/Csr::from_parts asserts both dimensions fit u32, so no wrapped id escapes"
    )]
    fn assemble_csr_with<T: Scalar>(
        ct: &CtGeometry,
        ray_fn: impl Fn(f64, f64) -> Vec<(usize, usize, f64)>,
    ) -> Csr<T> {
        let _span = cscv_trace::span::enter("system.assemble_csr");
        let n_rows = ct.n_rows();
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for row in 0..n_rows {
            let (v, b) = ct.proj.ray_of_row(row);
            let theta = ct.proj.view_angle(v);
            let s = ct.proj.bin_center(b);
            scratch.clear();
            for (ix, iy, len) in ray_fn(theta, s) {
                scratch.push((ct.grid.col_index(ix, iy) as u32, len));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicate columns (Joseph can emit two samples into
            // the same pixel from adjacent steps).
            let mut k = 0;
            while k < scratch.len() {
                let (c, mut acc) = scratch[k];
                k += 1;
                while k < scratch.len() && scratch[k].0 == c {
                    acc += scratch[k].1;
                    k += 1;
                }
                col_idx.push(c);
                vals.push(T::from_f64(acc));
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(n_rows, ct.n_cols(), row_ptr, col_idx, vals)
    }
}

/// Analytic IOBLR reference curves from the parallel-beam geometry — a
/// [`CurveProvider`](cscv_core::CurveProvider) that needs no matrix data
/// (exact even when the reference column is subsampled or empty).
pub struct GeometricCurves<'a> {
    ct: &'a CtGeometry,
    table: Vec<ViewTrig>,
}

impl<'a> GeometricCurves<'a> {
    /// Curves of `ct`, with its per-view table computed once.
    pub fn new(ct: &'a CtGeometry) -> Self {
        GeometricCurves {
            ct,
            table: view_table(ct, 0..ct.proj.n_views),
        }
    }
}

impl cscv_core::CurveProvider for GeometricCurves<'_> {
    fn curve(
        &self,
        ref_col: usize,
        views: &std::ops::Range<usize>,
    ) -> Option<cscv_core::ioblr::RefCurve> {
        let table = self.table.get(views.clone())?;
        Some(cscv_core::ioblr::RefCurve::from_bins(min_bins(
            self.ct, table, ref_col,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::dense::max_rel_err;

    fn small_ct() -> CtGeometry {
        CtGeometry::standard(16, 24, 10, 3.0, 18.0)
    }

    #[test]
    fn column_and_row_builders_agree() {
        // The decisive substrate test: closed-form column generation and
        // Siddon row generation must produce the same matrix (under the
        // line model both discretize the same zero-width rays).
        let ct = small_ct();
        let by_col = SystemMatrix::assemble_csc_model::<f64>(&ct, ProjectorModel::Line).to_csr();
        let by_row = SystemMatrix::assemble_csr_siddon::<f64>(&ct);
        // Compare through SpMV on a random-ish vector (covers values and
        // structure; immune to ~0 boundary-entry bookkeeping differences).
        let x: Vec<f64> = (0..ct.n_cols())
            .map(|i| ((i * 31) % 17) as f64 * 0.1)
            .collect();
        let mut y1 = vec![0.0; ct.n_rows()];
        let mut y2 = vec![0.0; ct.n_rows()];
        by_col.spmv_serial(&x, &mut y1);
        by_row.spmv_serial(&x, &mut y2);
        assert!(
            max_rel_err(&y1, &y2) < 1e-9,
            "err {}",
            max_rel_err(&y1, &y2)
        );
        // And nnz agrees closely (boundary chords may differ by ±epsilon).
        let d = by_col.nnz().abs_diff(by_row.nnz());
        assert!(
            d * 100 <= by_col.nnz(),
            "{} vs {}",
            by_col.nnz(),
            by_row.nnz()
        );
    }

    #[test]
    fn trajectories_are_row_sorted_and_contiguous_per_view() {
        // Paper P2: per view the footprint covers one contiguous bin
        // interval.
        let ct = small_ct();
        for col in [0usize, 5, 100, 255] {
            let tr = SystemMatrix::col_entries(&ct, col);
            assert!(!tr.is_empty());
            let rows: Vec<usize> = tr
                .iter()
                .map(|&(v, b, _)| ct.proj.row_index(v as usize, b as usize))
                .collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows sorted");
            // Contiguity within a view.
            for w in tr.windows(2) {
                if w[0].0 == w[1].0 {
                    assert_eq!(w[0].1 + 1, w[1].1, "bins contiguous within view");
                }
            }
        }
    }

    /// A CSC's arrays, values as bits.
    fn bits(m: &Csc<f64>) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        let vals = m.vals().iter().map(|v| v.to_bits()).collect();
        (m.col_ptr().to_vec(), m.row_idx().to_vec(), vals)
    }

    #[test]
    fn assembly_is_bitwise_equal_for_every_part_count() {
        // The second geometry has 4 columns, fewer than 7 parts.
        for ct in [small_ct(), CtGeometry::standard(2, 5, 6, 0.0, 30.0)] {
            for model in [ProjectorModel::Line, ProjectorModel::Strip] {
                let one = bits(&SystemMatrix::assemble_in_parts(&ct, model, 1));
                for parts in [2, 3, 7] {
                    let m = SystemMatrix::assemble_in_parts(&ct, model, parts);
                    assert_eq!(bits(&m), one, "{model:?}, {parts} parts");
                }
                assert_eq!(bits(&SystemMatrix::assemble_csc_model(&ct, model)), one);
                // Column by column, the trajectories are the same entries.
                let csc = SystemMatrix::assemble_in_parts::<f64>(&ct, model, 3);
                for col in 0..ct.n_cols() {
                    let (rows, vals) = csc.col(col);
                    let tr = SystemMatrix::col_entries_model(&ct, col, model);
                    let want: Vec<(u32, u64)> = tr
                        .iter()
                        .map(|&(v, b, val)| {
                            let row = ct.proj.row_index(v as usize, b as usize) as u32;
                            (row, val.to_bits())
                        })
                        .collect();
                    let got: Vec<(u32, u64)> = rows
                        .iter()
                        .zip(vals)
                        .map(|(&r, v)| (r, v.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{model:?}, col {col}");
                }
            }
        }
    }

    #[test]
    fn min_bin_curve_of_a_view_range_is_a_slice_of_the_full_curve() {
        use cscv_core::CurveProvider;
        let ct = small_ct();
        let curves = GeometricCurves::new(&ct);
        for col in [0usize, 77, 255] {
            let full = SystemMatrix::min_bin_curve(&ct, col, 0..ct.proj.n_views);
            for views in [0..4, 4..8, 8..10, 3..3] {
                let part = SystemMatrix::min_bin_curve(&ct, col, views.clone());
                assert_eq!(part, full[views.clone()]);
                let curve = curves.curve(col, &views).unwrap();
                assert_eq!(
                    (0..curve.len()).map(|v| curve.bin(v)).collect::<Vec<_>>(),
                    full[views]
                );
            }
        }
        assert!(
            curves.curve(0, &(8..11)).is_none(),
            "views past the geometry"
        );
    }

    #[test]
    fn column_mass_is_pixel_area_per_view() {
        // Σ_b chord(b) ≈ h²/Δs per view when the full footprint is on the
        // detector (Riemann sum of the trapezoid profile).
        let ct = small_ct();
        let center_col = ct.grid.col_index(8, 8);
        let tr = SystemMatrix::col_entries(&ct, center_col);
        let h = ct.grid.pixel_size;
        let ds = ct.proj.bin_spacing;
        let mut per_view = vec![0.0; ct.proj.n_views];
        for &(v, _, val) in &tr {
            per_view[v as usize] += val;
        }
        for (v, &mass) in per_view.iter().enumerate() {
            let expect = h * h / ds;
            assert!(
                (mass - expect).abs() / expect < 0.35,
                "view {v}: mass {mass} vs {expect}"
            );
        }
    }

    #[test]
    fn min_bin_curve_bounds_trajectory() {
        let ct = small_ct();
        for col in [3usize, 77, 200] {
            let curve = SystemMatrix::min_bin_curve(&ct, col, 0..ct.proj.n_views);
            let tr = SystemMatrix::col_entries(&ct, col);
            for &(v, b, _) in &tr {
                assert!(
                    (b as i64) >= curve[v as usize],
                    "bin {b} below min-bin {} at view {v}",
                    curve[v as usize]
                );
                // And not far above: footprint width is a few bins.
                assert!((b as i64) < curve[v as usize] + 5);
            }
        }
    }

    #[test]
    fn nnz_density_matches_paper_ratio() {
        // Table II: 512² image / 730 bins / 240 views ⇒ ~2.6 nnz per
        // (column, view). Our generator at any scale should land near
        // 2–3 nnz per column-view.
        let ct = CtGeometry::standard(32, 46, 20, 0.0, 9.0);
        let csc = SystemMatrix::assemble_csc::<f32>(&ct);
        let per_col_view = csc.nnz() as f64 / (ct.n_cols() as f64 * 20.0);
        assert!(
            per_col_view > 1.8 && per_col_view < 3.2,
            "density {per_col_view}"
        );
    }

    #[test]
    fn p3_near_uniform_columns() {
        // Paper P3: per-column nnz similar across columns.
        let ct = CtGeometry::standard(24, 35, 16, 0.0, 11.25);
        let csr = SystemMatrix::assemble_csc::<f64>(&ct).to_csr();
        let profile = cscv_sparse::stats::MatrixProfile::from_csr(&csr);
        assert!(profile.col_stats.cv < 0.25, "cv {}", profile.col_stats.cv);
        assert_eq!(profile.empty_cols, 0);
    }

    #[test]
    fn joseph_matrix_is_similar_but_not_identical() {
        let ct = small_ct();
        let chord = SystemMatrix::assemble_csc::<f64>(&ct).to_csr();
        let joseph = SystemMatrix::assemble_csr_joseph::<f64>(&ct);
        assert_eq!(chord.n_rows(), joseph.n_rows());
        // Same scale of nnz…
        let ratio = joseph.nnz() as f64 / chord.nnz() as f64;
        assert!(ratio > 0.4 && ratio < 1.6, "ratio {ratio}");
        // …but a genuinely different discretization.
        assert_ne!(chord.nnz(), joseph.nnz());
    }

    #[test]
    fn geometric_curves_build_correct_cscv() {
        // CSCV built with analytic curves must equal the reference SpMV
        // and have padding comparable to the data-driven build.
        use cscv_core::layout::ImageShape;
        use cscv_core::{build, build_with_curves, CscvParams, SinoLayout, Variant};
        let ct = small_ct();
        let csc = SystemMatrix::assemble_csc::<f64>(&ct);
        let layout = SinoLayout {
            n_views: ct.proj.n_views,
            n_bins: ct.proj.n_bins,
        };
        let img = ImageShape {
            nx: ct.grid.nx,
            ny: ct.grid.ny,
        };
        let params = CscvParams::new(4, 8, 2);
        let geo = build_with_curves(
            &csc,
            layout,
            img,
            params,
            Variant::Z,
            &GeometricCurves::new(&ct),
        );
        geo.validate_full().unwrap();
        let data = build(&csc, layout, img, params, Variant::Z);
        // Correctness.
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        let exec = cscv_core::CscvExec::new(geo.clone());
        let pool = cscv_sparse::ThreadPool::new(2);
        let mut y = vec![f64::NAN; csc.n_rows()];
        use cscv_sparse::SpmvExecutor;
        exec.spmv(&x, &mut y, &pool);
        cscv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-11);
        // Efficiency: within 10% padding of the data-driven build.
        let r_geo = geo.stats.r_nnze();
        let r_data = data.stats.r_nnze();
        assert!(
            r_geo <= r_data * 1.1 + 0.05,
            "geometric curve padding {r_geo} vs data-driven {r_data}"
        );
    }

    #[test]
    fn adjoint_identity() {
        // <Ax, y> == <x, Aᵀy> for the assembled operator.
        let ct = small_ct();
        let a = SystemMatrix::assemble_csc::<f64>(&ct).to_csr();
        let x: Vec<f64> = (0..ct.n_cols()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..ct.n_rows()).map(|i| ((i % 5) as f64) * 0.5).collect();
        let mut ax = vec![0.0; ct.n_rows()];
        a.spmv_serial(&x, &mut ax);
        let mut aty = vec![0.0; ct.n_cols()];
        a.spmv_transpose_serial(&y, &mut aty);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-12);
    }
}
