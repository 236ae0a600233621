//! Equiangular fan-beam CT geometry.
//!
//! The paper argues IOBLR "theoretically supports different CT imaging
//! geometries" because properties P1–P3 hold for any line-integral
//! operator. This module provides the test case: a fan-beam acquisition
//! (point source on a circle, equiangular detector), whose matrices the
//! CSCV builder consumes unchanged — its data-driven reference curves
//! never look at the geometry.
//!
//! Parametrization: at view `v` the source sits at
//! `S = R·(cos β_v, sin β_v)`; bin `b` is the ray leaving `S` at fan
//! angle `γ_b = (b − (n_bins−1)/2)·Δγ` from the central ray (which
//! points at the isocenter). Each ray is converted to the suite's
//! `(θ, s)` normal form, so the chord generator and Siddon tracer are
//! shared with the parallel-beam path.

use crate::chord::ray_square_chord;
use crate::geometry::ImageGrid;
use crate::siddon::trace_ray;
use crate::system::TrajectoryEntry;
use cscv_sparse::{Csc, Csr, Scalar};

/// Equiangular fan-beam acquisition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanBeamGeometry {
    pub n_bins: usize,
    pub n_views: usize,
    pub start_angle_deg: f64,
    pub delta_angle_deg: f64,
    /// Source-to-isocenter distance.
    pub source_radius: f64,
    /// Angular width of one detector bin (radians).
    pub delta_gamma: f64,
}

impl FanBeamGeometry {
    /// Standard setup for an `n × n` unit-pixel image: source radius
    /// `2×` the image half-diagonal, fan opening covering the image plus
    /// 5 % margin.
    pub fn standard(n: usize, n_bins: usize, n_views: usize, delta_angle_deg: f64) -> Self {
        let half_diag = (n as f64) * 2.0f64.sqrt() / 2.0;
        let source_radius = 2.0 * (n as f64) * 2.0f64.sqrt() / 2.0;
        let half_fan = (half_diag / source_radius).asin() * 1.05;
        FanBeamGeometry {
            n_bins,
            n_views,
            start_angle_deg: 0.0,
            delta_angle_deg,
            source_radius,
            delta_gamma: 2.0 * half_fan / n_bins as f64,
        }
    }

    pub fn n_rays(&self) -> usize {
        self.n_bins * self.n_views
    }

    #[inline]
    pub fn view_angle(&self, v: usize) -> f64 {
        (self.start_angle_deg + v as f64 * self.delta_angle_deg).to_radians()
    }

    /// Source position at a view.
    #[inline]
    pub fn source(&self, v: usize) -> (f64, f64) {
        let beta = self.view_angle(v);
        (
            self.source_radius * beta.cos(),
            self.source_radius * beta.sin(),
        )
    }

    /// Fan angle of a bin center.
    #[inline]
    pub fn gamma(&self, b: usize) -> f64 {
        (b as f64 - (self.n_bins as f64 - 1.0) / 2.0) * self.delta_gamma
    }

    /// Ray `(view, bin)` in normal form `(θ, s)`:
    /// the line `{x·cosθ + y·sinθ = s}`.
    pub fn ray_normal_form(&self, v: usize, b: usize) -> (f64, f64) {
        let beta = self.view_angle(v);
        // Direction: central ray β+π rotated by the fan angle.
        let psi = beta + std::f64::consts::PI + self.gamma(b);
        let theta = psi + std::f64::consts::FRAC_PI_2;
        let (sx, sy) = self.source(v);
        let s = sx * theta.cos() + sy * theta.sin();
        (theta, s)
    }

    #[inline]
    pub fn row_index(&self, v: usize, b: usize) -> usize {
        v * self.n_bins + b
    }

    /// One pixel's fan-beam trajectory: `(view, bin, chord)` entries
    /// ordered by row index (line model: chord at bin-center rays).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bins are clamped to [0, n_bins - 1] before their float-to-int casts (which saturate), and view/bin ids lie below n_views·n_bins, the row count Csc::from_parts bounds by u32::MAX"
    )]
    pub fn col_entries(&self, grid: &ImageGrid, col: usize) -> Vec<TrajectoryEntry> {
        let (ix, iy) = grid.pixel_of_col(col);
        let (cx, cy) = grid.pixel_center(ix, iy);
        let h = grid.pixel_size;
        let mut out = Vec::new();
        for v in 0..self.n_views {
            let (sx, sy) = self.source(v);
            let (dx, dy) = (cx - sx, cy - sy);
            let dist = (dx * dx + dy * dy).sqrt();
            debug_assert!(dist > h, "source inside image");
            // Fan angle of the pixel center (signed, matching gamma()).
            let beta = self.view_angle(v);
            let psi0 = beta + std::f64::consts::PI;
            let (ux, uy) = (psi0.cos(), psi0.sin());
            let dot = dx * ux + dy * uy;
            let cross = ux * dy - uy * dx;
            let gamma_c = cross.atan2(dot);
            // Conservative angular support: footprint half-width ≤ h·√2/2.
            let half = ((h * 0.7072) / dist).asin();
            let b_lo = ((gamma_c - half) / self.delta_gamma + (self.n_bins as f64 - 1.0) / 2.0)
                .ceil()
                .max(0.0) as usize;
            let b_hi = ((gamma_c + half) / self.delta_gamma + (self.n_bins as f64 - 1.0) / 2.0)
                .floor()
                .min(self.n_bins as f64 - 1.0);
            if b_hi < 0.0 {
                continue;
            }
            for b in b_lo..=(b_hi as usize) {
                let (theta, s) = self.ray_normal_form(v, b);
                let val = ray_square_chord(theta, s, cx, cy, h);
                if val > 1e-14 {
                    out.push((v as u32, b as u32, val));
                }
            }
        }
        out
    }

    /// Column-driven CSC assembly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids < n_rays and column ids < n_pixels, and Csc/Csr::from_parts asserts both dimensions fit u32, so no wrapped id escapes"
    )]
    pub fn assemble_csc<T: Scalar>(&self, grid: &ImageGrid) -> Csc<T> {
        let n_cols = grid.n_pixels();
        let mut col_ptr = Vec::with_capacity(n_cols + 1);
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0usize);
        for col in 0..n_cols {
            for (v, b, val) in self.col_entries(grid, col) {
                row_idx.push(self.row_index(v as usize, b as usize) as u32);
                vals.push(T::from_f64(val));
            }
            col_ptr.push(row_idx.len());
        }
        Csc::from_parts(self.n_rays(), n_cols, col_ptr, row_idx, vals)
    }

    /// Row-driven CSR assembly via Siddon (independent cross-check).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row ids < n_rays and column ids < n_pixels, and Csc/Csr::from_parts asserts both dimensions fit u32, so no wrapped id escapes"
    )]
    pub fn assemble_csr_siddon<T: Scalar>(&self, grid: &ImageGrid) -> Csr<T> {
        let n_rows = self.n_rays();
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, T)> = Vec::new();
        for row in 0..n_rows {
            let (v, b) = (row / self.n_bins, row % self.n_bins);
            let (theta, s) = self.ray_normal_form(v, b);
            scratch.clear();
            for (ix, iy, len) in trace_ray(grid, theta, s, 1e-12) {
                scratch.push((grid.col_index(ix, iy) as u32, T::from_f64(len)));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(n_rows, grid.n_pixels(), row_ptr, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_core::layout::ImageShape;
    use cscv_core::{build, CscvParams, SinoLayout, Variant};
    use cscv_sparse::dense::{assert_vec_close, max_rel_err};
    use cscv_sparse::{SpmvExecutor, ThreadPool};

    fn fan16() -> (FanBeamGeometry, ImageGrid) {
        (
            FanBeamGeometry::standard(16, 24, 20, 9.0),
            ImageGrid::square(16, 1.0),
        )
    }

    #[test]
    fn central_ray_hits_isocenter() {
        let (fan, _) = fan16();
        // With an odd center convention, the middle of the detector is
        // between bins; check s at the two central bins is ±Δγ·R/2-ish.
        let (_, s_lo) = fan.ray_normal_form(3, fan.n_bins / 2 - 1);
        let (_, s_hi) = fan.ray_normal_form(3, fan.n_bins / 2);
        assert!(s_lo.abs() < fan.source_radius * fan.delta_gamma);
        assert!(s_hi.abs() < fan.source_radius * fan.delta_gamma);
        assert!((s_lo + s_hi).abs() < 1e-9, "symmetric about center");
    }

    #[test]
    fn source_sits_on_circle() {
        let (fan, _) = fan16();
        for v in 0..fan.n_views {
            let (sx, sy) = fan.source(v);
            let r = (sx * sx + sy * sy).sqrt();
            assert!((r - fan.source_radius).abs() < 1e-9);
        }
    }

    #[test]
    fn column_and_row_builders_agree() {
        let (fan, grid) = fan16();
        let by_col = fan.assemble_csc::<f64>(&grid).to_csr();
        let by_row = fan.assemble_csr_siddon::<f64>(&grid);
        let x: Vec<f64> = (0..grid.n_pixels())
            .map(|i| ((i * 19) % 23) as f64 * 0.1)
            .collect();
        let mut y1 = vec![0.0; fan.n_rays()];
        let mut y2 = vec![0.0; fan.n_rays()];
        by_col.spmv_serial(&x, &mut y1);
        by_row.spmv_serial(&x, &mut y2);
        assert!(
            max_rel_err(&y1, &y2) < 1e-9,
            "err {}",
            max_rel_err(&y1, &y2)
        );
    }

    #[test]
    fn trajectories_contiguous_per_view() {
        // P1/P2 hold for fan-beam too.
        let (fan, grid) = fan16();
        for col in [0usize, 100, 200, 255] {
            let tr = fan.col_entries(&grid, col);
            assert!(!tr.is_empty());
            for w in tr.windows(2) {
                if w[0].0 == w[1].0 {
                    assert_eq!(w[0].1 + 1, w[1].1, "bins contiguous within view");
                }
            }
        }
    }

    #[test]
    fn cscv_works_unchanged_on_fan_beam() {
        // The decisive generality test: the CSCV builder (data-driven
        // curves, no geometry knowledge) handles fan-beam matrices.
        let (fan, grid) = fan16();
        let csc = fan.assemble_csc::<f64>(&grid);
        let layout = SinoLayout {
            n_views: fan.n_views,
            n_bins: fan.n_bins,
        };
        let img = ImageShape { nx: 16, ny: 16 };
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut y_ref = vec![0.0; fan.n_rays()];
        csc.spmv_serial(&x, &mut y_ref);
        for variant in [Variant::Z, Variant::M] {
            let m = build(&csc, layout, img, CscvParams::new(4, 4, 2), variant);
            m.validate_full().unwrap();
            let exec = cscv_core::CscvExec::new(m);
            let pool = ThreadPool::new(2);
            let mut y = vec![f64::NAN; fan.n_rays()];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-11);
            // Transpose too.
            let mut xt = vec![f64::NAN; 256];
            let mut xt_ref = vec![0.0; 256];
            csc.spmv_transpose_serial(&y_ref, &mut xt_ref);
            exec.spmv_transpose(&y_ref, &mut xt, &pool);
            assert_vec_close(&xt, &xt_ref, 1e-11);
        }
    }

    #[test]
    fn padding_stays_bounded_on_fan_beam() {
        // The fan-beam trajectories are still piecewise parallel within a
        // tile, so R_nnzE should stay in the same regime as parallel beam
        // at matched view density.
        let fan = FanBeamGeometry::standard(32, 46, 64, 0.5);
        let grid = ImageGrid::square(32, 1.0);
        let csc = fan.assemble_csc::<f32>(&grid);
        let layout = SinoLayout {
            n_views: 64,
            n_bins: 46,
        };
        let img = ImageShape { nx: 32, ny: 32 };
        let m = build(&csc, layout, img, CscvParams::new(8, 8, 1), Variant::Z);
        let r = m.stats.r_nnze();
        assert!(r < 1.2, "fan-beam R_nnzE {r}");
    }
}
