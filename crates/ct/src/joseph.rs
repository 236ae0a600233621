//! Joseph interpolation projector.
//!
//! An alternative discretization of the X-ray transform (Joseph 1982):
//! instead of exact chords, the ray is sampled once per image row (or
//! column, whichever is more perpendicular to the ray), with the sample
//! value linearly interpolated between the two nearest pixels. It yields
//! a slightly different, smoother system matrix with at most two nonzeros
//! per sampled line — used by the reconstruction examples to show CSCV on
//! a second operator family, and to demonstrate that the CSCV builder's
//! data-driven reference curves do not depend on the chord model.

use crate::geometry::ImageGrid;

/// Joseph-projected weights for the ray `{x·cosθ + y·sinθ = s}` over the
/// grid: `(ix, iy, weight)` triplets (weights carry the step length).
pub fn joseph_ray(grid: &ImageGrid, theta: f64, s: f64) -> Vec<(usize, usize, f64)> {
    let (cos_t, sin_t) = (theta.cos(), theta.sin());
    let (dx, dy) = (-sin_t, cos_t); // ray direction
    let h = grid.pixel_size;
    let mut out = Vec::new();

    if dy.abs() >= dx.abs() {
        // March along y (one sample per pixel row); interpolate in x.
        // Line: x(y) = (s - y·sinθ)/cosθ when cosθ ≠ 0; here cosθ = dy.
        let step = h / dy.abs(); // ray length per row
        for iy in 0..grid.ny {
            let (_, y) = grid.pixel_center(0, iy);
            // Solve x·cosθ + y·sinθ = s for x.
            let x = (s - y * sin_t) / cos_t;
            push_interp_x(grid, x, iy, step, &mut out);
        }
    } else {
        let step = h / dx.abs();
        for ix in 0..grid.nx {
            let (x, _) = grid.pixel_center(ix, 0);
            let y = (s - x * cos_t) / sin_t;
            push_interp_y(grid, ix, y, step, &mut out);
        }
    }
    out
}

/// Linear interpolation across pixel centers in x at image row `iy`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int casts saturate, and the range checks below drop every index outside the grid"
)]
fn push_interp_x(
    grid: &ImageGrid,
    x: f64,
    iy: usize,
    step: f64,
    out: &mut Vec<(usize, usize, f64)>,
) {
    let h = grid.pixel_size;
    // Fractional pixel coordinate of x among centers.
    let fx = (x - grid.x_min()) / h - 0.5;
    let i0 = fx.floor();
    let frac = fx - i0;
    let i0 = i0 as isize;
    if i0 >= 0 && (i0 as usize) < grid.nx && 1.0 - frac > 1e-12 {
        out.push((i0 as usize, iy, step * (1.0 - frac)));
    }
    let i1 = i0 + 1;
    if i1 >= 0 && (i1 as usize) < grid.nx && frac > 1e-12 {
        out.push((i1 as usize, iy, step * frac));
    }
}

/// Linear interpolation across pixel centers in y at image column `ix`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int casts saturate, and the range checks below drop every index outside the grid"
)]
fn push_interp_y(
    grid: &ImageGrid,
    ix: usize,
    y: f64,
    step: f64,
    out: &mut Vec<(usize, usize, f64)>,
) {
    let h = grid.pixel_size;
    let fy = (y - grid.y_min()) / h - 0.5;
    let j0 = fy.floor();
    let frac = fy - j0;
    let j0 = j0 as isize;
    if j0 >= 0 && (j0 as usize) < grid.ny && 1.0 - frac > 1e-12 {
        out.push((ix, j0 as usize, step * (1.0 - frac)));
    }
    let j1 = j0 + 1;
    if j1 >= 0 && (j1 as usize) < grid.ny && frac > 1e-12 {
        out.push((ix, j1 as usize, step * frac));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn grid8() -> ImageGrid {
        ImageGrid::square(8, 1.0)
    }

    #[test]
    fn axis_aligned_hits_exact_column() {
        // θ=0, s at a pixel-center x: weights all land on one column with
        // weight = step = h.
        let g = grid8();
        let (cx, _) = g.pixel_center(3, 0);
        let hits = joseph_ray(&g, 0.0, cx);
        assert_eq!(hits.len(), 8);
        for &(ix, _, w) in &hits {
            assert_eq!(ix, 3);
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn between_centers_splits_weight() {
        let g = grid8();
        let (cx, _) = g.pixel_center(3, 0);
        let hits = joseph_ray(&g, 0.0, cx + 0.25);
        // Each row: 0.75 to col 3, 0.25 to col 4.
        assert_eq!(hits.len(), 16);
        let w3: f64 = hits.iter().filter(|h| h.0 == 3).map(|h| h.2).sum();
        let w4: f64 = hits.iter().filter(|h| h.0 == 4).map(|h| h.2).sum();
        assert!((w3 - 6.0).abs() < 1e-12);
        assert!((w4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_ray_marches_x() {
        let g = grid8();
        let (_, cy) = g.pixel_center(0, 5);
        let hits = joseph_ray(&g, FRAC_PI_2, cy);
        assert_eq!(hits.len(), 8);
        for &(_, iy, w) in &hits {
            assert_eq!(iy, 5);
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_sum_close_to_chord_length() {
        // For rays through the middle of the grid, total Joseph weight
        // approximates the box-clipped ray length.
        let g = grid8();
        let theta = 0.35;
        let hits = joseph_ray(&g, theta, 0.3);
        let total: f64 = hits.iter().map(|h| h.2).sum();
        // Ray length through an 8x8 box at this angle is ≈ 8/cos(θ).
        let approx = 8.0 / theta.cos();
        assert!((total - approx).abs() / approx < 0.05);
    }

    #[test]
    fn ray_outside_produces_nothing() {
        let g = grid8();
        let hits = joseph_ray(&g, 0.0, 10.0);
        assert!(hits.is_empty());
    }

    #[test]
    fn at_most_two_pixels_per_step() {
        let g = grid8();
        let hits = joseph_ray(&g, 0.4, 0.7);
        // Group by marching row (dy dominant ⇒ group by iy).
        let mut per_row = std::collections::HashMap::new();
        for &(_, iy, _) in &hits {
            *per_row.entry(iy).or_insert(0usize) += 1;
        }
        assert!(per_row.values().all(|&c| c <= 2));
    }
}
