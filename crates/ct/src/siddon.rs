//! Siddon-style ray tracing (the row-driven generator).
//!
//! Computes the exact intersection lengths of one ray with every pixel it
//! crosses by collecting the parameter values where the ray crosses grid
//! lines and reading off cells at segment midpoints — the robust variant
//! of Siddon's 1985 algorithm. Used to build system matrices row-by-row
//! (one ray = one matrix row) and, in tests, to cross-check the
//! closed-form chord generator in [`crate::chord`]: both must produce the
//! same matrix.

use crate::geometry::ImageGrid;

/// Intersection lengths of the ray `{x·cosθ + y·sinθ = s}` with grid
/// pixels. Returns `(ix, iy, length)` triplets with `length > eps`,
/// ordered along the ray.
pub fn trace_ray(grid: &ImageGrid, theta: f64, s: f64, eps: f64) -> Vec<(usize, usize, f64)> {
    let (cos_t, sin_t) = (theta.cos(), theta.sin());
    // Ray origin (closest point to rotation center) and unit direction.
    let ox = s * cos_t;
    let oy = s * sin_t;
    let dx = -sin_t;
    let dy = cos_t;

    let h = grid.pixel_size;
    let x0 = grid.x_min();
    let y0 = grid.y_min();
    let x1 = x0 + grid.nx as f64 * h;
    let y1 = y0 + grid.ny as f64 * h;

    // Clip the ray against the grid bounding box (slab method).
    let mut t_min = f64::NEG_INFINITY;
    let mut t_max = f64::INFINITY;
    for (o, d, lo, hi) in [(ox, dx, x0, x1), (oy, dy, y0, y1)] {
        if d.abs() < 1e-14 {
            if o <= lo || o >= hi {
                return Vec::new();
            }
        } else {
            let (ta, tb) = ((lo - o) / d, (hi - o) / d);
            let (ta, tb) = if ta < tb { (ta, tb) } else { (tb, ta) };
            t_min = t_min.max(ta);
            t_max = t_max.min(tb);
        }
    }
    if t_min >= t_max {
        return Vec::new();
    }

    // Collect all grid-line crossing parameters inside (t_min, t_max).
    let mut ts = Vec::with_capacity(grid.nx + grid.ny + 2);
    ts.push(t_min);
    ts.push(t_max);
    if dx.abs() > 1e-14 {
        for i in 0..=grid.nx {
            let t = (x0 + i as f64 * h - ox) / dx;
            if t > t_min && t < t_max {
                ts.push(t);
            }
        }
    }
    if dy.abs() > 1e-14 {
        for j in 0..=grid.ny {
            let t = (y0 + j as f64 * h - oy) / dy;
            if t > t_min && t < t_max {
                ts.push(t);
            }
        }
    }
    ts.sort_by(f64::total_cmp);

    // Each consecutive parameter pair is one in-cell segment; the segment
    // midpoint identifies the cell unambiguously.
    let mut out = Vec::with_capacity(ts.len());
    for w in ts.windows(2) {
        let len = w[1] - w[0];
        if len <= eps {
            continue;
        }
        let tm = (w[0] + w[1]) / 2.0;
        let px = ox + tm * dx;
        let py = oy + tm * dy;
        let ix = ((px - x0) / h).floor();
        let iy = ((py - y0) / h).floor();
        if ix < 0.0 || iy < 0.0 {
            continue;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "non-negative (checked above) and range-checked below; float-to-int casts saturate"
        )]
        let (ix, iy) = (ix as usize, iy as usize);
        if ix >= grid.nx || iy >= grid.ny {
            continue;
        }
        // Direction is unit-length, so Δt is geometric length.
        out.push((ix, iy, len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ray_square_chord;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn grid4() -> ImageGrid {
        ImageGrid::square(4, 1.0) // spans [-2,2]²
    }

    #[test]
    fn vertical_ray_crosses_one_column() {
        // θ=0 ⇒ ray x = s, travelling in +y.
        let hits = trace_ray(&grid4(), 0.0, -1.5, 1e-12);
        assert_eq!(hits.len(), 4);
        for (k, &(ix, iy, len)) in hits.iter().enumerate() {
            assert_eq!(ix, 0); // x=-1.5 lies in pixel column 0
            assert_eq!(iy, k); // ordered along +y
            assert!((len - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn horizontal_ray_crosses_one_row() {
        // θ=90° ⇒ ray y = s, travelling in −x.
        let hits = trace_ray(&grid4(), FRAC_PI_2, 0.5, 1e-12);
        assert_eq!(hits.len(), 4);
        for &(_, iy, len) in &hits {
            assert_eq!(iy, 2); // y=0.5 in row 2
            assert!((len - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ray_outside_grid_misses() {
        assert!(trace_ray(&grid4(), 0.0, 5.0, 1e-12).is_empty());
        assert!(trace_ray(&grid4(), 0.0, -2.0, 1e-12).is_empty()); // grazing edge
        assert!(trace_ray(&grid4(), 1.1, 4.0, 1e-12).is_empty());
    }

    #[test]
    fn diagonal_ray_through_center() {
        // θ=45°, s=0: the ray passes through pixel corners along the
        // anti-diagonal; total length must equal the in-grid chord 4√2.
        let hits = trace_ray(&grid4(), FRAC_PI_4, 0.0, 1e-12);
        let total: f64 = hits.iter().map(|h| h.2).sum();
        assert!((total - 4.0 * 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn total_length_equals_box_chord() {
        // For any ray, the sum of per-pixel lengths is the length of the
        // ray clipped to the grid box.
        let g = ImageGrid::square(8, 0.7);
        for k in 0..20 {
            let theta = 0.123 + k as f64 * 0.31;
            let s = -2.0 + k as f64 * 0.21;
            let hits = trace_ray(&g, theta, s, 1e-12);
            let total: f64 = hits.iter().map(|h| h.2).sum();
            // Independent clip computation.
            let expected = clip_len(&g, theta, s);
            assert!(
                (total - expected).abs() < 1e-9,
                "theta {theta} s {s}: {total} vs {expected}"
            );
        }
    }

    fn clip_len(g: &ImageGrid, theta: f64, s: f64) -> f64 {
        let (c, sn) = (theta.cos(), theta.sin());
        let (ox, oy, dx, dy) = (s * c, s * sn, -sn, c);
        let (x0, y0) = (g.x_min(), g.y_min());
        let (x1, y1) = (
            x0 + g.nx as f64 * g.pixel_size,
            y0 + g.ny as f64 * g.pixel_size,
        );
        let mut tmin = f64::NEG_INFINITY;
        let mut tmax = f64::INFINITY;
        for (o, d, lo, hi) in [(ox, dx, x0, x1), (oy, dy, y0, y1)] {
            if d.abs() < 1e-14 {
                if o <= lo || o >= hi {
                    return 0.0;
                }
            } else {
                let (ta, tb) = ((lo - o) / d, (hi - o) / d);
                let (ta, tb) = if ta < tb { (ta, tb) } else { (tb, ta) };
                tmin = tmin.max(ta);
                tmax = tmax.min(tb);
            }
        }
        (tmax - tmin).max(0.0)
    }

    #[test]
    fn matches_closed_form_chords() {
        // The decisive cross-check: per-pixel Siddon lengths equal the
        // closed-form trapezoid chord at the same offset.
        let g = ImageGrid::square(6, 1.0);
        for k in 0..40 {
            let theta = 0.05 + k as f64 * 0.17;
            let s = -3.3 + k as f64 * 0.167;
            let hits = trace_ray(&g, theta, s, 1e-9);
            for &(ix, iy, len) in &hits {
                let (cx, cy) = g.pixel_center(ix, iy);
                let expect = ray_square_chord(theta, s, cx, cy, 1.0);
                assert!(
                    (len - expect).abs() < 1e-9,
                    "pixel ({ix},{iy}) theta {theta} s {s}: {len} vs {expect}"
                );
            }
        }
    }
}
