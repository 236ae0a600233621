//! Sinogram row layout and image tiling descriptors.
//!
//! CSCV needs to know how matrix rows map to `(view, bin)` pairs and how
//! columns map to image pixels; these two small structs carry exactly
//! that, keeping `cscv-core` independent of the CT generator crate.

/// Row layout of an integral-operator matrix: `row = view·n_bins + bin`
/// (bin fastest — the sinogram's bin-major order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinoLayout {
    pub n_views: usize,
    pub n_bins: usize,
}

impl SinoLayout {
    pub fn n_rows(&self) -> usize {
        self.n_views * self.n_bins
    }

    #[inline]
    pub fn row_index(&self, view: usize, bin: usize) -> usize {
        debug_assert!(view < self.n_views && bin < self.n_bins);
        view * self.n_bins + bin
    }

    #[inline]
    pub fn ray_of_row(&self, row: usize) -> (usize, usize) {
        debug_assert!(row < self.n_rows());
        (row / self.n_bins, row % self.n_bins)
    }
}

/// Column layout: pixel `(ix, iy)` is column `iy·nx + ix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageShape {
    pub nx: usize,
    pub ny: usize,
}

impl ImageShape {
    pub fn n_pixels(&self) -> usize {
        self.nx * self.ny
    }

    #[inline]
    pub fn col_index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    #[inline]
    pub fn pixel_of_col(&self, col: usize) -> (usize, usize) {
        debug_assert!(col < self.n_pixels());
        (col % self.nx, col / self.nx)
    }
}

/// One image tile of the block decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    pub x0: usize,
    pub y0: usize,
    pub w: usize,
    pub h: usize,
}

impl Tile {
    /// Column indices of the tile's pixels, row-major within the tile.
    pub fn cols(&self, img: &ImageShape) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.w * self.h);
        for iy in self.y0..self.y0 + self.h {
            for ix in self.x0..self.x0 + self.w {
                out.push(img.col_index(ix, iy));
            }
        }
        out
    }

    /// The tile's center pixel — IOBLR's reference pixel.
    pub fn center(&self) -> (usize, usize) {
        (self.x0 + self.w / 2, self.y0 + self.h / 2)
    }
}

/// Split an image into `s_imgb × s_imgb` tiles (edge tiles may be
/// smaller).
pub fn tiles(img: &ImageShape, s_imgb: usize) -> Vec<Tile> {
    assert!(s_imgb >= 1);
    let mut out = Vec::new();
    let mut y0 = 0;
    while y0 < img.ny {
        let h = s_imgb.min(img.ny - y0);
        let mut x0 = 0;
        while x0 < img.nx {
            let w = s_imgb.min(img.nx - x0);
            out.push(Tile { x0, y0, w, h });
            x0 += w;
        }
        y0 += h;
    }
    // Postcondition feeding invariant CSCV-GROUPS: the tiles must cover
    // every pixel exactly once (blocks would otherwise drop or
    // double-count columns).
    if cfg!(debug_assertions) {
        let mut seen = vec![false; img.n_pixels()];
        for t in &out {
            for c in t.cols(img) {
                assert!(!seen[c], "tiles(): pixel {c} covered twice");
                seen[c] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "tiles(): not every pixel is covered"
        );
    }
    out
}

/// View groups of `s_vvec` consecutive views (last may be partial).
pub fn view_groups(n_views: usize, s_vvec: usize) -> Vec<std::ops::Range<usize>> {
    assert!(s_vvec >= 1);
    let out: Vec<std::ops::Range<usize>> = (0..n_views.div_ceil(s_vvec))
        .map(|g| g * s_vvec..((g + 1) * s_vvec).min(n_views))
        .collect();
    // Postcondition feeding invariant CSCV-GROUPS: groups must be a
    // contiguous non-empty partition of 0..n_views.
    if cfg!(debug_assertions) {
        let mut next = 0usize;
        for g in &out {
            assert_eq!(g.start, next, "view_groups(): gap before view {next}");
            assert!(g.end > g.start, "view_groups(): empty group at {next}");
            next = g.end;
        }
        assert_eq!(next, n_views, "view_groups(): views {next}.. uncovered");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sino_roundtrip() {
        let l = SinoLayout {
            n_views: 5,
            n_bins: 7,
        };
        assert_eq!(l.n_rows(), 35);
        for r in 0..35 {
            let (v, b) = l.ray_of_row(r);
            assert_eq!(l.row_index(v, b), r);
        }
        assert_eq!(l.row_index(1, 0), 7); // bin-fastest
    }

    #[test]
    fn image_roundtrip() {
        let img = ImageShape { nx: 6, ny: 4 };
        for c in 0..24 {
            let (ix, iy) = img.pixel_of_col(c);
            assert_eq!(img.col_index(ix, iy), c);
        }
    }

    #[test]
    fn tiles_cover_image_exactly() {
        let img = ImageShape { nx: 10, ny: 7 };
        let ts = tiles(&img, 4);
        let mut seen = [false; 70];
        for t in &ts {
            for c in t.cols(&img) {
                assert!(!seen[c], "tile overlap at col {c}");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // 3 x-tiles (4,4,2) × 2 y-tiles (4,3).
        assert_eq!(ts.len(), 6);
    }

    #[test]
    fn tile_center_is_middle_pixel() {
        let t = Tile {
            x0: 4,
            y0: 8,
            w: 4,
            h: 4,
        };
        assert_eq!(t.center(), (6, 10));
        let edge = Tile {
            x0: 0,
            y0: 0,
            w: 1,
            h: 3,
        };
        assert_eq!(edge.center(), (0, 1));
    }

    #[test]
    fn view_groups_cover_views() {
        let gs = view_groups(10, 4);
        assert_eq!(gs, vec![0..4, 4..8, 8..10]);
        let exact = view_groups(8, 4);
        assert_eq!(exact, vec![0..4, 4..8]);
        let one = view_groups(3, 8);
        assert_eq!(one, vec![0..3]);
    }
}
