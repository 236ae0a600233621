//! CSCV build parameters (paper §V-D).
//!
//! Three knobs control the format:
//!
//! * `s_vvec` — CSCVE lane count = views per block; must match a SIMD
//!   register width (4/8/16);
//! * `s_imgb` — image tile side; larger tiles amortize `x`/`ỹ` traffic
//!   but raise the zero-padding rate (trajectories decorrelate with
//!   distance from the reference pixel);
//! * `s_vxg` — CSCVEs per vectorized execution group; deepens the inner
//!   loop for pipelining and shrinks index data.
//!
//! A key claim of the paper is that selection is *not* matrix-specific:
//! one combination per (variant, precision, machine class) works across
//! the whole CT family. `CscvParams::default_z/default_m` encode the
//! paper's Table III choices.

/// CSCV build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscvParams {
    /// Image tile side `S_ImgB`.
    pub s_imgb: usize,
    /// CSCVE lane count `S_VVec` (4, 8 or 16).
    pub s_vvec: usize,
    /// CSCVEs per VxG `S_VxG` (≥ 1).
    pub s_vxg: usize,
}

impl CscvParams {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `s_vvec ∉ {4, 8, 16}`, `s_imgb == 0` or `s_vxg == 0`; see
    /// [`try_new`](Self::try_new) for parameters read from outside.
    #[expect(
        clippy::panic,
        reason = "documented contract for literal parameters; untrusted input goes through try_new"
    )]
    pub fn new(s_imgb: usize, s_vvec: usize, s_vxg: usize) -> Self {
        match Self::try_new(s_imgb, s_vvec, s_vxg) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: the same checks as [`new`](Self::new), as
    /// an error instead of a panic.
    pub fn try_new(s_imgb: usize, s_vvec: usize, s_vxg: usize) -> Result<Self, String> {
        if !matches!(s_vvec, 4 | 8 | 16) {
            return Err(format!("S_VVec must be 4, 8 or 16 (got {s_vvec})"));
        }
        if s_imgb == 0 {
            return Err("S_ImgB must be positive".into());
        }
        if s_vxg == 0 {
            return Err("S_VxG must be positive".into());
        }
        Ok(CscvParams {
            s_imgb,
            s_vvec,
            s_vxg,
        })
    }

    /// Paper Table III (SKL) choice for CSCV-Z: `S_ImgB=16, S_VVec=16,
    /// S_VxG=2`.
    pub fn default_z() -> Self {
        CscvParams::new(16, 16, 2)
    }

    /// Paper Table III (SKL, single precision) choice for CSCV-M:
    /// `S_ImgB=32, S_VVec=8, S_VxG=4`.
    pub fn default_m() -> Self {
        CscvParams::new(32, 8, 4)
    }

    /// The sweep grid of the paper's Fig. 8/9 parameter study.
    pub fn sweep_grid() -> Vec<CscvParams> {
        let mut out = Vec::new();
        for &s_vvec in &[4usize, 8, 16] {
            for &s_imgb in &[8usize, 16, 32, 64] {
                for &s_vxg in &[1usize, 2, 4, 8, 16] {
                    out.push(CscvParams::new(s_imgb, s_vvec, s_vxg));
                }
            }
        }
        out
    }
}

impl std::fmt::Display for CscvParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ImgB={},VVec={},VxG={}",
            self.s_imgb, self.s_vvec, self.s_vxg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let z = CscvParams::default_z();
        assert_eq!((z.s_imgb, z.s_vvec, z.s_vxg), (16, 16, 2));
        let m = CscvParams::default_m();
        assert_eq!((m.s_imgb, m.s_vvec, m.s_vxg), (32, 8, 4));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_vvec() {
        CscvParams::new(16, 5, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_vxg() {
        CscvParams::new(16, 8, 0);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        assert!(CscvParams::try_new(16, 5, 1).is_err());
        assert!(CscvParams::try_new(0, 8, 1).is_err());
        assert!(CscvParams::try_new(16, 8, 0).is_err());
        assert_eq!(CscvParams::try_new(16, 16, 2), Ok(CscvParams::default_z()));
    }

    #[test]
    fn sweep_grid_size() {
        assert_eq!(CscvParams::sweep_grid().len(), 3 * 4 * 5);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(CscvParams::new(8, 4, 1).to_string(), "ImgB=8,VVec=4,VxG=1");
    }
}
