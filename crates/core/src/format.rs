//! The CSCV storage format.
//!
//! A [`CscvMatrix`] is a collection of [`Block`]s — one per (image tile ×
//! view group) pair that contains nonzeros. Each block stores:
//!
//! * the local **ỹ scatter map** `ι_k` (paper Alg. 3): reordered slot →
//!   global row (or `-1` for slots that fall off the detector / view
//!   range — those only ever receive padding-zero contributions);
//! * its **VxG**s: per group a start slot `q`, an offset count, `S_VxG`
//!   column indices, and a value-stream pointer;
//! * the value stream — full `S_VVec`-lane blocks for CSCV-Z, or
//!   mask-compressed nonzeros (+ occupancy masks) for CSCV-M.
//!
//! Value layout inside a VxG is offset-major: for each curve offset, the
//! `S_VxG` member columns' lane blocks follow each other, so the kernel
//! loads the `ỹ` accumulator once per offset and applies `S_VxG` FMAs.

use crate::layout::SinoLayout;
use crate::params::CscvParams;
use cscv_simd::Scalar;

/// Which padding treatment the value stream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Padding zeros stored (full lane blocks).
    Z,
    /// Padding removed; per-lane-block occupancy masks.
    M,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Z => write!(f, "CSCV-Z"),
            Variant::M => write!(f, "CSCV-M"),
        }
    }
}

/// One (tile × view group) block in CSCV form.
#[derive(Debug, Clone)]
pub struct Block<T> {
    /// View-group index this block belongs to.
    pub group: u32,
    /// Image-tile index this block belongs to (blocks of one tile touch
    /// a fixed column set — the transpose kernel's partitioning axis).
    pub tile: u32,
    /// ỹ scatter map: slot → global row, or `-1` if the slot has no
    /// physical row (off-detector offset or padded lane).
    pub map: Vec<i32>,
    /// Per VxG: start slot in ỹ.
    pub vxg_q: Vec<u32>,
    /// Per VxG: number of curve offsets covered.
    pub vxg_count: Vec<u16>,
    /// Per VxG: `S_VxG` member column ids (padded members point at column
    /// 0 with all-zero values — contributing nothing).
    pub cols: Vec<u32>,
    /// Per VxG: start element in `vals` (`n_vxg + 1` prefix).
    pub val_ptr: Vec<u32>,
    /// Value stream (layout per variant — see module docs).
    pub vals: Vec<T>,
    /// CSCV-M only: occupancy masks, `ceil(S_VVec/8)` bytes per lane
    /// block, little-endian.
    pub masks: Vec<u8>,
    /// Original nonzeros in this block.
    pub nnz: usize,
    /// Total lane slots (CSCVE slots incl. padding) in this block.
    pub lane_slots: usize,
}

impl<T> Block<T> {
    pub fn n_vxgs(&self) -> usize {
        self.vxg_q.len()
    }

    /// ỹ length this block needs.
    pub fn ytil_len(&self) -> usize {
        self.map.len()
    }

    /// Bytes of matrix data one pass over this block streams: values,
    /// masks, scatter map, VxG descriptors, plus a 16-byte block header.
    /// [`CscvMatrix::matrix_bytes`] is the sum of these, so per-block
    /// counted traffic and the `M_Rit` model share one definition.
    pub fn matrix_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<T>()
            + self.masks.len()
            + self.map.len() * 4
            + self.vxg_q.len() * 4
            + self.vxg_count.len() * 2
            + self.cols.len() * 4
            + self.val_ptr.len() * 4
            + 16
    }
}

/// Aggregate build statistics (drives the paper's Fig. 8 and Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CscvStats {
    pub nnz_orig: usize,
    /// Total CSCVE lane slots incl. padding (= stored values for CSCV-Z).
    pub lane_slots: usize,
    /// Padding introduced by IOBLR (per-column offset spans).
    pub ioblr_padding: usize,
    /// Extra padding from aligning columns inside VxGs (Fig. 6's red
    /// groups).
    pub vxg_padding: usize,
    pub n_cscve: usize,
    pub n_vxg: usize,
    pub n_blocks: usize,
}

impl CscvStats {
    /// Zero-padding rate `R_nnzE = nnz(Ã)/nnz(A) − 1`.
    pub fn r_nnze(&self) -> f64 {
        if self.nnz_orig == 0 {
            0.0
        } else {
            self.lane_slots as f64 / self.nnz_orig as f64 - 1.0
        }
    }
}

/// A matrix in CSCV format (either variant).
#[derive(Debug, Clone)]
pub struct CscvMatrix<T> {
    pub n_rows: usize,
    pub n_cols: usize,
    pub layout: SinoLayout,
    pub params: CscvParams,
    pub variant: Variant,
    /// Blocks, sorted by view group.
    pub blocks: Vec<Block<T>>,
    /// Per view group: range of `blocks`, the group's global row range,
    /// and its nnz (for load balancing).
    pub groups: Vec<GroupInfo>,
    pub stats: CscvStats,
    /// Largest `ytil_len` over all blocks (scratch sizing).
    pub max_ytil: usize,
}

/// Per-view-group metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// Range into `CscvMatrix::blocks`.
    pub block_range: std::ops::Range<usize>,
    /// Global row range `[view_start·n_bins, view_end·n_bins)`.
    pub row_range: std::ops::Range<usize>,
    /// Nonzeros in the group (balancing weight).
    pub nnz: usize,
}

impl<T: Scalar> CscvMatrix<T> {
    /// Bytes per occupancy mask for this lane width.
    pub fn mask_bytes(&self) -> usize {
        self.params.s_vvec.div_ceil(8)
    }

    /// Stored values (lane slots for Z, true nonzeros for M).
    pub fn nnz_stored_vals(&self) -> usize {
        self.blocks.iter().map(|b| b.vals.len()).sum()
    }

    /// `M(A)`: bytes of matrix data the kernel reads per SpMV (the sum
    /// of every block's [`Block::matrix_bytes`]).
    pub fn matrix_bytes(&self) -> usize {
        self.blocks.iter().map(Block::matrix_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_r_nnze() {
        let s = CscvStats {
            nnz_orig: 100,
            lane_slots: 140,
            ioblr_padding: 30,
            vxg_padding: 10,
            n_cscve: 20,
            n_vxg: 10,
            n_blocks: 2,
        };
        assert!((s.r_nnze() - 0.4).abs() < 1e-12);
        let empty = CscvStats::default();
        assert_eq!(empty.r_nnze(), 0.0);
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::Z.to_string(), "CSCV-Z");
        assert_eq!(Variant::M.to_string(), "CSCV-M");
    }
}
