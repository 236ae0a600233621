//! The CSCV format builder (paper Fig. 7: "matrix format conversion").
//!
//! For every (tile × view group) block:
//!
//! 1. read each tile column's nonzeros for the group's views, resuming
//!    where the tile's previous group stopped;
//! 2. derive the IOBLR reference curve from the tile-center column (data
//!    driven; falls back to the first non-empty column);
//! 3. re-address nonzeros as (curve offset, local view) and densify each
//!    column over its offset span — the CSCVEs;
//! 4. sort columns by first offset, group `S_VxG` of them into VxGs
//!    (columns padded to the group's common offset range — the "red"
//!    extra padding of Fig. 6a), then sort VxGs by offset count (Fig. 6b);
//! 5. emit the value stream (full lanes for CSCV-Z; mask-compressed for
//!    CSCV-M) and the block's ỹ scatter map.
//!
//! Blocks do not depend on each other, so the builder splits the
//! tile-major (tile, group) sequence into contiguous parts and builds
//! them on every core. A part walks each tile's columns once, front to
//! back, for all of the tile's view groups. The blocks are then put in
//! (group, tile) order: the matrix does not depend on the part count.

use crate::format::{Block, CscvMatrix, CscvStats, GroupInfo, Variant};
use crate::ioblr::{min_bin_per_view, RefCurve};
use crate::layout::{tiles, view_groups, ImageShape, SinoLayout, Tile};
use crate::params::CscvParams;
use cscv_sparse::partition::even_chunks;
use cscv_sparse::pool::fork_join;
use cscv_sparse::{Csc, Scalar, ThreadPool};
use std::ops::Range;

/// Source of IOBLR reference curves.
///
/// The default is **data-driven** (read the min-bin curve off the
/// reference column), which needs no geometry knowledge. Generators
/// that know their geometry analytically (e.g. `cscv-ct`'s parallel- or
/// fan-beam operators) can provide exact curves instead — useful when
/// the reference column is sparse or the matrix is subsampled.
pub trait CurveProvider: Sync {
    /// Reference curve for `ref_col` over the (global) view range, or
    /// `None` when this provider cannot produce one (the builder then
    /// falls back to a data-driven curve from another column).
    fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve>;
}

/// The default data-driven provider: min-bin curve of the column itself.
pub struct DataDrivenCurves<'a, T> {
    pub csc: &'a Csc<T>,
    pub layout: SinoLayout,
}

impl<T: Scalar> CurveProvider for DataDrivenCurves<'_, T> {
    fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve> {
        RefCurve::from_min_bins(&min_bin_per_view(self.csc, &self.layout, ref_col, views))
    }
}

/// Why a CSCV build was rejected before any block work started.
///
/// The compressed index types dictate hard dimension ceilings: the ỹ
/// scatter map stores rows as `i32` (−1 is the padding sentinel, so
/// only `i32::MAX` rows are addressable — invariant `CSCV-U32-FIT`),
/// and VxG member columns are `u32`. [`try_build`] checks these up
/// front instead of letting an `as` cast wrap silently mid-conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `layout.n_rows() > i32::MAX`: rows no longer fit the i32 scatter
    /// map (invariant `CSCV-U32-FIT`).
    RowsExceedIndexRange { n_rows: usize },
    /// `img.n_pixels() > u32::MAX`: columns no longer fit the u32 VxG
    /// member ids (invariant `CSCV-U32-FIT`).
    ColsExceedIndexRange { n_cols: usize },
    /// The CSC's shape disagrees with `layout`/`img`.
    ShapeMismatch {
        what: &'static str,
        got: usize,
        expected: usize,
    },
    /// `params.s_vxg` exceeds the kernels' compiled accumulator bound.
    VxgAboveKernelBound { s_vxg: usize, max: usize },
    /// One block's VxG start slot or value stream outgrows its u32
    /// index, or a VxG's offset count its u16 (invariant `CSCV-U32-FIT`).
    BlockExceedsIndexRange { what: &'static str, value: usize },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RowsExceedIndexRange { n_rows } => write!(
                f,
                "{n_rows} rows exceed the i32 scatter-map range ({})",
                i32::MAX
            ),
            BuildError::ColsExceedIndexRange { n_cols } => write!(
                f,
                "{n_cols} columns exceed the u32 column-id range ({})",
                u32::MAX
            ),
            BuildError::ShapeMismatch {
                what,
                got,
                expected,
            } => write!(f, "shape mismatch: {what} is {got}, expected {expected}"),
            BuildError::VxgAboveKernelBound { s_vxg, max } => {
                write!(f, "S_VxG = {s_vxg} above the kernel bound {max}")
            }
            BuildError::BlockExceedsIndexRange { what, value } => {
                write!(f, "{what} {value} exceeds its block index type")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Build a CSCV matrix from a CSC matrix with sinogram row structure,
/// using data-driven reference curves.
///
/// # Panics
/// If the CSC shape disagrees with `layout`/`img`, a dimension exceeds
/// the compressed index range, or `s_vxg > 32`. Use [`try_build`] for a
/// typed error instead.
#[expect(
    clippy::panic,
    reason = "documented panicking wrapper; try_build returns the typed error"
)]
pub fn build<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
) -> CscvMatrix<T> {
    try_build(csc, layout, img, params, variant).unwrap_or_else(|e| panic!("CSCV build: {e}"))
}

/// Build with an explicit [`CurveProvider`].
///
/// # Panics
/// Same conditions as [`build`]; see [`try_build_with_curves`].
#[expect(
    clippy::panic,
    reason = "documented panicking wrapper; try_build_with_curves returns the typed error"
)]
pub fn build_with_curves<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
) -> CscvMatrix<T> {
    try_build_with_curves(csc, layout, img, params, variant, curves)
        .unwrap_or_else(|e| panic!("CSCV build: {e}"))
}

/// Fallible [`build`]: returns a [`BuildError`] instead of panicking on
/// rejected inputs (oversized dimensions, shape mismatch, S_VxG bound).
pub fn try_build<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
) -> Result<CscvMatrix<T>, BuildError> {
    try_build_with_curves(
        csc,
        layout,
        img,
        params,
        variant,
        &DataDrivenCurves { csc, layout },
    )
}

/// Fallible [`build_with_curves`].
pub fn try_build_with_curves<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
) -> Result<CscvMatrix<T>, BuildError> {
    // Index-range ceilings first (they are properties of layout/img
    // alone): every downstream `usize → u32/i32` index conversion in
    // this module relies on them (invariant CSCV-U32-FIT).
    if layout.n_rows() > i32::MAX as usize {
        return Err(BuildError::RowsExceedIndexRange {
            n_rows: layout.n_rows(),
        });
    }
    if img.n_pixels() > u32::MAX as usize {
        return Err(BuildError::ColsExceedIndexRange {
            n_cols: img.n_pixels(),
        });
    }
    if csc.n_rows() != layout.n_rows() {
        return Err(BuildError::ShapeMismatch {
            what: "CSC row count vs layout",
            got: csc.n_rows(),
            expected: layout.n_rows(),
        });
    }
    if csc.n_cols() != img.n_pixels() {
        return Err(BuildError::ShapeMismatch {
            what: "CSC column count vs image shape",
            got: csc.n_cols(),
            expected: img.n_pixels(),
        });
    }
    if params.s_vxg > crate::kernels::MAX_VXG {
        return Err(BuildError::VxgAboveKernelBound {
            s_vxg: params.s_vxg,
            max: crate::kernels::MAX_VXG,
        });
    }

    build_in_parts(
        csc,
        layout,
        img,
        params,
        variant,
        curves,
        ThreadPool::max_parallelism(),
    )
}

/// The blocks of [`try_build_with_curves`], built over at most `parts`
/// contiguous ranges of the tile-major (tile, group) sequence and put
/// back in (group, tile) order, so neither the matrix nor the first error
/// in that order depends on `parts`.
///
/// Tile-major order lets a part read each tile column front to back once
/// for all the tile's view groups: [`BlockScratch::gather`] resumes every
/// column where the previous group stopped.
#[expect(
    clippy::cast_possible_truncation,
    reason = "group count <= n_views <= n_rows <= i32::MAX and tile count <= n_pixels <= u32::MAX, the ceilings try_build_with_curves established"
)]
fn build_in_parts<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
    parts: usize,
) -> Result<CscvMatrix<T>, BuildError> {
    let tile_list = tiles(&img, params.s_imgb);
    let vgroups = view_groups(layout.n_views, params.s_vvec);
    let n_groups = vgroups.len();

    let n_blocks = tile_list.len() * n_groups;
    let built = fork_join(even_chunks(n_blocks, parts.min(n_blocks).max(1)), |range| {
        let mut scratch = BlockScratch::default();
        let mut stats = CscvStats::default();
        let mut blocks = Vec::new();
        // The error with the smallest (group, tile) key so far: later
        // blocks of this part may still come before it in that order.
        let mut first_err: Option<((u32, u32), BuildError)> = None;
        for k in range.clone() {
            let (ti, gi) = (k / n_groups, k % n_groups);
            let views = &vgroups[gi];
            if k == range.start || gi == 0 {
                scratch.enter_tile(csc, &tile_list[ti].cols(&img), views.start * layout.n_bins);
            }
            scratch.gather(csc, &layout, views);
            let key = (gi as u32, ti as u32);
            if first_err.as_ref().is_some_and(|(at, _)| *at < key) {
                continue;
            }
            match build_block(
                csc,
                &layout,
                &img,
                &tile_list[ti],
                views,
                key,
                params,
                variant,
                curves,
                &mut stats,
                &mut scratch,
            ) {
                Ok(block) => blocks.extend(block),
                Err(e) => first_err = Some((key, e)),
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok((blocks, stats)),
        }
    });

    let mut stats = CscvStats {
        nnz_orig: csc.nnz(),
        ..CscvStats::default()
    };
    let first_err = built.iter().filter_map(|part| part.as_ref().err());
    if let Some((_, e)) = first_err.min_by_key(|(at, _)| *at) {
        return Err(e.clone());
    }
    let mut blocks = Vec::new();
    for (part_blocks, s) in built.into_iter().flatten() {
        stats.lane_slots += s.lane_slots;
        stats.ioblr_padding += s.ioblr_padding;
        stats.vxg_padding += s.vxg_padding;
        stats.n_cscve += s.n_cscve;
        stats.n_vxg += s.n_vxg;
        blocks.extend(part_blocks);
    }
    index_fit(blocks.len(), "block count")?;
    stats.n_blocks = blocks.len();

    // Blocks in (group, tile) order; each group owns a contiguous run.
    blocks.sort_unstable_by_key(|b| (b.group, b.tile));
    let mut groups = Vec::with_capacity(vgroups.len());
    let mut start = 0;
    for (gi, views) in vgroups.iter().enumerate() {
        let n = blocks[start..]
            .iter()
            .take_while(|b| b.group as usize == gi)
            .count();
        let block_range = start..start + n;
        start += n;
        groups.push(GroupInfo {
            nnz: blocks[block_range.clone()].iter().map(|b| b.nnz).sum(),
            block_range,
            row_range: views.start * layout.n_bins..views.end * layout.n_bins,
        });
    }
    let max_ytil = blocks.iter().map(Block::ytil_len).max().unwrap_or(0);

    let matrix = CscvMatrix {
        n_rows: csc.n_rows(),
        n_cols: csc.n_cols(),
        layout,
        params,
        variant,
        blocks,
        groups,
        stats,
        max_ytil,
    };
    // Invariant postcondition (no-op in release builds).
    crate::invariants::assert_valid(&matrix, "builder::try_build_with_curves");
    Ok(matrix)
}

/// Per-column working data inside one block.
struct ColData {
    col: u32,
    /// Offset span `[c0, c1]` relative to the reference curve.
    c0: i64,
    c1: i64,
    /// Start of the densified values in [`BlockScratch::grid`]:
    /// `(c − c0)·W + v` (lanes beyond the group's local view count stay
    /// zero).
    grid: usize,
}

/// Working buffers of [`build_block`], reused by every block of a part.
#[derive(Default)]
struct BlockScratch<T> {
    /// The current tile's columns and, per column, the position in
    /// [`Csc::col`] of its next unread nonzero.
    tile_cols: Vec<u32>,
    cursors: Vec<usize>,
    /// `(local view, bin, value)` of the tile's columns, column after
    /// column.
    entries: Vec<(u32, u32, T)>,
    /// Per non-empty column: its id and its range of `entries`.
    spans: Vec<(u32, Range<usize>)>,
    cols: Vec<ColData>,
    /// Densified columns, one after another.
    grid: Vec<T>,
}

impl<T: Scalar> BlockScratch<T> {
    /// Point the cursors at the first nonzero of each tile column at or
    /// past `start_row`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "col < n_pixels <= u32::MAX, the ceiling try_build_with_curves established"
    )]
    fn enter_tile(&mut self, csc: &Csc<T>, cols: &[usize], start_row: usize) {
        self.tile_cols.clear();
        self.cursors.clear();
        for &col in cols {
            let (rows, _) = csc.col(col);
            self.tile_cols.push(col as u32);
            self.cursors.push(match start_row {
                0 => 0,
                _ => rows.partition_point(|&r| (r as usize) < start_row),
            });
        }
    }

    /// Read the tile columns' nonzeros of `views` into `entries` and
    /// `spans`, from the cursors forward, and leave each cursor at the
    /// column's first row past the group. The cursors must sit at the
    /// group's first row.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "local view < S_VVec <= 16 and bin < n_bins <= n_rows <= i32::MAX, the ceilings try_build_with_curves established"
    )]
    fn gather(&mut self, csc: &Csc<T>, layout: &SinoLayout, views: &Range<usize>) {
        let (start_row, end_row) = (views.start * layout.n_bins, views.end * layout.n_bins);
        self.entries.clear();
        self.spans.clear();
        for (&col, cursor) in self.tile_cols.iter().zip(&mut self.cursors) {
            let (rows, vals) = csc.col(col as usize);
            let start = self.entries.len();
            // Step the view boundary instead of dividing every row.
            let (mut view, mut view_start) = (0u32, start_row);
            let mut at = *cursor;
            while let Some(&r) = rows.get(at).filter(|&&r| (r as usize) < end_row) {
                let r = r as usize;
                while r >= view_start + layout.n_bins {
                    view += 1;
                    view_start += layout.n_bins;
                }
                self.entries.push((view, (r - view_start) as u32, vals[at]));
                at += 1;
            }
            *cursor = at;
            if self.entries.len() > start {
                self.spans.push((col, start..self.entries.len()));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "col < n_pixels <= u32::MAX and row < n_rows <= i32::MAX (the ceilings try_build_with_curves established); offset differences are non-negative (c0 <= c1, c_min <= c) and at most n_bins; bin is checked non-negative; W <= 16 lanes leave mask >> 8 within u8"
)]
fn build_block<T: Scalar>(
    csc: &Csc<T>,
    layout: &SinoLayout,
    img: &ImageShape,
    tile: &Tile,
    views: &Range<usize>,
    (group, tile_idx): (u32, u32),
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
    stats: &mut CscvStats,
    scratch: &mut BlockScratch<T>,
) -> Result<Option<Block<T>>, BuildError> {
    let w = params.s_vvec;
    let g = params.s_vxg;
    let BlockScratch {
        entries,
        spans,
        cols: cdata,
        grid,
        ..
    } = scratch;

    // 1. Per-column entries: gathered by the caller.
    let block_nnz = entries.len();
    let Some(&(first_col, _)) = spans.first() else {
        return Ok(None);
    };

    // 2. Reference curve: tile center via the provider, falling back to
    //    a data-driven curve of the first non-empty column of the tile.
    let (cx, cy) = tile.center();
    let ref_col = img.col_index(cx, cy);
    #[expect(
        clippy::expect_used,
        reason = "the fallback column has entries in this view group, so it yields a curve"
    )]
    let curve = curves.curve(ref_col, views).unwrap_or_else(|| {
        RefCurve::from_min_bins(&min_bin_per_view(csc, layout, first_col as usize, views))
            .expect("fallback column is non-empty")
    });
    assert_eq!(curve.len(), views.len(), "curve must cover the view group");

    // 3. Densify each column over its offset span.
    cdata.clear();
    grid.clear();
    let mut nonzero_vals = 0usize;
    for (col, span) in spans.iter() {
        let col_entries = &entries[span.clone()];
        let mut c0 = i64::MAX;
        let mut c1 = i64::MIN;
        for &(v, b, _) in col_entries {
            let c = curve.offset(v as usize, b);
            c0 = c0.min(c);
            c1 = c1.max(c);
        }
        let n = (c1 - c0 + 1) as usize * w;
        let at = grid.len();
        grid.resize(at + n, T::ZERO);
        for &(v, b, val) in col_entries {
            let c = curve.offset(v as usize, b);
            grid[at + (c - c0) as usize * w + v as usize] = val;
            nonzero_vals += usize::from(val != T::ZERO);
        }
        stats.ioblr_padding += n - col_entries.len();
        stats.n_cscve += n / w;
        cdata.push(ColData {
            col: *col,
            c0,
            c1,
            grid: at,
        });
    }

    // 4. Block offset range and column ordering by first offset.
    // block_nnz > 0, so `cdata` is non-empty and the folds are exact.
    let c_min = cdata.iter().map(|c| c.c0).fold(i64::MAX, i64::min);
    let c_max = cdata.iter().map(|c| c.c1).fold(i64::MIN, i64::max);
    let n_off = (c_max - c_min + 1) as usize;
    cdata.sort_by_key(|c| (c.c0, c.col));

    // VxG descriptors over sorted columns.
    struct VxgDesc {
        members: Range<usize>,
        c_start: i64,
        count: usize,
    }
    let n_vxg = cdata.len().div_ceil(g);
    let mut descs = Vec::with_capacity(n_vxg);
    for vi in 0..n_vxg {
        let members = vi * g..((vi + 1) * g).min(cdata.len());
        // Every VxG has at least one member, so the folds are exact.
        let c_start = cdata[members.clone()]
            .iter()
            .map(|c| c.c0)
            .fold(i64::MAX, i64::min);
        let c_end = cdata[members.clone()]
            .iter()
            .map(|c| c.c1)
            .fold(i64::MIN, i64::max);
        let count = (c_end - c_start + 1) as usize;
        let member_slots: usize = cdata[members.clone()]
            .iter()
            .map(|c| (c.c1 - c.c0 + 1) as usize * w)
            .sum();
        stats.vxg_padding += count * g * w - member_slots;
        stats.lane_slots += count * g * w;
        stats.n_vxg += 1;
        descs.push(VxgDesc {
            members,
            c_start,
            count,
        });
    }
    // Order VxGs by offset count (paper Fig. 6b), then start for
    // determinism.
    descs.sort_by_key(|d| (d.count, d.c_start));

    // 5. Emit value stream, masks and per-VxG metadata.
    let mask_bytes = w.div_ceil(8);
    let mut vxg_q = Vec::with_capacity(descs.len());
    let mut vxg_count = Vec::with_capacity(descs.len());
    let mut out_cols = Vec::with_capacity(descs.len() * g);
    let mut val_ptr = Vec::with_capacity(descs.len() + 1);
    // Z stores every lane slot, M every nonzero and one mask per lane
    // block. M writes whole lanes and keeps the nonzero ones, so its
    // stream has room for one lane past its last nonzero.
    let block_lane_slots: usize = descs.iter().map(|d| d.count * g * w).sum();
    let (mut vals, mut masks) = match variant {
        Variant::Z => (Vec::with_capacity(block_lane_slots), Vec::new()),
        Variant::M => (
            vec![T::ZERO; nonzero_vals + w],
            Vec::with_capacity(block_lane_slots / w * mask_bytes),
        ),
    };
    let mut n_vals = 0usize;
    val_ptr.push(0u32);
    let mut lane = vec![T::ZERO; w];
    for d in &descs {
        // A block whose ỹ outgrows u32 is unusable (val_ptr is u32 too),
        // so reject it rather than wrap (invariant CSCV-U32-FIT).
        let q = (d.c_start - c_min) as usize * w;
        vxg_q.push(index_fit(q, "VxG start slot")?);
        vxg_count.push(
            u16::try_from(d.count).map_err(|_| BuildError::BlockExceedsIndexRange {
                what: "VxG offset count",
                value: d.count,
            })?,
        );
        let members = &cdata[d.members.clone()];
        for s in 0..g {
            out_cols.push(members.get(s).map(|c| c.col).unwrap_or(members[0].col));
        }
        for ci in 0..d.count {
            let c_abs = d.c_start + ci as i64;
            for s in 0..g {
                lane.fill(T::ZERO);
                if let Some(m) = members.get(s) {
                    if c_abs >= m.c0 && c_abs <= m.c1 {
                        let at = m.grid + (c_abs - m.c0) as usize * w;
                        lane.copy_from_slice(&grid[at..at + w]);
                    }
                }
                match variant {
                    Variant::Z => {
                        vals.extend_from_slice(&lane);
                        n_vals += w;
                    }
                    Variant::M => {
                        // Every lane is written; only a nonzero one
                        // advances the stream, so no branch follows
                        // the data.
                        let mut mask = 0u32;
                        for (l, &v) in lane.iter().enumerate() {
                            let keep = v != T::ZERO;
                            vals[n_vals] = v;
                            n_vals += usize::from(keep);
                            mask |= u32::from(keep) << l;
                        }
                        masks.push((mask & 0xFF) as u8);
                        if mask_bytes == 2 {
                            masks.push((mask >> 8) as u8);
                        }
                    }
                }
            }
        }
        val_ptr.push(index_fit(n_vals, "block value stream length")?);
    }
    vals.truncate(n_vals);

    // 6. ỹ scatter map.
    let wl = views.len();
    let mut map = vec![-1i32; n_off * w];
    for off in 0..n_off {
        let c_abs = c_min + off as i64;
        for v in 0..wl {
            let bin = curve.bin(v) + c_abs;
            if bin >= 0 && (bin as usize) < layout.n_bins {
                map[off * w + v] = layout.row_index(views.start + v, bin as usize) as i32;
            }
        }
    }

    Ok(Some(Block {
        group,
        tile: tile_idx,
        map,
        vxg_q,
        vxg_count,
        cols: out_cols,
        val_ptr,
        vals,
        masks,
        nnz: block_nnz,
        lane_slots: block_lane_slots,
    }))
}

/// `value` as a u32 block index, or the typed error naming `what`.
fn index_fit(value: usize, what: &'static str) -> Result<u32, BuildError> {
    u32::try_from(value).map_err(|_| BuildError::BlockExceedsIndexRange { what, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Variant;
    use cscv_sparse::Coo;

    /// A small synthetic "integral operator": column (pixel) j projects
    /// to bins around `ref(v) + j mod 3` — perfectly CT-like structure.
    fn synthetic(
        n_views: usize,
        n_bins: usize,
        nx: usize,
        ny: usize,
    ) -> (Csc<f64>, SinoLayout, ImageShape) {
        let layout = SinoLayout { n_views, n_bins };
        let img = ImageShape { nx, ny };
        let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
        for col in 0..img.n_pixels() {
            for v in 0..n_views {
                // A slanted trajectory plus per-column offset.
                let base = (v + col) % (n_bins - 1);
                coo.push(layout.row_index(v, base), col, 1.0 + col as f64 * 0.01);
                coo.push(layout.row_index(v, base + 1), col, 0.5);
            }
        }
        (coo.to_csc(), layout, img)
    }

    #[test]
    fn build_z_validates_and_covers_nnz() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::Z);
        m.validate_full().unwrap();
        assert_eq!(m.stats.nnz_orig, csc.nnz());
        assert_eq!(
            m.stats.lane_slots,
            m.stats.nnz_orig + m.stats.ioblr_padding + m.stats.vxg_padding
        );
        assert_eq!(m.nnz_stored_vals(), m.stats.lane_slots);
        assert!(m.stats.r_nnze() >= 0.0);
        assert_eq!(m.groups.len(), 2);
    }

    #[test]
    fn build_m_stores_exactly_nnz_values() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::M);
        m.validate_full().unwrap();
        assert_eq!(m.nnz_stored_vals(), csc.nnz());
        // Same padding stats as Z (format-level, not storage-level).
        let z = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::Z);
        assert_eq!(m.stats, z.stats);
    }

    #[test]
    fn spmv_z_equals_csc_reference() {
        let (csc, layout, img) = synthetic(9, 14, 6, 5);
        for params in [
            CscvParams::new(2, 4, 1),
            CscvParams::new(3, 4, 2),
            CscvParams::new(6, 8, 4),
            CscvParams::new(16, 16, 3),
        ] {
            let m = build(&csc, layout, img, params, Variant::Z);
            m.validate_full().unwrap();
            spmv_single_thread_check(&csc, &m, params);
        }
    }

    #[test]
    fn spmv_m_equals_csc_reference() {
        let (csc, layout, img) = synthetic(10, 14, 5, 4);
        for params in [CscvParams::new(2, 4, 2), CscvParams::new(5, 8, 3)] {
            let m = build(&csc, layout, img, params, Variant::M);
            m.validate_full().unwrap();
            spmv_single_thread_check(&csc, &m, params);
        }
    }

    /// Direct (executor-free) single-thread SpMV over the blocks.
    fn spmv_single_thread_check(csc: &Csc<f64>, m: &CscvMatrix<f64>, params: CscvParams) {
        use crate::kernels::{forward_block, scatter_add, LaneSource, MLanes, ZLanes};
        fn block<'a, S: LaneSource<'a, f64, W>, const W: usize>(
            blk: &'a Block<f64>,
            s_vxg: usize,
            x: &[f64],
            ytil: &mut [f64],
            y: &mut [f64],
        ) {
            forward_block::<f64, S, W, 1>(blk, s_vxg, x, x.len(), ytil);
            scatter_add::<f64, W, 1>(blk, ytil, &mut [y], 0);
        }
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        let mut y = vec![0.0; csc.n_rows()];
        let mut ytil = vec![0.0; m.max_ytil];
        let s = params.s_vxg;
        for blk in &m.blocks {
            match (m.variant, params.s_vvec) {
                (Variant::Z, 4) => block::<ZLanes<f64>, 4>(blk, s, &x, &mut ytil, &mut y),
                (Variant::Z, 8) => block::<ZLanes<f64>, 8>(blk, s, &x, &mut ytil, &mut y),
                (Variant::Z, 16) => block::<ZLanes<f64>, 16>(blk, s, &x, &mut ytil, &mut y),
                (Variant::M, 4) => block::<MLanes<f64, false>, 4>(blk, s, &x, &mut ytil, &mut y),
                (Variant::M, 8) => block::<MLanes<f64, false>, 8>(blk, s, &x, &mut ytil, &mut y),
                (Variant::M, 16) => block::<MLanes<f64, false>, 16>(blk, s, &x, &mut ytil, &mut y),
                _ => unreachable!(),
            }
        }
        cscv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn partial_last_view_group() {
        // 10 views with W=4 leaves a 2-view group; lanes 2..4 must be
        // padding with -1 map entries, and SpMV must stay exact.
        let (csc, layout, img) = synthetic(10, 12, 4, 4);
        let params = CscvParams::new(4, 4, 2);
        let m = build(&csc, layout, img, params, Variant::Z);
        m.validate_full().unwrap();
        let last_group = m.groups.last().unwrap();
        assert_eq!(last_group.row_range.len(), 2 * 12);
        spmv_single_thread_check(&csc, &m, params);
    }

    #[test]
    fn empty_columns_are_skipped() {
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 8,
        };
        let img = ImageShape { nx: 4, ny: 2 };
        let mut coo: Coo<f64> = Coo::new(32, 8);
        // Only two pixels project.
        for v in 0..4 {
            coo.push(layout.row_index(v, v), 1, 2.0);
            coo.push(layout.row_index(v, v + 2), 6, 1.0);
        }
        let csc = coo.to_csc();
        let params = CscvParams::new(2, 4, 2);
        let m = build(&csc, layout, img, params, Variant::Z);
        m.validate_full().unwrap();
        assert_eq!(m.stats.nnz_orig, 8);
        spmv_single_thread_check(&csc, &m, params);
    }

    #[test]
    fn perfectly_parallel_trajectories_have_zero_ioblr_padding() {
        // All columns exactly parallel to the reference: offset span 1.
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 16,
        };
        let img = ImageShape { nx: 4, ny: 1 };
        let mut coo: Coo<f64> = Coo::new(64, 4);
        for col in 0..4 {
            for v in 0..4 {
                coo.push(layout.row_index(v, 2 * v + col), col, 1.0);
            }
        }
        let csc = coo.to_csc();
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 4), Variant::Z);
        assert_eq!(m.stats.ioblr_padding, 0);
        // Columns share no VxG alignment padding either (offsets 0..3
        // with span 1 each → common range forces padding).
        assert_eq!(m.stats.n_cscve, 4);
        m.validate_full().unwrap();
    }

    #[test]
    fn vxg_one_is_no_alignment_padding() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 1), Variant::Z);
        assert_eq!(m.stats.vxg_padding, 0, "S_VxG=1 never aligns columns");
        m.validate_full().unwrap();
    }

    #[test]
    fn try_build_rejects_rows_beyond_i32() {
        // An empty CSC is allocation-cheap even at absurd row counts;
        // the builder must reject it before doing any block work.
        let n_rows = i32::MAX as usize + 1;
        let csc: Csc<f64> = Csc::from_parts(n_rows, 1, vec![0, 0], vec![], vec![]);
        let layout = SinoLayout {
            n_views: n_rows,
            n_bins: 1,
        };
        let img = ImageShape { nx: 1, ny: 1 };
        let err = try_build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z).unwrap_err();
        assert_eq!(err, BuildError::RowsExceedIndexRange { n_rows });
        assert!(err.to_string().contains("i32"));
    }

    #[test]
    fn try_build_rejects_cols_beyond_u32() {
        // Dimension-range checks run before shape checks, so a tiny CSC
        // suffices to exercise the column ceiling.
        let n_cols = u32::MAX as usize + 1;
        let csc: Csc<f64> = Csc::from_parts(4, 1, vec![0, 0], vec![], vec![]);
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 1,
        };
        let img = ImageShape { nx: n_cols, ny: 1 };
        let err = try_build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z).unwrap_err();
        assert_eq!(err, BuildError::ColsExceedIndexRange { n_cols });
    }

    #[test]
    fn try_build_rejects_shape_mismatch_and_vxg_bound() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let bad_layout = SinoLayout {
            n_views: layout.n_views + 1,
            n_bins: layout.n_bins,
        };
        let err = try_build(&csc, bad_layout, img, CscvParams::new(4, 4, 2), Variant::Z);
        assert!(matches!(err, Err(BuildError::ShapeMismatch { .. })));
        let err = try_build(&csc, layout, img, CscvParams::new(4, 4, 64), Variant::Z).unwrap_err();
        assert_eq!(
            err,
            BuildError::VxgAboveKernelBound {
                s_vxg: 64,
                max: crate::kernels::MAX_VXG
            }
        );
    }

    #[test]
    #[should_panic(expected = "CSCV build")]
    fn build_panics_on_rejected_input() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let _ = build(&csc, layout, img, CscvParams::new(4, 4, 64), Variant::Z);
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let p = CscvParams::new(2, 4, 2);
        let a = build(&csc, layout, img, p, Variant::M);
        let b = try_build(&csc, layout, img, p, Variant::M).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.blocks.len(), b.blocks.len());
    }

    /// Everything a build produces. `Debug` prints each float in its
    /// shortest round-trip form, so equal strings mean equal bits.
    fn bits<T: Scalar>(m: &CscvMatrix<T>) -> String {
        format!("{m:?}")
    }

    /// Analytic curves of a CT geometry, from the generator's min-bin
    /// curve. (`cscv_ct`'s `GeometricCurves` implements the trait of the
    /// non-test build of this crate, so unit tests cannot pass it.)
    struct Geometric<'a>(&'a cscv_ct::CtGeometry);

    impl CurveProvider for Geometric<'_> {
        fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve> {
            let bins = cscv_ct::system::SystemMatrix::min_bin_curve(self.0, ref_col, views.clone());
            Some(RefCurve::from_bins(bins))
        }
    }

    #[test]
    fn builds_are_bitwise_equal_for_every_part_count() {
        let ct = cscv_ct::CtGeometry::standard(16, 24, 10, 3.0, 18.0);
        let ct_csc = cscv_ct::system::SystemMatrix::assemble_csc::<f32>(&ct);
        let ct_layout = SinoLayout {
            n_views: 10,
            n_bins: 24,
        };
        let ct_img = ImageShape { nx: 16, ny: 16 };
        let data = DataDrivenCurves {
            csc: &ct_csc,
            layout: ct_layout,
        };
        let geo = Geometric(&ct);
        let (syn, syn_layout, syn_img) = synthetic(10, 14, 5, 4);
        let syn_data = DataDrivenCurves {
            csc: &syn,
            layout: syn_layout,
        };
        // Every part count up to one block per part, so every part
        // boundary inside a tile seeds its cursors mid-column.
        let n_blocks = |layout: SinoLayout, img: ImageShape, params: CscvParams| {
            tiles(&img, params.s_imgb).len() * view_groups(layout.n_views, params.s_vvec).len()
        };
        for variant in [Variant::Z, Variant::M] {
            for params in [CscvParams::new(4, 4, 2), CscvParams::new(3, 8, 3)] {
                let ct_runs: [&dyn CurveProvider; 2] = [&data, &geo];
                for curves in ct_runs {
                    let one =
                        build_in_parts(&ct_csc, ct_layout, ct_img, params, variant, curves, 1)
                            .unwrap();
                    one.validate_full().unwrap();
                    for parts in 2..=n_blocks(ct_layout, ct_img, params) {
                        let m = build_in_parts(
                            &ct_csc, ct_layout, ct_img, params, variant, curves, parts,
                        )
                        .unwrap();
                        assert!(
                            bits(&m) == bits(&one),
                            "{variant} {params:?}, {parts} parts"
                        );
                    }
                }
                let one = build_in_parts(&syn, syn_layout, syn_img, params, variant, &syn_data, 1)
                    .unwrap();
                for parts in 2..=n_blocks(syn_layout, syn_img, params) {
                    let m = build_in_parts(
                        &syn, syn_layout, syn_img, params, variant, &syn_data, parts,
                    )
                    .unwrap();
                    assert!(bits(&m) == bits(&one), "synthetic {variant}, {parts} parts");
                }
                let public = try_build(&syn, syn_layout, syn_img, params, variant).unwrap();
                assert!(bits(&public) == bits(&one));
            }
        }
    }

    /// Data-driven curves, except that a few (group, tile) blocks get a
    /// curve whose odd views jump by `70_000 + 100·tile` bins: their
    /// columns span more offsets than a VxG's u16 count holds.
    struct Jumping<'a> {
        data: DataDrivenCurves<'a, f64>,
        bad: &'a [(usize, usize)],
    }

    impl CurveProvider for Jumping<'_> {
        fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve> {
            // One-pixel tiles and 4-view groups.
            let (group, tile) = (views.start / 4, ref_col);
            if !self.bad.contains(&(group, tile)) {
                return self.data.curve(ref_col, views);
            }
            let jump = 70_000 + 100 * tile as i64;
            Some(RefCurve::from_bins(
                (0..views.len())
                    .map(|v| if v % 2 == 1 { -jump } else { 0 })
                    .collect(),
            ))
        }
    }

    #[test]
    fn the_first_error_in_group_tile_order_wins_for_every_part_count() {
        // 16 one-pixel tiles × 2 view groups = 32 blocks, built tile-major
        // (block 2·tile + group). The first set's bad blocks all sit in
        // group 1 (blocks 25, 5 and 15); in the second, tile-major order
        // meets (group 1, tile 1) at block 3 before (group 0, tile 2) at
        // block 4, but (group 0, tile 2) comes first in (group, tile)
        // order. Tile 2's error must win either way.
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let params = CscvParams::new(1, 4, 1);
        let bad_sets: [&[(usize, usize)]; 2] = [&[(1, 12), (1, 2), (1, 7)], &[(1, 1), (0, 2)]];
        for bad in bad_sets {
            let curves = Jumping {
                data: DataDrivenCurves { csc: &csc, layout },
                bad,
            };
            let first =
                build_in_parts(&csc, layout, img, params, Variant::Z, &curves, 1).unwrap_err();
            let BuildError::BlockExceedsIndexRange { what, value } = first.clone() else {
                panic!("unexpected error {first:?}");
            };
            assert_eq!(what, "VxG offset count");
            // Tile 2's jump, not another bad tile's.
            assert!((70_150..70_250).contains(&value), "{bad:?}: count {value}");
            for parts in 1..=32 {
                for variant in [Variant::Z, Variant::M] {
                    let err = build_in_parts(&csc, layout, img, params, variant, &curves, parts)
                        .unwrap_err();
                    assert_eq!(err, first, "{bad:?}, {variant}, {parts} parts");
                }
            }
        }
    }

    /// FNV-1a over [`bits`]: one number for everything a build produces.
    fn fingerprint<T: Scalar>(m: &CscvMatrix<T>) -> u64 {
        bits(m).bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn ct_builds_match_their_pinned_fingerprints() {
        // Fingerprints of the group-major builder that preceded the
        // tile-major one: a change to the builder's output fails here
        // even when every part count agrees with every other.
        const PINNED: [(Variant, [usize; 3], u64, u64); 8] = [
            (
                Variant::Z,
                [4, 4, 2],
                0x6e50cec6d9f1376b,
                0x96707de82641cf95,
            ),
            (
                Variant::Z,
                [3, 8, 3],
                0x2a9137cad9c6292d,
                0xb23d9dabbe46e24b,
            ),
            (
                Variant::Z,
                [16, 16, 2],
                0x1f5714f27e25092b,
                0x29c192a78d3c7b4b,
            ),
            (
                Variant::Z,
                [32, 8, 4],
                0x53bb7ba6ba3a74d4,
                0x1594ef674c5afdd4,
            ),
            (
                Variant::M,
                [4, 4, 2],
                0xa95e0ddf5eac2c39,
                0xad3be1c45172bd83,
            ),
            (
                Variant::M,
                [3, 8, 3],
                0x7f7b9b344f8494e7,
                0x9d289e53ad32b387,
            ),
            (
                Variant::M,
                [16, 16, 2],
                0x5e540848334bac77,
                0x96457963cd71dddf,
            ),
            (
                Variant::M,
                [32, 8, 4],
                0xa160fda935e31fa6,
                0xb38e5e0cf5dc9fa4,
            ),
        ];
        let ct = cscv_ct::CtGeometry::standard(16, 24, 10, 3.0, 18.0);
        let layout = SinoLayout {
            n_views: 10,
            n_bins: 24,
        };
        let img = ImageShape { nx: 16, ny: 16 };
        let f32_csc = cscv_ct::system::SystemMatrix::assemble_csc::<f32>(&ct);
        let f64_csc = cscv_ct::system::SystemMatrix::assemble_csc::<f64>(&ct);
        for (variant, [s_imgb, s_vvec, s_vxg], want_f32, want_f64) in PINNED {
            let params = CscvParams::new(s_imgb, s_vvec, s_vxg);
            let got_f32 = fingerprint(&try_build(&f32_csc, layout, img, params, variant).unwrap());
            let got_f64 = fingerprint(&try_build(&f64_csc, layout, img, params, variant).unwrap());
            assert_eq!(
                got_f32, want_f32,
                "f32 {variant} {params:?}: {got_f32:#018x}"
            );
            assert_eq!(
                got_f64, want_f64,
                "f64 {variant} {params:?}: {got_f64:#018x}"
            );
        }
    }

    #[test]
    fn group_nnz_sums_to_total() {
        let (csc, layout, img) = synthetic(12, 14, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z);
        let total: usize = m.groups.iter().map(|g| g.nnz).sum();
        assert_eq!(total, csc.nnz());
    }
}
