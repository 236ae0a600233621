//! The fully vectorized CSCV SpMV block kernels (paper Alg. 3).
//!
//! Per block: zero the reordered accumulator `ỹ`, stream the VxGs — for
//! every curve offset, load `W` accumulator lanes once, apply `S_VxG`
//! FMA lane blocks, store once — then scatter-add `ỹ` into `y` through
//! the block's map. No gathers or scatters appear inside the loops; the
//! lane bodies are plain `[T; W]` arithmetic the compiler vectorizes.
//!
//! There is one forward and one transpose kernel. Both are generic over
//! the lane width `W`, the batch width `K` and the [`LaneSource`] that
//! replays the block's value stream: CSCV-Z reads lane blocks straight
//! from it ([`ZLanes`]), CSCV-M decompresses each one first ([`MLanes`],
//! hardware `vexpand` or `soft-vexpand`, chosen once per matrix).
//!
//! The batch dimension `K` turns the accumulator into a `K`×`W` tile, one
//! `W`-lane row per right-hand side; every lane block (and, for CSCV-M,
//! every expansion) is produced once and reused `K` times. The axis that
//! vectorizes is `W`, never `K`: each tile row is whole vector FMAs
//! against a broadcast `x` scalar, and the tile stays in registers for
//! all `S_VxG` members of a curve offset. Vectorized along `K`, which
//! LLVM does when `K·size_of::<T>()` is exactly one vector unless
//! [`fma_tile`] keeps `K` innermost, every tile column becomes a strided
//! gather and scatter on a stack copy. The transpose mirrors the loop
//! order: member-outer, one tile per VxG member held in registers across
//! all its curve offsets. In both directions the executor caps `K` so
//! the tile fits in registers ([`MAX_TILE_BYTES`]). The batched ỹ is
//! interleaved by lane block: slot `at` of the single-RHS layout becomes
//! base `at·K`, with RHS `k`'s `W` lanes at `at·K + k·W`, so the `K`
//! accumulator tiles of one curve offset are contiguous. At `K = 1` this
//! is the single-RHS layout and algorithm, op for op.
//!
//! RHS vectors are packed column-major: RHS `k` occupies
//! `x[k·n_cols .. (k+1)·n_cols]` and `y[k·n_rows .. (k+1)·n_rows]`.

use crate::format::Block;
use cscv_simd::expand::expand_soft;
use cscv_simd::lanes::{fma_tile, fma_tile_rows, hsum, load_tile, store_tile};
use cscv_simd::{MaskExpand, Scalar};

/// Upper bound on `S_VxG` (x-value gather buffer size).
pub const MAX_VXG: usize = 32;

/// A block's value stream, replayed one `W`-lane block at a time in
/// storage order (curve offset major, VxG member minor).
pub trait LaneSource<'a, T: Scalar, const W: usize> {
    fn open(blk: &'a Block<T>) -> Self;
    /// Values consumed so far: the `val_ptr` of the next VxG.
    fn pos(&self) -> usize;
    /// The next lane block, with padding lanes zero.
    fn next(&mut self) -> [T; W];

    /// The next `n` lane blocks as one slice, readable by index. The
    /// default decompresses them into `scratch` (at least `n` long).
    #[inline(always)]
    fn take<'s>(&mut self, n: usize, scratch: &'s mut [[T; W]]) -> &'s [[T; W]]
    where
        'a: 's,
    {
        let out = &mut scratch[..n];
        for lanes in out.iter_mut() {
            *lanes = self.next();
        }
        out
    }
}

/// CSCV-Z lane source: padding zeros are stored, so each lane block is
/// `W` consecutive values.
pub struct ZLanes<'a, T> {
    vals: &'a [T],
    p: usize,
}

impl<'a, T: Scalar, const W: usize> LaneSource<'a, T, W> for ZLanes<'a, T> {
    #[inline(always)]
    fn open(blk: &'a Block<T>) -> Self {
        ZLanes {
            vals: &blk.vals,
            p: 0,
        }
    }

    #[inline(always)]
    fn pos(&self) -> usize {
        self.p
    }

    #[inline(always)]
    fn next(&mut self) -> [T; W] {
        debug_assert!(self.p + W <= self.vals.len());
        // SAFETY: a CSCV-Z stream is whole lane blocks, one per
        // (curve offset, member) pair the kernels visit (CSCV-VALPTR);
        // the debug assert validates in tests.
        let lanes = unsafe { *(self.vals.as_ptr().add(self.p) as *const [T; W]) };
        self.p += W;
        lanes
    }

    /// The stream itself: no copy, `scratch` unused.
    #[inline(always)]
    fn take<'s>(&mut self, n: usize, _scratch: &'s mut [[T; W]]) -> &'s [[T; W]]
    where
        'a: 's,
    {
        let (lane_blocks, _) = self.vals[self.p..self.p + n * W].as_chunks::<W>();
        self.p += n * W;
        lane_blocks
    }
}

/// CSCV-M lane source: padding zeros removed; each lane block is one
/// occupancy mask plus its `popcount` values, re-inflated by mask
/// expansion. `HW` selects the hardware `vexpand` path (the executor
/// verified availability when it chose it).
pub struct MLanes<'a, T, const HW: bool> {
    vals: &'a [T],
    masks: &'a [u8],
    p: usize,
    mi: usize,
}

impl<'a, T: MaskExpand, const W: usize, const HW: bool> LaneSource<'a, T, W> for MLanes<'a, T, HW> {
    #[inline(always)]
    fn open(blk: &'a Block<T>) -> Self {
        MLanes {
            vals: &blk.vals,
            masks: &blk.masks,
            p: 0,
            mi: 0,
        }
    }

    #[inline(always)]
    fn pos(&self) -> usize {
        self.p
    }

    #[inline(always)]
    fn next(&mut self) -> [T; W] {
        let mask = read_mask::<W>(self.masks, self.mi);
        self.mi += W.div_ceil(8);
        let lanes = if HW {
            debug_assert!(self.vals.len() >= self.p + mask.count_ones() as usize);
            // SAFETY: caller verified hardware availability; the
            // stream holds popcount(mask) values at p by build.
            unsafe { T::expand_hw::<W>(mask, self.vals.as_ptr().add(self.p)) }
        } else {
            expand_soft::<T, W>(mask, &self.vals[self.p..])
        };
        self.p += mask.count_ones() as usize;
        lanes
    }
}

/// Read one occupancy mask (1 byte for `W ≤ 8`, 2 bytes LE for `W = 16`).
#[inline(always)]
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
fn read_mask<const W: usize>(masks: &[u8], mi: usize) -> u32 {
    if W > 8 {
        // Two-byte masks straddle the stream tail when the last lane
        // block's mask is read: `mi + 1` must still be in bounds. The
        // builder sizes the stream as n_lane_blocks · ceil(W/8) bytes,
        // so this only fires on a corrupted or truncated stream.
        debug_assert!(
            mi + 1 < masks.len(),
            "mask stream truncated: 2-byte mask at byte {mi} needs {} bytes, stream has {}",
            mi + 2,
            masks.len()
        );
        masks[mi] as u32 | ((masks[mi + 1] as u32) << 8)
    } else {
        debug_assert!(
            mi < masks.len(),
            "mask stream truncated: mask at byte {mi}, stream has {}",
            masks.len()
        );
        masks[mi] as u32
    }
}

/// Gather the `K` `x`-scalars of one member column into a tile row.
#[inline(always)]
fn gather_xs<T: Scalar, const K: usize>(x: &[T], n_cols: usize, c: usize) -> [T; K] {
    std::array::from_fn(|k| x[k * n_cols + c])
}

/// Forward block kernel: `ỹ_k = x_k ⊗ block` for `K` right-hand sides
/// in one pass over the value stream. `x` holds `K` column-major RHS
/// vectors of length `n_cols`; `ytil` must hold at least
/// `K · blk.ytil_len()` elements (interleaved layout) and is zeroed here.
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
pub fn forward_block<'a, T, S, const W: usize, const K: usize>(
    blk: &'a Block<T>,
    s_vxg: usize,
    x: &[T],
    n_cols: usize,
    ytil: &mut [T],
) where
    T: Scalar,
    S: LaneSource<'a, T, W>,
{
    let ytil = &mut ytil[..blk.ytil_len() * K];
    ytil.fill(T::ZERO);
    let mut lanes = S::open(blk);
    let mut xs = [[T::ZERO; K]; MAX_VXG];
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(lanes.pos(), blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        for (s, &c) in cols.iter().enumerate() {
            xs[s] = gather_xs::<T, K>(x, n_cols, c as usize);
        }
        for ci in 0..count {
            let at = (q + ci * W) * K;
            let mut accs: [[T; W]; K] = load_tile(ytil, at);
            for xk in &xs[..s_vxg] {
                fma_tile(&mut accs, xk, &lanes.next());
            }
            store_tile(ytil, at, &accs);
        }
    }
    debug_assert_eq!(lanes.pos(), blk.vals.len());
}

/// Largest register tile (`K·W` lanes, or `G` member tiles of one
/// transpose pass) a kernel may hold: 16 of the 32 256-bit vector
/// registers of an AVX-512 core, which leaves room for the lane block and
/// the `x` or `ỹ` operands. Past it the tile spills (OSKI's rule: a
/// register block pays only while it stays in registers).
pub const MAX_TILE_BYTES: usize = 512;

/// Transpose block kernel: `x_k[cols] += blockᵀ · ỹ_k` for `K`
/// right-hand sides in one value-stream pass (the paper's future-work
/// `x = Aᵀy` back-projection, here implemented). `ytil` must hold the
/// gathered batch (see [`gather`]).
///
/// The mirror image of [`forward_block`]: member-outer. Each member of
/// a VxG gets one `K`×`W` accumulator tile, held in registers across all
/// the VxG's curve offsets, which folds lane block `ci·S_VxG + s` against
/// the `ỹ` tile of offset `ci` (re-read from L1 per pass). A pass takes
/// as many consecutive members as `MAX_TILE_BYTES` holds tiles, so at
/// small `K` one pass covers the VxG and reads its lane blocks in
/// storage order. Passes read lane blocks by index: CSCV-Z in place,
/// CSCV-M from `scratch`, into which each VxG is expanded once (at least
/// `count·S_VxG` lane blocks; CSCV-Z ignores it). The sink receives each
/// member's `K` horizontal sums.
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
pub fn transpose_block<'a, T, S, const W: usize, const K: usize>(
    blk: &'a Block<T>,
    s_vxg: usize,
    ytil: &[T],
    scratch: &mut [[T; W]],
    sink: &mut impl FnMut(usize, &[T; K]),
) where
    T: Scalar,
    S: LaneSource<'a, T, W>,
{
    let group = MAX_TILE_BYTES / (K * W * T::BYTES);
    let mut lanes = S::open(blk);
    let mut tiles = [[[T::ZERO; W]; K]; MAX_VXG];
    let tiles = &mut tiles[..s_vxg];
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(lanes.pos(), blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        let lane_blocks = lanes.take(count * s_vxg, scratch);
        let yts = &ytil[q * K..(q + count * W) * K];
        let mut s = 0;
        while s < s_vxg {
            let (left, out) = (s_vxg - s, &mut tiles[s..]);
            s += if group >= 4 && left >= 4 {
                member_tiles::<T, W, K, 4>(lane_blocks, s_vxg, s, yts, out)
            } else if group >= 2 && left >= 2 {
                member_tiles::<T, W, K, 2>(lane_blocks, s_vxg, s, yts, out)
            } else {
                member_tiles::<T, W, K, 1>(lane_blocks, s_vxg, s, yts, out)
            };
        }
        for (tile, &c) in tiles.iter().zip(cols) {
            // Padded members repeat a real column with all-zero values,
            // so the unconditional add is safe.
            let sums: [T; K] = std::array::from_fn(|k| hsum(&tile[k]));
            sink(c as usize, &sums);
        }
    }
    debug_assert_eq!(lanes.pos(), blk.vals.len());
}

/// One transpose pass over a VxG's lane blocks for members
/// `first..first + G`: their `G` accumulator tiles stay in registers
/// across every curve offset and land in `out[..G]`. Returns `G`.
///
/// Two codegen facts shape it. It stores whole tiles and leaves the
/// horizontal sums to the caller: an `hsum` straight off the live
/// accumulators made LLVM split each tile into 2-lane pieces to match
/// the reduction tree (f32, `W = 16`, `K = 1`). And it is out of line:
/// inlined into [`transpose_block`], LLVM regrouped the `G` tiles into
/// mixed zmm, ymm and scalar FMAs (f64, `W = 16`, `K = 1`); on its own
/// every tile row is whole vector FMAs. The call costs once per pass,
/// not per curve offset.
#[inline(never)]
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
fn member_tiles<T: Scalar, const W: usize, const K: usize, const G: usize>(
    lane_blocks: &[[T; W]],
    s_vxg: usize,
    first: usize,
    yts: &[T],
    out: &mut [[[T; W]; K]],
) -> usize {
    let mut accs = [[[T::ZERO; W]; K]; G];
    for (ci, yt) in yts.chunks_exact(K * W).enumerate() {
        let yt: [[T; W]; K] = load_tile(yt, 0);
        let members = &lane_blocks[ci * s_vxg + first..][..G];
        for (acc, v) in accs.iter_mut().zip(members) {
            fma_tile_rows(acc, v, &yt);
        }
    }
    out[..G].copy_from_slice(&accs);
    G
}

/// Scatter-add a batched `ỹ` into `K` output segments (paper Alg. 3
/// line 11, the inverse mapping `ι_k⁻¹`): valid slot `s` of RHS `k`
/// lands in `dst[k][map[s] − row_offset]`.
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
pub fn scatter_add<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    ytil: &[T],
    dst: &mut [&mut [T]; K],
    row_offset: usize,
) {
    for (lb, rows) in blk.map.chunks(W).enumerate() {
        for (l, &row) in rows.iter().enumerate() {
            if row >= 0 {
                let at = row as usize - row_offset;
                let base = lb * W * K + l;
                for (k, seg) in dst.iter_mut().enumerate() {
                    seg[at] += ytil[base + k * W];
                }
            }
        }
    }
}

/// Gather the block's batched `ỹ` view of `K` column-major `y` segments
/// of `n_rows` each (forward mapping `ι_k`; invalid slots read as zero).
/// The transpose kernel's prologue.
// Checked indexing is the bounds guard here — block tables are validated at construction (CSCV-VXG-BOUNDS), so a panic is a builder bug, never input-dependent.
pub fn gather<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    y: &[T],
    n_rows: usize,
    ytil: &mut [T],
) {
    let ytil = &mut ytil[..blk.ytil_len() * K];
    for (lb, rows) in blk.map.chunks(W).enumerate() {
        for (l, &row) in rows.iter().enumerate() {
            let base = lb * W * K + l;
            for k in 0..K {
                ytil[base + k * W] = if row >= 0 {
                    y[k * n_rows + row as usize]
                } else {
                    T::ZERO
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built miniature block: W = 4, S_VxG = 2, one VxG covering two
    /// offsets, columns 3 and 5.
    fn tiny_block_z() -> Block<f64> {
        // ỹ has 2 offsets × 4 lanes = 8 slots mapping to rows 0..8.
        Block {
            group: 0,
            tile: 0,
            map: (0..8).collect(),
            vxg_q: vec![0],
            vxg_count: vec![2],
            cols: vec![3, 5],
            val_ptr: vec![0, 16],
            // offset 0: col3 lanes [1,2,3,4], col5 lanes [5,6,7,8]
            // offset 1: col3 lanes [0,0,1,0], col5 lanes [2,0,0,0]
            vals: vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, //
                0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0,
            ],
            masks: vec![],
            nnz: 10,
            lane_slots: 16,
        }
    }

    fn tiny_block_m() -> Block<f64> {
        // Same matrix as tiny_block_z with padding stripped.
        Block {
            group: 0,
            tile: 0,
            map: (0..8).collect(),
            vxg_q: vec![0],
            vxg_count: vec![2],
            cols: vec![3, 5],
            val_ptr: vec![0, 10],
            vals: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0, 2.0],
            // masks: full, full, 0b0100, 0b0001
            masks: vec![0b1111, 0b1111, 0b0100, 0b0001],
            nnz: 10,
            lane_slots: 16,
        }
    }

    /// Dense image of the tiny blocks: (column, its 8 rows).
    const DENSE_COLS: [(usize, [f64; 8]); 2] = [
        (3, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 1.0, 0.0]),
        (5, [5.0, 6.0, 7.0, 8.0, 2.0, 0.0, 0.0, 0.0]),
    ];

    /// Slot `s` of RHS `k` in the interleaved `W = 4` ỹ layout.
    fn slot<const K: usize>(s: usize, k: usize) -> usize {
        (s / 4) * 4 * K + k * 4 + s % 4
    }

    /// The forward kernel at batch width `K` over every lane source
    /// this machine can run (`z` and its padding-stripped twin `m`),
    /// de-interleaved per RHS.
    fn forward_sources<const K: usize>(
        z: &Block<f64>,
        m: &Block<f64>,
        s_vxg: usize,
        x: &[f64],
        n_cols: usize,
    ) -> Vec<Vec<Vec<f64>>> {
        let n = z.ytil_len();
        let mut runs = vec![vec![f64::NAN; n * K]; 2];
        forward_block::<f64, ZLanes<f64>, 4, K>(z, s_vxg, x, n_cols, &mut runs[0]);
        forward_block::<f64, MLanes<f64, false>, 4, K>(m, s_vxg, x, n_cols, &mut runs[1]);
        if <f64 as MaskExpand>::hw_available::<4>() {
            let mut hw = vec![f64::NAN; n * K];
            forward_block::<f64, MLanes<f64, true>, 4, K>(m, s_vxg, x, n_cols, &mut hw);
            runs.push(hw);
        }
        runs.iter()
            .map(|ytil| {
                (0..K)
                    .map(|k| (0..n).map(|s| ytil[slot::<K>(s, k)]).collect())
                    .collect()
            })
            .collect()
    }

    fn forward_all_sources<const K: usize>(x: &[f64], n_cols: usize) -> Vec<Vec<Vec<f64>>> {
        forward_sources::<K>(&tiny_block_z(), &tiny_block_m(), 2, x, n_cols)
    }

    #[test]
    fn z_kernel_computes_expected() {
        let blk = tiny_block_z();
        let mut x = vec![0.0f64; 8];
        x[3] = 2.0;
        x[5] = 10.0;
        let mut ytil = vec![f64::NAN; 8];
        forward_block::<f64, ZLanes<f64>, 4, 1>(&blk, 2, &x, 8, &mut ytil);
        // offset 0: 2*[1,2,3,4] + 10*[5,6,7,8] = [52,64,76,88]
        assert_eq!(&ytil[..4], &[52.0, 64.0, 76.0, 88.0]);
        // offset 1: 2*[0,0,1,0] + 10*[2,0,0,0] = [20,0,2,0]
        assert_eq!(&ytil[4..], &[20.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn m_kernel_matches_z_kernel() {
        let mut x = vec![0.0f64; 8];
        x[3] = -1.5;
        x[5] = 0.25;
        let runs = forward_all_sources::<1>(&x, 8);
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    }

    /// The batched forward kernel, every lane source, against the dense
    /// image and against `K` independent `K = 1` runs. Dyadic inputs keep
    /// the dense reference exact, so all comparisons are bitwise.
    #[test]
    fn multi_kernels_match_k_independent_singles() {
        const K: usize = 3;
        let n_cols = 8;
        let x: Vec<f64> = (0..K * n_cols)
            .map(|i| (i % 7) as f64 * 0.5 - 1.0)
            .collect();
        let batched = forward_all_sources::<K>(&x, n_cols);
        for k in 0..K {
            let xk = &x[k * n_cols..(k + 1) * n_cols];
            let dense: Vec<f64> = (0..8)
                .map(|r| DENSE_COLS.iter().map(|(c, col)| col[r] * xk[*c]).sum())
                .collect();
            let singles = forward_all_sources::<1>(xk, n_cols);
            for (src, run) in batched.iter().enumerate() {
                assert_eq!(run[k], dense, "source {src} rhs {k} vs dense");
                assert_eq!(run[k], singles[src][0], "source {src} rhs {k} vs K = 1");
            }
        }
    }

    #[test]
    fn scatter_respects_map_and_offset() {
        let mut blk = tiny_block_z();
        blk.map = vec![4, -1, 5, -1, 6, -1, 7, -1];
        let ytil: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let mut dst = vec![10.0; 4]; // rows 4..8
        scatter_add::<f64, 4, 1>(&blk, &ytil, &mut [&mut dst[..]], 4);
        assert_eq!(dst, vec![11.0, 13.0, 15.0, 17.0]);
    }

    /// The transpose kernel at batch width `K` over every lane source
    /// (`z` and its padding-stripped twin `m`), as `K` column-major `x`
    /// vectors of `n_cols`.
    fn transpose_sources<const K: usize>(
        z: &Block<f64>,
        m: &Block<f64>,
        s_vxg: usize,
        y: &[f64],
        n_rows: usize,
        n_cols: usize,
    ) -> Vec<Vec<f64>> {
        let mut ytil = vec![f64::NAN; z.ytil_len() * K];
        gather::<f64, 4, K>(z, y, n_rows, &mut ytil);
        fn add_into<const K: usize>(
            x: &mut [f64],
            n_cols: usize,
        ) -> impl FnMut(usize, &[f64; K]) + '_ {
            move |c, sums| {
                for (k, v) in sums.iter().enumerate() {
                    x[k * n_cols + c] += v;
                }
            }
        }
        // The executor's bound: a VxG spans at most the block's ỹ.
        let mut scratch = vec![[f64::NAN; 4]; s_vxg * z.ytil_len() / 4];
        let mut runs = vec![vec![0.0; n_cols * K]; 2];
        let (rz, rm) = runs.split_at_mut(1);
        transpose_block::<f64, ZLanes<f64>, 4, K>(
            z,
            s_vxg,
            &ytil,
            &mut scratch,
            &mut add_into(&mut rz[0], n_cols),
        );
        transpose_block::<f64, MLanes<f64, false>, 4, K>(
            m,
            s_vxg,
            &ytil,
            &mut scratch,
            &mut add_into(&mut rm[0], n_cols),
        );
        if <f64 as MaskExpand>::hw_available::<4>() {
            let mut hw = vec![0.0; n_cols * K];
            transpose_block::<f64, MLanes<f64, true>, 4, K>(
                m,
                s_vxg,
                &ytil,
                &mut scratch,
                &mut add_into(&mut hw, n_cols),
            );
            runs.push(hw);
        }
        runs
    }

    fn transpose_all_sources<const K: usize>(y: &[f64], n_rows: usize) -> Vec<Vec<f64>> {
        transpose_sources::<K>(&tiny_block_z(), &tiny_block_m(), 2, y, n_rows, 8)
    }

    #[test]
    fn transpose_kernels_match_explicit_transpose() {
        // Forward: y = B x over the tiny block; the transpose must match
        // the explicit element-wise transpose of its dense image.
        let y: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        let mut x_ref = vec![0.0; 8];
        for (c, col) in DENSE_COLS {
            x_ref[c] = col.iter().zip(&y).map(|(a, b)| a * b).sum();
        }
        for (src, x) in transpose_all_sources::<1>(&y, 8).iter().enumerate() {
            assert_eq!(x, &x_ref, "source {src}");
        }
    }

    #[test]
    fn gather_zeroes_invalid_slots() {
        let mut blk = tiny_block_z();
        blk.map = vec![2, -1, 0, -1, 1, -1, 3, -1];
        let y = vec![10.0, 20.0, 30.0, 40.0];
        let mut ytil = vec![f64::NAN; 8];
        gather::<f64, 4, 1>(&blk, &y, 4, &mut ytil);
        assert_eq!(ytil, vec![30.0, 0.0, 10.0, 0.0, 20.0, 0.0, 40.0, 0.0]);
    }

    #[test]
    fn mask_reading_two_bytes() {
        let masks = [0xAB, 0x02, 0xFF];
        assert_eq!(read_mask::<16>(&masks, 0), 0x02AB);
        assert_eq!(read_mask::<8>(&masks, 0), 0xAB);
        assert_eq!(read_mask::<4>(&masks, 1), 0x02);
    }

    #[test]
    fn mask_reading_w16_at_stream_tail() {
        // A W=16 stream of exactly two masks: reading the LAST mask
        // touches bytes 2 and 3 — the final bytes of the stream. This
        // is the boundary the read_mask debug assert guards.
        let masks = [0x01, 0x80, 0xFE, 0x7F];
        assert_eq!(read_mask::<16>(&masks, 2), 0x7FFE);
        // Full kernel pass whose final lane block mask ends the stream:
        // W=16, one VxG with one member column and one curve offset.
        let blk = Block::<f64> {
            group: 0,
            tile: 0,
            map: (0..16).collect(),
            vxg_q: vec![0],
            vxg_count: vec![1],
            cols: vec![0],
            val_ptr: vec![0, 2],
            vals: vec![3.0, 7.0],    // lanes 0 and 15 occupied
            masks: vec![0x01, 0x80], // 0x8001 LE — exactly 2 bytes
            nnz: 2,
            lane_slots: 16,
        };
        let x = vec![2.0f64];
        let mut ytil = vec![f64::NAN; 16];
        forward_block::<f64, MLanes<f64, false>, 16, 1>(&blk, 1, &x, 1, &mut ytil);
        assert_eq!(ytil[0], 6.0);
        assert_eq!(ytil[15], 14.0);
        assert_eq!(&ytil[1..15], &[0.0; 14]);
    }

    #[test]
    fn scatter_and_gather_multi_roundtrip() {
        const K: usize = 2;
        let mut blk = tiny_block_z();
        blk.map = vec![4, -1, 5, -1, 6, -1, 7, -1];
        // Interleaved ỹ: lane block 0 → slots 0..4, lane block 1 → 4..8.
        let mut ytil = vec![0.0f64; 8 * K];
        for s in 0..8 {
            for k in 0..K {
                ytil[slot::<K>(s, k)] = (s * 10 + k) as f64;
            }
        }
        // Scatter into K segments of rows 4..8 (offset 4).
        let mut dst = vec![100.0f64; 4 * K];
        let (d0, d1) = dst.split_at_mut(4);
        scatter_add::<f64, 4, K>(&blk, &ytil, &mut [d0, d1], 4);
        assert_eq!(
            dst,
            vec![
                100.0, 120.0, 140.0, 160.0, // rhs 0: slots 0,2,4,6
                101.0, 121.0, 141.0, 161.0, // rhs 1
            ]
        );

        // Gather back from a K-segment y (n_rows = 8).
        let mut y = vec![0.0f64; 8 * K];
        y[4..8].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        y[12..16].copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        let mut gt = vec![f64::NAN; 8 * K];
        gather::<f64, 4, K>(&blk, &y, 8, &mut gt);
        for s in 0..8 {
            for k in 0..K {
                let expect = if s % 2 == 0 {
                    (k * 4 + s / 2 + 1) as f64
                } else {
                    0.0
                };
                assert_eq!(gt[slot::<K>(s, k)], expect, "slot {s} rhs {k}");
            }
        }
    }

    /// Three VxGs of counts 3, 1 and 2 over four curve offsets: W = 4,
    /// S_VxG = 2 (below `MAX_VXG`), 6 columns, rows 0..16. The last
    /// VxG's second member is padding (its column repeated, values zero).
    const MULTI_S_VXG: usize = 2;
    const MULTI_VXGS: [(u32, u16, [u32; 2]); 3] = [(0, 3, [1, 4]), (4, 1, [0, 2]), (8, 2, [5, 5])];

    fn multi_vxg_block_z() -> Block<f64> {
        let mut vals = Vec::new();
        let mut val_ptr = vec![0];
        for (i, &(_, count, _)) in MULTI_VXGS.iter().enumerate() {
            for ci in 0..count as usize {
                for s in 0..MULTI_S_VXG {
                    for l in 0..4 {
                        let padding = i == 2 && s == 1;
                        let v = ((i * 7 + ci * 5 + s * 3 + l) % 6) as f64 * 0.5;
                        vals.push(if padding { 0.0 } else { v });
                    }
                }
            }
            val_ptr.push(vals.len() as u32);
        }
        Block {
            group: 0,
            tile: 0,
            map: (0..16).collect(),
            vxg_q: MULTI_VXGS.iter().map(|v| v.0).collect(),
            vxg_count: MULTI_VXGS.iter().map(|v| v.1).collect(),
            cols: MULTI_VXGS.iter().flat_map(|v| v.2).collect(),
            val_ptr,
            nnz: vals.iter().filter(|v| **v != 0.0).count(),
            lane_slots: vals.len(),
            vals,
            masks: vec![],
        }
    }

    /// The CSCV-M form of a `W = 4` CSCV-Z block: padding zeros
    /// stripped, one occupancy mask per lane block.
    fn strip_padding(z: &Block<f64>) -> Block<f64> {
        let nonzeros = |vals: &[f64]| vals.iter().filter(|v| **v != 0.0).count() as u32;
        Block {
            vals: z.vals.iter().copied().filter(|v| *v != 0.0).collect(),
            masks: z
                .vals
                .chunks(4)
                .map(|lb| (0..4).filter(|&l| lb[l] != 0.0).map(|l| 1u8 << l).sum())
                .collect(),
            val_ptr: z
                .val_ptr
                .iter()
                .map(|&p| nonzeros(&z.vals[..p as usize]))
                .collect(),
            ..z.clone()
        }
    }

    /// Dense image `d[row][col]` of a `W = 4` CSCV-Z block.
    fn dense_image(z: &Block<f64>, s_vxg: usize, n_rows: usize, n_cols: usize) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; n_cols]; n_rows];
        let mut lane_blocks = z.vals.chunks(4);
        for i in 0..z.n_vxgs() {
            for ci in 0..z.vxg_count[i] as usize {
                for &c in &z.cols[i * s_vxg..(i + 1) * s_vxg] {
                    let lb = lane_blocks.next().unwrap();
                    for (l, v) in lb.iter().enumerate() {
                        let row = z.map[z.vxg_q[i] as usize + ci * 4 + l];
                        if row >= 0 {
                            d[row as usize][c as usize] += v;
                        }
                    }
                }
            }
        }
        d
    }

    /// Both kernels at batch width `K` on the multi-VxG block, every lane
    /// source, against its dense image (dyadic data: exact, so bitwise).
    fn check_multi_vxg_block<const K: usize>() {
        let (n_rows, n_cols) = (16, 6);
        let z = multi_vxg_block_z();
        let m = strip_padding(&z);
        let d = dense_image(&z, MULTI_S_VXG, n_rows, n_cols);
        let x: Vec<f64> = (0..K * n_cols)
            .map(|i| (i % 5) as f64 * 0.5 - 1.0)
            .collect();
        let y: Vec<f64> = (0..K * n_rows)
            .map(|i| (i % 11) as f64 * 0.25 - 1.0)
            .collect();
        let fwd = forward_sources::<K>(&z, &m, MULTI_S_VXG, &x, n_cols);
        let tr = transpose_sources::<K>(&z, &m, MULTI_S_VXG, &y, n_rows, n_cols);
        for k in 0..K {
            let xk = &x[k * n_cols..(k + 1) * n_cols];
            let yk = &y[k * n_rows..(k + 1) * n_rows];
            let ax: Vec<f64> = d
                .iter()
                .map(|row| row.iter().zip(xk).map(|(a, b)| a * b).sum())
                .collect();
            let aty: Vec<f64> = (0..n_cols)
                .map(|c| d.iter().zip(yk).map(|(row, b)| row[c] * b).sum())
                .collect();
            for src in 0..fwd.len() {
                assert_eq!(fwd[src][k], ax, "forward source {src} rhs {k}");
                assert_eq!(
                    &tr[src][k * n_cols..(k + 1) * n_cols],
                    aty.as_slice(),
                    "transpose source {src} rhs {k}"
                );
            }
        }
    }

    /// The transpose kernel reuses one tile array across a block's
    /// VxGs: each member must start from zero, whatever the count of the
    /// VxG before it. `K = 8` is the widest compiled batch chunk.
    #[test]
    fn multi_vxg_block_matches_dense_image() {
        check_multi_vxg_block::<1>();
        check_multi_vxg_block::<3>();
        check_multi_vxg_block::<8>();
    }

    /// The batched transpose kernel, every lane source, against the
    /// dense image and against `K` independent `K = 1` runs (bitwise).
    #[test]
    fn transpose_multi_matches_k_independent_singles() {
        const K: usize = 3;
        let n_rows = 8;
        let y: Vec<f64> = (0..K * n_rows).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let batched = transpose_all_sources::<K>(&y, n_rows);
        for k in 0..K {
            let yk = &y[k * n_rows..(k + 1) * n_rows];
            let mut dense = vec![0.0; 8];
            for (c, col) in DENSE_COLS {
                dense[c] = col.iter().zip(yk).map(|(a, b)| a * b).sum();
            }
            let singles = transpose_all_sources::<1>(yk, n_rows);
            for (src, run) in batched.iter().enumerate() {
                let xk = &run[k * 8..(k + 1) * 8];
                assert_eq!(xk, dense.as_slice(), "source {src} rhs {k} vs dense");
                assert_eq!(xk, singles[src].as_slice(), "source {src} rhs {k} vs K = 1");
            }
        }
    }
}
