//! CSCV SpMV executors (the `SpmvExecutor` face of the format).
//!
//! Each direction has one thread-ownership scheme, at every batch width:
//!
//! * Forward: threads own whole view groups. Group row ranges are
//!   disjoint, so scatters go straight into `y` with no reduction.
//!   Split by per-group nnz into the contiguous ranges whose heaviest
//!   is lightest (`partition::split_by_prefix`). This replaces the
//!   paper's private-`y` copies plus reduction, which at best tied it
//!   in an A/B (EXPERIMENTS.md, E-X1).
//! * Transpose: threads own whole image tiles, whose column sets are
//!   disjoint.
//!
//! Every product — single or batched, forward or transpose — enters
//! through one `(S_VVec, expand path)` dispatch and runs as compiled
//! batch-width chunks of the one forward or transpose block kernel; a
//! single-RHS product is the batch of width 1.

use crate::builder::{try_build, BuildError};
use crate::format::{Block, CscvMatrix, Variant};
use crate::kernels::{
    forward_block, gather, scatter_add, transpose_block, MLanes, ZLanes, MAX_TILE_BYTES,
};
use crate::layout::{ImageShape, SinoLayout};
use crate::params::CscvParams;
use cscv_simd::expand::{select_path, ExpandPath};
use cscv_simd::{MaskExpand, Scalar};
use cscv_sparse::shared::{Scratch, SharedSliceMut};
use cscv_sparse::{partition, Csc, SpmvExecutor, ThreadPool};

/// Tally one block-kernel pass into the trace counters (traced builds
/// only — the `ENABLED` guard makes this whole body dead code
/// otherwise). `k` is the register-tile batch width of the pass: FMA
/// lanes, useful flops and padding lanes scale with `k`, while the
/// matrix stream and (for CSCV-M) the mask expansions are paid once per
/// pass — exactly the amortization the batched path exists to collect.
///
/// Runs inside the pool task, so per-thread counter shards attribute
/// kernel work to the thread that did it.
#[inline(always)]
fn trace_block_pass<T: Scalar>(m: &CscvMatrix<T>, blk: &Block<T>, k: u64) {
    if cscv_trace::ENABLED {
        use cscv_trace::counters::{add, Counter};
        let (issued, expands, blocks_counter) = match m.variant {
            Variant::Z => (blk.vals.len() as u64, 0u64, Counter::BlocksZ),
            Variant::M => {
                let lane_blocks = (blk.masks.len() / m.mask_bytes()) as u64;
                (
                    lane_blocks * m.params.s_vvec as u64,
                    lane_blocks,
                    Counter::BlocksM,
                )
            }
        };
        add(Counter::FmaLanes, issued * k);
        add(Counter::UsefulFlops, 2 * blk.nnz as u64 * k);
        add(Counter::PaddingLanes, (blk.lane_slots - blk.nnz) as u64 * k);
        add(Counter::MaskExpands, expands);
        add(Counter::VxgGroups, blk.n_vxgs() as u64);
        add(Counter::BytesLoaded, blk.matrix_bytes() as u64);
        add(blocks_counter, 1);
    }
}

/// Running sum of per-item nonzeros, each counted as at least 1 — the
/// prefix `partition::split_by_prefix` cuts into thread ranges.
fn nnz_prefix(nnz: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut acc = 0usize;
    std::iter::once(0)
        .chain(nnz.map(|w| {
            acc += w.max(1);
            acc
        }))
        .collect()
}

/// The expand path this machine offers CSCV-M at lane width `s_vvec`.
fn available_path<T: MaskExpand>(s_vvec: usize) -> ExpandPath {
    match s_vvec {
        4 => select_path::<T, 4>(),
        8 => select_path::<T, 8>(),
        16 => select_path::<T, 16>(),
        _ => unreachable!("validated by CscvParams"),
    }
}

/// Direction of a product.
#[derive(Clone, Copy)]
enum Dir {
    /// `Y = A X`.
    Forward,
    /// `X = Aᵀ Y`.
    Transpose,
}

/// A complete executor configuration: everything that varies between two
/// `CscvExec` instances built over the same CSC matrix. This is the unit
/// the static heuristic produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub variant: Variant,
    pub params: CscvParams,
}

impl ExecConfig {
    /// The static heuristic for a variant: the paper's recommended
    /// parameter defaults. The paper's per-dataset search is the
    /// `table3_params` driver over `cscv_bench::sweep`.
    pub fn heuristic(variant: Variant) -> Self {
        let params = match variant {
            Variant::Z => CscvParams::default_z(),
            Variant::M => CscvParams::default_m(),
        };
        ExecConfig { variant, params }
    }
}

/// Prepared CSCV SpMV executor (Z or M per the matrix's variant).
pub struct CscvExec<T: Scalar> {
    m: CscvMatrix<T>,
    path: ExpandPath,
    /// Blocks grouped by image tile (transpose partitioning: one tile's
    /// blocks touch a fixed column set, so tiles are the row-disjoint
    /// axis of `x = Aᵀy`), in tile order.
    tile_blocks: Vec<Vec<u32>>,
    /// Nonzero prefixes the two directions split across threads: over
    /// view groups (forward) and over `tile_blocks` (transpose). Every
    /// item weighs at least 1, so empty ones still spread out.
    group_prefix: Vec<usize>,
    tile_prefix: Vec<usize>,
    ytil_scratch: Scratch<T>,
}

impl<T: Scalar + MaskExpand> CscvExec<T> {
    pub fn new(m: CscvMatrix<T>) -> Self {
        // The unsafe kernels below assume every CSCV invariant
        // (CSCV-PERM, CSCV-VXG-BOUNDS, …); debug builds re-check at
        // executor construction, since matrices may arrive
        // hand-assembled rather than from the builder.
        crate::invariants::assert_valid(&m, "CscvExec::new");
        let path = available_path::<T>(m.params.s_vvec);
        // Group blocks by tile for the transpose kernels.
        let n_tiles = m
            .blocks
            .iter()
            .map(|b| b.tile as usize + 1)
            .max()
            .unwrap_or(0);
        let mut tile_blocks: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
        for (bi, b) in m.blocks.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "CSCV-U32-FIT: the builder rejects more than u32::MAX blocks; the expect documents that invariant at the narrowing site"
            )]
            let bi = u32::try_from(bi).expect("block index fits u32 (CSCV-U32-FIT)");
            tile_blocks[b.tile as usize].push(bi);
        }
        let group_prefix = nnz_prefix(m.groups.iter().map(|g| g.nnz));
        let tile_prefix = nnz_prefix(
            tile_blocks
                .iter()
                .map(|blocks| blocks.iter().map(|&bi| m.blocks[bi as usize].nnz).sum()),
        );
        CscvExec {
            m,
            path,
            tile_blocks,
            group_prefix,
            tile_prefix,
            ytil_scratch: Scratch::new(),
        }
    }

    /// Build the CSCV matrix described by `cfg` and wrap it in an
    /// executor — the one-call construction path the shard workers use.
    pub fn from_csc(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        cfg: ExecConfig,
    ) -> Result<Self, BuildError> {
        let m = try_build(csc, layout, img, cfg.params, cfg.variant)?;
        Ok(Self::new(m))
    }

    /// The configuration this executor was built with.
    pub fn config(&self) -> ExecConfig {
        ExecConfig {
            variant: self.m.variant,
            params: self.m.params,
        }
    }

    /// The underlying format object (stats, params).
    pub fn matrix(&self) -> &CscvMatrix<T> {
        &self.m
    }

    /// Which mask-expansion path CSCV-M kernels use on this machine
    /// (always reported; meaningless for Z).
    pub fn expand_path(&self) -> ExpandPath {
        self.path
    }

    /// Force the expansion path (ablation studies: measure the
    /// `soft-vexpand` cost on hardware that has `vexpand`).
    ///
    /// # Panics
    /// If `Hardware` is requested but unavailable for this lane width.
    pub fn force_expand_path(&mut self, path: ExpandPath) {
        if path == ExpandPath::Hardware {
            assert_eq!(
                available_path::<T>(self.m.params.s_vvec),
                ExpandPath::Hardware,
                "hardware expand unavailable for W={}",
                self.m.params.s_vvec
            );
        }
        self.path = path;
    }

    /// Record one top-level kernel dispatch plus the call's vector
    /// traffic (`M(x)`/`M(y)` terms of the paper's `M_Rit` model; the
    /// `M(A)` term is tallied per executed block by
    /// [`trace_block_pass`]). No-op in untraced builds.
    #[inline(always)]
    fn trace_dispatch(&self, loaded_elems: usize, stored_elems: usize) {
        if cscv_trace::ENABLED {
            use cscv_trace::counters::{add, Counter};
            add(
                match self.m.variant {
                    Variant::Z => Counter::DispatchZ,
                    Variant::M => Counter::DispatchM,
                },
                1,
            );
            add(Counter::BytesLoaded, (loaded_elems * T::BYTES) as u64);
            add(Counter::BytesStored, (stored_elems * T::BYTES) as u64);
        }
    }

    /// Transpose product `x = Aᵀ y` — the paper's stated future work
    /// ("we will implement CSCV on x = Aᵀy in CT backward projection"),
    /// here realized on the same block structure: gather `ỹ` through the
    /// block map, run the transposed VxG kernel, and accumulate per
    /// column. Threads own whole image *tiles* (the column-disjoint
    /// axis), so no reduction is needed. The batch of width 1.
    pub fn spmv_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.run(Dir::Transpose, y, 1, x, pool)
    }

    /// Batched transpose product `X = Aᵀ Y` over `k` column-major
    /// right-hand sides (`y[i·n_rows..]` → `x[i·n_cols..]`): the matrix
    /// stream — and for CSCV-M every mask expansion — is traversed once
    /// per register-tile chunk instead of once per RHS.
    pub fn spmv_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        self.run(Dir::Transpose, y, k, x, pool)
    }

    /// Every product's entry: check the `k` column-major operands, then
    /// the one `(S_VVec, expand path)` → const-generic selection.
    fn run(&self, dir: Dir, src: &[T], k: usize, dst: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        let (src_len, dst_len) = match dir {
            Dir::Forward => (self.m.n_cols, self.m.n_rows),
            Dir::Transpose => (self.m.n_rows, self.m.n_cols),
        };
        assert_eq!(src.len(), k * src_len);
        assert_eq!(dst.len(), k * dst_len);
        self.trace_dispatch(src.len(), dst.len());
        let hw = self.path == ExpandPath::Hardware;
        match (self.m.params.s_vvec, hw) {
            (4, false) => self.run_chunks::<4, false>(dir, src, k, dst, pool),
            (4, true) => self.run_chunks::<4, true>(dir, src, k, dst, pool),
            (8, false) => self.run_chunks::<8, false>(dir, src, k, dst, pool),
            (8, true) => self.run_chunks::<8, true>(dir, src, k, dst, pool),
            (16, false) => self.run_chunks::<16, false>(dir, src, k, dst, pool),
            (16, true) => self.run_chunks::<16, true>(dir, src, k, dst, pool),
            _ => unreachable!("validated by CscvParams"),
        }
    }

    /// Split a `k`-wide batch into compiled register-tile widths and run
    /// each chunk: one matrix-stream pass per chunk.
    fn run_chunks<const W: usize, const HW: bool>(
        &self,
        dir: Dir,
        src: &[T],
        k: usize,
        dst: &mut [T],
        pool: &ThreadPool,
    ) {
        let (src_len, dst_len) = (src.len() / k, dst.len() / k);
        // One rule for both directions: the `K`×`W` register tile must
        // stay in registers (`MAX_TILE_BYTES`).
        let widths: &[usize] = if 8 * W * T::BYTES <= MAX_TILE_BYTES {
            &[8, 4, 2, 1]
        } else {
            &[4, 2, 1]
        };
        let mut done = 0usize;
        for chunk in partition::batch_chunks(k, widths) {
            let s = &src[done * src_len..(done + chunk) * src_len];
            let d = &mut dst[done * dst_len..(done + chunk) * dst_len];
            match (dir, chunk) {
                (Dir::Forward, 8) => self.forward::<W, HW, 8>(s, d, pool),
                (Dir::Forward, 4) => self.forward::<W, HW, 4>(s, d, pool),
                (Dir::Forward, 2) => self.forward::<W, HW, 2>(s, d, pool),
                (Dir::Forward, _) => self.forward::<W, HW, 1>(s, d, pool),
                (Dir::Transpose, 8) => self.transpose::<W, HW, 8>(s, d, pool),
                (Dir::Transpose, 4) => self.transpose::<W, HW, 4>(s, d, pool),
                (Dir::Transpose, 2) => self.transpose::<W, HW, 2>(s, d, pool),
                (Dir::Transpose, _) => self.transpose::<W, HW, 1>(s, d, pool),
            }
            done += chunk;
        }
    }

    /// One compiled-width chunk of the forward product: `K` column-major
    /// RHS in `x`, `K` outputs in `y`; each thread's ỹ scratch holds the
    /// `K` interleaved segments.
    fn forward<const W: usize, const HW: bool, const K: usize>(
        &self,
        x: &[T],
        y: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        let n_rows = self.m.n_rows;
        let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil * K);
        let ranges = partition::split_by_prefix(&self.group_prefix, n);
        let out = SharedSliceMut::new(y);
        let bufs = SharedSliceMut::new(&mut ytil_bufs[..]);
        pool.run(|tid| {
            // SAFETY: slot `tid` only.
            let ytil = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
            for gi in ranges[tid].clone() {
                let info = &self.m.groups[gi];
                let rr = info.row_range.clone();
                let mut dst: [&mut [T]; K] = std::array::from_fn(|kk| {
                    // SAFETY: group row ranges are pairwise
                    // disjoint, so each per-RHS copy of them is too.
                    unsafe { out.slice_mut(kk * n_rows + rr.start..kk * n_rows + rr.end) }
                });
                for seg in dst.iter_mut() {
                    seg.fill(T::ZERO);
                }
                for bi in info.block_range.clone() {
                    self.run_block::<W, HW, K>(bi, x, ytil, &mut dst, rr.start);
                }
            }
        });
    }

    /// One block of the forward product: the kernel with this matrix's
    /// lane source, then the scatter into the `K` output segments (whose
    /// index 0 is global row `row_offset`).
    #[inline(always)]
    fn run_block<const W: usize, const HW: bool, const K: usize>(
        &self,
        bi: usize,
        x: &[T],
        ytil: &mut [T],
        dst: &mut [&mut [T]; K],
        row_offset: usize,
    ) {
        let blk = &self.m.blocks[bi];
        trace_block_pass(&self.m, blk, K as u64);
        let (s_vxg, n_cols) = (self.m.params.s_vxg, self.m.n_cols);
        match self.m.variant {
            Variant::Z => forward_block::<T, ZLanes<T>, W, K>(blk, s_vxg, x, n_cols, ytil),
            Variant::M => forward_block::<T, MLanes<T, HW>, W, K>(blk, s_vxg, x, n_cols, ytil),
        }
        scatter_add::<T, W, K>(blk, ytil, dst, row_offset);
    }

    /// One compiled-width chunk of the transpose product. Threads own
    /// whole image tiles (column-disjoint); the sink lands each member
    /// column's `K` partial sums in the `K` column-major `x` copies.
    /// Each thread's scratch holds its batched ỹ and, for CSCV-M, one
    /// VxG's expanded lane blocks (at most `S_VxG · max_ytil` values: a
    /// VxG spans at most its block's ỹ).
    fn transpose<const W: usize, const HW: bool, const K: usize>(
        &self,
        y: &[T],
        x: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        let (n_cols, n_rows, s_vxg) = (self.m.n_cols, self.m.n_rows, self.m.params.s_vxg);
        let tile_ranges = partition::split_by_prefix(&self.tile_prefix, n);
        let ytil_len = self.m.max_ytil * K;
        let lanes_len = match self.m.variant {
            Variant::Z => 0,
            Variant::M => s_vxg * self.m.max_ytil,
        };
        let mut scratch_bufs = self.ytil_scratch.take(n, ytil_len + lanes_len);
        let out = SharedSliceMut::new(x);
        let bufs = SharedSliceMut::new(&mut scratch_bufs[..]);
        let zero_ranges = partition::even_chunks(out.len(), n);
        pool.run(|tid| {
            // SAFETY: disjoint zero ranges (separate dispatch = barrier).
            // `zero_ranges` has one entry per pool thread
            // and tid < n_threads by the dispatch contract.
            unsafe { out.slice_mut(zero_ranges[tid].clone()) }.fill(T::ZERO);
        });
        // The dispatch above fully completed (ack barrier), so the write
        // dispatch below may repartition `out` by tile instead of chunk.
        out.claims_barrier();
        pool.run(|tid| {
            // SAFETY: slot `tid` only.
            let buf = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
            let (ytil, lanes) = buf.split_at_mut(ytil_len);
            let (lanes, _) = lanes.as_chunks_mut::<W>();
            let mut sink = |c: usize, sums: &[T; K]| {
                for (kk, &v) in sums.iter().enumerate() {
                    // SAFETY: threads own whole tiles with pairwise
                    // disjoint column sets — per RHS copy too.
                    unsafe { *out.get_raw(kk * n_cols + c) += v };
                }
            };
            for ti in tile_ranges[tid].clone() {
                for &bi in &self.tile_blocks[ti] {
                    let blk = &self.m.blocks[bi as usize];
                    trace_block_pass(&self.m, blk, K as u64);
                    gather::<T, W, K>(blk, y, n_rows, ytil);
                    match self.m.variant {
                        Variant::Z => transpose_block::<T, ZLanes<T>, W, K>(
                            blk, s_vxg, ytil, lanes, &mut sink,
                        ),
                        Variant::M => transpose_block::<T, MLanes<T, HW>, W, K>(
                            blk, s_vxg, ytil, lanes, &mut sink,
                        ),
                    }
                }
            }
        });
    }
}

impl<T: Scalar + MaskExpand> SpmvExecutor<T> for CscvExec<T> {
    fn name(&self) -> String {
        self.m.variant.to_string()
    }
    fn n_rows(&self) -> usize {
        self.m.n_rows
    }
    fn n_cols(&self) -> usize {
        self.m.n_cols
    }
    fn nnz_orig(&self) -> usize {
        self.m.stats.nnz_orig
    }
    fn nnz_stored(&self) -> usize {
        // Format-level padding rate: lane slots (identical for Z and M —
        // the paper's R_nnzE is a property of the layout, not storage).
        self.m.stats.lane_slots
    }
    fn matrix_bytes(&self) -> usize {
        self.m.matrix_bytes()
    }

    /// Forward product `y = A x`: the batch of width 1.
    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        self.run(Dir::Forward, x, 1, y, pool)
    }

    /// True batched SpMM: one matrix-stream pass per register-tile chunk
    /// (k split into {8, 4, 2, 1}), threads owning whole view groups. See
    /// the kernel docs — the batch dimension rides in the accumulator tile,
    /// so matrix (and CSCV-M mask-expansion) traffic is paid once per
    /// chunk rather than once per RHS.
    fn spmv_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        self.run(Dir::Forward, x, k, y, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::layout::{ImageShape, SinoLayout};
    use crate::params::CscvParams;
    use cscv_sparse::dense::assert_vec_close;
    use cscv_sparse::{Coo, Csc};

    fn ct_like<T: Scalar>(
        n_views: usize,
        n_bins: usize,
        nx: usize,
        ny: usize,
    ) -> (Csc<T>, SinoLayout, ImageShape) {
        let layout = SinoLayout { n_views, n_bins };
        let img = ImageShape { nx, ny };
        let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
        for col in 0..img.n_pixels() {
            let (ix, iy) = img.pixel_of_col(col);
            for v in 0..n_views {
                // Sinusoid-ish trajectory.
                let phase = (v as f64 * 0.4 + ix as f64 * 0.3 - iy as f64 * 0.2).sin();
                let base = ((phase + 1.2) * (n_bins as f64 - 4.0) / 2.4) as usize;
                let val = 1.0 + (col % 7) as f64 * 0.1;
                coo.push(layout.row_index(v, base), col, T::from_f64(val));
                coo.push(layout.row_index(v, base + 1), col, T::from_f64(0.7));
                if (v + col) % 3 == 0 {
                    coo.push(layout.row_index(v, base + 2), col, T::from_f64(0.2));
                }
            }
        }
        (coo.to_csc(), layout, img)
    }

    fn check_all(variant: Variant) {
        let (csc, layout, img) = ct_like::<f64>(13, 24, 8, 6);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        for params in [
            CscvParams::new(4, 4, 2),
            CscvParams::new(8, 8, 3),
            CscvParams::new(3, 16, 1),
        ] {
            let m = build(&csc, layout, img, params, variant);
            m.validate_full().unwrap();
            let exec = CscvExec::new(m);
            for threads in [1, 2, 4, 7] {
                let pool = ThreadPool::new(threads);
                let mut y = vec![f64::NAN; csc.n_rows()];
                exec.spmv(&x, &mut y, &pool);
                assert_vec_close(&y, &y_ref, 1e-11);
            }
        }
    }

    #[test]
    fn z_view_groups_matches_reference() {
        check_all(Variant::Z);
    }

    #[test]
    fn m_view_groups_matches_reference() {
        check_all(Variant::M);
    }

    #[test]
    fn transpose_matches_csc_transpose_reference() {
        let (csc, layout, img) = ct_like::<f64>(13, 24, 8, 6);
        let y: Vec<f64> = (0..csc.n_rows()).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut x_ref = vec![0.0; csc.n_cols()];
        csc.spmv_transpose_serial(&y, &mut x_ref);
        for variant in [Variant::Z, Variant::M] {
            // S_VxG = 5 runs a 4-member and a 1-member transpose pass.
            for params in [
                CscvParams::new(4, 4, 2),
                CscvParams::new(8, 8, 3),
                CscvParams::new(3, 16, 1),
                CscvParams::new(4, 4, 5),
            ] {
                let exec = CscvExec::new(build(&csc, layout, img, params, variant));
                for threads in [1, 2, 5] {
                    let pool = ThreadPool::new(threads);
                    let mut x = vec![f64::NAN; csc.n_cols()];
                    exec.spmv_transpose(&y, &mut x, &pool);
                    assert_vec_close(&x, &x_ref, 1e-11);
                }
            }
        }
    }

    #[test]
    fn forward_transpose_adjoint_identity() {
        let (csc, layout, img) = ct_like::<f64>(10, 20, 5, 5);
        let exec = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        let pool = ThreadPool::new(2);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i % 9) as f64 - 4.0).collect();
        let y: Vec<f64> = (0..csc.n_rows()).map(|i| (i % 5) as f64 * 0.3).collect();
        let mut ax = vec![0.0; csc.n_rows()];
        exec.spmv(&x, &mut ax, &pool);
        let mut aty = vec![0.0; csc.n_cols()];
        exec.spmv_transpose(&y, &mut aty, &pool);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-12);
    }

    /// Every executor configuration of one matrix shape: Z and M, soft
    /// expand and (where this machine has it) hardware
    /// `vexpand`.
    fn every_config<T: Scalar + MaskExpand>(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        params: CscvParams,
    ) -> Vec<CscvExec<T>> {
        let mut out = Vec::new();
        for variant in [Variant::Z, Variant::M] {
            for path in [ExpandPath::Software, ExpandPath::Hardware] {
                let mut exec = CscvExec::new(build(csc, layout, img, params, variant));
                if path == ExpandPath::Hardware && exec.expand_path() != path {
                    continue;
                }
                exec.force_expand_path(path);
                out.push(exec);
            }
        }
        out
    }

    /// Bitwise, not within a tolerance: every RHS of a batch sees the
    /// same FMA and scatter order as a lone product of that column.
    #[test]
    fn spmv_multi_matches_k_independent_spmvs() {
        let (csc, layout, img) = ct_like::<f64>(13, 24, 8, 6);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let pools = [ThreadPool::new(1), ThreadPool::new(3)];
        for params in [CscvParams::new(4, 4, 2), CscvParams::new(8, 8, 3)] {
            for exec in every_config(&csc, layout, img, params) {
                // Odd k exercises the {8,4,2,1} chunk decomposition.
                for k in [1usize, 2, 3, 5, 8, 11] {
                    let x: Vec<f64> = (0..k * nc).map(|i| (i as f64 * 0.13).sin()).collect();
                    for pool in &pools {
                        let mut y_multi = vec![f64::NAN; k * nr];
                        exec.spmv_multi(&x, k, &mut y_multi, pool);
                        for kk in 0..k {
                            let mut y_one = vec![f64::NAN; nr];
                            exec.spmv(&x[kk * nc..(kk + 1) * nc], &mut y_one, pool);
                            assert_eq!(
                                &y_multi[kk * nr..(kk + 1) * nr],
                                y_one.as_slice(),
                                "{:?} k={k} column {kk} threads={}",
                                exec.config(),
                                pool.n_threads()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every configuration of `params` over `csc`: each RHS of a
    /// `k`-wide transpose equals a lone transpose of it, bitwise.
    fn check_transpose_multi<T: Scalar + MaskExpand>(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        params: CscvParams,
        ks: &[usize],
    ) {
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let pools = [ThreadPool::new(1), ThreadPool::new(3)];
        for exec in every_config(csc, layout, img, params) {
            for &k in ks {
                let y: Vec<T> = (0..k * nr)
                    .map(|i| T::from_f64((i as f64 * 0.07).cos()))
                    .collect();
                for pool in &pools {
                    let mut x_multi = vec![T::from_f64(f64::NAN); k * nc];
                    exec.spmv_transpose_multi(&y, k, &mut x_multi, pool);
                    for kk in 0..k {
                        let mut x_one = vec![T::from_f64(f64::NAN); nc];
                        exec.spmv_transpose(&y[kk * nr..(kk + 1) * nr], &mut x_one, pool);
                        assert_eq!(
                            &x_multi[kk * nc..(kk + 1) * nc],
                            x_one.as_slice(),
                            "{:?} k={k} column {kk} threads={}",
                            exec.config(),
                            pool.n_threads()
                        );
                    }
                }
            }
        }
    }

    /// The transpose counterpart of the bitwise batch test above. f32 at
    /// `S_VVec = 16` is the widest configuration with `K = 8` chunks
    /// (`8·16·4 B = MAX_TILE_BYTES`); k = 9 and 16 add a `K = 1` tail
    /// and a second `K = 8` pass.
    #[test]
    fn spmv_transpose_multi_matches_k_independent_transposes() {
        let (csc, layout, img) = ct_like::<f64>(13, 24, 8, 6);
        for params in [
            CscvParams::new(4, 8, 2),
            CscvParams::new(3, 16, 1),
            CscvParams::new(4, 4, 5),
        ] {
            check_transpose_multi(&csc, layout, img, params, &[1, 2, 3, 5, 7, 8]);
        }
        let (csc, layout, img) = ct_like::<f32>(13, 24, 8, 6);
        check_transpose_multi(&csc, layout, img, CscvParams::new(4, 16, 2), &[8, 9, 16]);
    }

    /// Threads own disjoint rows (forward) or columns (transpose), so
    /// no thread split changes a summation order: 2 and 3 threads
    /// give the 1-thread bits for every product.
    #[test]
    fn products_are_bitwise_equal_at_every_thread_count() {
        let (csc, layout, img) = ct_like::<f64>(13, 24, 8, 6);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(3)];
        for params in [CscvParams::new(4, 4, 2), CscvParams::new(2, 8, 3)] {
            for exec in every_config(&csc, layout, img, params) {
                for k in [1usize, 3] {
                    let x: Vec<f64> = (0..k * nc).map(|i| (i as f64 * 0.13).sin()).collect();
                    let y: Vec<f64> = (0..k * nr).map(|i| (i as f64 * 0.07).cos()).collect();
                    let run = |pool: &ThreadPool| {
                        let mut ax = vec![f64::NAN; k * nr];
                        exec.spmv_multi(&x, k, &mut ax, pool);
                        let mut aty = vec![f64::NAN; k * nc];
                        exec.spmv_transpose_multi(&y, k, &mut aty, pool);
                        (ax, aty)
                    };
                    let serial = run(&pools[0]);
                    for pool in &pools[1..] {
                        assert!(
                            run(pool) == serial,
                            "{:?} k={k} threads={}",
                            exec.config(),
                            pool.n_threads()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_adjoint_identity_per_column() {
        // ⟨A·X, Y⟩ = ⟨X, Aᵀ·Y⟩ must hold column by column of the batch.
        let (csc, layout, img) = ct_like::<f64>(10, 20, 5, 5);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let exec = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        let pool = ThreadPool::new(2);
        let k = 5;
        let x: Vec<f64> = (0..k * nc).map(|i| (i % 9) as f64 - 4.0).collect();
        let y: Vec<f64> = (0..k * nr).map(|i| (i % 5) as f64 * 0.3).collect();
        let mut ax = vec![0.0; k * nr];
        exec.spmv_multi(&x, k, &mut ax, &pool);
        let mut aty = vec![0.0; k * nc];
        exec.spmv_transpose_multi(&y, k, &mut aty, &pool);
        for kk in 0..k {
            let lhs: f64 = ax[kk * nr..(kk + 1) * nr]
                .iter()
                .zip(&y[kk * nr..(kk + 1) * nr])
                .map(|(a, b)| a * b)
                .sum();
            let rhs: f64 = x[kk * nc..(kk + 1) * nc]
                .iter()
                .zip(&aty[kk * nc..(kk + 1) * nc])
                .map(|(a, b)| a * b)
                .sum();
            assert!(
                (lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-12,
                "batch column {kk}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn metadata_and_names() {
        let (csc, layout, img) = ct_like::<f64>(8, 20, 4, 4);
        let nnz = csc.nnz();
        let z = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::Z,
        ));
        let m = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        assert_eq!(z.name(), "CSCV-Z");
        assert_eq!(m.name(), "CSCV-M");
        assert_eq!(z.nnz_orig(), nnz);
        assert_eq!(z.nnz_stored(), m.nnz_stored(), "R_nnzE is format-level");
        assert!(z.r_nnze() > 0.0);
        // M stores fewer value bytes than Z (padding removed).
        assert!(m.matrix_bytes() < z.matrix_bytes());
    }

    #[test]
    fn f32_also_exact_within_tolerance() {
        let layout = SinoLayout {
            n_views: 8,
            n_bins: 16,
        };
        let img = ImageShape { nx: 4, ny: 4 };
        let mut coo: Coo<f32> = Coo::new(layout.n_rows(), 16);
        for col in 0..16 {
            for v in 0..8 {
                coo.push(
                    layout.row_index(v, (v + col) % 15),
                    col,
                    0.25 + col as f32 * 0.01,
                );
            }
        }
        let csc = coo.to_csc();
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        let mut y_ref = vec![0.0f32; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        for variant in [Variant::Z, Variant::M] {
            let exec = CscvExec::new(build(&csc, layout, img, CscvParams::new(2, 8, 2), variant));
            let pool = ThreadPool::new(2);
            let mut y = vec![f32::NAN; csc.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-5);
        }
    }
}
