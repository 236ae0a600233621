//! SPC5-style mask-compressed row blocks — the SPC5 analog.
//!
//! Bramas & Kus' SPC5 stores a β(r,c) block format: rows are grouped in
//! blocks of `R` consecutive rows; for every column that has at least one
//! nonzero inside the block, it stores the column index, an `R`-bit
//! occupancy mask, and only the nonzero values. The SpMV kernel expands
//! the packed values into an `R`-lane vector (AVX-512 `vexpand`, or the
//! software fallback) and FMAs with the broadcast `x[col]` — the same
//! compress/expand trick CSCV-M later applies on the *column* side.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::split_by_prefix;
use crate::pool::ThreadPool;
use cscv_simd::expand::{expand_soft, select_path, ExpandPath};
use cscv_simd::lanes::fma_lanes;
use cscv_simd::{MaskExpand, Scalar};

/// SPC5 β(R,1) executor. `R` is the row-block height (8 or 16 for f32,
/// 4 or 8 for f64 map to native register widths).
pub struct Spc5Exec<T, const R: usize> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    /// Per block row: range in `cols`/`masks` (`n_blocks + 1`).
    block_ptr: Vec<usize>,
    /// Per block row: range in `vals` (`n_blocks + 1`).
    val_ptr: Vec<usize>,
    cols: Vec<u32>,
    masks: Vec<u16>,
    vals: Vec<T>,
    path: ExpandPath,
}

impl<T: Scalar + MaskExpand, const R: usize> Spc5Exec<T, R> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "lane < R, the block row count"
    )]
    pub fn new(csr: &Csr<T>) -> Self {
        assert!(R >= 2 && R <= 16, "block height must be in 2..=16");
        let n_rows = csr.n_rows();
        let n_blocks = n_rows.div_ceil(R);
        let mut block_ptr = Vec::with_capacity(n_blocks + 1);
        let mut val_ptr = Vec::with_capacity(n_blocks + 1);
        let mut cols = Vec::new();
        let mut masks = Vec::new();
        let mut vals = Vec::new();
        block_ptr.push(0usize);
        val_ptr.push(0usize);

        // Per block: merge the R rows' (col, lane, val) triplets by column.
        let mut scratch: Vec<(u32, u32, T)> = Vec::new();
        for b in 0..n_blocks {
            scratch.clear();
            let r0 = b * R;
            let r1 = (r0 + R).min(n_rows);
            for (lane, r) in (r0..r1).enumerate() {
                let (rcols, rvals) = csr.row(r);
                for (c, v) in rcols.iter().zip(rvals) {
                    scratch.push((*c, lane as u32, *v));
                }
            }
            scratch.sort_unstable_by_key(|&(c, l, _)| (c, l));
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut mask = 0u16;
                while i < scratch.len() && scratch[i].0 == col {
                    mask |= 1u16 << scratch[i].1;
                    vals.push(scratch[i].2);
                    i += 1;
                }
                cols.push(col);
                masks.push(mask);
            }
            block_ptr.push(cols.len());
            val_ptr.push(vals.len());
        }

        Spc5Exec {
            n_rows,
            n_cols: csr.n_cols(),
            nnz: csr.nnz(),
            block_ptr,
            val_ptr,
            cols,
            masks,
            vals,
            path: select_path::<T, R>(),
        }
    }

    /// Which expansion path the kernel uses on this machine.
    pub fn expand_path(&self) -> ExpandPath {
        self.path
    }

    #[inline(always)]
    fn block_kernel<const HW: bool>(&self, b: usize, x: &[T]) -> [T; R] {
        let mut acc = [T::ZERO; R];
        let mut vp = self.val_ptr[b];
        for e in self.block_ptr[b]..self.block_ptr[b + 1] {
            let mask = self.masks[e] as u32;
            let lanes: [T; R] = if HW {
                debug_assert!(self.vals.len() >= vp + mask.count_ones() as usize);
                // SAFETY: path selection verified availability; the value
                // stream holds popcount(mask) elements at vp by build.
                unsafe { T::expand_hw::<R>(mask, self.vals.as_ptr().add(vp)) }
            } else {
                expand_soft::<T, R>(mask, &self.vals[vp..])
            };
            vp += mask.count_ones() as usize;
            fma_lanes(&mut acc, x[self.cols[e] as usize], &lanes);
        }
        acc
    }

    fn spmv_with<const HW: bool>(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        let n_blocks = self.block_ptr.len() - 1;
        let ranges = split_by_prefix(&self.val_ptr, pool.n_threads());
        let out = SharedSliceMut::new(y);
        pool.run(|tid| {
            for b in ranges[tid].clone() {
                let acc = self.block_kernel::<HW>(b, x);
                let r0 = b * R;
                let r1 = ((b + 1) * R).min(self.n_rows);
                // SAFETY: block row ranges are disjoint across threads.
                let dst = unsafe { out.slice_mut(r0..r1) };
                dst.copy_from_slice(&acc[..r1 - r0]);
            }
            let _ = n_blocks;
        });
    }
}

impl<T: Scalar + MaskExpand, const R: usize> SpmvExecutor<T> for Spc5Exec<T, R> {
    fn name(&self) -> String {
        format!("SPC5-b{R}(analog)")
    }
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
    fn nnz_orig(&self) -> usize {
        self.nnz
    }
    fn matrix_bytes(&self) -> usize {
        (self.block_ptr.len() + self.val_ptr.len()) * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.masks.len() * 2
            + self.vals.len() * T::BYTES
    }
    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        match self.path {
            ExpandPath::Hardware => self.spmv_with::<true>(x, y, pool),
            ExpandPath::Software => self.spmv_with::<false>(x, y, pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn ct_like(n_rows: usize, n_cols: usize) -> Csr<f64> {
        // Short runs of consecutive rows sharing columns — the structure
        // SPC5 blocks exploit.
        let mut coo = Coo::new(n_rows, n_cols);
        for r in 0..n_rows {
            let c0 = (r * 3) % n_cols;
            coo.push(r, c0, 1.0 + r as f64 * 0.01);
            if c0 + 1 < n_cols {
                coo.push(r, c0 + 1, 0.5);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_reference_all_widths() {
        let csr = ct_like(100, 40);
        let x: Vec<f64> = (0..40).map(|i| 0.25 * i as f64 - 2.0).collect();
        let mut y_ref = vec![0.0; 100];
        csr.spmv_serial(&x, &mut y_ref);

        let exec4 = Spc5Exec::<f64, 4>::new(&csr);
        let exec8 = Spc5Exec::<f64, 8>::new(&csr);
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            for exec in [&exec4 as &dyn SpmvExecutor<f64>, &exec8] {
                let mut y = vec![f64::NAN; 100];
                exec.spmv(&x, &mut y, &pool);
                assert_vec_close(&y, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn f32_width16() {
        let csr = ct_like(77, 30);
        let csr32: Csr<f32> = {
            let mut coo = Coo::new(77, 30);
            for r in 0..77 {
                let (cols, vals) = csr.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    coo.push(r, *c as usize, *v as f32);
                }
            }
            coo.to_csr()
        };
        let x: Vec<f32> = (0..30).map(|i| i as f32 * 0.1).collect();
        let mut y_ref = vec![0.0f32; 77];
        csr32.spmv_serial(&x, &mut y_ref);
        let exec = Spc5Exec::<f32, 16>::new(&csr32);
        let pool = ThreadPool::new(2);
        let mut y = vec![f32::NAN; 77];
        exec.spmv(&x, &mut y, &pool);
        assert_vec_close(&y, &y_ref, 1e-5);
    }

    #[test]
    fn stores_exactly_nnz_values() {
        let csr = ct_like(64, 64);
        let exec = Spc5Exec::<f64, 8>::new(&csr);
        assert_eq!(exec.nnz_stored(), exec.nnz_orig());
        assert_eq!(exec.r_nnze(), 0.0);
        // Index data beats CSR when rows share columns: one u32+u16 per
        // (block, col) pair instead of one u32 per nnz.
        assert!(exec.matrix_bytes() > 0);
    }

    #[test]
    fn ragged_last_block() {
        let csr = ct_like(13, 10); // 13 % 8 != 0
        let x = vec![1.0f64; 10];
        let mut y_ref = vec![0.0; 13];
        csr.spmv_serial(&x, &mut y_ref);
        let exec = Spc5Exec::<f64, 8>::new(&csr);
        let pool = ThreadPool::new(1);
        let mut y = vec![f64::NAN; 13];
        exec.spmv(&x, &mut y, &pool);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn expand_path_reported() {
        let csr = ct_like(8, 8);
        let exec = Spc5Exec::<f64, 8>::new(&csr);
        let expected = select_path::<f64, 8>();
        assert_eq!(exec.expand_path(), expected);
    }
}
