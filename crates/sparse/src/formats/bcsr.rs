//! BCSR — blocked CSR with dense `R×CB` sub-matrices.
//!
//! The paper's §II "second type" of general method: represent the matrix
//! as a collection of dense sub-matrices. Dense blocks vectorize
//! trivially and carry one index per block instead of one per nonzero,
//! but "useless zeros are filled into the matrix" — the fill-in is the
//! format's cost, which SPC5's masks and CSCV-M's `vexpand` were both
//! designed to remove. Benchmarked as the zero-padding upper bound of
//! the block family.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::split_by_prefix;
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// Block height (rows).
const R: usize = 4;
/// Block width (columns).
const CB: usize = 4;

/// BCSR executor with `R×CB` dense blocks.
pub struct BcsrExec<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    /// Per block row: range into `block_cols`/`blocks` (`n_brows + 1`).
    row_ptr: Vec<usize>,
    /// First column of each stored block.
    block_cols: Vec<u32>,
    /// Dense blocks, row-major within the block.
    blocks: Vec<T>,
}

impl<T: Scalar> BcsrExec<T> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the block width CB is a small constant"
    )]
    pub fn new(csr: &Csr<T>) -> Self {
        let n_rows = csr.n_rows();
        let n_brows = n_rows.div_ceil(R);
        let mut row_ptr = Vec::with_capacity(n_brows + 1);
        let mut block_cols = Vec::new();
        let mut blocks = Vec::new();
        row_ptr.push(0usize);
        // For each block row, merge the R rows' entries by block column.
        let mut scratch: Vec<(u32, usize, T)> = Vec::new(); // (bcol, in-block idx, val)
        for br in 0..n_brows {
            scratch.clear();
            let r0 = br * R;
            let r1 = (r0 + R).min(n_rows);
            for (lane, r) in (r0..r1).enumerate() {
                let (rcols, rvals) = csr.row(r);
                for (c, v) in rcols.iter().zip(rvals) {
                    let bcol = *c / CB as u32;
                    let within = lane * CB + (*c as usize % CB);
                    scratch.push((bcol, within, *v));
                }
            }
            scratch.sort_unstable_by_key(|&(bc, w, _)| (bc, w));
            let mut i = 0;
            while i < scratch.len() {
                let bcol = scratch[i].0;
                let base = blocks.len();
                blocks.resize(base + R * CB, T::ZERO);
                while i < scratch.len() && scratch[i].0 == bcol {
                    blocks[base + scratch[i].1] = scratch[i].2;
                    i += 1;
                }
                block_cols.push(bcol * CB as u32);
            }
            row_ptr.push(block_cols.len());
        }
        BcsrExec {
            n_rows,
            n_cols: csr.n_cols(),
            nnz: csr.nnz(),
            row_ptr,
            block_cols,
            blocks,
        }
    }
}

impl<T: Scalar> SpmvExecutor<T> for BcsrExec<T> {
    fn name(&self) -> String {
        format!("BCSR-{R}x{CB}")
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
    fn nnz_stored(&self) -> usize {
        self.blocks.len()
    }
    fn matrix_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.block_cols.len() * 4
            + self.blocks.len() * T::BYTES
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        let ranges = split_by_prefix(&self.row_ptr, pool.n_threads());
        let out = SharedSliceMut::new(y);
        pool.run(|tid| {
            for br in ranges[tid].clone() {
                let mut acc = [T::ZERO; R];
                for e in self.row_ptr[br]..self.row_ptr[br + 1] {
                    let c0 = self.block_cols[e] as usize;
                    let blk = &self.blocks[e * R * CB..(e + 1) * R * CB];
                    // x may end mid-block at the right edge.
                    let cw = CB.min(self.n_cols - c0);
                    for (cc, &xv) in x[c0..c0 + cw].iter().enumerate() {
                        for (lane, a) in acc.iter_mut().enumerate() {
                            *a = blk[lane * CB + cc].mul_add(xv, *a);
                        }
                    }
                }
                let r0 = br * R;
                let r1 = (r0 + R).min(self.n_rows);
                // SAFETY: block-row ranges are disjoint across threads.
                let dst = unsafe { out.slice_mut(r0..r1) };
                dst.copy_from_slice(&acc[..r1 - r0]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn banded(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for k in 0..3 {
                coo.push(r, (r + k) % n, 1.0 + (r + k) as f64 * 0.01);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_reference() {
        let csr = banded(50);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let mut y_ref = vec![0.0; 50];
        csr.spmv_serial(&x, &mut y_ref);
        let exec = BcsrExec::new(&csr);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut y = vec![f64::NAN; 50];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn fill_in_counted() {
        let csr = banded(32);
        let exec = BcsrExec::new(&csr);
        assert!(
            exec.nnz_stored() > exec.nnz_orig(),
            "dense blocks fill zeros"
        );
        assert!(exec.r_nnze() > 0.0);
        // Index data: one u32 per block, far below one per nonzero.
        let n_blocks = exec.nnz_stored() / (R * CB);
        assert!(n_blocks * 4 < exec.nnz_orig() * 4);
    }

    #[test]
    fn ragged_edges() {
        // Dimensions not divisible by block sizes.
        let mut coo = Coo::new(7, 9);
        coo.push(6, 8, 3.0);
        coo.push(0, 0, 1.0);
        coo.push(3, 5, -2.0);
        let csr = coo.to_csr();
        let exec = BcsrExec::new(&csr);
        let pool = ThreadPool::new(2);
        let mut y = vec![f64::NAN; 7];
        exec.spmv(&[1.0; 9], &mut y, &pool);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[3], -2.0);
        assert_eq!(y[6], 3.0);
    }

    #[test]
    fn empty() {
        let csr: Csr<f32> = Coo::new(3, 3).to_csr();
        let exec = BcsrExec::new(&csr);
        let pool = ThreadPool::new(1);
        let mut y = vec![f32::NAN; 3];
        exec.spmv(&[1.0; 3], &mut y, &pool);
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
