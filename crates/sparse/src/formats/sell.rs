//! SELL-C-σ — the ESB analog (sorted sliced ELLPACK).
//!
//! Intel's ESB ("ELLPACK Sparse Block") and SELL-C-σ are the same family:
//! rows are sorted by length inside windows of σ rows (keeping the sort
//! local so `x` locality survives), grouped into chunks of `C` rows, and
//! each chunk is stored column-major with padding up to the chunk's
//! longest row. The kernel is a clean vertical SIMD sweep: `C` output
//! accumulators advance one ELL column per step.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::split_by_prefix;
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// Chunk height (SIMD rows per slice). 8 = one AVX-512 f64 register /
/// half an f32 register; the sweet spot ESB uses on SKL-class hardware.
const C: usize = 8;
/// Sorting-window height in chunks (σ = SIGMA_CHUNKS · C rows).
const SIGMA_CHUNKS: usize = 32;

/// SELL-C-σ executor.
pub struct SellCSigmaExec<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    /// Chunk start offsets into `vals`/`cols` (`n_chunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Per-chunk width (longest row in chunk).
    widths: Vec<u32>,
    /// Column-major per chunk: entry (j, l) at `chunk_ptr[c] + j*C + l`.
    cols: Vec<u32>,
    vals: Vec<T>,
    /// Original row of slot `l` in chunk `c` (u32::MAX = padding slot).
    perm: Vec<u32>,
}

impl<T: Scalar> SellCSigmaExec<T> {
    pub fn new(csr: &Csr<T>) -> Self {
        let n_rows = csr.n_rows();
        let n_chunks = n_rows.div_ceil(C);
        let sigma = SIGMA_CHUNKS * C;

        // Sort rows by descending length within σ-windows.
        let mut order: Vec<u32> = (0..n_rows as u32).collect();
        for window in order.chunks_mut(sigma) {
            window.sort_by_key(|&r| {
                std::cmp::Reverse(csr.row_ptr()[r as usize + 1] - csr.row_ptr()[r as usize])
            });
        }

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut widths = Vec::with_capacity(n_chunks);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut perm = vec![u32::MAX; n_chunks * C];
        chunk_ptr.push(0usize);

        for chunk in 0..n_chunks {
            let rows = &order[chunk * C..((chunk + 1) * C).min(n_rows)];
            let width = rows
                .iter()
                .map(|&r| csr.row_ptr()[r as usize + 1] - csr.row_ptr()[r as usize])
                .max()
                .unwrap_or(0);
            widths.push(width as u32);
            let base = cols.len();
            cols.resize(base + width * C, 0u32);
            vals.resize(base + width * C, T::ZERO);
            for (l, &r) in rows.iter().enumerate() {
                perm[chunk * C + l] = r;
                let (rcols, rvals) = csr.row(r as usize);
                for (j, (&cc, &vv)) in rcols.iter().zip(rvals).enumerate() {
                    cols[base + j * C + l] = cc;
                    vals[base + j * C + l] = vv;
                }
            }
            chunk_ptr.push(cols.len());
        }

        SellCSigmaExec {
            n_rows,
            n_cols: csr.n_cols(),
            nnz: csr.nnz(),
            chunk_ptr,
            widths,
            cols,
            vals,
            perm,
        }
    }
}

impl<T: Scalar> SpmvExecutor<T> for SellCSigmaExec<T> {
    fn name(&self) -> String {
        "ESB/SELL-C-sigma(analog)".into()
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
        self.vals.len()
    }
    fn matrix_bytes(&self) -> usize {
        self.chunk_ptr.len() * std::mem::size_of::<usize>()
            + self.widths.len() * 4
            + self.cols.len() * 4
            + self.vals.len() * T::BYTES
            + self.perm.len() * 4
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        let n_chunks = self.widths.len();
        let chunk_ranges = split_by_prefix(&self.chunk_ptr, pool.n_threads());
        let out = SharedSliceMut::new(y);
        pool.run(|tid| {
            for chunk in chunk_ranges[tid].clone() {
                let width = self.widths[chunk] as usize;
                let base = self.chunk_ptr[chunk];
                let mut acc = [T::ZERO; C];
                for j in 0..width {
                    let cs = &self.cols[base + j * C..base + j * C + C];
                    let vs = &self.vals[base + j * C..base + j * C + C];
                    for l in 0..C {
                        acc[l] = vs[l].mul_add(x[cs[l] as usize], acc[l]);
                    }
                }
                for (l, &a) in acc.iter().enumerate() {
                    // AUDIT(index-ok): perm holds n_chunks·C entries and
                    // chunk < n_chunks, l < C by construction.
                    let r = self.perm[chunk * C + l];
                    if r != u32::MAX {
                        // SAFETY: each original row appears in exactly one
                        // chunk slot, and chunks are disjoint per thread.
                        unsafe {
                            out.slice_mut(r as usize..r as usize + 1)[0] = a;
                        }
                    }
                }
            }
            let _ = n_chunks;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn banded(n: usize, band: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            // Variable bandwidth so sorting actually reorders.
            let w = 1 + (r * 7) % band;
            for k in 0..w {
                let c = (r + k) % n;
                coo.push(r, c, (r + k + 1) as f64 * 0.01);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_reference() {
        let csr = banded(123, 9);
        let x: Vec<f64> = (0..123).map(|i| (i as f64).cos()).collect();
        let mut y_ref = vec![0.0; 123];
        csr.spmv_serial(&x, &mut y_ref);
        let exec = SellCSigmaExec::new(&csr);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut y = vec![f64::NAN; 123];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn padding_is_counted() {
        let csr = banded(64, 9);
        let exec = SellCSigmaExec::new(&csr);
        assert!(exec.nnz_stored() >= exec.nnz_orig());
        assert!(exec.r_nnze() >= 0.0);
    }

    #[test]
    fn sigma_sorting_reduces_padding() {
        // Compare against padding of the worst chunk arrangement by
        // checking that stored nnz is below plain ELL (global max width).
        let csr = banded(256, 17);
        let exec = SellCSigmaExec::new(&csr);
        let max_row = csr.row_lengths().into_iter().max().unwrap();
        let ell_stored = 256 * max_row;
        assert!(exec.nnz_stored() < ell_stored);
    }

    #[test]
    fn non_multiple_of_chunk_rows() {
        let csr = banded(13, 4); // 13 rows, last chunk ragged
        let x = vec![1.0f64; 13];
        let mut y_ref = vec![0.0; 13];
        csr.spmv_serial(&x, &mut y_ref);
        let exec = SellCSigmaExec::new(&csr);
        let pool = ThreadPool::new(2);
        let mut y = vec![f64::NAN; 13];
        exec.spmv(&x, &mut y, &pool);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let coo: Coo<f32> = Coo::new(5, 5);
        let exec = SellCSigmaExec::new(&coo.to_csr());
        let pool = ThreadPool::new(1);
        let mut y = vec![f32::NAN; 5];
        exec.spmv(&[1.0; 5], &mut y, &pool);
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
