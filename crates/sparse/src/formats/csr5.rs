//! CSR5-style tiled segmented-sum SpMV — the CSR5 analog (Liu & Vinter,
//! ICS'15).
//!
//! The nnz stream is cut into tiles of σ×ω entries. Inside a tile, ω
//! *lanes* each own σ consecutive entries, stored **transposed**
//! (step-major) so one SIMD load per step fetches one entry per lane. Row
//! boundaries are bit flags; each lane runs a flag-segmented sum, so the
//! hot loop is a pure vector FMA with rare scalar flushes. Tiles have
//! identical nnz, giving CSR5 its perfect load balance on power-law rows.
//!
//! Simplifications versus the original (documented in DESIGN.md): tile
//! descriptors are plain arrays instead of packed bit-fields, and the
//! cross-thread stitching uses merge-style carries instead of CSR5's
//! calibrator.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::even_chunks;
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// Lanes per tile (ω).
const OMEGA: usize = 8;
/// Steps per lane (σ).
const SIGMA: usize = 16;
/// Nonzeros per tile.
const TILE: usize = OMEGA * SIGMA;

/// CSR5-style executor.
pub struct Csr5Exec<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    /// Transposed tile storage: entry (tile t, lane l, step s) lives at
    /// `t*TILE + s*OMEGA + l`.
    vals_t: Vec<T>,
    cols_t: Vec<u32>,
    /// Per (tile, step): bit `l` set ⇔ entry (l, s) is the first of a row.
    flag_words: Vec<u32>,
    /// Rows of flagged entries, grouped by (tile, lane), step-ordered.
    seg_rows: Vec<u32>,
    /// Offsets into `seg_rows`, one per (tile, lane), length `tiles*ω + 1`.
    seg_offsets: Vec<u32>,
    /// Row containing each lane's first entry.
    lane_first_row: Vec<u32>,
    /// Tail entries (nnz % TILE) processed scalar: (row, col, val).
    tail: Vec<(u32, u32, T)>,
}

impl<T: Scalar> Csr5Exec<T> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row < n_rows <= u32::MAX: every Csr constructor bounds both dimensions"
    )]
    pub fn new(csr: &Csr<T>) -> Self {
        let nnz = csr.nnz();
        let tiles = nnz / TILE;
        let body = tiles * TILE;

        let mut vals_t = vec![T::ZERO; body];
        let mut cols_t = vec![0u32; body];
        let mut flag_words = vec![0u32; tiles * SIGMA];
        let mut lane_first_row = vec![0u32; tiles * OMEGA];
        let mut seg_rows = Vec::new();
        let mut seg_counts = vec![0u32; tiles * OMEGA];
        let mut tail = Vec::with_capacity(nnz - body);

        let row_ptr = csr.row_ptr();
        let col_idx = csr.col_idx();
        let vals = csr.vals();
        let mut row = 0usize;
        for idx in 0..nnz {
            // Advance the row cursor; `row` owns entry `idx`.
            while row_ptr[row + 1] <= idx {
                row += 1;
            }
            let first_of_row = idx == row_ptr[row];
            if idx < body {
                let t = idx / TILE;
                let k = idx % TILE;
                let lane = k / SIGMA;
                let s = k % SIGMA;
                let dst = t * TILE + s * OMEGA + lane;
                vals_t[dst] = vals[idx];
                cols_t[dst] = col_idx[idx];
                if s == 0 {
                    lane_first_row[t * OMEGA + lane] = row as u32;
                }
                if first_of_row {
                    flag_words[t * SIGMA + s] |= 1u32 << lane;
                    seg_rows.push(row as u32);
                    seg_counts[t * OMEGA + lane] += 1;
                }
            } else {
                tail.push((row as u32, col_idx[idx], vals[idx]));
            }
        }
        // seg_rows was pushed in idx order = (tile, lane, step) order,
        // which is exactly the grouping the offsets describe.
        let mut seg_offsets = Vec::with_capacity(tiles * OMEGA + 1);
        seg_offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &seg_counts {
            acc += c;
            seg_offsets.push(acc);
        }

        Csr5Exec {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            nnz,
            vals_t,
            cols_t,
            flag_words,
            seg_rows,
            seg_offsets,
            lane_first_row,
            tail,
        }
    }

    fn n_tiles(&self) -> usize {
        self.vals_t.len() / TILE
    }

    /// Process a contiguous tile range, flushing completed segments into
    /// `y` except for `shared_row`, whose contributions accumulate into
    /// the returned carry (it may be co-owned by the previous thread).
    ///
    /// # Safety
    /// Per the carry protocol, only this thread flushes rows whose last
    /// entry lies in `tiles` (other threads route them to carries), so the
    /// raw `y` writes are disjoint across concurrent callers.
    unsafe fn run_tiles(
        &self,
        tiles: std::ops::Range<usize>,
        x: &[T],
        y: &SharedSliceMut<T>,
        shared_row: u32,
    ) -> T {
        let mut carry = T::ZERO;
        let mut flush = |row: u32, v: T| {
            if row == shared_row {
                carry += v;
            } else {
                // SAFETY: disjointness per the carry protocol above.
                unsafe { *y.get_raw(row as usize) += v };
            }
        };
        for t in tiles {
            let mut cur = [0u32; OMEGA];
            let mut seg_ptr = [0usize; OMEGA];
            for l in 0..OMEGA {
                cur[l] = self.lane_first_row[t * OMEGA + l];
                seg_ptr[l] = self.seg_offsets[t * OMEGA + l] as usize;
            }
            let mut acc = [T::ZERO; OMEGA];
            for s in 0..SIGMA {
                let base = t * TILE + s * OMEGA;
                let mut fw = self.flag_words[t * SIGMA + s];
                // Rare scalar path: close segments that end at this step.
                while fw != 0 {
                    let l = fw.trailing_zeros() as usize;
                    fw &= fw - 1;
                    flush(cur[l], acc[l]);
                    acc[l] = T::ZERO;
                    cur[l] = self.seg_rows[seg_ptr[l]];
                    seg_ptr[l] += 1;
                }
                // Hot path: one FMA per lane, contiguous loads.
                let vs = &self.vals_t[base..base + OMEGA];
                let cs = &self.cols_t[base..base + OMEGA];
                for l in 0..OMEGA {
                    acc[l] = vs[l].mul_add(x[cs[l] as usize], acc[l]);
                }
            }
            for l in 0..OMEGA {
                flush(cur[l], acc[l]);
            }
        }
        carry
    }
}

impl<T: Scalar> SpmvExecutor<T> for Csr5Exec<T> {
    fn name(&self) -> String {
        "CSR5(analog)".into()
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
        self.vals_t.len() * T::BYTES
            + self.cols_t.len() * 4
            + self.flag_words.len() * 4
            + self.seg_rows.len() * 4
            + self.seg_offsets.len() * 4
            + self.lane_first_row.len() * 4
            + self.tail.len() * (8 + T::BYTES)
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        let n = pool.n_threads();
        let tile_ranges = even_chunks(self.n_tiles(), n);

        // The only row two threads can both touch is the one spanning
        // their boundary: thread t routes its contributions to the row
        // that was already open at its first entry into a carry.
        let mut shared_rows = vec![u32::MAX; n];
        for (t, range) in tile_ranges.iter().enumerate() {
            if t > 0 && !range.is_empty() {
                shared_rows[t] = self.lane_first_row[range.start * OMEGA];
            }
        }
        let mut carries = vec![T::ZERO; n];
        {
            let out = SharedSliceMut::new(y);
            let carries_s = SharedSliceMut::new(&mut carries);
            let y_len = out.len();
            let zero_ranges = even_chunks(y_len, n);
            pool.run(|tid| {
                // Phase split inside one dispatch is unsound (no barrier),
                // so zero only this thread's slice first…
                // `zero_ranges` has one entry per pool
                // thread and tid < n_threads by the dispatch contract.
                let z = zero_ranges[tid].clone();
                // SAFETY: disjoint zero ranges.
                unsafe { out.slice_mut(z) }.fill(T::ZERO);
            });
            // Zeroing dispatch fully completed (ack barrier), so the
            // flush dispatch may repartition `out` by row ownership.
            out.claims_barrier();
            pool.run(|tid| {
                // `tile_ranges` / `shared_rows` are sized
                // one entry per pool thread; tid < n_threads.
                let range = tile_ranges[tid].clone();
                if range.is_empty() {
                    return;
                }
                // SAFETY: threads flush only rows owned per the carry
                // protocol; the shared boundary row goes to the carry.
                // `shared_rows` has n_threads entries.
                let carry = unsafe { self.run_tiles(range, x, &out, shared_rows[tid]) };
                // SAFETY: slot `tid` only.
                unsafe { carries_s.slice_mut(tid..tid + 1)[0] = carry };
            });
        }
        for t in 0..n {
            if shared_rows[t] != u32::MAX {
                y[shared_rows[t] as usize] += carries[t];
            }
        }
        // Scalar tail (fewer than TILE entries).
        for &(r, c, v) in &self.tail {
            y[r as usize] = v.mul_add(x[c as usize], y[r as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn power_law(n: usize) -> Csr<f64> {
        // Row r has ~n/(r+1) nonzeros — the skew CSR5 targets.
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            let len = (n / (r + 1)).max(1);
            for k in 0..len {
                coo.push(r, (r + k * 7) % n, ((r + k) % 10) as f64 * 0.3 - 1.0);
            }
        }
        coo.to_csr()
    }

    fn check(csr: &Csr<f64>, threads: &[usize]) {
        let n_cols = csr.n_cols();
        let x: Vec<f64> = (0..n_cols).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let mut y_ref = vec![0.0; csr.n_rows()];
        csr.spmv_serial(&x, &mut y_ref);
        let exec = Csr5Exec::new(csr);
        for &t in threads {
            let pool = ThreadPool::new(t);
            let mut y = vec![f64::NAN; csr.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-11);
        }
    }

    #[test]
    fn power_law_matches_reference() {
        check(&power_law(300), &[1, 2, 3, 4, 8]);
    }

    #[test]
    fn uniform_rows_match() {
        let mut coo = Coo::new(100, 50);
        for r in 0..100 {
            for k in 0..5 {
                coo.push(r, (r + k * 11) % 50, 1.0 + k as f64);
            }
        }
        check(&coo.to_csr(), &[1, 4]);
    }

    #[test]
    fn tiny_matrix_all_tail() {
        // nnz < TILE: everything goes through the scalar tail.
        let mut coo = Coo::new(5, 5);
        coo.push(0, 0, 1.0);
        coo.push(3, 4, 2.0);
        check(&coo.to_csr(), &[1, 2]);
    }

    #[test]
    fn exactly_one_tile() {
        let mut coo = Coo::new(TILE, 4);
        for i in 0..TILE {
            coo.push(i, i % 4, i as f64 * 0.1);
        }
        check(&coo.to_csr(), &[1, 2]);
    }

    #[test]
    fn row_spanning_multiple_tiles_and_threads() {
        // One row holds 4 tiles worth of nnz.
        let n = 4 * TILE;
        let mut coo = Coo::new(3, n);
        for c in 0..n {
            coo.push(1, c, 1.0);
        }
        coo.push(0, 0, 5.0);
        coo.push(2, 1, 7.0);
        check(&coo.to_csr(), &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_rows_interleaved() {
        let mut coo = Coo::new(400, 20);
        for r in (0..400).step_by(3) {
            coo.push(r, r % 20, 1.0);
        }
        check(&coo.to_csr(), &[1, 4]);
    }

    #[test]
    fn metadata_counts() {
        let csr = power_law(100);
        let exec = Csr5Exec::new(&csr);
        assert_eq!(exec.nnz_orig(), csr.nnz());
        assert_eq!(exec.nnz_stored(), csr.nnz());
        assert!(exec.matrix_bytes() > csr.nnz() * (4 + 8));
    }
}
