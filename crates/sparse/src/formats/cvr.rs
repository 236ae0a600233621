//! CVR-style lane-striped SpMV — the CVR analog (Xie et al., CGO'18).
//!
//! CVR ("Compressed Vectorization-oriented sparse Row") keeps ω SIMD
//! lanes busy by *streaming* rows through them: every lane owns one row at
//! a time and consumes one nonzero per step; when a lane's row is
//! exhausted it records a flush event and picks up the next row at the
//! following step. The value/column streams are stored step-major so each
//! step is one contiguous ω-wide load, and the only scalar work is the
//! (rare) flush record processing — conceptually a dual of CSR5's
//! flag-segmented tiles.
//!
//! Like the original, the layout is built per thread partition (CVR is
//! constructed for a target thread count); the executor still runs
//! correctly on pools of any size by distributing partitions round-robin.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::split_by_prefix;
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// SIMD lanes per partition stream.
const OMEGA: usize = 8;

/// A flush event: at the end of `step`, lane `lane` finished `row`.
#[derive(Debug, Clone, Copy)]
struct FlushRec {
    step: u32,
    lane: u32,
    row: u32,
}

/// One thread partition's streams.
struct CvrPartition<T> {
    /// Rows covered (contiguous; zeroed before flushes are applied).
    rows: std::ops::Range<usize>,
    /// Step-major interleaved values: entry (step s, lane l) at `s*ω+l`.
    vals: Vec<T>,
    cols: Vec<u32>,
    recs: Vec<FlushRec>,
}

/// CVR-style executor.
pub struct CvrExec<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    partitions: Vec<CvrPartition<T>>,
}

impl<T: Scalar> CvrExec<T> {
    /// Build for `n_threads_hint` partitions (≥ 1).
    pub fn new(csr: &Csr<T>, n_threads_hint: usize) -> Self {
        let parts = split_by_prefix(csr.row_ptr(), n_threads_hint.max(1));
        let partitions = parts
            .into_iter()
            .map(|range| Self::build_partition(csr, range))
            .collect();
        CvrExec {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            nnz: csr.nnz(),
            partitions,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "l < OMEGA, the SIMD lane count, and r < n_rows <= u32::MAX (every Csr constructor bounds both dimensions)"
    )]
    fn build_partition(csr: &Csr<T>, rows: std::ops::Range<usize>) -> CvrPartition<T> {
        // Queue of non-empty rows to stream, in order.
        let mut pending = rows
            .clone()
            .filter(|&r| csr.row_ptr()[r + 1] > csr.row_ptr()[r]);
        // Per-lane: (row, next entry idx, end idx).
        let mut lane: [Option<(usize, usize, usize)>; OMEGA] = [None; OMEGA];
        let mut vals = Vec::new();
        let mut cols = Vec::new();
        let mut recs = Vec::new();
        let mut active = 0usize;
        let mut step = 0u32;
        loop {
            // Refill idle lanes at step boundaries.
            for slot in &mut lane {
                if slot.is_none() {
                    if let Some(r) = pending.next() {
                        *slot = Some((r, csr.row_ptr()[r], csr.row_ptr()[r + 1]));
                        active += 1;
                    }
                }
            }
            if active == 0 {
                break;
            }
            // Consume one entry per lane (pad idle lanes).
            for (l, slot) in lane.iter_mut().enumerate() {
                match slot {
                    Some((r, idx, end)) => {
                        vals.push(csr.vals()[*idx]);
                        cols.push(csr.col_idx()[*idx]);
                        *idx += 1;
                        if idx == end {
                            recs.push(FlushRec {
                                step,
                                lane: l as u32,
                                row: *r as u32,
                            });
                            *slot = None;
                            active -= 1;
                        }
                    }
                    None => {
                        vals.push(T::ZERO);
                        cols.push(0);
                    }
                }
            }
            step += 1;
        }
        CvrPartition {
            rows,
            vals,
            cols,
            recs,
        }
    }

    fn run_partition(p: &CvrPartition<T>, x: &[T], y: &mut [T]) {
        y.fill(T::ZERO);
        let row0 = p.rows.start;
        let steps = p.vals.len() / OMEGA;
        let mut acc = [T::ZERO; OMEGA];
        let mut ri = 0usize;
        for s in 0..steps {
            let base = s * OMEGA;
            let vs = &p.vals[base..base + OMEGA];
            let cs = &p.cols[base..base + OMEGA];
            for l in 0..OMEGA {
                acc[l] = vs[l].mul_add(x[cs[l] as usize], acc[l]);
            }
            while ri < p.recs.len() && p.recs[ri].step as usize == s {
                let rec = p.recs[ri];
                y[rec.row as usize - row0] = acc[rec.lane as usize];
                acc[rec.lane as usize] = T::ZERO;
                ri += 1;
            }
        }
        debug_assert_eq!(ri, p.recs.len());
    }
}

impl<T: Scalar> SpmvExecutor<T> for CvrExec<T> {
    fn name(&self) -> String {
        "CVR(analog)".into()
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
        self.partitions.iter().map(|p| p.vals.len()).sum()
    }
    fn matrix_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.vals.len() * T::BYTES + p.cols.len() * 4 + p.recs.len() * 12)
            .sum()
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        let n = pool.n_threads();
        let out = SharedSliceMut::new(y);
        pool.run(|tid| {
            // Partitions have disjoint contiguous row ranges; round-robin
            // them over the available pool threads.
            for p in self.partitions.iter().skip(tid).step_by(n) {
                // SAFETY: partition row ranges are pairwise disjoint.
                let dst = unsafe { out.slice_mut(p.rows.clone()) };
                Self::run_partition(p, x, dst);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn mixed(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            let len = match r % 5 {
                0 => 0, // empty rows between streams
                1 => 1,
                2 => 7,
                3 => 2,
                _ => 13,
            };
            for k in 0..len {
                coo.push(r, (r * 3 + k) % n, (k as f64 + 1.0) * 0.1);
            }
        }
        coo.to_csr()
    }

    fn check(csr: &Csr<f64>, hints: &[usize], threads: &[usize]) {
        let x: Vec<f64> = (0..csr.n_cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_ref = vec![0.0; csr.n_rows()];
        csr.spmv_serial(&x, &mut y_ref);
        for &h in hints {
            let exec = CvrExec::new(csr, h);
            for &t in threads {
                let pool = ThreadPool::new(t);
                let mut y = vec![f64::NAN; csr.n_rows()];
                exec.spmv(&x, &mut y, &pool);
                assert_vec_close(&y, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn mixed_rows_match_reference() {
        check(&mixed(157), &[1, 2, 4], &[1, 2, 4, 8]);
    }

    #[test]
    fn hint_and_pool_can_mismatch() {
        check(&mixed(64), &[3], &[1, 5]);
        check(&mixed(64), &[8], &[2]);
    }

    #[test]
    fn single_long_row() {
        let mut coo = Coo::new(1, 500);
        for c in 0..500 {
            coo.push(0, c, 0.01 * c as f64);
        }
        check(&coo.to_csr(), &[1, 2], &[1, 2]);
    }

    #[test]
    fn all_empty() {
        let coo: Coo<f64> = Coo::new(10, 10);
        check(&coo.to_csr(), &[1, 4], &[1, 2]);
    }

    #[test]
    fn padding_accounted_in_stored_nnz() {
        let csr = mixed(100);
        let exec = CvrExec::new(&csr, 2);
        assert!(exec.nnz_stored() >= exec.nnz_orig());
        // Padding only at stream tails: should be < 2 partitions * ω * max_row.
        let slack = exec.nnz_stored() - exec.nnz_orig();
        assert!(slack < 2 * OMEGA * 16);
    }

    #[test]
    fn lane_count_is_stream_width() {
        let csr = mixed(40);
        let exec = CvrExec::new(&csr, 1);
        assert_eq!(exec.partitions.len(), 1);
        assert_eq!(exec.partitions[0].vals.len() % OMEGA, 0);
    }
}
