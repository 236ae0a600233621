//! [`cscv_recon::LinearOperator`] faces for sharded and local execution.
//!
//! [`ShardedOperator`] turns a running [`Cluster`] into an operator, so
//! every solver in `cscv-recon` (SIRT, CGLS, Landweber, …) runs across
//! worker processes unmodified. [`LocalOperator`] is the single-process
//! reference built through the **same** [`crate::worker::ShardBackend`] code
//! path the workers use — so the `workers = 1` comparison in the
//! sharded-reconstruction gate is byte-identical by construction, and any
//! multi-worker deviation is attributable to the merge arithmetic
//! alone (bounded by the fixed-order tree reduction).
//!
//! Threading note: the solvers pass a coordinator-side [`ThreadPool`]
//! into every call; both operators ignore it. Workers parallelize with
//! their own pools (sized by the cluster's `threads_per_worker`), and
//! the coordinator's collective work is placement plus the reduction.

use crate::cluster::{Cluster, ClusterStats};
use crate::worker::ShardBackend;
use cscv_core::layout::ImageShape;
use cscv_recon::LinearOperator;
use cscv_sparse::{Csr, ThreadPool};
use std::io;
use std::sync::{Mutex, MutexGuard};

/// A sharded cluster as a linear operator. Collectives are serialized
/// through a mutex (solvers issue them sequentially anyway); I/O
/// failures panic, since the trait has no error channel — a caller
/// treats that as worker death.
pub struct ShardedOperator {
    cluster: Mutex<Cluster>,
    n_rows: usize,
    n_cols: usize,
    abs_row: Vec<f64>,
    abs_col: Vec<f64>,
}

impl ShardedOperator {
    /// Wrap a started cluster, precomputing the SIRT weighting sums
    /// (one `AbsSums` collective).
    pub fn new(cluster: Cluster) -> io::Result<ShardedOperator> {
        let mut cluster = cluster;
        let (abs_row, abs_col) = cluster.abs_sums()?;
        Ok(ShardedOperator {
            n_rows: cluster.n_rows(),
            n_cols: cluster.n_cols(),
            cluster: Mutex::new(cluster),
            abs_row,
            abs_col,
        })
    }

    /// The cluster, locked for one collective.
    #[expect(
        clippy::expect_used,
        reason = "a panic while the lock was held left a collective half-sent; the wire session cannot resume"
    )]
    fn cluster(&self) -> MutexGuard<'_, Cluster> {
        self.cluster.lock().expect("cluster lock")
    }

    /// Snapshot cluster statistics (workers keep serving).
    pub fn stats(&self) -> io::Result<ClusterStats> {
        self.cluster().stats()
    }

    /// Shut the cluster down cleanly and return the final statistics.
    pub fn shutdown(self) -> io::Result<ClusterStats> {
        self.cluster
            .into_inner()
            .map_err(|_| io::Error::other("a collective panicked while holding the cluster"))?
            .shutdown()
    }
}

impl LinearOperator<f64> for ShardedOperator {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
    #[expect(
        clippy::expect_used,
        reason = "LinearOperator has no error channel; a failed collective must stop the solve"
    )]
    fn apply(&self, x: &[f64], y: &mut [f64], _pool: &ThreadPool) {
        self.cluster()
            .spmv(x, y)
            .expect("shard cluster I/O (forward)");
    }
    #[expect(
        clippy::expect_used,
        reason = "LinearOperator has no error channel; a failed collective must stop the solve"
    )]
    fn apply_transpose(&self, y: &[f64], x: &mut [f64], _pool: &ThreadPool) {
        self.cluster()
            .spmv_t(y, x)
            .expect("shard cluster I/O (adjoint)");
    }
    fn abs_row_sums(&self, _pool: &ThreadPool) -> Vec<f64> {
        self.abs_row.clone()
    }
    fn abs_col_sums(&self, _pool: &ThreadPool) -> Vec<f64> {
        self.abs_col.clone()
    }
}

/// The single-process reference operator: one [`ShardBackend`] holding
/// the whole matrix, built exactly as a worker would build it.
pub struct LocalOperator {
    backend: ShardBackend,
    abs_row: Vec<f64>,
    abs_col: Vec<f64>,
}

impl LocalOperator {
    /// Build from the full matrix. `layout` as in
    /// [`ShardBackend::build`]: `Some` view-aligned layout selects the
    /// CSCV executor, `None` the CSR pair. The last parameter is a
    /// no-op, kept only for the benchmark's shard-sirt call site
    /// (`cscv-benchmark/src/workloads.rs`), which passes
    /// [`crate::worker::env_cache`]'s `()`.
    pub fn new(
        csr: Csr<f64>,
        layout: Option<cscv_core::SinoLayout>,
        img: ImageShape,
        threads: usize,
        _: &mut (),
    ) -> LocalOperator {
        let backend = ShardBackend::build(csr, layout, img, threads);
        let (abs_row, abs_col) = backend.abs_sums();
        LocalOperator {
            backend,
            abs_row,
            abs_col,
        }
    }

    /// Executor name for reports.
    pub fn exec_name(&self) -> String {
        self.backend.exec_name()
    }
}

impl LinearOperator<f64> for LocalOperator {
    fn n_rows(&self) -> usize {
        self.backend.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.backend.n_cols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64], _pool: &ThreadPool) {
        y.copy_from_slice(&self.backend.spmv(x));
    }
    fn apply_transpose(&self, y: &[f64], x: &mut [f64], _pool: &ThreadPool) {
        x.copy_from_slice(&self.backend.spmv_t(y));
    }
    fn abs_row_sums(&self, _pool: &ThreadPool) -> Vec<f64> {
        self.abs_row.clone()
    }
    fn abs_col_sums(&self, _pool: &ThreadPool) -> Vec<f64> {
        self.abs_col.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Launch;
    use crate::plan::{PartitionMethod, ShardPlan};
    use cscv_core::SinoLayout;
    use cscv_sparse::Coo;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::new(12, 8);
        for r in 0..12usize {
            coo.push(r, r % 8, 1.0 + r as f64 * 0.5);
            coo.push(r, (r + 3) % 8, -0.25 * (r as f64 + 1.0));
        }
        coo.to_csr()
    }

    #[test]
    fn sharded_and_local_operators_agree() {
        let csr = sample();
        let img = ImageShape { nx: 4, ny: 2 };
        let row_nnz: Vec<usize> = (0..12).map(|r| csr.row(r).0.len()).collect();
        let plan = ShardPlan::new(&row_nnz, 2, 1, PartitionMethod::Bisect);
        let layout = SinoLayout {
            n_views: 0,
            n_bins: 0,
        };
        let cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
        let sharded = ShardedOperator::new(cluster).unwrap();
        let local = LocalOperator::new(csr, None, img, 1, &mut ());
        let pool = ThreadPool::new(1);

        assert_eq!(sharded.n_rows(), local.n_rows());
        assert_eq!(sharded.n_cols(), local.n_cols());
        assert_eq!(sharded.abs_row_sums(&pool), local.abs_row_sums(&pool));
        assert_eq!(sharded.abs_col_sums(&pool), local.abs_col_sums(&pool));

        let x: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let mut ys = vec![0.0; 12];
        let mut yl = vec![0.0; 12];
        sharded.apply(&x, &mut ys, &pool);
        local.apply(&x, &mut yl, &pool);
        assert_eq!(ys, yl, "forward is placement-only: exactly equal");

        let y: Vec<f64> = (0..12).map(|i| ((i * i) % 5) as f64 - 2.0).collect();
        let mut xs = vec![0.0; 8];
        let mut xl = vec![0.0; 8];
        sharded.apply_transpose(&y, &mut xs, &pool);
        local.apply_transpose(&y, &mut xl, &pool);
        for (a, b) in xs.iter().zip(&xl) {
            assert!((a - b).abs() < 1e-12);
        }
        sharded.shutdown().unwrap();
    }
}
