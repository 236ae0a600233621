//! Dataset preparation and executor fields — the glue every experiment
//! driver shares.

use cscv_core::layout::ImageShape;
use cscv_core::{build, CscvExec, CscvParams, SinoLayout, Variant};
use cscv_ct::system::SystemMatrix;
use cscv_ct::{CtDataset, Phantom};
use cscv_simd::MaskExpand;
use cscv_sparse::formats::{
    CscParallelExec, Csr5Exec, CsrExec, CvrExec, MergeCsrExec, SellCSigmaExec, Spc5Exec,
};
use cscv_sparse::{Csc, Csr, Scalar, SpmvExecutor};

/// A dataset with its assembled matrices and a realistic input vector.
pub struct PreparedDataset<T> {
    pub ds: CtDataset,
    pub csr: Csr<T>,
    pub csc: Csc<T>,
    pub layout: SinoLayout,
    pub img: ImageShape,
    /// Input image: the rasterized Shepp-Logan phantom (realistic value
    /// distribution rather than synthetic ones).
    pub x: Vec<T>,
}

/// Assemble the matrices for a dataset (strip projector model).
pub fn prepare<T: Scalar>(ds: &CtDataset) -> PreparedDataset<T> {
    let ct = ds.geometry();
    let csc = SystemMatrix::assemble_csc::<T>(&ct);
    let csr = csc.to_csr();
    let phantom = Phantom::shepp_logan().rasterize(&ct.grid);
    PreparedDataset {
        ds: *ds,
        csr,
        csc,
        layout: SinoLayout {
            n_views: ds.n_views,
            n_bins: ds.n_bins,
        },
        img: ImageShape {
            nx: ds.img,
            ny: ds.img,
        },
        x: phantom.into_iter().map(T::from_f64).collect(),
    }
}

/// Build a CSCV executor for a prepared dataset.
pub fn cscv_exec<T: Scalar + MaskExpand>(
    prep: &PreparedDataset<T>,
    params: CscvParams,
    variant: Variant,
) -> CscvExec<T> {
    CscvExec::new(build(&prep.csc, prep.layout, prep.img, params, variant))
}

/// Named executor constructors, lazily invoked so drivers can build one
/// implementation at a time (peak memory = matrices + one executor).
///
/// `threads_hint` shapes CVR's thread-dependent layout.
pub type ExecBuilder<T> = Box<dyn Fn(&PreparedDataset<T>, usize) -> Box<dyn SpmvExecutor<T>>>;

/// The full implementation field of the paper's experiments:
/// CSCV-Z, CSCV-M and the seven reproduced baselines.
pub fn executor_builders<T: Scalar + MaskExpand>() -> Vec<(&'static str, ExecBuilder<T>)> {
    vec![
        (
            "CSCV-Z",
            Box::new(|p: &PreparedDataset<T>, _| {
                Box::new(cscv_exec(p, CscvParams::default_z(), Variant::Z))
                    as Box<dyn SpmvExecutor<T>>
            }) as ExecBuilder<T>,
        ),
        (
            "CSCV-M",
            Box::new(|p: &PreparedDataset<T>, _| {
                Box::new(cscv_exec(p, CscvParams::default_m(), Variant::M))
            }),
        ),
        (
            "MKL-CSR(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(CsrExec::new(p.csr.clone()))),
        ),
        (
            "MKL-CSC(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(CscParallelExec::new(p.csc.clone()))),
        ),
        (
            "Merge(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(MergeCsrExec::new(p.csr.clone()))),
        ),
        (
            "CSR5(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(Csr5Exec::new(&p.csr))),
        ),
        (
            "ESB/SELL(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(SellCSigmaExec::new(&p.csr))),
        ),
        (
            "SPC5(analog)",
            Box::new(|p: &PreparedDataset<T>, _| Box::new(Spc5Exec::<T, 8>::new(&p.csr))),
        ),
        (
            "CVR(analog)",
            Box::new(|p: &PreparedDataset<T>, hint| Box::new(CvrExec::new(&p.csr, hint))),
        ),
    ]
}

/// Build every executor eagerly (small datasets / tests).
pub fn executor_field<T: Scalar + MaskExpand>(
    prep: &PreparedDataset<T>,
    threads_hint: usize,
) -> Vec<Box<dyn SpmvExecutor<T>>> {
    executor_builders::<T>()
        .into_iter()
        .map(|(_, b)| b(prep, threads_hint))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_ct::datasets;
    use cscv_sparse::{executor::validate_against, ThreadPool};

    #[test]
    fn every_field_member_matches_reference_f32() {
        let prep = prepare::<f32>(&datasets::tiny());
        let mut y_ref = vec![0.0f32; prep.csr.n_rows()];
        prep.csr.spmv_serial(&prep.x, &mut y_ref);
        let pool = ThreadPool::new(2);
        for (name, builder) in executor_builders::<f32>() {
            let exec = builder(&prep, 2);
            assert_eq!(exec.nnz_orig(), prep.csr.nnz(), "{name}");
            validate_against(exec.as_ref(), &prep.x, &y_ref, &pool, 5e-3);
        }
    }

    #[test]
    fn every_field_member_matches_reference_f64() {
        let prep = prepare::<f64>(&datasets::tiny());
        let mut y_ref = vec![0.0f64; prep.csr.n_rows()];
        prep.csr.spmv_serial(&prep.x, &mut y_ref);
        let pool = ThreadPool::new(3);
        for exec in executor_field::<f64>(&prep, 3) {
            validate_against(exec.as_ref(), &prep.x, &y_ref, &pool, 1e-10);
        }
    }

    /// No executor may skip work because of the input's values: a `+inf`
    /// matrix entry in a column whose `x` is zero must turn its row of
    /// `y` into NaN (`inf · 0`), as the serial CSR product does, for
    /// every field member at 1 and 2 threads, single and batched.
    #[test]
    fn no_executor_skips_a_zero_input_column() {
        let mut prep = prepare::<f64>(&datasets::tiny());
        let (n_rows, n_cols) = (prep.csc.n_rows(), prep.csc.n_cols());
        let c = (0..n_cols)
            .find(|&c| prep.x[c] == 0.0 && !prep.csc.col(c).0.is_empty())
            .expect("the phantom has a zero pixel in a covered column");
        let r = prep.csc.col(c).0[0] as usize;
        let mut vals = prep.csc.vals().to_vec();
        vals[prep.csc.col_ptr()[c]] = f64::INFINITY;
        prep.csc = Csc::from_parts(
            n_rows,
            n_cols,
            prep.csc.col_ptr().to_vec(),
            prep.csc.row_idx().to_vec(),
            vals,
        );
        prep.csr = prep.csc.to_csr();
        let mut y_ref = vec![0.0; n_rows];
        prep.csr.spmv_serial(&prep.x, &mut y_ref);
        assert!(y_ref[r].is_nan(), "reference row {r}: {}", y_ref[r]);

        const K: usize = 8;
        let xs = prep.x.repeat(K);
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            for (name, builder) in executor_builders::<f64>() {
                let exec = builder(&prep, threads);
                let mut y = vec![0.0; n_rows];
                exec.spmv(&prep.x, &mut y, &pool);
                assert!(
                    y[r].is_nan(),
                    "{name} at {threads} thread(s), spmv: {}",
                    y[r]
                );
                let mut ys = vec![0.0; K * n_rows];
                exec.spmv_multi(&xs, K, &mut ys, &pool);
                for k in 0..K {
                    let v = ys[k * n_rows + r];
                    assert!(
                        v.is_nan(),
                        "{name} at {threads} thread(s), k = {K}, slice {k}: {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_dataset_shapes() {
        let prep = prepare::<f32>(&datasets::tiny());
        assert_eq!(prep.csr.n_cols(), 1024);
        assert_eq!(prep.x.len(), 1024);
        assert_eq!(prep.csc.nnz(), prep.csr.nnz());
        // Phantom input is non-trivial.
        assert!(prep.x.iter().any(|&v| v != 0.0));
    }
}
