//! Golden bits of the single-image solvers.
//!
//! Each case hashes the exact `to_bits` of the returned image and
//! residual trajectory (FNV-1a) and records the iteration count. The
//! constants were taken from the separate single-image loops that
//! `sirt`, `cgls` and `landweber` once had; the batched bodies at width 1
//! must reproduce them bit for bit.

use cscv_core::layout::ImageShape;
use cscv_core::{build, CscvExec, CscvParams, SinoLayout, Variant};
use cscv_recon::sirt::ReconResult;
use cscv_recon::{cgls, landweber, sirt, CscvOperator, SpmvOperator};
use cscv_sparse::{Coo, Csr, Scalar, ThreadPool};

/// FNV-1a over the little-endian bytes of every value's `f64` bits
/// (`f32 → f64` is exact, so no bit of an `f32` result is lost), image
/// first, then the residual trajectory.
fn fingerprint<T: Scalar>(r: &ReconResult<T>) -> (u64, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let values =
        r.x.iter()
            .map(|v| v.to_f64())
            .chain(r.residual_history.iter().copied());
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h, r.iterations)
}

/// A tall, dense-ish system with a seeded xorshift fill.
fn tall_system(m: usize, n: usize, seed: u64) -> Csr<f64> {
    let mut coo = Coo::new(m, n);
    let mut state = seed | 1;
    for r in 0..m {
        for c in 0..n {
            if (r + c) % 3 != 0 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                coo.push(r, c, 0.2 + (state % 1000) as f64 / 1000.0);
            }
        }
    }
    coo.to_csr()
}

fn rhs<T: Scalar>(csr: &Csr<T>) -> Vec<T> {
    let x: Vec<T> = (0..csr.n_cols())
        .map(|j| T::from_f64(1.0 + 0.1 * j as f64))
        .collect();
    let mut b = vec![T::ZERO; csr.n_rows()];
    csr.spmv_serial(&x, &mut b);
    b
}

#[test]
fn f64_solvers_through_the_csr_pair_keep_their_bits() {
    let csr = tall_system(40, 12, 88172645463325252);
    let op = SpmvOperator::csr_pair(&csr);
    let b = rhs(&csr);
    let pool = ThreadPool::new(1);
    let got = [
        fingerprint(&sirt(&op, &b, 30, 1.0, &pool)),
        fingerprint(&sirt(&op, &b, 25, 0.7, &pool)),
        fingerprint(&cgls(&op, &b, 200, 1e-6, &pool)),
        fingerprint(&cgls(&op, &b, 8, 0.0, &pool)),
        fingerprint(&cgls(&op, &b, 5, 1.0, &pool)),
        fingerprint(&landweber(&op, &b, 40, 1.0, &pool)),
    ];
    let want = [
        (11953699943975761781, 30),
        (396993529271231352, 25),
        (11019906111616072872, 11),
        (17326623401937638123, 8),
        (163202333136149157, 0),
        (6272786444359400572, 40),
    ];
    assert_eq!(got, want);
}

#[test]
fn f32_sirt_through_a_cscv_operator_keeps_its_bits() {
    let layout = SinoLayout {
        n_views: 8,
        n_bins: 10,
    };
    let img = ImageShape { nx: 4, ny: 4 };
    let mut coo: Coo<f32> = Coo::new(layout.n_rows(), 16);
    for col in 0..16usize {
        for v in 0..8usize {
            let val = 1.0 + col as f32 * 0.1 + v as f32 * 0.03;
            coo.push(layout.row_index(v, (v + col) % 9), col, val);
        }
    }
    let csr = coo.to_csr();
    let exec = CscvExec::new(build(
        &coo.to_csc(),
        layout,
        img,
        CscvParams::new(2, 8, 2),
        Variant::Z,
    ));
    let op = CscvOperator::new(exec, &csr);
    let b = rhs(&csr);
    let pool = ThreadPool::new(1);
    let got = fingerprint(&sirt(&op, &b, 20, 1.0, &pool));
    assert_eq!(got, (1018672379399774336, 20));
}
