//! Golden bits of the set-up pipeline.
//!
//! Each case hashes (FNV-1a) every array of the assembled CSC of
//! `datasets::tiny()`, of its CSR, and of the CSCV-Z/M matrices built
//! from it: block arrays, group table, statistics and scratch size. The
//! constants were taken from the serial set-up, so the parallel stages
//! must reproduce it bit for bit, whatever the machine's core count.

use cscv_core::layout::ImageShape;
use cscv_core::{build, build_with_curves, CscvMatrix, ExecConfig, SinoLayout, Variant};
use cscv_ct::datasets::tiny;
use cscv_ct::system::{GeometricCurves, SystemMatrix};
use cscv_sparse::{Csc, Csr, Scalar};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn n(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn ns(&mut self, vs: impl IntoIterator<Item = usize>) {
        for v in vs {
            self.n(v);
        }
    }

    /// Values by their `f64` bits (`f32 → f64` is exact).
    fn vals<T: Scalar>(&mut self, vs: &[T]) {
        self.n(vs.len());
        for v in vs {
            self.bytes(&v.to_f64().to_bits().to_le_bytes());
        }
    }
}

fn hash_csc<T: Scalar>(m: &Csc<T>) -> u64 {
    let mut h = Fnv::new();
    h.ns([m.n_rows(), m.n_cols()]);
    h.ns(m.col_ptr().iter().copied());
    h.ns(m.row_idx().iter().map(|&r| r as usize));
    h.vals(m.vals());
    h.0
}

fn hash_csr<T: Scalar>(m: &Csr<T>) -> u64 {
    let mut h = Fnv::new();
    h.ns([m.n_rows(), m.n_cols()]);
    h.ns(m.row_ptr().iter().copied());
    h.ns(m.col_idx().iter().map(|&c| c as usize));
    h.vals(m.vals());
    h.0
}

fn hash_cscv<T: Scalar>(m: &CscvMatrix<T>) -> u64 {
    let mut h = Fnv::new();
    h.ns([m.n_rows, m.n_cols, m.max_ytil, m.blocks.len()]);
    for b in &m.blocks {
        h.ns([b.group as usize, b.tile as usize, b.nnz, b.lane_slots]);
        h.n(b.map.len());
        h.ns(b.map.iter().map(|&r| r as u32 as usize));
        h.n(b.vxg_q.len());
        h.ns(b.vxg_q.iter().map(|&q| q as usize));
        h.ns(b.vxg_count.iter().map(|&c| c as usize));
        h.ns(b.cols.iter().map(|&c| c as usize));
        h.ns(b.val_ptr.iter().map(|&p| p as usize));
        h.vals(&b.vals);
        h.n(b.masks.len());
        h.bytes(&b.masks);
    }
    for g in &m.groups {
        h.ns([
            g.block_range.start,
            g.block_range.end,
            g.row_range.start,
            g.row_range.end,
            g.nnz,
        ]);
    }
    let s = m.stats;
    h.ns([
        s.nnz_orig,
        s.lane_slots,
        s.ioblr_padding,
        s.vxg_padding,
        s.n_cscve,
        s.n_vxg,
        s.n_blocks,
    ]);
    h.0
}

/// Hashes of the CSC, the CSR, CSCV-Z, CSCV-M (data-driven curves) and
/// CSCV-Z (geometric curves), each at its heuristic parameters.
fn pipeline<T: Scalar>() -> [u64; 5] {
    let ds = tiny();
    let ct = ds.geometry();
    let layout = SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    };
    let img = ImageShape {
        nx: ds.img,
        ny: ds.img,
    };
    let csc = SystemMatrix::assemble_csc::<T>(&ct);
    let csr = csc.to_csr();
    let z = ExecConfig::heuristic(Variant::Z).params;
    let m = ExecConfig::heuristic(Variant::M).params;
    let geo = build_with_curves(&csc, layout, img, z, Variant::Z, &GeometricCurves::new(&ct));
    [
        hash_csc(&csc),
        hash_csr(&csr),
        hash_cscv(&build(&csc, layout, img, z, Variant::Z)),
        hash_cscv(&build(&csc, layout, img, m, Variant::M)),
        hash_cscv(&geo),
    ]
}

#[test]
fn f32_set_up_keeps_its_bits() {
    assert_eq!(
        pipeline::<f32>(),
        [
            12552288678651881683,
            5571653448084422205,
            1570075682765685644,
            18333099749830421527,
            6451379334907914383,
        ]
    );
}

#[test]
fn f64_set_up_keeps_its_bits() {
    assert_eq!(
        pipeline::<f64>(),
        [
            17664151417033315855,
            4144154716699415757,
            15930829891353271444,
            7728917840327586187,
            16878137391528996315,
        ]
    );
}
