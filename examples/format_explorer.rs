//! Format explorer: inspect how CSCV lays out a matrix block-by-block.
//!
//! Prints, for a small CT matrix, the anatomy the paper's Figs. 3 and 6
//! describe: per-block reference curves, CSCVE spans, VxG composition,
//! and where the padding comes from — then contrasts the storage bills
//! of CSC, CSCV-Z and CSCV-M.
//!
//! Run: `cargo run --release --example format_explorer`

use cscv_repro::core::ioblr::{min_bin_per_view, RefCurve};
use cscv_repro::prelude::*;

fn main() {
    // Traced builds report at exit (NDJSON to CSCV_TRACE_OUT if set).
    let _trace = cscv_repro::trace::report_guard();
    let ds = cscv_repro::ct::datasets::tiny();
    let geom = ds.geometry();
    let a: Csc<f32> = SystemMatrix::assemble_csc(&geom);
    let layout = SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    };
    let img = ImageShape {
        nx: ds.img,
        ny: ds.img,
    };

    println!(
        "matrix: {}×{}, nnz {} ({} views × {} bins, {}² pixels)\n",
        a.n_rows(),
        a.n_cols(),
        a.nnz(),
        ds.n_views,
        ds.n_bins,
        ds.img
    );

    // One pixel's trajectory: the raw material of a CSCV column.
    let col = img.col_index(10, 20);
    println!("trajectory of pixel (10,20) — (view, bin, weight), first 12 entries:");
    for (v, b, w) in SystemMatrix::col_entries(&geom, col).into_iter().take(12) {
        println!("  view {v:>2}  bin {b:>2}  weight {w:.3}");
    }

    // Its reference-relative offsets in view group 0.
    let views = 0..8usize;
    let ref_col = img.col_index(ds.img / 2, ds.img / 2);
    let curve = RefCurve::from_min_bins(&min_bin_per_view(&a, &layout, ref_col, &views))
        .expect("center pixel projects");
    println!("\nreference curve r(v) of the image-center pixel, views 0..8:");
    let bins: Vec<i64> = (0..8).map(|v| curve.bin(v)).collect();
    println!("  {bins:?}");

    // Build both variants at a couple of parameter choices and compare.
    println!("\nstorage comparison (matrix bytes only):");
    println!("  CSC                      : {:>9} B", a.matrix_bytes());
    for (label, params, variant) in [
        (
            "CSCV-Z (ImgB=8, W=8, G=2)",
            CscvParams::new(8, 8, 2),
            Variant::Z,
        ),
        (
            "CSCV-M (ImgB=8, W=8, G=2)",
            CscvParams::new(8, 8, 2),
            Variant::M,
        ),
        (
            "CSCV-Z (ImgB=16, W=16, G=4)",
            CscvParams::new(16, 16, 4),
            Variant::Z,
        ),
        (
            "CSCV-M (ImgB=16, W=16, G=4)",
            CscvParams::new(16, 16, 4),
            Variant::M,
        ),
    ] {
        let m = build(&a, layout, img, params, variant);
        m.validate_full().unwrap();
        let stats = m.stats;
        let exec = CscvExec::new(m);
        println!(
            "  {label:<25}: {:>9} B  (R_nnzE {:.3} = IOBLR {:.3} + VxG {:.3}; {} blocks, {} VxGs)",
            exec.matrix_bytes(),
            stats.r_nnze(),
            stats.ioblr_padding as f64 / stats.nnz_orig as f64,
            stats.vxg_padding as f64 / stats.nnz_orig as f64,
            stats.n_blocks,
            stats.n_vxg,
        );
    }

    // Detail of one block's VxGs.
    let m = build(&a, layout, img, CscvParams::new(8, 8, 2), Variant::Z);
    let blk = &m.blocks[0];
    println!(
        "\nfirst block: {} nnz, ỹ length {}, {} VxGs; first 8 VxGs (q, count, cols):",
        blk.nnz,
        blk.ytil_len(),
        blk.n_vxgs()
    );
    for i in 0..blk.n_vxgs().min(8) {
        println!(
            "  VxG {i}: q={:>3} count={} cols={:?}",
            blk.vxg_q[i],
            blk.vxg_count[i],
            &blk.cols[i * 2..(i + 1) * 2]
        );
    }
}
