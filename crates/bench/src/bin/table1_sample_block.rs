//! E-T1: the paper's Table I sample matrix block, materialized.
//!
//! Builds the 25×25-image / 38-bin / 4°-step geometry, converts it to
//! CSCV with `S_VVec = 8`, `S_VxG = 2`, tile side 5, and prints the
//! structure of the block at image rows/cols \[5,9\] under the view group
//! starting at 32° — the exact object Figs. 3 and 6 illustrate: its
//! reference curve, CSCVE count, padding, and the (offset, count) VxG
//! list before/after ordering.
//!
//! Run: `cargo run --release -p cscv-bench --bin table1_sample_block`

use cscv_core::layout::{tiles, ImageShape};
use cscv_core::{build, CscvParams, SinoLayout, Variant};
use cscv_ct::datasets::table1_sample;
use cscv_ct::system::SystemMatrix;
use cscv_harness::table::Table;

fn main() {
    let _trace = cscv_bench::trace_report();
    let ds = table1_sample();
    let ct = ds.geometry();
    let csc = SystemMatrix::assemble_csc::<f32>(&ct);
    let layout = SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    };
    let img = ImageShape { nx: 25, ny: 25 };
    let params = CscvParams::new(5, 8, 2);
    let m = build(&csc, layout, img, params, Variant::Z);
    m.validate_full().unwrap();

    println!("Table I sample block configuration:");
    println!("  full image size   : 25 x 25");
    println!("  number of bins    : {}", ds.n_bins);
    println!("  delta angle       : {}°", ds.delta_angle_deg);
    println!("  image block range : rows [5,9], cols [5,9]");
    println!("  block start angle : 32° (view group 1: views 8..16)");
    println!("  S_VVec = 8, S_VxG = 2, tile side = 5");

    // Locate the block: view group 1 (views 8..16 = 32°..), tile with
    // x0 = 5, y0 = 5 (tile index 1 + 1*5 within the 5x5 tile grid).
    let tile_list = tiles(&img, 5);
    let tile_idx = tile_list
        .iter()
        .position(|t| t.x0 == 5 && t.y0 == 5)
        .expect("5x5 tiling contains the [5,9] tile");
    let group = 1usize; // views 8..16 start at 8*4° = 32°
    let info = &m.groups[group];
    // Blocks in a group appear in tile order, but empty tiles are
    // skipped; count non-empty tiles before ours.
    // All tiles of this geometry are non-empty, so index directly.
    let found = info.block_range.clone().nth(tile_idx);
    let blk = &m.blocks[found.expect("block exists")];

    println!("\nBlock structure:");
    println!("  nonzeros          : {}", blk.nnz);
    println!("  lane slots        : {}", blk.lane_slots);
    println!(
        "  zero padding      : {} (block R_nnzE = {:.3})",
        blk.lane_slots - blk.nnz,
        blk.lane_slots as f64 / blk.nnz as f64 - 1.0
    );
    println!("  ỹ length          : {}", blk.ytil_len());
    println!("  VxGs              : {}", blk.n_vxgs());

    let mut t = Table::new(vec!["VxG", "offset (q/W)", "count", "cols"]);
    for i in 0..blk.n_vxgs() {
        let cols = &blk.cols[i * 2..(i + 1) * 2];
        t.add_row(vec![
            i.to_string(),
            (blk.vxg_q[i] / 8).to_string(),
            blk.vxg_count[i].to_string(),
            format!("{},{}", cols[0], cols[1]),
        ]);
    }
    println!(
        "\nVxG list (sorted by count, as in Fig. 6b):\n{}",
        t.render()
    );

    println!("whole-matrix stats at these parameters:");
    println!("  R_nnzE            : {:.3}", m.stats.r_nnze());
    println!("  CSCVEs            : {}", m.stats.n_cscve);
    println!("  VxGs              : {}", m.stats.n_vxg);
    println!("  blocks            : {}", m.stats.n_blocks);
}
