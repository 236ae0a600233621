//! Partitioner properties over the fuzz matrix families.
//!
//! Both balancers must deliver, for every generated matrix and every
//! (shard count, block size) combination:
//!
//! * **exact coverage** — the ranges tile `0..n_rows` in order with no
//!   gap and no overlap (disjointness is implied by contiguity);
//! * **block alignment** — every boundary is a multiple of `block_rows`;
//! * **nnz conservation** — per-shard nonzero counts sum to the total;
//! * **the documented balance bound** — `max shard nnz ≤ mean +
//!   w_max·⌈log₂ k⌉` with `w_max` the heaviest indivisible block (see
//!   `cscv_shard::plan` module docs);
//! * **stripe ≤ bisect** — stripe's heaviest shard is never heavier
//!   than bisect's.

use cscv_harness::gen::{generate, random_desc, CaseDesc};
use cscv_shard::{slice_rows, PartitionMethod, ShardPlan};
use cscv_sparse::Csr;

const METHODS: [PartitionMethod; 2] = [PartitionMethod::Stripe, PartitionMethod::Bisect];

/// Per-row nonzero counts of a generated case's CSR form.
fn family_rows(seed: u64) -> (CaseDesc, Csr<f64>, Vec<usize>) {
    let desc = random_desc(seed);
    let csr = generate(&desc).to_csr();
    let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
    (desc, csr, row_nnz)
}

/// Block sizes that evenly divide `n_rows`, always including 1 and (for
/// CT-shaped cases) the view-aligned `n_bins`.
fn block_sizes(desc: &CaseDesc, n_rows: usize) -> Vec<usize> {
    let mut out = vec![1];
    if desc.n_bins > 1 && n_rows.is_multiple_of(desc.n_bins) {
        out.push(desc.n_bins);
    }
    out
}

#[test]
fn every_family_is_covered_disjoint_and_aligned() {
    for seed in 0..150u64 {
        let (desc, _, row_nnz) = family_rows(seed);
        for block_rows in block_sizes(&desc, row_nnz.len()) {
            for k in [1usize, 2, 3, 4, 7, 16] {
                for method in METHODS {
                    let plan = ShardPlan::new(&row_nnz, k, block_rows, method);
                    assert_eq!(plan.n_shards(), k, "seed {seed} {method:?} k={k}");
                    assert!(plan.is_block_aligned(), "seed {seed} {method:?} k={k}");
                    // Contiguous tiling: each range starts where the
                    // previous ended; the first starts at 0, the last
                    // ends at n_rows. Coverage and disjointness both
                    // follow.
                    let mut cursor = 0usize;
                    for r in &plan.ranges {
                        assert_eq!(r.start, cursor, "gap/overlap at seed {seed} {method:?}");
                        assert!(r.end >= r.start);
                        cursor = r.end;
                    }
                    assert_eq!(cursor, row_nnz.len(), "seed {seed} {method:?} k={k}");
                    let total: usize = plan.shard_nnz(&row_nnz).iter().sum();
                    assert_eq!(total, row_nnz.iter().sum::<usize>(), "nnz not conserved");
                }
            }
        }
    }
}

#[test]
fn balance_bound_holds_for_both_methods() {
    for seed in 0..150u64 {
        let (desc, _, row_nnz) = family_rows(seed);
        let total: usize = row_nnz.iter().sum();
        if total == 0 {
            continue; // empty families satisfy any bound trivially
        }
        for block_rows in block_sizes(&desc, row_nnz.len()) {
            let n_blocks = row_nnz.len() / block_rows;
            let w_max = (0..n_blocks)
                .map(|b| row_nnz[b * block_rows..(b + 1) * block_rows].iter().sum())
                .max()
                .unwrap_or(0usize);
            for k in [2usize, 3, 4, 7, 16] {
                for method in METHODS {
                    let plan = ShardPlan::new(&row_nnz, k, block_rows, method);
                    let max = plan.shard_nnz(&row_nnz).into_iter().max().unwrap();
                    let mean = total as f64 / k as f64;
                    let levels = (k as f64).log2().ceil();
                    let bound = mean + w_max as f64 * levels;
                    assert!(
                        max as f64 <= bound + 1.0,
                        "seed {seed} {method:?} k={k} block={block_rows}: \
                         max {max} > bound {bound:.1} (mean {mean:.1}, w_max {w_max})"
                    );
                    assert!(plan.imbalance(&row_nnz) >= 1.0 - 1e-12);
                }
            }
        }
    }
}

/// Stripe returns the contiguous split whose heaviest shard is
/// lightest, and bisect returns some contiguous split: stripe's heaviest
/// shard is never heavier.
#[test]
fn stripe_is_never_worse_than_bisect() {
    for seed in 0..150u64 {
        let (desc, _, row_nnz) = family_rows(seed);
        for block_rows in block_sizes(&desc, row_nnz.len()) {
            for k in [2usize, 3, 4, 7, 16] {
                let heaviest = |method| {
                    let plan = ShardPlan::new(&row_nnz, k, block_rows, method);
                    plan.shard_nnz(&row_nnz).into_iter().max().unwrap()
                };
                let (stripe, bisect) = (
                    heaviest(PartitionMethod::Stripe),
                    heaviest(PartitionMethod::Bisect),
                );
                assert!(
                    stripe <= bisect,
                    "seed {seed} k={k} block={block_rows}: stripe {stripe} > bisect {bisect}"
                );
            }
        }
    }
}

#[test]
fn sliced_shards_reassemble_the_matrix() {
    for seed in 0..60u64 {
        let (desc, csr, row_nnz) = family_rows(seed);
        for block_rows in block_sizes(&desc, row_nnz.len()) {
            let plan = ShardPlan::new(&row_nnz, 3, block_rows, PartitionMethod::Bisect);
            let mut row = 0usize;
            for range in &plan.ranges {
                let shard = slice_rows(&csr, range.clone());
                assert_eq!(shard.n_rows(), range.len());
                assert_eq!(shard.n_cols(), csr.n_cols());
                for local in 0..shard.n_rows() {
                    let (gc, gv) = csr.row(row);
                    let (sc, sv) = shard.row(local);
                    assert_eq!(gc, sc, "seed {seed} row {row}: column mismatch");
                    assert_eq!(gv, sv, "seed {seed} row {row}: value mismatch");
                    row += 1;
                }
            }
            assert_eq!(row, csr.n_rows());
        }
    }
}

/// Bisection should never do *worse* than the documented bound even on
/// adversarially skewed weights (one huge block among ones).
#[test]
fn bisect_handles_one_dominant_block() {
    let mut row_nnz = vec![1usize; 64];
    row_nnz[40] = 10_000;
    for k in [2usize, 3, 4, 8] {
        for method in METHODS {
            let plan = ShardPlan::new(&row_nnz, k, 1, method);
            let loads = plan.shard_nnz(&row_nnz);
            // The dominant block must land alone-ish: no shard may hold
            // the big block plus more than the bound's slack.
            let max = *loads.iter().max().unwrap();
            assert!(
                max <= 10_000 + 63,
                "{method:?} k={k}: max {max} exceeds dominant block + rest"
            );
        }
    }
}
