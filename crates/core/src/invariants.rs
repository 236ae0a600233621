//! The CSCV structural invariants.
//!
//! Every invariant that the kernels in [`crate::kernels`] and
//! [`crate::exec`] *assume* — and that the builder in [`crate::builder`]
//! must therefore *establish* — has a stable ID in the table below and
//! one `check_*` function that re-derives it from the raw buffers. The
//! IDs serve three consumers:
//!
//! * [`CscvMatrix::validate_full`] runs every check and returns the
//!   full violation list (tests, the `cscv-xtask fuzz` differential
//!   fuzzer, and debugging);
//! * [`assert_valid`] is the hook the builder and `CscvExec::new` call
//!   at the end of every construction; it checks in every build with
//!   debug assertions (`cargo test` included) and reduces to an empty
//!   body in release builds, so they carry no checking cost;
//! * comments in `kernels.rs`/`exec.rs` cite IDs from this table
//!   instead of restating the argument.
//!
//! | ID | invariant (W = `S_VVec`, G = `S_VxG`) |
//! |----|-----------|
//! | `CSCV-U32-FIT` | `n_rows ≤ i32::MAX` (i32 scatter map), `n_cols ≤ u32::MAX` (u32 column ids), each block's `vals.len() ≤ u32::MAX` (u32 `val_ptr`) |
//! | `CSCV-GROUPS` | the layout has `n_rows` rows; group block ranges cover the blocks in order; group row ranges ascend, are disjoint and inside `n_rows`; each block names its own group; a group's nnz is its blocks' sum |
//! | `CSCV-PERM` | the ỹ scatter map is injective: no two slots of one block map to the same row |
//! | `CSCV-MAP-RANGE` | a block's map is whole lane blocks (`len % W == 0`), and each entry is −1 (no row) or a row inside its group's row range |
//! | `CSCV-VXG-BOUNDS` | VxG descriptor lengths agree (`vxg_count` n, `cols` n·G, `val_ptr` n+1); each VxG covers ≥ 1 offset, starts on a lane boundary, and its window `q..q+count·W` lies inside ỹ; member columns are `< n_cols` |
//! | `CSCV-VXG-SORT` | a block's VxGs ascend by offset count (paper Fig. 6b) |
//! | `CSCV-VALPTR` | `val_ptr` starts at 0, is monotone and ends at `vals.len()`; a VxG stores exactly count·G·W values (Z), at most that (M) |
//! | `CSCV-MASK-POPCNT` | Z: no masks. M: one mask per lane block, no bit at or above lane W, and each VxG's popcount equals its `val_ptr` span |
//! | `CSCV-PAD-ZERO` | Z: a block stores exactly `lane_slots` values, at most `nnz` of them nonzero. M: the value stream stores no zeros |
//! | `CSCV-STATS` | `lane_slots = nnz_orig + ioblr_padding + vxg_padding`, and `n_blocks`, `nnz_orig`, `lane_slots`, `n_vxg`, `max_ytil` match a recount over the blocks |
//!
//! The sparse-side counterparts (`CSR-PTR`, `CSC-IDX`, `COO-BOUNDS`, …)
//! live in `cscv_sparse::invariants`.

use crate::format::{CscvMatrix, Variant};
use cscv_simd::Scalar;

/// One violated invariant, attributed to a block where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant ID (e.g. `CSCV-PERM`).
    pub id: &'static str,
    /// Index into `CscvMatrix::blocks`, when block-local.
    pub block: Option<usize>,
    /// What exactly is wrong, with indices.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.block {
            Some(b) => write!(f, "[{}] block {b}: {}", self.id, self.detail),
            None => write!(f, "[{}] {}", self.id, self.detail),
        }
    }
}

impl<T: Scalar> CscvMatrix<T> {
    /// Run every invariant check; `Err` carries every violation, in the
    /// order of the module table, with its ID. This is what the
    /// differential fuzzer shrinks against and what [`assert_valid`]
    /// renders.
    pub fn validate_full(&self) -> Result<(), Vec<Violation>> {
        let mut out = Vec::new();
        check_u32_fit(self, &mut out);
        check_groups(self, &mut out);
        check_perm(self, &mut out);
        check_map_range(self, &mut out);
        check_vxg_bounds(self, &mut out);
        check_vxg_sort(self, &mut out);
        check_valptr(self, &mut out);
        check_mask_popcnt(self, &mut out);
        check_pad_zero(self, &mut out);
        check_stats(self, &mut out);
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }
}

/// Builder/conversion-boundary hook: panic with the full violation list
/// if the matrix breaks any invariant. No-op in release builds.
#[expect(
    clippy::panic,
    reason = "this is the validation boundary: a malformed matrix must stop the run with the full violation list"
)]
pub fn assert_valid<T: Scalar>(m: &CscvMatrix<T>, boundary: &str) {
    if cfg!(debug_assertions) {
        if let Err(violations) = m.validate_full() {
            let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "CSCV invariant violation after {boundary}:\n{}",
                rendered.join("\n")
            );
        }
    }
}

fn check_u32_fit<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    if m.n_rows > i32::MAX as usize {
        out.push(Violation {
            id: "CSCV-U32-FIT",
            block: None,
            detail: format!(
                "n_rows = {} exceeds i32::MAX (scatter map is i32)",
                m.n_rows
            ),
        });
    }
    if m.n_cols > u32::MAX as usize {
        out.push(Violation {
            id: "CSCV-U32-FIT",
            block: None,
            detail: format!(
                "n_cols = {} exceeds u32::MAX (column ids are u32)",
                m.n_cols
            ),
        });
    }
    for (bi, b) in m.blocks.iter().enumerate() {
        if b.vals.len() > u32::MAX as usize {
            out.push(Violation {
                id: "CSCV-U32-FIT",
                block: Some(bi),
                detail: format!(
                    "value stream of {} elements exceeds u32 val_ptr",
                    b.vals.len()
                ),
            });
        }
    }
}

fn check_groups<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let mut err = |detail: String| {
        out.push(Violation {
            id: "CSCV-GROUPS",
            block: None,
            detail,
        })
    };
    if m.layout.n_rows() != m.n_rows {
        err(format!(
            "layout rows {} != n_rows {}",
            m.layout.n_rows(),
            m.n_rows
        ));
    }
    let mut blocks_seen = 0usize;
    let mut prev_row_end = 0usize;
    for (gi, info) in m.groups.iter().enumerate() {
        if info.block_range.start != blocks_seen {
            err(format!(
                "group {gi} block_range starts at {} (expected {blocks_seen})",
                info.block_range.start
            ));
            return;
        }
        blocks_seen = info.block_range.end;
        if blocks_seen > m.blocks.len() {
            err(format!("group {gi} block_range ends past the block list"));
            return;
        }
        if info.row_range.start < prev_row_end && gi > 0 {
            err(format!(
                "group {gi} row range {:?} overlaps the previous group",
                info.row_range
            ));
        }
        prev_row_end = info.row_range.end;
        if info.row_range.end > m.n_rows {
            err(format!(
                "group {gi} row range {:?} exceeds n_rows {}",
                info.row_range, m.n_rows
            ));
        }
        let nnz: usize = m.blocks[info.block_range.clone()]
            .iter()
            .map(|b| b.nnz)
            .sum();
        if nnz != info.nnz {
            err(format!(
                "group {gi} records nnz {} but its blocks sum to {nnz}",
                info.nnz
            ));
        }
        for (bi, b) in m.blocks[info.block_range.clone()].iter().enumerate() {
            if b.group as usize != gi {
                err(format!(
                    "block {} claims group {} but lies in group {gi}'s range",
                    info.block_range.start + bi,
                    b.group
                ));
            }
        }
    }
    if blocks_seen != m.blocks.len() {
        err(format!(
            "groups cover {blocks_seen} blocks of {}",
            m.blocks.len()
        ));
    }
}

fn check_perm<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut rows: Vec<i32> = b.map.iter().copied().filter(|&r| r >= 0).collect();
        rows.sort_unstable();
        if let Some(w) = rows.windows(2).find(|w| w[0] == w[1]) {
            out.push(Violation {
                id: "CSCV-PERM",
                block: Some(bi),
                detail: format!("row {} appears in two ỹ slots", w[0]),
            });
        }
    }
}

fn check_map_range<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let w = m.params.s_vvec;
    for (gi, info) in m.groups.iter().enumerate() {
        let range = info.block_range.clone();
        if range.end > m.blocks.len() {
            continue; // reported by CSCV-GROUPS
        }
        for (bo, b) in m.blocks[range.clone()].iter().enumerate() {
            let bi = range.start + bo;
            if w > 0 && b.map.len() % w != 0 {
                out.push(Violation {
                    id: "CSCV-MAP-RANGE",
                    block: Some(bi),
                    detail: format!(
                        "map length {} is not whole lane blocks of {}",
                        b.map.len(),
                        w
                    ),
                });
            }
            for (slot, &row) in b.map.iter().enumerate() {
                if row < 0 {
                    continue;
                }
                if !info.row_range.contains(&(row as usize)) {
                    out.push(Violation {
                        id: "CSCV-MAP-RANGE",
                        block: Some(bi),
                        detail: format!(
                            "slot {slot} maps to row {row}, outside group {gi}'s range {:?}",
                            info.row_range
                        ),
                    });
                    break;
                }
            }
        }
    }
}

fn check_vxg_bounds<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let (w, g) = (m.params.s_vvec, m.params.s_vxg);
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            out.push(Violation {
                id: "CSCV-VXG-BOUNDS",
                block: Some(bi),
                detail,
            })
        };
        let n = b.vxg_q.len();
        if b.vxg_count.len() != n || b.cols.len() != n * g || b.val_ptr.len() != n + 1 {
            err(format!(
                "descriptor lengths disagree: q {} count {} cols {} (want {}) val_ptr {} (want {})",
                n,
                b.vxg_count.len(),
                b.cols.len(),
                n * g,
                b.val_ptr.len(),
                n + 1
            ));
            continue;
        }
        for i in 0..n {
            let q = b.vxg_q[i] as usize;
            let count = b.vxg_count[i] as usize;
            if count == 0 {
                err(format!("VxG {i} covers zero offsets"));
            }
            if w > 0 && !q.is_multiple_of(w) {
                err(format!(
                    "VxG {i} start slot {q} is not lane-aligned to {}",
                    w
                ));
            }
            if q + count * w > b.map.len() {
                err(format!(
                    "VxG {i} window {q}..{} leaves ỹ of {} slots",
                    q + count * w,
                    b.map.len()
                ));
            }
        }
        if let Some(&c) = b.cols.iter().find(|&&c| c as usize >= m.n_cols) {
            err(format!("member column {c} out of bounds (< {})", m.n_cols));
        }
    }
}

fn check_vxg_sort<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    for (bi, b) in m.blocks.iter().enumerate() {
        if let Some(i) = b.vxg_count.windows(2).position(|w| w[0] > w[1]) {
            out.push(Violation {
                id: "CSCV-VXG-SORT",
                block: Some(bi),
                detail: format!(
                    "VxG {} has count {} before VxG {} with count {}",
                    i,
                    b.vxg_count[i],
                    i + 1,
                    b.vxg_count[i + 1]
                ),
            });
        }
    }
}

fn check_valptr<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let (w, g) = (m.params.s_vvec, m.params.s_vxg);
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            out.push(Violation {
                id: "CSCV-VALPTR",
                block: Some(bi),
                detail,
            })
        };
        if b.val_ptr.len() != b.vxg_count.len() + 1 {
            continue; // reported by CSCV-VXG-BOUNDS
        }
        if b.val_ptr.first() != Some(&0) {
            err(format!(
                "val_ptr starts at {:?}, expected 0",
                b.val_ptr.first()
            ));
        }
        if b.val_ptr.last().map(|&p| p as usize) != Some(b.vals.len()) {
            err(format!(
                "val_ptr ends at {:?}, expected vals.len() = {}",
                b.val_ptr.last(),
                b.vals.len()
            ));
        }
        for i in 0..b.vxg_count.len() {
            let (lo, hi) = (b.val_ptr[i], b.val_ptr[i + 1]);
            if lo > hi {
                err(format!("val_ptr not monotone at VxG {i}: {lo} > {hi}"));
                break;
            }
            let span = (hi - lo) as usize;
            let full = b.vxg_count[i] as usize * g * w;
            match m.variant {
                Variant::Z if span != full => {
                    err(format!(
                        "VxG {i} stores {span} values, CSCV-Z requires {full}"
                    ));
                }
                Variant::M if span > full => {
                    err(format!(
                        "VxG {i} stores {span} values, above the {full} slot bound"
                    ));
                }
                _ => {}
            }
        }
    }
}

fn check_mask_popcnt<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let (w, g, mask_bytes) = (m.params.s_vvec, m.params.s_vxg, m.mask_bytes());
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            out.push(Violation {
                id: "CSCV-MASK-POPCNT",
                block: Some(bi),
                detail,
            })
        };
        if m.variant == Variant::Z {
            if !b.masks.is_empty() {
                err(format!("CSCV-Z block carries {} mask bytes", b.masks.len()));
            }
            continue;
        }
        if b.val_ptr.len() != b.vxg_count.len() + 1 {
            continue; // reported by CSCV-VXG-BOUNDS
        }
        let lane_blocks: usize = b.vxg_count.iter().map(|&c| c as usize * g).sum();
        if b.masks.len() != lane_blocks * mask_bytes {
            err(format!(
                "{} mask bytes for {lane_blocks} lane blocks of {} bytes each",
                b.masks.len(),
                mask_bytes
            ));
            continue;
        }
        let mut mask_at = 0usize;
        'vxg: for i in 0..b.vxg_count.len() {
            let blocks_here = b.vxg_count[i] as usize * g;
            let mut pop = 0usize;
            for lb in 0..blocks_here {
                let bytes = &b.masks[mask_at + lb * mask_bytes..mask_at + (lb + 1) * mask_bytes];
                let mut mask = 0u32;
                for (k, &byte) in bytes.iter().enumerate() {
                    mask |= (byte as u32) << (8 * k);
                }
                if w < 32 && (mask >> w) != 0 {
                    err(format!(
                        "VxG {i} lane block {lb} sets mask bits at or above lane {}",
                        w
                    ));
                    break 'vxg;
                }
                pop += mask.count_ones() as usize;
            }
            let span = (b.val_ptr[i + 1] - b.val_ptr[i]) as usize;
            if pop != span {
                err(format!(
                    "VxG {i} mask popcount {pop} != stored element count {span}"
                ));
                break;
            }
            mask_at += blocks_here * mask_bytes;
        }
    }
}

fn check_pad_zero<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let zero_vals = b.vals.iter().filter(|&&v| v == T::ZERO).count();
        let mut err = |detail: String| {
            out.push(Violation {
                id: "CSCV-PAD-ZERO",
                block: Some(bi),
                detail,
            })
        };
        match m.variant {
            Variant::Z => {
                if b.vals.len() != b.lane_slots {
                    err(format!(
                        "CSCV-Z stores {} values for {} lane slots",
                        b.vals.len(),
                        b.lane_slots
                    ));
                }
                let nonzero = b.vals.len() - zero_vals;
                if nonzero > b.nnz {
                    err(format!(
                        "{nonzero} nonzero stored values exceed the block's {} original nonzeros",
                        b.nnz
                    ));
                }
            }
            Variant::M => {
                if zero_vals != 0 {
                    err(format!(
                        "CSCV-M stream contains {} explicit zeros (padding must be mask-removed)",
                        zero_vals
                    ));
                }
            }
        }
    }
}

fn check_stats<T: Scalar>(m: &CscvMatrix<T>, out: &mut Vec<Violation>) {
    let mut err = |detail: String| {
        out.push(Violation {
            id: "CSCV-STATS",
            block: None,
            detail,
        })
    };
    let s = &m.stats;
    if s.lane_slots != s.nnz_orig + s.ioblr_padding + s.vxg_padding {
        err(format!(
            "lane_slots {} != nnz_orig {} + ioblr_padding {} + vxg_padding {}",
            s.lane_slots, s.nnz_orig, s.ioblr_padding, s.vxg_padding
        ));
    }
    if s.n_blocks != m.blocks.len() {
        err(format!(
            "n_blocks {} != actual block count {}",
            s.n_blocks,
            m.blocks.len()
        ));
    }
    let nnz_sum: usize = m.blocks.iter().map(|b| b.nnz).sum();
    if nnz_sum != s.nnz_orig {
        err(format!(
            "nnz_orig {} != sum of block nnz {nnz_sum}",
            s.nnz_orig
        ));
    }
    let slot_sum: usize = m.blocks.iter().map(|b| b.lane_slots).sum();
    if slot_sum != s.lane_slots {
        err(format!(
            "lane_slots {} != sum of block lane slots {slot_sum}",
            s.lane_slots
        ));
    }
    let vxg_sum: usize = m.blocks.iter().map(|b| b.vxg_q.len()).sum();
    if vxg_sum != s.n_vxg {
        err(format!("n_vxg {} != actual VxG count {vxg_sum}", s.n_vxg));
    }
    let ytil = m.blocks.iter().map(|b| b.map.len()).max().unwrap_or(0);
    if ytil != m.max_ytil {
        err(format!(
            "max_ytil {} != largest block ỹ length {ytil}",
            m.max_ytil
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::layout::{ImageShape, SinoLayout};
    use crate::params::CscvParams;
    use cscv_sparse::{Coo, Csc};

    fn ct_like(
        n_views: usize,
        n_bins: usize,
        nx: usize,
        ny: usize,
    ) -> (Csc<f64>, SinoLayout, ImageShape) {
        let layout = SinoLayout { n_views, n_bins };
        let img = ImageShape { nx, ny };
        let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
        for col in 0..img.n_pixels() {
            for v in 0..n_views {
                let base = (v + col) % (n_bins - 1);
                coo.push(layout.row_index(v, base), col, 1.0 + col as f64 * 0.01);
                coo.push(layout.row_index(v, base + 1), col, 0.5);
            }
        }
        (coo.to_csc(), layout, img)
    }

    fn build_pair() -> (CscvMatrix<f64>, CscvMatrix<f64>) {
        let (csc, layout, img) = ct_like(9, 14, 5, 4);
        let p = CscvParams::new(4, 4, 2);
        (
            build(&csc, layout, img, p, Variant::Z),
            build(&csc, layout, img, p, Variant::M),
        )
    }

    fn ids(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.id).collect()
    }

    #[test]
    fn built_matrices_pass_full_validation() {
        let (z, m) = build_pair();
        assert!(z.validate_full().is_ok());
        assert!(m.validate_full().is_ok());
        assert_valid(&z, "test");
        assert_valid(&m, "test");
    }

    #[test]
    fn corrupt_map_duplicate_row_is_cscv_perm() {
        let (mut z, _) = build_pair();
        // Point one slot at another slot's row.
        let b = &mut z.blocks[0];
        let existing = b
            .map
            .iter()
            .copied()
            .filter(|&r| r >= 0)
            .collect::<Vec<_>>();
        let dup = existing[0];
        let victim = b.map.iter().position(|&r| r >= 0 && r != dup).unwrap();
        b.map[victim] = dup;
        let errs = z.validate_full().unwrap_err();
        assert!(ids(&errs).contains(&"CSCV-PERM"), "got {:?}", ids(&errs));
    }

    #[test]
    fn corrupt_map_out_of_group_is_cscv_map_range() {
        let (mut z, _) = build_pair();
        // Rows of the *last* group are outside group 0's range.
        let bad_row = (z.n_rows - 1) as i32;
        let b = &mut z.blocks[0];
        let victim = b.map.iter().position(|&r| r >= 0).unwrap();
        b.map[victim] = bad_row;
        let errs = z.validate_full().unwrap_err();
        assert!(
            ids(&errs).contains(&"CSCV-MAP-RANGE"),
            "got {:?}",
            ids(&errs)
        );
    }

    #[test]
    fn corrupt_vxg_count_order_is_cscv_vxg_sort() {
        let (mut z, _) = build_pair();
        let bi = z
            .blocks
            .iter()
            .position(|b| b.vxg_count.len() >= 2)
            .expect("a block with two VxGs");
        // Swapping counts breaks the Fig. 6b ordering (and usually
        // VALPTR agreement too — we only require the SORT id to appear).
        z.blocks[bi].vxg_count.reverse();
        if z.blocks[bi].vxg_count.windows(2).all(|w| w[0] <= w[1]) {
            // All counts equal: force a strict inversion instead.
            z.blocks[bi].vxg_count[0] += 1;
            z.blocks[bi].vxg_count.reverse();
        }
        let errs = z.validate_full().unwrap_err();
        assert!(
            ids(&errs).contains(&"CSCV-VXG-SORT"),
            "got {:?}",
            ids(&errs)
        );
    }

    #[test]
    fn corrupt_val_ptr_is_cscv_valptr() {
        let (mut z, _) = build_pair();
        *z.blocks[0].val_ptr.last_mut().unwrap() += 1;
        let errs = z.validate_full().unwrap_err();
        assert!(ids(&errs).contains(&"CSCV-VALPTR"), "got {:?}", ids(&errs));
    }

    #[test]
    fn corrupt_mask_is_cscv_mask_popcnt() {
        let (_, mut m) = build_pair();
        let bi = m.blocks.iter().position(|b| !b.masks.is_empty()).unwrap();
        // Flip a low mask bit: popcount no longer matches the stream.
        m.blocks[bi].masks[0] ^= 0b1;
        let errs = m.validate_full().unwrap_err();
        assert!(
            ids(&errs).contains(&"CSCV-MASK-POPCNT"),
            "got {:?}",
            ids(&errs)
        );
    }

    #[test]
    fn zero_in_m_stream_is_cscv_pad_zero() {
        let (_, mut m) = build_pair();
        let bi = m.blocks.iter().position(|b| !b.vals.is_empty()).unwrap();
        m.blocks[bi].vals[0] = 0.0;
        let errs = m.validate_full().unwrap_err();
        assert!(
            ids(&errs).contains(&"CSCV-PAD-ZERO"),
            "got {:?}",
            ids(&errs)
        );
    }

    #[test]
    fn corrupt_stats_is_cscv_stats_warning() {
        let (mut z, _) = build_pair();
        z.stats.ioblr_padding += 1;
        let errs = z.validate_full().unwrap_err();
        assert!(ids(&errs).contains(&"CSCV-STATS"), "got {:?}", ids(&errs));
    }

    #[test]
    fn corrupt_group_nnz_is_cscv_groups() {
        let (mut z, _) = build_pair();
        z.groups[0].nnz += 1;
        let errs = z.validate_full().unwrap_err();
        assert!(ids(&errs).contains(&"CSCV-GROUPS"), "got {:?}", ids(&errs));
    }
}
