//! The CSCV structural-invariant catalog.
//!
//! Every invariant that the kernels in [`crate::kernels`] and
//! [`crate::exec`] *assume* — and that the builder in [`crate::builder`]
//! must therefore *establish* — is enumerated here as data: a stable ID,
//! a severity, the format layer it belongs to, a prose statement, and an
//! executable checker. The catalog serves four consumers:
//!
//! * [`CscvMatrix::validate_full`] runs every checker and returns the
//!   full violation list (tests, the `cscv-xtask fuzz` differential
//!   fuzzer, and debugging);
//! * [`assert_valid`] is the hook the builder calls at the end of every
//!   construction; it checks in every build with debug assertions
//!   (`cargo test` included) and reduces to an empty body in release
//!   builds, so they carry no checking cost;
//! * SAFETY comments in `kernels.rs`/`exec.rs` cite IDs from this table
//!   instead of restating the argument;
//! * docs (DESIGN.md "Correctness tooling") render the table.
//!
//! | ID                | layer  | invariant                                              |
//! |-------------------|--------|--------------------------------------------------------|
//! | `CSCV-U32-FIT`    | index  | dims fit the compressed index types (i32 map, u32 ptr) |
//! | `CSCV-GROUPS`     | group  | groups partition blocks; row ranges disjoint ascending |
//! | `CSCV-PERM`       | ioblr  | ỹ scatter map is injective on physical rows            |
//! | `CSCV-MAP-RANGE`  | ioblr  | map entries are −1 or rows inside the group's range    |
//! | `CSCV-VXG-BOUNDS` | vxg    | VxG descriptor arrays agree; VxGs stay inside ỹ        |
//! | `CSCV-VXG-SORT`   | vxg    | VxGs sorted by offset count (paper Fig. 6b)            |
//! | `CSCV-VALPTR`     | stream | val_ptr is a monotone prefix ending at vals.len()      |
//! | `CSCV-MASK-POPCNT`| stream | mask popcounts equal stored-element counts (CSCV-M)    |
//! | `CSCV-PAD-ZERO`   | stream | padding slots are zero (Z) / absent (M)                |
//! | `CSCV-STATS`      | stats  | lane_slots = nnz + ioblr_padding + vxg_padding etc.    |
//!
//! The sparse-side counterparts (`CSR-PTR`, `CSC-IDX`, `COO-BOUNDS`, …)
//! live in `cscv_sparse::invariants`.

use crate::format::{CscvMatrix, CscvStats, GroupInfo, Variant};
use cscv_simd::Scalar;

/// How bad a violation of the invariant is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Kernels may read or write out of bounds, or silently compute a
    /// wrong product.
    Error,
    /// The product stays correct but a model quantity (stats, padding
    /// accounting) is off.
    Warning,
}

/// Which layer of the format the invariant constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Index-width compression (u32/i32/u16 fields).
    Index,
    /// View-group / block partitioning.
    Group,
    /// IOBLR re-addressing and the ỹ scatter map.
    Ioblr,
    /// VxG packing (descriptor arrays, Fig. 6 ordering).
    Vxg,
    /// The value stream and CSCV-M masks.
    Stream,
    /// Aggregate statistics (Fig. 8 / Table III quantities).
    Stats,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Layer::Index => "index",
            Layer::Group => "group",
            Layer::Ioblr => "ioblr",
            Layer::Vxg => "vxg",
            Layer::Stream => "stream",
            Layer::Stats => "stats",
        };
        f.write_str(s)
    }
}

/// One violated invariant, attributed to a block where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Catalog ID (e.g. `CSCV-PERM`).
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

/// One catalog entry: the invariant as data plus its executable checker.
///
/// Checkers are plain `fn` pointers over the scalar-erased
/// [`MatrixView`], so the catalog itself is a `const` table independent
/// of the element type.
pub struct Invariant {
    pub id: &'static str,
    pub severity: Severity,
    pub layer: Layer,
    /// One-sentence statement (rendered into docs and fuzz reports).
    pub desc: &'static str,
    /// The checker: reports each violation through the sink.
    pub check: fn(&MatrixView, &mut dyn FnMut(Violation)),
}

/// Scalar-erased view of one block (everything the checkers need).
pub struct BlockView<'a> {
    pub group: u32,
    pub map: &'a [i32],
    pub vxg_q: &'a [u32],
    pub vxg_count: &'a [u16],
    pub cols: &'a [u32],
    pub val_ptr: &'a [u32],
    pub masks: &'a [u8],
    /// `vals.len()` of the typed block.
    pub vals_len: usize,
    /// How many stored values are exactly zero.
    pub zero_vals: usize,
    pub nnz: usize,
    pub lane_slots: usize,
}

/// Scalar-erased view of a whole [`CscvMatrix`], consumed by the catalog
/// checkers.
pub struct MatrixView<'a> {
    pub n_rows: usize,
    pub n_cols: usize,
    /// `S_VVec` (lane count `W`).
    pub w: usize,
    /// `S_VxG` (columns per VxG).
    pub g: usize,
    pub variant: Variant,
    pub mask_bytes: usize,
    pub layout_rows: usize,
    pub blocks: Vec<BlockView<'a>>,
    pub groups: &'a [GroupInfo],
    pub stats: CscvStats,
    pub max_ytil: usize,
}

impl<T: Scalar> CscvMatrix<T> {
    /// Scalar-erased view for the invariant checkers.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            w: self.params.s_vvec,
            g: self.params.s_vxg,
            variant: self.variant,
            mask_bytes: self.mask_bytes(),
            layout_rows: self.layout.n_rows(),
            blocks: self
                .blocks
                .iter()
                .map(|b| BlockView {
                    group: b.group,
                    map: &b.map,
                    vxg_q: &b.vxg_q,
                    vxg_count: &b.vxg_count,
                    cols: &b.cols,
                    val_ptr: &b.val_ptr,
                    masks: &b.masks,
                    vals_len: b.vals.len(),
                    zero_vals: b.vals.iter().filter(|&&v| v == T::ZERO).count(),
                    nnz: b.nnz,
                    lane_slots: b.lane_slots,
                })
                .collect(),
            groups: &self.groups,
            stats: self.stats,
            max_ytil: self.max_ytil,
        }
    }

    /// Run the full invariant catalog; `Err` carries every violation.
    ///
    /// Unlike [`CscvMatrix::validate`] (assert-based, stops at the first
    /// problem) this reports the complete list with catalog IDs, which is
    /// what the differential fuzzer shrinks against.
    pub fn validate_full(&self) -> Result<(), Vec<Violation>> {
        let view = self.view();
        let mut out = Vec::new();
        for inv in CATALOG {
            (inv.check)(&view, &mut |v| out.push(v));
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }
}

/// Builder/conversion-boundary hook: panic with the full violation list
/// if the matrix breaks any catalog invariant. No-op in release builds.
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

/// The catalog. Order is the order violations are reported in.
pub const CATALOG: &[Invariant] = &[
    Invariant {
        id: "CSCV-U32-FIT",
        severity: Severity::Error,
        layer: Layer::Index,
        desc: "dimensions and per-block stream lengths fit the compressed \
               index types: n_rows <= i32::MAX (i32 scatter map), \
               n_cols <= u32::MAX (u32 column ids), vals.len() <= u32::MAX \
               per block (u32 val_ptr)",
        check: check_u32_fit,
    },
    Invariant {
        id: "CSCV-GROUPS",
        severity: Severity::Error,
        layer: Layer::Group,
        desc: "group block_ranges are a contiguous partition of blocks, \
               row ranges are ascending, disjoint and in-bounds, and group \
               nnz equals the sum over its blocks",
        check: check_groups,
    },
    Invariant {
        id: "CSCV-PERM",
        severity: Severity::Error,
        layer: Layer::Ioblr,
        desc: "the IOBLR re-addressing is injective: no two ỹ slots of one \
               block scatter to the same global row (scatter_add may \
               otherwise double-count)",
        check: check_perm,
    },
    Invariant {
        id: "CSCV-MAP-RANGE",
        severity: Severity::Error,
        layer: Layer::Ioblr,
        desc: "every scatter-map entry is -1 (padding slot) or a row inside \
               the owning group's row range, and the map is whole lane \
               blocks (len % W == 0)",
        check: check_map_range,
    },
    Invariant {
        id: "CSCV-VXG-BOUNDS",
        severity: Severity::Error,
        layer: Layer::Vxg,
        desc: "VxG descriptor arrays agree in length (count: n, cols: n*G, \
               val_ptr: n+1), each VxG's slot window q..q+count*W lies \
               inside ỹ on a lane boundary, and member columns are < n_cols",
        check: check_vxg_bounds,
    },
    Invariant {
        id: "CSCV-VXG-SORT",
        severity: Severity::Error,
        layer: Layer::Vxg,
        desc: "VxGs of a block are sorted by ascending offset count \
               (paper Fig. 6b) so the kernel's count-bucketed dispatch \
               runs monotone",
        check: check_vxg_sort,
    },
    Invariant {
        id: "CSCV-VALPTR",
        severity: Severity::Error,
        layer: Layer::Stream,
        desc: "val_ptr starts at 0, is monotone, ends at vals.len(); each \
               VxG's slice is exactly count*G*W values for CSCV-Z and at \
               most that for CSCV-M",
        check: check_valptr,
    },
    Invariant {
        id: "CSCV-MASK-POPCNT",
        severity: Severity::Error,
        layer: Layer::Stream,
        desc: "CSCV-M: one mask per lane block, popcount sum per VxG equals \
               its val_ptr span, bits >= W are clear; CSCV-Z: no masks",
        check: check_mask_popcnt,
    },
    Invariant {
        id: "CSCV-PAD-ZERO",
        severity: Severity::Error,
        layer: Layer::Stream,
        desc: "padding placement: CSCV-Z stores exactly lane_slots values of \
               which at most nnz are nonzero; CSCV-M stores no zeros at all",
        check: check_pad_zero,
    },
    Invariant {
        id: "CSCV-STATS",
        severity: Severity::Warning,
        layer: Layer::Stats,
        desc: "stats bookkeeping: lane_slots = nnz_orig + ioblr_padding + \
               vxg_padding, block/nnz/vxg counts and max_ytil match the \
               blocks",
        check: check_stats,
    },
];

/// Look up a catalog entry by ID (used by docs tests and the fuzzer's
/// reporting).
pub fn by_id(id: &str) -> Option<&'static Invariant> {
    CATALOG.iter().find(|i| i.id == id)
}

fn check_u32_fit(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    if m.n_rows > i32::MAX as usize {
        sink(Violation {
            id: "CSCV-U32-FIT",
            block: None,
            detail: format!(
                "n_rows = {} exceeds i32::MAX (scatter map is i32)",
                m.n_rows
            ),
        });
    }
    if m.n_cols > u32::MAX as usize {
        sink(Violation {
            id: "CSCV-U32-FIT",
            block: None,
            detail: format!(
                "n_cols = {} exceeds u32::MAX (column ids are u32)",
                m.n_cols
            ),
        });
    }
    for (bi, b) in m.blocks.iter().enumerate() {
        if b.vals_len > u32::MAX as usize {
            sink(Violation {
                id: "CSCV-U32-FIT",
                block: Some(bi),
                detail: format!(
                    "value stream of {} elements exceeds u32 val_ptr",
                    b.vals_len
                ),
            });
        }
    }
}

fn check_groups(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    let mut err = |detail: String| {
        sink(Violation {
            id: "CSCV-GROUPS",
            block: None,
            detail,
        })
    };
    if m.layout_rows != m.n_rows {
        err(format!(
            "layout rows {} != n_rows {}",
            m.layout_rows, m.n_rows
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

fn check_perm(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut rows: Vec<i32> = b.map.iter().copied().filter(|&r| r >= 0).collect();
        rows.sort_unstable();
        if let Some(w) = rows.windows(2).find(|w| w[0] == w[1]) {
            sink(Violation {
                id: "CSCV-PERM",
                block: Some(bi),
                detail: format!("row {} appears in two ỹ slots", w[0]),
            });
        }
    }
}

fn check_map_range(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (gi, info) in m.groups.iter().enumerate() {
        let range = info.block_range.clone();
        if range.end > m.blocks.len() {
            continue; // reported by CSCV-GROUPS
        }
        for (bo, b) in m.blocks[range.clone()].iter().enumerate() {
            let bi = range.start + bo;
            if m.w > 0 && b.map.len() % m.w != 0 {
                sink(Violation {
                    id: "CSCV-MAP-RANGE",
                    block: Some(bi),
                    detail: format!(
                        "map length {} is not whole lane blocks of {}",
                        b.map.len(),
                        m.w
                    ),
                });
            }
            for (slot, &row) in b.map.iter().enumerate() {
                if row < 0 {
                    continue;
                }
                if !info.row_range.contains(&(row as usize)) {
                    sink(Violation {
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

fn check_vxg_bounds(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            sink(Violation {
                id: "CSCV-VXG-BOUNDS",
                block: Some(bi),
                detail,
            })
        };
        let n = b.vxg_q.len();
        if b.vxg_count.len() != n || b.cols.len() != n * m.g || b.val_ptr.len() != n + 1 {
            err(format!(
                "descriptor lengths disagree: q {} count {} cols {} (want {}) val_ptr {} (want {})",
                n,
                b.vxg_count.len(),
                b.cols.len(),
                n * m.g,
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
            if m.w > 0 && !q.is_multiple_of(m.w) {
                err(format!(
                    "VxG {i} start slot {q} is not lane-aligned to {}",
                    m.w
                ));
            }
            if q + count * m.w > b.map.len() {
                err(format!(
                    "VxG {i} window {q}..{} leaves ỹ of {} slots",
                    q + count * m.w,
                    b.map.len()
                ));
            }
        }
        if let Some(&c) = b.cols.iter().find(|&&c| c as usize >= m.n_cols) {
            err(format!("member column {c} out of bounds (< {})", m.n_cols));
        }
    }
}

fn check_vxg_sort(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        if let Some(i) = b.vxg_count.windows(2).position(|w| w[0] > w[1]) {
            sink(Violation {
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

fn check_valptr(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            sink(Violation {
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
        if b.val_ptr.last().map(|&p| p as usize) != Some(b.vals_len) {
            err(format!(
                "val_ptr ends at {:?}, expected vals.len() = {}",
                b.val_ptr.last(),
                b.vals_len
            ));
        }
        for i in 0..b.vxg_count.len() {
            let (lo, hi) = (b.val_ptr[i], b.val_ptr[i + 1]);
            if lo > hi {
                err(format!("val_ptr not monotone at VxG {i}: {lo} > {hi}"));
                break;
            }
            let span = (hi - lo) as usize;
            let full = b.vxg_count[i] as usize * m.g * m.w;
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

fn check_mask_popcnt(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            sink(Violation {
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
        let lane_blocks: usize = b.vxg_count.iter().map(|&c| c as usize * m.g).sum();
        if b.masks.len() != lane_blocks * m.mask_bytes {
            err(format!(
                "{} mask bytes for {lane_blocks} lane blocks of {} bytes each",
                b.masks.len(),
                m.mask_bytes
            ));
            continue;
        }
        let mut mask_at = 0usize;
        'vxg: for i in 0..b.vxg_count.len() {
            let blocks_here = b.vxg_count[i] as usize * m.g;
            let mut pop = 0usize;
            for lb in 0..blocks_here {
                let bytes =
                    &b.masks[mask_at + lb * m.mask_bytes..mask_at + (lb + 1) * m.mask_bytes];
                let mut mask = 0u32;
                for (k, &byte) in bytes.iter().enumerate() {
                    mask |= (byte as u32) << (8 * k);
                }
                if m.w < 32 && (mask >> m.w) != 0 {
                    err(format!(
                        "VxG {i} lane block {lb} sets mask bits at or above lane {}",
                        m.w
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
            mask_at += blocks_here * m.mask_bytes;
        }
    }
}

fn check_pad_zero(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    for (bi, b) in m.blocks.iter().enumerate() {
        let mut err = |detail: String| {
            sink(Violation {
                id: "CSCV-PAD-ZERO",
                block: Some(bi),
                detail,
            })
        };
        match m.variant {
            Variant::Z => {
                if b.vals_len != b.lane_slots {
                    err(format!(
                        "CSCV-Z stores {} values for {} lane slots",
                        b.vals_len, b.lane_slots
                    ));
                }
                let nonzero = b.vals_len - b.zero_vals;
                if nonzero > b.nnz {
                    err(format!(
                        "{nonzero} nonzero stored values exceed the block's {} original nonzeros",
                        b.nnz
                    ));
                }
            }
            Variant::M => {
                if b.zero_vals != 0 {
                    err(format!(
                        "CSCV-M stream contains {} explicit zeros (padding must be mask-removed)",
                        b.zero_vals
                    ));
                }
            }
        }
    }
}

fn check_stats(m: &MatrixView, sink: &mut dyn FnMut(Violation)) {
    let mut err = |detail: String| {
        sink(Violation {
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
    fn catalog_ids_are_unique_and_named() {
        let mut seen = std::collections::HashSet::new();
        for inv in CATALOG {
            assert!(seen.insert(inv.id), "duplicate catalog id {}", inv.id);
            assert!(inv.id.starts_with("CSCV-"));
            assert!(!inv.desc.is_empty());
            assert!(by_id(inv.id).is_some());
        }
        assert!(by_id("CSCV-NOPE").is_none());
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
        assert_eq!(by_id("CSCV-STATS").unwrap().severity, Severity::Warning);
    }

    #[test]
    fn corrupt_group_nnz_is_cscv_groups() {
        let (mut z, _) = build_pair();
        z.groups[0].nnz += 1;
        let errs = z.validate_full().unwrap_err();
        assert!(ids(&errs).contains(&"CSCV-GROUPS"), "got {:?}", ids(&errs));
    }

    #[test]
    fn layer_display_names() {
        assert_eq!(Layer::Ioblr.to_string(), "ioblr");
        assert_eq!(Layer::Stream.to_string(), "stream");
    }
}
