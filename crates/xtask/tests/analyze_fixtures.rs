//! Fixture tests for the inter-procedural analyze engine: every rule
//! family has a firing case, a suppressed case, and (where the rule is
//! inter-procedural) a cross-crate case, plus a call-graph snapshot and
//! the ratchet exit-code contract driven through the real binary.
//!
//! Pure-analysis fixtures go through `Workspace::from_sources` — no
//! disk, no cargo, so fixture crates can never collide with the real
//! workspace's `crates/*` members glob. Only the binary contract tests
//! materialize a fixture workspace, and they do it under a temp dir.

use cscv_xtask::analyze::symbols::{parse_manifest, Workspace};
use cscv_xtask::analyze::{
    self, analyze_workspace, rules, Baseline, Ratchet, RULE_ATOMIC_ORDERING, RULE_ATOMIC_ROLE,
    RULE_FENCE, RULE_IPC_CAST, RULE_LAYERING, RULE_PANIC_REACH, RULE_PROVENANCE, RULE_STALE,
    RULE_UNSAFE_INDEXING,
};
use std::path::{Path, PathBuf};

fn active<'a>(report: &'a analyze::AnalyzeReport, rule: &str) -> Vec<&'a analyze::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed_at.is_none())
        .collect()
}

fn suppressed<'a>(report: &'a analyze::AnalyzeReport, rule: &str) -> Vec<&'a analyze::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed_at.is_some())
        .collect()
}

// ---------------------------------------------------------------------------
// Call graph snapshot.
// ---------------------------------------------------------------------------

#[test]
fn callgraph_snapshot_cross_crate() {
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/exec.rs",
            "use demo_b::mesh::refine;\n\
             pub fn drive() {\n    refine();\n    local_step();\n}\n\
             fn local_step() {\n    demo_b::mesh::coarsen();\n}\n",
        ),
        (
            "demo-b",
            "crates/b/src/mesh.rs",
            "pub fn refine() {\n    coarsen();\n}\n\
             pub fn coarsen() {}\n",
        ),
    ]);
    let cg = cscv_xtask::analyze::callgraph::build(&ws);
    assert_eq!(
        cg.render(&ws),
        "demo_a::exec::drive -> demo_a::exec::local_step\n\
         demo_a::exec::drive -> demo_b::mesh::refine\n\
         demo_a::exec::local_step -> demo_b::mesh::coarsen\n\
         demo_b::mesh::refine -> demo_b::mesh::coarsen"
    );
}

// ---------------------------------------------------------------------------
// panic-reachability.
// ---------------------------------------------------------------------------

#[test]
fn panic_reachability_fires_cross_crate_with_chain() {
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/exec.rs",
            "pub fn hot_step() {\n    demo_b::depths::probe(3);\n}\n",
        ),
        (
            "demo-b",
            "crates/b/src/depths.rs",
            "pub fn probe(d: usize) {\n    let v = vec![1, 2];\n    \
             let _ = v.first().expect(\"non-empty\");\n    let _ = d;\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PANIC_REACH);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].file, PathBuf::from("crates/a/src/exec.rs"));
    assert_eq!(
        hits[0].chain,
        vec![
            "demo_a::exec::hot_step".to_string(),
            "demo_b::depths::probe".to_string()
        ]
    );
    assert!(
        hits[0].message.contains("crates/b/src/depths.rs:3"),
        "{}",
        hits[0].message
    );
}

#[test]
fn panic_reachability_header_annotation_vets_the_subtree() {
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/exec.rs",
            "// AUDIT(panic-ok): probe panics only on a poisoned fixture.\n\
             pub fn hot_step() {\n    demo_b::depths::probe(3);\n}\n",
        ),
        (
            "demo-b",
            "crates/b/src/depths.rs",
            "pub fn probe(d: usize) {\n    let v = vec![1, 2];\n    \
             let _ = v.first().expect(\"non-empty\");\n    let _ = d;\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_PANIC_REACH).is_empty(),
        "{:?}",
        report.findings
    );
    // The annotation blocks a subtree that genuinely reaches a panic,
    // so it is used, not stale.
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn panic_reachability_line_annotation_suppresses_one_source() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/kernels.rs",
        "pub fn kernel_step(v: &[u32]) -> u32 {\n    \
         // AUDIT(panic-ok): v is non-empty by kernel contract.\n    \
         *v.first().expect(\"non-empty\")\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_PANIC_REACH).is_empty(),
        "{:?}",
        report.findings
    );
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn panic_reachability_ignores_test_code() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/lanes.rs",
        "pub fn safe_lane() -> u32 {\n    7\n}\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         let v: Vec<u32> = vec![];\n        v.first().unwrap();\n    }\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_PANIC_REACH).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// unsafe-provenance.
// ---------------------------------------------------------------------------

#[test]
fn provenance_flags_returned_raw_claim() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/buffers.rs",
        "pub fn leak_claim(buf: &Shared) -> *mut f64 {\n    \
         let p = buf.get_raw(0);\n    p\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PROVENANCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(
        hits[0].salient.starts_with("return|"),
        "{}",
        hits[0].salient
    );
}

#[test]
fn provenance_flags_claim_stored_into_field() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/buffers.rs",
        "pub fn stash(state: &mut State, buf: &Shared) {\n    \
         let p = buf.slice_mut(0, 8);\n    state.window = p;\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PROVENANCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].salient.starts_with("store|"), "{}", hits[0].salient);
}

#[test]
fn provenance_flags_claim_captured_by_spawn() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/buffers.rs",
        "pub fn ship(buf: &Shared) {\n    \
         let p = buf.get_raw(0);\n    \
         std::thread::spawn(move || {\n        let _ = p;\n    });\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PROVENANCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].salient.starts_with("sent|"), "{}", hits[0].salient);
}

#[test]
fn provenance_flags_claim_used_across_barrier() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/buffers.rs",
        "pub fn straddle(buf: &Shared) {\n    \
         let p = buf.get_raw(0);\n    \
         buf.claims_barrier();\n    \
         unsafe { *p = 1.0; }\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PROVENANCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(
        hits[0].salient.starts_with("barrier|"),
        "{}",
        hits[0].salient
    );
}

#[test]
fn provenance_tracks_taint_across_call_edges() {
    // `hand_out` returns a claim; the caller stores what it got. The
    // escape is only visible inter-procedurally.
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/give.rs",
            "// AUDIT(escape-ok): callers immediately re-scope the claim.\n\
             pub fn hand_out(buf: &Shared) -> *mut f64 {\n    buf.get_raw(0)\n}\n",
        ),
        (
            "demo-a",
            "crates/a/src/take.rs",
            "pub fn keep(state: &mut State, buf: &Shared) {\n    \
             let p = demo_a::give::hand_out(buf);\n    state.window = p;\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PROVENANCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].file, PathBuf::from("crates/a/src/take.rs"));
    assert!(hits[0].salient.starts_with("store|"), "{}", hits[0].salient);
    // The annotated return escape in give.rs is vetted, not active.
    assert_eq!(suppressed(&report, RULE_PROVENANCE).len(), 1);
}

#[test]
fn provenance_escape_ok_suppresses() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/buffers.rs",
        "pub fn stash(state: &mut State, buf: &Shared) {\n    \
         let p = buf.slice_mut(0, 8);\n    \
         // AUDIT(escape-ok): state outlives the pool; claims retired in drop.\n    \
         state.window = p;\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_PROVENANCE).is_empty(),
        "{:?}",
        report.findings
    );
    assert_eq!(suppressed(&report, RULE_PROVENANCE).len(), 1);
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// atomic-role / atomic-ordering / fence-unpaired.
// ---------------------------------------------------------------------------

#[test]
fn atomic_without_role_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/state.rs",
        "use std::sync::atomic::AtomicUsize;\n\
         static PENDING: AtomicUsize = AtomicUsize::new(0);\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_ATOMIC_ROLE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].symbol, "PENDING");
}

#[test]
fn handoff_atomic_with_relaxed_load_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/state.rs",
        "use std::sync::atomic::{AtomicUsize, Ordering};\n\
         // ATOMIC(handoff): publishes the ready slot index.\n\
         static READY: AtomicUsize = AtomicUsize::new(0);\n\
         pub fn peek() -> usize {\n    READY.load(Ordering::Relaxed)\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_ATOMIC_ORDERING);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].symbol, "READY");
    assert!(hits[0].message.contains("Relaxed"), "{}", hits[0].message);
    assert!(active(&report, RULE_ATOMIC_ROLE).is_empty());
}

#[test]
fn statistic_atomic_allows_relaxed() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/state.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         // ATOMIC(statistic): best-effort hit counter.\n\
         static HITS: AtomicU64 = AtomicU64::new(0);\n\
         pub fn bump() {\n    HITS.fetch_add(1, Ordering::Relaxed);\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_ATOMIC_ORDERING).is_empty(),
        "{:?}",
        report.findings
    );
    assert!(active(&report, RULE_ATOMIC_ROLE).is_empty());
    assert!(active(&report, RULE_STALE).is_empty());
}

#[test]
fn atomic_ordering_cross_file_resolution() {
    // The op site and the declaration live in different files of the
    // same crate.
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/decl.rs",
            "use std::sync::atomic::AtomicBool;\n\
             // ATOMIC(flag): set once when the worker finishes.\n\
             pub static DONE: AtomicBool = AtomicBool::new(false);\n",
        ),
        (
            "demo-a",
            "crates/a/src/user.rs",
            "use std::sync::atomic::Ordering;\n\
             pub fn finish() {\n    crate::decl::DONE.store(true, Ordering::Relaxed);\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_ATOMIC_ORDERING);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].symbol, "DONE");
    assert_eq!(hits[0].file, PathBuf::from("crates/a/src/user.rs"));
}

#[test]
fn order_ok_suppresses_ordering_finding() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/state.rs",
        "use std::sync::atomic::{AtomicBool, Ordering};\n\
         // ATOMIC(flag): checked before shutdown.\n\
         static LIVE: AtomicBool = AtomicBool::new(true);\n\
         pub fn probe() -> bool {\n    \
         // AUDIT(order-ok): monotonic flag, the caller re-checks under the lock.\n    \
         LIVE.load(Ordering::Relaxed)\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_ATOMIC_ORDERING).is_empty(),
        "{:?}",
        report.findings
    );
    assert_eq!(suppressed(&report, RULE_ATOMIC_ORDERING).len(), 1);
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn alias_annotation_confers_role_on_fields() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/shards.rs",
        "use std::sync::atomic::AtomicU64;\n\
         // ATOMIC(statistic): per-thread counter shard.\n\
         pub type Shard = [AtomicU64; 4];\n\
         pub struct Slot {\n    pub counters: std::sync::Arc<Shard>,\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_ATOMIC_ROLE).is_empty(),
        "{:?}",
        report.findings
    );
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn unpaired_release_fence_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/sync.rs",
        "use std::sync::atomic::{fence, Ordering};\n\
         pub fn publish() {\n    fence(Ordering::Release);\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_FENCE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
}

#[test]
fn paired_fences_are_clean() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/sync.rs",
        "use std::sync::atomic::{fence, Ordering};\n\
         pub fn publish() {\n    fence(Ordering::Release);\n}\n\
         pub fn observe() {\n    fence(Ordering::Acquire);\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_FENCE).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// ipc-cast-truncation.
// ---------------------------------------------------------------------------

#[test]
fn cast_fires_when_index_crosses_call_edge() {
    // The helper is outside the hot-path files; only the call edge from
    // kernels.rs makes its cast index-tainted.
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/kernels.rs",
            "pub fn hot(rows: &[f64]) {\n    for i in 0..rows.len() {\n        \
             demo_a::pack::compress(i);\n    }\n}\n",
        ),
        (
            "demo-a",
            "crates/a/src/pack.rs",
            "pub fn compress(i: usize) -> u32 {\n    i as u32\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_IPC_CAST);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].file, PathBuf::from("crates/a/src/pack.rs"));
    assert_eq!(
        hits[0].chain,
        vec![
            "demo_a::kernels::hot".to_string(),
            "demo_a::pack::compress".to_string()
        ]
    );
}

#[test]
fn cast_ok_suppresses_interprocedural_cast() {
    let ws = Workspace::from_sources(&[
        (
            "demo-a",
            "crates/a/src/kernels.rs",
            "pub fn hot(rows: &[f64]) {\n    for i in 0..rows.len() {\n        \
             demo_a::pack::compress(i);\n    }\n}\n",
        ),
        (
            "demo-a",
            "crates/a/src/pack.rs",
            "pub fn compress(i: usize) -> u32 {\n    \
             // AUDIT(cast-ok): i < 2^20 rows by geometry validation.\n    \
             i as u32\n}\n",
        ),
    ]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_IPC_CAST).is_empty(),
        "{:?}",
        report.findings
    );
    assert_eq!(suppressed(&report, RULE_IPC_CAST).len(), 1);
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn unreachable_helper_cast_is_not_flagged() {
    // No call path from a hot-path file: the helper's cast is not an
    // inter-procedural index hazard.
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/pack.rs",
        "pub fn compress(i: usize) -> u32 {\n    i as u32\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_IPC_CAST).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// audit-stale-annotation.
// ---------------------------------------------------------------------------

#[test]
fn stale_audit_annotation_is_flagged() {
    // cast-ok with no narrowing cast left under it.
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/kernels.rs",
        "pub fn hot(i: usize) -> usize {\n    \
         // AUDIT(cast-ok): vetted long ago; the cast is gone.\n    \
         i + 1\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_STALE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].symbol, "cast-ok");
}

#[test]
fn stale_panic_ok_on_panicless_fn_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/exec.rs",
        "// AUDIT(panic-ok): stale — nothing below panics anymore.\n\
         pub fn hot_step() -> u32 {\n    41 + 1\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_STALE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].symbol, "panic-ok");
}

#[test]
fn stale_atomic_annotation_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/state.rs",
        "// ATOMIC(statistic): the counter moved elsewhere.\n\
         pub fn plain() {}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_STALE);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].symbol.contains("ATOMIC"), "{}", hits[0].symbol);
}

#[test]
fn doc_comment_grammar_prose_is_not_stale() {
    // Module docs explaining the annotation grammar must not register
    // as live (and therefore stale) suppressions.
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/lib.rs",
        "//! Vet sites with `// AUDIT(cast-ok): why` annotations.\n\
         /// See `// ATOMIC(statistic)` for counter classification.\n\
         pub fn documented() {}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// Hot-path panics and casts inside the kernel files themselves.
// ---------------------------------------------------------------------------

#[test]
fn kernel_unwrap_is_flagged_outside_tests_only() {
    let src = "pub fn hot(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
               assert_eq!(super::hot(&[1]), 1);\n        Some(3).unwrap();\n    }\n}\n";
    let ws = Workspace::from_sources(&[("demo-a", "crates/a/src/kernels.rs", src)]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_PANIC_REACH);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].line, 1);
    assert!(
        hits[0].message.contains("crates/a/src/kernels.rs:2"),
        "{}",
        hits[0].message
    );
    // The same body in a file no hot path reaches is not a finding.
    let ws = Workspace::from_sources(&[("demo-a", "crates/a/src/io.rs", src)]);
    assert!(active(&analyze_workspace(&ws), RULE_PANIC_REACH).is_empty());
}

const CAST_SOURCE: &str = "pub fn f(xs: &[f64], i: usize) -> u32 {\n    \
                           let idx = i + xs.len();\n    idx as u32\n}\n";

#[test]
fn index_cast_in_hot_file_is_flagged_without_a_call_edge() {
    let ws = Workspace::from_sources(&[("demo-a", "crates/a/src/kernels.rs", CAST_SOURCE)]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_IPC_CAST);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].line, 3);
    assert!(
        hits[0].message.contains("idx as u32"),
        "{}",
        hits[0].message
    );
    // Not reachable from a hot path: not flagged.
    let ws = Workspace::from_sources(&[("demo-a", "crates/a/src/io.rs", CAST_SOURCE)]);
    assert!(active(&analyze_workspace(&ws), RULE_IPC_CAST).is_empty());
    // A bare `.len()` needs no index binding to be one.
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/kernels.rs",
        "pub fn lanes(v: &[f32]) -> u32 {\n    v.len() as u32\n}\n",
    )]);
    assert_eq!(active(&analyze_workspace(&ws), RULE_IPC_CAST).len(), 1);
}

#[test]
fn widening_and_non_index_casts_pass() {
    // u8 loads widened to u32, a bitmask cast to float, and a bool.
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/kernels.rs",
        "pub fn f(masks: &[u8], mi: usize, bits: u64) -> u32 {\n    \
         let m = masks[mi] as u32;\n    let _ = bits as f64;\n    \
         let _ = (mi == 0) as u8;\n    m\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_IPC_CAST).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// unsafe-indexing.
// ---------------------------------------------------------------------------

#[test]
fn index_inside_unsafe_is_flagged_and_index_ok_suppresses() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/pool.rs",
        "pub fn f(v: &[u32], i: usize) -> u32 {\n    unsafe { v[i] }\n}\n\
         pub fn g(v: &[u32], i: usize) -> u32 {\n    \
         // AUDIT(index-ok): caller guarantees i < v.len().\n    unsafe { v[i] }\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_UNSAFE_INDEXING);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(
        (hits[0].line, hits[0].symbol.as_str()),
        (2, "demo_a::pool::f")
    );
    assert_eq!(suppressed(&report, RULE_UNSAFE_INDEXING).len(), 1);
    assert!(
        active(&report, RULE_STALE).is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn index_feeding_unsafe_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/pool.rs",
        "pub fn f(xs: &[f64], off: &[usize], p: *mut f64) {\n    \
         let q = off[1usize + 2];\n    let v = xs[q];\n    unsafe {\n        *p = v;\n    }\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_UNSAFE_INDEXING);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].line, 3);
    assert!(
        hits[0].message.contains("binding `v`"),
        "{}",
        hits[0].message
    );
}

#[test]
fn literal_subscripts_unsafe_fns_and_tests_are_not_unsafe_indexing() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/pool.rs",
        "pub unsafe fn g(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n\
         pub fn h(xs: &[f64]) -> f64 {\n    unsafe { xs[0] }\n}\n\
         #[cfg(test)]\nmod tests {\n    fn t(xs: &[f64], n: usize) {\n        \
         unsafe { xs[n] };\n    }\n}\n",
    )]);
    let report = analyze_workspace(&ws);
    assert!(
        active(&report, RULE_UNSAFE_INDEXING).is_empty(),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// crate-layering.
// ---------------------------------------------------------------------------

fn manifest_workspace(manifests: &[(&str, &str)]) -> Workspace {
    let mut ws = Workspace::default();
    for (rel, toml) in manifests {
        ws.crates.push(parse_manifest(Path::new(rel), toml));
    }
    ws
}

#[test]
fn layering_violation_is_flagged_at_the_dependency_line() {
    let ws = manifest_workspace(&[(
        "crates/trace/Cargo.toml",
        "[package]\nname = \"cscv-trace\"\n\n[dependencies]\ncscv-core = { path = \"../core\" }\n\
         \n[dev-dependencies]\ncscv-sparse.workspace = true\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_LAYERING);
    // The dev edge is exempt; the build edge is not.
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].file, PathBuf::from("crates/trace/Cargo.toml"));
    assert_eq!(hits[0].line, 5);
    assert!(
        hits[0].message.contains("`cscv-trace` → `cscv-core`"),
        "{}",
        hits[0].message
    );
}

#[test]
fn unregistered_crate_is_a_layering_violation() {
    let ws = manifest_workspace(&[(
        "crates/rogue/Cargo.toml",
        "[package]\nname = \"cscv-rogue\"\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits = active(&report, RULE_LAYERING);
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(
        hits[0].message.contains("not part of"),
        "{}",
        hits[0].message
    );
}

#[test]
fn layering_dag_is_topologically_ordered() {
    // Every crate lists only crates declared before it, so the table is
    // acyclic by construction.
    let mut seen: Vec<&str> = Vec::new();
    for (name, deps) in rules::LAYERING_DAG {
        for d in *deps {
            assert!(seen.contains(d), "{name} depends on later/unknown {d}");
        }
        seen.push(name);
    }
}

// ---------------------------------------------------------------------------
// Malformed annotations.
// ---------------------------------------------------------------------------

#[test]
fn unknown_annotation_key_and_empty_reason_are_flagged() {
    let ws = Workspace::from_sources(&[(
        "demo-a",
        "crates/a/src/io.rs",
        "// AUDIT(lgtm): trust me.\npub fn f() {}\n// AUDIT(cast-ok):\npub fn g() {}\n",
    )]);
    let report = analyze_workspace(&ws);
    let hits: Vec<(usize, &str)> = active(&report, RULE_STALE)
        .into_iter()
        .map(|f| (f.line, f.salient.as_str()))
        .collect();
    assert_eq!(
        hits,
        [
            (1, "bad|lgtm|crates/a/src/io.rs"),
            (3, "bad|cast-ok|crates/a/src/io.rs")
        ],
        "{:?}",
        report.findings
    );
    assert!(
        report.findings[0].message.contains("unknown AUDIT key"),
        "{}",
        report.findings[0].message
    );
}

// ---------------------------------------------------------------------------
// Ratchet contract through the real binary.
// ---------------------------------------------------------------------------

struct FixtureWorkspace {
    root: PathBuf,
}

impl FixtureWorkspace {
    /// Materialize a minimal analyzable workspace in a temp dir: a
    /// virtual root manifest plus one crate with the given lib.rs.
    fn new(tag: &str, lib_rs: &str) -> FixtureWorkspace {
        let root =
            std::env::temp_dir().join(format!("cscv-analyze-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
        std::fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/demo/Cargo.toml"),
            "[package]\nname = \"cscv-trace\"\nversion = \"0.1.0\"\n",
        )
        .unwrap();
        std::fs::write(root.join("crates/demo/src/lib.rs"), lib_rs).unwrap();
        FixtureWorkspace { root }
    }

    fn analyze(&self, extra: &[&str]) -> std::process::Output {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cscv-xtask"));
        cmd.arg("analyze")
            .arg("--root")
            .arg(&self.root)
            .arg("--baseline")
            .arg(self.root.join("baseline.json"));
        for a in extra {
            cmd.arg(a);
        }
        cmd.output().unwrap()
    }
}

impl Drop for FixtureWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const DIRTY_LIB: &str = "use std::sync::atomic::AtomicUsize;\n\
                         static PENDING: AtomicUsize = AtomicUsize::new(0);\n";

#[test]
fn ratchet_new_finding_exits_1() {
    let fx = FixtureWorkspace::new("new", DIRTY_LIB);
    let out = fx.analyze(&[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[new] atomic-role"), "{text}");
}

#[test]
fn ratchet_baselined_finding_exits_0_and_fixed_exits_2() {
    let fx = FixtureWorkspace::new("cycle", DIRTY_LIB);
    // Adopt the finding.
    let out = fx.analyze(&["--write-baseline"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Same workspace, committed baseline: clean.
    let out = fx.analyze(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 baselined"));
    // Fix the finding but keep the baseline entry: stale, exit 2.
    std::fs::write(
        fx.root.join("crates/demo/src/lib.rs"),
        "use std::sync::atomic::AtomicUsize;\n\
         // ATOMIC(statistic): request tally, aggregation-only reads.\n\
         static PENDING: AtomicUsize = AtomicUsize::new(0);\n",
    )
    .unwrap();
    let out = fx.analyze(&[]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("stale-baseline"));
}

#[test]
fn ratchet_clean_workspace_exits_0() {
    let fx = FixtureWorkspace::new("clean", "pub fn tidy() {}\n");
    let out = fx.analyze(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn root_without_manifests_exits_2() {
    let fx = FixtureWorkspace::new("empty", "");
    std::fs::remove_dir_all(fx.root.join("crates")).unwrap();
    std::fs::remove_file(fx.root.join("Cargo.toml")).unwrap();
    let out = fx.analyze(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no crate manifests"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn ndjson_output_carries_fingerprints_and_summary() {
    let fx = FixtureWorkspace::new("ndjson", DIRTY_LIB);
    let out = fx.analyze(&["--format", "ndjson"]);
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"kind\":\"finding\"") && l.contains("\"fingerprint\":\"")),
        "{text}"
    );
    assert!(
        lines.last().unwrap().contains("\"kind\":\"summary\""),
        "{text}"
    );
    assert!(lines.last().unwrap().contains("\"exit\":1"), "{text}");
}

#[test]
fn ndjson_emits_per_rule_counts() {
    let fx = FixtureWorkspace::new("rulecount", DIRTY_LIB);
    let out = fx.analyze(&["--format", "ndjson"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"rule-count\"")
            && l.contains("\"rule\":\"atomic-role\"")
            && l.contains("\"active\":1")),
        "{text}"
    );
    // Every rule reports a count line, including silent ones.
    for rule in ["unsafe-indexing", "crate-layering"] {
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"rule-count\"")
                && l.contains(&format!("\"rule\":\"{rule}\""))
                && l.contains("\"active\":0")),
            "missing rule-count for {rule}: {text}"
        );
    }
}

// ---------------------------------------------------------------------------
// Workspace acceptance: the real repo is clean under its committed
// baseline.
// ---------------------------------------------------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_committed_baseline() {
    let root = repo_root();
    let report = analyze::analyze_root(&root).unwrap();
    let baseline = Baseline::load(&root.join("crates/xtask/analyze_baseline.json")).unwrap();
    let ratchet = Ratchet::compare(&report, &baseline);
    assert_eq!(
        ratchet.exit_code(),
        0,
        "new: {:?}\nstale: {:?}",
        ratchet.new.iter().map(|f| &f.message).collect::<Vec<_>>(),
        ratchet.stale
    );
    // The engine actually saw the workspace.
    assert!(report.fn_count > 500, "{}", report.fn_count);
    assert!(report.edge_count > 1000, "{}", report.edge_count);
}
