//! The analyzer's rule families, over the symbol model, the call graph
//! and the dataflow facts:
//!
//! * `unsafe-provenance` — raw pointers/slices derived from
//!   `SharedSliceMut::get_raw`/`slice_mut` must not escape: returned to
//!   callers, stored into fields/statics/collections, captured by a
//!   `spawn(…)` closure, or used across a `claims_barrier()`.
//!   Suppression: `// AUDIT(escape-ok): <why>`.
//! * `panic-reachability` — hot-path functions (`kernels.rs`,
//!   `lanes.rs`, `expand.rs`, `exec.rs`) must not *transitively* reach a
//!   panicking construct through any non-test call path; the shortest
//!   witness chain is reported. Suppression: `// AUDIT(panic-ok): <why>`
//!   on the source line, or on a fn header to accept the whole subtree.
//! * `atomic-role` / `atomic-ordering` / `fence-unpaired` — every
//!   non-test atomic declaration carries an `// ATOMIC(<role>)`; ops on
//!   handoff/flag atomics must use acquire/release-or-stronger
//!   orderings; a release fence needs an acquire counterpart somewhere.
//!   Suppression for ordering: `// AUDIT(order-ok): <why>`.
//! * `ipc-cast-truncation` — narrowing casts (`as u8/u16/u32/i8/i16/i32`)
//!   of index values in the hot-path files and in every helper reached
//!   from them, with the index set carried across call edges.
//!   Suppression: `// AUDIT(cast-ok): <why>`.
//! * `unsafe-indexing` — checked `container[index]` subscripts inside an
//!   `unsafe` block, or in a `let` whose binding a later `unsafe` block
//!   of the same fn consumes. Suppression: `// AUDIT(index-ok): <why>`.
//! * `crate-layering` — a workspace-internal `[dependencies]` edge the
//!   layering DAG ([`LAYERING_DAG`]) does not allow, or a crate missing
//!   from it. No suppression: fix the edge or the table.
//! * `audit-stale-annotation` — any `AUDIT(<key>)`/`ATOMIC(<role>)`
//!   annotation that no longer suppresses or classifies anything, or
//!   that is malformed (unknown key, empty reason), is itself a
//!   finding, so argued-away suppressions cannot rot silently.

use super::callgraph::CallGraph;
use super::dataflow::annotations_in;
use super::dataflow::{covering_annotation_line, IndexTaint, PanicSources, RawTaint};
use super::symbols::{Role, Workspace};
use super::{
    Finding, RULE_ATOMIC_ORDERING, RULE_ATOMIC_ROLE, RULE_FENCE, RULE_IPC_CAST, RULE_LAYERING,
    RULE_PANIC_REACH, RULE_PROVENANCE, RULE_STALE, RULE_UNSAFE_INDEXING,
};
use crate::lexer::{self, balance_back, binders, idents, strip_subscripts, subscript_positions};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

/// Keys accepted by `// AUDIT(<key>): <why>`.
pub const ANNOTATION_KEYS: &[&str] = &["cast-ok", "index-ok", "panic-ok", "escape-ok", "order-ok"];

/// Narrowing integer cast targets on a 64-bit host.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// The SpMV kernel hot-path files: roots of the panic-reachability and
/// cast-truncation walks.
const HOT_PATH_FILES: &[&str] = &["kernels.rs", "lanes.rs", "expand.rs", "exec.rs"];

fn basename(rel: &Path) -> &str {
    rel.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

fn is_panic_root_file(rel: &Path) -> bool {
    HOT_PATH_FILES.contains(&basename(rel))
}

/// Hot-path files plus the competing-format executors under `formats/`.
fn hot_path_reachable(rel: &Path) -> bool {
    is_panic_root_file(rel)
        || rel
            .components()
            .any(|c| c.as_os_str().to_str() == Some("formats"))
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

/// Functions that can reach (ignoring all suppression) a function with a
/// raw panic source — backward closure over the call graph.
pub fn reaches_raw_panic(ws: &Workspace, cg: &CallGraph, ps: &PanicSources) -> Vec<bool> {
    let mut reach = vec![false; ws.fns.len()];
    let mut queue: VecDeque<usize> = (0..ws.fns.len()).filter(|&f| ps.raw(f)).collect();
    for &f in &queue {
        reach[f] = true;
    }
    while let Some(cur) = queue.pop_front() {
        for &caller in &cg.ins[cur] {
            if !reach[caller] {
                reach[caller] = true;
                queue.push_back(caller);
            }
        }
    }
    reach
}

pub fn panic_reachability(
    ws: &Workspace,
    cg: &CallGraph,
    ps: &PanicSources,
    out: &mut Vec<Finding>,
) {
    for (root, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let sf = &ws.files[f.file];
        if !is_panic_root_file(&sf.rel) {
            continue;
        }
        if ps.blocked.contains_key(&root) {
            continue; // vetted subtree; staleness is checked separately
        }
        // BFS skipping vetted (header-annotated) functions.
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = VecDeque::new();
        prev.insert(root, root);
        queue.push_back(root);
        let mut hit: Option<usize> = None;
        'bfs: while let Some(cur) = queue.pop_front() {
            if ps.effective(cur).is_some() {
                hit = Some(cur);
                break 'bfs;
            }
            for e in &cg.out[cur] {
                if prev.contains_key(&e.callee) || ps.blocked.contains_key(&e.callee) {
                    continue;
                }
                prev.insert(e.callee, cur);
                queue.push_back(e.callee);
            }
        }
        let Some(target) = hit else { continue };
        let mut chain = vec![target];
        let mut node = target;
        while node != root {
            node = prev[&node];
            chain.push(node);
        }
        chain.reverse();
        let chain_quals: Vec<String> = chain.iter().map(|&id| ws.fns[id].qual.clone()).collect();
        let src = ps.effective(target).expect("target has a source");
        let tf = &ws.fns[target];
        let t_file = &ws.files[tf.file];
        let via = if chain.len() == 1 {
            "directly".to_string()
        } else {
            format!("via {}", chain_quals.join(" → "))
        };
        let kind_tag = match &src.kind {
            super::dataflow::SourceKind::Direct(w) => w.to_string(),
            super::dataflow::SourceKind::Indexing => "indexing".to_string(),
        };
        out.push(Finding {
            rule: RULE_PANIC_REACH,
            file: sf.rel.clone(),
            line: f.line + 1,
            symbol: f.qual.clone(),
            message: format!(
                "hot-path fn `{}` can reach a panic {via}: `{}` {} at {}:{}; \
                 validate at the boundary or vet with `// AUDIT(panic-ok): <why>`",
                f.name,
                tf.name,
                src.describe(),
                t_file.rel.display(),
                src.line + 1,
            ),
            chain: chain_quals,
            salient: format!("{}|{}|{kind_tag}", f.qual, tf.qual),
            suppressed_at: None,
        });
    }
}

// ---------------------------------------------------------------------------
// unsafe-provenance
// ---------------------------------------------------------------------------

pub fn provenance(ws: &Workspace, rt: &RawTaint, out: &mut Vec<Finding>) {
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let sf = &ws.files[f.file];
        let lines = &sf.lines;
        let end = f.end.min(lines.len().saturating_sub(1));
        let vars = &rt.vars[id];
        let mut push = |line: usize, kind: &str, what: &str, message: String| {
            let suppressed_at = covering_annotation_line(lines, line, "escape-ok")
                .or_else(|| covering_annotation_line(lines, f.line, "escape-ok"))
                .map(|l| l + 1);
            out.push(Finding {
                rule: RULE_PROVENANCE,
                file: sf.rel.clone(),
                line: line + 1,
                symbol: f.qual.clone(),
                message,
                chain: Vec::new(),
                salient: format!("{kind}|{}|{what}", f.qual),
                suppressed_at,
            });
        };
        // (a) returned: raw-returning fns that derive from the shared
        // buffer API hand their claim past its epoch.
        if rt.returns_raw[id] {
            let anchor = rt.seed_lines[id].first().copied().unwrap_or(f.line);
            push(
                anchor,
                "return",
                &f.name,
                format!(
                    "`{}` returns a raw pointer/slice derived from \
                     SharedSliceMut::get_raw/slice_mut — the claim outlives its epoch; \
                     keep the claim inside the closure or vet with \
                     `// AUDIT(escape-ok): <why>`",
                    f.name
                ),
            );
        }
        if vars.is_empty() {
            continue;
        }
        let barrier_lines: Vec<usize> = (f.line..=end)
            .filter(|&li| {
                !sf.in_test[li]
                    && !lexer::word_positions(&lines[li].code, "claims_barrier").is_empty()
            })
            .collect();
        for li in f.line..=end {
            if sf.in_test[li] || ws.enclosing_fn(f.file, li) != Some(id) {
                continue;
            }
            let code = &lines[li].code;
            // (b) stored: `field.path = tainted` / `STATIC = tainted` /
            // `coll.push(tainted)`.
            if lexer::word_positions(code, "let").is_empty() {
                if let Some(eq) = assignment_pos(code) {
                    let (lhs, rhs) = (code[..eq].trim(), code[eq + 1..].trim());
                    let stored_to_place = !lhs.starts_with('*')
                        && (lhs.contains('.')
                            || lhs
                                .chars()
                                .filter(|c| c.is_ascii_alphabetic())
                                .all(|c| c.is_ascii_uppercase()));
                    if stored_to_place {
                        if let Some(v) = first_tainted(rhs, vars) {
                            push(
                                li,
                                "store",
                                &v,
                                format!(
                                    "raw claim `{v}` is stored into `{lhs}` — it outlives the \
                                     claim epoch; copy the data, not the pointer, or vet with \
                                     `// AUDIT(escape-ok): <why>`"
                                ),
                            );
                        }
                    }
                }
            }
            for needle in [".push(", ".insert("] {
                if let Some(p) = code.find(needle) {
                    let arg = &code[p + needle.len()..];
                    let arg = arg.split(')').next().unwrap_or("");
                    for piece in arg.split(',') {
                        let piece = piece.trim();
                        if vars.contains_key(piece) {
                            push(
                                li,
                                "store",
                                piece,
                                format!(
                                    "raw claim `{piece}` is stored into a collection — it \
                                     outlives the claim epoch; vet with \
                                     `// AUDIT(escape-ok): <why>`"
                                ),
                            );
                        }
                    }
                }
            }
            // (c) sent: a `spawn(…)` closure capturing a pre-claimed
            // pointer ships it to another thread.
            for sp in lexer::word_positions(code, "spawn") {
                let after = code[sp + 5..].trim_start();
                if !after.starts_with('(') {
                    continue;
                }
                let region = gather_balanced(lines, li, code.len() - after.len());
                for (v, def) in vars {
                    if *def < li && !lexer::word_positions(&region, v).is_empty() {
                        push(
                            li,
                            "sent",
                            v,
                            format!(
                                "raw claim `{v}` (claimed at line {}) is captured by a \
                                 spawn(…) closure — claims must be taken on the receiving \
                                 thread; vet with `// AUDIT(escape-ok): <why>`",
                                def + 1
                            ),
                        );
                    }
                }
            }
        }
        // (d) used across a claims_barrier(): the barrier retires every
        // outstanding claim epoch.
        for &bl in &barrier_lines {
            for (v, def) in vars {
                if *def > bl {
                    continue;
                }
                let used_after = (bl + 1..=end).find(|&u| {
                    !sf.in_test[u]
                        && ws.enclosing_fn(f.file, u) == Some(id)
                        && !lexer::word_positions(&lines[u].code, v).is_empty()
                });
                if let Some(u) = used_after {
                    push(
                        u,
                        "barrier",
                        v,
                        format!(
                            "raw claim `{v}` (claimed at line {}) is used after the \
                             claims_barrier() at line {} — the barrier retired its epoch; \
                             re-claim after the barrier or vet with \
                             `// AUDIT(escape-ok): <why>`",
                            def + 1,
                            bl + 1
                        ),
                    );
                }
            }
        }
    }
}

/// Byte position of a plain `=` assignment operator (not `==`, `!=`,
/// `<=`, `>=`, `=>`, or compound `+=`-style operators).
fn assignment_pos(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (k, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = if k > 0 { bytes[k - 1] } else { b' ' };
        let next = bytes.get(k + 1).copied().unwrap_or(b' ');
        if matches!(
            prev,
            b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
        ) {
            continue;
        }
        if next == b'=' || next == b'>' {
            continue;
        }
        return Some(k);
    }
    None
}

fn first_tainted(expr: &str, vars: &BTreeMap<String, usize>) -> Option<String> {
    idents(&strip_subscripts(expr)).into_iter().find(|w| {
        w.chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
            && vars.contains_key(w)
    })
}

/// Text of a balanced paren region starting at `open` on line `li`.
fn gather_balanced(lines: &[lexer::LineView], li: usize, open: usize) -> String {
    let mut text = String::new();
    let mut depth = 0i64;
    for (j, l) in lines.iter().enumerate().skip(li).take(200) {
        let start = if j == li { open } else { 0 };
        for c in l.code[start.min(l.code.len())..].chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return text;
                    }
                }
                _ => {}
            }
            text.push(c);
        }
        text.push(' ');
    }
    text
}

// ---------------------------------------------------------------------------
// atomic-role / atomic-ordering / fence-unpaired
// ---------------------------------------------------------------------------

const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Last identifier segment of the receiver chain before `.op(…)`:
/// `local.counters[c as usize].fetch_add` → `counters`.
fn receiver_segment(code: &str, dot: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let c = bytes[j - 1] as char;
        if c == ')' || c == ']' {
            match balance_back(bytes, j - 1) {
                Some(open) => j = open,
                None => break,
            }
        } else if lexer::is_ident_char(c) || c == '.' || c == ':' {
            j -= 1;
        } else {
            break;
        }
    }
    let chain = strip_subscripts(code[j..dot].trim());
    chain
        .replace("::", ".")
        .split('.')
        .filter(|s| !s.is_empty() && s.chars().all(lexer::is_ident_char))
        .rfind(|s| *s != "self")
        .map(str::to_string)
}

/// Orderings named in a call-argument region, in textual order.
fn orderings_in(text: &str) -> Vec<&'static str> {
    let mut hits: Vec<(usize, &'static str)> = Vec::new();
    for &ord in ORDERINGS {
        for p in lexer::word_positions(text, ord) {
            hits.push((p, ord));
        }
    }
    hits.sort();
    hits.into_iter().map(|(_, o)| o).collect()
}

pub fn atomics(ws: &Workspace, out: &mut Vec<Finding>) {
    // Declarations must carry a role.
    for d in &ws.atomics {
        if d.in_test {
            continue;
        }
        let sf = &ws.files[d.file];
        if let Some(raw) = &d.role_raw {
            if Role::parse(raw).is_none() {
                out.push(Finding {
                    rule: RULE_ATOMIC_ROLE,
                    file: sf.rel.clone(),
                    line: d.line + 1,
                    symbol: d.name.clone(),
                    message: format!(
                        "unknown ATOMIC role `{raw}` on `{}` (expected statistic, handoff \
                         or flag)",
                        d.name
                    ),
                    chain: Vec::new(),
                    salient: format!("bad-role|{}|{raw}", d.name),
                    suppressed_at: None,
                });
            }
        } else if d.role.is_none() {
            out.push(Finding {
                rule: RULE_ATOMIC_ROLE,
                file: sf.rel.clone(),
                line: d.line + 1,
                symbol: d.name.clone(),
                message: format!(
                    "atomic `{}` has no declared role; classify it with \
                     `// ATOMIC(statistic|handoff|flag): <why>` so ordering discipline \
                     can be checked",
                    d.name
                ),
                chain: Vec::new(),
                salient: format!("missing-role|{}", d.name),
                suppressed_at: None,
            });
        }
    }
    // Op sites against declared roles.
    let mut fences: Vec<(usize, usize, Vec<&'static str>, Option<usize>)> = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        for (li, l) in sf.lines.iter().enumerate() {
            if sf.in_test[li] {
                continue;
            }
            let code = &l.code;
            for p in lexer::word_positions(code, "fence") {
                let after = code[p + 5..].trim_start();
                if !after.starts_with('(') {
                    continue;
                }
                let region = gather_balanced(&sf.lines, li, code.len() - after.len());
                let suppressed = covering_annotation_line(&sf.lines, li, "order-ok").map(|a| a + 1);
                fences.push((fi, li, orderings_in(&region), suppressed));
            }
            for &op in ATOMIC_OPS {
                for p in lexer::word_positions(code, op) {
                    if p == 0 || code.as_bytes()[p - 1] != b'.' {
                        continue;
                    }
                    let after = code[p + op.len()..].trim_start();
                    if !after.starts_with('(') {
                        continue;
                    }
                    let Some(recv) = receiver_segment(code, p - 1) else {
                        continue;
                    };
                    let Some(decl) = resolve_atomic(ws, fi, &recv) else {
                        continue;
                    };
                    let role = match decl.role {
                        Some(r) => r,
                        None => continue, // missing-role already reported
                    };
                    if role == Role::Statistic {
                        continue;
                    }
                    let region = gather_balanced(&sf.lines, li, code.len() - after.len());
                    let ords = orderings_in(&region);
                    let Some(&first) = ords.first() else { continue };
                    let ok = match op {
                        "load" => matches!(first, "Acquire" | "SeqCst"),
                        "store" => matches!(first, "Release" | "SeqCst"),
                        _ => first != "Relaxed",
                    };
                    if ok {
                        continue;
                    }
                    let want = match op {
                        "load" => "Acquire (or SeqCst)",
                        "store" => "Release (or SeqCst)",
                        _ => "AcqRel or stronger",
                    };
                    let suppressed_at =
                        covering_annotation_line(&sf.lines, li, "order-ok").map(|a| a + 1);
                    out.push(Finding {
                        rule: RULE_ATOMIC_ORDERING,
                        file: sf.rel.clone(),
                        line: li + 1,
                        symbol: decl.name.clone(),
                        message: format!(
                            "`{recv}.{op}` uses Ordering::{first} but `{}` is declared \
                             ATOMIC({}) — {} requires {want}; fix the ordering or vet \
                             with `// AUDIT(order-ok): <why>`",
                            decl.name,
                            role.as_str(),
                            role.as_str(),
                        ),
                        chain: Vec::new(),
                        salient: format!("{}|{op}|{first}", decl.name),
                        suppressed_at,
                    });
                }
            }
        }
    }
    // Fence pairing: a release-side fence needs an acquire-side fence
    // somewhere in the workspace (and vice versa).
    let acquire_side = |ords: &[&str]| {
        ords.iter()
            .any(|o| matches!(*o, "Acquire" | "AcqRel" | "SeqCst"))
    };
    let release_side = |ords: &[&str]| {
        ords.iter()
            .any(|o| matches!(*o, "Release" | "AcqRel" | "SeqCst"))
    };
    let have_acq = fences.iter().any(|(_, _, o, _)| acquire_side(o));
    let have_rel = fences.iter().any(|(_, _, o, _)| release_side(o));
    for (fi, li, ords, suppressed_at) in &fences {
        let lonely_rel = release_side(ords) && !acquire_side(ords) && !have_acq;
        let lonely_acq = acquire_side(ords) && !release_side(ords) && !have_rel;
        if !(lonely_rel || lonely_acq) {
            continue;
        }
        let sf = &ws.files[*fi];
        let (this, wants) = if lonely_rel {
            ("Release", "Acquire")
        } else {
            ("Acquire", "Release")
        };
        out.push(Finding {
            rule: RULE_FENCE,
            file: sf.rel.clone(),
            line: li + 1,
            symbol: "fence".into(),
            message: format!(
                "{this} fence has no {wants} counterpart anywhere in the workspace — \
                 unpaired fences synchronize nothing; pair it or vet with \
                 `// AUDIT(order-ok): <why>`"
            ),
            chain: Vec::new(),
            salient: format!("fence|{}|{this}", sf.rel.display()),
            suppressed_at: *suppressed_at,
        });
    }
}

/// Resolve an op receiver to an atomic declaration: same file, then
/// same crate, then anywhere.
fn resolve_atomic<'a>(
    ws: &'a Workspace,
    file: usize,
    name: &str,
) -> Option<&'a super::symbols::AtomicDecl> {
    let crate_idx = ws.files[file].crate_idx;
    ws.atomics
        .iter()
        .filter(|d| d.name == name && !d.is_alias)
        .min_by_key(|d| {
            if d.file == file {
                0
            } else if ws.files[d.file].crate_idx == crate_idx {
                1
            } else {
                2
            }
        })
}

// ---------------------------------------------------------------------------
// ipc-cast-truncation
// ---------------------------------------------------------------------------

pub fn ipc_casts(ws: &Workspace, cg: &CallGraph, taint: &IndexTaint, out: &mut Vec<Finding>) {
    // Reachability from the hot-path files, with BFS parents for the
    // witness chain.
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !f.is_test && hot_path_reachable(&ws.files[f.file].rel) {
            prev.insert(id, id);
            queue.push_back(id);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for e in &cg.out[cur] {
            if let std::collections::btree_map::Entry::Vacant(slot) = prev.entry(e.callee) {
                slot.insert(cur);
                queue.push_back(e.callee);
            }
        }
    }
    for (&id, _) in prev.iter() {
        let f = &ws.fns[id];
        if f.is_test {
            continue;
        }
        let sf = &ws.files[f.file];
        let full = taint.full(id);
        let end = f.end.min(sf.lines.len().saturating_sub(1));
        for li in f.line..=end {
            if sf.in_test[li] || ws.enclosing_fn(f.file, li) != Some(id) {
                continue;
            }
            let code = &sf.lines[li].code;
            for pos in lexer::word_positions(code, "as") {
                let rest = code[pos + 2..].trim_start();
                let ty: String = rest
                    .chars()
                    .take_while(|&c| lexer::is_ident_char(c))
                    .collect();
                if !NARROW_TYPES.contains(&ty.as_str()) {
                    continue;
                }
                let operand = operand_before(code, pos);
                if ["==", "!=", "<=", ">=", "&&", "||"]
                    .iter()
                    .any(|op| operand.contains(op))
                {
                    continue;
                }
                let index_flow = operand.contains(".len(")
                    || idents(&strip_subscripts(&operand))
                        .iter()
                        .any(|w| full.contains(w));
                if !index_flow {
                    continue;
                }
                // Witness chain back to a hot-path root.
                let mut chain = vec![id];
                let mut node = id;
                while prev[&node] != node {
                    node = prev[&node];
                    chain.push(node);
                }
                chain.reverse();
                let chain_quals: Vec<String> =
                    chain.iter().map(|&i| ws.fns[i].qual.clone()).collect();
                let suppressed_at =
                    covering_annotation_line(&sf.lines, li, "cast-ok").map(|a| a + 1);
                out.push(Finding {
                    rule: RULE_IPC_CAST,
                    file: sf.rel.clone(),
                    line: li + 1,
                    symbol: f.qual.clone(),
                    message: format!(
                        "truncating cast `{operand} as {ty}` on an index in `{}`, reached \
                         from the hot path ({}); use try_from at the boundary or vet \
                         with `// AUDIT(cast-ok): <why>`",
                        f.name,
                        chain_quals.join(" → "),
                    ),
                    chain: chain_quals,
                    salient: format!("{}|{operand} as {ty}", f.qual),
                    suppressed_at,
                });
                break;
            }
        }
    }
}

/// The expression text directly preceding an `as` keyword at byte
/// `as_pos` — walks back over one postfix chain, balancing `()`/`[]`.
fn operand_before(code: &str, as_pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut end = as_pos;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut j = end;
    while j > 0 {
        let c = bytes[j - 1] as char;
        if c == ')' || c == ']' {
            match balance_back(bytes, j - 1) {
                Some(open) => j = open,
                None => break,
            }
        } else if lexer::is_ident_char(c) || c == '.' || c == ':' {
            j -= 1;
        } else {
            break;
        }
    }
    code[j..end].trim().to_string()
}

// ---------------------------------------------------------------------------
// unsafe-indexing
// ---------------------------------------------------------------------------

/// Per-line, per-byte mask of code inside `unsafe { … }` blocks
/// (`unsafe fn`/`unsafe impl`/`unsafe trait` headers do not count).
fn unsafe_masks(lines: &[lexer::LineView]) -> Vec<Vec<bool>> {
    let mut mask: Vec<Vec<bool>> = lines.iter().map(|l| vec![false; l.code.len()]).collect();
    for i in 0..lines.len() {
        for pos in lexer::word_positions(&lines[i].code, "unsafe") {
            // The next non-whitespace byte must open the block.
            let (mut li, mut ci) = (i, pos + "unsafe".len());
            let mut opener: Option<(usize, usize)> = None;
            'find: while li < lines.len() {
                let bytes = lines[li].code.as_bytes();
                while ci < bytes.len() {
                    if bytes[ci] == b'{' {
                        opener = Some((li, ci));
                        break 'find;
                    }
                    if !bytes[ci].is_ascii_whitespace() {
                        break 'find; // `unsafe fn` / `unsafe impl` / …
                    }
                    ci += 1;
                }
                li += 1;
                ci = 0;
            }
            let Some((mut li, mut ci)) = opener else {
                continue;
            };
            let mut depth = 0i64;
            'mark: while li < lines.len() {
                let bytes = lines[li].code.as_bytes();
                while ci < bytes.len() {
                    match bytes[ci] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break 'mark;
                            }
                        }
                        _ if depth > 0 => mask[li][ci] = true,
                        _ => {}
                    }
                    ci += 1;
                }
                li += 1;
                ci = 0;
            }
        }
    }
    mask
}

pub fn unsafe_indexing(ws: &Workspace, out: &mut Vec<Finding>) {
    for (fi, sf) in ws.files.iter().enumerate() {
        let lines = &sf.lines;
        if lines
            .iter()
            .all(|l| lexer::word_positions(&l.code, "unsafe").is_empty())
        {
            continue;
        }
        let mask = unsafe_masks(lines);
        let in_unsafe = |j: usize, p: usize| -> bool { mask[j].get(p).copied().unwrap_or(false) };
        // (line, kind, message) per flagged line.
        let mut hits: BTreeMap<usize, (&str, String)> = BTreeMap::new();
        for (li, l) in lines.iter().enumerate() {
            if !sf.in_test[li]
                && subscript_positions(&l.code)
                    .iter()
                    .any(|&p| in_unsafe(li, p))
            {
                hits.insert(
                    li,
                    (
                        "inside",
                        "checked slice indexing inside an unsafe block; hoist the bound \
                         outside, use get_unchecked under the block's SAFETY argument, or \
                         vet with `// AUDIT(index-ok): <why>`"
                            .to_string(),
                    ),
                );
            }
        }
        // Feeding unsafe blocks: `let x = a[i]; … unsafe { … x … }`.
        for f in ws.fns.iter().filter(|f| f.file == fi && !f.is_test) {
            let end = f.end.min(lines.len().saturating_sub(1));
            for li in f.line..=end {
                if sf.in_test[li] || hits.contains_key(&li) {
                    continue;
                }
                let code = &lines[li].code;
                let Some(&let_pos) = lexer::word_positions(code, "let").first() else {
                    continue;
                };
                let rest = &code[let_pos + 3..];
                let Some(eq) = rest.find('=') else { continue };
                let (pat, rhs) = (&rest[..eq], &rest[eq + 1..]);
                if subscript_positions(rhs).is_empty() {
                    continue;
                }
                let names = binders(pat.split(':').next().unwrap_or(pat));
                let feeds = names.iter().any(|n| {
                    (li..=end).any(|j| {
                        lexer::word_positions(&lines[j].code, n)
                            .into_iter()
                            .any(|p| in_unsafe(j, p))
                    })
                });
                if feeds {
                    let message = format!(
                        "slice indexing feeds the unsafe block below (binding `{}`); \
                         validate the bound where it is computed or vet with \
                         `// AUDIT(index-ok): <why>`",
                        names.join(", ")
                    );
                    hits.insert(li, ("feeds", message));
                }
            }
        }
        for (li, (kind, message)) in hits {
            let symbol = ws
                .enclosing_fn(fi, li)
                .map_or_else(|| sf.module_path.clone(), |id| ws.fns[id].qual.clone());
            out.push(Finding {
                rule: RULE_UNSAFE_INDEXING,
                file: sf.rel.clone(),
                line: li + 1,
                salient: format!("{kind}|{symbol}|{}", lines[li].code.trim()),
                symbol,
                message,
                chain: Vec::new(),
                suppressed_at: covering_annotation_line(lines, li, "index-ok").map(|a| a + 1),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// crate-layering
// ---------------------------------------------------------------------------

/// The workspace layering DAG: trace/simd at the bottom, sparse → core
/// → ct/recon → harness → bench on top; tune and shard above harness
/// and recon; xtask and the umbrella crate are leaves. An internal
/// `[dependencies]` edge absent from this table is a violation even if
/// cargo accepts it. `[dev-dependencies]` are exempt: dev edges cannot
/// create build cycles and the workspace uses the self-dev-dep trick
/// for feature unification.
pub const LAYERING_DAG: &[(&str, &[&str])] = &[
    ("cscv-trace", &[]),
    ("cscv-simd", &["cscv-trace"]),
    ("cscv-sparse", &["cscv-trace", "cscv-simd"]),
    ("cscv-core", &["cscv-trace", "cscv-simd", "cscv-sparse"]),
    (
        "cscv-ct",
        &["cscv-trace", "cscv-simd", "cscv-sparse", "cscv-core"],
    ),
    (
        "cscv-recon",
        &[
            "cscv-trace",
            "cscv-simd",
            "cscv-sparse",
            "cscv-core",
            "cscv-ct",
        ],
    ),
    (
        "cscv-harness",
        &[
            "cscv-trace",
            "cscv-simd",
            "cscv-sparse",
            "cscv-core",
            "cscv-ct",
            "cscv-recon",
        ],
    ),
    (
        "cscv-bench",
        &[
            "cscv-trace",
            "cscv-simd",
            "cscv-sparse",
            "cscv-core",
            "cscv-ct",
            "cscv-recon",
            "cscv-harness",
        ],
    ),
    (
        "cscv-tune",
        &[
            "cscv-trace",
            "cscv-simd",
            "cscv-sparse",
            "cscv-core",
            "cscv-harness",
        ],
    ),
    (
        "cscv-shard",
        &[
            "cscv-trace",
            "cscv-simd",
            "cscv-sparse",
            "cscv-core",
            "cscv-ct",
            "cscv-recon",
            "cscv-harness",
            "cscv-tune",
        ],
    ),
    ("cscv-xtask", ALL_LIBS),
    ("cscv-repro", ALL_LIBS),
];

const ALL_LIBS: &[&str] = &[
    "cscv-trace",
    "cscv-simd",
    "cscv-sparse",
    "cscv-core",
    "cscv-ct",
    "cscv-recon",
    "cscv-harness",
    "cscv-tune",
    "cscv-shard",
];

pub fn layering(ws: &Workspace, out: &mut Vec<Finding>) {
    // In-memory fixture workspaces have no manifests to check.
    for c in ws
        .crates
        .iter()
        .filter(|c| !c.manifest.as_os_str().is_empty())
    {
        let mut push = |line: usize, salient: String, message: String| {
            out.push(Finding {
                rule: RULE_LAYERING,
                file: c.manifest.clone(),
                line,
                symbol: c.name.clone(),
                message,
                chain: Vec::new(),
                salient,
                suppressed_at: None,
            });
        };
        let Some((_, allowed)) = LAYERING_DAG.iter().find(|(n, _)| *n == c.name) else {
            push(
                1,
                format!("unregistered|{}", c.name),
                format!(
                    "crate `{}` is not part of the declared layering DAG; add it to \
                     LAYERING_DAG in crates/xtask/src/analyze/rules.rs with its allowed \
                     dependencies",
                    c.name
                ),
            );
            continue;
        };
        for (line, dep) in &c.deps {
            if !allowed.contains(&dep.as_str()) {
                push(
                    *line,
                    format!("{}->{dep}", c.name),
                    format!(
                        "dependency edge `{}` → `{dep}` violates the workspace layering DAG \
                         (allowed: {})",
                        c.name,
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.join(", ")
                        }
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// audit-stale-annotation
// ---------------------------------------------------------------------------

/// Stale and malformed annotations, judged against the findings the
/// other rules produced (`findings`) and the panic-source table.
pub fn stale_annotations(
    ws: &Workspace,
    ps: &PanicSources,
    reaches_raw: &[bool],
    findings: &[Finding],
) -> Vec<Finding> {
    let suppressing: BTreeSet<(&Path, usize)> = findings
        .iter()
        .filter_map(|f| f.suppressed_at.map(|at| (f.file.as_path(), at)))
        .collect();
    let mut out = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        for (li, l) in sf.lines.iter().enumerate() {
            if sf.in_test[li] {
                continue;
            }
            // Prose in doc comments (`///`, `//!`) documents the
            // grammar; only plain `//` comments are live suppressions.
            let c = l.comment.trim_start();
            if c.starts_with("///") || c.starts_with("//!") {
                continue;
            }
            for (key, why) in annotations_in(&l.comment) {
                let problem = if !ANNOTATION_KEYS.contains(&key.as_str()) {
                    format!(
                        "unknown AUDIT key `{key}` (expected one of: {})",
                        ANNOTATION_KEYS.join(", ")
                    )
                } else if why.is_none() {
                    format!("`AUDIT({key})` needs a non-empty reason: `// AUDIT({key}): <why>`")
                } else if key == "panic-ok" {
                    let covers_source = ws.fns.iter().enumerate().any(|(id, f)| {
                        f.file == fi && ps.per_fn[id].iter().any(|s| s.suppressed_at == Some(li))
                    });
                    let blocks_subtree = ps
                        .blocked
                        .iter()
                        .any(|(&id, &at)| ws.fns[id].file == fi && at == li && reaches_raw[id]);
                    if covers_source || blocks_subtree {
                        continue;
                    }
                    "no longer suppresses anything — the vetted pattern is gone; remove it"
                        .to_string()
                } else if suppressing.contains(&(sf.rel.as_path(), li + 1)) {
                    continue;
                } else {
                    "no longer suppresses anything — the vetted pattern is gone; remove it"
                        .to_string()
                };
                out.push(Finding {
                    rule: RULE_STALE,
                    file: sf.rel.clone(),
                    line: li + 1,
                    symbol: key.clone(),
                    message: format!("`AUDIT({key})` (line {}): {problem}", li + 1),
                    chain: Vec::new(),
                    salient: if why.is_some() && ANNOTATION_KEYS.contains(&key.as_str()) {
                        format!("{key}|{}", sf.rel.display())
                    } else {
                        format!("bad|{key}|{}", sf.rel.display())
                    },
                    suppressed_at: None,
                });
            }
            for (role, _) in super::symbols::atomic_annotations_in(&l.comment) {
                let used = ws
                    .atomics
                    .iter()
                    .any(|d| d.file == fi && d.role_line == Some(li));
                if !used {
                    out.push(Finding {
                        rule: RULE_STALE,
                        file: sf.rel.clone(),
                        line: li + 1,
                        symbol: format!("ATOMIC({role})"),
                        message: format!(
                            "`ATOMIC({role})` (line {}) does not classify any atomic \
                             declaration — the declaration moved or was removed; delete \
                             the annotation",
                            li + 1
                        ),
                        chain: Vec::new(),
                        salient: format!("atomic|{role}|{}", sf.rel.display()),
                        suppressed_at: None,
                    });
                }
            }
        }
    }
    out
}
