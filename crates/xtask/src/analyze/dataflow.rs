//! Fixpoint dataflow over the call graph.
//!
//! Three analyses, all flow-insensitive within a function and
//! propagated along call edges until stable:
//!
//! * **panic sources** — the per-function set of constructs that can
//!   abort (`unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`
//!   anywhere; checked `container[index]` subscripts in the kernel
//!   hot-path files, at function granularity), with `panic-ok` audit
//!   suppression resolved per source line and per function header;
//! * **index taint** — extends the intra-procedural index-typed
//!   binding set ([`index_vars`]) across call edges: a parameter fed an index-typed
//!   argument by *any* caller becomes index-typed in the callee, and a
//!   `let` bound to a call returning `usize` becomes index-typed in the
//!   caller;
//! * **raw taint** — bindings derived from
//!   `SharedSliceMut::get_raw`/`slice_mut` (directly, through other
//!   tainted bindings, through raw-returning callees, or through a
//!   parameter fed a tainted argument).

use super::callgraph::CallGraph;
use super::symbols::{split_top_level, Workspace};
use crate::lexer::{self, binders, idents, strip_subscripts, subscript_positions};
use std::collections::{BTreeMap, BTreeSet};

/// Panicking construct classes.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceKind {
    /// `.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!`.
    Direct(&'static str),
    /// Checked `container[index]` subscripts (kernel hot files only;
    /// one source per function, anchored at the first subscript line).
    Indexing,
}

/// One panic source inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// 0-based line.
    pub line: usize,
    pub kind: SourceKind,
    /// 0-based line of the covering `panic-ok` audit annotation, if
    /// the site (or the owning fn header) is vetted.
    pub suppressed_at: Option<usize>,
}

impl PanicSource {
    pub fn describe(&self) -> String {
        match &self.kind {
            SourceKind::Direct(what) => format!("calls `{what}`"),
            SourceKind::Indexing => "uses checked slice indexing (panics on out-of-bounds)".into(),
        }
    }
}

/// Per-function panic-source table.
#[derive(Debug, Default)]
pub struct PanicSources {
    /// Indexed by fn id.
    pub per_fn: Vec<Vec<PanicSource>>,
    /// Fn headers carrying a `panic-ok` audit annotation — propagation
    /// barriers: `(fn id, 0-based annotation line)`.
    pub blocked: BTreeMap<usize, usize>,
}

impl PanicSources {
    /// Any unsuppressed source in `f`'s own body.
    pub fn effective(&self, f: usize) -> Option<&PanicSource> {
        self.per_fn[f].iter().find(|s| s.suppressed_at.is_none())
    }

    /// Any source at all (ignoring suppression) — staleness accounting.
    pub fn raw(&self, f: usize) -> bool {
        !self.per_fn[f].is_empty()
    }
}

const DIRECT_PANICS: &[(&str, &str)] = &[
    (".unwrap()", ".unwrap()"),
    (".expect(", ".expect(…)"),
    ("panic!", "panic!"),
    ("todo!", "todo!"),
    ("unimplemented!", "unimplemented!"),
];

/// Kernel files where checked indexing counts as a panic source. The
/// lint hot-path set: these are the loops the paper's speedup lives in.
const INDEXING_SOURCE_FILES: &[&str] = &["kernels.rs", "lanes.rs", "expand.rs"];

fn basename(rel: &std::path::Path) -> &str {
    rel.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

/// Parse all `AUDIT(<key>): <why>` occurrences in one comment string.
/// Returns `(key, why)` pairs; a `None` why means the annotation is
/// malformed (missing `):` or empty reason).
pub fn annotations_in(comment: &str) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = comment[from..].find("AUDIT(") {
        let at = from + p;
        let rest = &comment[at + "AUDIT(".len()..];
        from = at + "AUDIT(".len();
        let Some(close) = rest.find(')') else {
            out.push((String::new(), None));
            continue;
        };
        let key = rest[..close].trim().to_string();
        // `AUDIT(<key>)`-style placeholders in prose are documentation,
        // not annotations: a real key is ident chars and dashes only.
        if !key.chars().all(|c| lexer::is_ident_char(c) || c == '-') {
            continue;
        }
        let why = rest[close + 1..]
            .strip_prefix(':')
            .map(|tail| tail.split("AUDIT(").next().unwrap_or("").trim().to_string())
            .filter(|why| !why.is_empty());
        out.push((key, why));
    }
    out
}

/// The `AUDIT(<key>)` annotation covering line `idx`, as the 0-based
/// line it sits on: same-line or the contiguous comment/attribute block
/// above.
pub fn covering_annotation_line(lines: &[lexer::LineView], idx: usize, key: &str) -> Option<usize> {
    let has = |j: usize| {
        annotations_in(&lines[j].comment)
            .iter()
            .any(|(k, why)| k == key && why.is_some())
    };
    if has(idx) {
        return Some(idx);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_comment_only() || l.is_attribute() {
            if has(j) {
                return Some(j);
            }
            continue;
        }
        break;
    }
    None
}

/// Collect every function's panic sources.
pub fn panic_sources(ws: &Workspace) -> PanicSources {
    let mut out = PanicSources {
        per_fn: vec![Vec::new(); ws.fns.len()],
        blocked: BTreeMap::new(),
    };
    for (id, f) in ws.fns.iter().enumerate() {
        let sf = &ws.files[f.file];
        if let Some(at) = covering_annotation_line(&sf.lines, f.line, "panic-ok") {
            out.blocked.insert(id, at);
        }
        let header_block = out.blocked.get(&id).copied();
        let indexing_file = INDEXING_SOURCE_FILES.contains(&basename(&sf.rel));
        let mut indexing_done = false;
        for li in f.line..=f.end.min(sf.lines.len().saturating_sub(1)) {
            if sf.in_test[li] {
                continue;
            }
            if ws.enclosing_fn(f.file, li) != Some(id) {
                continue; // nested fn's body
            }
            let code = &sf.lines[li].code;
            for (needle, what) in DIRECT_PANICS {
                if code.contains(needle) {
                    let suppressed_at =
                        covering_annotation_line(&sf.lines, li, "panic-ok").or(header_block);
                    out.per_fn[id].push(PanicSource {
                        line: li,
                        kind: SourceKind::Direct(what),
                        suppressed_at,
                    });
                }
            }
            if indexing_file
                && !indexing_done
                && li > f.line
                && !subscript_positions(code).is_empty()
            {
                indexing_done = true;
                let suppressed_at =
                    covering_annotation_line(&sf.lines, li, "panic-ok").or(header_block);
                out.per_fn[id].push(PanicSource {
                    line: li,
                    kind: SourceKind::Indexing,
                    suppressed_at,
                });
            }
        }
    }
    out
}

/// The argument lists of every call to `name` that starts on line `li`
/// (calls may wrap; text is gathered until the parens balance).
pub fn call_args(lines: &[lexer::LineView], li: usize, name: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let code = &lines[li].code;
    for pos in lexer::word_positions(code, name) {
        let after = code[pos + name.len()..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        // Gather text from the opening paren until balance, across
        // lines (bounded — a call does not span 50 lines here).
        let open = pos + name.len() + (code.len() - pos - name.len() - after.len());
        let mut text = String::new();
        let mut depth = 0i64;
        let mut done = false;
        'lines: for (j, l) in lines.iter().enumerate().skip(li).take(50) {
            let start = if j == li { open } else { 0 };
            for c in l.code[start.min(l.code.len())..].chars() {
                match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => {
                        depth -= 1;
                        if depth == 0 {
                            done = true;
                            break 'lines;
                        }
                    }
                    _ => {}
                }
                if depth > 0 && !(depth == 1 && c == '(') {
                    text.push(c);
                }
            }
            text.push(' ');
        }
        if !done {
            continue;
        }
        // The gathered text starts just inside the outer paren.
        out.push(
            split_top_level(&text)
                .into_iter()
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect(),
        );
    }
    out
}

/// `let` binder names on `code` when the binding's initializer contains
/// byte position `at`.
pub fn let_binders_before(code: &str, at: usize) -> Vec<String> {
    let Some(let_pos) = lexer::word_positions(code, "let").first().copied() else {
        return Vec::new();
    };
    let rest = &code[let_pos + 3..];
    let Some(eq) = rest.find('=') else {
        return Vec::new();
    };
    if let_pos + 3 + eq >= at {
        return Vec::new(); // the position is inside the pattern
    }
    let pat = &rest[..eq];
    binders(pat.split(':').next().unwrap_or(pat))
}

/// Collect the index-typed bindings of one `fn` span: `usize`
/// parameters, `for` binders over ranges / `.enumerate()`, and `let`s
/// whose initializer involves `.len()`, `as usize`, a `usize`
/// annotation, or an already-known index binding. Two rounds reach the
/// fixpoint for the chained-`let` depth seen in practice.
pub fn index_vars(lines: &[lexer::LineView], span: (usize, usize)) -> BTreeSet<String> {
    let mut vars: BTreeSet<String> = BTreeSet::new();
    for round in 0..2 {
        for l in &lines[span.0..=span.1] {
            let code = &l.code;
            if round == 0 {
                // `name: usize` / `name: &usize` parameter or binding types.
                let mut from = 0usize;
                while let Some(p) = code[from..].find("usize") {
                    let at = from + p;
                    from = at + "usize".len();
                    let before = code[..at].trim_end().trim_end_matches(['&', ' ']);
                    let Some(before) = before.strip_suffix(':') else {
                        continue;
                    };
                    if let Some(name) = idents(before).last() {
                        vars.insert(name.clone());
                    }
                }
                // `for <pat> in <iter>` over ranges / enumerate().
                for pos in lexer::word_positions(code, "for") {
                    let rest = &code[pos + 3..];
                    let Some(in_at) = lexer::word_positions(rest, "in").first().copied() else {
                        continue;
                    };
                    let iter = &rest[in_at + 2..];
                    let first = binders(&rest[..in_at]).into_iter().next();
                    if iter.contains(".enumerate()") || iter.contains("..") {
                        vars.extend(first);
                    }
                }
            }
            // `let <pat> = <rhs>` fed by index-ish expressions.
            for pos in lexer::word_positions(code, "let") {
                let rest = &code[pos + 3..];
                let Some(eq) = rest.find('=') else { continue };
                if rest.as_bytes().get(eq + 1) == Some(&b'=') {
                    continue;
                }
                let (pat, rhs) = (&rest[..eq], &rest[eq + 1..]);
                let indexy = rhs.contains(".len(")
                    || lexer::word_positions(rhs, "usize")
                        .iter()
                        .any(|&p| rhs[..p].trim_end().ends_with("as"))
                    || pat.contains("usize")
                    || idents(&strip_subscripts(rhs))
                        .iter()
                        .any(|w| vars.contains(w));
                if indexy {
                    vars.extend(binders(pat.split(':').next().unwrap_or(pat)));
                }
            }
        }
    }
    vars
}

/// Inter-procedural index-typed binding sets.
#[derive(Debug, Default)]
pub struct IndexTaint {
    /// The intra-procedural set, per fn.
    pub base: Vec<BTreeSet<String>>,
    /// Names that became index-typed through call edges, per fn.
    pub extra: Vec<BTreeSet<String>>,
}

impl IndexTaint {
    pub fn full(&self, f: usize) -> BTreeSet<String> {
        self.base[f].union(&self.extra[f]).cloned().collect()
    }
}

/// Fixpoint: push index-typed arguments into callee parameters and
/// `usize` return values back into caller bindings.
pub fn index_taint(ws: &Workspace, cg: &CallGraph) -> IndexTaint {
    let mut t = IndexTaint {
        base: Vec::with_capacity(ws.fns.len()),
        extra: vec![BTreeSet::new(); ws.fns.len()],
    };
    for f in &ws.fns {
        let sf = &ws.files[f.file];
        let end = f.end.min(sf.lines.len().saturating_sub(1));
        t.base.push(index_vars(&sf.lines, (f.line, end)));
    }
    for _round in 0..8 {
        let mut changed = false;
        for (caller, edges) in cg.out.iter().enumerate() {
            let caller_vars = t.full(caller);
            let sf = &ws.files[ws.fns[caller].file];
            for e in edges {
                let callee = &ws.fns[e.callee];
                for args in call_args(&sf.lines, e.line, &callee.name) {
                    for (j, arg) in args.iter().enumerate() {
                        let Some(param) = callee.params.get(j) else {
                            break;
                        };
                        let arg_idents = idents(&strip_subscripts(arg));
                        let indexy = arg.contains(".len(")
                            || arg_idents.iter().any(|w| caller_vars.contains(w));
                        if indexy
                            && !t.base[e.callee].contains(&param.name)
                            && t.extra[e.callee].insert(param.name.clone())
                        {
                            changed = true;
                        }
                    }
                }
                // `let n = callee(…)` with a usize-returning callee.
                if !lexer::word_positions(&callee.ret, "usize").is_empty() {
                    let code = &sf.lines[e.line].code;
                    if let Some(pos) = lexer::word_positions(code, &callee.name).first() {
                        for b in let_binders_before(code, *pos) {
                            if !t.base[caller].contains(&b) && t.extra[caller].insert(b) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    t
}

/// Raw-pointer taint: per-fn tainted binding names (mapped to the
/// 0-based line where each first became tainted), plus which functions
/// return a raw/tainted value.
#[derive(Debug, Default)]
pub struct RawTaint {
    pub vars: Vec<BTreeMap<String, usize>>,
    /// Lines with a direct `get_raw(`/`slice_mut(` call, per fn.
    pub seed_lines: Vec<Vec<usize>>,
    pub returns_raw: Vec<bool>,
}

const RAW_SEEDS: &[&str] = &[".get_raw(", ".slice_mut("];

fn raw_ret_type(ret: &str) -> bool {
    ret.contains("*mut") || ret.contains("*const") || ret.contains("&mut [")
}

/// Fixpoint raw-pointer taint over the call graph.
pub fn raw_taint(ws: &Workspace, cg: &CallGraph) -> RawTaint {
    let mut t = RawTaint {
        vars: vec![BTreeMap::new(); ws.fns.len()],
        seed_lines: vec![Vec::new(); ws.fns.len()],
        returns_raw: vec![false; ws.fns.len()],
    };
    // Seed pass: direct get_raw/slice_mut calls.
    for (id, f) in ws.fns.iter().enumerate() {
        let sf = &ws.files[f.file];
        for li in f.line..=f.end.min(sf.lines.len().saturating_sub(1)) {
            if sf.in_test[li] || ws.enclosing_fn(f.file, li) != Some(id) {
                continue;
            }
            let code = &sf.lines[li].code;
            if let Some(pos) = RAW_SEEDS.iter().filter_map(|s| code.find(s)).min() {
                t.seed_lines[id].push(li);
                for b in let_binders_before(code, pos) {
                    t.vars[id].entry(b).or_insert(li);
                }
            }
        }
    }
    for _round in 0..8 {
        let mut changed = false;
        // Intra propagation: `let x = … tainted …`.
        for (id, f) in ws.fns.iter().enumerate() {
            let sf = &ws.files[f.file];
            for li in f.line..=f.end.min(sf.lines.len().saturating_sub(1)) {
                if sf.in_test[li] || ws.enclosing_fn(f.file, li) != Some(id) {
                    continue;
                }
                let code = &sf.lines[li].code;
                for pos in lexer::word_positions(code, "let") {
                    let rest = &code[pos + 3..];
                    let Some(eq) = rest.find('=') else { continue };
                    if rest.as_bytes().get(eq + 1) == Some(&b'=') {
                        continue;
                    }
                    let (pat, rhs) = (&rest[..eq], &rest[eq + 1..]);
                    let hit = idents(&strip_subscripts(rhs))
                        .iter()
                        .any(|w| t.vars[id].contains_key(w));
                    if hit {
                        for b in binders(pat.split(':').next().unwrap_or(pat)) {
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                t.vars[id].entry(b)
                            {
                                slot.insert(li);
                                changed = true;
                            }
                        }
                    }
                }
            }
            // Return classification.
            if !t.returns_raw[id]
                && raw_ret_type(&f.ret)
                && (!t.seed_lines[id].is_empty() || !t.vars[id].is_empty())
            {
                t.returns_raw[id] = true;
                changed = true;
            }
        }
        // Call-edge propagation.
        for (caller, edges) in cg.out.iter().enumerate() {
            let sf = &ws.files[ws.fns[caller].file];
            for e in edges {
                let callee = &ws.fns[e.callee];
                let caller_vars: Vec<String> = t.vars[caller].keys().cloned().collect();
                // Tainted argument -> tainted callee parameter.
                for args in call_args(&sf.lines, e.line, &callee.name) {
                    for (j, arg) in args.iter().enumerate() {
                        let Some(param) = callee.params.get(j) else {
                            break;
                        };
                        let hit = idents(&strip_subscripts(arg))
                            .iter()
                            .any(|w| caller_vars.contains(w));
                        if hit && !t.vars[e.callee].contains_key(&param.name) {
                            t.vars[e.callee].insert(param.name.clone(), callee.line);
                            changed = true;
                        }
                    }
                }
                // Raw-returning callee -> tainted caller binding.
                if t.returns_raw[e.callee] {
                    let code = &sf.lines[e.line].code;
                    if let Some(pos) = lexer::word_positions(code, &callee.name).first() {
                        for b in let_binders_before(code, *pos) {
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                t.vars[caller].entry(b)
                            {
                                slot.insert(e.line);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::callgraph;
    use crate::analyze::symbols::Workspace;

    #[test]
    fn panic_sources_and_header_suppression() {
        let src = "pub fn a(v: &[u64]) -> u64 {\n    v.first().copied().unwrap()\n}\n// AUDIT(panic-ok): bounds enforced by the W invariant at build time.\npub fn k(v: &[u64], i: usize) -> u64 {\n    v[i]\n}\n";
        let ws = Workspace::from_sources(&[("cscv-core", "crates/core/src/kernels.rs", src)]);
        let ps = panic_sources(&ws);
        let a = ws.fns.iter().position(|f| f.name == "a").unwrap();
        let k = ws.fns.iter().position(|f| f.name == "k").unwrap();
        assert!(ps.effective(a).is_some());
        assert!(ps.raw(k));
        assert!(ps.effective(k).is_none(), "header annotation suppresses");
        assert!(ps.blocked.contains_key(&k));
    }

    #[test]
    fn index_taint_crosses_call_edges() {
        let ws = Workspace::from_sources(&[
            (
                "cscv-core",
                "crates/core/src/kernels.rs",
                "pub fn kern(xs: &[f64]) {\n    let n = xs.len();\n    pack(n as u64);\n}\n",
            ),
            (
                "cscv-core",
                "crates/core/src/util.rs",
                "pub fn pack(w: u64) -> u32 {\n    w as u32\n}\n",
            ),
        ]);
        let cg = callgraph::build(&ws);
        let t = index_taint(&ws, &cg);
        let pack = ws.fns.iter().position(|f| f.name == "pack").unwrap();
        assert!(
            t.extra[pack].contains("w"),
            "param fed an index-derived arg"
        );
    }

    #[test]
    fn raw_taint_follows_returns_and_args() {
        let ws = Workspace::from_sources(&[
            (
                "cscv-a",
                "crates/a/src/lib.rs",
                "pub fn make(s: &Shared) -> *mut f64 {\n    let p = unsafe { s.buf.get_raw(0) };\n    p\n}\n",
            ),
            (
                "cscv-b",
                "crates/b/src/lib.rs",
                "pub fn consume(s: &Shared) {\n    let q = cscv_a::make(s);\n    stash(q);\n}\nfn stash(r: *mut f64) {\n    drop(r);\n}\n",
            ),
        ]);
        let cg = callgraph::build(&ws);
        let t = raw_taint(&ws, &cg);
        let make = ws.fns.iter().position(|f| f.name == "make").unwrap();
        let consume = ws.fns.iter().position(|f| f.name == "consume").unwrap();
        let stash = ws.fns.iter().position(|f| f.name == "stash").unwrap();
        assert!(t.returns_raw[make]);
        assert!(
            t.vars[consume].contains_key("q"),
            "binding from raw-returning call"
        );
        assert!(t.vars[stash].contains_key("r"), "param fed a tainted arg");
    }
}
