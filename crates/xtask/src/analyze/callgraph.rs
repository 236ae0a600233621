//! Workspace-wide call graph over the [`super::symbols`] model.
//!
//! Call sites are extracted syntactically from the blanked code view and
//! resolved in three modes:
//!
//! * **plain calls** `f(…)` — same file first, then the file's `use`
//!   imports, then same-crate functions of that name;
//! * **path calls** `a::b::f(…)` — longest-suffix match against the
//!   qualified names of all workspace functions, with `crate`/`self`
//!   normalized against the calling file and type segments
//!   (capitalized, e.g. `ThreadPool::run`) treated as wildcards;
//! * **method calls** `recv.f(…)` — *trait-method approximation*: an
//!   edge to every workspace function named `f` that takes `self`,
//!   except for names on the [`STD_METHODS`] list (std iterator/slice
//!   vocabulary), which would otherwise connect unrelated code through
//!   `.len()`-shaped calls.
//!
//! The result deliberately over-approximates (an ambiguous name links to
//! every candidate): downstream rules that walk the graph report
//! *witness chains*, so a spurious edge shows up in the printed chain
//! and can be vetted or fixed at the annotation layer.

use super::symbols::Workspace;
use crate::lexer;
use std::collections::BTreeMap;

/// Method names resolved to std/core vocabulary rather than workspace
/// functions. Method-call edges on these names are dropped; plain and
/// path calls still resolve normally.
pub const STD_METHODS: &[&str] = &[
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_mut_ptr",
    "as_ptr",
    "as_ref",
    "as_slice",
    "abs",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "chunks_exact",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "display",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "is_empty",
    "is_file",
    "is_dir",
    "is_finite",
    "is_nan",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "iter",
    "iter_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "ln",
    "map",
    "map_err",
    "map_while",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "next_back",
    "nth",
    "parse",
    "partition",
    "peek",
    "pop",
    "position",
    "powi",
    "powf",
    "product",
    "push",
    "push_str",
    "range",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "rotate_left",
    "rotate_right",
    "round",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "split_at",
    "split_at_mut",
    "split_first",
    "split_last",
    "split_off",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_owned",
    "to_lowercase",
    "to_string",
    "to_uppercase",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "zip",
    "ends_with",
    "and_then",
    "or_else",
    "ok",
    "ok_or",
    "ok_or_else",
    "err",
    "expect_err",
    "unzip",
    "rsplit",
    "splitn",
    "matches",
    "min_element",
    "max_element",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "rem_euclid",
    "div_euclid",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "exists",
    "file_name",
    "extension",
    "with_extension",
    "file_stem",
    "components",
    "ancestors",
    "to_path_buf",
    "to_str",
    "into_os_string",
    // mpsc/socket vocabulary: `tx.send(…)` / `rx.recv()` on std channels
    // must not link to workspace protocol fns of the same name.
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
    "try_send",
    "send_timeout",
];

/// Std/core type names whose associated functions (`Mutex::new`,
/// `Vec::with_capacity`, `Instant::now`, …) must never resolve into the
/// workspace — common constructor names like `new` otherwise link to
/// every workspace constructor and poison reachability.
pub const STD_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "String",
    "Box",
    "Rc",
    "Arc",
    "Weak",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "Condvar",
    "Once",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "Instant",
    "Duration",
    "SystemTime",
    "PathBuf",
    "Path",
    "OsString",
    "OsStr",
    "CString",
    "CStr",
    "File",
    "OpenOptions",
    "BufReader",
    "BufWriter",
    "Command",
    "Stdio",
    "Builder",
    "JoinHandle",
    "Barrier",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
    "Ordering",
    "Option",
    "Result",
    "Default",
    "Iterator",
    "ExitCode",
    "ExitStatus",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "UnixStream",
    "UnixListener",
    "NonNull",
    "ManuallyDrop",
    "MaybeUninit",
    "PhantomData",
    "Layout",
    "Cow",
    "Wrapping",
    "Saturating",
    "Range",
    "Error",
    "Formatter",
    "Sender",
    "Receiver",
    "SyncSender",
    "Waker",
    "Context",
    "Pin",
    "Reverse",
    "Entry",
    "Thread",
];

/// Rust keywords (and keyword-shaped tokens) that precede `(` without
/// being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as", "fn",
    "let", "mut", "ref", "move", "unsafe", "impl", "where", "pub", "crate", "super", "self",
    "Self", "use", "mod", "dyn", "box", "async", "await", "yield", "true", "false", "Some", "None",
    "Ok", "Err",
];

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub callee: usize,
    /// 0-based source line of the call site in the caller's file.
    pub line: usize,
}

/// Call graph: per-function outgoing edges plus a reverse adjacency.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub out: Vec<Vec<Edge>>,
    pub ins: Vec<Vec<usize>>,
    pub edge_count: usize,
}

/// A syntactic call site before resolution.
#[derive(Debug, PartialEq)]
pub enum CallKind {
    Plain(String),
    /// Path segments (without the final name) and the name.
    Path(Vec<String>, String),
    Method(String),
}

/// Extract the call sites of one line of blanked code. Returns
/// `(byte_offset_of_name, kind)` pairs.
pub fn call_sites(code: &str) -> Vec<(usize, CallKind)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (k, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Walk back over whitespace to the token before `(`.
        let mut e = k;
        while e > 0 && bytes[e - 1].is_ascii_whitespace() {
            e -= 1;
        }
        if e == 0 || !lexer::is_ident_char(bytes[e - 1] as char) {
            continue;
        }
        let mut s = e;
        while s > 0 && lexer::is_ident_char(bytes[s - 1] as char) {
            s -= 1;
        }
        let name = &code[s..e];
        if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // `ident!(` is a macro invocation, not a call.
        if bytes.get(e) == Some(&b'!') {
            continue;
        }
        let before = if s > 0 { bytes[s - 1] } else { b' ' };
        if before == b'!' {
            continue;
        }
        if before == b'.' {
            // `recv.f(…)`; `1.0f64.powi(…)`-style float methods still
            // land here but resolve to nothing or STD_METHODS.
            out.push((s, CallKind::Method(name.to_string())));
            continue;
        }
        if before == b':' && s >= 2 && bytes[s - 2] == b':' {
            // Collect the `seg::seg::` prefix.
            let mut segs: Vec<String> = Vec::new();
            let mut p = s - 2;
            loop {
                let mut q = p;
                while q > 0 && lexer::is_ident_char(bytes[q - 1] as char) {
                    q -= 1;
                }
                if q == p {
                    break;
                }
                segs.push(code[q..p].to_string());
                if q >= 2 && bytes[q - 1] == b':' && bytes[q - 2] == b':' {
                    p = q - 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            out.push((s, CallKind::Path(segs, name.to_string())));
            continue;
        }
        out.push((s, CallKind::Plain(name.to_string())));
    }
    out
}

struct Resolver {
    /// name -> fn ids (all).
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Resolver {
    fn new(ws: &Workspace) -> Resolver {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in ws.fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
        }
        Resolver { by_name }
    }

    fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn resolve(&self, ws: &Workspace, caller: usize, kind: &CallKind) -> Vec<usize> {
        let caller_fn = &ws.fns[caller];
        let file = &ws.files[caller_fn.file];
        match kind {
            CallKind::Method(name) => {
                if STD_METHODS.contains(&name.as_str()) {
                    return Vec::new();
                }
                self.named(name)
                    .iter()
                    .copied()
                    .filter(|&id| ws.fns[id].has_self)
                    .collect()
            }
            CallKind::Plain(name) => {
                let cands = self.named(name);
                // Same file beats everything.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| ws.fns[id].file == caller_fn.file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                // A `use` import naming it decides the path. Checked
                // before bailing on an empty `cands`: a renamed import
                // (`use a::{b as c, d}`) binds a local name that no
                // workspace fn carries, so the by-name table alone
                // would drop the edge.
                if let Some(imp) = file.imports.iter().find(|i| &i.alias == name) {
                    let segs: Vec<String> = imp.path.split("::").map(str::to_string).collect();
                    let (head, last) = segs.split_at(segs.len().saturating_sub(1));
                    let target = last.first().cloned().unwrap_or_default();
                    let resolved = self.resolve_path(ws, caller, head, &target);
                    if !resolved.is_empty() {
                        return resolved;
                    }
                }
                // Same crate (sibling modules re-exported via lib.rs).
                cands
                    .iter()
                    .copied()
                    .filter(|&id| ws.files[ws.fns[id].file].crate_idx == file.crate_idx)
                    .collect()
            }
            CallKind::Path(segs, name) => self.resolve_path(ws, caller, segs, name),
        }
    }

    fn resolve_path(
        &self,
        ws: &Workspace,
        caller: usize,
        segs: &[String],
        name: &str,
    ) -> Vec<usize> {
        let caller_fn = &ws.fns[caller];
        let file = &ws.files[caller_fn.file];
        let crate_ident = &ws.crates[file.crate_idx].ident;
        // Normalize the prefix: `crate` -> calling crate ident, `self`
        // -> calling module, drop `super` segments (rare, and suffix
        // matching absorbs the imprecision). Type segments (capitalized)
        // are wildcards: `ThreadPool::run` matches any fn named `run`.
        let mut norm: Vec<String> = Vec::new();
        for (i, s) in segs.iter().enumerate() {
            match s.as_str() {
                "crate" => norm.push(crate_ident.clone()),
                "self" if i == 0 => norm.extend(file.module_path.split("::").map(str::to_string)),
                "super" => {
                    norm.pop();
                }
                _ => norm.push(s.clone()),
            }
        }
        // Expand a leading import alias: `pool::spawn(…)` after
        // `use crate::pool;`.
        if let Some(first) = norm.first().cloned() {
            if let Some(imp) = file.imports.iter().find(|i| i.alias == first) {
                let mut expanded: Vec<String> = imp.path.split("::").map(str::to_string).collect();
                expanded.extend(norm.iter().skip(1).cloned());
                norm = expanded
                    .into_iter()
                    .map(|s| if s == "crate" { crate_ident.clone() } else { s })
                    .collect();
            }
        }
        let module_segs: Vec<&String> = norm
            .iter()
            .filter(|s| {
                s.chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
            })
            .collect();
        let cands = self.named(name);
        // Longest-suffix match over the module segments.
        for take in (1..=module_segs.len()).rev() {
            let suffix: Vec<&str> = module_segs[module_segs.len() - take..]
                .iter()
                .map(|s| s.as_str())
                .collect();
            let needle = format!("{}::{}", suffix.join("::"), name);
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    let q = &ws.fns[id].qual;
                    q == &needle || q.ends_with(&format!("::{needle}"))
                })
                .collect();
            if !hits.is_empty() {
                return hits;
            }
        }
        // No module segment matched. If the path carried a type segment
        // (associated fn / method via `Type::f`), approximate — but
        // `Vec::new()`-shaped std constructors must not link to every
        // workspace `new`, so known std types resolve to nothing and
        // workspace types prefer the nearest candidate (same file, then
        // same crate) before falling back to every fn of that name.
        let type_seg = norm
            .iter()
            .rev()
            .find(|s| s.chars().next().is_some_and(|c| c.is_uppercase()));
        match type_seg {
            None => Vec::new(),
            Some(t) if STD_TYPES.contains(&t.as_str()) => Vec::new(),
            Some(_) => {
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| ws.fns[id].file == caller_fn.file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| ws.files[ws.fns[id].file].crate_idx == file.crate_idx)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                cands.to_vec()
            }
        }
    }
}

/// Build the call graph for a workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let resolver = Resolver::new(ws);
    let mut out: Vec<Vec<Edge>> = vec![Vec::new(); ws.fns.len()];
    let mut ins: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    let mut edge_count = 0usize;
    for (caller, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        for li in f.line..=f.end.min(file.lines.len().saturating_sub(1)) {
            // Skip nested fns' bodies: their call sites belong to them.
            if ws
                .enclosing_fn(f.file, li)
                .is_some_and(|inner| inner != caller)
            {
                continue;
            }
            for (pos, kind) in call_sites(&file.lines[li].code) {
                // The fn's own header (`fn name(…)`) is not a call.
                if li == f.line {
                    if let CallKind::Plain(n) = &kind {
                        if n == &f.name {
                            let before = file.lines[li].code[..pos].trim_end();
                            if before.ends_with("fn") {
                                continue;
                            }
                        }
                    }
                }
                for callee in resolver.resolve(ws, caller, &kind) {
                    if out[caller]
                        .iter()
                        .any(|e| e.callee == callee && e.line == li)
                    {
                        continue;
                    }
                    out[caller].push(Edge { callee, line: li });
                    ins[callee].push(caller);
                    edge_count += 1;
                }
            }
        }
    }
    CallGraph {
        out,
        ins,
        edge_count,
    }
}

impl CallGraph {
    /// Deterministic `caller -> callee` listing for snapshot tests.
    pub fn render(&self, ws: &Workspace) -> String {
        let mut rows: Vec<String> = Vec::new();
        for (caller, edges) in self.out.iter().enumerate() {
            for e in edges {
                rows.push(format!(
                    "{} -> {}",
                    ws.fns[caller].qual, ws.fns[e.callee].qual
                ));
            }
        }
        rows.sort();
        rows.dedup();
        rows.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::symbols::Workspace;

    #[test]
    fn call_site_extraction_classifies_forms() {
        let sites = call_sites("let x = helper(a) + v.lookup(b) + pool::spawn(c);");
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].1, CallKind::Plain("helper".into()));
        assert_eq!(sites[1].1, CallKind::Method("lookup".into()));
        assert_eq!(
            sites[2].1,
            CallKind::Path(vec!["pool".into()], "spawn".into())
        );
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        assert!(call_sites("if (a) { return (b); }").is_empty());
        assert!(call_sites("println!(\"x\"); vec![1]").is_empty());
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let ws = Workspace::from_sources(&[
            (
                "cscv-core",
                "crates/core/src/exec.rs",
                "pub fn execute() {\n    cscv_sparse::pool::dispatch_all();\n}\n",
            ),
            (
                "cscv-sparse",
                "crates/sparse/src/pool.rs",
                "pub fn dispatch_all() {}\n",
            ),
        ]);
        let cg = build(&ws);
        assert_eq!(
            cg.render(&ws),
            "cscv_core::exec::execute -> cscv_sparse::pool::dispatch_all"
        );
    }

    #[test]
    fn brace_grouped_rename_resolves_plain_call() {
        // `use a::{b as c, d}` binds a local name (`c`) that no
        // workspace fn carries; resolution must go through the import
        // table, not the global by-name index (which is empty for `c`
        // and used to drop the edge before the alias was consulted).
        let ws = Workspace::from_sources(&[
            (
                "cscv-core",
                "crates/core/src/exec.rs",
                "use cscv_sparse::pool::{spawn_all as launch, join_all};\n\
                 pub fn execute() {\n    launch();\n    join_all();\n}\n",
            ),
            (
                "cscv-sparse",
                "crates/sparse/src/pool.rs",
                "pub fn spawn_all() {}\npub fn join_all() {}\n",
            ),
        ]);
        let cg = build(&ws);
        assert_eq!(
            cg.render(&ws),
            "cscv_core::exec::execute -> cscv_sparse::pool::join_all\n\
             cscv_core::exec::execute -> cscv_sparse::pool::spawn_all"
        );
    }

    #[test]
    fn import_alias_resolves_plain_call() {
        let ws = Workspace::from_sources(&[
            (
                "cscv-core",
                "crates/core/src/exec.rs",
                "use cscv_sparse::pool::dispatch_all;\npub fn execute() {\n    dispatch_all();\n}\n",
            ),
            (
                "cscv-sparse",
                "crates/sparse/src/pool.rs",
                "pub fn dispatch_all() {}\n",
            ),
        ]);
        let cg = build(&ws);
        assert_eq!(cg.edge_count, 1);
    }

    #[test]
    fn method_approximation_links_self_fns_but_not_std_names() {
        let ws = Workspace::from_sources(&[
            (
                "cscv-a",
                "crates/a/src/lib.rs",
                "pub fn go(p: &P) {\n    p.launch();\n    p.len();\n}\n",
            ),
            (
                "cscv-b",
                "crates/b/src/lib.rs",
                "impl P {\n    pub fn launch(&self) {}\n    pub fn len(&self) -> usize { 0 }\n}\n",
            ),
        ]);
        let cg = build(&ws);
        assert_eq!(cg.render(&ws), "cscv_a::go -> cscv_b::launch");
    }

    #[test]
    fn own_header_is_not_an_edge_but_recursion_is() {
        let ws = Workspace::from_sources(&[(
            "cscv-a",
            "crates/a/src/lib.rs",
            "fn fact(n: u64) -> u64 {\n    if n == 0 { 1 } else { n * fact(n - 1) }\n}\n",
        )]);
        let cg = build(&ws);
        assert_eq!(cg.edge_count, 1);
        assert_eq!(cg.out[0][0].callee, 0);
    }
}
