//! Workspace symbol model for the inter-procedural analyzer.
//!
//! Parses every `.rs` file of every workspace crate (with the shared
//! [`crate::lexer`]) into a lightweight item model: function items with
//! name / qualified path / parameter list / return type / body span,
//! per-file `use` import tables, and atomic declarations with their
//! `// ATOMIC(<role>)` classification. No type checking — just enough
//! structure for the call graph and the dataflow rules to resolve names
//! across crate boundaries. Crate manifests contribute the package name
//! and the workspace-internal dependency edges (the layering rule).

use crate::lexer::{self, binders, idents, LineView};
use std::path::{Path, PathBuf};

/// One `use` entry: `alias` is the name visible in the file, `path` the
/// `::`-joined full path it expands to. Glob imports use alias `*`.
#[derive(Debug, Clone)]
pub struct Import {
    pub alias: String,
    pub path: String,
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root (diagnostic target).
    pub rel: PathBuf,
    /// Index into [`Workspace::crates`].
    pub crate_idx: usize,
    /// Module path of this file, e.g. `cscv_core::formats::csr5`.
    pub module_path: String,
    pub lines: Vec<LineView>,
    pub in_test: Vec<bool>,
    pub imports: Vec<Import>,
}

/// One function parameter: binder name and the (textual) type.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: String,
}

/// One `fn` item anywhere in the workspace.
#[derive(Debug)]
pub struct FnItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 0-based header line (diagnostics add 1).
    pub line: usize,
    /// 0-based last body line, inclusive.
    pub end: usize,
    pub name: String,
    /// `module_path::name` — the resolution key for path calls.
    pub qual: String,
    pub params: Vec<Param>,
    /// Return type text (empty for `()`).
    pub ret: String,
    pub has_self: bool,
    /// Header sits in a `#[cfg(test)]` region or under `#[test]`.
    pub is_test: bool,
}

/// Declared role of an atomic, from `// ATOMIC(<role>): <why>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Monotonic counter / diagnostic value: any ordering is fine.
    Statistic,
    /// Publishes data written before the store: needs release/acquire.
    Handoff,
    /// Lifecycle flag another thread observes: needs release/acquire.
    Flag,
}

impl Role {
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "statistic" => Some(Role::Statistic),
            "handoff" => Some(Role::Handoff),
            "flag" => Some(Role::Flag),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Statistic => "statistic",
            Role::Handoff => "handoff",
            Role::Flag => "flag",
        }
    }
}

/// One atomic declaration site: a `static`, a struct field, a `let`
/// with an atomic type annotation, or a `type` alias whose right-hand
/// side carries an atomic type.
#[derive(Debug)]
pub struct AtomicDecl {
    pub file: usize,
    /// 0-based declaration line.
    pub line: usize,
    pub name: String,
    /// Parsed role, when the annotation exists and is well-formed.
    pub role: Option<Role>,
    /// Raw role text when an ATOMIC(...) annotation exists (even if the
    /// role name is unknown); `None` means no annotation at all.
    pub role_raw: Option<String>,
    /// 0-based line of the covering ATOMIC annotation, when present.
    pub role_line: Option<usize>,
    /// `type X = [AtomicU64; N]`-style alias declarations.
    pub is_alias: bool,
    /// Name of the annotated alias this declaration's type references
    /// (role inheritance: fields typed via an annotated alias need no
    /// annotation of their own).
    pub via_alias: Option<String>,
    pub in_test: bool,
}

/// What the analyzer needs to know about one crate.
#[derive(Debug, Default)]
pub struct CrateInfo {
    /// Manifest package name, e.g. `cscv-core`.
    pub name: String,
    /// Rust identifier form, e.g. `cscv_core`.
    pub ident: String,
    /// Manifest path relative to the analysis root.
    pub manifest: PathBuf,
    /// Workspace-internal `[dependencies]` edges as `(1-based line,
    /// crate)`; dev-dependencies are exempt from layering.
    pub deps: Vec<(usize, String)>,
}

/// The whole-workspace symbol model.
#[derive(Debug, Default)]
pub struct Workspace {
    pub crates: Vec<CrateInfo>,
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnItem>,
    pub atomics: Vec<AtomicDecl>,
    pub files_scanned: usize,
    pub lines_scanned: usize,
}

/// Atomic integer/bool/pointer type names from `std::sync::atomic`.
pub const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

impl Workspace {
    /// Load the workspace under `root`: the root manifest plus every
    /// `crates/*/Cargo.toml`, and all `.rs` files under their `src/`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut manifest_dirs = vec![root.to_path_buf()];
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
                .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            subdirs.sort();
            manifest_dirs.extend(subdirs);
        }
        let mut ws = Workspace::default();
        for dir in manifest_dirs {
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let src = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            let rel = manifest.strip_prefix(root).unwrap_or(&manifest);
            let info = parse_manifest(rel, &src);
            if info.name.is_empty() {
                continue; // virtual workspace root manifest
            }
            let crate_idx = ws.crates.len();
            ws.crates.push(info);
            let mut files = Vec::new();
            let src_dir = dir.join("src");
            if src_dir.is_dir() {
                collect_rs_files(&src_dir, &mut files)?;
                files.sort();
            }
            for path in files {
                let source = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                ws.add_file(rel, crate_idx, &source);
            }
        }
        if ws.crates.is_empty() {
            return Err(format!(
                "no crate manifests under {} (expected crates/*/ or the workspace root)",
                root.display()
            ));
        }
        ws.index_items();
        Ok(ws)
    }

    /// Build a workspace from in-memory sources — the fixture entry
    /// point for tests. Each triple is `(crate_name, rel_path, source)`.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for &(crate_name, rel, source) in sources {
            let crate_idx = match ws.crates.iter().position(|c| c.name == crate_name) {
                Some(i) => i,
                None => {
                    ws.crates.push(CrateInfo {
                        name: crate_name.to_string(),
                        ident: crate_name.replace('-', "_"),
                        ..CrateInfo::default()
                    });
                    ws.crates.len() - 1
                }
            };
            ws.add_file(PathBuf::from(rel), crate_idx, source);
        }
        ws.index_items();
        ws
    }

    fn add_file(&mut self, rel: PathBuf, crate_idx: usize, source: &str) {
        let lines = lexer::analyze(source);
        let in_test = test_regions(&lines);
        let module_path = module_path_of(&self.crates[crate_idx].ident, &rel);
        let imports = parse_imports(&lines);
        self.files_scanned += 1;
        self.lines_scanned += source.lines().count();
        self.files.push(SourceFile {
            rel,
            crate_idx,
            module_path,
            lines,
            in_test,
            imports,
        });
    }

    fn index_items(&mut self) {
        for fi in 0..self.files.len() {
            let fns = scan_fns(fi, &self.files[fi]);
            self.fns.extend(fns);
        }
        // Two passes so alias declarations from any file can confer
        // roles on fields declared elsewhere in the same crate.
        let mut aliases: Vec<(usize, String, Option<Role>)> = Vec::new(); // (crate, name, role)
        for (fi, sf) in self.files.iter().enumerate() {
            for d in scan_atomics(fi, sf, &[]) {
                if d.is_alias {
                    aliases.push((sf.crate_idx, d.name.clone(), d.role));
                }
            }
        }
        for fi in 0..self.files.len() {
            let crate_idx = self.files[fi].crate_idx;
            let crate_aliases: Vec<(String, Option<Role>)> = aliases
                .iter()
                .filter(|(c, _, _)| *c == crate_idx)
                .map(|(_, n, r)| (n.clone(), *r))
                .collect();
            let decls = scan_atomics(fi, &self.files[fi], &crate_aliases);
            self.atomics.extend(decls);
        }
    }

    /// The function (if any) whose body span contains `line` in `file`.
    /// Nested fns prefer the innermost (shortest) span.
    pub fn enclosing_fn(&self, file: usize, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.line <= line && line <= f.end)
            .min_by_key(|(_, f)| f.end - f.line)
            .map(|(i, _)| i)
    }
}

/// Parse the subset of a `Cargo.toml` the analyzer needs: `[package]
/// name` and the workspace-internal `[dependencies]` keys.
pub fn parse_manifest(rel: &Path, src: &str) -> CrateInfo {
    let mut info = CrateInfo {
        manifest: rel.to_path_buf(),
        ..CrateInfo::default()
    };
    let mut section = "";
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "package" if key == "name" => {
                info.name = value.trim().trim_matches('"').to_string();
                info.ident = info.name.replace('-', "_");
            }
            "dependencies" => {
                // `cscv-trace.workspace = true` and
                // `cscv-core = { path = "…" }` both start with the key.
                let dep = key.split('.').next().unwrap_or(key).trim();
                if dep.starts_with("cscv-") {
                    info.deps.push((idx + 1, dep.to_string()));
                }
            }
            _ => {}
        }
    }
    info
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Mark lines inside `#[cfg(test)] mod … { … }` regions (brace-counted
/// on the blanked code view, so strings and comments cannot derail it).
fn test_regions(lines: &[LineView]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip attributes/comments until the `mod` item opens.
        let mut j = i + 1;
        while j < lines.len()
            && lexer::word_positions(&lines[j].code, "mod").is_empty()
            && (lines[j].is_code_blank() || lines[j].is_attribute())
        {
            j += 1;
        }
        if j >= lines.len() || lexer::word_positions(&lines[j].code, "mod").is_empty() {
            i += 1;
            continue;
        }
        // Brace-count from the mod header to its closing brace.
        let mut depth = 0i64;
        let mut opened = false;
        let mut k = j;
        while k < lines.len() {
            for c in lines[k].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            in_test[k] = true;
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    in_test
}

/// Module path of a file: crate ident plus the path segments under
/// `src/` (`lib.rs` / `main.rs` / `mod.rs` contribute no segment).
fn module_path_of(crate_ident: &str, rel: &Path) -> String {
    let mut segs: Vec<String> = vec![crate_ident.to_string()];
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let after_src = match comps.iter().position(|&c| c == "src") {
        Some(i) => &comps[i + 1..],
        None => &comps[..],
    };
    for (i, comp) in after_src.iter().enumerate() {
        let last = i + 1 == after_src.len();
        if last {
            let stem = comp.strip_suffix(".rs").unwrap_or(comp);
            if stem != "lib" && stem != "main" && stem != "mod" {
                segs.push(stem.to_string());
            }
        } else {
            segs.push(comp.to_string());
        }
    }
    segs.join("::")
}

/// Parse the `use` declarations of a file into an alias table.
fn parse_imports(lines: &[LineView]) -> Vec<Import> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        let code = lines[i].code.trim();
        let is_use = code.starts_with("use ")
            || code.starts_with("pub use ")
            || code.starts_with("pub(crate) use ");
        if !is_use {
            i += 1;
            continue;
        }
        // Concatenate until the terminating `;` (grouped imports wrap).
        let mut text = String::new();
        let mut j = i;
        while j < lines.len() {
            text.push_str(lines[j].code.trim());
            text.push(' ');
            if lines[j].code.contains(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
        let Some(use_pos) = lexer::word_positions(&text, "use").first().copied() else {
            continue;
        };
        let body = text[use_pos + 3..]
            .trim()
            .trim_end_matches(' ')
            .trim_end_matches(';')
            .trim();
        parse_use_tree("", body, &mut out);
    }
    out
}

/// Recursively expand one use tree (`a::b::{c, d as e, f::*}`).
fn parse_use_tree(prefix: &str, body: &str, out: &mut Vec<Import>) {
    let body = body.trim().trim_end_matches(';').trim();
    if body.is_empty() {
        return;
    }
    if let Some(brace) = body.find('{') {
        // `head::{group}` — split the group on top-level commas.
        let head = body[..brace].trim_end_matches("::").trim();
        let Some(close) = body.rfind('}') else { return };
        let inner = &body[brace + 1..close];
        let new_prefix = join_path(prefix, head);
        let mut depth = 0usize;
        let mut start = 0usize;
        for (k, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    parse_use_tree(&new_prefix, &inner[start..k], out);
                    start = k + 1;
                }
                _ => {}
            }
        }
        parse_use_tree(&new_prefix, &inner[start..], out);
        return;
    }
    // Leaf: `path`, `path as alias`, `path::*`, bare `self`.
    let (path_part, alias) = match body.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim().to_string())),
        None => (body, None),
    };
    let full = join_path(prefix, path_part);
    let last = full.rsplit("::").next().unwrap_or("").to_string();
    let alias = alias.unwrap_or_else(|| {
        if last == "self" {
            // `use a::b::{self}` — alias is the parent segment.
            full.trim_end_matches("::self")
                .rsplit("::")
                .next()
                .unwrap_or("")
                .to_string()
        } else {
            last.clone()
        }
    });
    let path = full.trim_end_matches("::self").to_string();
    if alias.is_empty() {
        return;
    }
    out.push(Import { alias, path });
}

fn join_path(prefix: &str, seg: &str) -> String {
    let seg = seg.trim().trim_start_matches("::");
    if prefix.is_empty() {
        seg.to_string()
    } else if seg.is_empty() {
        prefix.to_string()
    } else {
        format!("{prefix}::{seg}")
    }
}

/// Scan one file for `fn` items, capturing the header signature.
fn scan_fns(file_idx: usize, sf: &SourceFile) -> Vec<FnItem> {
    let lines = &sf.lines;
    let mut out = Vec::new();
    for i in 0..lines.len() {
        for pos in lexer::word_positions(&lines[i].code, "fn") {
            // Collect the header text from the keyword to the body `{`
            // (or bail at `;` — trait declarations have no body).
            let mut header = String::new();
            let mut depth = 0i64;
            let mut li = i;
            let mut ci = pos + 2;
            let (mut open_line, mut open_col, mut found) = (0usize, 0usize, false);
            'scan: while li < lines.len() {
                let bytes = lines[li].code.as_bytes();
                while ci < bytes.len() {
                    match bytes[ci] {
                        b'(' | b'<' | b'[' => depth += 1,
                        b')' | b'>' | b']' => depth -= 1,
                        b';' if depth <= 0 => break 'scan,
                        b'{' => {
                            open_line = li;
                            open_col = ci;
                            found = true;
                            break 'scan;
                        }
                        _ => {}
                    }
                    header.push(bytes[ci] as char);
                    ci += 1;
                }
                header.push(' ');
                li += 1;
                ci = 0;
            }
            if !found {
                continue;
            }
            let Some(sig) = parse_signature(&header) else {
                continue; // `fn(...)` pointer type, no name
            };
            // Brace-count from the opener to the body's close.
            let mut braces = 0i64;
            let mut end = open_line;
            'count: for (j, l) in lines.iter().enumerate().skip(open_line) {
                let start = if j == open_line { open_col } else { 0 };
                for b in l.code.as_bytes()[start..].iter() {
                    match b {
                        b'{' => braces += 1,
                        b'}' => {
                            braces -= 1;
                            if braces <= 0 {
                                end = j;
                                break 'count;
                            }
                        }
                        _ => {}
                    }
                }
                end = j;
            }
            let is_test = sf.in_test[i] || attr_block_has_test(lines, i);
            out.push(FnItem {
                file: file_idx,
                line: i,
                end,
                qual: format!("{}::{}", sf.module_path, sig.0),
                name: sig.0,
                params: sig.1,
                ret: sig.2,
                has_self: sig.3,
                is_test,
            });
        }
    }
    out
}

/// `#[test]` / `#[bench]` in the contiguous attribute block above.
fn attr_block_has_test(lines: &[LineView], idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_attribute() {
            if l.code.contains("#[test]") || l.code.contains("#[bench]") {
                return true;
            }
            continue;
        }
        if l.is_comment_only() || l.is_code_blank() {
            continue;
        }
        break;
    }
    false
}

/// Parse `name<T, …>(params) -> ret` from the text after `fn`. Returns
/// `(name, params, ret, has_self)`; `None` when there is no name
/// (fn-pointer types).
#[allow(clippy::type_complexity)]
fn parse_signature(header: &str) -> Option<(String, Vec<Param>, String, bool)> {
    let rest = header.trim_start();
    let name: String = rest
        .chars()
        .take_while(|&c| lexer::is_ident_char(c))
        .collect();
    if name.is_empty() {
        return None;
    }
    let mut after = &rest[name.len()..];
    after = after.trim_start();
    // Skip generic parameters.
    if after.starts_with('<') {
        let mut depth = 0i64;
        let mut cut = after.len();
        for (k, c) in after.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        after = after[cut..].trim_start();
    }
    if !after.starts_with('(') {
        return None;
    }
    let mut depth = 0i64;
    let mut close = after.len();
    for (k, c) in after.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => {
                depth -= 1;
                if depth == 0 && c == ')' {
                    close = k;
                    break;
                }
            }
            _ => {}
        }
    }
    let params_text = &after[1..close.min(after.len())];
    let tail = after.get(close + 1..).unwrap_or("");
    let ret = match tail.find("->") {
        Some(p) => {
            let r = &tail[p + 2..];
            let r = match r.find(" where ") {
                Some(w) => &r[..w],
                None => r,
            };
            r.trim().to_string()
        }
        None => String::new(),
    };
    let mut params = Vec::new();
    let mut has_self = false;
    for (pi, piece) in split_top_level(params_text).into_iter().enumerate() {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        if pi == 0 && !lexer::word_positions(piece, "self").is_empty() && !piece.contains(':') {
            has_self = true;
            continue;
        }
        let Some(colon) = find_top_level_colon(piece) else {
            continue;
        };
        let (pat, ty) = (&piece[..colon], &piece[colon + 1..]);
        let name = binders(pat).pop().unwrap_or_default();
        if !name.is_empty() {
            params.push(Param {
                name,
                ty: ty.trim().to_string(),
            });
        }
    }
    Some((name, params, ret, has_self))
}

/// Split on commas at bracket depth 0.
pub(crate) fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (k, c) in s.char_indices() {
        match c {
            '(' | '[' | '<' | '{' => depth += 1,
            ')' | ']' | '>' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(s[start..k].to_string());
                start = k + 1;
            }
            _ => {}
        }
    }
    out.push(s[start..].to_string());
    out
}

/// First `:` at bracket depth 0 that is not part of `::`.
pub(crate) fn find_top_level_colon(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i64;
    let mut k = 0usize;
    while k < bytes.len() {
        match bytes[k] {
            b'(' | b'[' | b'<' | b'{' => depth += 1,
            b')' | b']' | b'>' | b'}' => depth -= 1,
            b':' if depth == 0 => {
                if bytes.get(k + 1) == Some(&b':') {
                    k += 2;
                    continue;
                }
                return Some(k);
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parse `ATOMIC(<role>)` / `ATOMIC(<role>): <why>` occurrences in one
/// comment string. Mirrors the AUDIT grammar; returns `(role, has_why)`
/// pairs. Placeholder text like `ATOMIC(<role>)` in prose is skipped.
pub fn atomic_annotations_in(comment: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = comment[from..].find("ATOMIC(") {
        let at = from + p;
        let rest = &comment[at + "ATOMIC(".len()..];
        from = at + "ATOMIC(".len();
        let Some(close) = rest.find(')') else {
            continue;
        };
        let role = rest[..close].trim().to_string();
        if !role.chars().all(|c| lexer::is_ident_char(c) || c == '-') || role.is_empty() {
            continue;
        }
        let after = &rest[close + 1..];
        let has_why = after
            .strip_prefix(':')
            .is_some_and(|tail| !tail.trim().is_empty());
        out.push((role, has_why));
    }
    out
}

/// The covering ATOMIC annotation for a declaration at line `idx`:
/// same line or the contiguous comment/attribute block directly above.
/// Returns `(annotation_line, role_text)`.
pub fn atomic_annotation_at(lines: &[LineView], idx: usize) -> Option<(usize, String)> {
    let pick = |j: usize| -> Option<(usize, String)> {
        atomic_annotations_in(&lines[j].comment)
            .into_iter()
            .next()
            .map(|(role, _)| (j, role))
    };
    if let Some(hit) = pick(idx) {
        return Some(hit);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_comment_only() || l.is_attribute() {
            if let Some(hit) = pick(j) {
                return Some(hit);
            }
            continue;
        }
        break;
    }
    None
}

/// Scan one file for atomic declarations. `aliases` is the crate's
/// atomic-bearing `type` aliases as `(name, role)`.
fn scan_atomics(
    file_idx: usize,
    sf: &SourceFile,
    aliases: &[(String, Option<Role>)],
) -> Vec<AtomicDecl> {
    let lines = &sf.lines;
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        let trimmed = code.trim();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        // Which atomic type (or annotated alias) does this line mention
        // in a *type* position? `AtomicU64::new(` is an expression, not
        // a declaration.
        let mut via_alias: Option<String> = None;
        let mut mentions = false;
        for ty in ATOMIC_TYPES {
            for p in lexer::word_positions(code, ty) {
                let after = code[p + ty.len()..].trim_start();
                if !after.starts_with("::") {
                    mentions = true;
                }
            }
        }
        if !mentions {
            for (alias, _) in aliases {
                for p in lexer::word_positions(code, alias) {
                    let after = code[p + alias.len()..].trim_start();
                    if !after.starts_with("::") {
                        mentions = true;
                        via_alias = Some(alias.clone());
                    }
                }
            }
        }
        if !mentions {
            continue;
        }
        // Classify the declaration form and extract the declared name.
        let (name, is_alias) = if let Some(p) = lexer::word_positions(code, "type").first() {
            let rest = &code[p + 4..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|&c| lexer::is_ident_char(c))
                .collect();
            (name, true)
        } else if let Some(p) = lexer::word_positions(code, "static").first() {
            let rest = code[p + 6..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|&c| lexer::is_ident_char(c))
                .collect();
            (name, false)
        } else if let Some(p) = lexer::word_positions(code, "let").first() {
            // Only `let name: <atomic type> = …` counts as a declaration;
            // atomics threaded through untyped lets resolve via their
            // originating field/static instead.
            let rest = &code[p + 3..];
            let Some(colon) = find_top_level_colon(rest) else {
                continue;
            };
            let ty_has_atomic = {
                let ty = &rest[colon + 1..];
                ATOMIC_TYPES
                    .iter()
                    .any(|t| !lexer::word_positions(ty, t).is_empty())
                    || aliases
                        .iter()
                        .any(|(a, _)| !lexer::word_positions(ty, a).is_empty())
            };
            if !ty_has_atomic {
                continue;
            }
            let name = binders(&rest[..colon]).pop().unwrap_or_default();
            (name, false)
        } else if let Some(colon) = find_top_level_colon(trimmed) {
            // Struct field: `pub counters: Arc<CounterShard>,`. The
            // atomic mention must sit in the type, after the colon.
            let (head, ty) = (&trimmed[..colon], &trimmed[colon + 1..]);
            let ty_has_atomic = ATOMIC_TYPES
                .iter()
                .any(|t| !lexer::word_positions(ty, t).is_empty())
                || aliases
                    .iter()
                    .any(|(a, _)| !lexer::word_positions(ty, a).is_empty());
            if !ty_has_atomic {
                continue;
            }
            let name = idents(head)
                .into_iter()
                .rfind(|w| w != "pub" && w != "crate" && w != "super")
                .unwrap_or_default();
            (name, false)
        } else {
            continue;
        };
        if name.is_empty() {
            continue;
        }
        let annotation = atomic_annotation_at(lines, i);
        let (role_line, role_raw) = match &annotation {
            Some((line, role)) => (Some(*line), Some(role.clone())),
            None => (None, None),
        };
        let mut role = role_raw.as_deref().and_then(Role::parse);
        if role.is_none() && role_raw.is_none() {
            // Inherit from the referenced annotated alias.
            if let Some(alias) = &via_alias {
                role = aliases
                    .iter()
                    .find(|(a, _)| a == alias)
                    .and_then(|(_, r)| *r);
            }
        }
        out.push(AtomicDecl {
            file: file_idx,
            line: i,
            name,
            role,
            role_raw,
            role_line,
            is_alias,
            via_alias,
            in_test: sf.in_test[i],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(&[("cscv-demo", "crates/demo/src/lib.rs", src)])
    }

    #[test]
    fn fn_items_capture_signature_and_span() {
        let w = ws("pub fn scale(xs: &mut [f64], k: usize) -> u32 {\n    let n = xs.len();\n    n as u32\n}\n");
        assert_eq!(w.fns.len(), 1);
        let f = &w.fns[0];
        assert_eq!(f.name, "scale");
        assert_eq!(f.qual, "cscv_demo::scale");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].name, "k");
        assert_eq!(f.params[1].ty, "usize");
        assert_eq!(f.ret, "u32");
        assert!(!f.has_self);
        assert_eq!((f.line, f.end), (0, 3));
    }

    #[test]
    fn methods_and_generics_parse() {
        let w = ws("impl X {\n    fn get_mut<T: Copy>(&mut self, i: usize) -> &mut T {\n        todo_body()\n    }\n}\n");
        assert_eq!(w.fns.len(), 1);
        assert!(w.fns[0].has_self);
        assert_eq!(w.fns[0].params[0].name, "i");
    }

    #[test]
    fn module_paths_follow_file_layout() {
        let w = Workspace::from_sources(&[
            ("cscv-core", "crates/core/src/lib.rs", "fn a() {}\n"),
            ("cscv-core", "crates/core/src/exec.rs", "fn b() {}\n"),
            (
                "cscv-core",
                "crates/core/src/formats/csr5.rs",
                "fn c() {}\n",
            ),
        ]);
        let quals: Vec<&str> = w.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "cscv_core::a",
                "cscv_core::exec::b",
                "cscv_core::formats::csr5::c"
            ]
        );
    }

    #[test]
    fn imports_expand_groups_and_renames() {
        let w =
            ws("use crate::pool::{ThreadPool, spawn_all as spawn};\nuse cscv_trace::counters;\n");
        let f = &w.files[0];
        let find = |a: &str| {
            f.imports
                .iter()
                .find(|i| i.alias == a)
                .map(|i| i.path.clone())
        };
        assert_eq!(find("ThreadPool"), Some("crate::pool::ThreadPool".into()));
        assert_eq!(find("spawn"), Some("crate::pool::spawn_all".into()));
        assert_eq!(find("counters"), Some("cscv_trace::counters".into()));
    }

    #[test]
    fn atomic_static_with_role_annotation() {
        let w = ws("// ATOMIC(statistic): monotonically increasing id source.\nstatic SEQ: AtomicU64 = AtomicU64::new(0);\n");
        assert_eq!(w.atomics.len(), 1);
        let d = &w.atomics[0];
        assert_eq!(d.name, "SEQ");
        assert_eq!(d.role, Some(Role::Statistic));
        assert_eq!(d.role_line, Some(0));
    }

    #[test]
    fn alias_role_inherited_by_fields() {
        let src = "// ATOMIC(statistic): per-thread counter shard.\npub type Shard = [AtomicU64; 4];\nstruct Slot {\n    counters: std::sync::Arc<Shard>,\n}\n";
        let w = ws(src);
        let field = w.atomics.iter().find(|d| d.name == "counters").unwrap();
        assert_eq!(field.role, Some(Role::Statistic));
        assert_eq!(field.via_alias.as_deref(), Some("Shard"));
    }

    #[test]
    fn expression_new_is_not_a_declaration() {
        let w = ws("fn f() {\n    go(AtomicU64::new(0));\n}\n");
        assert!(w.atomics.is_empty());
    }

    #[test]
    fn test_attr_marks_fn_as_test() {
        let w = ws("#[test]\nfn t() {\n    helper();\n}\nfn helper() {}\n");
        assert!(w.fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!w.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
    }
}
