//! Whole-workspace inter-procedural static analysis (`cscv-xtask analyze`).
//!
//! The pipeline: [`symbols`] parses every workspace crate with the
//! shared [`crate::lexer`] into an item/signature model; [`callgraph`]
//! builds a cross-crate call graph (use/path tracking plus a
//! trait-method approximation); [`dataflow`] runs fixpoint taint passes
//! over it; [`rules`] turns the facts into findings. A checked-in
//! ratchet baseline (`crates/xtask/analyze_baseline.json`) gates the
//! result: a finding absent from the baseline exits 1, a baseline entry
//! the analyzer no longer produces exits 2 (prune it), clean exits 0.
//!
//! Vetted sites carry one of two annotation forms: `// AUDIT(<key>):
//! <why>` with a key from [`rules::ANNOTATION_KEYS`], and
//! `// ATOMIC(<role>): <why>` on atomic declarations.
//!
//! Fingerprints deliberately exclude line numbers, so moving code
//! around does not churn the baseline; they hash
//! `rule|file|symbol|salient` with FNV-1a 64.

pub mod callgraph;
pub mod dataflow;
pub mod rules;
pub mod symbols;

use cscv_trace::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub const RULE_PROVENANCE: &str = "unsafe-provenance";
pub const RULE_PANIC_REACH: &str = "panic-reachability";
pub const RULE_ATOMIC_ROLE: &str = "atomic-role";
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
pub const RULE_FENCE: &str = "fence-unpaired";
pub const RULE_IPC_CAST: &str = "ipc-cast-truncation";
pub const RULE_UNSAFE_INDEXING: &str = "unsafe-indexing";
pub const RULE_LAYERING: &str = "crate-layering";
pub const RULE_STALE: &str = "audit-stale-annotation";

/// Every rule the analyzer can produce, in the stable order the
/// per-rule NDJSON counts are emitted in.
pub const ALL_RULES: &[&str] = &[
    RULE_PROVENANCE,
    RULE_PANIC_REACH,
    RULE_ATOMIC_ROLE,
    RULE_ATOMIC_ORDERING,
    RULE_FENCE,
    RULE_IPC_CAST,
    RULE_UNSAFE_INDEXING,
    RULE_LAYERING,
    RULE_STALE,
];

/// One analyzer finding. `line` and `suppressed_at` are 1-indexed;
/// `chain` is the witness call chain (qualified fn names) for the
/// inter-procedural rules; `salient` is the stable, line-free part of
/// the identity that feeds the fingerprint.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: usize,
    pub symbol: String,
    pub message: String,
    pub chain: Vec<String>,
    pub salient: String,
    pub suppressed_at: Option<usize>,
}

impl Finding {
    /// Stable identity: FNV-1a 64 over `rule|file|symbol|salient`,
    /// rendered as 16 hex digits. Line numbers are excluded on purpose.
    pub fn fingerprint(&self) -> String {
        let key = format!(
            "{}|{}|{}|{}",
            self.rule,
            self.file.display(),
            self.symbol,
            self.salient
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

#[derive(Debug)]
pub struct AnalyzeReport {
    /// All findings, including suppressed ones (needed for the
    /// stale-annotation accounting and for `--format ndjson`).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub lines_scanned: usize,
    pub fn_count: usize,
    pub edge_count: usize,
}

impl AnalyzeReport {
    /// Findings that actually gate (not vetted by an annotation).
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed_at.is_none())
    }
}

/// Run the full pipeline over an in-memory workspace.
pub fn analyze_workspace(ws: &symbols::Workspace) -> AnalyzeReport {
    let cg = callgraph::build(ws);
    let ps = dataflow::panic_sources(ws);
    let it = dataflow::index_taint(ws, &cg);
    let rt = dataflow::raw_taint(ws, &cg);
    let reaches_raw = rules::reaches_raw_panic(ws, &cg, &ps);

    let mut findings = Vec::new();
    rules::panic_reachability(ws, &cg, &ps, &mut findings);
    rules::provenance(ws, &rt, &mut findings);
    rules::atomics(ws, &mut findings);
    rules::ipc_casts(ws, &cg, &it, &mut findings);
    rules::unsafe_indexing(ws, &mut findings);
    rules::layering(ws, &mut findings);
    let stale = rules::stale_annotations(ws, &ps, &reaches_raw, &findings);
    findings.extend(stale);

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.salient).cmp(&(&b.file, b.line, b.rule, &b.salient))
    });
    findings.dedup_by(|a, b| {
        (&a.file, a.line, a.rule, &a.salient) == (&b.file, b.line, b.rule, &b.salient)
    });
    AnalyzeReport {
        findings,
        files_scanned: ws.files_scanned,
        lines_scanned: ws.lines_scanned,
        fn_count: ws.fns.len(),
        edge_count: cg.edge_count,
    }
}

/// Load the workspace under `root` from disk and analyze it.
pub fn analyze_root(root: &Path) -> Result<AnalyzeReport, String> {
    Ok(analyze_workspace(&symbols::Workspace::load(root)?))
}

// ---------------------------------------------------------------------------
// Ratchet baseline.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub symbol: String,
    pub salient: String,
    pub fingerprint: String,
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parse the committed baseline. A missing file is an empty
    /// baseline (first adoption); malformed JSON is an error.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let json = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let mut entries = Vec::new();
        let get = |j: &Json, k: &str| -> String {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_default()
        };
        if let Some(arr) = json.get("findings").and_then(Json::as_arr) {
            for item in arr {
                entries.push(BaselineEntry {
                    rule: get(item, "rule"),
                    file: get(item, "file"),
                    symbol: get(item, "symbol"),
                    salient: get(item, "salient"),
                    fingerprint: get(item, "fingerprint"),
                });
            }
        }
        Ok(Baseline { entries })
    }

    /// Serialize one entry per line so baseline diffs review cleanly.
    pub fn render(report: &AnalyzeReport) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
        let mut seen = BTreeSet::new();
        let rows: Vec<String> = report
            .active()
            .filter(|f| seen.insert(f.fingerprint()))
            .map(|f| {
                format!(
                    "    {{\"rule\": {}, \"file\": {}, \"symbol\": {}, \
                     \"salient\": {}, \"fingerprint\": \"{}\"}}",
                    q(f.rule),
                    q(&f.file.display().to_string()),
                    q(&f.symbol),
                    q(&f.salient),
                    f.fingerprint(),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Ratchet verdict: exit 1 when new findings appeared, exit 2 when the
/// baseline carries entries the analyzer no longer produces (so fixed
/// findings must be pruned, ratcheting the count down), exit 0 clean.
#[derive(Debug)]
pub struct Ratchet {
    pub new: Vec<Finding>,
    pub stale: Vec<BaselineEntry>,
    pub baselined: usize,
}

impl Ratchet {
    pub fn compare(report: &AnalyzeReport, baseline: &Baseline) -> Ratchet {
        let known: BTreeSet<&str> = baseline
            .entries
            .iter()
            .map(|e| e.fingerprint.as_str())
            .collect();
        let active: BTreeSet<String> = report.active().map(|f| f.fingerprint()).collect();
        let new: Vec<Finding> = report
            .active()
            .filter(|f| !known.contains(f.fingerprint().as_str()))
            .cloned()
            .collect();
        let stale: Vec<BaselineEntry> = baseline
            .entries
            .iter()
            .filter(|e| !active.contains(&e.fingerprint))
            .cloned()
            .collect();
        let baselined = active
            .iter()
            .filter(|fp| known.contains(fp.as_str()))
            .count();
        Ratchet {
            new,
            stale,
            baselined,
        }
    }

    pub fn exit_code(&self) -> u8 {
        if !self.new.is_empty() {
            1
        } else if !self.stale.is_empty() {
            2
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// `s` as a quoted, escaped JSON string literal.
fn q(s: &str) -> String {
    Json::from(s).to_string()
}

fn status_of(f: &Finding, ratchet: &Ratchet) -> &'static str {
    if f.suppressed_at.is_some() {
        "vetted"
    } else if ratchet
        .new
        .iter()
        .any(|n| n.fingerprint() == f.fingerprint())
    {
        "new"
    } else {
        "baselined"
    }
}

pub fn render_table(report: &AnalyzeReport, ratchet: &Ratchet) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let status = status_of(f, ratchet);
        out.push_str(&format!(
            "{}:{}  [{status}] {}  {}\n",
            f.file.display(),
            f.line,
            f.rule,
            f.message
        ));
        if f.chain.len() > 1 {
            out.push_str(&format!("    chain: {}\n", f.chain.join(" → ")));
        }
    }
    for e in &ratchet.stale {
        out.push_str(&format!(
            "{}  [stale-baseline] {}  baseline entry `{}` ({}) is no longer produced — \
             prune it from analyze_baseline.json\n",
            e.file, e.rule, e.salient, e.fingerprint
        ));
    }
    let suppressed = report
        .findings
        .iter()
        .filter(|f| f.suppressed_at.is_some())
        .count();
    let verdict = match ratchet.exit_code() {
        0 => "OK",
        1 => "NEW FINDINGS",
        _ => "STALE BASELINE",
    };
    out.push_str(&format!(
        "cscv-xtask analyze: {verdict} — {} files, {} lines, {} fns, {} call edges; \
         {} new / {} baselined / {} vetted / {} stale\n",
        report.files_scanned,
        report.lines_scanned,
        report.fn_count,
        report.edge_count,
        ratchet.new.len(),
        ratchet.baselined,
        suppressed,
        ratchet.stale.len(),
    ));
    out
}

pub fn render_ndjson(report: &AnalyzeReport, ratchet: &Ratchet) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let chain = f.chain.iter().map(|c| q(c)).collect::<Vec<_>>().join(",");
        out.push_str(&format!(
            "{{\"kind\":\"finding\",\"tool\":\"analyze\",\"rule\":{},\"file\":{},\
             \"line\":{},\"symbol\":{},\"status\":\"{}\",\"fingerprint\":\"{}\",\
             \"chain\":[{}],\"message\":{}}}\n",
            q(f.rule),
            q(&f.file.display().to_string()),
            f.line,
            q(&f.symbol),
            status_of(f, ratchet),
            f.fingerprint(),
            chain,
            q(&f.message),
        ));
    }
    for e in &ratchet.stale {
        out.push_str(&format!(
            "{{\"kind\":\"stale-baseline\",\"tool\":\"analyze\",\"rule\":{},\
             \"file\":{},\"salient\":{},\"fingerprint\":\"{}\"}}\n",
            q(&e.rule),
            q(&e.file),
            q(&e.salient),
            e.fingerprint,
        ));
    }
    // Per-rule counts, one record per known rule in stable order, so
    // CI can chart finding counts without re-aggregating.
    for rule in ALL_RULES {
        let active = report
            .findings
            .iter()
            .filter(|f| f.rule == *rule && f.suppressed_at.is_none())
            .count();
        let vetted = report
            .findings
            .iter()
            .filter(|f| f.rule == *rule && f.suppressed_at.is_some())
            .count();
        out.push_str(&format!(
            "{{\"kind\":\"rule-count\",\"tool\":\"analyze\",\"rule\":{},\
             \"active\":{},\"vetted\":{}}}\n",
            q(rule),
            active,
            vetted,
        ));
    }
    let suppressed = report
        .findings
        .iter()
        .filter(|f| f.suppressed_at.is_some())
        .count();
    out.push_str(&format!(
        "{{\"kind\":\"summary\",\"tool\":\"analyze\",\"files\":{},\"lines\":{},\
         \"fns\":{},\"edges\":{},\"new\":{},\"baselined\":{},\"vetted\":{},\"stale\":{},\
         \"exit\":{}}}\n",
        report.files_scanned,
        report.lines_scanned,
        report.fn_count,
        report.edge_count,
        ratchet.new.len(),
        ratchet.baselined,
        suppressed,
        ratchet.stale.len(),
        ratchet.exit_code(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, salient: &str) -> Finding {
        Finding {
            rule,
            file: PathBuf::from("crates/demo/src/lib.rs"),
            line: 3,
            symbol: "demo::f".into(),
            message: "m".into(),
            chain: Vec::new(),
            salient: salient.into(),
            suppressed_at: None,
        }
    }

    #[test]
    fn fingerprint_ignores_line_numbers() {
        let a = finding(RULE_PROVENANCE, "return|f");
        let mut b = a.clone();
        b.line = 99;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.salient = "store|f|p".into();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn ratchet_exit_codes() {
        let report = AnalyzeReport {
            findings: vec![finding(RULE_PROVENANCE, "return|f")],
            files_scanned: 1,
            lines_scanned: 1,
            fn_count: 1,
            edge_count: 0,
        };
        // Empty baseline: the finding is new.
        let r = Ratchet::compare(&report, &Baseline::default());
        assert_eq!(r.exit_code(), 1);
        // Baseline matches exactly: clean.
        let text = Baseline::render(&report);
        let dir = std::env::temp_dir().join("cscv-analyze-mod-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, &text).unwrap();
        let loaded = Baseline::load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 1);
        let r = Ratchet::compare(&report, &loaded);
        assert_eq!(r.exit_code(), 0, "{:?}", r);
        // Finding fixed but baseline kept: stale.
        let empty = AnalyzeReport {
            findings: Vec::new(),
            files_scanned: 1,
            lines_scanned: 1,
            fn_count: 1,
            edge_count: 0,
        };
        let r = Ratchet::compare(&empty, &loaded);
        assert_eq!(r.exit_code(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_baseline_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/analyze_baseline.json")).unwrap();
        assert!(b.entries.is_empty());
    }

    #[test]
    fn suppressed_findings_do_not_gate() {
        let mut f = finding(RULE_PROVENANCE, "return|f");
        f.suppressed_at = Some(2);
        let report = AnalyzeReport {
            findings: vec![f],
            files_scanned: 1,
            lines_scanned: 1,
            fn_count: 1,
            edge_count: 0,
        };
        let r = Ratchet::compare(&report, &Baseline::default());
        assert_eq!(r.exit_code(), 0);
    }
}
