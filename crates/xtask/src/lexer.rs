//! A line-oriented Rust-source lexer — just enough syntax awareness for
//! the analyzer, in the same hand-rolled spirit as `cscv_trace::json`.
//!
//! The lexer does not tokenize; it classifies every byte of a source file
//! as *code*, *string content*, or *comment content*, then hands each line
//! back in three synchronized views:
//!
//! * [`LineView::code`] — comments and string contents blanked to spaces
//!   (keyword searches like `unsafe` or `.unwrap()` cannot be fooled by
//!   doc text or log messages);
//! * [`LineView::code_with_strings`] — comments blanked, string literals
//!   kept verbatim (attribute matching like `cfg(feature = "trace")`
//!   needs the literal);
//! * [`LineView::comment`] — the comment text of the line (`AUDIT(…)` /
//!   `ATOMIC(…)` annotation detection).
//!
//! Handled syntax: line comments, nested block comments, string literals
//! with escapes, raw strings (`r"…"`, `r#"…"#`, byte variants), char
//! literals, and the char-vs-lifetime ambiguity (`'a'` vs `'static`).
//! The expression-text helpers at the end ([`idents`], [`binders`],
//! [`strip_subscripts`], [`subscript_positions`]) work on the blanked
//! code view.

/// One source line in the three synchronized views.
#[derive(Debug, Default, Clone)]
pub struct LineView {
    /// Code with comments *and* string contents blanked.
    pub code: String,
    /// Code with comments blanked, strings kept.
    pub code_with_strings: String,
    /// Comment text on this line (line + block comments, concatenated).
    pub comment: String,
}

impl LineView {
    /// Whether the line holds no code at all (blank / comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// Whether the line is comment-only (has a comment, no code).
    pub fn is_comment_only(&self) -> bool {
        self.is_code_blank() && !self.comment.trim().is_empty()
    }

    /// Whether the line's code is (the start of) an attribute,
    /// e.g. `#[inline]` or `#[cfg(feature = "trace")]`.
    pub fn is_attribute(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comment at the given depth.
    BlockComment(u32),
    /// Inside `"…"`.
    Str,
    /// Inside a raw string with `n` guard hashes.
    RawStr(u32),
    /// Inside `'…'`.
    Char,
}

/// Classify `source` into per-line views. Lines are 0-indexed in the
/// returned vector; diagnostics add 1 for editor-style line numbers.
pub fn analyze(source: &str) -> Vec<LineView> {
    let bytes: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineView::default();
    let mut state = State::Code;
    let mut i = 0usize;

    // Push one char into the views according to the current class.
    fn put(cur: &mut LineView, class: State, c: char) {
        let (code, with_str, comment) = match class {
            State::Code => (c, c, ' '),
            State::Str | State::RawStr(_) | State::Char => (' ', c, ' '),
            State::LineComment | State::BlockComment(_) => (' ', ' ', c),
        };
        cur.code.push(code);
        cur.code_with_strings.push(with_str);
        cur.comment.push(comment);
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    put(&mut cur, state, c);
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    put(&mut cur, state, c);
                    put(&mut cur, state, '*');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    // The delimiter itself stays visible in both code views.
                    cur.code.push('"');
                    cur.code_with_strings.push('"');
                    cur.comment.push(' ');
                }
                'r' | 'b' if is_raw_string_start(&bytes, i) => {
                    let (hashes, delim_len) = raw_string_delim(&bytes, i);
                    for k in 0..delim_len {
                        let d = bytes[i + k];
                        cur.code.push(d);
                        cur.code_with_strings.push(d);
                        cur.comment.push(' ');
                    }
                    state = State::RawStr(hashes);
                    i += delim_len;
                    continue;
                }
                '\'' => {
                    if is_char_literal(&bytes, i) {
                        state = State::Char;
                        cur.code.push('\'');
                        cur.code_with_strings.push('\'');
                        cur.comment.push(' ');
                    } else {
                        // Lifetime tick: plain code.
                        put(&mut cur, State::Code, c);
                    }
                }
                _ => put(&mut cur, State::Code, c),
            },
            State::LineComment => put(&mut cur, state, c),
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    put(&mut cur, state, '*');
                    put(&mut cur, state, '/');
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    continue;
                }
                if c == '/' && next == Some('*') {
                    put(&mut cur, state, '/');
                    put(&mut cur, state, '*');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                put(&mut cur, state, c);
            }
            State::Str => match c {
                '\\' => {
                    put(&mut cur, state, c);
                    if let Some(e) = next {
                        if e != '\n' {
                            put(&mut cur, state, e);
                            i += 2;
                            continue;
                        }
                    }
                }
                '"' => {
                    cur.code.push('"');
                    cur.code_with_strings.push('"');
                    cur.comment.push(' ');
                    state = State::Code;
                }
                _ => put(&mut cur, state, c),
            },
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&bytes, i, hashes) {
                    for k in 0..=hashes as usize {
                        let d = bytes[i + k];
                        cur.code.push(d);
                        cur.code_with_strings.push(d);
                        cur.comment.push(' ');
                    }
                    i += hashes as usize + 1;
                    state = State::Code;
                    continue;
                }
                put(&mut cur, state, c);
            }
            State::Char => match c {
                '\\' => {
                    put(&mut cur, state, c);
                    if let Some(e) = next {
                        put(&mut cur, state, e);
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    cur.code.push('\'');
                    cur.code_with_strings.push('\'');
                    cur.comment.push(' ');
                    state = State::Code;
                }
                _ => put(&mut cur, state, c),
            },
        }
        i += 1;
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() || !cur.code_with_strings.is_empty() {
        lines.push(cur);
    }
    lines
}

/// `r"`, `r#"`, `br"`, `br#"` … at position `i`, not preceded by an
/// identifier character (so `ptr"` inside an identifier never matches).
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Number of guard hashes and total delimiter length (`r##"` → (2, 4)).
fn raw_string_delim(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j + 1 - i) // + closing quote of the opener
}

fn raw_string_closes(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'static` (lifetime).
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(&c) if is_ident_char(c) => bytes.get(i + 2) == Some(&'\''),
        Some(_) => true, // e.g. '+' — punctuation is always a char literal
        None => false,
    }
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find word-boundary occurrences of `word` in `haystack` (a blanked
/// code view); returns byte offsets.
pub fn word_positions(haystack: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = haystack[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(is_ident_char);
        let after_ok = !haystack[at + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Identifiers (not numeric literals) in `s`, in order.
pub fn idents(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out.retain(|w| !w.starts_with(|c: char| c.is_ascii_digit()));
    out
}

/// Binder names introduced by a pattern like `x`, `mut x`, `(a, b)`,
/// `&(mut a, b)`.
pub fn binders(pat: &str) -> Vec<String> {
    idents(pat)
        .into_iter()
        .filter(|w| w != "mut" && w != "ref" && w != "_")
        .collect()
}

/// Remove `[...]` segments so identifiers used *as* subscripts don't
/// count as the expression's own operands (`masks[mi]` → `masks`).
pub fn strip_subscripts(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Byte offset of the `(`/`[` matching the closer at `close`.
pub fn balance_back(bytes: &[u8], close: usize) -> Option<usize> {
    let (open_c, close_c) = match bytes[close] {
        b')' => (b'(', b')'),
        b']' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0i64;
    for j in (0..=close).rev() {
        if bytes[j] == close_c {
            depth += 1;
        } else if bytes[j] == open_c {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Byte offsets of `container[index]` subscripts with a non-literal
/// index on one line (array literals, attributes, and types don't
/// match: their `[` is not preceded by an identifier or `)`/`]`).
pub fn subscript_positions(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let mut k = i;
        while k > 0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let prev = bytes[k - 1] as char;
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        // `*const [T; W]`, `&mut [T]`, `dyn [..]`: the word before the
        // bracket is a keyword, so this is a type or pattern position.
        if is_ident_char(prev) {
            let mut w = k;
            while w > 0 && is_ident_char(bytes[w - 1] as char) {
                w -= 1;
            }
            if matches!(
                &code[w..k],
                "const" | "mut" | "dyn" | "in" | "as" | "return" | "else" | "match" | "impl"
            ) {
                continue;
            }
        }
        let mut depth = 0usize;
        let mut inner = String::new();
        for &c in &bytes[i..] {
            match c {
                b'[' => {
                    depth += 1;
                    if depth > 1 {
                        inner.push('[');
                    }
                }
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    inner.push(']');
                }
                c => inner.push(c as char),
            }
        }
        if idents(&inner).is_empty() {
            continue; // literal or empty subscript: `x[0]`, `x[..]`
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_separated_from_code() {
        let v = analyze("let x = 1; // SAFETY: fine\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].code.contains("let x = 1;"));
        assert!(!v[0].code.contains("SAFETY"));
        assert!(v[0].comment.contains("SAFETY: fine"));
    }

    #[test]
    fn strings_are_blanked_in_code_view() {
        let v = analyze("let s = \"unsafe panic!()\";\n");
        assert!(!v[0].code.contains("unsafe"));
        assert!(!v[0].code.contains("panic"));
        assert!(v[0].code_with_strings.contains("unsafe panic!()"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let v = analyze("let a = r#\"unsafe \" quote\"#; let b = \"\\\"unsafe\\\"\";\n");
        assert!(!v[0].code.contains("unsafe"));
        assert!(v[0].code.contains("let b ="));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let v = analyze("fn f<'a>(x: &'a str) -> char { 'x' }\nunsafe {}\n");
        assert!(v[0].code.contains("&'a str"));
        assert!(!v[0].code.contains("'x'") || v[0].code.contains("' '") || true);
        // The next line must still be seen as code.
        assert!(v[1].code.contains("unsafe"));
    }

    #[test]
    fn block_comments_nest() {
        let v = analyze("/* outer /* inner */ still comment */ code();\n");
        assert!(v[0].code.contains("code()"));
        assert!(!v[0].code.contains("outer"));
        assert!(v[0].comment.contains("inner"));
    }

    #[test]
    fn multiline_block_comment_classifies_each_line() {
        let v = analyze("/* a\n b SAFETY: yes\n*/ let x = unsafe { f() };\n");
        assert!(v[1].comment.contains("SAFETY"));
        assert!(v[1].is_comment_only());
        assert!(v[2].code.contains("unsafe"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert_eq!(
            word_positions("unsafe_fn unsafe fnunsafe", "unsafe"),
            vec![10]
        );
        assert!(word_positions("find_unsafe_tokens", "unsafe").is_empty());
    }

    #[test]
    fn attributes_detected() {
        let v = analyze("#[cfg(feature = \"trace\")]\nfn f() {}\n");
        assert!(v[0].is_attribute());
        assert!(v[0].code_with_strings.contains("cfg(feature = \"trace\")"));
        assert!(!v[1].is_attribute());
    }
}
