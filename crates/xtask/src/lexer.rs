//! A line-oriented Rust-source lexer, in the same hand-rolled spirit as
//! `cscv_trace::json`, for the contract tests that read source text.
//!
//! The lexer does not tokenize; it classifies every character of a
//! source file as *code*, *string content* or *comment content*, then
//! hands each line back in three synchronized views:
//!
//! * [`LineView::code`] — comments and string contents blanked to spaces,
//!   so a keyword search cannot be fooled by doc text or log messages;
//! * [`LineView::code_with_strings`] — comments blanked, string literals
//!   kept verbatim (`cfg(feature = "trace")` needs the literal);
//! * [`LineView::comment`] — the comment text of the line.
//!
//! Handled syntax: line comments, nested block comments, string literals
//! with escapes, raw strings (`r"…"`, `r#"…"#`, byte variants), char
//! literals, and the char-vs-lifetime ambiguity (`'a'` vs `'static`).

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
    /// e.g. `#[inline]` or `#![deny(…)]`.
    pub fn is_attribute(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }

    /// Append one character of the given class to the three views.
    fn put(&mut self, class: State, c: char) {
        let (code, with_str, comment) = match class {
            State::Code => (c, c, ' '),
            State::Str | State::RawStr(_) | State::Char => (' ', c, ' '),
            State::LineComment | State::BlockComment(_) => (' ', ' ', c),
        };
        self.code.push(code);
        self.code_with_strings.push(with_str);
        self.comment.push(comment);
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
    /// Inside a raw string with the given number of guard hashes.
    RawStr(usize),
    /// Inside `'…'`.
    Char,
}

/// Classify `source` into per-line views, 0-indexed.
pub fn analyze(source: &str) -> Vec<LineView> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineView::default();
    let mut state = State::Code;
    let mut i = 0usize;
    while let Some(&c) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        // The class of the next `len` characters and the state after
        // them. Delimiters (quotes, raw-string guards) count as code.
        let (class, len, after) = match state {
            State::Code => match c {
                '/' if next == Some('/') => (State::LineComment, 1, State::LineComment),
                '/' if next == Some('*') => (State::BlockComment(1), 2, State::BlockComment(1)),
                '"' => (State::Code, 1, State::Str),
                '\'' if is_char_literal(&chars, i) => (State::Code, 1, State::Char),
                'r' | 'b' => match raw_string_open(&chars, i) {
                    Some((hashes, len)) => (State::Code, len, State::RawStr(hashes)),
                    None => (State::Code, 1, State::Code),
                },
                _ => (State::Code, 1, State::Code),
            },
            State::LineComment => (state, 1, state),
            State::BlockComment(depth) => match (c, next) {
                ('*', Some('/')) if depth == 1 => (state, 2, State::Code),
                ('*', Some('/')) => (state, 2, State::BlockComment(depth - 1)),
                ('/', Some('*')) => (state, 2, State::BlockComment(depth + 1)),
                _ => (state, 1, state),
            },
            State::Str | State::Char => match c {
                '\\' if next.is_some_and(|e| e != '\n') => (state, 2, state),
                '"' if state == State::Str => (State::Code, 1, State::Code),
                '\'' if state == State::Char => (State::Code, 1, State::Code),
                _ => (state, 1, state),
            },
            State::RawStr(hashes) => {
                let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    (State::Code, hashes + 1, State::Code)
                } else {
                    (state, 1, state)
                }
            }
        };
        for &d in &chars[i..i + len] {
            cur.put(class, d);
        }
        i += len;
        state = after;
    }
    if !cur.code.is_empty() {
        lines.push(cur);
    }
    lines
}

/// `r"`, `r#"`, `br"`, `br#"` … at `i`, not preceded by an identifier
/// character (so `ptr"` never matches): the number of guard hashes and
/// the opener's length (`r##"` → (2, 4)).
fn raw_string_open(chars: &[char], i: usize) -> Option<(usize, usize)> {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None;
    }
    let r = i + usize::from(chars[i] == 'b');
    if chars.get(r) != Some(&'r') {
        return None;
    }
    let hashes = chars[r + 1..].iter().take_while(|&&c| c == '#').count();
    let quote = r + 1 + hashes;
    (chars.get(quote) == Some(&'"')).then_some((hashes, quote + 1 - i))
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'static` (lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if is_ident_char(c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // e.g. '+' — punctuation is always a char literal
        None => false,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find word-boundary occurrences of `word` in `haystack` (a blanked
/// code view); returns byte offsets.
pub fn word_positions(haystack: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = haystack[from..].find(word) {
        let at = from + p;
        let before_ok = !haystack[..at]
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
        // The char literal's content is blanked, its quotes kept.
        assert!(v[0].code.contains("{ ' ' }"));
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
