//! Lightweight lexical model of a Rust source file: comment/string
//! masking, `#[cfg(test)]` region detection, and inline waiver markers.
//!
//! This is a text-level analysis, not a parse — precise enough for the
//! repo's rustfmt-formatted sources, and honest about it: anything the
//! masking misclassifies shows up as a false positive that a reviewable
//! `// lint:allow(...)` marker or allowlist entry resolves.

/// A preprocessed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Raw lines as written.
    pub raw: Vec<String>,
    /// Lines with comments and string/char literals masked to spaces.
    pub code: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]`-gated module.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Parses `text` into the masked model.
    pub fn parse(path: &str, text: &str) -> Self {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let code = mask(text);
        let in_test = test_regions(&code);
        Self {
            path: path.to_owned(),
            raw,
            code,
            in_test,
        }
    }

    /// `true` if `line` (1-based) carries an inline waiver for `pass`,
    /// either on the line itself or on a comment-only line directly above.
    pub fn has_waiver(&self, line: usize, pass: &str) -> bool {
        let marker = format!("lint:allow({pass})");
        if self
            .raw
            .get(line.wrapping_sub(1))
            .is_some_and(|l| l.contains(&marker))
        {
            return true;
        }
        line >= 2
            && self
                .raw
                .get(line - 2)
                .is_some_and(|l| l.trim_start().starts_with("//") && l.contains(&marker))
    }

    /// `true` if `line` (1-based) is inside a test-gated region.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Every inline `lint:allow(<pass>)` marker in the file, for
    /// unused-waiver accounting.
    pub fn waiver_markers(&self) -> Vec<WaiverMarker> {
        const NEEDLE: &str = "lint:allow(";
        let mut out = Vec::new();
        for (idx, raw) in self.raw.iter().enumerate() {
            let mut rest = raw.as_str();
            while let Some(p) = rest.find(NEEDLE) {
                let after = &rest[p + NEEDLE.len()..];
                let Some(end) = after.find(')') else { break };
                let tail = &after[end + 1..];
                out.push(WaiverMarker {
                    line: idx + 1,
                    pass: after[..end].trim().to_owned(),
                    has_reason: tail
                        .trim_start()
                        .strip_prefix(':')
                        .is_some_and(|r| !r.trim().is_empty()),
                });
                rest = tail;
            }
        }
        out
    }
}

/// One inline `// lint:allow(<pass>): <reason>` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverMarker {
    /// 1-based line the marker sits on.
    pub line: usize,
    /// The pass it waives.
    pub pass: String,
    /// `true` if a non-empty `: <reason>` follows the marker.
    pub has_reason: bool,
}

/// Masks comments, string literals and char literals with spaces, line by
/// line, preserving line structure and column positions of real code.
fn mask(text: &str) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }

    let mut out = Vec::new();
    let mut state = State::Code;

    for line in text.lines() {
        let bytes: Vec<char> = line.chars().collect();
        let mut masked = String::with_capacity(line.len());
        let mut i = 0;
        while i < bytes.len() {
            match state {
                State::Code => {
                    let c = bytes[i];
                    let next = bytes.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        // Line comment: mask the rest of the line.
                        for _ in i..bytes.len() {
                            masked.push(' ');
                        }
                        i = bytes.len();
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(1);
                        masked.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        state = State::Str;
                        masked.push(' ');
                        i += 1;
                    } else if c == 'r' && matches!(next, Some('"') | Some('#')) {
                        // Raw string r"..." / r#"..."#; count the hashes.
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            state = State::RawStr(hashes);
                            for _ in i..=j {
                                masked.push(' ');
                            }
                            i = j + 1;
                        } else {
                            masked.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal or lifetime. A lifetime has an ident
                        // char after the quote and no closing quote nearby.
                        let close =
                            bytes.get(i + 2) == Some(&'\'') || (bytes.get(i + 1) == Some(&'\\'));
                        if close {
                            let span = if bytes.get(i + 1) == Some(&'\\') {
                                // '\n', '\'', '\\', '\u{...}' — find the close.
                                let mut j = i + 2;
                                while j < bytes.len() && bytes[j] != '\'' {
                                    j += 1;
                                }
                                j.min(bytes.len().saturating_sub(1)) - i + 1
                            } else {
                                3
                            };
                            for _ in 0..span.min(bytes.len() - i) {
                                masked.push(' ');
                            }
                            i += span.min(bytes.len() - i);
                        } else {
                            masked.push(c);
                            i += 1;
                        }
                    } else {
                        masked.push(c);
                        i += 1;
                    }
                }
                State::BlockComment(depth) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        let depth = depth - 1;
                        state = if depth == 0 {
                            State::Code
                        } else {
                            State::BlockComment(depth)
                        };
                        masked.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(depth + 1);
                        masked.push_str("  ");
                        i += 2;
                    } else {
                        masked.push(' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if bytes[i] == '\\' {
                        masked.push(' ');
                        if i + 1 < bytes.len() {
                            masked.push(' ');
                        }
                        i += 2;
                    } else if bytes[i] == '"' {
                        state = State::Code;
                        masked.push(' ');
                        i += 1;
                    } else {
                        masked.push(' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if bytes[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if bytes.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            state = State::Code;
                            for _ in 0..=(hashes as usize) {
                                masked.push(' ');
                            }
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    masked.push(' ');
                    i += 1;
                }
            }
        }
        // Unterminated string state at EOL: normal strings do not span
        // lines unless escaped; reset conservatively for robustness.
        if state == State::Str {
            state = State::Code;
        }
        out.push(masked);
    }
    out
}

/// Marks lines belonging to `#[cfg(test)] mod … { … }` regions (and any
/// item directly under a `#[cfg(test)]` attribute).
#[allow(clippy::cast_possible_truncation)] // per-line brace counts fit i32
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth: i32 = 0;
    let mut pending_cfg = false;
    // Brace depth at which the current test region closes again.
    let mut region_close: Option<i32> = None;

    for (idx, line) in code.iter().enumerate() {
        let opens = line.matches('{').count() as i32;
        let closes = line.matches('}').count() as i32;
        let before = depth;
        depth += opens - closes;

        if let Some(close_at) = region_close {
            flags[idx] = true;
            if depth <= close_at {
                region_close = None;
            }
            continue;
        }
        if line.contains("#[cfg(test)]") {
            pending_cfg = true;
            flags[idx] = true;
            continue;
        }
        if pending_cfg {
            flags[idx] = true;
            if opens > 0 {
                pending_cfg = false;
                if depth > before {
                    region_close = Some(before);
                }
                // Balanced braces on one line (`mod t {}`) end immediately.
            } else if line.trim().ends_with(';') {
                // Gated single-line item (e.g. `mod tests;`).
                pending_cfg = false;
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let src = SourceFile::parse("t.rs", "let a = 1; // unwrap()\n/* panic!( */ let b = 2;");
        assert!(!src.code[0].contains("unwrap"));
        assert!(!src.code[1].contains("panic"));
        assert!(src.code[1].contains("let b"));
    }

    #[test]
    fn masks_strings_but_not_code() {
        let src = SourceFile::parse("t.rs", r#"call("has unwrap() inside").unwrap();"#);
        let code = &src.code[0];
        assert!(code.contains(".unwrap()"));
        assert_eq!(code.matches("unwrap").count(), 1);
    }

    #[test]
    fn cfg_test_region_is_flagged() {
        let text =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let src = SourceFile::parse("t.rs", text);
        assert!(!src.is_test_line(1));
        assert!(src.is_test_line(2));
        assert!(src.is_test_line(3));
        assert!(src.is_test_line(4));
        assert!(src.is_test_line(5));
        assert!(!src.is_test_line(6));
    }

    #[test]
    fn waiver_markers_are_line_scoped() {
        let text = "a.unwrap(); // lint:allow(panic): startup config\nb.unwrap();\n";
        let src = SourceFile::parse("t.rs", text);
        assert!(src.has_waiver(1, "panic"));
        assert!(!src.has_waiver(2, "panic"));
        assert!(!src.has_waiver(1, "cast"));
    }

    #[test]
    fn waiver_on_preceding_comment_line_applies() {
        let text = "// lint:allow(panic): validated at startup\na.unwrap();\nb.unwrap();\n";
        let src = SourceFile::parse("t.rs", text);
        assert!(src.has_waiver(2, "panic"));
        assert!(!src.has_waiver(3, "panic"));
    }

    #[test]
    fn preceding_line_waiver_requires_a_comment_line() {
        // A marker smuggled inside a string on the previous code line must
        // not waive the next line.
        let text = "let s = \"lint:allow(panic)\";\na.unwrap();\n";
        let src = SourceFile::parse("t.rs", text);
        assert!(!src.has_waiver(2, "panic"));
    }

    #[test]
    fn char_literals_do_not_derail_masking() {
        let src = SourceFile::parse("t.rs", "let c = '\"'; x.unwrap();");
        assert!(src.code[0].contains(".unwrap()"));
    }

    #[test]
    fn waiver_markers_are_enumerated_with_reason_state() {
        let text = "a(); // lint:allow(panic): startup config\nb(); // lint:allow(cast)\nc(); // lint:allow(dim):   \n";
        let src = SourceFile::parse("t.rs", text);
        let m = src.waiver_markers();
        assert_eq!(m.len(), 3);
        assert_eq!(
            (m[0].line, m[0].pass.as_str(), m[0].has_reason),
            (1, "panic", true)
        );
        assert_eq!(
            (m[1].line, m[1].pass.as_str(), m[1].has_reason),
            (2, "cast", false)
        );
        assert_eq!(
            (m[2].line, m[2].pass.as_str(), m[2].has_reason),
            (3, "dim", false)
        );
    }
}
