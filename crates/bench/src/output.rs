//! The workspace's one JSON codec, and plain-text tables.
//!
//! [`Json`] is the one value type, writer and reader. Every
//! `results/*.json` artifact, every campaign checkpoint and the profile
//! reports render through [`Json::render`] in *canonical* form: sorted
//! object keys, shortest-roundtrip float formatting, fixed two-space
//! indentation, trailing newline. [`Json::parse`] reads them back. A
//! rendered float parses back to the exact same `f64` bits, which
//! checkpoint resume relies on. The parser is strict, so a truncated or
//! hand-edited input fails with a `line:column` error instead of loading
//! a value the writer never produced.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::ops::Index;
use std::path::{Path, PathBuf};

/// 2^53: integers up to this magnitude are exact in an `f64`.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// Deepest array/object nesting [`Json::parse`] accepts; the committed
/// artifacts nest at most a handful of levels.
const MAX_DEPTH: usize = 128;

/// Renders `doc` into `<dir>/<name>.json`, creating the directory if
/// needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(dir: &Path, name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, doc.render())?;
    Ok(path)
}

/// A JSON value with deterministic, byte-stable rendering.
///
/// Object keys render sorted (the [`BTreeMap`] is the only object
/// representation), floats use Rust's shortest-roundtrip formatting
/// (integral values render without a fraction, beyond ±2^53 in exponent
/// form; non-finite become `null`), and indentation is fixed at two
/// spaces — so two renders of the same value are byte-identical on every
/// platform.
///
/// ```
/// use bench::output::Json;
///
/// let doc = Json::obj(vec![
///     ("zeta", Json::int(1)),
///     ("alpha", Json::Num(0.5)),
/// ]);
/// let text = doc.render();
/// assert_eq!(text, "{\n  \"alpha\": 0.5,\n  \"zeta\": 1\n}\n");
/// assert_eq!(Json::parse(&text).unwrap()["alpha"].as_f64(), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null` (JSON has no ±∞/NaN).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array, in insertion order.
    Arr(Vec<Json>),
    /// An object; keys render sorted because the map is ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object builder from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for n ≤ 2^53).
    pub fn int(n: usize) -> Json {
        Json::uint(n as u64)
    }

    /// A `u64` count (exact for n ≤ 2^53; larger values, such as digests,
    /// belong in [`Json::hex`]).
    #[allow(clippy::cast_precision_loss)]
    pub fn uint(n: u64) -> Json {
        debug_assert!(n <= 1 << 53, "{n} does not fit an f64 exactly");
        Json::Num(n as f64)
    }

    /// An array of numbers.
    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    /// An array of `[label, number]` pairs.
    pub fn pairs(pairs: &[(String, f64)]) -> Json {
        Json::Arr(
            pairs
                .iter()
                .map(|(label, v)| Json::Arr(vec![Json::str(label), Json::Num(*v)]))
                .collect(),
        )
    }

    /// A `u64` rendered as a fixed-width hex string — the canonical form
    /// for FNV-1a digests, which do not fit an `f64` exactly.
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("{n:016x}"))
    }

    /// The field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is finite, integral,
    /// non-negative and at most 2^53 (so that it is exact).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v <= MAX_SAFE_INT && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON document.
    ///
    /// Strict: besides malformed syntax it rejects duplicate object keys,
    /// lone or invalid surrogate escapes, raw control characters in
    /// strings, numbers outside the JSON grammar (`01`, `1.`, `-.5`),
    /// numbers beyond the `f64` range and integer literals beyond ±2^53,
    /// which a [`Json::Num`] cannot hold exactly.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the line and column of the fault.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos < text.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Renders the value as a pretty-printed document with a trailing
    /// newline — the canonical byte form of every committed report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Shared `Null` for the panic-free `Index` impls.
static NULL: Json = Json::Null;

impl Index<&str> for Json {
    type Output = Json;

    /// Object field access; missing keys and non-objects yield `Null`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;

    /// Array element access; out-of-range and non-arrays yield `Null`.
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Canonical float formatting: the shortest-roundtrip `{}` form, which
/// renders integral values without a fraction and keeps the sign of −0.
/// Beyond ±2^53 (where every `f64` is integral) the exponent form keeps
/// the text from reading as an integer literal the parser rejects.
/// Non-finite values become `null`.
fn write_num(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.abs() > MAX_SAFE_INT {
        let _ = write!(out, "{v:e}");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`Json::parse`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the fault.
    pub line: usize,
    /// 1-based column of the fault, in characters.
    pub column: usize,
    /// What is wrong there.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// A recursive-descent reader over one document.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn error(&self, reason: impl Into<String>) -> ParseError {
        self.error_at(self.pos, reason)
    }

    fn error_at(&self, mut pos: usize, reason: impl Into<String>) -> ParseError {
        while !self.text.is_char_boundary(pos) {
            pos -= 1;
        }
        let before = &self.text[..pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        ParseError {
            line: before.matches('\n').count() + 1,
            column: before[line_start..].chars().count() + 1,
            reason: reason.into(),
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input, expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // `{`
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match map.entry(key) {
                Entry::Occupied(e) => {
                    return Err(self.error_at(key_at, format!("duplicate key `{}`", e.key())));
                }
                Entry::Vacant(slot) => {
                    slot.insert(self.value()?);
                }
            }
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(map));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening `"`
        let mut out = String::new();
        loop {
            // Plain characters are copied in runs; every stop is at an
            // ASCII byte, so the slice bounds are character boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let at = self.pos; // the backslash
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(at);
            }
            _ => return Err(self.error_at(at, "invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The code point of a `\uXXXX` escape starting at `at`, joining a
    /// surrogate pair into one character.
    fn unicode_escape(&mut self, at: usize) -> Result<char, ParseError> {
        let high = self.hex4(at)?;
        let code = match high {
            0xD800..=0xDBFF => {
                let low_at = self.pos;
                if !self.text.as_bytes()[low_at..].starts_with(b"\\u") {
                    return Err(self.error_at(at, "lone high surrogate escape"));
                }
                self.pos += 2;
                let low = self.hex4(low_at)?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error_at(low_at, "high surrogate not followed by a low one"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error_at(at, "lone low surrogate escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error_at(at, "invalid escape"))
    }

    fn hex4(&mut self, at: usize) -> Result<u32, ParseError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error_at(at, "`\\u` escape needs four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let bad = |p: &Self| p.error_at(start, "invalid number");
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(bad(self));
            }
        } else if !self.digits() {
            return Err(bad(self));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.digits() {
                return Err(bad(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(bad(self));
            }
        }
        let text = &self.text[start..self.pos];
        if integral
            && text
                .parse::<i64>()
                .map_or(true, |n| n.unsigned_abs() > 1 << 53)
        {
            return Err(self.error_at(
                start,
                format!("integer `{text}` is beyond ±2^53 and would not be exact"),
            ));
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.error_at(start, format!("number `{text}` is out of range"))),
        }
    }
}

/// A minimal fixed-width text table for terminal output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["site", "kWh"]);
        t.row(["AZ", "6.1"]).row(["Golden, CO", "5.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("site"));
        assert!(lines[2].starts_with("AZ"));
        assert!(lines[3].starts_with("Golden, CO"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn canonical_keys_render_sorted_regardless_of_insertion_order() {
        let a = Json::obj(vec![("zeta", Json::int(1)), ("alpha", Json::int(2))]);
        let b = Json::obj(vec![("alpha", Json::int(2)), ("zeta", Json::int(1))]);
        assert_eq!(a.render(), b.render());
        assert!(a.render().find("alpha") < a.render().find("zeta"));
    }

    /// Floats the random bit patterns rarely hit.
    const EDGE_FLOATS: [f64; 10] = [
        0.0,
        -0.0,
        5e-324,
        -2.225_073_858_507_201e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -1e300,
    ];

    proptest! {
        /// Canonical rendering followed by a parse recovers the exact
        /// bits of any finite float — the property checkpoint resume
        /// relies on.
        #[test]
        fn canonical_floats_round_trip_exactly(bits in any::<u64>()) {
            for v in EDGE_FLOATS.into_iter().chain([f64::from_bits(bits)]) {
                if !v.is_finite() {
                    continue;
                }
                let text = Json::Num(v).render();
                let back = Json::parse(&text).map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
                prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(v.to_bits()), "{}", text);
            }
        }
    }

    #[test]
    fn canonical_floats_render_in_their_short_forms() {
        for (v, text) in [
            (27.0, "27"),
            (-0.0, "-0"),
            (0.5, "0.5"),
            (1e20, "1e20"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Json::Num(v).render(), format!("{text}\n"));
        }
    }

    #[test]
    fn hex_digests_are_fixed_width() {
        assert_eq!(Json::hex(0x1f).render(), "\"000000000000001f\"\n");
        assert_eq!(Json::hex(u64::MAX).render(), "\"ffffffffffffffff\"\n");
    }

    #[test]
    fn canonical_strings_escape_controls_and_quotes() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn write_json_roundtrips() {
        let dir = std::env::temp_dir().join("solarcore_bench_test");
        let doc = Json::Arr(vec![Json::int(1), Json::int(2), Json::int(3)]);
        let path = write_json(&dir, "t", &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn parse_reads_every_value_kind_and_indexes_without_panicking() {
        let doc = Json::parse(
            "{\"rows\": [[\"AZ\", [0.08521867475698039, 1e-3, -2]]], \"ok\": true,\n\
             \"none\": null, \"s\": \"\\u0041\\u00e9\\ud83d\\ude00\\t\\/\"}",
        )
        .unwrap();
        let row = &doc["rows"][0];
        assert_eq!(row[0].as_str(), Some("AZ"));
        assert_eq!(row[1][0].as_f64(), Some(0.085_218_674_756_980_39));
        assert_eq!(row[1][1].as_f64(), Some(1e-3));
        assert_eq!(row[1][2].as_u64(), None, "negative");
        assert_eq!(doc["ok"].as_bool(), Some(true));
        assert_eq!(doc["none"], Json::Null);
        assert_eq!(doc["s"].as_str(), Some("Aé😀\t/"));
        assert_eq!(doc["absent"][9], Json::Null);
        assert_eq!(doc.get("absent"), None);
        assert_eq!(row.get("x"), None);
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        for (v, want) in [
            (0.0, Some(0)),
            (7.0, Some(7)),
            (MAX_SAFE_INT, Some(1 << 53)),
            (MAX_SAFE_INT + 2.0, None),
            (-1.0, None),
            (0.5, None),
            (f64::NAN, None),
            (f64::INFINITY, None),
        ] {
            assert_eq!(Json::Num(v).as_u64(), want, "{v}");
        }
        assert_eq!(Json::str("7").as_u64(), None);
    }

    #[test]
    fn malformed_documents_name_their_line_and_column() {
        for (doc, line, column, reason) in [
            ("", 1, 1, "end of input"),
            ("{\"a\": 1,\n \"a\": 2}", 2, 2, "duplicate key `a`"),
            ("[\"\\ud800\"]", 1, 3, "lone high surrogate"),
            ("[\"\\udc00\"]", 1, 3, "lone low surrogate"),
            ("\"\\ud800\\u0041\"", 1, 8, "not followed by a low"),
            ("\"\\u12g4\"", 1, 2, "four hex digits"),
            ("\"\\x\"", 1, 2, "invalid escape"),
            ("\"a\tb\"", 1, 3, "raw control character"),
            ("\"open", 1, 6, "unterminated string"),
            ("[01]", 1, 2, "invalid number"),
            ("[1.]", 1, 2, "invalid number"),
            ("[-.5]", 1, 2, "invalid number"),
            ("[1e]", 1, 2, "invalid number"),
            ("+1", 1, 1, "expected a value"),
            ("[\n  9007199254740993]", 2, 3, "beyond ±2^53"),
            ("-18446744073709551616", 1, 1, "beyond ±2^53"),
            ("1e400", 1, 1, "out of range"),
            ("{\"a\" 1}", 1, 6, "expected `:`"),
            ("{\"a\": 1,}", 1, 9, "expected a string key"),
            ("[1 2]", 1, 4, "expected `,` or `]`"),
            ("{\"é\": tru}", 1, 7, "expected a value"),
            ("{} x", 1, 4, "trailing characters"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert_eq!((err.line, err.column), (line, column), "{doc:?}: {err}");
            assert!(err.reason.contains(reason), "{doc:?}: {err}");
            assert!(err.to_string().starts_with(&format!("{line}:{column}: ")));
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep)
            .unwrap_err()
            .reason
            .contains("nested deeper"));
        assert_eq!(
            Json::parse("[9007199254740992, -9007199254740992]").unwrap(),
            Json::nums(&[MAX_SAFE_INT, -MAX_SAFE_INT])
        );
    }
}
