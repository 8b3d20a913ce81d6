//! The workspace's one JSON grammar.
//!
//! The workspace policy is zero runtime dependencies (see `DESIGN.md` §3),
//! so this module is the only code that knows JSON syntax: every report,
//! event line, trace export and committed `BENCH_*.json` file is written
//! through its streaming [`object()`] / [`array()`] writer (in one of three
//! [`Layout`]s) and every reader goes through [`parse`]: the job-trace and
//! mutation parsers read their lines through [`records`], and every fault
//! the two files share is a [`RecordError`], worded once.

use std::fmt::{self, Display, Write as _};

/// Append `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters). Does not write the surrounding quotes.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `"key":` to `out` (escaped key plus colon).
pub fn key_into(key: &str, out: &mut String) {
    out.push('"');
    escape_into(key, out);
    out.push_str("\":");
}

/// Append a quoted, escaped string value.
pub fn string_into(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Append `v` to `out` as a quoted JSON string, escaped as it is
/// formatted: no `String` in between.
fn display_string_into(v: impl Display, out: &mut String) {
    out.push('"');
    let _ = write!(Escaped(out), "{v}");
    out.push('"');
}

/// A `fmt::Write` that escapes what is formatted into it.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

/// How a document breaks its lines. A container hands its layout to the
/// containers nested in it, one level deeper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One line, no spaces: `{"a":[1,2]}` — reports, snapshots, JSONL.
    Compact,
    /// The outermost container one item per line, the rest compact (Perfetto).
    Lines,
    /// The `BENCH_*.json` house layout: two levels one item per line, two
    /// spaces a level; deeper levels inline, as `{"k": 1, "v": [1, 2]}`.
    House,
}

impl Layout {
    /// What a container at `depth` writes after its opening bracket,
    /// between two items and before its closing bracket.
    fn breaks(self, depth: u8) -> [&'static str; 3] {
        match (self, depth) {
            (Layout::Lines, 0) => ["\n", ",\n", "\n"],
            (Layout::House, 0) => ["\n  ", ",\n  ", "\n"],
            (Layout::House, 1) => ["\n    ", ",\n    ", "\n  "],
            (Layout::House, _) => ["", ", ", ""],
            _ => ["", ",", ""],
        }
    }
}

/// Append one compact JSON object to `out`; `body` writes its members.
pub fn object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    object_in(Layout::Compact, 0, out, body);
}

/// Append one compact JSON array to `out`; `body` writes its items.
pub fn array(out: &mut String, body: impl FnOnce(&mut Array<'_>)) {
    array_in(Layout::Compact, 0, out, body);
}

/// [`object()`] in `layout`, as a container nested `depth` levels deep.
pub fn object_in(layout: Layout, depth: u8, out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    let mut members = Object(Items::new(out, layout, depth, '{'));
    body(&mut members);
    members.0.close('}');
}

/// [`array()`] in `layout`, as a container nested `depth` levels deep.
pub fn array_in(layout: Layout, depth: u8, out: &mut String, body: impl FnOnce(&mut Array<'_>)) {
    let mut items = Array(Items::new(out, layout, depth, '['));
    body(&mut items);
    items.0.close(']');
}

/// The items of a container being written: the buffer, the container's
/// layout and depth, and whether the next item is the first.
struct Items<'a>(&'a mut String, Layout, u8, bool);

impl<'a> Items<'a> {
    fn new(out: &'a mut String, layout: Layout, depth: u8, bracket: char) -> Self {
        out.push(bracket);
        out.push_str(layout.breaks(depth)[0]);
        Items(out, layout, depth, true)
    }

    /// The buffer, after the separator the next item needs.
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.3, false) {
            self.0.push_str(self.1.breaks(self.2)[1]);
        }
        self.0
    }

    /// The buffer, after the separator and `"key":` of the next member.
    fn key(&mut self, key: &str) -> &mut String {
        let space = if self.1 == Layout::House { " " } else { "" };
        let out = self.next();
        key_into(key, out);
        out.push_str(space);
        out
    }

    /// Layout and depth of a container nested in this one.
    fn inner(&self) -> (Layout, u8) {
        (self.1, self.2 + 1)
    }

    fn close(self, bracket: char) {
        self.0.push_str(self.1.breaks(self.2)[2]);
        self.0.push(bracket);
    }
}

/// The members of an object being written ([`object()`]). Numbers (and
/// booleans) are written as their `Display` spells them.
pub struct Object<'a>(Items<'a>);

impl Object<'_> {
    /// `"key":v` for a number `v`.
    pub fn num(&mut self, key: &str, v: impl Display) -> &mut Self {
        let _ = write!(self.0.key(key), "{v}");
        self
    }

    /// [`Object::num`], or `"key":null` for `None`.
    pub fn opt(&mut self, key: &str, v: Option<impl Display>) -> &mut Self {
        match v {
            Some(v) => self.num(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// `"key":"v"`, `v` escaped.
    pub fn str(&mut self, key: &str, v: impl Display) -> &mut Self {
        display_string_into(v, self.0.key(key));
        self
    }

    /// `"key":` and an object whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        let (layout, depth) = self.0.inner();
        object_in(layout, depth, self.0.key(key), body);
        self
    }

    /// `"key":` and an array whose items `body` writes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        let (layout, depth) = self.0.inner();
        array_in(layout, depth, self.0.key(key), body);
        self
    }

    /// `"key":` and `json`, a value rendered beforehand (an embedded
    /// metrics snapshot).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.0.key(key).push_str(json);
        self
    }
}

/// The items of an array being written ([`array()`]).
pub struct Array<'a>(Items<'a>);

impl Array<'_> {
    /// A number.
    pub fn num(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.0.next(), "{v}");
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, v: impl Display) -> &mut Self {
        display_string_into(v, self.0.next());
        self
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        let (layout, depth) = self.0.inner();
        object_in(layout, depth, self.0.next(), body);
        self
    }

    /// An array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        let (layout, depth) = self.0.inner();
        array_in(layout, depth, self.0.next(), body);
        self
    }
}

/// The lines of a JSONL text that carry something: `(1-based line number,
/// trimmed line)`, blank lines and `#` comments skipped.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let numbered = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    numbered.filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// The records of a JSONL text, each line [`parse`]d into its object's
/// members under its line number — the one loop every record parser runs.
pub fn records(
    text: &str,
) -> impl Iterator<Item = (usize, Result<Vec<(String, Value)>, RecordError>)> + '_ {
    numbered_lines(text).map(|(n, line)| match parse(line) {
        Ok(Value::Obj(members)) => (n, Ok(members)),
        Err(e) if line.starts_with('{') => (n, Err(RecordError::Syntax(e))),
        _ => (
            n,
            Err(RecordError::Syntax("line is not a JSON object".into())),
        ),
    })
}

/// Why a record did not type — the faults every record file shares,
/// each worded once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Not a JSON object, or a field the record does not have.
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or out of range.
    BadValue {
        /// Field name, as the line spelled it.
        field: &'static str,
        /// The offending value, written back as JSON.
        value: String,
    },
    /// An [`EdgeRecord`]'s op is neither `insert` nor `delete`.
    UnknownOp {
        /// The op key, as the line spelled it (`op` or `mutate`).
        key: &'static str,
        /// The offending op.
        op: String,
    },
    /// An [`EdgeRecord`] deletes and carries a `weight`.
    WeightOnDelete,
    /// An [`EdgeRecord`] endpoint is not a vertex of the graph.
    EndpointOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Vertices in the graph.
        num_vertices: usize,
    },
}

impl Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Syntax(what) => {
                write!(f, "{what} (expected a flat JSON object per line)")
            }
            RecordError::MissingField(field) => write!(f, "missing required field \"{field}\""),
            RecordError::BadValue { field, value } => {
                write!(f, "field \"{field}\" has invalid value {value}")
            }
            RecordError::UnknownOp { key, op } => {
                write!(
                    f,
                    "unknown {key} \"{op}\" (expected \"insert\" or \"delete\")"
                )
            }
            RecordError::WeightOnDelete => f.write_str(
                "\"weight\" given but a delete removes every parallel edge regardless of weight",
            ),
            RecordError::EndpointOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
        }
    }
}

/// [`RecordError::BadValue`]: `value` in `field` is not what it must be.
pub fn bad_value(field: &'static str, value: &Value) -> RecordError {
    RecordError::BadValue {
        field,
        value: value.to_string(),
    }
}

/// `value` as an unsigned 64-bit number, or [`RecordError::BadValue`]
/// naming `field`.
pub fn parse_u64(value: &Value, field: &'static str) -> Result<u64, RecordError> {
    value.as_u64().ok_or_else(|| bad_value(field, value))
}

/// `value` as an unsigned 32-bit number (vertex ids, job ids, weights).
pub fn parse_u32(value: &Value, field: &'static str) -> Result<u32, RecordError> {
    u32::try_from(parse_u64(value, field)?).map_err(|_| bad_value(field, value))
}

/// `value` as a string.
pub fn parse_string<'a>(value: &'a Value, field: &'static str) -> Result<&'a str, RecordError> {
    value.as_str().ok_or_else(|| bad_value(field, value))
}

/// One edge mutation, as both JSONL formats that carry one spell it:
///
/// ```text
/// {"op": "insert", "src": 1, "dst": 2, "weight": 5, "batch": 0}
/// {"mutate": "delete", "src": 7, "dst": 3, "at": 900}
/// ```
///
/// `op` and `mutate` are two names for one key, as are `batch` and `at`;
/// what the stamp means (a batch id, a serve-clock instant) is the
/// caller's business.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// `insert` (true) or `delete`.
    pub insert: bool,
    /// Edge source.
    pub src: u32,
    /// Edge target.
    pub dst: u32,
    /// `weight`, inserts only.
    pub weight: Option<u32>,
    /// `batch` / `at`, when given.
    pub stamp: Option<u64>,
}

impl EdgeRecord {
    /// Whether `fields` spell an edge mutation (they carry its op key).
    pub fn is_spelled_by(fields: &[(String, Value)]) -> bool {
        fields.iter().any(|(key, _)| key == "op" || key == "mutate")
    }

    /// Type `fields` as an edge mutation whose endpoints, when
    /// `num_vertices` is known, are vertices of the graph.
    pub fn parse(
        fields: &[(String, Value)],
        num_vertices: Option<usize>,
    ) -> Result<EdgeRecord, RecordError> {
        const KEYS: [&str; 7] = ["op", "mutate", "src", "dst", "weight", "batch", "at"];
        let (mut op, mut src, mut dst, mut weight, mut stamp) = (None, None, None, None, None);
        for (key, value) in fields {
            let Some(&field) = KEYS.iter().find(|&&k| k == key) else {
                return Err(RecordError::Syntax(format!("unknown field \"{key}\"")));
            };
            match field {
                "op" | "mutate" => op = Some((field, parse_string(value, field)?)),
                "src" => src = Some(parse_u32(value, field)?),
                "dst" => dst = Some(parse_u32(value, field)?),
                "weight" => weight = Some(parse_u32(value, field)?),
                _ => stamp = Some(parse_u64(value, field)?),
            }
        }
        let (key, op) = op.ok_or(RecordError::MissingField("op"))?;
        let src = src.ok_or(RecordError::MissingField("src"))?;
        let dst = dst.ok_or(RecordError::MissingField("dst"))?;
        let insert = match op {
            "insert" => true,
            "delete" if weight.is_some() => return Err(RecordError::WeightOnDelete),
            "delete" => false,
            op => return Err(RecordError::UnknownOp { key, op: op.into() }),
        };
        let n = num_vertices.unwrap_or(usize::MAX);
        if let Some(vertex) = [src, dst].into_iter().find(|&v| v as usize >= n) {
            return Err(RecordError::EndpointOutOfRange {
                vertex,
                num_vertices: n,
            });
        }
        Ok(EdgeRecord {
            insert,
            src,
            dst,
            weight,
            stamp,
        })
    }
}

/// One parsed JSON value. A number keeps the text it was written as, so
/// a `u64` reads back exactly; an object keeps its members in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for other kinds or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned 64-bit number, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A value written back as compact JSON, numbers as written: how a
/// record shows a bad value.
impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => return write!(f, "{b}"),
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => string_into(s, &mut out),
            Value::Arr(items) => array(&mut out, |a| items.iter().for_each(|v| _ = a.num(v))),
            Value::Obj(kvs) => object(&mut out, |o| kvs.iter().for_each(|(k, v)| _ = o.num(k, v))),
        }
        f.write_str(&out)
    }
}

/// Parse `s` as exactly one JSON value (object, array, string, number,
/// boolean or null), with nothing but whitespace around it.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { text: s, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Check that `s` is exactly one well-formed JSON value: [`parse`], with
/// the value dropped.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// "expected `what` at byte N, found 'c'" (or "found end of input").
    fn error(&self, what: &str) -> String {
        let found = self.text.get(self.pos..).and_then(|s| s.chars().next());
        let found = found.map_or("end of input".into(), |c| format!("{c:?}"));
        format!("expected {what} at byte {}, found {found}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("{:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("a value")),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let member = |p: &mut Self| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        };
        self.items(b'{', b'}', member).map(Value::Obj)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.items(b'[', b']', Self::value).map(Value::Arr)
    }

    /// The comma-separated items between `open` and `close`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("',' or {:?}", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // a run of plain bytes ends on an ASCII byte: a char boundary
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(c) => {
                    return Err(format!("raw control byte {c:#x} in string at {}", self.pos))
                }
            }
            let c = match self.peek() {
                Some(b'u') => {
                    self.utf16_into(&mut out)?;
                    continue;
                }
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{08}',
                Some(b'f') => '\u{0C}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            self.pos += 1;
            out.push(c);
        }
    }

    /// A run of `\uXXXX` escapes, read from its first `u`, as UTF-16: a
    /// surrogate pair spells one character, an unpaired surrogate U+FFFD.
    fn utf16_into(&mut self, out: &mut String) -> Result<(), String> {
        let mut units = Vec::new();
        loop {
            self.pos += 1; // the `u`
            let mut unit = 0;
            for _ in 0..4 {
                let digit = self.peek().and_then(|c| (c as char).to_digit(16));
                let digit = digit.ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                unit = unit * 16 + digit as u16;
                self.pos += 1;
            }
            units.push(unit);
            if !self.text[self.pos..].starts_with("\\u") {
                break;
            }
            self.pos += 1; // the next escape's backslash
        }
        let chars = char::decode_utf16(units).map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER));
        out.extend(chars);
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("number without digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("fraction without digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("exponent without digits at byte {}", self.pos));
            }
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    /// Skip a run of decimal digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(s, &mut out);
        out
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("ünïcode ✓"), "ünïcode ✓");
    }

    #[test]
    fn validator_accepts_well_formed() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"str\\n\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            "  { \"k\" : 0 } ",
        ] {
            assert!(validate(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01a",
            "{} extra",
            "\"bad\\q\"",
            "1.",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn escaped_strings_validate() {
        for s in ["quote\" backslash\\", "ctrl\u{01}\u{1f}", "multi\nline\r"] {
            let doc = format!("\"{}\"", escape(s));
            assert!(validate(&doc).is_ok(), "escaped {s:?} must validate");
        }
    }

    #[test]
    fn writer_nests_and_spells_none_as_null() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.num("n", 7u64)
                .opt("none", None::<u64>)
                .opt("some", Some(true));
            o.str("s", "a\"b").array("a", |a| {
                a.num(1u32).str(format_args!("{:02x}", 10));
                a.object(|_| {}).array(|_| {});
            });
            o.raw("raw", r#"{"k":[]}"#);
        });
        let want =
            r#"{"n":7,"none":null,"some":true,"s":"a\"b","a":[1,"0a",{},[]],"raw":{"k":[]}}"#;
        assert_eq!(out, want);
        let mut lines = String::new();
        array_in(Layout::Lines, 0, &mut lines, |a| {
            a.num(1u32).object(|o| {
                o.num("k", 2u32).array("v", |_| {});
            });
        });
        assert_eq!(lines, "[\n1,\n{\"k\":2,\"v\":[]}\n]");
    }

    #[test]
    fn house_layout_breaks_two_levels_and_escapes_strings() {
        let mut house = String::new();
        object_in(Layout::House, 0, &mut house, |o| {
            o.num("n", 1u32).str("s", "a\"b");
            o.array("cells", |a| {
                a.object(|c| {
                    c.str("algo", "BFS").array("v", |v| {
                        v.num(1u32).num(2u32);
                    });
                });
            });
            o.object("totals", |t| {
                t.num("ok", true).object("deep", |d| {
                    d.num("x", 3u32);
                });
            });
        });
        let want = "{\n  \"n\": 1,\n  \"s\": \"a\\\"b\",\n  \"cells\": [\n    \
                    {\"algo\": \"BFS\", \"v\": [1, 2]}\n  ],\n  \"totals\": {\n    \
                    \"ok\": true,\n    \"deep\": {\"x\": 3}\n  }\n}";
        assert_eq!(house, want);
        assert!(
            validate(&house).is_ok(),
            "a quote in a string stays valid JSON"
        );
    }

    #[test]
    fn parse_keeps_numbers_as_written_and_decodes_escapes() {
        let v = parse(
            r#" {"a":[18446744073709551615,-2.5e3,true,null],"s":"\/\u0041\ud83d\ude00\ud800x"} "#,
        )
        .unwrap();
        let num = |n: &str| Value::Num(n.into());
        let items = [
            num("18446744073709551615"),
            num("-2.5e3"),
            Value::Bool(true),
            Value::Null,
        ];
        assert_eq!(v.get("a"), Some(&Value::Arr(items.to_vec())));
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Value::Arr(items) => items[0].as_u64(),
                _ => None,
            }),
            Some(u64::MAX)
        );
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some("/A\u{1F600}\u{FFFD}x")
        );
    }

    #[test]
    fn records_parse_each_line_and_name_what_is_wrong() {
        let text = "# jobs\n\n {\"id\": 7, \"algo\" : \"b,f\\u0073\", \"w\": [-1, {}]} \n\
                    [1, 2]\n{\"id\" 7}\n{id: 7}\n{\"a\": nul}\n{\"a\": 1";
        let got: Vec<_> = records(text).collect();
        let num = |n: &str| Value::Num(n.into());
        let members = vec![
            ("id".to_string(), num("7")),
            ("algo".to_string(), Value::Str("b,fs".into())),
            (
                "w".to_string(),
                Value::Arr(vec![num("-1"), Value::Obj(vec![])]),
            ),
        ];
        assert_eq!(got[0], (3, Ok(members)));
        let errors = [
            (4, "line is not a JSON object"),
            (5, "expected ':' at byte 6, found '7'"),
            (6, "expected '\"' at byte 1, found 'i'"),
            (7, "expected null at byte 6"),
            (8, "expected ',' or '}' at byte 7, found end of input"),
        ];
        for (&(n, want), (line, got)) in errors.iter().zip(&got[1..]) {
            assert_eq!((*line, got), (n, &Err(RecordError::Syntax(want.into()))));
        }
        assert_eq!(got.len(), 6);
        let w = parse("[-1, {\"k\": \"a\\\"b\"}, true, null]").unwrap();
        assert_eq!(w.to_string(), r#"[-1,{"k":"a\"b"},true,null]"#);
    }
}
