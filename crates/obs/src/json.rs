//! Hand-rolled JSON helpers.
//!
//! The workspace policy is zero runtime dependencies (see `DESIGN.md` §3),
//! so JSON is produced by hand — this module centralizes the escaping the
//! Chrome-trace exporter used to do inline, and adds a small validating
//! parser so tests (and the CLI) can check that emitted documents are
//! well-formed without pulling in serde.

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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// JSON-escaped copy of `s` (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
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

/// The contents of a raw JSON string value without escapes (`"bfs"` →
/// `bfs`); `None` when `raw` is not quoted.
pub fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
}

/// Split one flat JSON object — a JSONL record, not a document: no
/// nesting, no arrays, no commas or escapes inside its strings — into
/// `(key, raw value)` pairs, in order. Values stay raw text for the caller
/// to type ([`unquote`] for strings, `str::parse` for numbers); the error
/// is the syntax complaint, for the caller to stamp a line number on.
pub fn split_fields(line: &str) -> Result<Vec<Field<'_>>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("line is not a JSON object")?
        .trim();
    let mut fields = Vec::new();
    if body.is_empty() {
        return Ok(fields);
    }
    for part in body.split(',') {
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("expected \"key\": value, got {part:?}"))?;
        let key =
            unquote(k.trim()).ok_or_else(|| format!("field name {} is not quoted", k.trim()))?;
        fields.push((key, v.trim()));
    }
    Ok(fields)
}

/// One `(key, raw value)` pair of a flat record, as [`split_fields`]
/// yields them.
pub type Field<'a> = (&'a str, &'a str);

/// The lines of a JSONL text that carry something: `(1-based line number,
/// trimmed line)`, blank lines and `#` comments skipped.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let numbered = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    numbered.filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// The flat records of a JSONL text, each split into fields under its
/// line number — the one loop every record parser runs.
pub fn records(text: &str) -> impl Iterator<Item = (usize, Result<Vec<Field<'_>>, RecordError>)> {
    numbered_lines(text).map(|(n, l)| (n, split_fields(l).map_err(RecordError::Syntax)))
}

/// Why a flat record did not type. The job-trace and mutation-stream
/// parsers map these onto their own public error kinds, each with its own
/// wording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Not a flat JSON object, or a field the record does not have.
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or out of range.
    BadValue {
        /// Field name, as the line spelled it.
        field: &'static str,
        /// The offending raw text.
        value: String,
    },
    /// An [`EdgeRecord`]'s op is neither `insert` nor `delete`.
    UnknownOp(String),
    /// An [`EdgeRecord`] deletes and carries a `weight`.
    WeightOnDelete,
}

fn bad_value(field: &'static str, value: &str) -> RecordError {
    RecordError::BadValue {
        field,
        value: value.to_string(),
    }
}

/// `value` as an unsigned 64-bit number, or [`RecordError::BadValue`]
/// naming `field`.
pub fn parse_u64(value: &str, field: &'static str) -> Result<u64, RecordError> {
    value.parse().map_err(|_| bad_value(field, value))
}

/// `value` as an unsigned 32-bit number (vertex ids, job ids, weights).
pub fn parse_u32(value: &str, field: &'static str) -> Result<u32, RecordError> {
    u32::try_from(parse_u64(value, field)?).map_err(|_| bad_value(field, value))
}

/// `value` as a quoted string, quotes removed.
pub fn parse_string<'a>(value: &'a str, field: &'static str) -> Result<&'a str, RecordError> {
    unquote(value).ok_or_else(|| bad_value(field, value))
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
    pub fn is_spelled_by(fields: &[Field<'_>]) -> bool {
        fields
            .iter()
            .any(|&(key, _)| key == "op" || key == "mutate")
    }

    /// Type `fields` as an edge mutation.
    pub fn parse(fields: &[Field<'_>]) -> Result<EdgeRecord, RecordError> {
        const KEYS: [&str; 7] = ["op", "mutate", "src", "dst", "weight", "batch", "at"];
        let (mut op, mut src, mut dst, mut weight, mut stamp) = (None, None, None, None, None);
        for &(key, value) in fields {
            let Some(&field) = KEYS.iter().find(|&&k| k == key) else {
                return Err(RecordError::Syntax(format!("unknown field \"{key}\"")));
            };
            match field {
                "op" | "mutate" => op = Some(parse_string(value, field)?),
                "src" => src = Some(parse_u32(value, field)?),
                "dst" => dst = Some(parse_u32(value, field)?),
                "weight" => weight = Some(parse_u32(value, field)?),
                _ => stamp = Some(parse_u64(value, field)?),
            }
        }
        let op = op.ok_or(RecordError::MissingField("op"))?;
        let src = src.ok_or(RecordError::MissingField("src"))?;
        let dst = dst.ok_or(RecordError::MissingField("dst"))?;
        let insert = match op {
            "insert" => true,
            "delete" if weight.is_some() => return Err(RecordError::WeightOnDelete),
            "delete" => false,
            other => return Err(RecordError::UnknownOp(other.into())),
        };
        Ok(EdgeRecord {
            insert,
            src,
            dst,
            weight,
            stamp,
        })
    }

    /// The first endpoint that is not a vertex of an `n`-vertex graph.
    pub fn endpoint_beyond(&self, n: usize) -> Option<u32> {
        [self.src, self.dst].into_iter().find(|&v| v as usize >= n)
    }
}

/// Validate that `s` is exactly one well-formed JSON value (object, array,
/// string, number, boolean or null), with nothing but whitespace around it.
pub fn validate(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!("bad \\u escape at byte {}", self.pos))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string at {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("number without digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("fraction without digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("exponent without digits at byte {}", self.pos));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn flat_object_fields_come_back_raw_and_in_order() {
        let fields = split_fields(r#" {"id": 7, "algo" : "bfs","w":-1} "#).unwrap();
        assert_eq!(fields, [("id", "7"), ("algo", "\"bfs\""), ("w", "-1")]);
        assert_eq!(unquote(fields[1].1), Some("bfs"));
        assert_eq!(unquote(fields[0].1), None);
        assert_eq!(split_fields("{ }").unwrap(), []);
    }

    #[test]
    fn flat_object_syntax_errors_name_the_problem() {
        assert_eq!(
            split_fields("[1, 2]").unwrap_err(),
            "line is not a JSON object"
        );
        assert!(split_fields(r#"{"id" 7}"#)
            .unwrap_err()
            .starts_with("expected \"key\": value"));
        assert_eq!(
            split_fields("{id: 7}").unwrap_err(),
            "field name id is not quoted"
        );
    }
}
