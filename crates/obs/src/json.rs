//! Minimal hand-rolled JSON (no external dependencies): the writer and
//! the parser of the bench documents and trace lines.
//!
//! The writer builds objects and arrays field-by-field, with correct
//! string escaping and `null` for non-finite floats. Output is compact
//! (no whitespace), one value per call to [`Object::finish`] /
//! [`Array::finish`]. Floats are written in shortest round-trip form
//! ([`number`]), so [`parse`] recovers identical bits and float fields
//! can be compared for equality.
//!
//! The parser reads what the writer produces and answers malformed
//! input with a positioned error, never a panic: nesting is capped at
//! [`MAX_DEPTH`] and string decoding is linear in the input. A parsed
//! [`Json`] borrows every string written without escapes from the source
//! text, and keeps an unsigned integer literal as an exact [`Json::Int`].

use core::fmt::Write as _;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number, or `null` when non-finite.
#[must_use]
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips,
        // which is always a valid JSON number for finite values.
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// An incremental JSON object builder.
#[derive(Debug, Default)]
pub struct Object {
    buf: String,
}

impl Object {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Object { buf: String::new() }
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(name));
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, value: &str) {
        self.key(name);
        let _ = write!(self.buf, "\"{}\"", escape(value));
    }

    /// Adds a numeric field (`null` when non-finite).
    pub fn num(&mut self, name: &str, value: f64) {
        self.key(name);
        self.buf.push_str(&number(value));
    }

    /// Adds an unsigned-integer field.
    pub fn uint(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a `null` field.
    pub fn null(&mut self, name: &str) {
        self.key(name);
        self.buf.push_str("null");
    }

    /// Adds a field whose value is pre-rendered JSON (object, array, …).
    pub fn raw(&mut self, name: &str, rendered: &str) {
        self.key(name);
        self.buf.push_str(rendered);
    }

    /// Renders the object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// An incremental JSON array builder.
#[derive(Debug, Default)]
pub struct Array {
    buf: String,
}

impl Array {
    /// Starts an empty array.
    #[must_use]
    pub fn new() -> Self {
        Array { buf: String::new() }
    }

    /// Appends a pre-rendered JSON value.
    pub fn raw(&mut self, rendered: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(rendered);
    }

    /// Appends a numeric element (`null` when non-finite).
    pub fn num(&mut self, value: f64) {
        self.raw(&number(value));
    }

    /// Renders the array.
    #[must_use]
    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

/// The largest integer [`Json::as_u64`] hands out: 2^53, past which an
/// `f64` (what most JSON readers hold a number in) no longer tells
/// neighbouring integers apart.
pub const MAX_SAFE_INTEGER: u64 = 1 << 53;

/// A parsed JSON value, borrowing its strings from the source text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null` (also what the writer emits for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal (digits only, fits a `u64`), exact.
    Int(u64),
    /// Any other JSON number, as `f64`.
    Num(f64),
    /// A string: borrowed when written without escapes, decoded otherwise.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object. Key order is irrelevant for comparison.
    Obj(BTreeMap<Cow<'a, str>, Json<'a>>),
}

impl<'a> Json<'a> {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value of an integer literal of at most [`MAX_SAFE_INTEGER`];
    /// a larger one is refused rather than rounded.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(u) if *u <= MAX_SAFE_INTEGER => Some(*u),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if it is one written without escapes: borrowed for
    /// the source text's whole lifetime, not just this value's.
    #[must_use]
    pub(crate) fn as_source_str(&self) -> Option<&'a str> {
        match self {
            Json::Str(Cow::Borrowed(s)) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Bench documents
/// and trace lines nest a handful of levels; the cap keeps a hostile
/// input from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input, nesting
/// deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(src: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        src,
        b: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.b.get(self.pos) {
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// Runs `inner` one nesting level down, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json<'a>, String>,
    ) -> Result<Json<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        while matches!(
            self.b.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // Every byte taken is ASCII, so the slice is on char boundaries.
        let text = &self.src[start..self.pos];
        if text.bytes().all(|c| c.is_ascii_digit()) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Int(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    /// Decodes a string literal. A literal without escapes is borrowed
    /// from the source; otherwise unescaped runs are copied as whole
    /// slices (they end at an ASCII `"` or `\\`, so on char boundaries
    /// of the already-valid `&str`), which keeps decoding linear.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let open = self.pos - 1;
        let mut out: Option<String> = None;
        loop {
            let run = self.pos;
            while !matches!(self.b.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let text = &self.src[run..self.pos];
            match self.b.get(self.pos) {
                None => return Err(format!("unterminated string opened at byte {open}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(text),
                        Some(mut s) => {
                            s.push_str(text);
                            Cow::Owned(s)
                        }
                    });
                }
                _ => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(text);
                    self.escape(s)?;
                }
            }
        }
    }

    /// Decodes the escape sequence whose backslash is at `self.pos`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let at = self.pos;
        self.pos += 1;
        let c = match self.b.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .b
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                // Lone surrogates have no `char`; the writer never emits them.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(0.0), "0.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_and_array_compose() {
        let mut inner = Array::new();
        inner.num(1.0);
        inner.num(2.5);
        let mut o = Object::new();
        o.str("name", "x");
        o.uint("count", 3);
        o.bool("ok", true);
        o.null("missing");
        o.raw("values", &inner.finish());
        assert_eq!(
            o.finish(),
            "{\"name\":\"x\",\"count\":3,\"ok\":true,\"missing\":null,\"values\":[1.0,2.5]}"
        );
    }

    #[test]
    fn parser_round_trips_report_shapes() {
        let doc = r#"{"version":1,"mode":"smoke","seeds":[1,2],"cells":[{"scheme":"static","theta":0.5,"cycles":47667,"peak_memory_mib":1810.5721923828125}],"total_wall_clock_s":0.53}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("smoke"));
        let seeds: Vec<u64> = v
            .get("seeds")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(seeds, vec![1, 2]);
        let cell = &v.get("cells").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(cell.get("cycles").and_then(Json::as_u64), Some(47667));
        // Shortest round-trip floats parse back to identical bits.
        assert_eq!(
            cell.get("peak_memory_mib").and_then(Json::as_f64),
            Some(1810.5721923828125)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#""\u+123""#).is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parser_decodes_escapes_and_multibyte_runs() {
        let v = parse(r#""a\"b\\c\n\u0007é漢\/""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\n\u{7}é漢/"));
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(200_000);
        let err = parse(&deep).expect_err("too deep");
        assert!(
            err.contains("nesting") && err.contains(&format!("byte {MAX_DEPTH}")),
            "{err}"
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).expect_err("too deep").contains("nesting"));
    }
}
