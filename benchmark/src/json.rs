//! The result line — its writer and its parser, kept together so the two
//! cannot drift — plus the small JSON reader both `BENCHMARK.json` and the
//! result lines go through.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their keys sorted.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first malformed token.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value(depth + 1)?;
                    m.insert(k, v);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| {
                self.i = start;
                self.err("malformed number")
            })
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .s
                        .get(self.i + 1)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One measured value and its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The last line a run prints.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Simulated requests replayed in the measured repetitions.
    pub attempted: u64,
    /// Of those, requests in repetitions whose output checks failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl ResultLine {
    /// Renders the line. Values print with every digit (Rust's shortest
    /// round-trip form); a non-finite value, which JSON cannot hold,
    /// prints as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote(&m.name, &mut out);
            out.push_str(":{\"value\":");
            if m.value.is_finite() {
                let _ = write!(out, "{:?}", m.value);
            } else {
                out.push_str("null");
            }
            out.push_str(",\"unit\":");
            quote(&m.unit, &mut out);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a line [`Self::to_json`] wrote. Metrics come back in name
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a result object.
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let v = parse(line)?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("missing or non-integer \"{key}\""))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing \"correct\"".to_owned()),
        };
        let Some(Value::Obj(ms)) = v.get("metrics") else {
            return Err("missing \"metrics\" object".to_owned());
        };
        let metrics = ms
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: match m.get("value") {
                        Some(Value::Num(x)) => *x,
                        Some(Value::Null) => f64::NAN,
                        _ => return Err(format!("metric \"{name}\" has no value")),
                    },
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("metric \"{name}\" has no unit"))?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultLine {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }

    #[test]
    fn result_lines_round_trip_with_every_digit() {
        let line = ResultLine {
            correct: true,
            attempted: 12_345,
            failed: 0,
            metrics: vec![
                metric("a.rate", 1_234.567_890_123_456_7, "1/s"),
                metric("b.tiny", 1.0e-9 / 3.0, "s"),
                metric("c.count", 42.0, "count"),
                metric("d.\"quoted\"", 0.1 + 0.2, "%"),
            ],
        };
        let text = line.to_json();
        assert!(!text.contains('\n'));
        let back = ResultLine::parse(&text).unwrap();
        assert_eq!(back, line);
        for (a, b) in back.metrics.iter().zip(&line.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn parser_reads_nested_documents_and_rejects_junk() {
        let v = parse(r#" {"k": [1, -2.5e3, true, null, "xA\n"], "o": {}} "#).unwrap();
        let arr = v.get("k").and_then(Value::as_array).unwrap();
        assert_eq!(arr[1], Value::Num(-2500.0));
        assert_eq!(arr[4], Value::Str("xA\n".to_owned()));
        assert_eq!(v.get("o"), Some(&Value::Obj(BTreeMap::new())));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse(&"[".repeat(200)).is_err());
        assert!(
            ResultLine::parse(r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#)
                .is_err()
        );
    }
}
