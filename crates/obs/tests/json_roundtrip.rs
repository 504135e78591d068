//! Round-trip tests for the hand-rolled JSON in `vod_obs::json`:
//! whatever `escape` / `number` / the builders produce must parse as
//! valid JSON under a strict RFC 8259 grammar, and `json::parse` must
//! read it back bit-identically and never panic on any input.
//!
//! The validator below is a minimal recursive-descent parser written for
//! this test only, as the writer's independent reference. It accepts
//! exactly one JSON value and rejects trailing input, raw control
//! characters inside strings, malformed escapes, and malformed numbers —
//! the failure modes a hand-rolled emitter could plausibly produce.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vod_obs::json::{escape, number, parse, Array, Json, Object};

/// Strict single-value JSON validator. Returns `Err(position)` on the
/// first offending byte.
fn validate(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i == b.len() {
        Ok(())
    } else {
        Err(p.i)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), usize> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn value(&mut self) -> Result<(), usize> {
        match self.peek().ok_or(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            b't' => self.eat("true"),
            b'f' => self.eat("false"),
            b'n' => self.eat("null"),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.i),
        }
    }

    fn object(&mut self) -> Result<(), usize> {
        self.eat("{")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek().ok_or(self.i)? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.i),
            }
        }
    }

    fn array(&mut self) -> Result<(), usize> {
        self.eat("[")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek().ok_or(self.i)? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.i),
            }
        }
    }

    fn string(&mut self) -> Result<(), usize> {
        self.eat("\"")?;
        loop {
            match self.peek().ok_or(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or(self.i)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.i += 1,
                        b'u' => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().ok_or(self.i)?.is_ascii_hexdigit() {
                                    return Err(self.i);
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.i),
                    }
                }
                c if c < 0x20 => return Err(self.i), // raw control char
                _ => self.i += 1,                    // any other (UTF-8 continuation included)
            }
        }
    }

    fn digits(&mut self) -> Result<(), usize> {
        if !self.peek().ok_or(self.i)?.is_ascii_digit() {
            return Err(self.i);
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), usize> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek().ok_or(self.i)? {
            b'0' => {
                self.i += 1;
                // leading zero must not be followed by a digit
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.i);
                }
            }
            b'1'..=b'9' => self.digits()?,
            _ => return Err(self.i),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

fn assert_valid(s: &str) {
    if let Err(pos) = validate(s) {
        panic!("invalid JSON at byte {pos}: {s:?}");
    }
}

#[test]
fn the_validator_itself_rejects_malformed_json() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "\"\u{1}\"",   // raw control char
        "\"\\x\"",     // bad escape
        "\"\\u12g4\"", // bad hex
        "01",
        "1.",
        "1e",
        "--1",
        "NaN",
        "Infinity",
        "1 2",
        "{\"a\":1,}",
    ] {
        assert!(validate(bad).is_err(), "accepted malformed JSON: {bad:?}");
    }
    for good in ["0", "-0.0", "1e300", "[]", "{}", "\"\\u0007\"", "[1,2]"] {
        assert_valid(good);
    }
}

#[test]
fn escaped_strings_always_parse() {
    // Every control character, the escape-relevant ASCII, and a BMP sweep
    // around the surrogate range (surrogates themselves cannot occur in a
    // Rust &str, so U+D7FF / U+E000 are the closest representable values).
    let mut chars: Vec<char> = (0u32..0x80).filter_map(char::from_u32).collect();
    chars.extend([
        '\u{d7ff}',
        '\u{e000}',
        '\u{fffd}',
        '\u{ffff}',
        '\u{10000}',
        '\u{10ffff}',
    ]);
    for c in chars {
        let s = format!("x{c}y");
        let doc = format!("\"{}\"", escape(&s));
        assert_valid(&doc);
    }
    // A torture string mixing everything at once.
    let torture =
        "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\u{7} del:\u{7f} é 漢 \u{10ffff}";
    assert_valid(&format!("\"{}\"", escape(torture)));
}

#[test]
fn numbers_always_parse_and_non_finite_becomes_null() {
    let finite = [
        0.0,
        -0.0,
        1.0,
        -1.5,
        1e300,
        -1e300,
        1e-300,
        5e-324, // smallest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0 / 3.0,
        123_456_789.123_456_78,
    ];
    for x in finite {
        assert_valid(&number(x));
    }
    assert_eq!(number(-0.0), "-0.0");
    assert_eq!(number(f64::NAN), "null");
    assert_eq!(number(f64::INFINITY), "null");
    assert_eq!(number(f64::NEG_INFINITY), "null");
    assert_valid(&number(f64::NAN));
}

#[test]
fn built_documents_round_trip_through_the_validator() {
    let mut inner = Object::new();
    inner.str("ctrl\u{1}key", "va\"lue\\with\nnasties\u{1f}");
    inner.num("neg_zero", -0.0);
    inner.num("huge", 1e300);
    inner.num("nan", f64::NAN); // must render as null
    inner.uint("max", u64::MAX);
    inner.bool("flag", false);
    inner.null("nothing");

    let mut arr = Array::new();
    arr.num(0.1);
    arr.num(f64::INFINITY);
    arr.raw(&inner.finish());
    arr.raw("[]");

    let mut doc = Object::new();
    doc.str("name", "röund-trip \u{10348}");
    doc.raw("items", &arr.finish());
    let rendered = doc.finish();
    assert_valid(&rendered);
    assert!(rendered.contains("null"));
}

/// Any Unicode scalar value (surrogates have no `char`).
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![0u32..0x80, 0x80u32..0xd800, 0xe000u32..0x11_0000]
        .prop_map(|c| char::from_u32(c).expect("range excludes surrogates"))
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Mostly JSON punctuation and literal letters, so arbitrary text gets
/// deep into the parser before it fails.
fn jsonish_char() -> impl Strategy<Value = char> {
    const ALPHABET: &[u8] = b"{}[]\",:\\ u0123456789.eE+-truefalsn";
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i] as char),
        any_char(),
    ]
}

/// `Num` compared by bits, so `-0.0` and `0.0` differ.
fn bits_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_eq(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && bits_eq(x, y))
        }
        _ => a == b,
    }
}

/// The document the property tests write: one field of every writer
/// kind per entry, plus a nested array of the floats. Returns the text
/// and the value it must parse back to.
fn written_document(fields: &[(String, u64, u64, bool, String)]) -> (String, Json<'static>) {
    let mut doc = Object::new();
    let mut expected = BTreeMap::new();
    let mut floats = Array::new();
    let mut expected_floats = Vec::new();
    for (i, (key, float_bits, uint, flag, text)) in fields.iter().enumerate() {
        let x = f64::from_bits(*float_bits);
        let mut inner = Object::new();
        inner.str("text", text);
        inner.num("x", x);
        inner.uint("n", *uint);
        inner.bool("flag", *flag);
        inner.null("none");
        floats.num(x);
        let x_json = if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        };
        expected_floats.push(x_json.clone());
        let fields = BTreeMap::from([
            ("text".into(), Json::Str(text.clone().into())),
            ("x".into(), x_json),
            ("n".into(), Json::Int(*uint)),
            ("flag".into(), Json::Bool(*flag)),
            ("none".into(), Json::Null),
        ]);
        // Index-prefixed keys stay unique whatever the generated text.
        let key = format!("{i}:{key}");
        doc.raw(&key, &inner.finish());
        expected.insert(key.into(), Json::Obj(fields));
    }
    doc.raw("floats", &floats.finish());
    expected.insert("floats".into(), Json::Arr(expected_floats));
    (doc.finish(), Json::Obj(expected))
}

fn document_fields() -> impl Strategy<Value = Vec<(String, u64, u64, bool, String)>> {
    prop::collection::vec(
        (
            any_string(),
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            any::<bool>(),
            any_string(),
        ),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every document the writer produces parses back to the values it
    /// was built from, floats bit for bit (non-finite ones as `null`).
    #[test]
    fn writer_output_parses_back_bit_identically(fields in document_fields()) {
        let (text, expected) = written_document(&fields);
        assert_valid(&text);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
        prop_assert!(bits_eq(&parsed, &expected), "{parsed:?} != {expected:?}");
    }

    /// Arbitrary text returns `Ok` or a positioned `Err`, never a panic.
    #[test]
    fn arbitrary_text_never_panics(
        chars in prop::collection::vec(jsonish_char(), 0..200),
    ) {
        let text: String = chars.into_iter().collect();
        if let Err(e) = parse(&text) {
            prop_assert!(e.contains("byte"), "unpositioned error {e:?}");
        }
    }

    /// Writer output with a few characters deleted, inserted, or cut
    /// off never panics the parser either.
    #[test]
    fn mutated_writer_output_never_panics(
        fields in document_fields(),
        edits in prop::collection::vec((0u8..3, 0usize..4096, jsonish_char()), 1..6),
    ) {
        let mut chars: Vec<char> = written_document(&fields).0.chars().collect();
        for (op, at, c) in edits {
            let at = at % (chars.len() + 1);
            match op {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 => chars.insert(at, c),
                _ => chars.truncate(at),
            }
        }
        let text: String = chars.into_iter().collect();
        if let Err(e) = parse(&text) {
            prop_assert!(e.contains("byte"), "unpositioned error {e:?}");
        }
    }
}
