//! A minimal JSON parser and syntax validator (RFC 8259), used by tests
//! and tooling to check that exported trace/metrics files parse — and by
//! the [`crate::baseline`] analysis layer to read metrics documents back —
//! without pulling a JSON dependency into the workspace.
//!
//! Hardened beyond the happy path: nesting depth is bounded (no stack
//! overflow on adversarial input), `\uXXXX` escapes must not encode lone
//! surrogates, and numbers with leading zeros are rejected.

/// Maximum container nesting depth [`parse`] accepts. Deeper documents are
/// rejected with an error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 512;

/// A parsed JSON value.
///
/// Numbers are kept as `f64` — every number this workspace exports fits
/// (`u64::MAX`-sized histogram bounds saturate through [`Value::as_u64`]).
/// Object members keep their document order; duplicate keys are kept as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a saturating `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => {
                if *n >= u64::MAX as f64 {
                    Some(u64::MAX)
                } else {
                    Some(*n as u64)
                }
            }
            _ => None,
        }
    }

    /// The decoded string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Validates that `input` is one well-formed JSON value.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with a
/// byte offset.
///
/// # Example
///
/// ```
/// assert!(pm_obs::json::validate("{\"a\": [1, 2.5, true, null]}").is_ok());
/// assert!(pm_obs::json::validate("{\"a\": }").is_err());
/// ```
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

/// Parses `input` into a [`Value`].
///
/// # Errors
///
/// As for [`validate`].
///
/// # Example
///
/// ```
/// let v = pm_obs::json::parse("{\"n\": 41}").unwrap();
/// assert_eq!(v.get("n").and_then(|n| n.as_u64()), Some(41));
/// ```
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Escapes `s` for inclusion in a JSON string literal (no surrounding
/// quotes). Shared by every hand-formatted exporter in this workspace.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Bytes that cannot appear raw inside a JSON string literal: `"`, `\`
/// and the control characters below 0x20. Every other byte, including
/// each byte of a multi-byte UTF-8 sequence, is copied as is.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends [`escape`]`(s)` to `out`. Runs of bytes that need no escaping
/// are copied whole, so a response renderer can escape straight into its
/// one output buffer. The scan tests 8 bytes at a time (`escape_mask`)
/// and steps byte by byte only through the last, shorter word.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let (mut run, mut i) = (0, 0);
    loop {
        let at = match bytes.get(i..i + 8) {
            Some(word) => {
                let mask = escape_mask(u64::from_le_bytes(word.try_into().expect("8 bytes")));
                if mask == 0 {
                    i += 8;
                    continue;
                }
                i + (mask.trailing_zeros() / 8) as usize
            }
            None => match bytes[i..]
                .iter()
                .position(|&b| NEEDS_ESCAPE[usize::from(b)])
            {
                Some(k) => i + k,
                None => break,
            },
        };
        // `bytes[at]` is ASCII, so `at` is a char boundary.
        out.push_str(&s[run..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = at + 1;
        i = at + 1;
    }
    out.push_str(&s[run..]);
}

/// Flags the bytes of the little-endian word `w` that need escaping
/// ([`NEEDS_ESCAPE`]: below 0x20, `"` or `\`), branch-free. Each test is
/// `(x - n) & !x & 0x80…`, which flags some byte exactly when a byte of
/// `x` is below `n`. A borrow starts only at such a byte and runs upward,
/// so the lowest flag always marks the first byte that needs escaping;
/// flags above it may be spurious.
fn escape_mask(w: u64) -> u64 {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & HIGHS;
    let control = below(w, 0x20);
    let quote = below(w ^ (ONES * u64::from(b'"')), 1);
    let backslash = below(w ^ (ONES * u64::from(b'\\')), 1);
    control | quote | backslash
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// One `\uXXXX` escape's code unit (the `\u` already consumed).
    fn hex4(&mut self) -> Result<u32, String> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            unit = unit << 4 | u32::from(d);
        }
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = self.hex4()?;
                        let c = match unit {
                            // A high surrogate must be immediately followed
                            // by an escaped low surrogate; anything else is
                            // a lone surrogate and not valid JSON text.
                            0xD800..=0xDBFF => {
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("lone high surrogate in \\u escape"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("lone high surrogate in \\u escape"));
                                }
                                let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"))?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(self.err("lone low surrogate in \\u escape"));
                            }
                            unit => {
                                char::from_u32(unit).ok_or_else(|| self.err("bad \\u escape"))?
                            }
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) => {
                    // Re-assemble the UTF-8 sequence this byte starts; the
                    // input is a &str, so continuation bytes are in bounds.
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..start + len])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                // "01" is not a JSON number: a leading zero must be the
                // whole integer part.
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("number out of range"))
    }

    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{escape, escape_into, parse, validate, Value, MAX_DEPTH};
    use proptest::prelude::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-0.5e+3",
            "\"str with \\u00e9 escape\"",
            "[]",
            "[1, [2, {\"a\": null}]]",
            "{\"nested\": {\"k\": [1.5, \"v\"]}, \"b\": false}",
        ] {
            assert!(validate(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1,]",
            "[1 2]",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} trailing",
            "{'single': 1}",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parse_builds_values() {
        let v = parse("{\"a\": [1, 2.5], \"b\": {\"c\": \"x\"}, \"n\": null}").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::items),
            Some(&[Value::Num(1.0), Value::Num(2.5)][..])
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Str("x".into()))
        );
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_saturates_at_the_top_bucket_bound() {
        // u64::MAX survives a JSON round trip only approximately (it is
        // not exactly representable as f64); as_u64 saturates instead of
        // wrapping or failing.
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse("41").unwrap().as_u64(), Some(41));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"41\"").unwrap().as_u64(), None);
    }

    #[test]
    fn leading_zero_numbers_are_rejected_everywhere() {
        // Top level, inside containers, and after a minus sign — the
        // grammar position must not change the verdict.
        for bad in ["01", "[01]", "{\"a\": 01}", "-01", "[1, 007]", "00"] {
            let err = validate(bad).expect_err(bad);
            assert!(
                err.contains("leading zero") || err.contains("trailing data"),
                "{bad}: {err}"
            );
        }
        assert!(validate("0").is_ok());
        assert!(validate("-0").is_ok());
        assert!(validate("0.5").is_ok());
        assert!(validate("[10, 0.01, 0e7]").is_ok());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // A lone high surrogate, a lone low surrogate, and a high
        // surrogate followed by a non-surrogate escape are all invalid.
        for bad in [
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud800x\"",
            "\"\\udfff tail\"",
        ] {
            assert!(validate(bad).is_err(), "should reject: {bad}");
        }
        // A proper pair decodes to the supplementary-plane character.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Value::Str("😀".into()));
    }

    #[test]
    fn escape_sequences_decode() {
        let v = parse("\"a\\n\\t\\\\\\\"\\u00e9\\/b\"").unwrap();
        assert_eq!(v, Value::Str("a\n\t\\\"é/b".into()));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Exactly at the bound parses; one past it errors (instead of
        // overflowing the stack, which unbounded recursion would).
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(validate(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = validate(&deep).expect_err("too deep");
        assert!(err.contains("nesting deeper"), "{err}");
        // Far past the bound must still fail cleanly, not crash.
        let very_deep = "[".repeat(100_000);
        assert!(validate(&very_deep).is_err());
        let mixed = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(validate(&mixed).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quo\"te \\ back\nnew\ttab \u{1} low";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::Str(nasty.into()));
    }

    /// The char-by-char escaper `escape_into` replaced, kept as the
    /// differential oracle.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Seeded strings mixing every byte below 0x20, `"`, `\`, printable
    /// ASCII and one-, two-, three- and four-byte UTF-8.
    fn arb_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        proptest::collection::vec((0usize..4, 0usize..95), len).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(class, k)| match class {
                    0 => char::from(k as u8 % 0x20),
                    1 => ['"', '\\'][k % 2],
                    2 => char::from(b' ' + k as u8),
                    _ => ['é', '€', '\u{1F980}'][k % 3],
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escape_into_matches_the_char_by_char_escaper(
            prefix in arb_text(1..8),
            s in arb_text(0..64),
        ) {
            let mut out = prefix.clone();
            escape_into(&s, &mut out);
            prop_assert_eq!(&out, &format!("{prefix}{}", escape_by_char(&s)));
            let doc = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&doc), Ok(Value::Str(s.clone())));
        }
    }
}
