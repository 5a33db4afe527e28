//! Minimal JSON emission and parsing helpers.
//!
//! The workspace builds offline with no external crates, so report
//! serialization ([`crate::session::Report::to_json`] and the `specan
//! --json` outputs) hand-writes its JSON through these helpers instead of
//! pulling in serde.  The batch layer ([`crate::batch`]) additionally needs
//! to *read* reports back — `specan merge` verifies the JSON slice reports
//! of several machines — so a small recursive-descent parser,
//! [`JsonValue::parse`], lives here too.  Numbers are kept as their raw
//! source tokens so integer round-trips are lossless.
//!
//! Since the service layer ([`crate::service`]) feeds this parser straight
//! from a TCP socket, it is hardened against adversarial input: documents
//! are capped in size and nesting depth ([`ParseLimits`], tightenable per
//! call with [`JsonValue::parse_with_limits`]), strings reject unescaped
//! control characters and malformed `\u` escapes, and numbers are validated
//! against the JSON grammar rather than whatever `f64::from_str` tolerates.

/// Renders `s` as a quoted JSON string with the mandatory escapes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number (non-finite values become `null`).
pub fn float(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON document.
///
/// Numbers keep their raw source text ([`JsonValue::Number`]) so `u64`
/// counters survive a round-trip without going through `f64`.  Object
/// members preserve source order; duplicate keys are rejected at parse
/// time (the report formats never produce them, so a duplicate signals a
/// corrupted or foreign document).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"42"`, `"0.25"`, `"-1e3"`).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in source order.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Bounds enforced while parsing a document — the defence against hostile
/// or corrupted input now that documents arrive over sockets, not just from
/// our own emitters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Documents larger than this many bytes are rejected before a single
    /// byte is parsed (an attacker must not get O(input) work for free).
    pub max_bytes: usize,
    /// Containers nested deeper than this are rejected: recursion depth
    /// must stay bounded so 100k repeated `[` yields a clean [`JsonError`]
    /// instead of a stack overflow.
    pub max_depth: usize,
}

impl Default for ParseLimits {
    /// 64 MiB / 128 levels: far beyond any report this workspace emits
    /// (the formats nest four levels deep), well below anything dangerous.
    fn default() -> Self {
        Self {
            max_bytes: 64 << 20,
            max_depth: 128,
        }
    }
}

impl JsonValue {
    /// Parses one JSON document under the default [`ParseLimits`],
    /// requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        Self::parse_with_limits(input, &ParseLimits::default())
    }

    /// Parses one JSON document under caller-chosen [`ParseLimits`] (the
    /// service layer tightens the size cap to its per-request budget).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte; an
    /// over-sized document fails at offset 0 without being scanned.
    pub fn parse_with_limits(input: &str, limits: &ParseLimits) -> Result<JsonValue, JsonError> {
        if input.len() > limits.max_bytes {
            return Err(JsonError {
                offset: 0,
                message: format!(
                    "document of {} bytes exceeds the {}-byte cap",
                    input.len(),
                    limits.max_bytes
                ),
            });
        }
        let mut parser = JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing data after JSON document"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl JsonParser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth > self.max_depth {
            return Err(self.err(format!("nesting exceeds {} levels", self.max_depth)));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string_token()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string_token()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string_token(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex_escape()?;
                            // Our own emitter only \u-escapes control bytes,
                            // but foreign tooling (e.g. `json.dumps` with
                            // ensure_ascii) escapes astral chars as
                            // surrogate pairs — recombine those; map a lone
                            // surrogate to the replacement char.
                            let c = match code {
                                0xD800..=0xDBFF if self.bytes[self.pos..].starts_with(b"\\u") => {
                                    self.pos += 2;
                                    let low = self.hex_escape()?;
                                    if (0xDC00..=0xDFFF).contains(&low) {
                                        let astral =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(astral).unwrap_or('\u{fffd}')
                                    } else {
                                        out.push('\u{fffd}');
                                        char::from_u32(low).unwrap_or('\u{fffd}')
                                    }
                                }
                                _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                // The grammar requires control characters to travel escaped;
                // a raw one here is a truncated or tampered document (our
                // own emitter always escapes them).
                Some(c) if c < 0x20 => {
                    return Err(self.err(format!("unescaped control character 0x{c:02x} in string")))
                }
                Some(_) => {
                    // Copy the whole contiguous unescaped span in one step.
                    // The span ends at `"`, `\` or a control byte — all
                    // ASCII, which never occur inside a multi-byte sequence
                    // — so slicing the original &str input there stays on
                    // char boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(span);
                }
            }
        }
    }

    /// Consumes the four hex digits of a `\u` escape (the `\u` itself is
    /// already consumed) and returns the code unit.  Exactly four ASCII hex
    /// digits are accepted — `from_str_radix` alone would also take a
    /// leading sign (`\u+12f`), which the grammar forbids.
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated or malformed \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).expect("four hex digits fit a u32");
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number token is ASCII")
            .to_string();
        if !valid_json_number(&raw) {
            return Err(self.err(format!("malformed number `{raw}`")));
        }
        Ok(JsonValue::Number(raw))
    }
}

/// Validates a number token against the JSON grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.  `f64::from_str` is
/// far laxer (it accepts `01`, `1.`, `.5`), and raw tokens are preserved
/// for lossless round-trips, so the grammar has to be enforced here.
fn valid_json_number(raw: &str) -> bool {
    let bytes = raw.as_bytes();
    let mut i = usize::from(bytes.first() == Some(&b'-'));
    // Integer part: `0` alone, or a non-zero digit followed by digits.
    match bytes.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    // Optional fraction: `.` followed by at least one digit.
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(bytes.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    // Optional exponent: `e`/`E`, optional sign, at least one digit.
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(bytes.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    i == bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\t"), "\"a\\nb\\t\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_are_finite_json_numbers() {
        assert_eq!(float(0.5), "0.500000");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
    }

    #[test]
    fn parses_nested_documents() {
        let value = JsonValue::parse(
            r#"{"name": "x", "n": 42, "nested": {"ok": true, "xs": [1, 2.5, null]}}"#,
        )
        .unwrap();
        assert_eq!(value.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("n").unwrap().as_u64(), Some(42));
        let nested = value.get("nested").unwrap();
        assert_eq!(nested.get("ok").unwrap().as_bool(), Some(true));
        let xs = nested.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(xs[2], JsonValue::Null);
    }

    #[test]
    fn round_trips_escaped_strings() {
        let source = "a \"quoted\"\nlabel\twith \\ stuff \u{1}";
        let parsed = JsonValue::parse(&string(source)).unwrap();
        assert_eq!(parsed.as_str(), Some(source));
    }

    #[test]
    fn surrogate_pairs_from_foreign_emitters_recombine() {
        // `json.dumps("😀")` with ensure_ascii emits a surrogate pair.
        let parsed = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
        // The raw (non-escaped) astral char parses identically.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // A lone high surrogate degrades to the replacement char instead of
        // corrupting the following text.
        let lone = JsonValue::parse(r#""\ud83dx""#).unwrap();
        assert_eq!(lone.as_str(), Some("\u{fffd}x"));
        // A high surrogate followed by a non-low \u escape keeps both.
        let split = JsonValue::parse(r#""\ud83d\u0041""#).unwrap();
        assert_eq!(split.as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn big_integers_survive_without_f64_loss() {
        let raw = format!("{}", u64::MAX - 1);
        let parsed = JsonValue::parse(&raw).unwrap();
        assert_eq!(parsed.as_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\": 1,}").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(JsonValue::parse("1..2").is_err());
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Mixed containers hit the same guard.
        let mixed = "{\"a\": ".repeat(100_000);
        assert!(JsonValue::parse(&mixed).is_err());
        // Legitimate nesting well past the report formats still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn size_cap_rejects_oversized_documents_without_scanning() {
        let tight = ParseLimits {
            max_bytes: 8,
            max_depth: 128,
        };
        assert!(JsonValue::parse_with_limits("[1, 2]", &tight).is_ok());
        let err = JsonValue::parse_with_limits("[1, 2, 3]", &tight).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.message.contains("cap"), "{err}");
        // The default cap is generous enough for real reports.
        assert!(JsonValue::parse("[1, 2, 3]").is_ok());
    }

    #[test]
    fn depth_limit_is_tightenable_per_call() {
        let shallow = ParseLimits {
            max_bytes: 1 << 20,
            max_depth: 2,
        };
        assert!(JsonValue::parse_with_limits("[[1]]", &shallow).is_ok());
        assert!(JsonValue::parse_with_limits("[[[1]]]", &shallow).is_err());
    }

    #[test]
    fn unescaped_control_characters_are_rejected() {
        assert!(JsonValue::parse("\"a\nb\"").is_err());
        assert!(JsonValue::parse("\"a\tb\"").is_err());
        assert!(JsonValue::parse("\"a\u{1}b\"").is_err());
        // The escaped forms keep working (and round-trip via `string`).
        assert_eq!(
            JsonValue::parse(r#""a\nb""#).unwrap().as_str(),
            Some("a\nb")
        );
        let escaped = string("a\n\u{1}b");
        assert_eq!(
            JsonValue::parse(&escaped).unwrap().as_str(),
            Some("a\n\u{1}b")
        );
    }

    #[test]
    fn signed_hex_escapes_are_rejected() {
        // `u32::from_str_radix` alone tolerates a leading sign; the JSON
        // grammar requires exactly four hex digits.
        assert!(JsonValue::parse(r#""\u+12f""#).is_err());
        assert!(JsonValue::parse(r#""\u-12f""#).is_err());
        assert!(JsonValue::parse(r#""\u12""#).is_err());
        assert!(JsonValue::parse(r#""\u12g4""#).is_err());
        // Uppercase hex digits stay legal (the escaped form, so this
        // actually exercises hex_escape, not the plain-span copy path).
        assert_eq!(
            JsonValue::parse("\"A\\uFFFD\"").unwrap().as_str(),
            Some("A\u{fffd}")
        );
    }

    #[test]
    fn numbers_follow_the_json_grammar_not_f64_from_str() {
        // All of these parse as f64 but are not JSON numbers.
        for bad in ["01", "1.", "-01", "1.e3", "1e", "1e+", "-"] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        for good in ["0", "-0", "10", "0.5", "-1.25e-3", "2E+8", "1e9"] {
            assert!(JsonValue::parse(good).is_ok(), "`{good}` must parse");
        }
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let value = JsonValue::parse(" \n{ \"a\" :\t[ ] ,\r\n\"b\" : { } }\n").unwrap();
        assert_eq!(value.get("a").unwrap().as_array(), Some(&[][..]));
        assert!(value.get("b").is_some());
    }
}
