//! A minimal JSON layer for the daemon's request/response bodies.
//!
//! The build environment has no network access and therefore no serde; the
//! daemon's payloads are a handful of flat shapes (`{"node": 3}`,
//! `{"nodes": [..]}`, edit lists), so a small recursive-descent parser with
//! explicit depth and size limits is both sufficient and auditable. Typed
//! [`JsonError`]s name the exact offence so malformed bodies map to `400`
//! responses that say what was wrong.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`] — deep enough for any daemon
/// payload, shallow enough that a hostile `[[[[…]]]]` body cannot overflow
/// the parser's stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected at parse
    /// time — a request that says `"node"` twice is ambiguous, not
    /// last-writer-wins).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer that fits `usize` exactly.
    pub fn as_index(&self) -> Option<usize> {
        let n = self.as_num()?;
        // `u64::MAX as f64` rounds *up* to exactly 2^64, so the bound must
        // be strict: an inclusive `..=` here accepted the literal
        // 18446744073709551616 (2^64) and the saturating `as` cast then
        // silently mapped it to `usize::MAX`. With `<`, the largest
        // accepted double is 2^64 − 2048 (the f64 predecessor of 2^64),
        // which the cast converts exactly.
        if n.fract() != 0.0 || n < 0.0 || n >= u64::MAX as f64 {
            return None;
        }
        Some(n as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a body failed to parse. Rendered into `400` response bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The body ended mid-value.
    UnexpectedEnd,
    /// An unexpected byte at `offset`.
    Unexpected {
        /// Byte offset of the offence.
        offset: usize,
        /// What was found there.
        found: char,
    },
    /// Nesting deeper than 32 levels.
    TooDeep,
    /// A number literal that does not parse as a finite `f64`.
    BadNumber {
        /// The offending literal.
        literal: String,
    },
    /// A string with an invalid escape or raw control byte.
    BadString {
        /// Byte offset of the offence.
        offset: usize,
    },
    /// The same key twice in one object.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// Trailing non-whitespace after the top-level value.
    TrailingBytes {
        /// Byte offset where the garbage starts.
        offset: usize,
    },
    /// The body is not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "body ends mid-value"),
            JsonError::Unexpected { offset, found } => {
                write!(f, "unexpected character {found:?} at byte {offset}")
            }
            JsonError::TooDeep => write!(f, "nesting exceeds {MAX_DEPTH} levels"),
            JsonError::BadNumber { literal } => write!(f, "malformed number {literal:?}"),
            JsonError::BadString { offset } => write!(f, "malformed string at byte {offset}"),
            JsonError::DuplicateKey { key } => write!(f, "duplicate object key {key:?}"),
            JsonError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the value at byte {offset}")
            }
            JsonError::NotUtf8 => write!(f, "body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value spanning the whole input.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError::NotUtf8)?;
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(JsonError::TrailingBytes { offset: parser.pos });
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(found) if found == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(found) => Err(JsonError::Unexpected {
                offset: self.pos,
                found: found as char,
            }),
            None => Err(JsonError::UnexpectedEnd),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::Unexpected {
                offset: self.pos,
                found: self.bytes[self.pos] as char,
            })
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            None => Err(JsonError::UnexpectedEnd),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(found) => Err(JsonError::Unexpected {
                offset: self.pos,
                found: found as char,
            }),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii run");
        match literal.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError::BadNumber {
                literal: literal.to_string(),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let offset = self.pos;
            match self.peek() {
                None => return Err(JsonError::UnexpectedEnd),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or(JsonError::UnexpectedEnd)?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::BadString { offset })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::BadString { offset })?;
                            // Surrogate pairs are not needed by any daemon
                            // payload; reject them instead of mis-decoding.
                            let ch = char::from_u32(code).ok_or(JsonError::BadString { offset })?;
                            out.push(ch);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::BadString { offset }),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x20 => return Err(JsonError::BadString { offset }),
                Some(byte) if byte < 0x80 => {
                    out.push(byte as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 (validated at entry): copy the scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError::BadString { offset })?;
                    let ch = rest.chars().next().ok_or(JsonError::UnexpectedEnd)?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                Some(found) => {
                    return Err(JsonError::Unexpected {
                        offset: self.pos,
                        found: found as char,
                    })
                }
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::DuplicateKey { key });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                Some(found) => {
                    return Err(JsonError::Unexpected {
                        offset: self.pos,
                        found: found as char,
                    })
                }
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
    }
}

/// Escapes `s` into a JSON string literal (with quotes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_daemon_shapes() {
        let v = parse(br#"{"node": 3}"#).unwrap();
        assert_eq!(v.get("node").and_then(Json::as_index), Some(3));
        let v = parse(br#"{"nodes": [0, 1, 2], "tag": "x"}"#).unwrap();
        let nodes: Vec<usize> = v
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.as_index().unwrap())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert_eq!(v.get("tag").and_then(Json::as_str), Some("x"));
        assert_eq!(parse(b"null").unwrap(), Json::Null);
        assert_eq!(parse(b" true ").unwrap(), Json::Bool(true));
    }

    #[test]
    fn float_roundtrip_is_bitwise() {
        // The serving contract: a logit formatted with `{}` and re-parsed
        // through this parser recovers the exact f32 bit pattern.
        for bits in [
            0x3f80_0000u32, // 1.0
            0x3eaa_aaab,    // ~1/3
            0xbf7f_fff0,
            0x0000_0001, // subnormal
            0x7f7f_ffff, // f32::MAX
        ] {
            let x = f32::from_bits(bits);
            let text = format!("{x}");
            let parsed = parse(text.as_bytes()).unwrap().as_num().unwrap() as f32;
            assert_eq!(parsed.to_bits(), bits, "roundtrip of {text}");
        }
    }

    #[test]
    fn rejects_malformed_bodies_typed() {
        assert_eq!(parse(b"{").unwrap_err(), JsonError::UnexpectedEnd);
        assert!(matches!(
            parse(b"{\"a\": 1,}").unwrap_err(),
            JsonError::Unexpected { .. }
        ));
        assert!(matches!(
            parse(b"12e999").unwrap_err(),
            JsonError::BadNumber { .. }
        ));
        assert_eq!(
            parse(br#"{"a": 1, "a": 2}"#).unwrap_err(),
            JsonError::DuplicateKey { key: "a".into() }
        );
        assert!(matches!(
            parse(b"1 2").unwrap_err(),
            JsonError::TrailingBytes { .. }
        ));
        assert_eq!(parse(b"\xff\xfe").unwrap_err(), JsonError::NotUtf8);
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert_eq!(parse(deep.as_bytes()).unwrap_err(), JsonError::TooDeep);
    }

    #[test]
    fn as_index_boundaries() {
        let idx = |text: &str| parse(text.as_bytes()).unwrap().as_index();
        // 2^53: the largest range where f64 holds every integer exactly.
        assert_eq!(idx("9007199254740992"), Some(1usize << 53));
        // 2^64 − 2048: the largest f64 strictly below 2^64 — the biggest
        // index this parser can ever accept.
        assert_eq!(idx("18446744073709549568"), Some(0xffff_ffff_ffff_f800));
        // 2^64 itself: `u64::MAX as f64` rounds up to exactly this value,
        // so the old inclusive bound accepted it and the saturating cast
        // mapped it to usize::MAX. It must be refused.
        assert_eq!(idx("18446744073709551616"), None);
        // Anything larger, negative, or fractional is refused too.
        assert_eq!(idx("1e300"), None);
        assert_eq!(idx("-1"), None);
        assert_eq!(idx("1.5"), None);
        assert_eq!(idx("0"), Some(0));
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }
}
