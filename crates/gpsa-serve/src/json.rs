//! A minimal JSON document model with encoder and parser.
//!
//! The workspace deliberately carries no `serde_json` dependency; the wire
//! protocol needs exactly one document shape (objects of scalars, arrays of
//! integers, one level of nesting for counters), so this module implements
//! the subset of RFC 8259 the protocol uses — which happens to be all of
//! JSON's value grammar — in a few hundred lines.
//!
//! Numbers are carried as `f64`. Every integer the protocol ships (vertex
//! counts, value bits, microsecond timings) fits losslessly below 2^53;
//! [`Json::encode`] prints integral values without a decimal point so
//! `u32` value bits round-trip exactly.
//!
//! Vertex-value arrays are the one place the document model would cost
//! more than the work it describes (a 24-byte node and a formatted
//! `String` per value, for arrays as long as the graph), so an array of
//! `u32` has a packed node, [`Json::U32s`]. It is a representation, not a
//! format: it encodes to the very bytes the equivalent [`Json::Arr`] of
//! numbers does, compares equal to it, and the parser produces it for any
//! array written the way the encoder writes one.

use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// A parsed or under-construction JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integral values up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An array of `u32`, packed. The same JSON value as an [`Json::Arr`]
    /// of those numbers; the parser yields this node for an array of bare
    /// decimal integers no larger than `u32::MAX` separated by single
    /// commas (including `[]`), and `Arr` for every other array.
    U32s(Arc<Vec<u32>>),
    /// An object. Insertion order is preserved (deterministic encoding).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builder-style field insert; replaces an existing key.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for magnitudes below 2^53).
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// A floating-point value.
    pub fn float(n: f64) -> Json {
        Json::Num(n)
    }

    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a `u32`, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a slice of element nodes, if it is an array that has
    /// them: an [`Json::Arr`], or an empty array of either kind. A
    /// non-empty [`Json::U32s`] has no element nodes to lend — read it
    /// with [`Json::to_u32s`] or [`Json::u64_at`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            Json::U32s(values) if values.is_empty() => Some(&[]),
            _ => None,
        }
    }

    /// The value as a shared `u32` array, if it is an array whose every
    /// element is an integer that fits: the packed node itself (no copy),
    /// or an [`Json::Arr`] of such numbers (a peer that wrote whitespace
    /// or `1e3` inside the array still decodes).
    pub fn to_u32s(&self) -> Option<Arc<Vec<u32>>> {
        match self {
            Json::U32s(values) => Some(values.clone()),
            Json::Arr(items) => items
                .iter()
                .map(Json::as_u32)
                .collect::<Option<Vec<u32>>>()
                .map(Arc::new),
            _ => None,
        }
    }

    /// Element `i` of an array of either kind as a non-negative integer.
    pub fn u64_at(&self, i: usize) -> Option<u64> {
        match self {
            Json::U32s(values) => values.get(i).map(|&v| v as u64),
            Json::Arr(items) => items.get(i)?.as_u64(),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        String::from_utf8(out).expect("the encoder emits only UTF-8")
    }

    /// Append the compact JSON text to `out` (what [`Json::encode`]
    /// returns, as bytes — the frame writer's form).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(n) => encode_number(*n, out),
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.encode_into(out);
                }
                out.push(b']');
            }
            Json::U32s(values) => {
                // Sized once for the worst case (ten digits and a
                // separator per value), then cut back to what was used.
                let start = out.len();
                out.resize(start + 2 + values.len() * 11, 0);
                let mut at = start;
                out[at] = b'[';
                at += 1;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out[at] = b',';
                        at += 1;
                    }
                    let len = v.checked_ilog10().map_or(1, |log| log as usize + 1);
                    write_digits(*v as u64, &mut out[at..at + len]);
                    at += len;
                }
                out[at] = b']';
                out.truncate(at + 1);
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    encode_string(k, out);
                    out.push(b':');
                    v.encode_into(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parse JSON text into a value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// Equality is of JSON values, not of representations: a packed array
/// equals the [`Json::Arr`] of the same numbers.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::U32s(a), Json::U32s(b)) => a == b,
            (Json::U32s(packed), Json::Arr(items)) | (Json::Arr(items), Json::U32s(packed)) => {
                packed.len() == items.len()
                    && packed
                        .iter()
                        .zip(items)
                        .all(|(v, item)| matches!(item, Json::Num(n) if *n == *v as f64))
            }
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Largest f64 whose integral values are all exactly representable
/// (`2^53 - 1`); integers at or below this round-trip through `Json::Num`
/// bit-for-bit.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0;

fn encode_number(n: f64, out: &mut Vec<u8>) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the protocol never produces them, but a
        // defensive null beats emitting an unparseable token.
        out.extend_from_slice(b"null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
        let int = n as i64;
        if int < 0 {
            out.push(b'-');
        }
        encode_uint(int.unsigned_abs(), out);
    } else {
        // Rust's f64 Display prints the shortest string that round-trips.
        write!(out, "{n}").expect("writing to a Vec cannot fail");
    }
}

/// `00`..`99` as ASCII, so [`write_digits`] divides once per two digits.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `n` in decimal, straight into `out`.
fn encode_uint(n: u64, out: &mut Vec<u8>) {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let start = out.len();
    out.resize(start + len, 0);
    write_digits(n, &mut out[start..]);
}

/// Fill `out`, which is exactly as long as `n` is in decimal, back to
/// front, two digits per division.
fn write_digits(mut n: u64, out: &mut [u8]) {
    let mut at = out.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + n as u8;
    }
}

fn encode_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    // Bytes of a multi-byte scalar are all >= 0x80, so escaping byte by
    // byte never splits one; unescaped runs are copied whole.
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
    out.push(b'"');
}

/// Nesting bound: the protocol uses two levels; 64 guards the recursive
/// parser against stack exhaustion from hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                if let Some(values) = self.packed_u32s() {
                    return Ok(Json::U32s(Arc::new(values)));
                }
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
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {b:#04x} at offset {}", self.pos)),
        }
    }

    /// From just past a `[`: scan an array written the way the encoder
    /// writes a [`Json::U32s`] — bare decimal integers no larger than
    /// `u32::MAX`, single commas, nothing else — straight into a vector,
    /// leaving `pos` past the `]`. Anything else (a sign, fraction,
    /// exponent, whitespace, nesting, an over-long or over-large literal,
    /// a trailing comma, a missing bracket) returns `None` with `pos`
    /// unmoved, and the generic array path decides what it is.
    fn packed_u32s(&mut self) -> Option<Vec<u32>> {
        let mut rest = &self.bytes[self.pos..];
        let mut values = Vec::new();
        if rest.first() == Some(&b']') {
            self.pos += 1;
            return Some(values);
        }
        loop {
            // Eleven digits cannot overflow the u64, and already exceed
            // every u32, so the length needs no check of its own.
            let mut v = 0u64;
            let mut digits = 0;
            for &b in rest.iter().take(11) {
                let digit = b.wrapping_sub(b'0');
                if digit > 9 {
                    break;
                }
                v = v * 10 + digit as u64;
                digits += 1;
            }
            if digits == 0 {
                return None;
            }
            values.push(u32::try_from(v).ok()?);
            match rest.get(digits) {
                Some(b',') => rest = &rest[digits + 1..],
                Some(b']') => {
                    self.pos = self.bytes.len() - rest.len() + digits + 1;
                    return Some(values);
                }
                _ => return None,
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let code = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(code).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(hi).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; undo the
                            // generic advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8; copy whole code points).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control byte at offset {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-utf8 \\u escape".to_string())?;
        let n = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.encode(), text, "{text}");
        }
    }

    #[test]
    fn integers_are_exact() {
        let bits: Vec<u64> = vec![0, 1, u32::MAX as u64, (1u64 << 53) - 1];
        let arr = Json::Arr(bits.iter().map(|&b| Json::num(b)).collect());
        let back = Json::parse(&arr.encode()).unwrap();
        let got: Vec<u64> = back
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(got, bits);
    }

    #[test]
    fn objects_preserve_order_and_get() {
        let v = Json::obj()
            .set("b", Json::num(2))
            .set("a", Json::str("x"))
            .set("b", Json::num(3));
        assert_eq!(v.encode(), "{\"b\":3,\"a\":\"x\"}");
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(3));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" back\\slash \u{1F600} \u{7}";
        let encoded = Json::Str(s.to_string()).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap().as_str(),
            Some("A\u{1F600}")
        );
    }

    #[test]
    fn nested_document_roundtrips() {
        let text = r#"{"ok":true,"jobs":[{"id":1,"t":0.25},{"id":2,"t":-3}],"none":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        assert_eq!(
            v.get("jobs").unwrap().as_arr().unwrap()[1]
                .get("t")
                .unwrap()
                .as_f64(),
            Some(-3.0)
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01x",
            "[1]]",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    /// What the pre-packed encoder built for a value array.
    fn arr_of(values: &[u32]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::num(v as u64)).collect())
    }

    fn packed(values: &[u32]) -> Json {
        Json::U32s(Arc::new(values.to_vec()))
    }

    #[test]
    fn packed_arrays_encode_exactly_like_arrays_of_numbers() {
        let digit_edges: Vec<u32> = (0..10)
            .flat_map(|p| [10u32.pow(p) - 1, 10u32.pow(p), 10u32.pow(p) + 1])
            .collect();
        let nan_bits = [
            f32::NAN.to_bits(),
            (-f32::NAN).to_bits(),
            0x7fc0_0001,
            f32::INFINITY.to_bits(),
        ];
        let cases: [&[u32]; 6] = [
            &[],
            &[0],
            &[u32::MAX],
            &[u32::MAX, 0, u32::MAX - 1],
            &digit_edges,
            &nan_bits,
        ];
        for values in cases {
            let text = packed(values).encode();
            assert_eq!(text, arr_of(values).encode());
            let plain: Vec<String> = values.iter().map(u32::to_string).collect();
            assert_eq!(text, format!("[{}]", plain.join(",")));
            // ...and what the encoder wrote, the parser packs again.
            let back = Json::parse(&text).unwrap();
            assert!(matches!(&back, Json::U32s(v) if v.as_slice() == values));
            assert_eq!(back, arr_of(values), "equal as a JSON value too");
            assert_eq!(back.to_u32s().unwrap().as_slice(), values);
        }
        // Nested in a document, between other fields.
        let doc = Json::obj()
            .set("a", Json::num(1))
            .set("v", packed(&[3, 20, 100]))
            .set("z", Json::Arr(vec![packed(&[]), Json::str("x")]));
        assert_eq!(doc.encode(), r#"{"a":1,"v":[3,20,100],"z":[[],"x"]}"#);
        assert_eq!(Json::parse(&doc.encode()).unwrap(), doc);
    }

    #[test]
    fn arrays_the_packed_scan_declines_parse_as_before() {
        let n = Json::float;
        let cases: Vec<(&str, Json)> = vec![
            ("[-1,2]", Json::Arr(vec![n(-1.0), n(2.0)])),
            ("[-0]", Json::Arr(vec![n(-0.0)])),
            ("[1.5,2]", Json::Arr(vec![n(1.5), n(2.0)])),
            ("[1e3]", Json::Arr(vec![n(1000.0)])),
            ("[7,1E2]", Json::Arr(vec![n(7.0), n(100.0)])),
            ("[4294967296]", Json::Arr(vec![n(4294967296.0)])),
            ("[1,99999999999]", Json::Arr(vec![n(1.0), n(99999999999.0)])),
            (
                "[123456789012345678901234567890]",
                Json::Arr(vec![n(123456789012345678901234567890.0)]),
            ),
            ("[000000000001]", Json::Arr(vec![n(1.0)])),
            (
                "[[1,2],[3]]",
                Json::Arr(vec![packed(&[1, 2]), packed(&[3])]),
            ),
            ("[1, 2]", Json::Arr(vec![n(1.0), n(2.0)])),
            ("[1 ,2]", Json::Arr(vec![n(1.0), n(2.0)])),
            ("[ 1,2 ]", Json::Arr(vec![n(1.0), n(2.0)])),
            ("[ ]", Json::Arr(vec![])),
            ("[1,null]", Json::Arr(vec![n(1.0), Json::Null])),
            ("[1,\"2\"]", Json::Arr(vec![n(1.0), Json::str("2")])),
        ];
        for (text, want) in cases {
            let got = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(matches!(got, Json::Arr(_)), "{text} must not pack");
            assert_eq!(got, want, "{text}");
        }
        // Values the old element-wise decode accepted still decode; values
        // it refused are still refused, never wrapped.
        let decode = |text: &str| Json::parse(text).unwrap().to_u32s();
        assert_eq!(decode("[1e3, 7]").unwrap().as_slice(), [1000, 7]);
        assert_eq!(decode("[4294967295]").unwrap().as_slice(), [u32::MAX]);
        assert_eq!(decode("[-0]").unwrap().as_slice(), [0]);
        assert!(decode("[4294967296]").is_none());
        assert!(decode("[99999999999999999999]").is_none());
        assert!(decode("[-1]").is_none());
        assert!(decode("[1.5]").is_none());
        assert!(decode("[[1]]").is_none());
        assert!(decode("{}").is_none());
        for text in [
            "[1,2,]", "[,1]", "[1,,2]", "[1", "[1,", "[1,2", "[1 2]", "[1]]", "[1-]", "[1,-]",
            "[1.]x", "[+1]", "[1,2}",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn both_array_nodes_answer_the_shared_accessors() {
        let long_row = Json::parse("[7,5000000000,0,3]").unwrap();
        let short_row = Json::parse("[7,5,0,3]").unwrap();
        assert!(matches!(long_row, Json::Arr(_)) && matches!(short_row, Json::U32s(_)));
        assert_eq!(long_row.u64_at(1), Some(5_000_000_000));
        assert_eq!(short_row.u64_at(1), Some(5));
        assert_eq!(short_row.u64_at(4), None);
        assert_eq!(Json::Null.u64_at(0), None);
        // An empty array reads as empty through either accessor, whichever
        // node the parser chose for it.
        for text in ["[]", "[ ]"] {
            let empty = Json::parse(text).unwrap();
            assert_eq!(empty.as_arr(), Some(&[][..]));
            assert!(empty.to_u32s().unwrap().is_empty());
        }
        assert!(short_row.as_arr().is_none());
        assert_ne!(packed(&[1, 2]), packed(&[1]));
        assert_ne!(packed(&[1, 2]), arr_of(&[1, 3]));
        assert_ne!(packed(&[]), Json::Null);
    }

    #[test]
    fn scalar_numbers_encode_as_before() {
        let cases = [
            (0.0, "0"),
            (-0.0, "0"),
            (-17.0, "-17"),
            (9.0, "9"),
            (10.0, "10"),
            (MAX_EXACT_INT, "9007199254740991"),
            (-MAX_EXACT_INT, "-9007199254740991"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (0.25, "0.25"),
            (-3.5, "-3.5"),
            (0.8500000238418579, "0.8500000238418579"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (n, text) in cases {
            assert_eq!(Json::Num(n).encode(), text);
        }
    }
}
