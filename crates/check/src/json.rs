//! A minimal JSON value, one canonical writer, and a parser.
//!
//! Hand-rolled because the snapshot codec must not pull in external
//! dependencies (the build environment is offline) and needs only a small,
//! fully deterministic subset: object key order is *preserved* (not sorted),
//! so the serialized form of a snapshot is canonical and safe to digest, and
//! numbers are `i128` (no floats — every quantity in the simulator is an
//! integer, and `i128` covers both `u64` counters and signed [`MapOffset`]
//! distances exactly).
//!
//! Every canonical byte goes through [`Writer`], which streams into a
//! [`Sink`]: a `Vec<u8>` buffer, or an FNV-1a-64 state ([`Fnv1a64`]) so a
//! digest never materializes the text it hashes. Escaping and number
//! formatting live only here; [`Json::to_line`] delegates to the same
//! writer. The [`Json`] tree is the *decode* model (and serves small
//! documents such as repro headers); large snapshots are encoded straight
//! into the sink without building one.
//!
//! [`MapOffset`]: contig_types::MapOffset

use contig_types::Fnv1a64;

/// A JSON value with deterministic (insertion-ordered) objects and integer
/// numbers only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer; covers every counter and offset in the simulator.
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and significant for digests.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a numeric value from anything that converts to `i128`.
    pub fn num(n: impl Into<i128>) -> Json {
        Json::Num(n.into())
    }

    /// The object member named `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_num(&self) -> Option<i128> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string (the canonical form digests
    /// are computed over).
    pub fn to_line(&self) -> String {
        to_line(|w| self.write(w))
    }

    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(|w| items.iter().for_each(|item| item.write(w))),
            Json::Obj(members) => w.obj(|w| {
                for (key, value) in members {
                    w.key(key);
                    value.write(w);
                }
            }),
        }
    }
}

/// Where a [`Writer`] sends canonical bytes.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Fnv1a64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Both sinks receive every byte: a buffer and its digest in one pass.
impl<A: Sink, B: Sink> Sink for (A, B) {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0.put(bytes);
        self.1.put(bytes);
    }
}

/// Streaming canonical JSON writer: single line, no whitespace, members in
/// call order, integers in plain decimal. Separators are inserted
/// automatically, so callers only open containers, name keys and emit
/// values.
pub struct Writer<S> {
    sink: S,
    /// A value was just completed at the current nesting level, so the next
    /// key or value needs a `,` first.
    comma: bool,
}

impl<S: Sink> Writer<S> {
    /// A writer with nothing written yet.
    pub fn new(sink: S) -> Self {
        Self { sink, comma: false }
    }

    /// The sink with everything written so far.
    pub fn finish(self) -> S {
        self.sink
    }

    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.sink.put(b",");
        }
        self.comma = true;
    }

    /// Writes `key` and the `:` of the next object member; the member's
    /// value follows.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.string(key);
        self.sink.put(b":");
        self.comma = false;
        self
    }

    /// `null`.
    pub fn null(&mut self) {
        self.separate();
        self.sink.put(b"null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.sink.put(if b { b"true" } else { b"false" });
    }

    /// An integer.
    #[inline]
    pub fn num(&mut self, n: impl Into<i128>) {
        self.separate();
        let n = n.into();
        let mut buf = [0u8; 40];
        let digits = match u64::try_from(n) {
            Ok(small) => format_u64(small, &mut buf),
            Err(_) => format_i128(n, &mut buf),
        };
        self.sink.put(digits);
    }

    /// `null` for `None`, the integer otherwise.
    pub fn opt_num(&mut self, n: Option<impl Into<i128>>) {
        match n {
            Some(n) => self.num(n),
            None => self.null(),
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        self.separate();
        self.string(s);
    }

    /// An object whose members `body` writes with [`Writer::key`].
    #[inline]
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.separate();
        self.sink.put(b"{");
        self.comma = false;
        body(self);
        self.sink.put(b"}");
        self.comma = true;
    }

    /// An array whose items `body` writes.
    #[inline]
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.separate();
        self.sink.put(b"[");
        self.comma = false;
        body(self);
        self.sink.put(b"]");
        self.comma = true;
    }

    /// An array of integers.
    pub fn nums<N: Into<i128>>(&mut self, items: impl IntoIterator<Item = N>) {
        self.arr(|w| items.into_iter().for_each(|n| w.num(n)));
    }

    /// A two-integer array `[a,b]`.
    pub fn pair(&mut self, a: impl Into<i128>, b: impl Into<i128>) {
        self.arr(|w| {
            w.num(a);
            w.num(b);
        });
    }

    /// Quotes and escapes `s`: unescaped runs go to the sink whole.
    fn string(&mut self, s: &str) {
        self.sink.put(b"\"");
        let mut run = 0;
        let mut control = *b"\\u0000";
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    control[4] = HEX[usize::from(b >> 4)];
                    control[5] = HEX[usize::from(b & 0xf)];
                    &control
                }
                _ => continue,
            };
            self.sink.put(&s.as_bytes()[run..i]);
            self.sink.put(escape);
            run = i + 1;
        }
        self.sink.put(&s.as_bytes()[run..]);
        self.sink.put(b"\"");
    }
}

/// The single line `body` writes.
pub(crate) fn to_line(body: impl FnOnce(&mut Writer<Vec<u8>>)) -> String {
    let mut w = Writer::new(Vec::new());
    body(&mut w);
    String::from_utf8(w.finish()).expect("the writer emits UTF-8")
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Two-digit decimal pairs `00`..`99`, for formatting two digits per
/// division.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Formats `n` in decimal into the tail of `buf`, returning the digits.
#[inline]
fn format_u64(mut n: u64, buf: &mut [u8; 40]) -> &[u8] {
    let mut pos = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    &buf[pos..]
}

/// Formats any `i128` (the negative and above-`u64::MAX` cases that
/// [`format_u64`] cannot hold) in decimal into the tail of `buf`.
fn format_i128(n: i128, buf: &mut [u8; 40]) -> &[u8] {
    let mut magnitude = n.unsigned_abs();
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if n < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    &buf[pos..]
}

/// Parses one JSON document from `input`.
///
/// Linear in the input: strings are copied as whole runs between escapes,
/// and numbers are accumulated straight from their digits.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let first_digit = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("non-integer number at byte {start}"));
        }
        let digits = &self.bytes[first_digit..self.pos];
        let digit = |d: &u8| d - b'0';
        // 19 digits always fit a u64; longer runs take the checked path.
        let magnitude = match digits.len() {
            0 => None,
            1..=19 => Some(u128::from(
                digits.iter().fold(0u64, |n, d| n * 10 + u64::from(digit(d))),
            )),
            _ => digits
                .iter()
                .try_fold(0u128, |n, d| n.checked_mul(10)?.checked_add(u128::from(digit(d)))),
        };
        let value = magnitude.and_then(|m| {
            if negative {
                0i128.checked_sub_unsigned(m)
            } else {
                i128::try_from(m).ok()
            }
        });
        value.map(Json::Num).ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash is copied whole: it
            // starts and ends at ASCII bytes of a `&str`, so it is itself
            // valid UTF-8 and needs no per-character decoding.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_preserves_structure_and_order() {
        let doc = Json::Obj(vec![
            ("z".into(), Json::num(1u64)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(-5)])),
            ("s".into(), Json::Str("a \"quoted\"\nline".into())),
            ("big".into(), Json::Num(i128::from(u64::MAX) + 7)),
        ]);
        let line = doc.to_line();
        assert_eq!(parse(&line).unwrap(), doc);
        // Key order survives: canonical form is stable.
        assert_eq!(parse(&line).unwrap().to_line(), line);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn integer_extremes_round_trip() {
        let extremes = [
            i128::MIN,
            i128::MIN + 1,
            i128::MAX,
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            i128::from(i64::MIN),
            -1,
            0,
            9,
            10,
            99,
            100,
        ];
        for n in extremes {
            let line = Json::Num(n).to_line();
            assert_eq!(line, n.to_string());
            assert_eq!(parse(&line), Ok(Json::Num(n)), "{line}");
        }
        // Leading zeros and a negative zero parse as plain integers.
        assert_eq!(parse("007"), Ok(Json::Num(7)));
        assert_eq!(parse("-0"), Ok(Json::Num(0)));
    }

    #[test]
    fn malformed_numbers_keep_their_errors() {
        assert_eq!(parse("-"), Err("number out of range at byte 0".to_string()));
        assert_eq!(parse("[-]"), Err("number out of range at byte 1".to_string()));
        let past_max = (i128::MAX as u128 + 1).to_string();
        assert_eq!(parse(&past_max), Err("number out of range at byte 0".to_string()));
        let past_min = format!("-{}", i128::MIN.unsigned_abs() + 1);
        assert!(parse(&past_min).is_err());
        assert!(parse(&format!("{}0", u128::MAX)).is_err());
        assert_eq!(parse("1.5"), Err("non-integer number at byte 0".to_string()));
        assert_eq!(parse("1e3"), Err("non-integer number at byte 0".to_string()));
        assert_eq!(parse("[2,-3E1]"), Err("non-integer number at byte 3".to_string()));
        assert!(parse("+1").is_err());
    }

    #[test]
    fn strings_mix_utf8_and_escapes_at_run_boundaries() {
        let cases = [
            "",
            "\"",
            "\\",
            "é\"ü\\ß",
            "\u{1f600}\n\u{1}x\u{1f}",
            "日本\t語",
            "trailing é",
            "\\\"\\",
        ];
        for text in cases {
            let doc = Json::Obj(vec![(text.to_string(), Json::Str(text.to_string()))]);
            let line = doc.to_line();
            assert_eq!(parse(&line), Ok(doc), "{line}");
        }
        // `\uXXXX` escapes decode next to multi-byte runs, and control
        // characters are written as lowercase `\u00xx`.
        assert_eq!(parse("\"é\\u0041ü\\u00e9\""), Ok(Json::Str("éAüé".into())));
        assert_eq!(Json::Str("\u{1f}".into()).to_line(), "\"\\u001f\"");
        assert_eq!(parse("\"\\/\""), Ok(Json::Str("/".into())));
        assert!(parse("\"é").is_err());
        assert!(parse("\"\\u00\"").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn writer_matches_tree_and_streams_into_fnv() {
        let doc = Json::Obj(vec![
            ("k".into(), Json::Arr(vec![Json::num(-7), Json::Null, Json::Bool(false)])),
            ("s".into(), Json::Str("q\"é".into())),
        ]);
        let mut w = Writer::new(Vec::new());
        w.obj(|w| {
            w.key("k").arr(|w| {
                w.num(-7);
                w.null();
                w.bool(false);
            });
            w.key("s").str("q\"é");
        });
        let streamed = String::from_utf8(w.finish()).unwrap();
        assert_eq!(streamed, doc.to_line());
        let mut w = Writer::new(Fnv1a64::new());
        doc.write(&mut w);
        assert_eq!(w.finish().finish(), contig_types::fnv1a64(streamed.as_bytes()));
    }

    fn any_i128() -> impl Strategy<Value = i128> {
        prop_oneof![
            (any::<u64>(), any::<u64>())
                .prop_map(|(hi, lo)| ((u128::from(hi) << 64) | u128::from(lo)) as i128),
            any::<u64>().prop_map(i128::from),
            any::<i64>().prop_map(i128::from),
            (0u64..1000).prop_map(i128::from),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The writer formats every `i128` exactly as `Display` does, and
        /// the parser inverts it.
        #[test]
        fn any_i128_formats_like_display_and_parses_back(n in any_i128()) {
            let line = Json::Num(n).to_line();
            prop_assert_eq!(&line, &n.to_string());
            prop_assert_eq!(parse(&line), Ok(Json::Num(n)));
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse("{\"a\": {\"b\": [1, 2]}, \"c\": true}").unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_bool), Some(true));
        let arr = doc.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(doc.get("missing"), None);
    }
}
