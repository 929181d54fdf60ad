//! Wire protocol: newline-delimited JSON frames, plus a length-prefixed
//! binary codec negotiated per connection by first-byte sniff.
//!
//! JSON: one request per line, one response per line, UTF-8, `\n`
//! terminated. The JSON layer is hand-rolled (recursive-descent parser +
//! writer) so the daemon stays free of registry dependencies; the subset
//! is full JSON except that numbers are split into integer
//! ([`Json::Int`], [`Json::UInt`]) and floating ([`Json::Num`]) forms so
//! every `u64` id, seed and `micros` round-trips exactly. Floats print as the
//! shortest text that reads back to the same `f64` (the bytes `Display`
//! writes, found by an in-tree Ryu, see `crate::shortest`), so finite
//! values round-trip bit-for-bit too. An ok reply, the one message with
//! many floats, is written field by field straight into the frame, and
//! read back with its `pieces` going straight into a `Vec<f64>`.
//!
//! Binary: `[0xA7][len: u32 LE][payload]` — the magic byte `0xA7` is a
//! UTF-8 continuation byte, so no JSON line can start with it, and `{`
//! is not the magic, so no binary frame looks like JSON. The one
//! [`Framer`] sniffs the first byte of every frame independently: a
//! connection may interleave codecs, and replies are written in the
//! codec of the request they answer. The server's request reader
//! ([`FrameReader`]), the router's reply path and the [`Client`] all
//! frame through it. [`WireCodec`] picks the payload layout, through
//! the [`Codec`] trait. A declared length over the framer's cap is a
//! corrupt frame ([`FrameError::Corrupt`]): the framer never allocates
//! it, and resynchronises by a bounded skip to the next newline or
//! magic byte.
//!
//! [`Client`]: crate::Client
//!
//! ## Requests
//!
//! ```json
//! {"op":"balance","algorithm":"bahf","n":64,"theta":1.0,
//!  "problem":{"class":"synthetic","weight":1.0,"lo":0.1,"hi":0.5,"seed":7},
//!  "id":1,"deadline_ms":250}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! ## Responses
//!
//! ```json
//! {"id":1,"status":"ok","algorithm":"bahf","n":64,"cached":false,
//!  "ratio":1.07,"bound":13.2,"alpha":0.1,"micros":412,"pieces":[...]}
//! {"id":1,"status":"error","code":"overloaded","message":"queue full"}
//! ```
//!
//! Requests longer than [`MAX_FRAME`] bytes, and replies longer than
//! [`MAX_REPLY`], are rejected before parsing — the framer surfaces
//! [`FrameError::TooLong`] so the server can answer with a protocol
//! error and resynchronise at the next newline.

use std::fmt;
use std::io::{self, Read};
use std::ops::Range;

use crate::spec::ProblemSpec;

/// Hard ceiling on a request frame, in bytes. For JSON this bounds the
/// line; for binary frames it bounds the declared payload length (a
/// larger declaration is [`FrameError::Corrupt`]).
pub const MAX_FRAME: usize = 256 * 1024;

/// The longest text [`Json`] writes for a finite `f64`: `-5e-324`
/// prints as `-0.`, 323 zeros and `5`.
const F64_TEXT_MAX: usize = 327;

/// Hard ceiling on a reply frame, in bytes, bounding it as
/// [`MAX_FRAME`] bounds a request: the largest reply gb-serve can
/// encode. That is an `ok` reply with [`MAX_PROCESSORS`] pieces in JSON,
/// every number at its longest text, plus 4 KiB for the fields around
/// them (about 21.5 MB).
///
/// [`MAX_PROCESSORS`]: crate::spec::MAX_PROCESSORS
pub const MAX_REPLY: usize = 4096 + crate::spec::MAX_PROCESSORS * (F64_TEXT_MAX + 1);

/// First byte of every binary frame. `0xA7` is a UTF-8 continuation
/// byte: it can never begin a JSON text line, so one-byte sniffing is
/// unambiguous.
pub const MAGIC: u8 = 0xA7;

/// Bytes in a binary frame header: the magic byte plus a `u32` LE
/// payload length.
pub const BIN_HDR: usize = 5;

/// Maximum nesting depth accepted by the JSON parser.
const MAX_DEPTH: u32 = 32;

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (no fraction or exponent) within `i64`.
    Int(i64),
    /// An integer literal above `i64::MAX`, up to `u64::MAX`.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, first key wins on lookup.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    /// The integer as [`Json::parse`] reads its text back.
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Json::UInt(v), Json::Int)
    }
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (integers widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Serialises to indented JSON text — for artifacts meant to be read
    /// and diffed by humans (benchmark reports), not for wire frames,
    /// which must stay single lines.
    pub fn encode_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write_pretty(&mut out, 0);
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    fn write_pretty(&self, out: &mut Vec<u8>, depth: usize) {
        let indent = |out: &mut Vec<u8>, depth: usize| {
            out.push(b'\n');
            out.resize(out.len() + 2 * depth, b' ');
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                indent(out, depth);
                out.push(b']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push(b'{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    indent(out, depth + 1);
                    write_json_string(k, out);
                    out.extend_from_slice(b": ");
                    v.write_pretty(out, depth + 1);
                }
                indent(out, depth);
                out.push(b'}');
            }
            other => other.write(out),
        }
    }

    /// Appends compact JSON text to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => push_i64_ascii(out, *i),
            Json::UInt(u) => push_u64_ascii(out, *u),
            Json::Num(x) => push_json_f64(out, *x),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::Obj(entries) => {
                out.push(b'{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_json_string(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Appends a float as [`Json::Num`] text: the shortest text that reads
/// back to the same `f64`, as `Display` prints it, tagged `.0` when it
/// would otherwise read back as an integer. JSON has no NaN or infinity:
/// those print as `null` (and decode as such).
fn push_json_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_finite() {
        crate::shortest::push_f64(out, x);
    } else {
        out.extend_from_slice(b"null");
    }
}

fn write_json_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 15)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected {text})")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let (text, is_float) = self.number_text();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    /// Scans a number's text: a `-`, then the run of digits and
    /// `.eE+-` after it; says whether any of `.eE+-` is in the run.
    fn number_text(&mut self) -> (&'a str, bool) {
        let start = self.pos;
        let mut end = start + usize::from(self.peek() == Some(b'-'));
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        // Both ends sit next to ASCII bytes, so on character boundaries.
        (&self.text[start..end], is_float)
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            out.push(self.code_point(cp)?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, backslash or control byte. Those are ASCII,
                    // so the run ends on a character boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// The character of a `\u` escape whose four hex digits gave `cp`. A
    /// high surrogate pairs with a following `\u` low surrogate; a lone
    /// surrogate of either kind becomes U+FFFD, and an escape after a
    /// high surrogate that is not a low one is left for the next step.
    fn code_point(&mut self, cp: u32) -> Result<char, ParseError> {
        if (0xD800..0xDC00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(c).expect("a surrogate pair is a scalar value"));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(cp).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn array(&mut self, depth: u32) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// The top-level object of a reply, as [`Parser::object`] reads it at
    /// depth 0, with the first `pieces` value read by [`Parser::weights`].
    fn reply(&mut self) -> Result<(Json, Weights), ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        let mut pieces = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok((Json::Obj(entries), Weights::Missing));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if pieces.is_none() && key == "pieces" {
                pieces = Some(self.weights()?);
            } else {
                let value = self.value(1)?;
                entries.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok((Json::Obj(entries), pieces.unwrap_or(Weights::Missing)));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A value at depth 1, as [`Parser::value`] reads it, kept only as
    /// far as a [`Weights`] needs: an array's numbers go straight into a
    /// `Vec<f64>` (integers widened, as [`Json::as_f64`] does).
    fn weights(&mut self) -> Result<Weights, ParseError> {
        if self.peek() != Some(b'[') {
            self.value(1)?;
            return Ok(Weights::Missing);
        }
        self.pos += 1;
        let mut weights = Some(Vec::new());
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Weights::Read(Vec::new()));
        }
        loop {
            self.skip_ws();
            let weight = match self.peek() {
                Some(b'-' | b'0'..=b'9') => self.number()?.as_f64(),
                _ => {
                    self.value(2)?;
                    None
                }
            };
            match (&mut weights, weight) {
                (Some(ws), Some(w)) => ws.push(w),
                _ => weights = None,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(weights.map_or(Weights::Bad, Weights::Read));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The balancing algorithm to run for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Heaviest-First (instance optimal).
    Hf,
    /// Best Approximation on the work-stealing pool.
    Ba,
    /// BA with sequential-HF tails (Algorithm BA-HF).
    BaHf,
    /// Parallelised HF (same partition as HF).
    Phf,
}

impl Algorithm {
    /// All algorithms, for iteration/metrics indexing.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Hf,
        Algorithm::Ba,
        Algorithm::BaHf,
        Algorithm::Phf,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Hf => "hf",
            Algorithm::Ba => "ba",
            Algorithm::BaHf => "bahf",
            Algorithm::Phf => "phf",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "hf" => Some(Algorithm::Hf),
            "ba" => Some(Algorithm::Ba),
            "bahf" => Some(Algorithm::BaHf),
            "phf" => Some(Algorithm::Phf),
            _ => None,
        }
    }

    /// Dense index for metrics arrays.
    pub fn index(self) -> usize {
        match self {
            Algorithm::Hf => 0,
            Algorithm::Ba => 1,
            Algorithm::BaHf => 2,
            Algorithm::Phf => 3,
        }
    }
}

/// A balancing request.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Processor count `N`.
    pub n: usize,
    /// BA-HF θ parameter (ignored by the other algorithms).
    pub theta: f64,
    /// Per-request deadline in milliseconds, enforced at dequeue time.
    pub deadline_ms: Option<u64>,
    /// Whether the response should include the piece weights.
    pub want_pieces: bool,
    /// The problem to balance.
    pub problem: ProblemSpec,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a balancing algorithm.
    Balance(BalanceRequest),
    /// Return server statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain in-flight work and stop the server.
    Shutdown,
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// The JSON form of the request.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Stats => Json::Obj(vec![("op".into(), Json::Str("stats".into()))]),
            Request::Ping => Json::Obj(vec![("op".into(), Json::Str("ping".into()))]),
            Request::Shutdown => Json::Obj(vec![("op".into(), Json::Str("shutdown".into()))]),
            Request::Balance(b) => {
                let mut entries = vec![("op".into(), Json::Str("balance".into()))];
                if let Some(id) = b.id {
                    entries.push(("id".into(), Json::from(id)));
                }
                entries.push(("algorithm".into(), Json::Str(b.algorithm.name().into())));
                entries.push(("n".into(), Json::Int(b.n as i64)));
                entries.push(("theta".into(), Json::Num(b.theta)));
                if let Some(d) = b.deadline_ms {
                    entries.push(("deadline_ms".into(), Json::from(d)));
                }
                if !b.want_pieces {
                    entries.push(("want_pieces".into(), Json::Bool(false)));
                }
                entries.push(("problem".into(), b.problem.to_json()));
                Json::Obj(entries)
            }
        }
    }

    /// Decodes one request line.
    pub fn decode(line: &str) -> Result<Request, ProtoError> {
        let json = Json::parse(line).map_err(|e| ProtoError::bad(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Decodes a request from parsed JSON.
    pub fn from_json(json: &Json) -> Result<Request, ProtoError> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::bad("missing \"op\""))?;
        match op {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "balance" => {
                let algorithm = json
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .and_then(Algorithm::from_name)
                    .ok_or_else(|| {
                        ProtoError::bad("\"algorithm\" must be one of hf|ba|bahf|phf")
                    })?;
                let n = json
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ProtoError::bad("\"n\" must be a positive integer"))?;
                if n == 0 || n > crate::spec::MAX_PROCESSORS as u64 {
                    return Err(ProtoError::bad(format!(
                        "\"n\" must be in 1..={}",
                        crate::spec::MAX_PROCESSORS
                    )));
                }
                let theta = match json.get("theta") {
                    None => 1.0,
                    Some(v) => v
                        .as_f64()
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| ProtoError::bad("\"theta\" must be a positive number"))?,
                };
                let id = json.get("id").and_then(Json::as_u64);
                let deadline_ms = json.get("deadline_ms").and_then(Json::as_u64);
                let want_pieces = json
                    .get("want_pieces")
                    .and_then(Json::as_bool)
                    .unwrap_or(true);
                let problem = ProblemSpec::from_json(
                    json.get("problem")
                        .ok_or_else(|| ProtoError::bad("missing \"problem\""))?,
                )?;
                Ok(Request::Balance(BalanceRequest {
                    id,
                    algorithm,
                    n: n as usize,
                    theta,
                    deadline_ms,
                    want_pieces,
                    problem,
                }))
            }
            other => Err(ProtoError::bad(format!("unknown op \"{other}\""))),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// The bounded request queue was full (load shed).
    Overloaded,
    /// The request's deadline expired before execution started.
    Timeout,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "bad_request" => Some(ErrorCode::BadRequest),
            "overloaded" => Some(ErrorCode::Overloaded),
            "timeout" => Some(ErrorCode::Timeout),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Dense index for metrics arrays.
    pub fn index(self) -> usize {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::Timeout => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
        }
    }

    /// All codes, for metrics iteration.
    pub const ALL: [ErrorCode; 5] = [
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::Timeout,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];
}

/// A successful balance result.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// Processor count requested.
    pub n: usize,
    /// Achieved ratio `max_i w(p_i) / (w/N)`.
    pub ratio: f64,
    /// Analytic worst-case upper bound for the α in effect.
    pub bound: f64,
    /// The α used for the bound (class guarantee or empirical).
    pub alpha: f64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Server-side latency in microseconds (receipt → response ready).
    pub micros: u64,
    /// Piece weights (empty when the request set `want_pieces: false`).
    pub pieces: Vec<f64>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Balancing succeeded.
    Ok(BalanceResponse),
    /// The request failed.
    Error {
        /// Echo of the request id, when one was parsed.
        id: Option<u64>,
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Statistics snapshot (opaque JSON, see `metrics`).
    Stats(Json),
    /// Reply to `ping`.
    Pong,
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Appends the response's JSON line (no trailing newline) to `out`.
    /// An ok reply is written field by field, straight into `out`.
    fn write_json(&self, out: &mut Vec<u8>) {
        let json = match self {
            Response::Ok(r) => {
                out.reserve(OK_REPLY_FIELDS + PIECE_TEXT * r.pieces.len());
                out.push(b'{');
                if let Some(id) = r.id {
                    out.extend_from_slice(b"\"id\":");
                    push_u64_ascii(out, id);
                    out.push(b',');
                }
                push_ok_head(out, r.algorithm, r.n, r.cached, r.ratio, r.bound, r.alpha);
                push_u64_ascii(out, r.micros);
                push_ok_rest(out, &r.pieces);
                return;
            }
            Response::Pong => Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("pong".into(), Json::Bool(true)),
            ]),
            Response::Stats(stats) => Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("stats".into(), stats.clone()),
            ]),
            Response::Error { id, code, message } => {
                let mut entries = Vec::new();
                if let Some(id) = id {
                    entries.push(("id".into(), Json::from(*id)));
                }
                entries.push(("status".into(), Json::Str("error".into())));
                entries.push(("code".into(), Json::Str(code.name().into())));
                entries.push(("message".into(), Json::Str(message.clone())));
                Json::Obj(entries)
            }
        };
        json.write(out);
    }

    /// Decodes one response line. An ok reply's `pieces` are read
    /// straight into their `f64`s; the answer, errors included, is the
    /// one [`Response::from_json`] gives on the parsed line.
    pub fn decode(line: &str) -> Result<Response, ProtoError> {
        let (json, pieces) = parse_reply(line).map_err(|e| ProtoError::bad(e.to_string()))?;
        Self::from_parts(&json, pieces)
    }

    /// Decodes a response from parsed JSON.
    pub fn from_json(json: &Json) -> Result<Response, ProtoError> {
        let pieces = match json.get("pieces").and_then(Json::as_arr) {
            None => Weights::Missing,
            Some(items) => items
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
                .map_or(Weights::Bad, Weights::Read),
        };
        Self::from_parts(json, pieces)
    }

    /// Decodes a response from its parsed fields, `pieces` apart.
    fn from_parts(json: &Json, pieces: Weights) -> Result<Response, ProtoError> {
        let status = json
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::bad("missing \"status\""))?;
        match status {
            "error" => {
                let code = json
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_name)
                    .ok_or_else(|| ProtoError::bad("missing or unknown \"code\""))?;
                Ok(Response::Error {
                    id: json.get("id").and_then(Json::as_u64),
                    code,
                    message: json
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            }
            "ok" => {
                if json.get("pong").is_some() {
                    return Ok(Response::Pong);
                }
                if let Some(stats) = json.get("stats") {
                    return Ok(Response::Stats(stats.clone()));
                }
                let algorithm = json
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .and_then(Algorithm::from_name)
                    .ok_or_else(|| ProtoError::bad("ok response missing \"algorithm\""))?;
                let need_f64 = |key: &str| {
                    json.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ProtoError::bad(format!("missing numeric \"{key}\"")))
                };
                let pieces = match pieces {
                    Weights::Read(pieces) => pieces,
                    Weights::Missing => return Err(ProtoError::bad("missing \"pieces\"")),
                    Weights::Bad => return Err(ProtoError::bad("bad piece weight")),
                };
                Ok(Response::Ok(BalanceResponse {
                    id: json.get("id").and_then(Json::as_u64),
                    algorithm,
                    n: json
                        .get("n")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ProtoError::bad("missing \"n\""))?
                        as usize,
                    cached: json.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    ratio: need_f64("ratio")?,
                    bound: need_f64("bound")?,
                    alpha: need_f64("alpha")?,
                    micros: json.get("micros").and_then(Json::as_u64).unwrap_or(0),
                    pieces,
                }))
            }
            other => Err(ProtoError::bad(format!("unknown status \"{other}\""))),
        }
    }
}

/// A reply's `pieces` field as the decoder finds it.
enum Weights {
    /// Absent, or not an array.
    Missing,
    /// An array with an element that is not a number.
    Bad,
    /// An array of numbers.
    Read(Vec<f64>),
}

/// Parses a reply line as [`Json::parse`] does, except that the value of
/// the top-level object's first `pieces` key is read into a [`Weights`]
/// instead of into the tree. Same grammar, same errors at the same
/// offsets.
fn parse_reply(text: &str) -> Result<(Json, Weights), ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let reply = if p.peek() == Some(b'{') {
        p.reply()?
    } else {
        (p.value(0)?, Weights::Missing)
    };
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(reply)
}

/// A protocol-level error (malformed frame content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Description of what was wrong.
    pub message: String,
}

impl ProtoError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Encode/decode of complete wire frames for one payload format.
///
/// `encode_*` appends a **complete** frame — JSON line plus `\n`, or
/// magic byte, length and payload — so callers can batch frames into one
/// output buffer and hand it to a single vectored write. `decode_*`
/// takes the de-framed payload as produced by [`FrameReader`]: the line
/// without its newline for JSON, the length-prefixed payload for binary.
pub trait Codec {
    /// Appends one complete request frame to `out`.
    fn encode_request(&self, req: &Request, out: &mut Vec<u8>);
    /// Appends one complete response frame to `out`.
    fn encode_response(&self, resp: &Response, out: &mut Vec<u8>);
    /// Decodes a request from a de-framed payload.
    fn decode_request(&self, payload: &[u8]) -> Result<Request, ProtoError>;
    /// Decodes a response from a de-framed payload.
    fn decode_response(&self, payload: &[u8]) -> Result<Response, ProtoError>;
}

/// Runtime codec selector. Each frame on a connection picks its own
/// codec by first byte; replies go out in the codec of the request they
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireCodec {
    /// Newline-delimited JSON text (the v1 protocol; always accepted).
    #[default]
    Json,
    /// Length-prefixed binary frames (`[0xA7][len u32 LE][payload]`).
    ///
    /// Request payload: `tag u8` — for `balance` followed by
    /// `flags u8, [id u64], algorithm u8, n u32, theta f64, [deadline u64],
    /// problem` (see [`ProblemSpec::encode_binary`]). All integers LE,
    /// floats as LE IEEE-754 bits, so values round-trip exactly.
    ///
    /// Response payload: `tag u8` — `pong` is bare; `stats` carries the
    /// stats object as JSON text (it is opaque, cold, and human-shaped);
    /// `error` is `flags u8, [id u64], code u8, message (u32 len + UTF-8)`;
    /// `ok` is a per-request head `flags u8, [id u64], cached u8,
    /// micros u64` followed by the invariant tail `algorithm u8, n u32,
    /// ratio f64, bound f64, alpha f64, count u32, pieces f64×count` — the
    /// tail layout is shared with the encoded-reply cache, which stores it
    /// pre-built and splices only the head per hit.
    Binary,
}

impl WireCodec {
    /// CLI/metrics name.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Binary => "binary",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "json" => Some(WireCodec::Json),
            "binary" | "bin" => Some(WireCodec::Binary),
            _ => None,
        }
    }

    /// Dense index for per-codec tables (`[Json, Binary]`).
    pub fn index(self) -> usize {
        match self {
            WireCodec::Json => 0,
            WireCodec::Binary => 1,
        }
    }
}

impl Codec for WireCodec {
    fn encode_request(&self, req: &Request, out: &mut Vec<u8>) {
        match self {
            WireCodec::Json => {
                req.to_json().write(out);
                out.push(b'\n');
            }
            WireCodec::Binary => binary_encode_request(req, out),
        }
    }

    fn encode_response(&self, resp: &Response, out: &mut Vec<u8>) {
        match self {
            WireCodec::Json => {
                resp.write_json(out);
                out.push(b'\n');
            }
            WireCodec::Binary => binary_encode_response(resp, out),
        }
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, ProtoError> {
        match self {
            WireCodec::Json => Request::decode(utf8_line(payload)?),
            WireCodec::Binary => binary_decode_request(payload),
        }
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, ProtoError> {
        match self {
            WireCodec::Json => Response::decode(utf8_line(payload)?),
            WireCodec::Binary => binary_decode_response(payload),
        }
    }
}

/// A JSON payload as text.
fn utf8_line(payload: &[u8]) -> Result<&str, ProtoError> {
    std::str::from_utf8(payload).map_err(|_| ProtoError::bad("frame is not valid UTF-8"))
}

// Binary payload tags. Requests and responses use disjoint spaces only
// for readability; the reader always knows which it expects.
const REQ_PING: u8 = 0;
const REQ_STATS: u8 = 1;
const REQ_SHUTDOWN: u8 = 2;
const REQ_BALANCE: u8 = 3;
const RESP_PONG: u8 = 0;
const RESP_STATS: u8 = 1;
const RESP_ERROR: u8 = 2;
const RESP_OK: u8 = 3;

// Flag bits shared by the balance request and the ok/error responses.
const FLAG_ID: u8 = 1;
const FLAG_DEADLINE: u8 = 2;
const FLAG_WANT_PIECES: u8 = 4;

/// Reserves a binary frame header in `out`, returning the payload start
/// offset to pass to [`end_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.push(MAGIC);
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

/// Patches the length field of a frame opened by [`begin_frame`].
fn end_frame(out: &mut [u8], payload_start: usize) {
    let len = (out.len() - payload_start) as u32;
    out[payload_start - 4..payload_start].copy_from_slice(&len.to_le_bytes());
}

/// Appends one complete binary request frame to `out`.
fn binary_encode_request(req: &Request, out: &mut Vec<u8>) {
    let start = begin_frame(out);
    match req {
        Request::Ping => out.push(REQ_PING),
        Request::Stats => out.push(REQ_STATS),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
        Request::Balance(b) => {
            out.push(REQ_BALANCE);
            let mut flags = 0u8;
            if b.id.is_some() {
                flags |= FLAG_ID;
            }
            if b.deadline_ms.is_some() {
                flags |= FLAG_DEADLINE;
            }
            if b.want_pieces {
                flags |= FLAG_WANT_PIECES;
            }
            out.push(flags);
            if let Some(id) = b.id {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out.push(b.algorithm.index() as u8);
            out.extend_from_slice(&(b.n as u32).to_le_bytes());
            out.extend_from_slice(&b.theta.to_le_bytes());
            if let Some(d) = b.deadline_ms {
                out.extend_from_slice(&d.to_le_bytes());
            }
            b.problem.encode_binary(out);
        }
    }
    end_frame(out, start);
}

/// Appends one complete binary response frame to `out`.
fn binary_encode_response(resp: &Response, out: &mut Vec<u8>) {
    let start = begin_frame(out);
    match resp {
        Response::Pong => out.push(RESP_PONG),
        Response::Stats(stats) => {
            out.push(RESP_STATS);
            out.extend_from_slice(stats.encode().as_bytes());
        }
        Response::Error { id, code, message } => {
            out.push(RESP_ERROR);
            out.push(if id.is_some() { FLAG_ID } else { 0 });
            if let Some(id) = id {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out.push(code.index() as u8);
            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::Ok(r) => {
            out.push(RESP_OK);
            out.push(if r.id.is_some() { FLAG_ID } else { 0 });
            if let Some(id) = r.id {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out.push(r.cached as u8);
            out.extend_from_slice(&r.micros.to_le_bytes());
            binary_ok_tail(r.algorithm, r.n, r.ratio, r.bound, r.alpha, &r.pieces, out);
        }
    }
    end_frame(out, start);
}

/// Decodes a binary request payload (layout on [`WireCodec::Binary`]).
fn binary_decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut cur = ByteCursor::new(payload);
    let req = match cur.u8()? {
        REQ_PING => Request::Ping,
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_BALANCE => {
            let flags = cur.u8()?;
            let id = if flags & FLAG_ID != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let algorithm = *Algorithm::ALL
                .get(cur.u8()? as usize)
                .ok_or_else(|| ProtoError::bad("unknown algorithm tag"))?;
            let n = cur.u32()? as u64;
            if n == 0 || n > crate::spec::MAX_PROCESSORS as u64 {
                return Err(ProtoError::bad(format!(
                    "\"n\" must be in 1..={}",
                    crate::spec::MAX_PROCESSORS
                )));
            }
            let theta = cur.f64()?;
            if !theta.is_finite() || theta <= 0.0 {
                return Err(ProtoError::bad("\"theta\" must be a positive number"));
            }
            let deadline_ms = if flags & FLAG_DEADLINE != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let problem = ProblemSpec::decode_binary(&mut cur)?;
            Request::Balance(BalanceRequest {
                id,
                algorithm,
                n: n as usize,
                theta,
                deadline_ms,
                want_pieces: flags & FLAG_WANT_PIECES != 0,
                problem,
            })
        }
        other => return Err(ProtoError::bad(format!("unknown request tag {other}"))),
    };
    cur.finish()?;
    Ok(req)
}

/// Decodes a binary response payload.
fn binary_decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut cur = ByteCursor::new(payload);
    let resp = match cur.u8()? {
        RESP_PONG => Response::Pong,
        RESP_STATS => {
            let text = std::str::from_utf8(cur.rest())
                .map_err(|_| ProtoError::bad("stats payload is not valid UTF-8"))?;
            let json = Json::parse(text).map_err(|e| ProtoError::bad(e.to_string()))?;
            return Ok(Response::Stats(json));
        }
        RESP_ERROR => {
            let flags = cur.u8()?;
            let id = if flags & FLAG_ID != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let code = *ErrorCode::ALL
                .get(cur.u8()? as usize)
                .ok_or_else(|| ProtoError::bad("unknown error code tag"))?;
            let len = cur.u32()? as usize;
            let message = String::from_utf8(cur.take(len)?.to_vec())
                .map_err(|_| ProtoError::bad("error message is not valid UTF-8"))?;
            Response::Error { id, code, message }
        }
        RESP_OK => {
            let flags = cur.u8()?;
            let id = if flags & FLAG_ID != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let cached = cur.u8()? != 0;
            let micros = cur.u64()?;
            let algorithm = *Algorithm::ALL
                .get(cur.u8()? as usize)
                .ok_or_else(|| ProtoError::bad("unknown algorithm tag"))?;
            let n = cur.u32()? as usize;
            let ratio = cur.f64()?;
            let bound = cur.f64()?;
            let alpha = cur.f64()?;
            let count = cur.u32()? as usize;
            let mut pieces = Vec::with_capacity(count.min(MAX_FRAME / 8));
            for _ in 0..count {
                pieces.push(cur.f64()?);
            }
            Response::Ok(BalanceResponse {
                id,
                algorithm,
                n,
                ratio,
                bound,
                alpha,
                cached,
                micros,
                pieces,
            })
        }
        other => return Err(ProtoError::bad(format!("unknown response tag {other}"))),
    };
    cur.finish()?;
    Ok(resp)
}

/// Bounds-checked little-endian reader over a frame payload.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtoError::bad("truncated binary payload"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` LE.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` LE.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from LE IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The unconsumed remainder.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Requires the payload to be fully consumed.
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::bad("trailing bytes in binary payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy hit-path helpers
// ---------------------------------------------------------------------------
//
// A cache hit answers with a reply whose only per-request fields are the
// echoed id and the measured micros; everything else is a pure function
// of the cached result. These helpers build the invariant byte tail once
// (stored alongside the cached result) and splice the tiny per-request
// head around it on every hit, so the hot path never re-serializes.

/// Appends the decimal digits of `v` without allocating.
pub fn push_u64_ascii(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends the decimal digits of `v`, with a `-` when it is negative.
fn push_i64_ascii(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64_ascii(out, v.unsigned_abs());
}

/// Room reserved for an ok reply's fields other than its pieces.
const OK_REPLY_FIELDS: usize = 256;
/// Room reserved per piece: a comma and the text of a weight, which is
/// at most 23 bytes unless it is below 1e-7 or above 1e16.
const PIECE_TEXT: usize = 24;

/// Appends an ok reply's fields from `status` up to the value of
/// `micros`: `"status":"ok", … ,"micros":`.
fn push_ok_head(
    out: &mut Vec<u8>,
    algorithm: Algorithm,
    n: usize,
    cached: bool,
    ratio: f64,
    bound: f64,
    alpha: f64,
) {
    out.extend_from_slice(b"\"status\":\"ok\",\"algorithm\":\"");
    out.extend_from_slice(algorithm.name().as_bytes());
    out.extend_from_slice(b"\",\"n\":");
    push_i64_ascii(out, n as i64);
    out.extend_from_slice(if cached {
        b",\"cached\":true,\"ratio\":"
    } else {
        b",\"cached\":false,\"ratio\":"
    });
    push_json_f64(out, ratio);
    out.extend_from_slice(b",\"bound\":");
    push_json_f64(out, bound);
    out.extend_from_slice(b",\"alpha\":");
    push_json_f64(out, alpha);
    out.extend_from_slice(b",\"micros\":");
}

/// Appends the rest of an ok reply after its `micros` value:
/// `,"pieces":[…]}`.
fn push_ok_rest(out: &mut Vec<u8>, pieces: &[f64]) {
    out.extend_from_slice(b",\"pieces\":[");
    for (i, &w) in pieces.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_json_f64(out, w);
    }
    out.extend_from_slice(b"]}");
}

/// Builds the invariant JSON tail of a cached-hit `ok` reply: the
/// encoded object minus its leading `{` and the per-request id, with the
/// micros digits left out. Returns `(bytes, split)` where `split` is the
/// offset at which the micros digits are spliced back in. Assembling
/// `{` + `"id":N,`? + `bytes[..split]` + digits + `bytes[split..]` +
/// `\n` is byte-identical to [`Codec::encode_response`] on the same
/// response, which the proptests assert.
pub fn json_ok_tail(
    algorithm: Algorithm,
    n: usize,
    ratio: f64,
    bound: f64,
    alpha: f64,
    pieces: &[f64],
) -> (Vec<u8>, usize) {
    let mut bytes = Vec::with_capacity(OK_REPLY_FIELDS + PIECE_TEXT * pieces.len());
    push_ok_head(&mut bytes, algorithm, n, true, ratio, bound, alpha);
    let split = bytes.len();
    push_ok_rest(&mut bytes, pieces);
    // The tail lives as long as its cache entry: hold no spare room.
    bytes.shrink_to_fit();
    (bytes, split)
}

/// Appends a full cached-hit JSON reply line assembled around a
/// [`json_ok_tail`] to `out`.
pub fn json_hit_reply(out: &mut Vec<u8>, id: Option<u64>, micros: u64, tail: &[u8], split: usize) {
    out.push(b'{');
    if let Some(id) = id {
        out.extend_from_slice(b"\"id\":");
        push_u64_ascii(out, id);
        out.push(b',');
    }
    out.extend_from_slice(&tail[..split]);
    push_u64_ascii(out, micros);
    out.extend_from_slice(&tail[split..]);
    out.push(b'\n');
}

/// Builds the invariant binary tail of a cached-hit `ok` reply (the
/// fields after `micros` in the `RESP_OK` layout).
pub fn binary_ok_tail(
    algorithm: Algorithm,
    n: usize,
    ratio: f64,
    bound: f64,
    alpha: f64,
    pieces: &[f64],
    out: &mut Vec<u8>,
) {
    out.push(algorithm.index() as u8);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&ratio.to_le_bytes());
    out.extend_from_slice(&bound.to_le_bytes());
    out.extend_from_slice(&alpha.to_le_bytes());
    out.extend_from_slice(&(pieces.len() as u32).to_le_bytes());
    for &w in pieces {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends a full cached-hit binary reply frame (head spliced in front
/// of a [`binary_ok_tail`]) to `out`. `cached` is always true on this
/// path.
pub fn binary_hit_reply(out: &mut Vec<u8>, id: Option<u64>, micros: u64, tail: &[u8]) {
    let head_len = 1 + 1 + if id.is_some() { 8 } else { 0 } + 1 + 8;
    let len = (head_len + tail.len()) as u32;
    out.push(MAGIC);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(RESP_OK);
    out.push(if id.is_some() { FLAG_ID } else { 0 });
    if let Some(id) = id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.push(1); // cached
    out.extend_from_slice(&micros.to_le_bytes());
    out.extend_from_slice(tail);
}

/// Extracts the request id echoed in a binary reply payload without
/// decoding the body — the router's passive health check needs only the
/// id to settle in-flight bookkeeping.
pub fn binary_reply_id(payload: &[u8]) -> Option<u64> {
    match *payload.first()? {
        RESP_ERROR | RESP_OK if payload.len() >= 10 && payload[1] & FLAG_ID != 0 => {
            Some(u64::from_le_bytes(payload[2..10].try_into().ok()?))
        }
        _ => None,
    }
}

/// Extracts the echoed id from a JSON reply line. The server emits the
/// id first when present, so a prefix scan answers without parsing; any
/// other shape falls back to a full parse (router-originated and
/// third-party replies).
pub fn json_reply_id(line: &str) -> Option<u64> {
    if let Some(rest) = line.strip_prefix("{\"id\":") {
        let digits: &str = &rest[..rest.bytes().position(|b| !b.is_ascii_digit())?];
        if !digits.is_empty() {
            return digits.parse().ok();
        }
    }
    Json::parse(line).ok()?.get("id")?.as_u64()
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Errors surfaced by [`Framer`] and [`FrameReader`].
#[derive(Debug)]
pub enum FrameError {
    /// A line exceeded the framer's length cap before its newline arrived.
    TooLong,
    /// A line was not valid UTF-8.
    NotUtf8,
    /// The peer closed the connection with a non-empty partial frame
    /// pending — the frame was torn mid-write. Surfaced exactly once;
    /// the next poll reports EOF.
    Torn,
    /// A binary frame declared a payload longer than the framer's cap —
    /// a corrupt or hostile length. The framer never allocates the
    /// declared size; it skips to the next newline or magic byte.
    Corrupt,
    /// Underlying socket error (includes clean EOF as `UnexpectedEof`).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong => write!(f, "frame exceeds its length cap"),
            FrameError::NotUtf8 => write!(f, "frame is not valid UTF-8"),
            FrameError::Torn => write!(f, "frame torn by EOF mid-line"),
            FrameError::Corrupt => write!(f, "binary frame length is corrupt"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    /// A torn frame is an early EOF; every other framing error is bad
    /// data.
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(e) => e,
            FrameError::Torn => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            e => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// What [`Framer::advance`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framed {
    /// A whole frame in this codec; [`Framer::frame`] and
    /// [`Framer::body`] hold it until the next call.
    Frame(WireCodec),
    /// No whole frame is buffered: the owner must read (or report EOF).
    Pending,
    /// The stream ended and every buffered byte is accounted for.
    Eof,
}

/// What the framer skips before the next frame can start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Skip {
    Nothing,
    /// The rest of an oversized line, up to and including its newline.
    Line,
    /// Junk after a corrupt binary length, up to a newline (consumed) or
    /// a magic byte (kept as the next frame's start).
    Resync,
}

/// The one framer of the wire grammar, with no I/O of its own: its owner
/// reads into [`read_buf`](Self::read_buf), reports the bytes with
/// [`filled`](Self::filled) (or the end of the stream with
/// [`close`](Self::close)) and takes frames out with
/// [`advance`](Self::advance).
///
/// Each frame is sniffed by its first byte: [`MAGIC`] opens a
/// length-prefixed binary frame, anything else is a newline-delimited
/// text line (a `\r\n` ending is accepted). The owner passes the length
/// cap: [`MAX_FRAME`] for requests, [`MAX_REPLY`] for replies. A line
/// longer than the cap is [`FrameError::TooLong`] and is discarded up to
/// its newline; a binary length over the cap is [`FrameError::Corrupt`],
/// and the framer skips to the next newline (consumed) or magic byte
/// (kept). A partial frame at EOF is [`FrameError::Torn`], reported once.
///
/// The buffer is contiguous, a newline search resumes where the last one
/// stopped, and a buffer that grew past the read size for a large frame
/// shrinks back once that frame is consumed.
#[derive(Debug)]
pub struct Framer {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[head..end]`.
    head: usize,
    end: usize,
    /// The first `scanned` unconsumed bytes of a text frame hold no
    /// newline.
    scanned: usize,
    /// The last frame handed out, framing included, and its body.
    frame: Range<usize>,
    body: Range<usize>,
    cap: usize,
    read_size: usize,
    skip: Skip,
    eof: bool,
    /// The last [`advance`](Self::advance) was `Pending` and no byte
    /// has arrived since.
    stalled: bool,
    codec: WireCodec,
}

impl Framer {
    /// A framer for frames of at most `cap` bytes of body, reading at
    /// least `read_size` bytes at a time. The buffer is allocated by the
    /// first read.
    pub fn new(cap: usize, read_size: usize) -> Framer {
        Framer {
            buf: Vec::new(),
            head: 0,
            end: 0,
            scanned: 0,
            frame: 0..0,
            body: 0..0,
            cap,
            read_size,
            skip: Skip::Nothing,
            eof: false,
            stalled: true,
            codec: WireCodec::Json,
        }
    }

    /// Room for the next read, at least the read size. The last frame's
    /// bytes are gone after this call.
    pub fn read_buf(&mut self) -> &mut [u8] {
        self.frame = 0..0;
        self.body = 0..0;
        if self.head == self.end {
            self.head = 0;
            self.end = 0;
            if self.buf.len() > self.read_size {
                self.buf.truncate(self.read_size);
                self.buf.shrink_to_fit();
            }
        } else if self.buf.len() - self.end < self.read_size {
            self.buf.copy_within(self.head..self.end, 0);
            self.end -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.end < self.read_size {
            self.buf.resize(self.end + self.read_size, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Records that `k` bytes landed at the start of the last
    /// [`read_buf`](Self::read_buf).
    pub fn filled(&mut self, k: usize) {
        self.end += k;
        self.stalled &= k == 0;
    }

    /// Records the end of the stream.
    pub fn close(&mut self) {
        self.eof = true;
        self.stalled = false;
    }

    /// Takes the next frame out of the buffer, or an error that consumed
    /// the bytes it names.
    pub fn advance(&mut self) -> Result<Framed, FrameError> {
        loop {
            let pending = &self.buf[self.head..self.end];
            let found = match self.skip {
                Skip::Nothing => break,
                Skip::Line => find_newline(pending).map(|at| at + 1),
                Skip::Resync => pending
                    .iter()
                    .position(|&b| b == b'\n' || b == MAGIC)
                    .map(|at| at + usize::from(pending[at] == b'\n')),
            };
            let Some(skipped) = found else {
                // No sync point yet: the junk goes now, not at the cap.
                self.head = self.end;
                return self.starve();
            };
            self.head += skipped;
            self.skip = Skip::Nothing;
        }
        let pending = &self.buf[self.head..self.end];
        match pending.first() {
            None => {}
            Some(&MAGIC) => {
                self.codec = WireCodec::Binary;
                if let Some(header) = pending.get(1..BIN_HDR) {
                    let declared = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
                    if declared > self.cap {
                        self.head += BIN_HDR;
                        self.skip = Skip::Resync;
                        return Err(FrameError::Corrupt);
                    }
                    if pending.len() >= BIN_HDR + declared {
                        return Ok(self.take(BIN_HDR + declared, BIN_HDR..BIN_HDR + declared));
                    }
                }
            }
            Some(_) => match find_newline(&pending[self.scanned..]) {
                Some(at) => {
                    let at = self.scanned + at;
                    self.scanned = 0;
                    self.codec = WireCodec::Json;
                    if at > self.cap {
                        self.head += at + 1;
                        return Err(FrameError::TooLong);
                    }
                    let body_end = at - usize::from(at > 0 && pending[at - 1] == b'\r');
                    return Ok(self.take(at + 1, 0..body_end));
                }
                None if pending.len() > self.cap => {
                    self.codec = WireCodec::Json;
                    self.scanned = 0;
                    self.head = self.end;
                    self.skip = Skip::Line;
                    return Err(FrameError::TooLong);
                }
                None => self.scanned = pending.len(),
            },
        }
        self.starve()
    }

    /// Hands out the `len` bytes at the head as a frame whose body is
    /// `body`, relative to the head.
    fn take(&mut self, len: usize, body: Range<usize>) -> Framed {
        self.frame = self.head..self.head + len;
        self.body = self.head + body.start..self.head + body.end;
        self.head += len;
        Framed::Frame(self.codec)
    }

    /// Nothing whole is buffered: wait for bytes, or at EOF drop what is
    /// left, a torn frame if anything is, and end the stream.
    fn starve(&mut self) -> Result<Framed, FrameError> {
        if !self.eof {
            self.stalled = true;
            return Ok(Framed::Pending);
        }
        let torn = self.head < self.end;
        self.head = self.end;
        self.scanned = 0;
        self.skip = Skip::Nothing;
        if torn {
            Err(FrameError::Torn)
        } else {
            Ok(Framed::Eof)
        }
    }

    /// The last frame exactly as received, framing included.
    pub fn frame(&self) -> &[u8] {
        &self.buf[self.frame.clone()]
    }

    /// The last frame without its framing: the line without its `\n`
    /// or `\r\n`, or the binary payload without its header.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }

    /// The last frame's body as text.
    pub fn text(&self) -> Result<&str, FrameError> {
        std::str::from_utf8(self.body()).map_err(|_| FrameError::NotUtf8)
    }

    /// Moves the last frame out. When it is all the buffer holds and it
    /// grew the buffer past the read size, the buffer itself goes, so a
    /// large reply leaves no large buffer behind.
    pub fn take_frame(&mut self) -> Vec<u8> {
        if self.frame.start > 0 || self.head < self.end || self.buf.len() <= self.read_size {
            return self.frame().to_vec();
        }
        let mut frame = std::mem::take(&mut self.buf);
        frame.truncate(self.end);
        self.head = 0;
        self.end = 0;
        self.frame = 0..0;
        self.body = 0..0;
        frame
    }

    /// The codec of the most recently sniffed frame (JSON until the
    /// first byte arrives). Replies to frames that never decoded — too
    /// long, corrupt length, torn — should use this so the peer can
    /// read them.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Bytes received and not yet taken out as a frame.
    pub fn buffered(&self) -> usize {
        self.end - self.head
    }

    /// True while [`advance`](Self::advance) may make progress without
    /// another read: false exactly when it last answered `Pending` and
    /// nothing has arrived since. A readiness-driven owner must keep
    /// going while this holds instead of sleeping on the descriptor —
    /// no readiness event will ever announce already-read bytes.
    pub fn has_buffered(&self) -> bool {
        !self.stalled
    }
}

/// The index of the first newline in `buf`, eight bytes per step: a
/// relayed reply is scanned whole, and a byte-at-a-time search cost
/// about 1 ns per byte.
fn find_newline(buf: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = buf.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        // Zero exactly in the bytes that hold a newline; the classic
        // has-zero-byte test flags the word.
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ NEWLINES;
        if x.wrapping_sub(ONES) & !x & HIGHS != 0 {
            return word.iter().position(|&b| b == b'\n').map(|at| 8 * i + at);
        }
    }
    let tail = buf.len() - words.remainder().len();
    let at = words.remainder().iter().position(|&b| b == b'\n')?;
    Some(tail + at)
}

/// Bytes a [`FrameReader`] asks the socket for per read.
const READ_SIZE: usize = 8 * 1024;

/// A [`Framer`] over a readable stream, capped at [`MAX_FRAME`]: the
/// request reader of the connection loop. A `WouldBlock`/`TimedOut`
/// read returns control to the caller (yielding [`Frame::Pending`])
/// while preserving any partial frame, so servers can poll a shutdown
/// flag between reads.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    framer: Framer,
}

/// One poll step of the frame reader.
#[derive(Debug)]
pub enum Frame<'a> {
    /// A complete text line (newline stripped).
    Line(&'a str),
    /// A complete binary frame payload (header stripped).
    Binary(&'a [u8]),
    /// No complete frame yet (timeout or short read); call again.
    Pending,
    /// Peer closed the connection cleanly.
    Eof,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a readable stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            framer: Framer::new(MAX_FRAME, READ_SIZE),
        }
    }

    /// Access to the wrapped stream (e.g. for readiness registration).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The framer: the last frame polled as received
    /// ([`Framer::frame`]), the codec replies to undecoded frames use
    /// ([`Framer::codec`]), and whether a poll can progress without
    /// the socket ([`Framer::has_buffered`]).
    pub fn framer(&self) -> &Framer {
        &self.framer
    }

    /// Reads until a full frame, a timeout, EOF or an error.
    pub fn poll_line(&mut self) -> Result<Frame<'_>, FrameError> {
        loop {
            match self.framer.advance()? {
                Framed::Frame(WireCodec::Json) => return self.framer.text().map(Frame::Line),
                Framed::Frame(WireCodec::Binary) => return Ok(Frame::Binary(self.framer.body())),
                Framed::Eof => return Ok(Frame::Eof),
                Framed::Pending => {}
            }
            match self.inner.read(self.framer.read_buf()) {
                Ok(0) => self.framer.close(),
                Ok(k) => self.framer.filled(k),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Pending);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "3.25",
            "\"hi\\nthere\"",
            "[1,2.5,\"x\",null]",
            "{\"a\":1,\"b\":[true,{\"c\":\"d\"}]}",
        ] {
            let v = Json::parse(text).unwrap();
            let round = Json::parse(&v.encode()).unwrap();
            assert_eq!(v, round, "{text}");
        }
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        assert_eq!(Json::parse("5").unwrap(), Json::Int(5));
        assert_eq!(Json::parse("5.0").unwrap(), Json::Num(5.0));
        // A float that prints without a fraction re-parses as a float.
        let encoded = Json::Num(5.0).encode();
        assert_eq!(Json::parse(&encoded).unwrap(), Json::Num(5.0));
    }

    #[test]
    fn every_u64_reads_back_as_itself() {
        for v in [0, 1 << 53, i64::MAX as u64, 1 << 63, u64::MAX] {
            let json = Json::from(v);
            let back = Json::parse(&json.encode()).unwrap();
            assert_eq!(back, json, "{v}");
            assert_eq!(back.as_u64(), Some(v));
        }
        assert_eq!(Json::from(1 << 63), Json::UInt(1 << 63));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "nan",
            "--5",
            "\u{1}",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn a_frame_sized_string_parses_in_linear_time() {
        // Plain runs with multi-byte characters, broken up by escapes.
        let unit = "héllo wörld ☃ \\n";
        let body = unit.repeat((MAX_FRAME - 16) / unit.len());
        let text = format!("{{\"k\":\"{body}\"}}");
        assert!(text.len() <= MAX_FRAME && text.len() > MAX_FRAME - 64);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let took = started.elapsed();
        let expected = body.replace("\\n", "\n");
        assert_eq!(parsed.get("k"), Some(&Json::Str(expected)));
        assert!(took.as_millis() < 250, "took {took:?}");
    }

    #[test]
    fn surrogate_escapes_pair_or_fold_to_the_replacement_character() {
        let cases = [
            (r#""😀""#, "\u{1F600}"),
            (r#""\uD800A""#, "\u{FFFD}A"),
            (r#""\uD800😀""#, "\u{FFFD}\u{1F600}"),
            (r#""\uDC00x""#, "\u{FFFD}x"),
            (r#""\uD800""#, "\u{FFFD}"),
        ];
        for (text, want) in cases {
            assert_eq!(Json::parse(text), Ok(Json::Str(want.into())), "{text}");
        }
        assert!(Json::parse(r#""\uD800\u00""#).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut s = String::new();
        for _ in 0..100 {
            s.push('[');
        }
        assert!(Json::parse(&s).is_err());
    }

    #[test]
    fn request_round_trip() {
        let req = Request::Balance(BalanceRequest {
            id: Some(42),
            algorithm: Algorithm::BaHf,
            n: 64,
            theta: 1.5,
            deadline_ms: Some(250),
            want_pieces: false,
            problem: ProblemSpec::Synthetic {
                weight: 2.0,
                lo: 0.1,
                hi: 0.5,
                seed: 7,
            },
        });
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(req, decoded);
        for r in [Request::Stats, Request::Ping, Request::Shutdown] {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::Ok(BalanceResponse {
            id: Some(1),
            algorithm: Algorithm::Hf,
            n: 8,
            ratio: 1.25,
            bound: 4.5,
            alpha: 0.3,
            cached: true,
            micros: 917,
            pieces: vec![0.25, 0.125, 0.625],
        });
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let err = Response::Error {
            id: None,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        };
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn balance_request_validation() {
        // n = 0 rejected.
        let bad = r#"{"op":"balance","algorithm":"hf","n":0,"problem":{"class":"synthetic","weight":1.0,"lo":0.1,"hi":0.5,"seed":1}}"#;
        assert!(Request::decode(bad).is_err());
        // unknown algorithm rejected.
        let bad = r#"{"op":"balance","algorithm":"rr","n":4,"problem":{"class":"synthetic","weight":1.0,"lo":0.1,"hi":0.5,"seed":1}}"#;
        assert!(Request::decode(bad).is_err());
        // negative theta rejected.
        let bad = r#"{"op":"balance","algorithm":"hf","n":4,"theta":-1.0,"problem":{"class":"synthetic","weight":1.0,"lo":0.1,"hi":0.5,"seed":1}}"#;
        assert!(Request::decode(bad).is_err());
    }

    #[test]
    fn newline_search_matches_a_byte_scan() {
        for len in 0..40 {
            for at in 0..=len {
                let mut buf = vec![b'x'; len];
                if at < len {
                    buf[at] = b'\n';
                    // A second newline must not mask the first.
                    buf[len - 1] = b'\n';
                }
                let want = buf.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&buf), want, "len {len}, newline at {at}");
            }
        }
        // Bytes whose low bits look like a newline's are not one.
        assert_eq!(
            find_newline(&[0x8a, 0x0b, 0x09, 0x1a, 0x4a, 0xaa, 0x0a, 0]),
            Some(6)
        );
    }

    #[test]
    fn max_reply_holds_the_largest_reply_in_both_codecs() {
        let text = |x: f64| Json::Num(x).encode().len();
        // The worst finite value prints at exactly the assumed length,
        // and no other value prints longer: the extremes, and a sweep of
        // the subnormal and smallest normal range, where the text is
        // longest.
        let worst = -f64::from_bits(1);
        assert_eq!(text(worst), F64_TEXT_MAX);
        for x in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -1.0 / 3.0,
        ] {
            assert!(text(x) <= F64_TEXT_MAX, "{x:e}");
        }
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            bits = crate::cache::splitmix64(bits);
            let x = f64::from_bits(bits & 0x801F_FFFF_FFFF_FFFF);
            assert!(text(x) <= F64_TEXT_MAX, "{x:e}");
        }
        let n = crate::spec::MAX_PROCESSORS;
        let reply = Response::Ok(BalanceResponse {
            id: Some(1 << 63),
            algorithm: Algorithm::BaHf,
            n,
            ratio: worst,
            bound: worst,
            alpha: worst,
            cached: false,
            micros: 1 << 63,
            pieces: vec![worst; n],
        });
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let mut frame = Vec::new();
            codec.encode_response(&reply, &mut frame);
            assert!(
                frame.len() <= MAX_REPLY,
                "{codec:?}: {} > {MAX_REPLY}",
                frame.len()
            );
            // And the reply framer takes it whole.
            let mut framer = Framer::new(MAX_REPLY, 64 * 1024);
            assert_eq!(feed(&mut framer, &frame).unwrap(), Framed::Frame(codec));
            assert_eq!(framer.frame(), &frame[..], "{codec:?}");
        }
    }

    /// Feeds `data` to `framer` one `read_buf` at a time until it holds
    /// a frame or an error.
    fn feed(framer: &mut Framer, data: &[u8]) -> Result<Framed, FrameError> {
        let mut fed = 0;
        loop {
            match framer.advance()? {
                Framed::Pending if fed < data.len() => {}
                step => return Ok(step),
            }
            let room = framer.read_buf();
            let k = room.len().min(data.len() - fed);
            room[..k].copy_from_slice(&data[fed..fed + k]);
            framer.filled(k);
            fed += k;
        }
    }

    #[test]
    fn a_framer_shrinks_back_to_its_read_size_after_a_large_frame() {
        let mut data = vec![b'x'; 100_000];
        data.extend_from_slice(b"\nok\n");
        let mut framer = Framer::new(MAX_REPLY, 1024);
        assert_eq!(
            feed(&mut framer, &data).unwrap(),
            Framed::Frame(WireCodec::Json)
        );
        assert_eq!(framer.body().len(), 100_000);
        assert_eq!(framer.advance().unwrap(), Framed::Frame(WireCodec::Json));
        assert_eq!(framer.text().unwrap(), "ok");
        assert_eq!(framer.advance().unwrap(), Framed::Pending);
        assert_eq!(framer.read_buf().len(), 1024);
        assert_eq!(framer.buf.capacity(), 1024);

        // Moving a large frame out takes the buffer with it.
        let mut frame = vec![MAGIC];
        frame.extend_from_slice(&100_000u32.to_le_bytes());
        frame.resize(BIN_HDR + 100_000, 7);
        assert_eq!(
            feed(&mut framer, &frame).unwrap(),
            Framed::Frame(WireCodec::Binary)
        );
        assert_eq!(framer.take_frame(), frame);
        assert_eq!(framer.buf.capacity(), 0);
        assert_eq!(framer.read_buf().len(), 1024);
    }

    #[test]
    fn a_framer_resumes_its_newline_search_where_it_stopped() {
        let mut framer = Framer::new(MAX_FRAME, 16);
        for chunk in [&b"abcdefgh"[..], b"ijklmnop", b"qr\n"] {
            assert!(!framer.has_buffered());
            let room = framer.read_buf();
            room[..chunk.len()].copy_from_slice(chunk);
            framer.filled(chunk.len());
            assert!(framer.has_buffered());
            if chunk.ends_with(b"\n") {
                assert_eq!(framer.advance().unwrap(), Framed::Frame(WireCodec::Json));
            } else {
                assert_eq!(framer.advance().unwrap(), Framed::Pending);
                assert_eq!(framer.scanned, framer.buffered());
            }
        }
        assert_eq!(framer.text().unwrap(), "abcdefghijklmnopqr");
        assert_eq!(framer.frame(), b"abcdefghijklmnopqr\n");
    }

    #[test]
    fn frame_reader_splits_lines_and_handles_eof() {
        let data = b"alpha\nbeta\r\ngamma" as &[u8];
        let mut fr = FrameReader::new(data);
        assert!(matches!(fr.poll_line().unwrap(), Frame::Line(s) if s == "alpha"));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Line(s) if s == "beta"));
        // The unterminated tail is a torn frame, not a silent EOF.
        assert!(matches!(fr.poll_line(), Err(FrameError::Torn)));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Eof));
    }

    #[test]
    fn frame_reader_clean_eof_is_not_torn() {
        let data = b"alpha\n" as &[u8];
        let mut fr = FrameReader::new(data);
        assert!(matches!(fr.poll_line().unwrap(), Frame::Line(s) if s == "alpha"));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Eof));
        // Torn is surfaced at most once; clean EOF stays EOF forever.
        assert!(matches!(fr.poll_line().unwrap(), Frame::Eof));
    }

    #[test]
    fn frame_reader_rejects_oversized_then_resyncs() {
        let mut data = vec![b'x'; MAX_FRAME + 10];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut fr = FrameReader::new(&data[..]);
        assert!(matches!(fr.poll_line(), Err(FrameError::TooLong)));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Line(s) if s == "ok"));
    }

    /// A reader that hands out the stream in caller-chosen chunks, so
    /// tests control exactly where read boundaries fall.
    struct Chunked<'a> {
        data: &'a [u8],
        cuts: Vec<usize>,
        pos: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let next_cut = self
                .cuts
                .iter()
                .copied()
                .find(|&c| c > self.pos)
                .unwrap_or(self.data.len())
                .min(self.data.len());
            let take = (next_cut - self.pos).min(buf.len());
            buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
            Ok(take)
        }
    }

    #[test]
    fn oversized_resync_works_when_newline_straddles_reads() {
        // The oversized body arrives in one read, its terminating
        // newline in the next, and the follow-up frame in a third: the
        // reader must report TooLong once and then resynchronise.
        let mut data = vec![b'x'; MAX_FRAME + 7];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let body_end = MAX_FRAME + 7;
        let mut fr = FrameReader::new(Chunked {
            cuts: vec![body_end, body_end + 1],
            data: &data,
            pos: 0,
        });
        assert!(matches!(fr.poll_line(), Err(FrameError::TooLong)));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Line(s) if s == "ok"));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Eof));
    }

    #[test]
    fn oversized_tail_at_eof_is_not_double_reported() {
        // Overflow reported as TooLong; the unterminated discard tail at
        // EOF must not additionally count as a torn frame.
        let data = vec![b'x'; MAX_FRAME + 100];
        let mut fr = FrameReader::new(&data[..]);
        assert!(matches!(fr.poll_line(), Err(FrameError::TooLong)));
        assert!(matches!(fr.poll_line().unwrap(), Frame::Eof));
    }

    #[test]
    fn frame_reader_rejects_invalid_utf8() {
        let data = b"\xff\xfe\n" as &[u8];
        let mut fr = FrameReader::new(data);
        assert!(matches!(fr.poll_line(), Err(FrameError::NotUtf8)));
    }
}
