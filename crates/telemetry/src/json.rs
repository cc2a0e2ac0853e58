//! Minimal JSON reader and schema validator for telemetry snapshots.
//!
//! The workspace is deliberately dependency-free, so snapshot validation
//! (used by `tests/metrics_smoke.rs` and the repo benchmark's `compare`)
//! ships its own recursive-descent parser. It supports exactly the subset
//! the snapshot emitter produces — objects, arrays, strings without escapes
//! beyond `\"`/`\\`, unsigned/signed integers, floats, booleans, null —
//! which is also a superset of what the benchmark's documents use.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed JSON value (numbers keep an exact u64 where possible, since
/// every telemetry quantity is an unsigned counter).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Any number; `UInt` is preferred when the token is a plain integer.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Key order is not preserved (sorted); snapshot validation never
    /// depends on member order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse or validation failure, with a human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level and is fed files (the benchmark's `compare`), so
/// without a bound a file of `[`s overflows the stack — an abort, not a
/// [`JsonError`]. A snapshot nests 4 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| JsonError("unexpected end".into()))
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    /// One value, `depth` containers below the top of the document.
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        match self.peek()? {
            b'{' | b'[' if depth == MAX_DEPTH => {
                err(format!("nested deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.keyword("true", Value::Bool(true)),
            b'f' => self.keyword("false", Value::Bool(false)),
            b'n' => self.keyword("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => err(format!("unexpected byte '{}' at {}", c as char, self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("invalid keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("non-utf8 number".into()))?;
        if !float {
            if let Ok(v) = tok.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        match tok.parse::<f64>() {
            Ok(v) => Ok(Value::Float(v)),
            Err(_) => err(format!("invalid number '{tok}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        other => {
                            return err(format!("unsupported escape {other:?}"));
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    s.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let v = self.value(depth)?;
            map.insert(key, v);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                c => return err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => return err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }
}

/// Clamp an `f64` to the nearest value JSON can carry: NaN (meaningless as
/// a metric — e.g. a busy fraction over 0 ns of wall) becomes `0.0`,
/// infinities saturate to `±f64::MAX`. Finite values pass through.
pub fn clamp_f64(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else if v == f64::INFINITY {
        f64::MAX
    } else if v == f64::NEG_INFINITY {
        -f64::MAX
    } else {
        v
    }
}

/// Serialize an `f64` as a JSON number token.
///
/// `format!("{v}")` renders non-finite values as `NaN`/`inf` — tokens no
/// JSON parser (including [`parse`]) accepts, so one poisoned metric used
/// to invalidate a whole `BENCH_*.json` document. Non-finite inputs are
/// clamped via [`clamp_f64`]; everything is emitted in exponent form,
/// whose shortest-round-trip digits reparse to the exact same bits.
pub fn fmt_f64(v: f64) -> String {
    format!("{:e}", clamp_f64(v))
}

/// Parse a JSON document (the full snapshot subset).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Validate a serialized [`MetricsSnapshot`](crate::MetricsSnapshot):
///
/// - parses as JSON with the required top-level keys (`snapshot` marker,
///   `enabled`, `counters`, `gauges`, `histograms`, `worker_busy_ns`);
/// - every counter, gauge and worker entry is a non-negative integer;
/// - every histogram has non-negative `count`/`sum`/`buckets`, the bucket
///   sum equals `count` (so the cumulative bucket curve is monotone
///   non-decreasing and ends exactly at `count`), and at most
///   [`HIST_BUCKETS`](crate::HIST_BUCKETS) buckets.
///
/// Returns the parsed document on success so callers can inspect further.
pub fn validate_snapshot(text: &str) -> Result<Value, JsonError> {
    let doc = parse(text)?;
    let root = doc.as_object().ok_or_else(|| JsonError("root is not an object".into()))?;

    match root.get("snapshot").and_then(Value::as_str) {
        Some("stdpar-nbody-telemetry") => {}
        other => return err(format!("bad snapshot marker: {other:?}")),
    }
    root.get("enabled")
        .and_then(Value::as_bool)
        .ok_or_else(|| JsonError("missing boolean 'enabled'".into()))?;

    for section in ["counters", "gauges"] {
        let map = root
            .get(section)
            .and_then(Value::as_object)
            .ok_or_else(|| JsonError(format!("missing object '{section}'")))?;
        if map.is_empty() {
            return err(format!("'{section}' is empty"));
        }
        for (name, v) in map {
            v.as_u64().ok_or_else(|| {
                JsonError(format!("{section}.{name} is not a non-negative integer"))
            })?;
        }
    }

    let hists = root
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or_else(|| JsonError("missing object 'histograms'".into()))?;
    if hists.is_empty() {
        return err("'histograms' is empty");
    }
    for (name, h) in hists {
        let h = h
            .as_object()
            .ok_or_else(|| JsonError(format!("histograms.{name} is not an object")))?;
        let count = h
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| JsonError(format!("histograms.{name}.count invalid")))?;
        h.get("sum")
            .and_then(Value::as_u64)
            .ok_or_else(|| JsonError(format!("histograms.{name}.sum invalid")))?;
        let buckets = h
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| JsonError(format!("histograms.{name}.buckets invalid")))?;
        if buckets.is_empty() || buckets.len() > crate::HIST_BUCKETS {
            return err(format!("histograms.{name} has {} buckets", buckets.len()));
        }
        let mut cumulative: u64 = 0;
        let mut prev_cumulative: u64 = 0;
        for (i, b) in buckets.iter().enumerate() {
            let b = b.as_u64().ok_or_else(|| {
                JsonError(format!("histograms.{name}.buckets[{i}] is not a non-negative integer"))
            })?;
            cumulative = cumulative
                .checked_add(b)
                .ok_or_else(|| JsonError(format!("histograms.{name} bucket overflow")))?;
            if cumulative < prev_cumulative {
                return err(format!("histograms.{name} cumulative curve not monotone"));
            }
            prev_cumulative = cumulative;
        }
        if cumulative != count {
            return err(format!(
                "histograms.{name}: bucket sum {cumulative} != count {count}"
            ));
        }
    }

    let workers = root
        .get("worker_busy_ns")
        .and_then(Value::as_array)
        .ok_or_else(|| JsonError("missing array 'worker_busy_ns'".into()))?;
    if workers.is_empty() || workers.len() > crate::MAX_WORKERS {
        return err(format!("worker_busy_ns has {} entries", workers.len()));
    }
    for (i, w) in workers.iter().enumerate() {
        w.as_u64().ok_or_else(|| {
            JsonError(format!("worker_busy_ns[{i}] is not a non-negative integer"))
        })?;
    }

    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" null ").unwrap(), Value::Null);
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
        assert_eq!(parse("-3.5").unwrap(), Value::Float(-3.5));
        assert_eq!(
            parse("[1, 2, 3]").unwrap(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)])
        );
        let obj = parse("{\"a\": 1, \"b\": [true, {}]}").unwrap();
        let m = obj.as_object().unwrap();
        assert_eq!(m["a"], Value::UInt(1));
        assert_eq!(m["b"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn fmt_f64_round_trips_and_clamps_non_finite() {
        // Finite values reparse to the exact same bits.
        for v in [0.0, -0.0, 1.5, -2.75e-9, 6.02214076e23, f64::MAX, f64::MIN_POSITIVE] {
            match parse(&fmt_f64(v)).unwrap() {
                Value::Float(x) => assert_eq!(x.to_bits(), v.to_bits(), "{v}"),
                other => panic!("{v} parsed as {other:?}"),
            }
        }
        // Non-finite values emit *valid* JSON (the regression: `format!`
        // renders them as the unparseable tokens `NaN` / `inf`).
        assert!(parse(&format!("{}", f64::NAN)).is_err(), "bare Display NaN must not parse");
        for (v, want) in
            [(f64::NAN, 0.0), (f64::INFINITY, f64::MAX), (f64::NEG_INFINITY, -f64::MAX)]
        {
            let tok = fmt_f64(v);
            match parse(&tok).unwrap() {
                Value::Float(x) => assert_eq!(x.to_bits(), want.to_bits(), "{tok}"),
                other => panic!("{tok} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error_not_the_stack() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok(), "{open} at the limit");
            let e = parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(e.0.contains("nested deeper"), "{open} past the limit: {e}");
            // Unclosed, as a hostile or truncated file would be.
            assert!(parse(&open.repeat(200_000)).is_err(), "200 000 x {open}");
        }
    }

    #[test]
    fn parses_the_in_tree_bench_style() {
        let doc = parse(
            "{\n  \"bench\": \"group_sweep\",\n  \"n\": 20000,\n  \"rows\": [\n    { \"group\": 32, \"ms\": 1.25 }\n  ]\n}\n",
        )
        .unwrap();
        assert_eq!(doc.as_object().unwrap()["n"], Value::UInt(20000));
    }

    fn minimal_snapshot() -> String {
        String::from(
            "{\n\
             \"snapshot\": \"stdpar-nbody-telemetry\",\n\
             \"enabled\": true,\n\
             \"counters\": {\"sim_steps\": 3},\n\
             \"gauges\": {\"octree_pool_high_water\": 9},\n\
             \"histograms\": {\"g\": {\"count\": 3, \"sum\": 12, \"buckets\": [1, 2]}},\n\
             \"worker_busy_ns\": [10, 0]\n}\n",
        )
    }

    #[test]
    fn validator_accepts_a_well_formed_snapshot() {
        validate_snapshot(&minimal_snapshot()).unwrap();
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let good = minimal_snapshot();
        for (from, to, why) in [
            ("stdpar-nbody-telemetry", "other-marker", "marker"),
            ("\"enabled\": true", "\"enabled\": 1", "enabled type"),
            ("\"sim_steps\": 3", "\"sim_steps\": -3", "negative counter"),
            ("\"count\": 3", "\"count\": 4", "bucket sum mismatch"),
            ("\"buckets\": [1, 2]", "\"buckets\": [1, -2]", "negative bucket"),
            ("\"worker_busy_ns\": [10, 0]", "\"worker_busy_ns\": []", "empty workers"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement {why} did not apply");
            assert!(validate_snapshot(&bad).is_err(), "validator accepted: {why}");
        }
    }
}
