//! Result documents: a small JSON emitter (numbers go through the
//! library's `fmt_f64`, reading back goes through its parser), the result
//! schema, and the `compare` subcommand.

use crate::layers::{json_number, json_parse, JsonValue};
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub const SCHEMA: &str = "nbody-benchmark/1";

/// A JSON value to emit. Object members keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no whitespace beyond `", "` / `": "` separators.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(v) => {
                let _ = write!(out, "{v}");
            }
            J::Num(v) => out.push_str(&json_number(*v)),
            J::Str(s) => emit_string(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    emit_string(k, out);
                    out.push_str(": ");
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Multi-line form for documents people read: top-level members one per
    /// line, and one level further down for objects and arrays of objects.
    pub fn emit_pretty(&self) -> String {
        fn block(v: &J, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match v {
                J::Obj(members) if depth < 3 && !members.is_empty() => {
                    out.push_str("{\n");
                    for (i, (k, v)) in members.iter().enumerate() {
                        out.push_str(&pad);
                        emit_string(k, out);
                        out.push_str(": ");
                        block(v, depth + 1, out);
                        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push('}');
                }
                J::Arr(items) if depth < 3 && items.iter().any(|i| matches!(i, J::Obj(_))) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        block(item, depth + 1, out);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push(']');
                }
                other => other.emit_into(out),
            }
        }
        let mut out = String::new();
        block(self, 0, &mut out);
        out.push('\n');
        out
    }
}

/// The library's parser reads `\"` and `\\` escapes and takes every other
/// byte as one character, so control and non-ASCII characters (which a CPU
/// model string could in principle carry) become a space or `?` here.
fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c if !c.is_ascii() => out.push('?'),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
}

/// Metric name → value, in table order.
pub type Metrics = Vec<(&'static str, Value)>;

pub fn metrics_json(metrics: &Metrics) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|(name, v)| {
                (
                    name.to_string(),
                    J::obj([("value", J::Num(v.value)), ("unit", J::str(v.unit))]),
                )
            })
            .collect(),
    )
}

/// The last stdout line of a driver run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(attempted)),
        ("failed", J::Int(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .emit()
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// `(workload, metric) → value` of one result document.
type Values = BTreeMap<(String, String), f64>;

/// Reads either a suite document (`"workloads": [...]`) or a single
/// workload's.
pub fn read_values(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json_parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let root = doc
        .as_object()
        .ok_or_else(|| format!("{path}: not an object"))?;
    if root.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    let singles = match root.get("workloads").and_then(JsonValue::as_array) {
        Some(list) => list.iter().collect::<Vec<_>>(),
        None => vec![&doc],
    };
    let mut out = BTreeMap::new();
    for single in singles {
        let obj = single
            .as_object()
            .ok_or_else(|| format!("{path}: workload is not an object"))?;
        let workload = obj
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: workload without a name"))?;
        let metrics = obj
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("{path}: {workload} has no metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .as_object()
                .and_then(|e| e.get("value"))
                .and_then(as_f64)
                .ok_or_else(|| format!("{path}: {workload}.{name} has no numeric value"))?;
            out.insert((workload.to_string(), name.clone()), value);
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    WithinBound,
    Unresolved,
    /// No bound is fixed for the metric (per-layer metrics).
    NoBound,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "no-bound",
        }
    }
}

/// Judge side B against base A. `worse`: B's median is worse than A's by
/// more than `bound` × A's median. `unresolved`: not worse, but a side's
/// run-to-run spread is wider than the bound — unless every B run reads at
/// least as well as every A run.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::NoBound;
    };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        return Verdict::Worse;
    }
    let b_never_worse = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x <= y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x >= y)),
    };
    if (stats::spread(a) > bound || stats::spread(b) > bound) && !b_never_worse {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// `compare A.json[,A2.json,…] B.json[,B2.json,…]`: one row per (metric,
/// workload) with both medians, the ratio B/A (base A) and the verdict
/// against the bounds of `spec::END_TO_END`. Several files per side give
/// the side a run-to-run spread. Exit code 1 when any row is `worse`.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_files, b_files] = args else {
        return Err("usage: compare A.json[,A2.json…] B.json[,B2.json…]".into());
    };
    let load = |list: &str| -> Result<Vec<Values>, String> {
        list.split(',')
            .filter(|p| !p.is_empty())
            .map(read_values)
            .collect()
    };
    let (a_docs, b_docs) = (load(a_files)?, load(b_files)?);
    let side = |docs: &[Values], key: &(String, String)| -> Vec<f64> {
        docs.iter().filter_map(|d| d.get(key).copied()).collect()
    };
    let mut keys: Vec<&(String, String)> = a_docs.iter().flat_map(|d| d.keys()).collect();
    keys.sort();
    keys.dedup();

    println!(
        "{:<22} {:<28} {:>13} {:>13} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spreadA", "spreadB", "bound"
    );
    let mut any_worse = false;
    for key in keys {
        let (a, b) = (side(&a_docs, key), side(&b_docs, key));
        if b.is_empty() {
            println!("{:<22} {:<28} missing in B", key.0, key.1);
            continue;
        }
        let e2e = spec::end_to_end(&key.1);
        let layer = spec::PER_LAYER.iter().find(|m| m.name == key.1);
        let (better, bound) = match (e2e, layer) {
            (Some(m), _) => (m.better, m.bound),
            (None, Some(m)) => (m.better, None),
            (None, None) => (Better::Lower, None),
        };
        let verdict = judge(&a, &b, better, bound);
        any_worse |= verdict == Verdict::Worse;
        let (ma, mb) = (stats::median(&a), stats::median(&b));
        println!(
            "{:<22} {:<28} {:>13.6e} {:>13.6e} {:>9} {:>7.2}% {:>7.2}% {:>6}  {}",
            key.0,
            key.1,
            ma,
            mb,
            if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mb / ma)
            },
            100.0 * stats::spread(&a),
            100.0 * stats::spread(&b),
            bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            verdict.name()
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_documents_parse_back_through_the_library_parser() {
        let metrics: Metrics = vec![
            (
                "op_ms_p50",
                Value {
                    value: 1.203_456_789_012_3,
                    unit: "ms",
                },
            ),
            (
                "bodies_per_s",
                Value {
                    value: 1.5e7,
                    unit: "body.ops/s",
                },
            ),
            (
                "nan_becomes_zero",
                Value {
                    value: f64::NAN,
                    unit: "ratio",
                },
            ),
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = json_parse(&line).expect("parses");
        let root = doc.as_object().unwrap();
        assert_eq!(root["correct"].as_bool(), Some(true));
        assert_eq!(root["attempted"].as_u64(), Some(1000));
        assert_eq!(root["failed"].as_u64(), Some(0));
        let m = root["metrics"].as_object().unwrap();
        let p50 = m["op_ms_p50"].as_object().unwrap();
        assert_eq!(
            as_f64(&p50["value"]),
            Some(1.203_456_789_012_3),
            "all digits survive"
        );
        assert_eq!(p50["unit"].as_str(), Some("ms"));
        assert_eq!(
            as_f64(&m["nan_becomes_zero"].as_object().unwrap()["value"]),
            Some(0.0)
        );
        let mut keys: Vec<&str> = root.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn strings_are_escaped_for_the_library_parser() {
        let j = J::obj([("cpu \"model\"", J::str("a\\b\tc\u{1}d\u{e9}"))]);
        for text in [j.emit(), j.emit_pretty()] {
            let doc = json_parse(&text).expect("parses");
            assert_eq!(
                doc.as_object().unwrap()["cpu \"model\""].as_str(),
                Some("a\\b c d?")
            );
        }
    }

    #[test]
    fn pretty_form_parses_to_the_same_document() {
        let j = J::obj([
            ("schema", J::str(SCHEMA)),
            ("n", J::Int(3)),
            (
                "list",
                J::Arr(vec![J::obj([("x", J::Num(0.5))]), J::obj([("y", J::Null)])]),
            ),
            ("flat", J::Arr(vec![J::Int(1), J::Int(2)])),
            ("empty", J::obj::<String>([])),
        ]);
        assert_eq!(
            json_parse(&j.emit()).unwrap(),
            json_parse(&j.emit_pretty()).unwrap()
        );
    }

    #[test]
    fn verdicts() {
        let lower = Better::Lower;
        assert_eq!(
            judge(&[10.0], &[10.9], lower, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(judge(&[10.0], &[11.1], lower, Some(0.1)), Verdict::Worse);
        assert_eq!(
            judge(&[10.0], &[5.0], lower, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[10.0], &[8.9], Better::Higher, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Higher, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(judge(&[10.0], &[99.0], lower, None), Verdict::NoBound);
        // Spread wider than the bound, sides interleaved: unresolved.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0], &[9.0, 10.0, 11.0], lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Same spread, but every B run beats every A run: resolved.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0], &[5.0, 6.0, 7.0], lower, Some(0.1)),
            Verdict::WithinBound
        );
        // fail_frac: bound 0 — any failure is worse, none is within bound.
        assert_eq!(
            judge(&[0.0], &[0.0], lower, Some(0.0)),
            Verdict::WithinBound
        );
        assert_eq!(judge(&[0.0], &[0.01], lower, Some(0.0)), Verdict::Worse);
    }
}
