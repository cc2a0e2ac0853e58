//! `BENCHMARK.json`, generated from the tables in `spec.rs`.

use crate::report::J;
use crate::spec;

const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| J::Arr(items.iter().map(|s| J::str(*s)).collect());
    let metric = |m: &spec::Metric, bounded: bool| {
        let mut members = vec![
            ("name", J::str(m.name)),
            ("unit", J::str(m.unit)),
            ("better", J::str(m.better.name())),
        ];
        if bounded {
            members.push((
                "bound",
                J::Num(m.bound.expect("contract metrics are bounded")),
            ));
        }
        J::obj(members)
    };
    let doc = J::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", J::Int(spec::RUN_SECONDS)),
        (
            "workloads",
            J::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| J::obj([("name", J::str(w.name)), ("why", J::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            J::Arr(
                spec::CONTRACT_E2E
                    .iter()
                    .map(|n| metric(spec::end_to_end(n).expect("in the table"), true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            J::Arr(spec::PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    doc.emit_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::json_parse;

    #[test]
    fn manifest_parses_and_has_exactly_the_contract_keys() {
        let doc = json_parse(&benchmark_json()).expect("parses");
        let mut keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    /// `../BENCHMARK.json` is this output, committed. Skipped where the
    /// file is absent (a copy of the package alone).
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(
                json_parse(&committed).expect("committed file parses"),
                json_parse(&benchmark_json()).unwrap(),
                "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
            );
        }
    }
}
