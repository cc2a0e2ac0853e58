//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! nbody-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (driver interface)
//! nbody-benchmark run     [--seed=1] [--smoke] [--out=PATH]                  all six, untraced, fixed op counts
//! nbody-benchmark trace   [--seed=1] [--smoke] [--out=PATH]                  all six, spans and layer probes on
//! nbody-benchmark compare A.json[,A2.json…] B.json[,B2.json…]                rows against the regression bounds
//! nbody-benchmark manifest                                                   print BENCHMARK.json
//! ```

mod host;
mod layers;
mod manifest;
mod report;
mod single;
mod spec;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--key value`, `--key=value` and bare `--flag` arguments.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    const BARE: [&str; 1] = ["smoke"];
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let body = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let (key, value) = match body.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None if BARE.contains(&body) => (body, "1".to_string()),
            None => (
                body,
                it.next()
                    .ok_or_else(|| format!("--{body} needs a value"))?
                    .clone(),
            ),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{key}: cannot read {v:?}"))
        })
        .transpose()
}

fn single(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let name = flags
        .get("workload")
        .ok_or("missing --workload (or a subcommand: run, trace, compare)")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let stop = match (
        number::<f64>(flags, "seconds")?,
        number::<u64>(flags, "ops")?,
    ) {
        (Some(s), None) if s > 0.0 => single::Stop::Seconds(s),
        (None, Some(n)) if n > 0 => single::Stop::Ops(n),
        _ => return Err("give exactly one of --seconds <s> or --ops <n>, positive".into()),
    };
    let options = single::Options {
        workload,
        seed: number(flags, "seed")?.unwrap_or(1),
        stop,
        trace: number::<u8>(flags, "trace")?.unwrap_or(0) != 0,
        smoke: flags.contains_key("smoke"),
    };
    let outcome = single::run(&options);
    single::print_outcome(&options, &outcome);
    let path = single::document_path(options.trace, workload.name);
    if let Err(e) = report::write_file(&path, &outcome.document.emit_pretty()) {
        eprintln!("warning: result document not written: {e}");
    }
    // The driver's contract: the last line of stdout is the result object,
    // holding the end-to-end metrics every workload has (untraced) or every
    // per-layer metric (traced).
    let contract: report::Metrics = outcome
        .metrics
        .iter()
        .filter(|(name, _)| options.trace || spec::CONTRACT_E2E.contains(name))
        .cloned()
        .collect();
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &contract
        )
    );
    Ok(outcome.correct)
}

fn suite(flags: &BTreeMap<String, String>, trace: bool) -> Result<bool, String> {
    suite::run_all(&suite::Options {
        seed: number(flags, "seed")?.unwrap_or(1),
        smoke: flags.contains_key("smoke"),
        trace,
        out: flags.get("out").map(Into::into),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &args[1..]),
        _ => ("", &args[..]),
    };
    let ok = match sub {
        "compare" => report::compare(rest).map(|any_worse| !any_worse),
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        "run" | "trace" => parse_flags(rest).and_then(|f| suite(&f, sub == "trace")),
        "" => parse_flags(rest).and_then(|f| single(&f)),
        other => Err(format!("unknown subcommand {other}")),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_accept_both_spellings() {
        let args: Vec<String> = ["--workload", "x", "--seed=7", "--smoke", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["workload"], "x");
        assert_eq!(number::<u64>(&f, "seed").unwrap(), Some(7));
        assert!(f.contains_key("smoke"));
        assert_eq!(number::<u8>(&f, "trace").unwrap(), Some(1));
        assert!(parse_flags(&["--seed".to_string()]).is_err());
        assert!(parse_flags(&["seed".to_string()]).is_err());
        assert!(number::<u64>(&parse_flags(&["--seed=x".to_string()]).unwrap(), "seed").is_err());
    }
}
