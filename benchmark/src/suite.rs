//! The `run` and `trace` subcommands: every workload, one at a time, each
//! in its own child process (so peak RSS, the telemetry registry and the
//! allocator count belong to one workload), then one result document.

use crate::layers::json_parse;
use crate::report::{self, J};
use crate::single::{document_path, mode_name};
use crate::spec;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    pub trace: bool,
    /// Where the suite document goes (default `benchmark/out/suite_<mode>_seed<seed>.json`).
    pub out: Option<PathBuf>,
}

/// Runs all six workloads; `Ok(true)` when every one passed its checks.
pub fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut documents = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--ops", &w.ops(o.smoke).to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if o.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits until the child has ended. Its last stdout line is
        // the driver's result object; the lines before it are for people.
        let output = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        all_correct &= output.status.success();
        let path = document_path(o.trace, w.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json_parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        documents.push(text);
    }

    // The per-workload documents are already JSON text: splice them in.
    let head = J::obj([
        ("schema", J::str(report::SCHEMA)),
        ("mode", J::str(mode_name(o.trace))),
        ("seed", J::Int(o.seed)),
        ("smoke", J::Bool(o.smoke)),
        ("all_correct", J::Bool(all_correct)),
        ("wall_s", J::Num(started.elapsed().as_secs_f64())),
    ])
    .emit();
    let body: Vec<&str> = documents.iter().map(|d| d.trim_end()).collect();
    let text = format!(
        "{},\n\"workloads\": [\n{}\n]}}\n",
        head.strip_suffix('}').expect("an object ends in a brace"),
        body.join(",\n")
    );
    json_parse(&text).map_err(|e| format!("suite document does not parse: {e}"))?;
    let path = o.out.clone().unwrap_or_else(|| {
        crate::layers::out_dir().join(format!(
            "suite_{}{}_seed{}.json",
            mode_name(o.trace),
            if o.smoke { "_smoke" } else { "" },
            o.seed
        ))
    });
    report::write_file(&path, &text)?;
    println!(
        "\n{} workloads in {:.1} s, {}; document: {}",
        spec::WORKLOADS.len(),
        started.elapsed().as_secs_f64(),
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        path.display()
    );
    Ok(all_correct)
}
