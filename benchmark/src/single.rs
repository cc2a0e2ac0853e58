//! One workload, in this process: set-up, the timed closed loop, the output
//! checks, and — in a traced run — the layer probes. This is the driver
//! interface (`--workload … --seed … --seconds … --trace …`); the `run` and
//! `trace` subcommands start one such process per workload.

use crate::host;
use crate::layers::{self, Delta, Out, ProbeCtx};
use crate::report::{self, Metrics, Value, J};
use crate::spec::{self, Layer};
use crate::stats;
use crate::trace::Recorder;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// When the timed loop stops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stop {
    /// After the call during which this many seconds elapsed (driver runs).
    Seconds(f64),
    /// After exactly this many ops, so counts and trajectories repeat
    /// (`run` / `trace`).
    Ops(u64),
}

pub struct Options {
    pub workload: &'static spec::Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one run measured.
pub struct Outcome {
    /// Share of the machine's CPU time the hypervisor gave to others
    /// during the timed section.
    pub steal_frac: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's mode: end-to-end untraced, per-layer traced.
    pub metrics: Metrics,
    pub document: J,
}

pub fn mode_name(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "run"
    }
}

pub fn document_path(trace: bool, workload: &str) -> PathBuf {
    layers::out_dir().join(format!("result_{}_{workload}.json", mode_name(trace)))
}

/// Runs the closed loop until `stop`; returns (ops, failed, wall). Spans
/// are tagged with the call's index, counted from `first_call`; `marks`
/// receives (ops completed, nanoseconds elapsed) as each call returns.
fn timed_loop(
    w: &mut dyn layers::Workload,
    stop: Stop,
    first_call: u32,
    lat_ns: &mut Vec<u64>,
    marks: &mut Vec<(u64, u64)>,
    rec: &mut Recorder,
) -> (u64, u64, Duration) {
    let (cap, cycle) = (w.op_cap(), w.cycle_ops());
    let (mut ops, mut failed, mut calls) = (0u64, 0u64, 0u32);
    let start = Instant::now();
    loop {
        let done = match stop {
            Stop::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Stop::Ops(n) => ops >= n,
        };
        if (done && ops > 0 && ops % cycle == 0) || ops >= cap {
            break;
        }
        rec.set_op(first_call + calls);
        let call = w.call(lat_ns, rec);
        ops += call.ops;
        failed += call.failed;
        calls += 1;
        marks.push((ops, start.elapsed().as_nanos() as u64));
    }
    (ops, failed, start.elapsed())
}

pub fn run(o: &Options) -> Outcome {
    let spec = o.workload;
    let workers = host::nproc();
    layers::set_threads(workers);
    let mut rec = Recorder::new(o.trace);

    // Set-up, several times; the last instance is the one measured.
    let mut setups = Vec::with_capacity(spec::SETUP_REPS);
    let mut built = None;
    for _ in 0..spec::SETUP_REPS {
        drop(built.take());
        let span = rec.begin("setup", Layer::Bench);
        let t = Instant::now();
        built = Some(layers::build(spec, o.seed, o.smoke, workers));
        setups.push(t.elapsed().as_secs_f64());
        rec.end(span);
    }
    let mut w = built.expect("SETUP_REPS > 0");
    w.start_timed();
    let energy_0 = w.energy();

    // The timed section. Latencies land in a vector sized up front.
    let mut lat_ns: Vec<u64> = Vec::with_capacity(1 << 20);
    let mut marks: Vec<(u64, u64)> = Vec::with_capacity(1 << 20);
    let before = layers::snapshot();
    let allocs_before = layers::alloc_count();
    let ticks_before = host::cpu_ticks();
    let (ops, mut failed, wall) =
        timed_loop(w.as_mut(), o.stop, 0, &mut lat_ns, &mut marks, &mut rec);
    let ticks = host::cpu_ticks();
    let allocs = layers::alloc_count() - allocs_before;
    let delta = Delta::new(before, layers::snapshot());
    let steal_frac = (ticks.0 - ticks_before.0) as f64 / (ticks.1 - ticks_before.1).max(1) as f64;
    rec.set_op(u32::MAX);

    // Output checks: what the workload produced, and the counters that
    // must not have moved.
    let mut failures = Vec::new();
    if lat_ns.len() as u64 != ops {
        failures.push(format!("{} latencies for {ops} ops", lat_ns.len()));
    }
    let force_rel_err = rec.span("verify", Layer::Bench, || w.verify(&delta, &mut failures));
    for counter in [
        "resilient_fallbacks",
        "guard_rollbacks",
        "server_quarantines",
        "server_sessions_rejected",
    ] {
        if delta.counter(counter) != 0 {
            failures.push(format!("{counter} moved by {}", delta.counter(counter)));
        }
    }
    let energy_drift = match (energy_0, w.energy()) {
        (Some(e0), Some(e1)) => Some(((e1 - e0) / e0).abs()),
        _ => None,
    };
    if energy_drift.is_some_and(|d| !d.is_finite()) {
        failures.push("non-finite energy".into());
    }
    if !failures.is_empty() {
        // A failed whole-run check fails every op.
        failed = ops;
    } else if failed > 0 {
        failures.push(format!("{failed} of {ops} ops failed"));
    }
    let correct = failed == 0;

    // The quiet-block estimators: on a shared host other tenants only ever
    // add time, in bursts of seconds, so the blocks they disturbed least are
    // the best view of the program this run has. A slow-down in the program
    // slows every block, the quiet ones too.
    let bodies = w.bodies_per_op();
    let blocks = stats::blocks(&marks, w.cycle_ops());
    let block_p50_ms: Vec<f64> = blocks
        .iter()
        .filter_map(|b| lat_ns.get(b.ops.clone()))
        .map(|ops| {
            let mut ops = ops.to_vec();
            ops.sort_unstable();
            stats::percentile(&ops, 0.5) / 1e6
        })
        .collect();
    let block_rate: Vec<f64> = blocks
        .iter()
        .map(|b| bodies as f64 * b.ops.len() as f64 / (b.wall_ns.max(1) as f64 / 1e9))
        .collect();

    let mut sorted = lat_ns;
    sorted.sort_unstable();
    let op_ms = |p: f64| stats::percentile(&sorted, p) / 1e6;
    let whole_run_rate = bodies as f64 * ops as f64 / wall.as_secs_f64();
    let quiet = |per_block: &[f64], p: f64, whole_run: f64| {
        let mut sorted = per_block.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            whole_run
        } else {
            stats::percentile_of(&sorted, p)
        }
    };
    let mut e2e: Vec<(&'static str, f64)> = vec![
        ("setup_s", stats::median(&setups)),
        (
            "op_ms_p50",
            quiet(&block_p50_ms, stats::QUIET_PERCENTILE, op_ms(0.5)),
        ),
        ("op_ms_p90", op_ms(0.9)),
    ];
    if stats::percentile_resolved(sorted.len(), 0.99) {
        e2e.push(("op_ms_p99", op_ms(0.99)));
    }
    e2e.push((
        "bodies_per_s",
        quiet(&block_rate, 1.0 - stats::QUIET_PERCENTILE, whole_run_rate),
    ));
    e2e.push(("fail_frac", failed as f64 / ops.max(1) as f64));
    e2e.extend(force_rel_err.map(|v| ("force_rel_err", v)));
    e2e.extend(energy_drift.map(|v| ("energy_drift", v)));

    let mut notes: Vec<(&'static str, J)> = vec![
        ("timed_wall_s", J::Num(wall.as_secs_f64())),
        ("host_steal_frac", J::Num(steal_frac)),
        ("samples", J::Int(sorted.len() as u64)),
        ("op_ms_p50_all_ops", J::Num(op_ms(0.5))),
        ("bodies_per_s_whole_run", J::Num(whole_run_rate)),
        (
            "block_ops",
            J::Int(blocks.first().map_or(0, |b| b.ops.len() as u64)),
        ),
        (
            "block_op_ms_p50",
            J::Arr(block_p50_ms.iter().map(|v| J::Num(*v)).collect()),
        ),
        (
            "block_bodies_per_s",
            J::Arr(block_rate.iter().map(|v| J::Num(*v)).collect()),
        ),
        (
            "samples_beyond_p90",
            J::Int(stats::samples_beyond(sorted.len(), 0.9) as u64),
        ),
        (
            "p90_resolved",
            J::Bool(stats::percentile_resolved(sorted.len(), 0.9)),
        ),
        (
            "setup_s_each",
            J::Arr(setups.iter().map(|s| J::Num(*s)).collect()),
        ),
    ];

    let metrics: Metrics = if o.trace {
        let layer = traced_extras(
            o,
            w.as_mut(),
            &mut rec,
            &delta,
            &e2e,
            ops,
            allocs,
            wall,
            &mut notes,
        );
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    Value {
                        value: layer.get(m.name).copied().unwrap_or(0.0),
                        unit: m.unit,
                    },
                )
            })
            .collect()
    } else {
        // Peak RSS is read last, and only untraced: the probes of a traced
        // run allocate far more than the workload does.
        e2e.push(("peak_rss_mb", host::peak_rss_mb()));
        e2e.iter()
            .map(|(name, v)| {
                let m = spec::end_to_end(name).expect("end-to-end metric is in the table");
                (
                    m.name,
                    Value {
                        value: *v,
                        unit: m.unit,
                    },
                )
            })
            .collect()
    };

    let document = J::obj([
        ("schema", J::str(report::SCHEMA)),
        ("mode", J::str(mode_name(o.trace))),
        ("workload", J::str(spec.name)),
        ("why", J::str(spec.why)),
        ("seed", J::Int(o.seed)),
        ("smoke", J::Bool(o.smoke)),
        (
            "stop",
            match o.stop {
                Stop::Seconds(s) => J::obj([("seconds", J::Num(s))]),
                Stop::Ops(n) => J::obj([("ops", J::Int(n))]),
            },
        ),
        (
            "host",
            host::fingerprint(
                layers::simd_name(),
                layers::backend_name(),
                workers,
                &layers::features(),
            ),
        ),
        ("config", w.config()),
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(ops)),
        ("failed", J::Int(failed)),
        ("failures", J::Arr(failures.iter().map(J::str).collect())),
        ("notes", J::obj(notes)),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    Outcome {
        steal_frac,
        correct,
        attempted: ops,
        failed,
        metrics,
        document,
    }
}

/// The traced run's extras: untraced reference ops, counter metrics, host
/// and layer probes, and the trace file.
#[allow(clippy::too_many_arguments)] // one call site; the run's state, not a reusable interface
fn traced_extras(
    o: &Options,
    w: &mut dyn layers::Workload,
    rec: &mut Recorder,
    delta: &Delta,
    e2e: &[(&'static str, f64)],
    ops: u64,
    allocs: u64,
    wall: Duration,
    notes: &mut Vec<(&'static str, J)>,
) -> Out {
    let workers = host::nproc();
    let value = |name: &str| {
        e2e.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let traced_p50 = value("op_ms_p50");
    let mut out = Out::new();

    // Tracing overhead: six more blocks of ops, the recorder off and on in
    // turn, so that drift in machine speed hits both groups alike.
    let block = (ops / 30)
        .max(4)
        .min(w.op_cap().saturating_sub(ops) / 6)
        .max(1);
    let (mut untraced_ns, mut traced_ns) =
        (Vec::with_capacity(1 << 14), Vec::with_capacity(1 << 14));
    let mut next_call = u32::try_from(ops).unwrap_or(u32::MAX / 2);
    let mut marks = Vec::with_capacity(1 << 14);
    for b in 0..6 {
        let lat = if b % 2 == 0 {
            rec.pause();
            &mut untraced_ns
        } else {
            rec.resume();
            &mut traced_ns
        };
        let (done, _, _) = timed_loop(w, Stop::Ops(block), next_call, lat, &mut marks, rec);
        next_call += done as u32;
    }
    rec.set_op(u32::MAX);
    untraced_ns.sort_unstable();
    traced_ns.sort_unstable();
    out.insert(
        "trace.overhead_frac",
        stats::percentile(&traced_ns, 0.5) / stats::percentile(&untraced_ns, 0.5) - 1.0,
    );
    notes.push((
        "overhead_reference_ops_each",
        J::Int(untraced_ns.len() as u64),
    ));

    layers::count_metrics(delta, ops, workers, wall.as_nanos() as u64, &mut out);
    out.insert("sim.allocs_per_op", allocs as f64 / ops.max(1) as f64);
    out.insert("sim.force_rel_err", value("force_rel_err"));
    out.insert("sim.energy_drift", value("energy_drift"));
    out.insert("server.step_ms_p99", value("op_ms_p99"));
    out.insert("trace.op_ms_p90", value("op_ms_p90"));

    let peak = rec.span("fma_peak", Layer::Math, host::peak_gflops);
    out.insert("math.peak_gflops", peak);
    notes.extend(layers::host_probes(
        workers,
        host::llc_bytes(),
        host::mem_total_bytes(),
        o.smoke,
        rec,
        &mut out,
    ));
    let ctx = ProbeCtx {
        seed: o.seed,
        smoke: o.smoke,
        op_ms_p50: traced_p50,
        delta,
    };
    w.layer_metrics(&ctx, rec, &mut out);

    let ginter = out.get("math.kernel_simd_ginter_s").copied().unwrap_or(0.0);
    out.insert(
        "math.kernel_simd_peak_frac",
        ginter * spec::FLOPS_PER_INTERACTION / peak,
    );
    let interactions = out.get("math.interactions_per_op").copied().unwrap_or(0.0);
    out.insert(
        "math.kernel_ms_per_op_est",
        if ginter > 0.0 {
            interactions / (ginter * 1e9) / workers as f64 * 1e3
        } else {
            0.0
        },
    );
    out.insert(
        "trace.op_self_ms",
        rec.mean_self_ns(root_op_span(o.workload)) / 1e6,
    );
    out.insert("trace.spans", rec.spans().len() as f64);

    // Values the probes reported beside the table's metrics.
    for (name, v) in &out {
        if !spec::PER_LAYER.iter().any(|m| m.name == *name) {
            notes.push((*name, J::Num(*v)));
        }
    }
    notes.push((
        "flops_per_interaction_computed",
        J::Num(spec::FLOPS_PER_INTERACTION),
    ));
    notes.push(("spans_dropped", J::Int(rec.dropped())));

    let path = layers::out_dir().join(format!("trace_{}.json", o.workload.name));
    match report::write_file(&path, &rec.to_chrome(o.workload.name).emit()) {
        Ok(()) => notes.push(("trace_file", J::Str(path.display().to_string()))),
        Err(e) => eprintln!("warning: trace not written: {e}"),
    }
    out
}

/// Name of the span that wraps one call of the workload's closed loop.
fn root_op_span(w: &spec::Workload) -> &'static str {
    match w.shape {
        spec::Shape::Sim { .. } => "step_into",
        spec::Shape::Service { .. } => "tick",
        spec::Shape::Checkpoint => "checkpoint_cycle",
    }
}

/// Human-readable lines: every metric by name, with its unit.
pub fn print_outcome(o: &Options, out: &Outcome) {
    println!(
        "== {} ({}, seed {}, {:?}{}) ==",
        o.workload.name,
        mode_name(o.trace),
        o.seed,
        o.stop,
        if o.smoke { ", smoke" } else { "" }
    );
    for (name, v) in &out.metrics {
        let what = spec::END_TO_END
            .iter()
            .chain(&spec::PER_LAYER)
            .find(|m| m.name == *name)
            .map_or("", |m| m.what);
        println!("  {name:<32} {:>14.6e} {:<10} # {what}", v.value, v.unit);
    }
    if out.steal_frac > 0.05 {
        println!(
            "  note: the hypervisor ran other guests for {:.0}% of this machine's CPU time; timings are inflated",
            100.0 * out.steal_frac
        );
    }
    println!(
        "  {:<32} {:>14} ops, {} failed{}",
        "attempted",
        out.attempted,
        out.failed,
        if out.correct {
            ""
        } else {
            "  ** CHECKS FAILED **"
        }
    );
}
