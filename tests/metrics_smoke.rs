//! Telemetry smoke test (DESIGN.md § Observability).
//!
//! With the default `telemetry` feature on: drives short simulations through
//! `Simulation::step_into` and asserts that (a) the subsystem is compiled in,
//! (b) the expected counters, gauges and histograms actually advance for both
//! trees and both traversal modes, and (c) the emitted JSON snapshot
//! round-trips through the schema validator. The wiring assert catches
//! `telemetry` requested but `capture` no longer forwarded.
//!
//! Under `--no-default-features` recording is compiled out and the other test
//! runs instead: the same steps leave every metric at zero, and the snapshot
//! is still a well-formed document that says `"enabled": false`.
//!
//! The metric registry is process-global, so each configuration runs inside
//! ONE `#[test]` function — concurrent test threads would cross-pollute the
//! deltas after a `reset()`.

use stdpar_nbody::prelude::*;
use stdpar_nbody::telemetry::{self, json::validate_snapshot, metrics, MetricsSnapshot};

fn run_steps(kind: SolverKind, eval: ForceEval, steps: usize) {
    let state = galaxy_collision(1_200, 99);
    let opts = SimOptions { dt: 1e-3, softening: 1e-3, eval, ..SimOptions::default() };
    let mut sim = Simulation::new(state, kind, opts).expect("default policy supported");
    let mut ws = SimWorkspace::new();
    for _ in 0..steps {
        sim.step_into(&mut ws);
    }
}

#[cfg(not(feature = "telemetry"))]
#[test]
fn telemetry_off_emits_a_well_formed_disabled_snapshot() {
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(!telemetry::ENABLED, "`--no-default-features` must compile recording out");
    }
    run_steps(SolverKind::Bvh, ForceEval::Blocked { group: 32 }, 3);

    let snap = MetricsSnapshot::capture();
    assert!(!snap.enabled);
    assert_eq!(snap.counters.len(), metrics::N_COUNTERS, "a disabled snapshot keeps every key");
    for (name, value) in snap.counters.iter().chain(&snap.gauges) {
        assert_eq!(*value, 0, "{name} advanced with recording compiled out");
    }
    assert!(snap.histograms.iter().all(|h| h.count == 0));

    let json = snap.to_json();
    assert!(json.contains("\"enabled\": false"), "disabled snapshot must say so:\n{json}");
    validate_snapshot(&json).expect("disabled snapshot must satisfy the schema");
}

#[cfg(feature = "telemetry")]
#[test]
fn telemetry_records_and_snapshot_validates() {
    // `ENABLED` is const, but the assert is the point: fail the suite (not
    // the build) if the feature wiring ever stops forwarding `capture`.
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(
            telemetry::ENABLED,
            "root test builds must compile telemetry in (default `telemetry` feature)"
        );
    }
    metrics::reset();

    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for eval in [ForceEval::PerBody, ForceEval::Blocked { group: 32 }] {
            run_steps(kind, eval, 2);
        }
    }

    // Step pipeline: 2 trees x 2 traversal modes x 2 steps.
    assert_eq!(metrics::SIM_STEPS.get(), 8, "every step_into must count");
    assert!(metrics::SIM_FORCE_NANOS.get() > 0, "force phase time must accumulate");
    assert!(metrics::SIM_BUILD_NANOS.get() > 0, "build phase time must accumulate");

    // Tree builds and their high-water gauges.
    assert!(metrics::OCTREE_BUILDS.get() >= 4, "octree rebuilt each octree step");
    assert!(metrics::BVH_BUILDS.get() >= 4, "bvh rebuilt each bvh step");
    assert!(metrics::OCTREE_POOL_HIGH_WATER.get() > 0);
    assert!(metrics::BVH_NODES_HIGH_WATER.get() > 0);

    // MAC decisions fire in per-body AND blocked paths of both trees.
    assert!(metrics::OCTREE_MAC_ACCEPTS.get() > 0);
    assert!(metrics::OCTREE_MAC_OPENS.get() > 0);
    assert!(metrics::BVH_MAC_ACCEPTS.get() > 0);
    assert!(metrics::BVH_MAC_OPENS.get() > 0);

    // Blocked traversal interaction-list histograms.
    assert!(metrics::OCTREE_LIST_BODIES.count() > 0, "octree blocked groups recorded");
    assert!(metrics::BVH_LIST_BODIES.count() > 0, "bvh blocked groups recorded");

    // Executor counters: the default policy parallelises the force loop.
    assert!(metrics::STDPAR_PAR_REGIONS.get() > 0);
    assert!(metrics::STDPAR_CHUNKS_CLAIMED.get() > 0);
    assert!(metrics::STDPAR_GRAIN_SIZES.count() > 0);
    assert_eq!(metrics::STDPAR_PANICS_RECOVERED.get(), 0, "no panics in a clean run");

    // Snapshot: named lookups agree with the live registry, and the JSON
    // form passes the schema validator.
    let snap = MetricsSnapshot::capture();
    assert!(snap.enabled);
    assert_eq!(snap.counter("sim_steps"), Some(metrics::SIM_STEPS.get()));
    assert_eq!(
        snap.gauge("octree_pool_high_water"),
        Some(metrics::OCTREE_POOL_HIGH_WATER.get())
    );
    let json = snap.to_json();
    let doc = validate_snapshot(&json).expect("snapshot JSON must satisfy its own schema");
    let counters = doc.as_object().unwrap()["counters"].as_object().unwrap();
    assert_eq!(counters.len(), metrics::N_COUNTERS);
    assert_eq!(counters["sim_steps"].as_u64(), Some(8));

    // Histogram boundary buckets: record(0) and record(u64::MAX) must land
    // in well-defined, distinct buckets (0 in the zero bucket, u64::MAX in
    // the top [2^63, 2^64) bucket — not aliased onto [2^62, 2^63)), survive
    // a snapshot capture, and round-trip through the JSON validator.
    {
        use stdpar_nbody::telemetry::{bucket_index, HIST_BUCKETS};
        let hist = &metrics::STDPAR_GRAIN_SIZES;
        hist.reset();
        hist.record(0);
        hist.record(u64::MAX);
        hist.record(1 << 62);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_ne!(
            bucket_index(1 << 62),
            bucket_index(u64::MAX),
            "u64::MAX must not alias the [2^62, 2^63) bucket"
        );
        let b = hist.buckets();
        assert_eq!(b[0], 1, "record(0) lands in the zero bucket");
        assert_eq!(b[HIST_BUCKETS - 1], 1, "record(u64::MAX) lands in the top bucket");
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.sum(), u64::MAX, "sum saturates instead of wrapping");
        let snap = MetricsSnapshot::capture();
        let h = snap.histogram("stdpar_grain_sizes").expect("histogram present in snapshot");
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.len(), HIST_BUCKETS, "top bucket occupied: nothing trimmed");
        assert_eq!(*h.buckets.last().unwrap(), 1);
        let doc = validate_snapshot(&snap.to_json())
            .expect("boundary-bucket snapshot must round-trip the validator");
        let hists = doc.as_object().unwrap()["histograms"].as_object().unwrap();
        let grain = hists["stdpar_grain_sizes"].as_object().unwrap();
        assert_eq!(grain["count"].as_u64(), Some(3));
        assert_eq!(grain["sum"].as_u64(), Some(u64::MAX));
        hist.reset();
    }

    // Float emission (bugfix): the hand-rolled JSON emitters route every
    // f64 through `fmt_f64`, which clamps non-finite values (a raw
    // `{:.6}` interpolation of NaN/Inf used to produce documents the
    // parser itself rejects) and prints finite values in shortest
    // round-trip exponent form.
    {
        use stdpar_nbody::telemetry::json::{clamp_f64, fmt_f64, parse, Value};
        for (label, v, want) in [
            ("nan", f64::NAN, 0.0),
            ("+inf", f64::INFINITY, f64::MAX),
            ("-inf", f64::NEG_INFINITY, -f64::MAX),
            ("zero", 0.0, 0.0),
            ("subnormal-ish", -2.75e-9, -2.75e-9),
            ("max", f64::MAX, f64::MAX),
        ] {
            assert_eq!(clamp_f64(v).to_bits(), want.to_bits(), "{label}: clamp");
            let doc = format!("{{\"x\": {}}}", fmt_f64(v));
            let Ok(parsed) = parse(&doc) else {
                panic!("{label}: emitted document {doc:?} must parse");
            };
            let Value::Object(map) = parsed else { panic!("{label}: not an object") };
            let Value::Float(got) = map["x"] else { panic!("{label}: not a float") };
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: emitter/parser round trip");
            if !v.is_finite() {
                // The old behaviour for reference: interpolating the raw
                // value yields an unparseable document.
                assert!(parse(&format!("{{\"x\": {v}}}")).is_err(), "{label}: raw must fail");
            }
        }
    }

    // Panic path: a worker panic inside a parallel region is caught,
    // rethrown to the caller after the join, AND tallied. Force multiple
    // workers so the spawned (PanicCell) path runs even on 1-CPU hosts —
    // the inline single-worker path propagates panics directly by design.
    let recovered_before = metrics::STDPAR_PANICS_RECOVERED.get();
    let caught = std::panic::catch_unwind(|| {
        stdpar_nbody::stdpar::backend::with_threads(4, || {
            stdpar_nbody::stdpar::foreach::for_each_index(Par, 0..1_000, |i| {
                if i == 617 {
                    panic!("telemetry panic-path probe");
                }
            });
        });
    });
    assert!(caught.is_err(), "worker panic must propagate to the caller");
    assert!(
        metrics::STDPAR_PANICS_RECOVERED.get() > recovered_before,
        "recovered worker panic must be tallied"
    );
}
