//! What the benchmark measures: the workload table and the metric tables.
//!
//! Pure data, no library calls — `layers.rs` maps these plain enums onto
//! the library's types. `../BENCHMARK.json` is generated from this file
//! (`manifest` subcommand) and a unit test keeps the two in step.

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
/// 18 s gives every workload ≥ 200 ops on the reference host — 16 blocks of
/// a second each for the quiet-block estimators — and is as long as the
/// driver's time budget for 4 + 22 × 6 runs allows with a margin.
pub const RUN_SECONDS: u64 = 18;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// `--smoke` divides body counts and fixed op counts by this.
pub const SMOKE_DIV: usize = 16;

/// Run check: mean relative acceleration error against the direct sum.
pub const FORCE_REL_ERR_MAX: f64 = 5e-3;

/// Bodies sampled (evenly strided) for `force_rel_err`. The relative error
/// is heavy-tailed (a body whose exact acceleration nearly cancels), so the
/// mean needs thousands of bodies to sit reliably inside the 5e-3 check.
pub const FORCE_SAMPLES: usize = 4096;

/// Flops per pair interaction (3 sub, 3 fma for r², rsqrt ≈ 4, 3 mul for
/// m/r³, 3 fma accumulate — the GPU Gems 3 ch. 31 convention). A stated
/// constant: `math.kernel_simd_peak_frac` is computed from it, not counted.
pub const FLOPS_PER_INTERACTION: f64 = 20.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Stdpar,
    Math,
    Bvh,
    Octree,
    Sim,
    Server,
    Telemetry,
    /// The benchmark's own code (spans measured here, probes, checks).
    Bench,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stdpar => "stdpar",
            Layer::Math => "math",
            Layer::Bvh => "bvh",
            Layer::Octree => "octree",
            Layer::Sim => "sim",
            Layer::Server => "server",
            Layer::Telemetry => "telemetry",
            Layer::Bench => "benchmark",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    GalaxyCollision,
    Plummer,
    SpinningDisk,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tree {
    Bvh,
    Octree,
}

/// How a sim workload executes a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Execution {
    /// Rebuild the tree every step, barrier-separated phases (the paper's
    /// configuration).
    RebuildBarrier,
    /// `Incremental { max_stale_steps: 3 }` lifecycle, one task graph per step.
    IncrementalDag,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Op = one `Simulation::step_into`.
    Sim {
        generator: Generator,
        tree: Tree,
        execution: Execution,
        energy: bool,
    },
    /// Op = one session step inside `SessionManager::tick`.
    Service {
        sessions: usize,
        steps_per_tick: u32,
        lifetime_steps: u64,
    },
    /// Op = ring record → atomic save → load → bitwise compare.
    Checkpoint,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer does the most work here, which the least.
    pub why: &'static str,
    /// Bodies (per session for the service).
    pub n: usize,
    /// Warm-up ops, part of set-up.
    pub warmup_ops: u64,
    /// Timed ops of the fixed-count mode (`run` / `trace` subcommands).
    pub fixed_ops: u64,
    pub shape: Shape,
}

impl Workload {
    pub fn bodies(&self, smoke: bool) -> usize {
        if smoke {
            // Below ~2k bodies the stale-tree steps miss the accuracy check at theta = 0.5.
            (self.n / SMOKE_DIV).max(self.n.min(2048))
        } else {
            self.n
        }
    }

    pub fn ops(&self, smoke: bool) -> u64 {
        if smoke {
            (self.fixed_ops / SMOKE_DIV as u64).max(5)
        } else {
            self.fixed_ops
        }
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "galaxy_bvh_16k",
        why: "force-bound: BVH group walk + SIMD list kernel do ~0.92 of the step; build and stdpar launches almost none",
        n: 16_384,
        warmup_ops: 3,
        fixed_ops: 100,
        shape: Shape::Sim {
            generator: Generator::GalaxyCollision,
            tree: Tree::Bvh,
            execution: Execution::RebuildBarrier,
            energy: false,
        },
    },
    Workload {
        name: "plummer_octree_16k",
        why: "the other tree on a concentrated mass: deep octree, contended lock-bit inserts; a bvh-only change must not move it",
        n: 16_384,
        warmup_ops: 3,
        fixed_ops: 100,
        shape: Shape::Sim {
            generator: Generator::Plummer,
            tree: Tree::Octree,
            execution: Execution::RebuildBarrier,
            energy: false,
        },
    },
    Workload {
        name: "disk_bvh_4k_barrier",
        why: "small N: 32 region launches plus a full sort, build and moments every step are a third of it; the kernel does least",
        n: 4_096,
        warmup_ops: 20,
        fixed_ops: 1000,
        shape: Shape::Sim {
            generator: Generator::SpinningDisk,
            tree: Tree::Bvh,
            execution: Execution::RebuildBarrier,
            energy: true,
        },
    },
    Workload {
        name: "disk_bvh_4k_dag",
        why: "same state, one task graph per step, lazy re-sort and stale-tree serving: moves apart from the barrier twin",
        n: 4_096,
        warmup_ops: 20,
        fixed_ops: 1000,
        shape: Shape::Sim {
            generator: Generator::SpinningDisk,
            tree: Tree::Bvh,
            execution: Execution::IncrementalDag,
            energy: true,
        },
    },
    Workload {
        name: "service_64x1k",
        why: "64 small tenants: per-body scalar walk (no SIMD path), one 128-node graph per tick, health check, ring, admission churn",
        n: 1_000,
        warmup_ops: 128,
        fixed_ops: 2_048,
        shape: Shape::Service { sessions: 64, steps_per_tick: 2, lifetime_steps: 16 },
    },
    Workload {
        name: "checkpoint_200k",
        why: "no force evaluation: NBSNAP02 encode, CRC-32, fsync + rename, decode and digest sealing; tree/kernel changes bypass it",
        n: 200_000,
        warmup_ops: 5,
        fixed_ops: 150,
        shape: Shape::Checkpoint,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Definition; for a per-layer metric also what it should move.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics the `run` subcommand prints. A metric that does
/// not apply to a workload is omitted there.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25, "generate inputs + construct + warm-up ops (median of 3 set-ups)"),
    e2e("op_ms_p50", "ms", Lower, 0.25, "median wall time of one op in a quiet block: first quartile of the medians of the run's 16 consecutive blocks (the fourth lowest)"),
    e2e("op_ms_p90", "ms", Lower, 0.25, "90th percentile of one op over the whole run (>= 10 samples beyond at >= 100 ops); host bursts land here"),
    e2e("op_ms_p99", "ms", Lower, 0.25, "99th percentile, where >= 1000 ops ran (always on service_64x1k)"),
    e2e("bodies_per_s", "body.ops/s", Higher, 0.25, "N x ops / wall time, between-op time included, of a quiet block: third quartile of the 16 block rates"),
    e2e("fail_frac", "fraction", Lower, 0.0, "failed / attempted ops; a failed whole-run check fails every op"),
    e2e("force_rel_err", "ratio", Lower, 0.10, "mean relative acceleration error vs direct sum, 4096 strided bodies (16 sessions' bodies for the service); not on checkpoint_200k"),
    e2e("energy_drift", "ratio", Lower, 0.25, "|E_end - E_0| / |E_0|, exact potential; the two 4k workloads only"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "VmHWM of the workload's own process"),
];

/// The end-to-end metrics every workload yields, that are never 0 and that
/// repeat within their bound on a shared host — the `end_to_end` list of
/// `BENCHMARK.json` and of a `--trace 0` driver run. The other five are
/// reported by `run` where they apply, and as `trace.op_ms_p90`,
/// `server.step_ms_p99`, `sim.force_rel_err`, `sim.energy_drift` and the
/// `attempted`/`failed` keys in driver runs. (`op_ms_p90` spread 30% between
/// runs of the same code on the driver's host: the tail of a 2-thread step
/// on 2 shared cores is the host's, so it moved to the per-layer list.)
pub const CONTRACT_E2E: [&str; 4] = ["setup_s", "op_ms_p50", "bodies_per_s", "peak_rss_mb"];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics of a traced run. Sources: *probe* = the benchmark
/// times the layer's public function on the workload's final state;
/// *count* = telemetry counter delta over the timed ops; *returned* = a
/// value the public API hands back; `_est` = derived, not timed.
pub const PER_LAYER: [Metric; 82] = [
    // ---- stdpar ---------------------------------------------------------
    layer("stdpar.triad_par_gbs", "GB/s", Higher, "probe: a=b+3c over for_each_chunk(Par), 3 arrays; ceiling for sort/build/update, moves nothing itself"),
    layer("stdpar.triad_seq_gbs", "GB/s", Higher, "probe: same under Seq (the single-thread baseline)"),
    layer("stdpar.region_launch_us", "us", Lower, "probe: empty parallel region, launch + join; x regions_per_op -> op_ms_p50 on disk_bvh_4k_barrier"),
    layer("stdpar.allocs_per_region", "count", Lower, "probe: allocation events of one empty region (the scoped threads it spawns); x regions_per_op -> sim.allocs_per_op"),
    layer("stdpar.regions_per_op", "count/op", Lower, "count: STDPAR_PAR_REGIONS"),
    layer("stdpar.chunks_per_op", "count/op", Lower, "count: STDPAR_CHUNKS_CLAIMED"),
    layer("stdpar.sort_mkeys_s", "Mkeys/s", Higher, "probe: sort_unstable_by(Par) of 1M (key, id) pairs -> bvh.sort_ms"),
    layer("stdpar.dag_node_us", "us", Lower, "probe: 4096 empty nodes in nproc chains -> disk_bvh_4k_dag, service_64x1k"),
    layer("stdpar.dag_nodes_per_op", "count/op", Lower, "count: STDPAR_DAG_NODES"),
    layer("stdpar.dag_steals_per_op", "count/op", Lower, "count: STDPAR_DAG_STEALS"),
    layer("stdpar.worker_busy_frac", "fraction", Higher, "count: sum WORKER_BUSY_NANOS / (workers x wall) -> bodies_per_s wherever parallel"),
    layer("stdpar.par_speedup", "ratio", Higher, "probe: op_ms_p50 at 1 thread (10 ops) / at nproc; a ratio, so not end-to-end"),
    // ---- math -----------------------------------------------------------
    layer("math.peak_gflops", "GFLOP/s", Higher, "probe: AVX2 FMA peak, one thread, same run"),
    layer("math.kernel_simd_ginter_s", "Ginter/s", Higher, "probe: InteractionLists::eval_group on the workload's mean list shape, one thread -> op_ms_p50 on the 16k and 4k workloads"),
    layer("math.kernel_simd_peak_frac", "fraction", Higher, "computed: ginter_s x 20 flops / peak_gflops"),
    layer("math.kernel_scalar_ginter_s", "Ginter/s", Higher, "probe: InteractionLists::eval_at on the same lists"),
    layer("math.pair_accel_ginter_s", "Ginter/s", Higher, "probe: direct_accel (pair_accel loop, the per-body path primitive) -> service_64x1k only"),
    layer("math.simd_lane_util", "fraction", Higher, "count: SIMD_ACTIVE_LANES / SIMD_LANE_SLOTS"),
    layer("math.interactions_per_op", "count/op", Lower, "count: group x SIMD_ACTIVE_LANES; exact on BVH workloads"),
    layer("math.kernel_ms_per_op_est", "ms", Lower, "est: interactions_per_op / kernel_simd_ginter_s / workers"),
    layer("math.hilbert_mkeys_s", "Mkeys/s", Higher, "probe: HilbertGrid::key_of, one thread -> bvh.sort_ms"),
    layer("math.crc32_mbs", "MB/s", Higher, "probe: crc32 over 16 MiB -> checkpoint_200k only"),
    // ---- bvh ------------------------------------------------------------
    layer("bvh.sort_ms", "ms", Lower, "probe: try_hilbert_sort_with -> disk_bvh_4k_barrier"),
    layer("bvh.resort_ms", "ms", Lower, "probe: try_hilbert_resort_with after one drift -> disk_bvh_4k_dag"),
    layer("bvh.build_ms", "ms", Lower, "probe: build_structure -> disk_bvh_4k_barrier"),
    layer("bvh.moments_ms", "ms", Lower, "probe: accumulate_moments -> disk_bvh_4k_barrier"),
    layer("bvh.force_ms", "ms", Lower, "probe: compute_forces_with -> galaxy_bvh_16k"),
    layer("bvh.walk_ms_est", "ms", Lower, "est: force_ms - kernel estimate of the same call -> galaxy_bvh_16k"),
    layer("bvh.mac_opens_per_op", "count/op", Lower, "count: BVH_MAC_OPENS"),
    layer("bvh.mac_accepts_per_op", "count/op", Lower, "count: BVH_MAC_ACCEPTS"),
    layer("bvh.mac_accept_frac", "fraction", Higher, "count: accepts / (accepts + opens)"),
    layer("bvh.list_bodies_mean", "count", Lower, "count: BVH_LIST_BODIES mean"),
    layer("bvh.list_nodes_mean", "count", Lower, "count: BVH_LIST_NODES mean"),
    layer("bvh.lazy_resort_frac", "fraction", Higher, "count: lazy / (lazy + full) re-sorts -> disk_bvh_4k_dag"),
    // ---- octree ---------------------------------------------------------
    layer("octree.build_ms", "ms", Lower, "probe: Octree::build -> plummer_octree_16k only"),
    layer("octree.multipole_ms", "ms", Lower, "probe: compute_multipoles"),
    layer("octree.force_ms", "ms", Lower, "probe: compute_forces_with"),
    layer("octree.walk_ms_est", "ms", Lower, "est: force_ms - kernel estimate of the same call"),
    layer("octree.build_retries_per_op", "count/op", Lower, "count: OCTREE_BUILD_RETRIES"),
    layer("octree.lock_cas_retries_per_op", "count/op", Lower, "count: OCTREE_LOCK_CAS_RETRIES, wasted work of the concurrent build"),
    layer("octree.spin_iters_per_op", "count/op", Lower, "count: OCTREE_SPIN_ITERS"),
    layer("octree.mac_opens_per_op", "count/op", Lower, "count: OCTREE_MAC_OPENS"),
    layer("octree.mac_accepts_per_op", "count/op", Lower, "count: OCTREE_MAC_ACCEPTS"),
    layer("octree.mac_accept_frac", "fraction", Higher, "count: accepts / (accepts + opens)"),
    layer("octree.list_bodies_mean", "count", Lower, "count: OCTREE_LIST_BODIES mean"),
    layer("octree.list_nodes_mean", "count", Lower, "count: OCTREE_LIST_NODES mean"),
    layer("octree.nodes_allocated", "count", Lower, "returned: BuildStats::allocated_nodes of the probe build"),
    // ---- sim ------------------------------------------------------------
    layer("sim.bbox_ms", "ms", Lower, "probe: SystemState::bounding_box"),
    layer("sim.solver_ms", "ms", Lower, "probe: ForceSolver::try_compute_into (whole pipeline, fresh tree)"),
    layer("sim.update_ms", "ms", Lower, "returned: StepTimings::update mean"),
    layer("sim.force_share", "fraction", Higher, "returned: force / total of StepTimings; >= 0.9 on the 16k pair"),
    layer("sim.nonforce_ms", "ms", Lower, "returned: (total - force) mean, busy / workers under the task graph"),
    layer("sim.tree_reuse_frac", "fraction", Higher, "count: TREE_REUSE_STEPS / ops"),
    layer("sim.health_check_ms", "ms", Lower, "probe: HealthMonitor::check -> service_64x1k"),
    layer("sim.guard_overhead_frac", "fraction", Lower, "probe: GuardedSimulation::step_into vs plain, 4k disk, 50 steps each"),
    layer("sim.ring_record_ms", "ms", Lower, "probe: CheckpointRing::record -> service_64x1k, checkpoint_200k"),
    layer("sim.ring_restore_ms", "ms", Lower, "probe: CheckpointRing::restore"),
    layer("sim.snapshot_encode_mbs", "MB/s", Higher, "probe: io::write_binary to memory -> checkpoint_200k"),
    layer("sim.snapshot_decode_mbs", "MB/s", Higher, "probe: io::try_read_binary from memory -> checkpoint_200k"),
    layer("sim.snapshot_bytes", "bytes", Lower, "returned: encoded snapshot length"),
    layer("sim.save_atomic_ms", "ms", Lower, "probe: io::save_atomic (encode + fsync + rename) -> checkpoint_200k"),
    layer("sim.load_ms", "ms", Lower, "probe: io::try_load -> checkpoint_200k"),
    layer("sim.allocs_per_op", "count/op", Lower, "count: counting-allocator events over the timed ops, thread spawns of the executor included (0 at one thread: see the notes)"),
    layer("sim.solver_fallbacks", "count", Lower, "count: RESILIENT_FALLBACKS; must be 0"),
    layer("sim.guard_rollbacks", "count", Lower, "count: GUARD_ROLLBACKS; must be 0"),
    layer("sim.force_rel_err", "ratio", Lower, "the run's force_rel_err (0 where it does not apply)"),
    layer("sim.energy_drift", "ratio", Lower, "the run's energy_drift (0 where it does not apply)"),
    // ---- server ---------------------------------------------------------
    layer("server.tick_ms_p50", "ms", Lower, "returned: TickReport::wall median -> service_64x1k"),
    layer("server.steps_per_tick", "count", Higher, "returned: TickReport::steps mean"),
    layer("server.tick_overhead_frac", "fraction", Lower, "1 - sum session busy-ns / (workers x sum tick wall) -> bodies_per_s"),
    layer("server.admit_us_p50", "us", Lower, "benchmark-timed SessionManager::admit (incl. input generation)"),
    layer("server.close_us_p50", "us", Lower, "benchmark-timed SessionManager::close"),
    layer("server.fairness_jain", "ratio", Higher, "Jain index of steps per tick alive over closed sessions"),
    layer("server.rejected_frac", "fraction", Lower, "count: rejected / (admitted + rejected)"),
    layer("server.quarantines", "count", Lower, "count: SERVER_QUARANTINES; must be 0"),
    layer("server.per_session_ratio", "ratio", Higher, "probe: session-steps/s Batched / PerSession, 8 sessions x 8 ticks"),
    layer("server.step_ms_p99", "ms", Lower, "the run's op_ms_p99 (tick imbalance shows here)"),
    // ---- telemetry / trace ---------------------------------------------
    layer("telemetry.capture_us", "us", Lower, "probe: MetricsSnapshot::capture + to_json"),
    layer("trace.spans", "count", Lower, "spans recorded by the benchmark in this run"),
    layer("trace.overhead_frac", "fraction", Lower, "traced / untraced op_ms_p50 - 1 over six blocks of further ops, recorder off and on in turn; reported, never subtracted"),
    layer("trace.op_ms_p90", "ms", Lower, "the traced run's op_ms_p90 over all its ops: the program's tail plus the host's bursts"),
    layer("trace.op_self_ms", "ms", Lower, "mean op span self time: what no returned phase accounts for (scheduling, joins, idle)"),
];

/// Names use letters, digits, `_`, `.` and `-`, start with a letter or digit
/// and are at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units use letters, digits, `_`, `/`, `%`, `.` and `-` and are at most 16 long.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_unit("body·ops/s") && valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn contract_metrics_are_bounded_and_include_setup() {
        for name in CONTRACT_E2E {
            let m = end_to_end(name).expect(name);
            let b = m.bound.expect("bounded");
            assert!(b > 0.0 && b <= 0.25, "{name} bound {b}");
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = CONTRACT_E2E
            .iter()
            .map(|n| end_to_end(n).unwrap().bound.unwrap());
        assert_eq!(largest.fold(0.0, f64::max), setup.bound.unwrap());
    }

    #[test]
    fn sim_bodies_are_multiples_of_64_so_interaction_counts_are_exact() {
        for w in &WORKLOADS {
            if matches!(w.shape, Shape::Sim { .. }) {
                assert_eq!(w.bodies(false) % 64, 0, "{}", w.name);
                assert_eq!(w.bodies(true) % 64, 0, "{}", w.name);
            }
        }
    }
}
