//! Every call into the measured library lives in this file: building the
//! workloads, running their ops, checking what they produced, reading the
//! telemetry counters, and the per-layer probes. A later change to a
//! library API touches this benchmark file only.
//!
//! The benchmark measures from outside: public functions and public
//! telemetry counters, nothing else.

use crate::report::J;
use crate::spec::{self, Execution, Generator, Layer, Shape, Tree};
use crate::stats;
use crate::trace::Recorder;
use bh_bvh::{Bvh, BvhParams, BvhScratch};
use bh_octree::{Octree, TraversalScratch};
use nbody_math::gravity::{
    direct_accel, ForceEval, ForceKernel, ForceParams, KernelPrecision, TreeLifecycle,
};
use nbody_math::hilbert::HilbertGrid;
use nbody_math::{Aabb, InteractionLists, KernelScratch, KernelStats, SplitMix64};
use nbody_server::{
    CostModel, SchedulerConfig, SessionConfig, SessionId, SessionManager, TickMode,
};
use nbody_sim::io;
use nbody_sim::prelude::*;
use nbody_sim::IntegratorKind;
use nbody_telemetry::{metrics, MetricsSnapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stdpar::backend;
use stdpar::prelude::{
    for_each_index, generate, sort_unstable_by, transform_reduce, Par, ParUnseq, Seq, TaskGraph,
};

pub use nbody_telemetry::json::Value as JsonValue;

// ---- JSON, environment -----------------------------------------------------

/// A JSON number token with every digit of `v` (non-finite values clamp).
pub fn json_number(v: f64) -> String {
    nbody_telemetry::json::fmt_f64(v)
}

pub fn json_parse(text: &str) -> Result<JsonValue, String> {
    nbody_telemetry::json::parse(text).map_err(|e| e.to_string())
}

/// Use `n` worker threads on the shipped default backend.
pub fn set_threads(n: usize) {
    backend::set_threads(n);
}

pub fn backend_name() -> &'static str {
    backend::current_backend().name()
}

pub fn simd_name() -> &'static str {
    nbody_math::simd::simd_level().name()
}

/// Cargo features of the library build under test.
pub fn features() -> Vec<&'static str> {
    let mut f = vec!["counting-allocator"];
    if nbody_telemetry::ENABLED {
        f.push("telemetry-capture");
    }
    f
}

// Counts allocation events for `sim.allocs_per_op` and the library's own
// per-phase allocation columns: one relaxed increment per allocation.
#[global_allocator]
static ALLOC: stdpar::alloc_stats::CountingAlloc = stdpar::alloc_stats::CountingAlloc;

/// Allocation events so far, as the counting allocator above saw them.
pub fn alloc_count() -> u64 {
    stdpar::alloc_stats::allocation_count()
}

/// Where checkpoints, traces and result documents go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---- telemetry deltas ------------------------------------------------------

/// Telemetry registry before and after the timed ops.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot::capture()
}

impl Delta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Self {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| {
            s.counter(name)
                .unwrap_or_else(|| panic!("no counter {name}"))
        };
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// Mean sample of a histogram over the window (0 without samples).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| {
            let h = s
                .histogram(name)
                .unwrap_or_else(|| panic!("no histogram {name}"));
            (h.sum, h.count)
        };
        let ((s1, c1), (s0, c0)) = (get(&self.after), get(&self.before));
        if c1 > c0 {
            (s1 - s0) as f64 / (c1 - c0) as f64
        } else {
            0.0
        }
    }

    fn busy_ns(&self) -> u64 {
        let sum = |s: &MetricsSnapshot| s.worker_busy_ns.iter().sum::<u64>();
        sum(&self.after).saturating_sub(sum(&self.before))
    }

    /// Counters that prove the force path was bypassed when they stand still.
    pub fn force_path_counters(&self) -> Vec<(&'static str, u64)> {
        self.after
            .counters
            .iter()
            .filter(|(name, _)| name.contains("_mac_") || name.starts_with("simd_"))
            .map(|(name, _)| (*name, self.counter(name)))
            .collect()
    }
}

// ---- options, spelled out --------------------------------------------------

const THETA: f64 = 0.5;
const SOFTENING: f64 = 1e-3;
const DT: f64 = 1e-3;
const G: f64 = 1.0;

/// Options of the sim workloads, every field spelled out so that a later
/// change of `SimOptions::default()` does not change what is measured.
fn sim_options(tree: Tree, execution: Execution) -> (SolverKind, SimOptions) {
    let (kind, policy) = match tree {
        Tree::Bvh => (SolverKind::Bvh, DynPolicy::ParUnseq),
        // The lock-bit insert needs parallel forward progress.
        Tree::Octree => (SolverKind::Octree, DynPolicy::Par),
    };
    let (lifecycle, stepping) = match execution {
        Execution::RebuildBarrier => (TreeLifecycle::Rebuild, Stepping::Barrier),
        Execution::IncrementalDag => (
            TreeLifecycle::Incremental { max_stale_steps: 3 },
            Stepping::TaskGraph,
        ),
    };
    let opts = SimOptions {
        dt: DT,
        theta: THETA,
        softening: SOFTENING,
        g: G,
        policy,
        tree_rebuild_every: 1,
        quadrupole: false,
        eval: ForceEval::Blocked { group: 0 },
        kernel: ForceKernel::Simd,
        precision: KernelPrecision::F64,
        hilbert_bits: 16,
        integrator: IntegratorKind::LeapfrogKdk,
        lifecycle,
        stepping,
    };
    (kind, opts)
}

/// Options of a service session: the values of `SessionConfig::default()`
/// (BVH, per-body traversal, scalar kernel), spelled out. `Batched` ticks
/// normalise `policy` to `Seq`; `PerSession` ticks honour it.
fn session_config() -> SessionConfig {
    SessionConfig {
        kind: SolverKind::Bvh,
        opts: SimOptions {
            dt: DT,
            theta: THETA,
            softening: SOFTENING,
            g: G,
            policy: DynPolicy::Par,
            tree_rebuild_every: 1,
            quadrupole: false,
            eval: ForceEval::PerBody,
            kernel: ForceKernel::Scalar,
            precision: KernelPrecision::F64,
            hilbert_bits: 16,
            integrator: IntegratorKind::LeapfrogKdk,
            lifecycle: TreeLifecycle::Rebuild,
            stepping: Stepping::Barrier,
        },
        ring_capacity: 2,
        checkpoint_every: 8,
        weight: 1,
        health: HealthConfig::default(),
    }
}

fn solver_params(o: &SimOptions) -> SolverParams {
    SolverParams {
        theta: o.theta,
        softening: o.softening,
        g: o.g,
        quadrupole: o.quadrupole,
        eval: o.eval,
        kernel: o.kernel,
        precision: o.precision,
        hilbert_bits: o.hilbert_bits,
        lifecycle: o.lifecycle,
        stepping: o.stepping,
    }
}

fn force_params(o: &SimOptions) -> ForceParams {
    ForceParams {
        theta: o.theta,
        softening: o.softening,
        g: o.g,
        use_quadrupole: o.quadrupole,
        eval: o.eval,
        kernel: o.kernel,
        precision: o.precision,
        lifecycle: TreeLifecycle::Rebuild,
        mac_pad: 0.0,
    }
}

fn options_json(kind: SolverKind, o: &SimOptions) -> J {
    J::obj([
        ("solver", J::str(kind.name())),
        ("dt", J::Num(o.dt)),
        ("theta", J::Num(o.theta)),
        ("softening", J::Num(o.softening)),
        ("g", J::Num(o.g)),
        ("policy", J::str(o.policy.name())),
        ("tree_rebuild_every", J::Int(o.tree_rebuild_every as u64)),
        ("quadrupole", J::Bool(o.quadrupole)),
        ("eval", J::Str(format!("{:?}", o.eval))),
        ("kernel", J::str(o.kernel.name())),
        ("precision", J::str(o.precision.name())),
        ("hilbert_bits", J::Int(o.hilbert_bits as u64)),
        ("integrator", J::str(o.integrator.name())),
        ("lifecycle", J::Str(format!("{:?}", o.lifecycle))),
        ("stepping", J::Str(format!("{:?}", o.stepping))),
    ])
}

fn generate_state(generator: Generator, n: usize, seed: u64) -> SystemState {
    match generator {
        Generator::GalaxyCollision => galaxy_collision(n, seed),
        Generator::Plummer => plummer(n, seed),
        Generator::SpinningDisk => spinning_disk(n, seed),
    }
}

// ---- the workload interface ------------------------------------------------

/// What one closed-loop call did: ops completed and ops failed.
pub struct Call {
    pub ops: u64,
    pub failed: u64,
}

/// Per-layer metric name → value.
pub type Out = BTreeMap<&'static str, f64>;

/// What a workload's probes need to know about the run.
pub struct ProbeCtx<'a> {
    pub seed: u64,
    pub smoke: bool,
    /// Traced `op_ms_p50` of this run.
    pub op_ms_p50: f64,
    pub delta: &'a Delta,
}

pub trait Workload {
    fn bodies_per_op(&self) -> usize;
    /// The fully resolved configuration this workload runs with.
    fn config(&self) -> J;
    /// Most ops one run may time (the library's latency window, for the service).
    fn op_cap(&self) -> u64 {
        u64::MAX
    }
    /// Ops per cycle of the workload; the timed loop stops on whole cycles
    /// so that every run times the same mix of ops and ends in the same
    /// state of the cycle (the stale-tree lifecycle: 1 refresh + 3 stale).
    fn cycle_ops(&self) -> u64 {
        1
    }
    /// Warm-up is over: forget what the warm-up ops accumulated.
    fn start_timed(&mut self) {}
    /// One call of the closed loop; appends one latency per completed op.
    fn call(&mut self, lat_ns: &mut Vec<u64>, rec: &mut Recorder) -> Call;
    /// Exact total energy, where the workload reports `energy_drift`.
    fn energy(&self) -> Option<f64> {
        None
    }
    /// Whole-run output checks. Pushes one line per violated check and
    /// returns `force_rel_err` where it applies.
    fn verify(&mut self, delta: &Delta, failures: &mut Vec<String>) -> Option<f64>;
    /// Values the API returned during the timed ops, and the layer probes on
    /// the final state.
    fn layer_metrics(&mut self, ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Out);
}

/// Generate the inputs of `spec` from `seed`, construct the workload and
/// run its warm-up ops — everything `setup_s` covers.
pub fn build(spec: &spec::Workload, seed: u64, smoke: bool, workers: usize) -> Box<dyn Workload> {
    let n = spec.bodies(smoke);
    let mut scratch_lat = Vec::with_capacity(spec.warmup_ops as usize + 1024);
    let mut off = Recorder::new(false);
    let mut w: Box<dyn Workload> = match spec.shape {
        Shape::Sim {
            generator,
            tree,
            execution,
            energy,
        } => Box::new(SimWorkload::new(
            generator, tree, execution, energy, n, seed, workers,
        )),
        Shape::Service {
            sessions,
            steps_per_tick,
            lifetime_steps,
        } => Box::new(ServiceWorkload::new(
            sessions,
            steps_per_tick,
            lifetime_steps,
            n,
            seed,
            workers,
        )),
        Shape::Checkpoint => Box::new(CheckpointWorkload::new(n, seed)),
    };
    let mut warmed = 0;
    while warmed < spec.warmup_ops {
        warmed += w.call(&mut scratch_lat, &mut off).ops.max(1);
    }
    w
}

/// Sum of the relative acceleration errors of up to `FORCE_SAMPLES` evenly
/// strided bodies against the direct sum, and how many bodies that was.
fn rel_err_sum(state: &SystemState, accel: &[Vec3], o: &SimOptions) -> (f64, usize) {
    let n = state.len();
    let samples = spec::FORCE_SAMPLES.min(n);
    let sum = transform_reduce(
        Par,
        0..samples,
        0.0,
        |a, b| a + b,
        |k| {
            let i = k * n / samples;
            let exact = direct_accel(
                state.positions[i],
                Some(i as u32),
                &state.positions,
                &state.masses,
                o.g,
                o.softening,
            );
            (accel[i] - exact).norm() / (1e-12 + exact.norm())
        },
    );
    (sum, samples)
}

fn mean_rel_err(state: &SystemState, accel: &[Vec3], o: &SimOptions) -> f64 {
    let (sum, samples) = rel_err_sum(state, accel, o);
    sum / samples as f64
}

fn check_force_err(err: f64, failures: &mut Vec<String>) -> Option<f64> {
    if err.is_nan() || err > spec::FORCE_REL_ERR_MAX {
        failures.push(format!(
            "force_rel_err {err:e} > {:e}",
            spec::FORCE_REL_ERR_MAX
        ));
    }
    Some(err)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time of `f`; its result is kept alive past the clock read.
fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    std::hint::black_box(r);
    d
}

/// One layer probe, inside its own span: the median of up to ten
/// repetitions of `rep` (which times the call it probes and returns that),
/// cut short after three once a quarter second is spent.
fn probe_ms(
    rec: &mut Recorder,
    name: &'static str,
    layer: Layer,
    mut rep: impl FnMut() -> Duration,
) -> f64 {
    let id = rec.begin(name, layer);
    let started = Instant::now();
    let mut samples = Vec::with_capacity(10);
    while samples.len() < 10
        && (samples.len() < 3 || started.elapsed() < Duration::from_millis(250))
    {
        samples.push(ms(rep()));
    }
    rec.end(id);
    stats::median(&samples)
}

/// Run `$body` with `$p` bound to the policy tag `$dyn` names.
macro_rules! with_policy {
    ($dyn:expr, $p:ident => $body:expr) => {
        match $dyn {
            DynPolicy::Seq => {
                let $p = Seq;
                $body
            }
            DynPolicy::Par => {
                let $p = Par;
                $body
            }
            DynPolicy::ParUnseq => {
                let $p = ParUnseq;
                $body
            }
        }
    };
}

// ---- sim workloads ---------------------------------------------------------

struct SimWorkload {
    sim: Simulation,
    ws: SimWorkspace,
    kind: SolverKind,
    opts: SimOptions,
    energy: bool,
    workers: usize,
    /// Phase timings the timed `step_into` calls returned, summed.
    sum: StepTimings,
    steps: u64,
}

impl SimWorkload {
    fn new(
        generator: Generator,
        tree: Tree,
        execution: Execution,
        energy: bool,
        n: usize,
        seed: u64,
        workers: usize,
    ) -> Self {
        let (kind, opts) = sim_options(tree, execution);
        let sim = Simulation::new(generate_state(generator, n, seed), kind, opts)
            .expect("the policy matches the tree and the state is not empty");
        SimWorkload {
            sim,
            ws: SimWorkspace::new(),
            kind,
            opts,
            energy,
            workers,
            sum: StepTimings::default(),
            steps: 0,
        }
    }

    /// Divisor turning the phase durations into wall time: task-graph
    /// steps report busy time summed over the workers.
    fn phase_workers(&self) -> u64 {
        match self.opts.stepping {
            Stepping::TaskGraph => self.workers as u64,
            Stepping::Barrier => 1,
        }
    }
}

impl Workload for SimWorkload {
    fn bodies_per_op(&self) -> usize {
        self.sim.state().len()
    }

    fn config(&self) -> J {
        J::obj([
            ("bodies", J::Int(self.sim.state().len() as u64)),
            ("op", J::str("Simulation::step_into")),
            ("options", options_json(self.kind, &self.opts)),
        ])
    }

    fn cycle_ops(&self) -> u64 {
        match self.opts.lifecycle {
            TreeLifecycle::Incremental { max_stale_steps } => max_stale_steps as u64 + 1,
            TreeLifecycle::Rebuild => 1,
        }
    }

    fn start_timed(&mut self) {
        self.sum = StepTimings::default();
        self.steps = 0;
    }

    fn call(&mut self, lat_ns: &mut Vec<u64>, rec: &mut Recorder) -> Call {
        let span = rec.begin("step_into", Layer::Sim);
        let t = Instant::now();
        let timings = self.sim.step_into(&mut self.ws);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        rec.end(span);
        if rec.enabled() {
            let tree = if self.kind == SolverKind::Octree {
                Layer::Octree
            } else {
                Layer::Bvh
            };
            let w = self.phase_workers();
            let b = timings.busy;
            rec.program_children(
                span,
                &[
                    ("bbox", Layer::Sim, b.bbox / w),
                    ("sort", tree, b.sort / w),
                    ("build", tree, b.build / w),
                    ("multipole", tree, b.multipole / w),
                    ("force", tree, b.force / w),
                    ("update", Layer::Sim, b.update / w),
                ],
            );
        }
        self.sum.accumulate(&timings);
        self.steps += 1;
        Call { ops: 1, failed: 0 }
    }

    fn energy(&self) -> Option<f64> {
        self.energy.then(|| {
            Diagnostics::measure(self.sim.state(), self.opts.g, self.opts.softening).total_energy
        })
    }

    fn verify(&mut self, _delta: &Delta, failures: &mut Vec<String>) -> Option<f64> {
        if !self.sim.state().is_valid() {
            failures.push("non-finite state".into());
            return None;
        }
        let err = mean_rel_err(self.sim.state(), self.sim.accelerations(), &self.opts);
        check_force_err(err, failures)
    }

    fn layer_metrics(&mut self, ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Out) {
        let steps = self.steps.max(1) as f64;
        let w = self.phase_workers() as f64;
        let (total, force) = (ms(self.sum.total()), ms(self.sum.force));
        out.insert("sim.update_ms", ms(self.sum.update) / steps / w);
        out.insert(
            "sim.force_share",
            if total > 0.0 { force / total } else { 0.0 },
        );
        out.insert("sim.nonforce_ms", (total - force) / steps / w);

        let state = self.sim.state().clone();
        let kernel = kernel_probes(ctx, self.kind, rec, out);
        // The probes of the layers this workload runs through; the other
        // tree's probe metrics stay 0.
        match self.kind {
            SolverKind::Octree => octree_probes(&state, &self.opts, kernel, rec, out),
            _ => bvh_probes(&state, &self.opts, kernel, rec, out),
        }
        step_probes(&state, self.kind, &self.opts, rec, out);
        out.insert("sim.guard_overhead_frac", guard_overhead(ctx, rec));
        checkpoint_probes(&state, self.kind, &self.opts, rec, out);

        // Parallel speed-up: the same sim, ten more steps on one thread.
        let one_thread = rec.span("par_speedup_1_thread", Layer::Stdpar, || {
            backend::with_threads(1, || {
                let mut v = Vec::with_capacity(10);
                let allocs = alloc_count();
                for _ in 0..10 {
                    v.push(timed(|| self.sim.step_into(&mut self.ws)).as_nanos() as u64);
                }
                // No thread is spawned here: what remains is the library's
                // own buffers, whose steady state allocates nothing.
                out.insert(
                    "sim.allocs_per_op_one_thread",
                    (alloc_count() - allocs) as f64 / 10.0,
                );
                v.sort_unstable();
                stats::percentile(&v, 0.5) / 1e6
            })
        });
        out.insert("stdpar.par_speedup", one_thread / ctx.op_ms_p50);
    }
}

// ---- the service workload --------------------------------------------------

/// Entries `SessionManager::step_latencies` keeps before it overwrites the
/// oldest; a run stops short of it so every timed step keeps its latency.
const LATENCY_WINDOW: u64 = 1 << 15;

struct ServiceWorkload {
    mgr: SessionManager,
    cfg: SessionConfig,
    sessions: usize,
    steps_per_tick: u32,
    lifetime_steps: u64,
    n: usize,
    seed: u64,
    workers: usize,
    /// Sessions admitted so far; session `j` is `galaxy_collision(n, seed + j)`.
    admitted: u64,
    ids: Vec<SessionId>,
    /// Live sessions, the tick they were admitted at and the steps they live.
    born: Vec<(SessionId, u64, u64)>,
    ticks: u64,
    tick_wall_ns: Vec<u64>,
    tick_steps: u64,
    step_busy_ns: u64,
    admit_ns: Vec<u64>,
    close_ns: Vec<u64>,
    /// Steps per tick alive of every closed session.
    closed_rates: Vec<f64>,
    short_ticks: u64,
    quarantined: u64,
}

fn scheduler(steps_per_tick: u32, workers: usize) -> SchedulerConfig {
    // A fixed cost of 1000 "ns" against a quantum of `steps × 1000` plans
    // exactly `steps_per_tick` steps per session per tick, on any host.
    SchedulerConfig {
        quantum_ns: 1000 * steps_per_tick as u64,
        max_steps_per_tick: steps_per_tick,
        burst_ticks: 1,
        cost_model: CostModel::Fixed(1000),
        workers,
    }
}

impl ServiceWorkload {
    fn new(
        sessions: usize,
        steps_per_tick: u32,
        lifetime_steps: u64,
        n: usize,
        seed: u64,
        workers: usize,
    ) -> Self {
        let mut w = ServiceWorkload {
            mgr: SessionManager::new(
                sessions,
                TickMode::Batched,
                scheduler(steps_per_tick, workers),
            ),
            cfg: session_config(),
            sessions,
            steps_per_tick,
            lifetime_steps,
            n,
            seed,
            workers,
            admitted: 0,
            ids: Vec::with_capacity(sessions),
            born: Vec::with_capacity(sessions),
            ticks: 0,
            tick_wall_ns: Vec::with_capacity(1 << 16),
            tick_steps: 0,
            step_busy_ns: 0,
            admit_ns: Vec::with_capacity(1 << 16),
            close_ns: Vec::with_capacity(1 << 16),
            closed_rates: Vec::with_capacity(1 << 16),
            short_ticks: 0,
            quarantined: 0,
        };
        for _ in 0..sessions {
            w.admit_next()
                .expect("an empty pool admits its first sessions");
        }
        w
    }

    /// The options a session steps with under `Batched` ticks.
    fn batched_opts(&self) -> SimOptions {
        SimOptions {
            policy: DynPolicy::Seq,
            ..self.cfg.opts
        }
    }

    /// Steps session `j` lives. The first cohort leaves in equal groups one
    /// tick apart, so that from the first tick on every tick closes and
    /// admits the same number of sessions and times the same mix of first
    /// and later steps.
    fn lifetime_of(&self, j: u64) -> u64 {
        let per_tick = self.steps_per_tick as u64;
        let ticks = (self.lifetime_steps / per_tick).max(1);
        if j < self.sessions as u64 {
            per_tick * (1 + j % ticks)
        } else {
            self.lifetime_steps
        }
    }

    fn admit_next(&mut self) -> Result<(), String> {
        let state = galaxy_collision(self.n, self.seed.wrapping_add(self.admitted));
        let lifetime = self.lifetime_of(self.admitted);
        self.admitted += 1;
        let id = self
            .mgr
            .admit(state, &self.cfg)
            .map_err(|e| format!("{e:?}"))?;
        self.born.push((id, self.ticks, lifetime));
        Ok(())
    }
}

impl Workload for ServiceWorkload {
    fn bodies_per_op(&self) -> usize {
        self.n
    }

    fn config(&self) -> J {
        let s = scheduler(self.steps_per_tick, self.workers);
        J::obj([
            ("sessions", J::Int(self.sessions as u64)),
            ("bodies_per_session", J::Int(self.n as u64)),
            ("op", J::str("one session step inside SessionManager::tick")),
            ("tick_mode", J::str("Batched")),
            ("lifetime_steps", J::Int(self.lifetime_steps)),
            (
                "first_cohort",
                J::str("leaves in equal groups one tick apart, so every tick has the same churn"),
            ),
            (
                "scheduler",
                J::obj([
                    ("quantum_ns", J::Int(s.quantum_ns)),
                    ("max_steps_per_tick", J::Int(s.max_steps_per_tick as u64)),
                    ("burst_ticks", J::Int(s.burst_ticks as u64)),
                    ("cost_model", J::Str(format!("{:?}", s.cost_model))),
                    ("workers", J::Int(s.workers as u64)),
                ]),
            ),
            ("ring_capacity", J::Int(self.cfg.ring_capacity as u64)),
            ("checkpoint_every", J::Int(self.cfg.checkpoint_every)),
            ("weight", J::Int(self.cfg.weight as u64)),
            ("health", J::Str(format!("{:?}", self.cfg.health))),
            (
                "session_options",
                options_json(self.cfg.kind, &self.cfg.opts),
            ),
            (
                "session_options_note",
                J::str("Batched ticks normalise policy to seq"),
            ),
        ])
    }

    fn op_cap(&self) -> u64 {
        LATENCY_WINDOW - 2 * (self.sessions as u64 * self.steps_per_tick as u64)
    }

    fn start_timed(&mut self) {
        self.tick_wall_ns.clear();
        self.tick_steps = 0;
        self.step_busy_ns = 0;
        self.admit_ns.clear();
        self.close_ns.clear();
        self.closed_rates.clear();
        self.short_ticks = 0;
        self.quarantined = 0;
    }

    fn call(&mut self, lat_ns: &mut Vec<u64>, rec: &mut Recorder) -> Call {
        let span = rec.begin("tick", Layer::Server);
        let before = self.mgr.step_latencies().len();
        let report = self.mgr.tick();
        rec.end(span);
        let new = &self.mgr.step_latencies()[before..];
        lat_ns.extend_from_slice(new);
        let busy: u64 = new.iter().sum();
        // The steps ran on `workers` threads side by side: their busy time
        // per worker is the part of the tick that was session work.
        rec.program_children(
            span,
            &[("session_steps", Layer::Sim, busy / self.workers as u64)],
        );
        self.ticks += 1;
        self.tick_wall_ns.push(report.wall.as_nanos() as u64);
        self.tick_steps += report.steps;
        self.step_busy_ns += busy;
        self.quarantined += report.new_quarantines as u64;
        let mut failed = report.new_quarantines as u64;
        if report.steps != self.sessions as u64 * self.steps_per_tick as u64 {
            self.short_ticks += 1;
        }

        // Churn: a session that has lived its steps leaves, a fresh one
        // takes its slot.
        self.ids.clear();
        self.ids.extend(self.mgr.live_ids());
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let Some(at) = self.born.iter().position(|(b, ..)| *b == id) else {
                continue;
            };
            let (_, born_tick, lifetime) = self.born[at];
            if self.mgr.session_steps(id).map_or(true, |s| s < lifetime) {
                continue;
            }
            let close = rec.begin("close", Layer::Server);
            let t = Instant::now();
            let closed = self.mgr.close(id);
            self.close_ns.push(t.elapsed().as_nanos() as u64);
            rec.end(close);
            failed += closed.is_err() as u64;
            self.born.swap_remove(at);
            let alive = (self.ticks - born_tick).max(1);
            self.closed_rates.push(lifetime as f64 / alive as f64);
            let admit = rec.begin("admit", Layer::Server);
            let t = Instant::now();
            let admitted = self.admit_next();
            self.admit_ns.push(t.elapsed().as_nanos() as u64);
            rec.end(admit);
            failed += admitted.is_err() as u64;
        }
        Call {
            ops: report.steps,
            failed,
        }
    }

    fn verify(&mut self, _delta: &Delta, failures: &mut Vec<String>) -> Option<f64> {
        if self.short_ticks > 0 {
            failures.push(format!(
                "{} ticks did not run sessions x steps_per_tick steps",
                self.short_ticks
            ));
        }
        if self.quarantined > 0 {
            failures.push(format!("{} sessions quarantined", self.quarantined));
        }
        if self.mgr.live_sessions() != self.sessions {
            failures.push(format!(
                "{} live sessions, want {}",
                self.mgr.live_sessions(),
                self.sessions
            ));
        }
        self.ids.clear();
        self.ids.extend(self.mgr.live_ids());
        for id in &self.ids {
            match self.mgr.session_state(*id) {
                Ok(state) if state.is_valid() => {}
                _ => failures.push(format!("session {id:?} has a non-finite state")),
            }
        }
        // Accuracy of the configuration the sessions run with, on the
        // states of every fourth live session: at N = 1000 one body with a
        // near-zero exact acceleration moves a single session's mean past
        // the tolerance, so the mean is taken over 16 sessions' bodies.
        let opts = self.batched_opts();
        let mut solver = make_solver(self.cfg.kind, opts.policy, solver_params(&opts))
            .expect("bvh runs under every policy");
        let mut accel = Vec::new();
        let (mut sum, mut bodies) = (0.0, 0usize);
        for id in self.ids.iter().step_by(4) {
            let state = self.mgr.session_state(*id).ok()?;
            accel.clear();
            accel.resize(state.len(), Vec3::ZERO);
            solver.compute(state, &mut accel, false);
            let (s, k) = rel_err_sum(state, &accel, &opts);
            sum += s;
            bodies += k;
        }
        check_force_err(sum / bodies.max(1) as f64, failures)
    }

    fn layer_metrics(&mut self, ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Out) {
        let mut walls = self.tick_wall_ns.clone();
        walls.sort_unstable();
        let wall_sum: u64 = walls.iter().sum();
        out.insert("server.tick_ms_p50", stats::percentile(&walls, 0.5) / 1e6);
        out.insert(
            "server.steps_per_tick",
            self.tick_steps as f64 / walls.len().max(1) as f64,
        );
        out.insert(
            "server.tick_overhead_frac",
            1.0 - self.step_busy_ns as f64 / (self.workers as f64 * wall_sum.max(1) as f64),
        );
        for (name, v) in [
            ("server.admit_us_p50", &self.admit_ns),
            ("server.close_us_p50", &self.close_ns),
        ] {
            let mut v = v.clone();
            v.sort_unstable();
            out.insert(name, stats::percentile(&v, 0.5) / 1e3);
        }
        out.insert("server.fairness_jain", stats::jain(&self.closed_rates));

        // Session 0's state under the options its Batched session runs with.
        self.ids.clear();
        self.ids.extend(self.mgr.live_ids());
        let state = self.mgr.session_state(self.ids[0]).expect("live").clone();
        let opts = self.batched_opts();
        let kernel = kernel_probes(ctx, self.cfg.kind, rec, out);
        bvh_probes(&state, &opts, kernel, rec, out);
        step_probes(&state, self.cfg.kind, &opts, rec, out);
        out.insert("sim.guard_overhead_frac", guard_overhead(ctx, rec));
        checkpoint_probes(&state, self.cfg.kind, &opts, rec, out);

        // Batched at nproc against Batched on one worker and against the
        // per-session baseline, on a small pool of the same sessions.
        let rate = |mode, workers, rec: &mut Recorder| {
            rec.span("service_rate", Layer::Server, || {
                service_rate(mode, workers, self.steps_per_tick, self.n, ctx.seed)
            })
        };
        let batched = rate(TickMode::Batched, self.workers, rec);
        out.insert(
            "stdpar.par_speedup",
            batched / rate(TickMode::Batched, 1, rec),
        );
        out.insert(
            "server.per_session_ratio",
            batched / rate(TickMode::PerSession, 0, rec),
        );
    }
}

/// Session-steps per second of an 8-session pool over 8 ticks (after one
/// warm-up tick), `workers = 0` inheriting the backend's thread count.
fn service_rate(mode: TickMode, workers: usize, steps_per_tick: u32, n: usize, seed: u64) -> f64 {
    let mut mgr = SessionManager::new(8, mode, scheduler(steps_per_tick, workers));
    for j in 0..8 {
        mgr.admit(galaxy_collision(n, seed + j), &session_config())
            .expect("pool of 8 admits 8");
    }
    mgr.tick();
    let t = Instant::now();
    let steps: u64 = (0..8).map(|_| mgr.tick().steps).sum();
    steps as f64 / t.elapsed().as_secs_f64()
}

// ---- the checkpoint workload -----------------------------------------------

struct CheckpointWorkload {
    sim: Simulation,
    monitor: HealthMonitor,
    ring: CheckpointRing,
    path: PathBuf,
    kind: SolverKind,
    opts: SimOptions,
}

impl CheckpointWorkload {
    fn new(n: usize, seed: u64) -> Self {
        // The simulation only carries the state the ring records; it is
        // never stepped, so no force is ever evaluated.
        let (kind, opts) = sim_options(Tree::Bvh, Execution::RebuildBarrier);
        let sim = Simulation::new(uniform_cube(n, seed), kind, opts).expect("state is not empty");
        let mut ring = CheckpointRing::with_capacity(2).expect("capacity 2");
        ring.warm(n);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
        CheckpointWorkload {
            sim,
            monitor: HealthMonitor::new(HealthConfig::default()),
            ring,
            path: dir.join(format!("checkpoint_{}.nbsnap", std::process::id())),
            kind,
            opts,
        }
    }
}

impl Drop for CheckpointWorkload {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn bitwise_equal(a: &SystemState, b: &SystemState) -> bool {
    let vecs = |x: &[Vec3], y: &[Vec3]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| {
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.z.to_bits() == q.z.to_bits()
            })
    };
    vecs(&a.positions, &b.positions)
        && vecs(&a.velocities, &b.velocities)
        && a.masses.len() == b.masses.len()
        && a.masses
            .iter()
            .zip(&b.masses)
            .all(|(m, k)| m.to_bits() == k.to_bits())
}

impl Workload for CheckpointWorkload {
    fn bodies_per_op(&self) -> usize {
        self.sim.state().len()
    }

    fn config(&self) -> J {
        J::obj([
            ("bodies", J::Int(self.sim.state().len() as u64)),
            ("generator", J::str("uniform_cube")),
            (
                "op",
                J::str(
                    "CheckpointRing::record -> io::save_atomic -> io::try_load -> bitwise compare",
                ),
            ),
            ("ring_capacity", J::Int(self.ring.capacity() as u64)),
            ("format", J::str("NBSNAP02")),
            ("file", J::Str(self.path.display().to_string())),
        ])
    }

    fn call(&mut self, lat_ns: &mut Vec<u64>, rec: &mut Recorder) -> Call {
        let cycle = rec.begin("checkpoint_cycle", Layer::Bench);
        let t = Instant::now();
        rec.span("ring_record", Layer::Sim, || {
            self.ring.record(&self.sim, &self.monitor)
        });
        let saved = rec.span("save_atomic", Layer::Sim, || {
            io::save_atomic(self.sim.state(), &self.path)
        });
        let loaded = rec.span("try_load", Layer::Sim, || io::try_load(&self.path));
        let same = rec.span("compare", Layer::Bench, || match (&saved, &loaded) {
            (Ok(()), Ok(back)) => bitwise_equal(back, self.sim.state()),
            _ => false,
        });
        lat_ns.push(t.elapsed().as_nanos() as u64);
        rec.end(cycle);
        Call {
            ops: 1,
            failed: !same as u64,
        }
    }

    fn verify(&mut self, delta: &Delta, failures: &mut Vec<String>) -> Option<f64> {
        // The bypass is proven, not assumed: no MAC test, no SIMD group.
        for (name, moved) in delta.force_path_counters() {
            if moved != 0 {
                failures.push(format!(
                    "{name} moved by {moved} on a workload without forces"
                ));
            }
        }
        if self.ring.is_empty() {
            failures.push("checkpoint ring is empty".into());
        }
        None
    }

    fn layer_metrics(&mut self, ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Out) {
        kernel_probes(ctx, self.kind, rec, out);
        checkpoint_probes(self.sim.state(), self.kind, &self.opts, rec, out);
    }
}

// ---- layer probes on a state -----------------------------------------------

/// What the kernel probe measured, for the walk estimates.
#[derive(Clone, Copy)]
struct Kernel {
    simd_ginter_s: f64,
    group: usize,
}

/// The list kernels on lists shaped like the workload's mean interaction
/// list (a nominal 128 bodies + 256 nodes where the workload built none),
/// one thread, group-many targets.
fn kernel_probes(ctx: &ProbeCtx, kind: SolverKind, rec: &mut Recorder, out: &mut Out) -> Kernel {
    let (group, bodies_hist, nodes_hist) = match kind {
        SolverKind::Octree => (
            Octree::DEFAULT_BLOCK_GROUP,
            "octree_list_bodies",
            "octree_list_nodes",
        ),
        _ => (
            Bvh::DEFAULT_BLOCK_GROUP,
            "bvh_list_bodies",
            "bvh_list_nodes",
        ),
    };
    let shape = |hist: &str, nominal: usize| match ctx.delta.hist_mean(hist).round() as usize {
        0 => nominal,
        mean => mean,
    };
    let (n_bodies, n_nodes) = (shape(bodies_hist, 128), shape(nodes_hist, 256));
    let mut rng = SplitMix64::new(ctx.seed);
    let mut point = || {
        Vec3::new(
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        )
    };
    let mut lists = InteractionLists::new(false);
    for _ in 0..n_bodies {
        lists.push_body(point(), 1e-4);
    }
    for _ in 0..n_nodes {
        lists.push_node(point() * 4.0, 1e-2, None);
    }
    let targets: Vec<Vec3> = (0..group).map(|_| point() * 0.1).collect();
    let mut scratch = KernelScratch::default();
    for &t in &targets {
        scratch.push_target(t);
    }
    let eps2 = SOFTENING * SOFTENING;
    let per_call = (group * (n_bodies + n_nodes)) as f64;
    // Enough calls per repetition to time ~5 ms of kernel.
    let calls = ((5e6 / per_call) as usize).max(1);
    let ginter = |ms: f64| per_call * calls as f64 / (ms * 1e-3) / 1e9;

    let mut stats = KernelStats::default();
    let simd = probe_ms(rec, "kernel_simd", Layer::Math, || {
        timed(|| {
            for _ in 0..calls {
                lists.eval_group(&mut scratch, G, eps2, KernelPrecision::F64, &mut stats);
                std::hint::black_box(scratch.accel(0));
            }
        })
    });
    let scalar = probe_ms(rec, "kernel_scalar", Layer::Math, || {
        timed(|| {
            for _ in 0..calls {
                for &t in &targets {
                    std::hint::black_box(lists.eval_at(std::hint::black_box(t), G, eps2));
                }
            }
        })
    });
    // The per-body traversal's leaf primitive: pair_accel in a plain loop.
    let positions: Vec<Vec3> = (0..4096).map(|_| point()).collect();
    let masses = vec![1e-4; positions.len()];
    let pair = probe_ms(rec, "pair_accel", Layer::Math, || {
        timed(|| {
            for &t in &targets {
                std::hint::black_box(direct_accel(t, None, &positions, &masses, G, SOFTENING));
            }
        })
    });
    let simd_ginter_s = ginter(simd);
    out.insert("math.kernel_simd_ginter_s", simd_ginter_s);
    out.insert("math.kernel_scalar_ginter_s", ginter(scalar));
    out.insert(
        "math.pair_accel_ginter_s",
        (group * positions.len()) as f64 / (pair * 1e-3) / 1e9,
    );
    out.insert("math.list_shape_bodies", n_bodies as f64);
    out.insert("math.list_shape_nodes", n_nodes as f64);
    Kernel {
        simd_ginter_s,
        group,
    }
}

/// `force_ms − kernel estimate`: the interactions of the probed force call
/// (SIMD lane count × group) at the kernel probe's rate, spread over the
/// workers. The per-body path issues no SIMD lanes, so there the whole
/// force time is walk.
fn walk_ms_est(force_ms: f64, lanes_per_call: f64, kernel: Kernel, workers: usize) -> f64 {
    let kernel_ms = lanes_per_call * kernel.group as f64 / (kernel.simd_ginter_s * 1e9) * 1e3;
    (force_ms - kernel_ms / workers as f64).max(0.0)
}

fn policy_workers(policy: DynPolicy) -> usize {
    match policy {
        DynPolicy::Seq => 1,
        _ => backend::thread_count(),
    }
}

fn bvh_probes(
    state: &SystemState,
    o: &SimOptions,
    kernel: Kernel,
    rec: &mut Recorder,
    out: &mut Out,
) {
    let (pos, mass) = (&state.positions, &state.masses);
    // One drift later: what the lazy re-sort sees a step after a sort.
    let drifted: Vec<Vec3> = pos
        .iter()
        .zip(&state.velocities)
        .map(|(p, v)| *p + *v * o.dt)
        .collect();
    let mut bvh = Bvh::with_params(BvhParams {
        hilbert_bits: o.hilbert_bits,
        quadrupole: o.quadrupole,
        ..BvhParams::default()
    });
    let mut scratch = BvhScratch::new();
    let mut accel = vec![Vec3::ZERO; pos.len()];
    let fp = force_params(o);
    let mut lanes = 0u64;
    let mut force_calls = 0u64;
    with_policy!(o.policy, p => {
        let bbox = state.bounding_box(p);
        let bbox_drifted = Aabb::from_points(&drifted);
        let resort = probe_ms(rec, "bvh_resort", Layer::Bvh, || {
            bvh.try_hilbert_sort_with(p, pos, mass, bbox, &mut scratch).expect("finite state");
            timed(|| {
                bvh.try_hilbert_resort_with(p, &drifted, mass, bbox_drifted, &mut scratch)
                    .expect("finite state")
            })
        });
        out.insert("bvh.resort_ms", resort);
        out.insert("bvh.sort_ms", probe_ms(rec, "bvh_sort", Layer::Bvh, || {
            timed(|| bvh.try_hilbert_sort_with(p, pos, mass, bbox, &mut scratch).expect("finite state"))
        }));
        out.insert("bvh.build_ms", probe_ms(rec, "bvh_build", Layer::Bvh, || {
            timed(|| bvh.build_structure(p))
        }));
        out.insert("bvh.moments_ms", probe_ms(rec, "bvh_moments", Layer::Bvh, || {
            timed(|| bvh.accumulate_moments(p))
        }));
        let force = probe_ms(rec, "bvh_force", Layer::Bvh, || {
            let before = metrics::SIMD_ACTIVE_LANES.get();
            let d = timed(|| bvh.compute_forces_with(p, pos, &mut accel, &fp, &mut scratch));
            lanes += metrics::SIMD_ACTIVE_LANES.get() - before;
            force_calls += 1;
            d
        });
        out.insert("bvh.force_ms", force);
        let per_call = lanes as f64 / force_calls.max(1) as f64;
        out.insert("bvh.walk_ms_est", walk_ms_est(force, per_call, kernel, policy_workers(o.policy)));
    });
}

fn octree_probes(
    state: &SystemState,
    o: &SimOptions,
    kernel: Kernel,
    rec: &mut Recorder,
    out: &mut Out,
) {
    let (pos, mass) = (&state.positions, &state.masses);
    let mut tree = Octree::new();
    tree.set_quadrupole(o.quadrupole);
    let mut scratch = TraversalScratch::new();
    let mut accel = vec![Vec3::ZERO; pos.len()];
    let fp = force_params(o);
    let bbox = state.bounding_box(Par);
    let mut nodes = 0u32;
    out.insert(
        "octree.build_ms",
        probe_ms(rec, "octree_build", Layer::Octree, || {
            timed(|| {
                nodes = tree
                    .build(Par, pos, bbox)
                    .expect("finite state builds")
                    .allocated_nodes
            })
        }),
    );
    out.insert("octree.nodes_allocated", nodes as f64);
    out.insert(
        "octree.multipole_ms",
        probe_ms(rec, "octree_multipoles", Layer::Octree, || {
            timed(|| tree.compute_multipoles(Par, pos, mass))
        }),
    );
    let (mut lanes, mut force_calls) = (0u64, 0u64);
    // As the solver does: the force phase runs under par_unseq.
    let force = probe_ms(rec, "octree_force", Layer::Octree, || {
        let before = metrics::SIMD_ACTIVE_LANES.get();
        let d =
            timed(|| tree.compute_forces_with(ParUnseq, pos, mass, &mut accel, &fp, &mut scratch));
        lanes += metrics::SIMD_ACTIVE_LANES.get() - before;
        force_calls += 1;
        d
    });
    out.insert("octree.force_ms", force);
    let per_call = lanes as f64 / force_calls.max(1) as f64;
    out.insert(
        "octree.walk_ms_est",
        walk_ms_est(force, per_call, kernel, backend::thread_count()),
    );
}

/// The integrator's own phases and the watchdog, on a state.
fn step_probes(
    state: &SystemState,
    kind: SolverKind,
    o: &SimOptions,
    rec: &mut Recorder,
    out: &mut Out,
) {
    out.insert(
        "sim.bbox_ms",
        probe_ms(rec, "bounding_box", Layer::Sim, || {
            timed(|| with_policy!(o.policy, p => state.bounding_box(p)))
        }),
    );
    // The whole force pipeline behind the solver interface, tree rebuilt.
    let rebuild = SimOptions {
        lifecycle: TreeLifecycle::Rebuild,
        stepping: Stepping::Barrier,
        ..*o
    };
    let mut solver =
        make_solver(kind, o.policy, solver_params(&rebuild)).expect("policy matches tree");
    let mut accel = vec![Vec3::ZERO; state.len()];
    let mut ws = SimWorkspace::new();
    out.insert(
        "sim.solver_ms",
        probe_ms(rec, "solver_compute", Layer::Sim, || {
            timed(|| {
                solver
                    .try_compute_into(state, &mut accel, false, &mut ws)
                    .expect("healthy state")
            })
        }),
    );
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    out.insert(
        "sim.health_check_ms",
        probe_ms(rec, "health_check", Layer::Sim, || {
            timed(|| monitor.check(state, o.dt, o.policy))
        }),
    );
}

/// `GuardedSimulation::step_into` against the plain step on a 4k spinning
/// disk: 50 steps each after 5 of warm-up, the two simulations stepped
/// turn and turn about so that drift in machine speed hits both alike;
/// ratio of the median step times − 1.
fn guard_overhead(ctx: &ProbeCtx, rec: &mut Recorder) -> f64 {
    let (n, steps) = if ctx.smoke { (256, 10) } else { (4096, 50) };
    let (kind, opts) = sim_options(Tree::Bvh, Execution::RebuildBarrier);
    let state = spinning_disk(n, ctx.seed);
    rec.span("guard_overhead", Layer::Sim, || {
        let (mut ws_plain, mut ws_guarded) = (SimWorkspace::new(), SimWorkspace::new());
        let mut plain = Simulation::new(state.clone(), kind, opts).expect("valid");
        let mut guarded =
            GuardedSimulation::new(state, kind, opts, GuardConfig::default()).expect("valid");
        let (mut plain_ms, mut guarded_ms) = (Vec::new(), Vec::new());
        for step in 0..steps + 5 {
            let p = timed(|| plain.step_into(&mut ws_plain));
            let g = timed(|| guarded.step_into(&mut ws_guarded).expect("healthy run"));
            if step >= 5 {
                plain_ms.push(ms(p));
                guarded_ms.push(ms(g));
            }
        }
        stats::median(&guarded_ms) / stats::median(&plain_ms) - 1.0
    })
}

/// Ring, snapshot codec and file round trip on a state.
fn checkpoint_probes(
    state: &SystemState,
    kind: SolverKind,
    o: &SimOptions,
    rec: &mut Recorder,
    out: &mut Out,
) {
    let n = state.len();
    let mut sim = Simulation::new(state.clone(), kind, *o).expect("state is not empty");
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let mut ring = CheckpointRing::with_capacity(2).expect("capacity 2");
    ring.warm(n);
    out.insert(
        "sim.ring_record_ms",
        probe_ms(rec, "ring_record", Layer::Sim, || {
            timed(|| ring.record(&sim, &monitor))
        }),
    );
    out.insert(
        "sim.ring_restore_ms",
        probe_ms(rec, "ring_restore", Layer::Sim, || {
            timed(|| {
                ring.restore(0, &mut sim, &mut monitor)
                    .expect("sealed slot restores")
            })
        }),
    );

    let mut bytes = Vec::new();
    let encode = probe_ms(rec, "snapshot_encode", Layer::Sim, || {
        bytes.clear();
        timed(|| io::write_binary(state, &mut bytes).expect("writing to memory"))
    });
    let decode = probe_ms(rec, "snapshot_decode", Layer::Sim, || {
        timed(|| io::try_read_binary(&bytes[..]).expect("own bytes decode"))
    });
    let mb = bytes.len() as f64 / 1e6;
    out.insert("sim.snapshot_bytes", bytes.len() as f64);
    out.insert("sim.snapshot_encode_mbs", mb / (encode * 1e-3));
    out.insert("sim.snapshot_decode_mbs", mb / (decode * 1e-3));

    let path = out_dir().join(format!("probe_{}.nbsnap", std::process::id()));
    std::fs::create_dir_all(out_dir()).expect("benchmark/out is creatable");
    out.insert(
        "sim.save_atomic_ms",
        probe_ms(rec, "save_atomic", Layer::Sim, || {
            timed(|| io::save_atomic(state, &path).expect("benchmark/out is writable"))
        }),
    );
    out.insert(
        "sim.load_ms",
        probe_ms(rec, "try_load", Layer::Sim, || {
            timed(|| io::try_load(&path).expect("own file loads"))
        }),
    );
    let _ = std::fs::remove_file(&path);
}

// ---- host-level probes and counter metrics ---------------------------------

/// Probes that depend on the host and the library build, not on a
/// workload's state. `llc_bytes`/`ram_bytes` size the TRIAD arrays; the
/// sizes used are returned as notes.
pub fn host_probes(
    workers: usize,
    llc_bytes: u64,
    ram_bytes: u64,
    smoke: bool,
    rec: &mut Recorder,
    out: &mut Out,
) -> Vec<(&'static str, J)> {
    // TRIAD a = b + 3c. Each array is max(128 MiB, 4 × LLC), capped at
    // RAM/8 and at 256 MiB: on the reference host the LLC /sys reports is
    // a 260 MiB L3 shared with other guests, first touch of guest memory
    // costs ~1 s/GiB, and 3 × 256 MiB streamed once per pass already
    // leaves an LRU cache of that size nothing to reuse.
    const MIB: u64 = 1 << 20;
    // `--smoke` cuts every host probe's input 16x, like the workloads'.
    let cut = if smoke { spec::SMOKE_DIV } else { 1 };
    let want = (128 * MIB).max(4 * llc_bytes);
    let array_bytes = want.min(ram_bytes / 8).clamp(MIB, 256 * MIB) / cut as u64;
    let n = (array_bytes / 8) as usize;
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    generate(ParUnseq, &mut a, |i| b[i] + 3.0 * c[i]); // first touch, untimed
    let gbs = |ms: f64| 3.0 * array_bytes as f64 / (ms * 1e-3) / 1e9;
    let par = probe_ms(rec, "triad_par", Layer::Stdpar, || {
        timed(|| generate(ParUnseq, &mut a, |i| b[i] + 3.0 * c[i]))
    });
    let seq = probe_ms(rec, "triad_seq", Layer::Stdpar, || {
        timed(|| generate(Seq, &mut a, |i| b[i] + 3.0 * c[i]))
    });
    std::hint::black_box(&a);
    out.insert("stdpar.triad_par_gbs", gbs(par));
    out.insert("stdpar.triad_seq_gbs", gbs(seq));
    drop((a, b, c));

    let allocs = alloc_count();
    let mut launches = 0u64;
    out.insert(
        "stdpar.region_launch_us",
        1e3 * probe_ms(rec, "region_launch", Layer::Stdpar, || {
            let d = timed(|| {
                for _ in 0..50 {
                    for_each_index(Par, 0..workers, |_| {});
                }
            });
            launches += 50;
            d / 50
        }),
    );
    // `samples` of probe_ms was sized before the first launch; the rest is
    // what the executor's scoped threads allocate.
    out.insert(
        "stdpar.allocs_per_region",
        (alloc_count() - allocs) as f64 / launches as f64,
    );

    let mut rng = SplitMix64::new(0x5EED);
    let keys: Vec<(u64, u32)> = (0..(1u32 << 20) / cut as u32)
        .map(|i| (rng.next_u64(), i))
        .collect();
    let mut work = keys.clone();
    let sort = probe_ms(rec, "sort_1m_pairs", Layer::Stdpar, || {
        work.copy_from_slice(&keys);
        timed(|| sort_unstable_by(Par, &mut work, |x, y| x.cmp(y)))
    });
    out.insert(
        "stdpar.sort_mkeys_s",
        keys.len() as f64 / 1e6 / (sort * 1e-3),
    );

    const NODES: usize = 4096;
    let mut graph = TaskGraph::new();
    let dag = probe_ms(rec, "dag_4096_empty_nodes", Layer::Stdpar, || {
        graph.clear();
        let ids = graph.add_nodes(NODES);
        let per_chain = NODES / workers.max(1);
        for node in ids.start..ids.end - 1 {
            if !(node as usize + 1).is_multiple_of(per_chain) {
                graph.add_edge(node, node + 1);
            }
        }
        timed(|| graph.run(|_, _| {}))
    });
    out.insert("stdpar.dag_node_us", dag * 1e3 / NODES as f64);

    let grid = HilbertGrid::new(
        Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0)),
        16,
    );
    let points: Vec<Vec3> = (0..(1 << 20) / cut)
        .map(|_| {
            Vec3::new(
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
            )
        })
        .collect();
    let hilbert = probe_ms(rec, "hilbert_keys", Layer::Math, || {
        timed(|| {
            let mut x = 0u64;
            for &p in &points {
                x ^= grid.key_of(p);
            }
            std::hint::black_box(x);
        })
    });
    out.insert(
        "math.hilbert_mkeys_s",
        points.len() as f64 / 1e6 / (hilbert * 1e-3),
    );

    let buf: Vec<u8> = (0..(16usize << 20) / cut)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let crc = probe_ms(rec, "crc32_16mib", Layer::Math, || {
        timed(|| nbody_math::crc32(&buf))
    });
    out.insert("math.crc32_mbs", buf.len() as f64 / 1e6 / (crc * 1e-3));

    out.insert(
        "telemetry.capture_us",
        1e3 * probe_ms(rec, "telemetry_capture", Layer::Telemetry, || {
            timed(|| MetricsSnapshot::capture().to_json())
        }),
    );

    vec![
        ("triad_array_bytes", J::Int(array_bytes)),
        ("triad_llc_bytes", J::Int(llc_bytes)),
        (
            "triad_array_below_4x_llc",
            J::Bool(array_bytes < 4 * llc_bytes),
        ),
    ]
}

/// Metrics that are counter deltas over the timed ops.
pub fn count_metrics(delta: &Delta, ops: u64, workers: usize, wall_ns: u64, out: &mut Out) {
    let per_op = |name: &str| delta.counter(name) as f64 / ops.max(1) as f64;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    out.insert("stdpar.regions_per_op", per_op("stdpar_par_regions"));
    out.insert("stdpar.chunks_per_op", per_op("stdpar_chunks_claimed"));
    out.insert("stdpar.dag_nodes_per_op", per_op("stdpar_dag_nodes"));
    out.insert("stdpar.dag_steals_per_op", per_op("stdpar_dag_steals"));
    out.insert(
        "stdpar.worker_busy_frac",
        frac(delta.busy_ns() as f64, workers as f64 * wall_ns as f64),
    );

    let lanes = delta.counter("simd_active_lanes") as f64;
    out.insert(
        "math.simd_lane_util",
        frac(lanes, delta.counter("simd_lane_slots") as f64),
    );
    // Every group holds exactly `group` bodies (N is a multiple of 64), so
    // group × lanes is the exact pair-interaction count. One tree per run.
    let group = if delta.counter("octree_builds") > 0 {
        Octree::DEFAULT_BLOCK_GROUP
    } else {
        Bvh::DEFAULT_BLOCK_GROUP
    };
    out.insert(
        "math.interactions_per_op",
        group as f64 * lanes / ops.max(1) as f64,
    );

    for (tree, [opens_name, accepts_name, frac_name, bodies_name, nodes_name]) in [
        (
            "bvh",
            [
                "bvh.mac_opens_per_op",
                "bvh.mac_accepts_per_op",
                "bvh.mac_accept_frac",
                "bvh.list_bodies_mean",
                "bvh.list_nodes_mean",
            ],
        ),
        (
            "octree",
            [
                "octree.mac_opens_per_op",
                "octree.mac_accepts_per_op",
                "octree.mac_accept_frac",
                "octree.list_bodies_mean",
                "octree.list_nodes_mean",
            ],
        ),
    ] {
        let (opens, accepts) = (
            delta.counter(&format!("{tree}_mac_opens")) as f64,
            delta.counter(&format!("{tree}_mac_accepts")) as f64,
        );
        out.insert(opens_name, opens / ops.max(1) as f64);
        out.insert(accepts_name, accepts / ops.max(1) as f64);
        out.insert(frac_name, frac(accepts, accepts + opens));
        out.insert(bodies_name, delta.hist_mean(&format!("{tree}_list_bodies")));
        out.insert(nodes_name, delta.hist_mean(&format!("{tree}_list_nodes")));
    }
    let (lazy, full) = (
        delta.counter("bvh_lazy_resorts") as f64,
        delta.counter("bvh_full_resorts") as f64,
    );
    out.insert("bvh.lazy_resort_frac", frac(lazy, lazy + full));
    out.insert(
        "octree.build_retries_per_op",
        per_op("octree_build_retries"),
    );
    out.insert(
        "octree.lock_cas_retries_per_op",
        per_op("octree_lock_cas_retries"),
    );
    out.insert("octree.spin_iters_per_op", per_op("octree_spin_iters"));

    out.insert("sim.tree_reuse_frac", per_op("tree_reuse_steps"));
    out.insert(
        "sim.solver_fallbacks",
        delta.counter("resilient_fallbacks") as f64,
    );
    out.insert(
        "sim.guard_rollbacks",
        delta.counter("guard_rollbacks") as f64,
    );

    let (admitted, rejected) = (
        delta.counter("server_sessions_admitted") as f64,
        delta.counter("server_sessions_rejected") as f64,
    );
    out.insert("server.rejected_frac", frac(rejected, admitted + rejected));
    out.insert(
        "server.quarantines",
        delta.counter("server_quarantines") as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_compare_tells_signed_zeros_apart() {
        let a =
            SystemState::from_parts(vec![Vec3::new(0.0, 1.0, 2.0)], vec![Vec3::ZERO], vec![1.0]);
        let mut b = a.clone();
        assert!(bitwise_equal(&a, &b));
        b.positions[0].x = -0.0;
        assert!(a.positions[0].x == b.positions[0].x && !bitwise_equal(&a, &b));
    }

    #[test]
    fn walk_estimate_subtracts_the_kernel_share() {
        let kernel = Kernel {
            simd_ginter_s: 1.0,
            group: 32,
        };
        // 1e6 lanes × 32 = 3.2e7 interactions at 1 Ginter/s = 32 ms, on 2 workers = 16 ms.
        assert!((walk_ms_est(20.0, 1e6, kernel, 2) - 4.0).abs() < 1e-9);
        assert_eq!(walk_ms_est(5.0, 1e6, kernel, 2), 0.0);
        assert_eq!(walk_ms_est(5.0, 0.0, kernel, 1), 5.0);
    }
}
