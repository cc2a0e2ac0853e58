//! Störmer-Verlet time integration (paper §III, Algorithm 2).
//!
//! The system of coupled ODEs is discretised with the kick-drift-kick
//! leapfrog form of Störmer-Verlet [Verlet 1967] — symplectic and
//! time-reversible, so energy oscillates instead of drifting for stable
//! step sizes (tested in the diagnostics suite).

use crate::dag::Stepping;
use crate::solver::{make_solver, ComputeError, ForceSolver, SolverError, SolverKind, SolverParams};
use crate::system::SystemState;
use crate::timing::{timed_counted, PhaseBusy, StepTimings};
use crate::workspace::SimWorkspace;
use nbody_math::gravity::{ForceEval, ForceKernel, KernelPrecision, TreeLifecycle};
use nbody_math::Vec3;
use nbody_telemetry::record;
use stdpar::policy::DynPolicy;
use stdpar::prelude::*;

/// Mirror one step's phase timings into the global telemetry counters
/// (seven relaxed adds per step; recording never allocates, so the
/// zero-steady-state-allocation invariant is unaffected).
pub(crate) fn record_step_telemetry(timings: &StepTimings) {
    record!(counter SIM_STEPS, 1);
    record!(counter SIM_BBOX_NANOS, timings.bbox.as_nanos() as u64);
    record!(counter SIM_SORT_NANOS, timings.sort.as_nanos() as u64);
    record!(counter SIM_BUILD_NANOS, timings.build.as_nanos() as u64);
    record!(counter SIM_MULTIPOLE_NANOS, timings.multipole.as_nanos() as u64);
    record!(counter SIM_FORCE_NANOS, timings.force.as_nanos() as u64);
    record!(counter SIM_UPDATE_NANOS, timings.update.as_nanos() as u64);
}

/// Time integration scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntegratorKind {
    /// Kick-drift-kick leapfrog — the paper's Störmer-Verlet scheme:
    /// symplectic, time-reversible, second order. One force evaluation
    /// per step (the closing kick reuses the opening kick of the next).
    #[default]
    LeapfrogKdk,
}

impl IntegratorKind {
    pub fn name(self) -> &'static str {
        "leapfrog-kdk"
    }
}

/// Simulation-wide options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Time step.
    pub dt: f64,
    /// Multipole acceptance threshold θ (paper uses 0.5).
    pub theta: f64,
    /// Plummer softening length ε.
    pub softening: f64,
    /// Gravitational constant (1 for the galaxy units, [`nbody_math::G_SI`]
    /// for the solar-system validation).
    pub g: f64,
    /// Execution policy for all phases (force phases internally follow the
    /// paper's per-phase choices; see [`crate::solver`]).
    pub policy: DynPolicy,
    /// Rebuild the tree every `tree_rebuild_every` steps (1 = every step,
    /// the paper's configuration; >1 = Iwasawa-style tree reuse ablation).
    pub tree_rebuild_every: usize,
    /// Quadrupole extension.
    pub quadrupole: bool,
    /// Force-evaluation strategy for the tree solvers (per-body traversal
    /// or blocked traversal with shared interaction lists).
    pub eval: ForceEval,
    /// Kernel consuming the blocked interaction lists (scalar oracle or
    /// tiled SIMD).
    pub kernel: ForceKernel,
    /// Precision mode of the SIMD kernel.
    pub precision: KernelPrecision,
    /// Hilbert grid bits (BVH).
    pub hilbert_bits: u32,
    /// Time integration scheme: the paper's Störmer-Verlet leapfrog, the
    /// one value.
    pub integrator: IntegratorKind,
    /// Tree maintenance across steps (tree solvers): rebuild per step, or
    /// serve the tree stale for `k` steps behind a drift-padded MAC and
    /// then rebuild it. `Incremental` supersedes `tree_rebuild_every` — the
    /// lifecycle manages its own reuse cadence.
    pub lifecycle: TreeLifecycle,
    /// Step execution mode: barrier-separated phases, or two fused regions
    /// per step ([`crate::dag`]; tree solvers, leapfrog, parallel
    /// policies). [`Simulation::new`] rejects `TaskGraph` for anything else
    /// as [`SolverError::Unsupported`].
    pub stepping: Stepping,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            dt: 1e-3,
            theta: 0.5,
            softening: 1e-3,
            g: 1.0,
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
        }
    }
}

impl SimOptions {
    fn solver_params(&self) -> SolverParams {
        SolverParams {
            theta: self.theta,
            softening: self.softening,
            g: self.g,
            quadrupole: self.quadrupole,
            eval: self.eval,
            kernel: self.kernel,
            precision: self.precision,
            hilbert_bits: self.hilbert_bits,
            lifecycle: self.lifecycle,
            stepping: self.stepping,
        }
    }
}

/// A running N-body simulation: state + solver + leapfrog integrator.
pub struct Simulation {
    state: SystemState,
    solver: Box<dyn ForceSolver>,
    accel: Vec<Vec3>,
    opts: SimOptions,
    time: f64,
    steps_done: usize,
    accel_fresh: bool,
    last_timings: StepTimings,
    /// Scratch arena for [`Simulation::step`]; [`Simulation::step_into`]
    /// borrows a caller-owned one instead.
    ws: SimWorkspace,
}

impl Simulation {
    /// Create a simulation with a solver of the given kind.
    ///
    /// An empty state is rejected as [`SolverError::EmptySystem`] rather
    /// than deferred to a bbox/tree panic on the first step, and
    /// [`Stepping::TaskGraph`] where no fused step exists as
    /// [`SolverError::Unsupported`] rather than run as barriers.
    pub fn new(state: SystemState, kind: SolverKind, opts: SimOptions) -> Result<Self, SolverError> {
        if state.is_empty() {
            return Err(SolverError::EmptySystem);
        }
        let no_graph_step = [
            (!kind.is_tree(), "the all-pairs solvers"),
            (opts.policy == DynPolicy::Seq, "the sequential policy"),
        ];
        if let (Stepping::TaskGraph, Some((_, with))) =
            (opts.stepping, no_graph_step.into_iter().find(|(hit, _)| *hit))
        {
            return Err(SolverError::Unsupported { stepping: opts.stepping, with });
        }
        let solver = make_solver(kind, opts.policy, opts.solver_params())?;
        Ok(Self::with_solver(state, solver, opts))
    }

    /// Create a simulation with a caller-provided solver. Under
    /// [`Stepping::TaskGraph`] a solver without a fused step
    /// ([`ForceSolver::step_dag`] returns `None`) is stepped with barriers.
    pub fn with_solver(state: SystemState, solver: Box<dyn ForceSolver>, opts: SimOptions) -> Self {
        let n = state.len();
        Simulation {
            state,
            solver,
            accel: vec![Vec3::ZERO; n],
            opts,
            time: 0.0,
            steps_done: 0,
            accel_fresh: false,
            last_timings: StepTimings::default(),
            ws: SimWorkspace::new(),
        }
    }

    #[inline]
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Mutable state access. Intended for the fault-injection and recovery
    /// layers ([`crate::guard`]); mutating positions invalidates the cached
    /// accelerations only in ways the health watchdog is designed to catch.
    #[inline]
    pub fn state_mut(&mut self) -> &mut SystemState {
        &mut self.state
    }

    /// Consume the simulation and return the final state.
    pub fn into_state(self) -> SystemState {
        self.state
    }

    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    #[inline]
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    #[inline]
    pub fn solver(&self) -> &dyn ForceSolver {
        self.solver.as_ref()
    }

    /// Mutable solver access (the guard arms injected faults through it).
    #[inline]
    pub fn solver_mut(&mut self) -> &mut dyn ForceSolver {
        self.solver.as_mut()
    }

    /// The simulation options.
    #[inline]
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Change the time step mid-run (the recovery ladder replays suspect
    /// windows at `dt/2`). Takes effect from the next step.
    #[inline]
    pub fn set_dt(&mut self, dt: f64) {
        self.opts.dt = dt;
    }

    /// The integrator's internal clock: `(time, steps_done, accel_fresh)` —
    /// everything beyond [`Simulation::state`] and
    /// [`Simulation::accelerations`] that a rollback point must capture.
    #[inline]
    pub fn clock(&self) -> (f64, usize, bool) {
        (self.time, self.steps_done, self.accel_fresh)
    }

    /// Restore the simulation to a previously captured rollback point:
    /// state arrays, cached accelerations, and internal clock, and the
    /// solver is told that whatever tree it carried belongs to the timeline
    /// just discarded ([`ForceSolver::invalidate`]). Copies into the
    /// existing buffers, so restoring to the same body count allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if the array lengths disagree with each other.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_from_parts(
        &mut self,
        positions: &[Vec3],
        velocities: &[Vec3],
        masses: &[f64],
        accel: &[Vec3],
        time: f64,
        steps_done: usize,
        accel_fresh: bool,
    ) {
        assert_eq!(positions.len(), velocities.len(), "positions/velocities length mismatch");
        assert_eq!(positions.len(), masses.len(), "positions/masses length mismatch");
        assert_eq!(positions.len(), accel.len(), "positions/accel length mismatch");
        self.state.positions.clear();
        self.state.positions.extend_from_slice(positions);
        self.state.velocities.clear();
        self.state.velocities.extend_from_slice(velocities);
        self.state.masses.clear();
        self.state.masses.extend_from_slice(masses);
        self.accel.clear();
        self.accel.extend_from_slice(accel);
        self.time = time;
        self.steps_done = steps_done;
        self.accel_fresh = accel_fresh;
        self.solver.invalidate();
    }

    /// Timings of the most recent step.
    #[inline]
    pub fn last_timings(&self) -> StepTimings {
        self.last_timings
    }

    /// Current accelerations (valid after the first step).
    #[inline]
    pub fn accelerations(&self) -> &[Vec3] {
        &self.accel
    }

    /// Advance one time step with the configured integrator, drawing
    /// scratch from the simulation's own workspace. Returns the phase
    /// timings of this step (force timings + position update).
    pub fn step(&mut self) -> StepTimings {
        // Detach the owned workspace so `step_into` can borrow both it and
        // `self` — `SimWorkspace::default()` allocates nothing.
        let mut ws = std::mem::take(&mut self.ws);
        let timings = self.step_into(&mut ws);
        self.ws = ws;
        timings
    }

    /// [`Simulation::step`] drawing every transient buffer from a
    /// caller-owned [`SimWorkspace`] — the zero-steady-state-allocation
    /// entry point. The workspace may be shared across simulations and
    /// across changing body counts; buffers grow to the high-water mark
    /// and are never shrunk.
    ///
    /// # Panics
    /// If the force pass fails ([`Simulation::try_step_into`] returns the
    /// error instead).
    pub fn step_into(&mut self, ws: &mut SimWorkspace) -> StepTimings {
        match self.try_step_into(ws) {
            Ok(t) => t,
            Err(e) => panic!("{} force computation failed: {e}", self.solver.name()),
        }
    }

    /// [`Simulation::step_into`] that returns a failed force pass (a tree
    /// build that gave up) instead of panicking. On `Err` the step is half
    /// done — bodies may have drifted, the clock has not moved — so the
    /// caller must restore a rollback point before stepping again; the
    /// guard ([`crate::guard`]) is that caller.
    pub fn try_step_into(&mut self, ws: &mut SimWorkspace) -> Result<StepTimings, ComputeError> {
        // The leapfrog is the one integrator. Both step shapes open with a
        // kick, so the first step seeds the accelerations with a barrier
        // force evaluation.
        if !self.accel_fresh {
            self.last_timings =
                self.solver.try_compute_into(&self.state, &mut self.accel, false, ws)?;
            self.accel_fresh = true;
        }
        let mut timings = match self.try_step_dag(ws) {
            Some(t) => t?,
            None => self.step_leapfrog(ws)?,
        };
        // Barrier steps time phases as exclusive wall windows; derive the
        // busy attribution from them so `StepTimings::busy` is populated in
        // both stepping modes (fused steps filled it from the tile busy
        // table already).
        if timings.busy.total() == 0 {
            timings.busy = PhaseBusy::from_wall(&timings);
        }
        self.time += self.opts.dt;
        self.steps_done += 1;
        self.last_timings = timings;
        record_step_telemetry(&timings);
        Ok(timings)
    }

    /// Attempt a fused step ([`crate::dag`]). `None` when barrier stepping
    /// is selected or a caller-supplied solver has no fused step — the
    /// caller runs the bitwise-equivalent barrier path.
    fn try_step_dag(&mut self, ws: &mut SimWorkspace) -> Option<Result<StepTimings, ComputeError>> {
        if self.opts.stepping != Stepping::TaskGraph {
            return None;
        }
        let reuse = self.reuse_this_step();
        let dt = self.opts.dt;
        self.solver.step_dag(&mut self.state, &mut self.accel, dt, reuse, ws)
    }

    fn reuse_this_step(&self) -> bool {
        self.opts.tree_rebuild_every > 1
            && !(self.steps_done + 1).is_multiple_of(self.opts.tree_rebuild_every)
    }

    /// Kick-drift-kick Störmer-Verlet (paper Algorithm 2's UPDATEPOSITION
    /// around the force phases).
    fn step_leapfrog(&mut self, ws: &mut SimWorkspace) -> Result<StepTimings, ComputeError> {
        let dt = self.opts.dt;
        let half = 0.5 * dt;
        let mut opening = StepTimings::default();

        // Kick + drift (UPDATEPOSITION, part 1).
        let policy = self.opts.policy;
        timed_counted(&mut opening.update, &mut opening.allocs.update, || {
            let vel = SyncSlice::new(&mut self.state.velocities);
            let pos = SyncSlice::new(&mut self.state.positions);
            let acc = &self.accel;
            dispatch_update(policy, vel.len(), |i| unsafe {
                kick_drift(vel.get_mut(i), pos.get_mut(i), acc[i], half, dt)
            });
        });

        // New forces at the drifted positions.
        let reuse = self.reuse_this_step();
        let mut timings = self.solver.try_compute_into(&self.state, &mut self.accel, reuse, ws)?;
        timings.update += opening.update;
        timings.allocs.update += opening.allocs.update;

        // Kick (UPDATEPOSITION, part 2).
        timed_counted(&mut timings.update, &mut timings.allocs.update, || {
            let vel = SyncSlice::new(&mut self.state.velocities);
            let acc = &self.accel;
            dispatch_update(policy, vel.len(), |i| unsafe { kick(vel.get_mut(i), acc[i], half) });
        });
        Ok(timings)
    }

    /// Advance `n` steps, returning the summed timings.
    pub fn run(&mut self, n: usize) -> StepTimings {
        let mut total = StepTimings::default();
        for _ in 0..n {
            let t = self.step();
            total.accumulate(&t);
        }
        total
    }
}

/// UPDATEPOSITION part 1 for one body: the opening half-kick, then the
/// drift. The barrier loop and the fused step's kick-drift tiles
/// ([`crate::dag`]) both run this function, which is what makes the two
/// executors bitwise equal.
#[inline]
pub(crate) fn kick_drift(v: &mut Vec3, x: &mut Vec3, a: Vec3, half: f64, dt: f64) {
    *v += a * half;
    *x += *v * dt;
}

/// UPDATEPOSITION part 2 for one body: the closing half-kick (`Kick2` tiles).
#[inline]
pub(crate) fn kick(v: &mut Vec3, a: Vec3, half: f64) {
    *v += a * half;
}

fn dispatch_update(policy: DynPolicy, n: usize, f: impl Fn(usize) + Sync + Send) {
    match policy {
        DynPolicy::Seq => for_each_index(Seq, 0..n, f),
        DynPolicy::Par => for_each_index(Par, 0..n, f),
        DynPolicy::ParUnseq => for_each_index(ParUnseq, 0..n, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Diagnostics;
    use crate::workload::galaxy_collision;

    #[test]
    fn two_body_circular_orbit_conserves_energy_and_returns() {
        // Two equal masses in mutual circular orbit: period T = 2π for
        // m = 0.5 each, separation 1, G = 1 (ω² r³ = GM_total with r the
        // separation ⇒ ω = 1).
        let state = SystemState::from_parts(
            vec![Vec3::new(0.5, 0.0, 0.0), Vec3::new(-0.5, 0.0, 0.0)],
            vec![Vec3::new(0.0, 0.5, 0.0), Vec3::new(0.0, -0.5, 0.0)],
            vec![0.5, 0.5],
        );
        let dt = 1e-3;
        let steps = (2.0 * std::f64::consts::PI / dt) as usize;
        let opts = SimOptions { dt, softening: 0.0, theta: 0.0, ..SimOptions::default() };
        let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
        let e0 = Diagnostics::measure(sim.state(), 1.0, 0.0).total_energy;
        sim.run(steps);
        let e1 = Diagnostics::measure(sim.state(), 1.0, 0.0).total_energy;
        assert!((e1 - e0).abs() < 1e-6 * e0.abs(), "energy drift {e0} -> {e1}");
        // One full period returns to the start.
        assert!((sim.state().positions[0] - Vec3::new(0.5, 0.0, 0.0)).norm() < 5e-3);
    }

    #[test]
    fn leapfrog_is_second_order() {
        // Halving dt must reduce the position error ~4x on a Kepler orbit.
        let make = |dt: f64| {
            let state = SystemState::from_parts(
                vec![Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO],
                vec![Vec3::new(0.0, 1.0, 0.0), Vec3::ZERO],
                vec![1e-12, 1.0],
            );
            let opts = SimOptions { dt, softening: 0.0, theta: 0.0, ..SimOptions::default() };
            let steps = (1.0 / dt).round() as usize; // integrate to t = 1
            let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
            sim.run(steps);
            sim.state().positions[0]
        };
        // Exact: circular orbit of radius 1, ω = 1 → angle 1 rad at t = 1.
        let exact = Vec3::new(1.0f64.cos(), 1.0f64.sin(), 0.0);
        let err_a = (make(2e-3) - exact).norm();
        let err_b = (make(1e-3) - exact).norm();
        let order = (err_a / err_b).log2();
        assert!(order > 1.6, "convergence order {order} (errors {err_a}, {err_b})");
    }

    #[test]
    fn all_solvers_agree_over_a_few_steps() {
        let state = galaxy_collision(300, 17);
        let opts = SimOptions { dt: 1e-3, theta: 0.0, ..SimOptions::default() };
        let mut finals = vec![];
        for kind in SolverKind::ALL {
            let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
            sim.run(5);
            finals.push((kind, sim.into_state()));
        }
        let (_, reference) = &finals[0];
        for (kind, s) in &finals[1..] {
            let err = crate::diagnostics::l2_error(&reference.positions, &s.positions);
            assert!(err < 1e-9, "{} diverged: L2 {err}", kind.name());
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let state = galaxy_collision(500, 18);
        let opts = SimOptions::default();
        let mut sim = Simulation::new(state, SolverKind::Octree, opts).unwrap();
        sim.run(10);
        // Tree approximation breaks exact symmetry, but softened leapfrog
        // with θ=0.5 keeps net momentum tiny relative to |p| scale Σm|v|.
        let p = sim.state().momentum().norm();
        let scale: f64 = sim
            .state()
            .masses
            .iter()
            .zip(&sim.state().velocities)
            .map(|(m, v)| m * v.norm())
            .sum();
        assert!(p < 1e-3 * scale, "momentum {p} vs scale {scale}");
    }

    #[test]
    fn tree_reuse_runs_and_stays_close() {
        let state = galaxy_collision(400, 19);
        let exact_opts = SimOptions { dt: 5e-4, ..SimOptions::default() };
        let reuse_opts = SimOptions { dt: 5e-4, tree_rebuild_every: 4, ..SimOptions::default() };
        let mut a = Simulation::new(state.clone(), SolverKind::Octree, exact_opts).unwrap();
        let mut b = Simulation::new(state, SolverKind::Octree, reuse_opts).unwrap();
        a.run(8);
        b.run(8);
        let err = crate::diagnostics::l2_error(&a.state().positions, &b.state().positions);
        // Reuse is an approximation: small but nonzero deviation.
        assert!(err < 1e-2, "tree reuse error {err}");
        assert!(b.state().is_valid());
    }

    #[test]
    fn integrator_energy_hierarchy() {
        // The leapfrog keeps a two-body orbit's energy to 1e-4 over 2000
        // steps (explicit Euler drifts past 1e-3 on this orbit).
        let orbit = SystemState::from_parts(
            vec![Vec3::new(0.5, 0.0, 0.0), Vec3::new(-0.5, 0.0, 0.0)],
            vec![Vec3::new(0.0, 0.5, 0.0), Vec3::new(0.0, -0.5, 0.0)],
            vec![0.5, 0.5],
        );
        let opts = SimOptions { dt: 5e-3, theta: 0.0, softening: 0.0, ..SimOptions::default() };
        assert_eq!(opts.integrator.name(), "leapfrog-kdk");
        let mut sim = Simulation::new(orbit, SolverKind::AllPairs, opts).unwrap();
        let e0 = Diagnostics::measure(sim.state(), 1.0, 0.0).total_energy;
        sim.run(2000);
        let e1 = Diagnostics::measure(sim.state(), 1.0, 0.0).total_energy;
        let leapfrog = ((e1 - e0) / e0).abs();
        assert!(leapfrog < 1e-4, "leapfrog drift {leapfrog}");
    }

    #[test]
    fn step_counts_and_time_advance() {
        let state = galaxy_collision(100, 20);
        let mut sim = Simulation::new(
            state,
            SolverKind::Bvh,
            SimOptions { dt: 0.25, ..SimOptions::default() },
        )
        .unwrap();
        sim.run(4);
        assert_eq!(sim.steps_done(), 4);
        assert!((sim.time() - 1.0).abs() < 1e-12);
        assert!(sim.last_timings().force.as_nanos() > 0);
    }
}
