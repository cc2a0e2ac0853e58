//! The resilient solver wrapper: typed step failures, per-step retry, and a
//! configurable fallback chain.
//!
//! The paper's solvers assume a healthy substrate: locks release, node
//! pools suffice, positions are finite. [`ResilientSolver`] drops that
//! assumption. Each step it runs the preferred solver's fallible path
//! ([`crate::solver::ForceSolver::try_compute`]), checks the inputs and the
//! produced accelerations, and on failure retries — first on the same
//! solver (transient faults: a stuck lock or an injected allocation cap is
//! gone after a rebuild), then by degrading down a fallback chain, by
//! default Octree → BVH → All-Pairs, trading speed for unconditional
//! progress (the `O(N²)` baseline has no tree to corrupt).
//!
//! When no fault occurs the wrapper adds only read-only checks, so its
//! output is **bit-for-bit identical** to the wrapped solver's.
//!
//! Fault injection for tests is deterministic: a seeded
//! [`FaultInjector`] decides per step which faults fire, and every
//! recovery is tallied in [`RecoveryCounters`].

use crate::solver::{make_solver, ForceSolver, SolverKind, SolverParams};
use crate::system::SystemState;
use crate::timing::StepTimings;
use crate::workspace::SimWorkspace;
use nbody_math::Vec3;
use nbody_resilience::{BuildError, FaultInjector, FaultKind, RecoveryCounters};
use nbody_telemetry::record;
use stdpar::policy::DynPolicy;

/// Mirror a [`RecoveryCounters`] delta into the global telemetry counters,
/// so snapshots re-export the recovery story without `nbody-resilience`
/// depending on the telemetry crate. Computing the delta from the solver's
/// own counters (rather than double-recording at each site) keeps the two
/// tallies in lock-step by construction.
fn record_recovery_delta(before: &RecoveryCounters, after: &RecoveryCounters) {
    use nbody_telemetry::metrics as m;
    let pairs = [
        (&m::RESILIENT_BUILD_RETRIES, after.build_retries - before.build_retries),
        (&m::RESILIENT_FALLBACKS, after.fallbacks - before.fallbacks),
        (&m::RESILIENT_INVALID_STATES, after.invalid_states - before.invalid_states),
        (&m::RESILIENT_NONFINITE_ACCELS, after.nonfinite_accels - before.nonfinite_accels),
        (&m::RESILIENT_SPIN_EXHAUSTIONS, after.spin_exhaustions - before.spin_exhaustions),
        (&m::RESILIENT_POOL_EXHAUSTIONS, after.pool_exhaustions - before.pool_exhaustions),
        (&m::RESILIENT_SLOW_WORKERS, after.slow_workers - before.slow_workers),
    ];
    for (counter, delta) in pairs {
        if delta > 0 {
            counter.add(delta);
        }
    }
}

/// A step-level failure: either the acceleration structure could not be
/// built, or the physics it produced is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeError {
    /// Tree construction failed (see [`BuildError`]).
    Build(BuildError),
    /// An output acceleration was NaN/infinite.
    NonFiniteAccel {
        /// Index of the first offending body.
        body: usize,
    },
    /// Post-build validation found a structural violation.
    InvariantViolation(String),
}

impl std::fmt::Display for ComputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeError::Build(e) => write!(f, "build failed: {e}"),
            ComputeError::NonFiniteAccel { body } => {
                write!(f, "non-finite acceleration for body {body}")
            }
            ComputeError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for ComputeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComputeError::Build(e) => Some(e),
            _ => None,
        }
    }
}

/// Configuration of [`ResilientSolver`].
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Solvers to try, most preferred first. Must be non-empty.
    pub chain: Vec<SolverKind>,
    /// Execution policy for every solver in the chain. Solvers whose policy
    /// requirement rejects it (e.g. Octree under `ParUnseq`) are skipped.
    pub policy: DynPolicy,
    /// Physics/accuracy parameters shared by the whole chain.
    pub params: SolverParams,
    /// Attempts per solver per step before falling back (≥ 1). The retry
    /// matters: one-shot faults (a stuck lock, an exhausted pool) clear on
    /// rebuild, so the preferred solver usually recovers without degrading.
    pub max_attempts_per_solver: u32,
    /// Run the solver's structural validation after each successful
    /// compute (costly; intended for tests and debugging runs).
    pub validate_builds: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            chain: vec![SolverKind::Octree, SolverKind::Bvh, SolverKind::AllPairs],
            policy: DynPolicy::Par,
            params: SolverParams::default(),
            max_attempts_per_solver: 2,
            validate_builds: false,
        }
    }
}

/// A [`ForceSolver`] that survives build failures, livelocks, and corrupted
/// state by retrying and degrading down a fallback chain. See the module
/// docs for the recovery policy.
pub struct ResilientSolver {
    config: ResilientConfig,
    /// Lazily constructed chain members (index-aligned with `config.chain`).
    solvers: Vec<Option<Box<dyn ForceSolver>>>,
    injector: Option<FaultInjector>,
    counters: RecoveryCounters,
    /// Monotone step counter driving the injector schedule.
    step: u64,
    /// Chain level that served the most recent step (diagnostics).
    last_level: usize,
    /// Floor on the chain level: levels below this are skipped. Raised by
    /// [`ForceSolver::escalate_fallback`] when an outer recovery layer has
    /// lost confidence in the preferred solver; 0 = unrestricted.
    min_level: usize,
}

impl ResilientSolver {
    /// Wrap the default chain (Octree → BVH → All-Pairs) under `Par`.
    pub fn new(params: SolverParams) -> Self {
        Self::with_config(ResilientConfig { params, ..ResilientConfig::default() })
    }

    /// Wrap an explicit configuration.
    ///
    /// # Panics
    /// If the chain is empty or every attempt limit is zero.
    pub fn with_config(config: ResilientConfig) -> Self {
        assert!(!config.chain.is_empty(), "fallback chain must name at least one solver");
        assert!(config.max_attempts_per_solver >= 1, "need at least one attempt per solver");
        let n = config.chain.len();
        ResilientSolver {
            config,
            solvers: (0..n).map(|_| None).collect(),
            injector: None,
            counters: RecoveryCounters::new(),
            step: 0,
            last_level: 0,
            min_level: 0,
        }
    }

    /// Attach a deterministic fault schedule (tests/chaos runs).
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Builder-style variant of [`ResilientSolver::set_injector`].
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Recovery actions taken so far.
    pub fn counters(&self) -> &RecoveryCounters {
        &self.counters
    }

    /// Chain level (0 = most preferred) that served the last step.
    pub fn last_level(&self) -> usize {
        self.last_level
    }

    /// Current floor on the chain level (see
    /// [`ForceSolver::escalate_fallback`]).
    pub fn min_level(&self) -> usize {
        self.min_level
    }

    /// Solver kind that served the last step.
    pub fn last_kind(&self) -> SolverKind {
        self.config.chain[self.last_level]
    }

    /// Get (constructing on first use) the solver at chain position
    /// `level`; `None` when the configured policy is rejected by that
    /// solver's forward-progress requirement. Takes the fields apart so the
    /// caller keeps access to the counters while holding the solver.
    fn solver_at<'a>(
        solvers: &'a mut [Option<Box<dyn ForceSolver>>],
        config: &ResilientConfig,
        level: usize,
    ) -> Option<&'a mut Box<dyn ForceSolver>> {
        if solvers[level].is_none() {
            let kind = config.chain[level];
            match make_solver(kind, config.policy, config.params) {
                Ok(s) => solvers[level] = Some(s),
                Err(_) => return None,
            }
        }
        solvers[level].as_mut()
    }

    /// Corrupt a copy of `state` the way the NaN-positions fault does: one
    /// poisoned coordinate, deterministically placed.
    fn corrupt_state(state: &SystemState) -> SystemState {
        let mut bad = state.clone();
        if let Some(p) = bad.positions.first_mut() {
            p.x = f64::NAN;
        }
        bad
    }
}

impl ForceSolver for ResilientSolver {
    fn kind(&self) -> SolverKind {
        self.config.chain[self.last_level]
    }

    fn name(&self) -> &'static str {
        "resilient"
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let step = self.step;
        self.step += 1;
        let counters_at_entry = self.counters;
        let faults =
            self.injector.as_ref().map(|i| i.faults_at(step)).unwrap_or_default();
        if faults.contains(&FaultKind::SlowWorker) {
            // A slow worker harms latency, not correctness; the scheduler
            // harness in `progress-sim` exercises it. Here it is tallied so
            // chaos runs can report complete schedules.
            self.counters.slow_workers += 1;
        }
        // The corrupted state exists only while its fault is live: the
        // first attempt sees it, every retry sees the pristine input.
        let corrupted = faults
            .contains(&FaultKind::NanPositions)
            .then(|| Self::corrupt_state(state));

        let chain_len = self.config.chain.len();
        let attempts = self.config.max_attempts_per_solver;
        let start_level = self.min_level.min(chain_len - 1);
        let mut last_err: Option<ComputeError> = None;
        for level in start_level..chain_len {
            let validate = self.config.validate_builds;
            let Some(solver) = Self::solver_at(&mut self.solvers, &self.config, level) else {
                continue; // policy rejected at this level; not a fallback
            };
            for attempt in 0..attempts {
                let first = level == start_level && attempt == 0;
                if first {
                    for &f in &faults {
                        if matches!(f, FaultKind::StuckLock | FaultKind::AllocExhaustion) {
                            solver.inject_fault(f);
                        }
                    }
                }
                let input: &SystemState = match (&corrupted, first) {
                    (Some(bad), true) => bad,
                    _ => state,
                };
                if !input.is_valid() {
                    self.counters.invalid_states += 1;
                    last_err = Some(ComputeError::Build(BuildError::InvalidPositions));
                    continue;
                }
                // The whole chain draws from the one shared workspace:
                // scratch shapes are solver-keyed (ws.octree / ws.bvh), so
                // a fallback step warms the fallback's buffers once and
                // reuses them on every later degradation.
                match solver.try_compute_into(input, accel, reuse, ws) {
                    Ok(t) => {
                        if let Some(body) = accel.iter().position(|a| !a.is_finite()) {
                            self.counters.nonfinite_accels += 1;
                            last_err = Some(ComputeError::NonFiniteAccel { body });
                            continue;
                        }
                        if validate {
                            if let Err(e) = solver.validate(input) {
                                last_err = Some(e);
                                continue;
                            }
                        }
                        if attempt > 0 || level > 0 {
                            self.counters.build_retries += u64::from(attempt > 0);
                        }
                        self.last_level = level;
                        record!(counter RESILIENT_STEPS, 1);
                        record!(hist RESILIENT_FALLBACK_LEVEL, level as u64);
                        record_recovery_delta(&counters_at_entry, &self.counters);
                        return Ok(t);
                    }
                    Err(e) => {
                        if let ComputeError::Build(be) = e {
                            self.counters.record_build_error(be);
                        }
                        last_err = Some(e);
                    }
                }
            }
            if level + 1 < chain_len {
                self.counters.fallbacks += 1;
            }
        }
        record_recovery_delta(&counters_at_entry, &self.counters);
        Err(last_err.unwrap_or_else(|| {
            ComputeError::InvariantViolation("no usable solver in the fallback chain".into())
        }))
    }

    /// Any level may serve the next step, so every constructed one forgets
    /// its tree.
    fn invalidate(&mut self) {
        for solver in self.solvers.iter_mut().flatten() {
            solver.invalidate();
        }
    }

    fn escalate_fallback(&mut self, min_level: usize) -> bool {
        // Clamp so an over-eager escalation still leaves the last-resort
        // solver reachable rather than emptying the chain.
        self.min_level = min_level.min(self.config.chain.len() - 1);
        min_level < self.config.chain.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::galaxy_collision;

    fn params() -> SolverParams {
        SolverParams { softening: 1e-3, ..SolverParams::default() }
    }

    #[test]
    fn no_fault_is_bit_for_bit_identical_to_plain_solver() {
        // Seq is fully deterministic, so equality must be exact.
        let state = galaxy_collision(300, 41);
        let cfg = ResilientConfig {
            policy: DynPolicy::Seq,
            params: params(),
            ..ResilientConfig::default()
        };
        let mut plain = make_solver(SolverKind::Octree, DynPolicy::Seq, params()).unwrap();
        let mut wrapped = ResilientSolver::with_config(cfg);
        let mut a = vec![Vec3::ZERO; state.len()];
        let mut b = vec![Vec3::ZERO; state.len()];
        plain.compute(&state, &mut a, false);
        wrapped.compute(&state, &mut b, false);
        assert_eq!(a, b, "wrapper must not perturb a healthy step");
        assert_eq!(wrapped.counters().total_recoveries(), 0);
        assert_eq!(wrapped.last_kind(), SolverKind::Octree);
    }

    #[test]
    fn stuck_lock_recovers_on_retry() {
        let state = galaxy_collision(200, 42);
        let mut solver = ResilientSolver::with_config(ResilientConfig {
            policy: DynPolicy::Par,
            params: params(),
            ..ResilientConfig::default()
        });
        solver.set_injector(FaultInjector::new(7).at_step(0, FaultKind::StuckLock));
        // Budget must be small or the test spins 2^24 times first.
        // (Injected via the solver: arm, then shrink through a rebuild.)
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.try_compute(&state, &mut acc, false).unwrap();
        let c = solver.counters();
        assert_eq!(c.spin_exhaustions, 1, "{c}");
        assert_eq!(c.build_retries, 1, "{c}");
        assert_eq!(c.fallbacks, 0, "recovered without degrading: {c}");
        assert_eq!(solver.last_kind(), SolverKind::Octree);
        assert!(acc.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn alloc_exhaustion_recovers_on_retry() {
        let state = galaxy_collision(200, 43);
        let mut solver = ResilientSolver::new(params())
            .with_injector(FaultInjector::new(8).at_step(0, FaultKind::AllocExhaustion));
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.try_compute(&state, &mut acc, false).unwrap();
        let c = solver.counters();
        assert_eq!(c.pool_exhaustions, 1, "{c}");
        assert_eq!(c.build_retries, 1, "{c}");
        assert_eq!(c.fallbacks, 0, "{c}");
    }

    #[test]
    fn nan_positions_detected_and_recovered() {
        let state = galaxy_collision(150, 44);
        let mut solver = ResilientSolver::new(params())
            .with_injector(FaultInjector::new(9).at_step(0, FaultKind::NanPositions));
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.try_compute(&state, &mut acc, false).unwrap();
        let c = solver.counters();
        assert_eq!(c.invalid_states, 1, "{c}");
        assert!(acc.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn single_attempt_forces_fallback_to_bvh() {
        let state = galaxy_collision(200, 45);
        let mut solver = ResilientSolver::with_config(ResilientConfig {
            params: params(),
            max_attempts_per_solver: 1,
            ..ResilientConfig::default()
        });
        solver.set_injector(FaultInjector::new(10).at_step(0, FaultKind::AllocExhaustion));
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.try_compute(&state, &mut acc, false).unwrap();
        let c = solver.counters();
        assert_eq!(c.fallbacks, 1, "{c}");
        assert_eq!(solver.last_kind(), SolverKind::Bvh);
        // The next, fault-free step goes straight back to the octree.
        solver.try_compute(&state, &mut acc, false).unwrap();
        assert_eq!(solver.last_kind(), SolverKind::Octree);
    }

    #[test]
    fn same_seed_reproduces_recovery_history() {
        let state = galaxy_collision(150, 46);
        let run = || {
            let mut solver = ResilientSolver::new(params()).with_injector(
                FaultInjector::new(0xFA_17)
                    .with_rate(FaultKind::AllocExhaustion, 0.3)
                    .with_rate(FaultKind::NanPositions, 0.2),
            );
            let mut acc = vec![Vec3::ZERO; state.len()];
            for _ in 0..20 {
                solver.try_compute(&state, &mut acc, false).unwrap();
            }
            *solver.counters()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "recovery history must be a pure function of the seed");
        assert!(a.total_recoveries() > 0, "schedule should have fired at least once: {a}");
    }

    #[test]
    fn empty_and_single_body_states() {
        for n in [0usize, 1] {
            let state = if n == 0 {
                SystemState::new()
            } else {
                SystemState::from_parts(vec![Vec3::ONE], vec![Vec3::ZERO], vec![1.0])
            };
            let mut solver = ResilientSolver::new(params());
            let mut acc = vec![Vec3::ZERO; n];
            solver.try_compute(&state, &mut acc, false).unwrap();
            assert!(acc.iter().all(|a| *a == Vec3::ZERO));
        }
    }

    #[test]
    fn escalation_floor_skips_preferred_levels() {
        let state = galaxy_collision(150, 47);
        let mut solver = ResilientSolver::new(params());
        let mut acc = vec![Vec3::ZERO; state.len()];
        use crate::solver::ForceSolver as _;
        assert!(solver.escalate_fallback(1));
        solver.try_compute(&state, &mut acc, false).unwrap();
        assert_eq!(solver.last_kind(), SolverKind::Bvh);
        assert_eq!(solver.min_level(), 1);
        // An out-of-range request clamps to the last resort (and reports
        // that the requested level itself was unreachable).
        assert!(!solver.escalate_fallback(99));
        solver.try_compute(&state, &mut acc, false).unwrap();
        assert_eq!(solver.last_kind(), SolverKind::AllPairs);
        // Lifting the floor restores the preferred solver.
        assert!(solver.escalate_fallback(0));
        solver.try_compute(&state, &mut acc, false).unwrap();
        assert_eq!(solver.last_kind(), SolverKind::Octree);
    }

    #[test]
    #[should_panic(expected = "fallback chain must name at least one solver")]
    fn empty_chain_rejected() {
        let _ = ResilientSolver::with_config(ResilientConfig {
            chain: vec![],
            ..ResilientConfig::default()
        });
    }

    #[test]
    fn compute_error_display_and_source() {
        let e = ComputeError::Build(BuildError::PoolExhausted { requested_nodes: 8 });
        assert!(e.to_string().contains("build failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ComputeError::NonFiniteAccel { body: 3 };
        assert!(e.to_string().contains("body 3"));
    }
}
