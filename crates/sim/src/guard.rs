//! Self-healing stepping: watchdog + checkpoints + an escalating recovery
//! ladder — the one recovery system of the workspace.
//!
//! [`GuardedSimulation`] wraps a [`Simulation`] so that a force pass that
//! fails (a tree build that gave up, e.g. on a stuck lock) and *state*
//! corruption (a NaN seeded by a torn write, a position teleported by a
//! flipped bit) are caught within a micro-step and repaired by rollback
//! instead of panicking or poisoning the rest of the run.
//!
//! Per logical step (one `base_dt` of physical time):
//!
//! 1. arm any scheduled [`FaultKind::StuckLock`] on the solver, advance the
//!    inner simulation ([`Simulation::try_step_into`]), apply any scheduled
//!    state faults, then judge the resulting state with the
//!    [`HealthMonitor`];
//! 2. `Healthy` → accept; on the configured cadence, record an in-memory
//!    rollback point ([`CheckpointRing`]) and/or a durable CRC-sealed
//!    on-disk checkpoint ([`crate::io::save_atomic`]);
//! 3. `Suspect` → retry via the ladder, but *accept* after
//!    [`GuardConfig::suspect_amnesty`] consecutive suspect verdicts —
//!    violent-but-honest physics (a close encounter) must not rollback-loop;
//! 4. `Corrupt` (hard evidence: non-finite state), or a failed force pass
//!    (counted as corrupt) → always the ladder.
//!
//! The **recovery ladder** escalates per incident, each rung starting with
//! a rollback to the newest checksum-valid checkpoint:
//!
//! | rung | action |
//! |------|--------|
//! | 0 | plain replay (transient corruption does not recur) |
//! | 1, 2 | replay at `dt/2` for a bounded window (fragile dynamics) |
//! | 3+ | at `dt/2`, from progressively older ring checkpoints |
//!
//! Every rung consumes one unit of the whole-run
//! [`GuardConfig::max_recoveries`] budget; exhausting it yields a typed
//! [`GuardError`] — the guard degrades loudly, never silently. Once a
//! healthy step lands and the recovery window has passed, dt is restored.
//!
//! The same guard steps a solo run and every session of the multi-tenant
//! server (`nbody-server`). A session runs with a budget of 0, so its first
//! objection is a [`GuardError::RecoveryBudgetExhausted`] before any rung
//! runs — the server's quarantine — and the tenant lifts it with
//! [`GuardedSimulation::rollback`], the ladder's ring scan without a rung.
//!
//! Fault scheduling is keyed by a monotone **execution counter** that
//! advances on every attempted micro-step, *including replays*. A scripted
//! fault therefore fires once — its replay runs under fresh counter values
//! — while a rate-driven schedule keeps firing with the configured
//! probability even during replays. Everything stays a pure function of
//! the seed, so any recovery history reproduces exactly (and under
//! `Backend::DetPar`, bit-for-bit).
//!
//! The healthy path is engineered to be cheap and allocation-free: one
//! fused O(N) reduction per step, an O(N) grow-only copy per checkpoint —
//! measured by the repo benchmark (`sim.guard_overhead_frac`) and enforced by
//! the `alloc_regression` gate.

use crate::checkpoint::{CheckpointError, CheckpointRing, RestorePoint};
use crate::fault::{FaultInjector, FaultKind};
use crate::health::{HealthConfig, HealthMonitor, HealthVerdict};
use crate::integrator::{SimOptions, Simulation};
use crate::io::{self, SnapshotError};
use crate::solver::{ComputeError, SolverError, SolverKind};
use crate::system::SystemState;
use crate::timing::StepTimings;
use crate::workspace::SimWorkspace;
use nbody_telemetry::record;
use std::path::{Path, PathBuf};
use stdpar::policy::DynPolicy;

/// Policy knobs for the self-healing layer.
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Record an in-memory rollback point every this many accepted
    /// micro-steps (≥ 1).
    pub checkpoint_every: u64,
    /// In-memory rollback points kept (≥ 1).
    pub ring_capacity: usize,
    /// Whole-run recovery budget: total ladder rungs before the guard
    /// gives up with [`GuardError::RecoveryBudgetExhausted`].
    pub max_recoveries: u32,
    /// Consecutive `Suspect` verdicts tolerated (each triggering a
    /// rollback-retry) before the suspect state is accepted as honest
    /// physics.
    pub suspect_amnesty: u32,
    /// After a dt-halving rung, stay at `dt/2` for this many `base_dt`s of
    /// physical time past the restore point.
    pub recovery_window: u64,
    /// Watchdog thresholds.
    pub health: HealthConfig,
    /// Durable checkpoint file (`None` = in-memory only). The previous
    /// durable checkpoint is rotated to `<path>.prev`, so one corrupted
    /// write never strands a restart.
    pub disk_path: Option<PathBuf>,
    /// Write a durable checkpoint every this many accepted micro-steps
    /// (0 = never).
    pub disk_every: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            checkpoint_every: 4,
            ring_capacity: 3,
            max_recoveries: 32,
            suspect_amnesty: 2,
            recovery_window: 4,
            health: HealthConfig::default(),
            disk_path: None,
            disk_every: 0,
        }
    }
}

/// Terminal guard failure (recoverable failures never surface — they are
/// the guard's job).
#[derive(Debug)]
pub enum GuardError {
    /// The initial state failed the health check before any step ran.
    CorruptInitialState { reason: &'static str },
    /// The recovery budget ran out while the watchdog still objected.
    RecoveryBudgetExhausted {
        budget: u32,
        /// Inner-simulation step count when the budget died.
        steps_done: usize,
        /// The last verdict's detector.
        reason: &'static str,
    },
    /// Every in-memory checkpoint was exhausted or failed its checksum.
    NoUsableCheckpoint { steps_done: usize },
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::CorruptInitialState { reason } => {
                write!(f, "initial state failed health check: {reason}")
            }
            GuardError::RecoveryBudgetExhausted { budget, steps_done, reason } => write!(
                f,
                "recovery budget ({budget}) exhausted at step {steps_done}; last verdict: {reason}"
            ),
            GuardError::NoUsableCheckpoint { steps_done } => {
                write!(f, "no usable in-memory checkpoint at step {steps_done}")
            }
        }
    }
}

impl std::error::Error for GuardError {}

/// Tally of everything the guard did (mirrored into the telemetry
/// registry's `guard.*` counters as it happens).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Logical steps completed (each `base_dt` of physical time).
    pub steps: u64,
    /// Micro-steps attempted, including discarded and replayed ones.
    pub micro_steps: u64,
    /// `Suspect` verdicts seen.
    pub suspects: u64,
    /// `Corrupt` verdicts seen, failed force passes included.
    pub corrupts: u64,
    /// Rollbacks performed (= ladder rungs climbed).
    pub rollbacks: u64,
    /// Replays begun after a rollback.
    pub retries: u64,
    /// Rungs that halved dt.
    pub dt_halvings: u64,
    /// Rollbacks that restored a ring slot older than the newest (rungs
    /// ≥ 3, or a newest slot rejected by its digest).
    pub older_slot_restores: u64,
    /// In-memory checkpoints recorded.
    pub checkpoint_records: u64,
    /// In-memory checkpoints rejected by their digest during restore.
    pub checkpoint_rejects: u64,
    /// Suspect verdicts accepted under amnesty.
    pub suspects_accepted: u64,
    /// Durable checkpoints written.
    pub disk_checkpoints: u64,
    /// Durable checkpoint writes that failed (best-effort: counted, not
    /// fatal).
    pub disk_write_failures: u64,
}

impl GuardStats {
    /// Total recovery actions (the budget-consuming ones).
    pub fn total_recoveries(&self) -> u64 {
        self.rollbacks
    }
}

/// A [`Simulation`] wrapped in the self-healing layer. See the module docs.
pub struct GuardedSimulation {
    sim: Simulation,
    monitor: HealthMonitor,
    ring: CheckpointRing,
    cfg: GuardConfig,
    injector: Option<FaultInjector>,
    /// Monotone execution counter keying the fault schedule (advances on
    /// every attempted micro-step, including replays).
    exec: u64,
    /// Accepted micro-steps (drives checkpoint cadences).
    accepted: u64,
    recoveries: u32,
    /// Ladder rung of the incident in progress (0 = none yet this incident).
    incident_rung: u32,
    suspect_streak: u32,
    /// Physical time until which dt stays halved.
    recovery_until: Option<f64>,
    base_dt: f64,
    started: bool,
    stats: GuardStats,
    ws: SimWorkspace,
}

impl GuardedSimulation {
    /// Guard a new simulation.
    pub fn new(
        state: SystemState,
        kind: SolverKind,
        opts: SimOptions,
        cfg: GuardConfig,
    ) -> Result<Self, SolverError> {
        Ok(Self::from_simulation(Simulation::new(state, kind, opts)?, cfg))
    }

    /// Guard an existing simulation (e.g. one built with
    /// [`Simulation::with_solver`]).
    pub fn from_simulation(sim: Simulation, cfg: GuardConfig) -> Self {
        assert!(cfg.checkpoint_every >= 1, "checkpoint_every must be at least 1");
        // unwrap-ok: a zero ring_capacity is a config-construction bug on a
        // par with checkpoint_every == 0, asserted just above — this
        // constructor's contract is "panic on nonsense config", not a
        // runtime fallible path (SessionManager::try_admit is the typed one).
        let mut ring = CheckpointRing::with_capacity(cfg.ring_capacity)
            .expect("GuardConfig::ring_capacity must be at least 1");
        // Pre-size every slot now so steady-state checkpointing allocates
        // nothing (the alloc gate measures warm steps).
        ring.warm(sim.state().len());
        let monitor = HealthMonitor::new(cfg.health);
        let base_dt = sim.options().dt;
        GuardedSimulation {
            sim,
            monitor,
            ring,
            cfg,
            injector: None,
            exec: 0,
            accepted: 0,
            recoveries: 0,
            incident_rung: 0,
            suspect_streak: 0,
            recovery_until: None,
            base_dt,
            started: false,
            stats: GuardStats::default(),
            ws: SimWorkspace::new(),
        }
    }

    /// Attach a deterministic fault schedule, keyed by execution index (see
    /// the module docs).
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Builder-style [`GuardedSimulation::set_injector`].
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    #[inline]
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    #[inline]
    pub fn state(&self) -> &SystemState {
        self.sim.state()
    }

    /// Unwrap into the inner simulation.
    pub fn into_simulation(self) -> Simulation {
        self.sim
    }

    #[inline]
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Recovery budget consumed so far.
    #[inline]
    pub fn recoveries_used(&self) -> u32 {
        self.recoveries
    }

    /// The watchdog (read-only introspection).
    #[inline]
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// One-time startup: judge the *initial* state (corrupt input is an
    /// error, not something to roll back from — there is nothing behind
    /// it), then record the baseline rollback point.
    fn start(&mut self) -> Result<(), GuardError> {
        let report =
            self.monitor.check(self.sim.state(), self.base_dt, self.sim.options().policy);
        if report.verdict == HealthVerdict::Corrupt {
            return Err(GuardError::CorruptInitialState {
                reason: report.reason.unwrap_or("unknown"),
            });
        }
        self.ring.record(&self.sim, &self.monitor);
        self.stats.checkpoint_records += 1;
        record!(counter GUARD_CHECKPOINTS, 1);
        self.started = true;
        Ok(())
    }

    /// Advance one **logical** step (`base_dt` of physical time), drawing
    /// scratch from the guard's own workspace.
    pub fn step(&mut self) -> Result<StepTimings, GuardError> {
        let mut ws = std::mem::take(&mut self.ws);
        let r = self.step_into(&mut ws);
        self.ws = ws;
        r
    }

    /// Advance `n` logical steps.
    pub fn run(&mut self, n: usize) -> Result<StepTimings, GuardError> {
        let mut total = StepTimings::default();
        for _ in 0..n {
            let t = self.step()?;
            total.accumulate(&t);
        }
        Ok(total)
    }

    /// [`GuardedSimulation::step`] with a caller-owned workspace — the
    /// zero-steady-state-allocation entry point. During a recovery window
    /// the logical step internally runs several `dt/2` micro-steps; the
    /// returned timings sum every *accepted* micro-step.
    pub fn step_into(&mut self, ws: &mut SimWorkspace) -> Result<StepTimings, GuardError> {
        if !self.started {
            self.start()?;
        }
        self.maybe_close_recovery_window();
        // Slightly-early target so fp rounding of dt/2 micro-steps cannot
        // manufacture an extra step. (With dt = 0 — a valid "evaluate in
        // place" configuration — the time target is degenerate and one
        // accepted micro-step completes the logical step.)
        let target_time = self.sim.time() + self.base_dt * (1.0 - 1e-9);
        let mut total = StepTimings::default();

        loop {
            let exec = self.exec;
            self.exec += 1;
            self.stats.micro_steps += 1;
            let faults = self.injector.as_ref().map(|i| i.faults_at(exec)).unwrap_or_default();
            if faults.contains(&FaultKind::StuckLock) {
                self.sim.solver_mut().inject_fault(FaultKind::StuckLock);
            }
            let t = match self.sim.try_step_into(ws) {
                Ok(t) => t,
                Err(e) => {
                    // The step stopped half done; nothing of it is kept.
                    self.stats.corrupts += 1;
                    record!(counter GUARD_CORRUPTS, 1);
                    self.recover(match e {
                        ComputeError::Build(_) => "force pass failed: tree build gave up",
                        ComputeError::InvariantViolation(_) => {
                            "force pass failed: tree invariant violated"
                        }
                    })?;
                    continue;
                }
            };
            self.apply_state_faults(exec, &faults);
            let dt_used = self.sim.options().dt;
            let policy = self.sim.options().policy;
            // Overlap the watchdog's O(N) health reduction with sealing the
            // checkpoint the previous accepted micro-step recorded: the
            // reduction reads the simulation state, the seal reads only the
            // ring slot's private copy — disjoint, so overlapping changes
            // nothing observable (and under `Backend::DetPar` or one worker
            // the pair degenerates to sequential execution for replay). A
            // `Seq` simulation opens no region, so it runs the two in turn:
            // a served session steps inside the tick's region and must not
            // publish a nested pool job.
            let (report, ()) = if policy == DynPolicy::Seq {
                (self.monitor.check(self.sim.state(), dt_used, policy), self.ring.seal_pending())
            } else {
                let monitor = &mut self.monitor;
                let ring = &mut self.ring;
                let sim = &self.sim;
                stdpar::run_pair(
                    || monitor.check(sim.state(), dt_used, policy),
                    || ring.seal_pending(),
                )
            };
            match report.verdict {
                HealthVerdict::Healthy => {
                    self.suspect_streak = 0;
                }
                HealthVerdict::Suspect => {
                    self.stats.suspects += 1;
                    record!(counter GUARD_SUSPECTS, 1);
                    self.suspect_streak = self.suspect_streak.saturating_add(1);
                    if self.suspect_streak <= self.cfg.suspect_amnesty {
                        self.recover(report.reason.unwrap_or("suspect"))?;
                        continue;
                    }
                    // Persistent suspicion with no hard evidence: accept it
                    // as honest physics rather than rollback-looping. The
                    // streak stays saturated so the *same* episode is not
                    // re-litigated every step; a healthy verdict resets it.
                    self.stats.suspects_accepted += 1;
                    record!(counter GUARD_SUSPECTS_ACCEPTED, 1);
                }
                HealthVerdict::Corrupt => {
                    self.stats.corrupts += 1;
                    record!(counter GUARD_CORRUPTS, 1);
                    self.recover(report.reason.unwrap_or("corrupt"))?;
                    continue;
                }
            }
            // Accepted.
            total.accumulate(&t);
            self.accepted += 1;
            if self.incident_rung > 0 && self.recovery_until.is_none() {
                self.close_incident();
            }
            if self.accepted.is_multiple_of(self.cfg.checkpoint_every) {
                // Copy the payload now; the digest seal overlaps the next
                // micro-step's health check (or is forced before any
                // restore / at the next record).
                self.ring.record_deferred(&self.sim, &self.monitor);
                self.stats.checkpoint_records += 1;
                record!(counter GUARD_CHECKPOINTS, 1);
            }
            if self.cfg.disk_every > 0 && self.accepted.is_multiple_of(self.cfg.disk_every) {
                self.write_disk_checkpoint(exec);
            }
            if self.base_dt <= 0.0 || self.sim.time() >= target_time {
                break;
            }
        }

        self.stats.steps += 1;
        record!(counter GUARD_STEPS, 1);
        Ok(total)
    }

    /// Did the recovery window (halved dt) expire?
    fn maybe_close_recovery_window(&mut self) {
        if let Some(until) = self.recovery_until {
            if self.sim.time() >= until - 1e-9 * self.base_dt {
                self.recovery_until = None;
                if self.incident_rung > 0 {
                    self.close_incident();
                }
            }
        }
    }

    /// Restore normal operation after an incident has healed.
    fn close_incident(&mut self) {
        self.incident_rung = 0;
        self.sim.set_dt(self.base_dt);
    }

    /// One rung of the recovery ladder: consume budget, roll back to the
    /// newest checksum-valid checkpoint (older for deep rungs), arm the
    /// rung's mitigation.
    fn recover(&mut self, reason: &'static str) -> Result<(), GuardError> {
        if self.recoveries >= self.cfg.max_recoveries {
            return Err(GuardError::RecoveryBudgetExhausted {
                budget: self.cfg.max_recoveries,
                steps_done: self.sim.steps_done(),
                reason,
            });
        }
        self.recoveries += 1;
        self.stats.rollbacks += 1;
        record!(counter GUARD_ROLLBACKS, 1);

        let rung = self.incident_rung;
        self.incident_rung = self.incident_rung.saturating_add(1);

        // Rungs 0-2 retry from the newest point; deeper rungs assume the
        // newest checkpoint itself captured the (undetected) damage and
        // reach further back.
        let restored = self.restore_from((rung as usize).saturating_sub(2))?;
        record!(hist GUARD_ROLLBACK_AGE, restored.age as u64);
        self.stats.older_slot_restores += u64::from(restored.age > 0);
        self.stats.retries += 1;
        record!(counter GUARD_RETRIES, 1);

        match rung {
            0 => {
                // Plain replay: transient corruption does not recur (the
                // execution counter has moved on).
            }
            _ => {
                // Fragile dynamics or repeat offender: replay gently.
                self.sim.set_dt(0.5 * self.base_dt);
                self.stats.dt_halvings += 1;
                record!(counter GUARD_DT_HALVINGS, 1);
                self.recovery_until = Some(
                    restored.time + self.cfg.recovery_window as f64 * self.base_dt,
                );
            }
        }
        Ok(())
    }

    /// Roll back to the newest checksum-valid checkpoint, outside the
    /// ladder: no budget is spent and no rung is climbed. The incident in
    /// progress is closed — suspect streak cleared, dt back at `base_dt` —
    /// so the next step starts afresh from the restored state. This is how a
    /// caller that runs with `max_recoveries: 0` (the session server) lifts
    /// the stop a [`GuardError`] put on it.
    pub fn rollback(&mut self) -> Result<RestorePoint, GuardError> {
        let restored = self.restore_from(0)?;
        self.suspect_streak = 0;
        self.recovery_until = None;
        self.close_incident();
        Ok(restored)
    }

    /// The ring scan of [`GuardedSimulation::recover`] and
    /// [`GuardedSimulation::rollback`]: restore the checkpoint `start` slots
    /// back (clamped to what the ring holds), falling back to older and then
    /// newer digest-valid slots rather than dying if that one is rotted.
    fn restore_from(&mut self, start: usize) -> Result<RestorePoint, GuardError> {
        // A deferred seal may still be outstanding (the verdict that got us
        // here overlapped it, or the fault landed before the next check
        // ran); force it so the newest slot's checksum is valid to inspect.
        self.ring.seal_pending();
        let stored = self.ring.len();
        let start = start.min(stored.saturating_sub(1));
        for age in (start..stored).chain((0..start).rev()) {
            match self.ring.restore(age, &mut self.sim, &mut self.monitor) {
                Ok(p) => return Ok(p),
                Err(CheckpointError::ChecksumMismatch { .. }) => {
                    self.stats.checkpoint_rejects += 1;
                    record!(counter GUARD_CHECKPOINT_REJECTS, 1);
                }
                // ZeroCapacity is construction-only; a live ring cannot
                // report it, so both terminal arms just stop the scan.
                Err(CheckpointError::OutOfRange { .. })
                | Err(CheckpointError::ZeroCapacity) => break,
            }
        }
        Err(GuardError::NoUsableCheckpoint { steps_done: self.sim.steps_done() })
    }

    /// Apply the state faults scheduled for execution index `exec` to the
    /// freshly stepped state. (Checkpoint-file faults are applied at write
    /// time instead; see [`GuardedSimulation::write_disk_checkpoint`].)
    fn apply_state_faults(&mut self, exec: u64, faults: &[FaultKind]) {
        let Some(inj) = &self.injector else { return };
        if faults.is_empty() {
            return;
        }
        let mut rng = inj.param_stream(exec);
        let state = self.sim.state_mut();
        let n = state.len() as u64;
        if n == 0 {
            return;
        }
        for &kind in faults {
            match kind {
                FaultKind::NanInject => {
                    // A torn/omitted write: one component becomes NaN.
                    let body = rng.next_below(n) as usize;
                    let comp = rng.next_below(3);
                    let p = &mut state.positions[body];
                    match comp {
                        0 => p.x = f64::NAN,
                        1 => p.y = f64::NAN,
                        _ => p.z = f64::NAN,
                    }
                }
                FaultKind::PositionBitFlip => {
                    // A single-event upset in the top exponent bit of the
                    // body's largest-magnitude coordinate — the worst-case
                    // *quiet* corruption: the value either explodes
                    // (radius detector) or collapses to ~1e-154 of itself
                    // while staying finite (teleport detector).
                    let body = rng.next_below(n) as usize;
                    let p = &mut state.positions[body];
                    let comp = if p.x.abs() >= p.y.abs() && p.x.abs() >= p.z.abs() {
                        &mut p.x
                    } else if p.y.abs() >= p.z.abs() {
                        &mut p.y
                    } else {
                        &mut p.z
                    };
                    *comp = f64::from_bits(comp.to_bits() ^ (1u64 << 62));
                }
                // Armed on the solver before the step; applied at
                // checkpoint-write time.
                FaultKind::StuckLock
                | FaultKind::CheckpointTruncation
                | FaultKind::CheckpointBitFlip => {}
            }
        }
    }

    /// Write the durable checkpoint, rotating the previous one to
    /// `<path>.prev` first; then apply any scheduled checkpoint-file
    /// faults to the file just written (storage corruption strikes data
    /// at rest — the *next* load must detect it).
    fn write_disk_checkpoint(&mut self, exec: u64) {
        let Some(path) = self.cfg.disk_path.clone() else { return };
        if path.exists() {
            let _ = std::fs::rename(&path, prev_path(&path));
        }
        match io::save_atomic(self.sim.state(), &path) {
            Ok(()) => {
                self.stats.disk_checkpoints += 1;
                record!(counter GUARD_DISK_CHECKPOINTS, 1);
            }
            Err(_) => {
                // Durability is best-effort: a full disk must not kill a
                // healthy simulation.
                self.stats.disk_write_failures += 1;
                return;
            }
        }
        let Some(inj) = &self.injector else { return };
        let faults = inj.faults_at(exec);
        let mut rng = inj.param_stream(exec ^ 0x5EED);
        if faults.contains(&FaultKind::CheckpointTruncation) {
            let _ = truncate_file(&path, rng.next_f64());
        }
        if faults.contains(&FaultKind::CheckpointBitFlip) {
            let _ = flip_file_bit(&path, rng.next_u64());
        }
    }
}

fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

/// Keep only `fraction` of the file (a crash mid-flush).
fn truncate_file(path: &Path, fraction: f64) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let keep = (len as f64 * fraction.clamp(0.0, 0.999)) as u64;
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    Ok(())
}

/// Flip one pseudo-randomly chosen bit in place (storage rot).
fn flip_file_bit(path: &Path, r: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let len = std::fs::metadata(path)?.len();
    if len == 0 {
        return Ok(());
    }
    let offset = r % len;
    let bit = (r >> 32) % 8;
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    Ok(())
}

/// Load the most recent durable checkpoint written by a
/// [`GuardedSimulation`] with [`GuardConfig::disk_path`] set: try `path`,
/// and if it is missing or fails validation (truncated, bit-flipped,
/// checksum mismatch — all detected by the v2 snapshot format), fall back
/// to the rotated `<path>.prev`. Returns the state and whether the
/// fallback was used; if both fail, the *primary* file's error.
pub fn resume_state_from_disk(path: impl AsRef<Path>) -> Result<(SystemState, bool), SnapshotError> {
    // Empty snapshots round-trip at the io layer (that is a feature: a
    // workload can legitimately serialize an empty staging state), but a
    // *resume* needs something steppable — treat zero bodies like any
    // other validation failure and fall back to the rotated file.
    fn load_resumable(path: &Path) -> Result<SystemState, SnapshotError> {
        let state = io::try_load(path)?;
        if state.is_empty() {
            return Err(SnapshotError::EmptyBody);
        }
        Ok(state)
    }
    let path = path.as_ref();
    match load_resumable(path) {
        Ok(state) => Ok((state, false)),
        Err(primary) => match load_resumable(&prev_path(path)) {
            Ok(state) => Ok((state, true)),
            Err(_) => Err(primary),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::galaxy_collision;
    use nbody_math::Vec3;

    fn opts() -> SimOptions {
        SimOptions { dt: 1e-3, ..SimOptions::default() }
    }

    fn guarded(n: usize, seed: u64, cfg: GuardConfig) -> GuardedSimulation {
        GuardedSimulation::new(galaxy_collision(n, seed), SolverKind::Bvh, opts(), cfg).unwrap()
    }

    #[test]
    fn healthy_run_matches_unguarded_exactly() {
        let state = galaxy_collision(300, 71);
        let mut plain = Simulation::new(state.clone(), SolverKind::Bvh, opts()).unwrap();
        let mut guard = guarded(300, 71, GuardConfig::default());
        plain.run(10);
        guard.run(10).unwrap();
        assert_eq!(plain.state().positions, guard.state().positions);
        assert_eq!(plain.state().velocities, guard.state().velocities);
        let s = guard.stats();
        assert_eq!(s.steps, 10);
        assert_eq!(s.rollbacks, 0);
        assert_eq!(s.suspects, 0);
        assert!(s.checkpoint_records >= 2);
    }

    #[test]
    fn transient_nan_recovers_bit_identically() {
        // A scripted NaN injection fires once; the replay sees fresh
        // execution indices, so the accepted trajectory equals the
        // uninjected one exactly.
        let mut clean = guarded(250, 72, GuardConfig::default());
        clean.run(20).unwrap();
        let mut faulty = guarded(250, 72, GuardConfig::default())
            .with_injector(FaultInjector::new(7).at_step(5, FaultKind::NanInject));
        faulty.run(20).unwrap();
        let s = faulty.stats();
        assert_eq!(s.corrupts, 1, "{s:?}");
        assert_eq!(s.rollbacks, 1, "{s:?}");
        assert_eq!(clean.state().positions, faulty.state().positions);
        assert_eq!(clean.state().velocities, faulty.state().velocities);
    }

    #[test]
    fn bit_flip_is_detected_and_recovered() {
        let mut clean = guarded(400, 73, GuardConfig::default());
        clean.run(15).unwrap();
        let mut faulty = guarded(400, 73, GuardConfig::default())
            .with_injector(FaultInjector::new(11).at_step(4, FaultKind::PositionBitFlip));
        faulty.run(15).unwrap();
        let s = faulty.stats();
        assert!(s.suspects + s.corrupts >= 1, "bit flip went unnoticed: {s:?}");
        assert!(s.rollbacks >= 1, "{s:?}");
        assert_eq!(clean.state().positions, faulty.state().positions);
    }

    #[test]
    fn repeated_faults_climb_to_dt_halving() {
        // Faults at consecutive execution indices: the plain replay of the
        // first incident is itself hit, forcing rung 1 (halved dt).
        let inj = FaultInjector::new(13)
            .at_step(6, FaultKind::NanInject)
            .at_step(7, FaultKind::NanInject)
            .at_step(8, FaultKind::NanInject);
        let mut guard = guarded(200, 74, GuardConfig::default()).with_injector(inj);
        guard.run(20).unwrap();
        let s = guard.stats();
        assert!(s.dt_halvings >= 1, "ladder never escalated: {s:?}");
        assert!(guard.state().is_valid());
        // Window closed: dt is back at base once the run is healthy again.
        assert_eq!(guard.sim().options().dt, 1e-3);
    }

    #[test]
    fn persistent_corruption_exhausts_budget_with_typed_error() {
        let cfg = GuardConfig { max_recoveries: 5, ..GuardConfig::default() };
        let mut guard = guarded(150, 75, cfg)
            .with_injector(FaultInjector::new(17).with_rate(FaultKind::NanInject, 1.0));
        let err = guard.run(50).unwrap_err();
        match err {
            GuardError::RecoveryBudgetExhausted { budget: 5, .. } => {}
            other => panic!("expected RecoveryBudgetExhausted, got {other:?}"),
        }
        assert_eq!(guard.recoveries_used(), 5);
    }

    #[test]
    fn rollback_lifts_a_zero_budget_stop_without_a_rung() {
        // With no budget the first objection is the error, before any rung
        // runs (the session server's quarantine); `rollback` is the
        // ladder's ring scan alone.
        let cfg = GuardConfig { max_recoveries: 0, checkpoint_every: 2, ..GuardConfig::default() };
        let mut clean = guarded(120, 85, cfg.clone());
        clean.run(6).unwrap();
        let mut guard = guarded(120, 85, cfg)
            .with_injector(FaultInjector::new(31).at_step(4, FaultKind::NanInject));
        guard.run(4).unwrap();
        match guard.step() {
            Err(GuardError::RecoveryBudgetExhausted { budget: 0, reason, .. }) => {
                assert_eq!(reason, "non-finite position or velocity");
            }
            other => panic!("expected RecoveryBudgetExhausted, got {other:?}"),
        }
        // The newest slot (step 4) has rotted: the scan passes over it to
        // step 2, and the replay from there is the clean trajectory.
        guard.ring.corrupt_newest_for_test();
        let restored = guard.rollback().unwrap();
        assert_eq!((restored.steps_done, restored.age), (2, 1));
        let s = guard.stats();
        assert_eq!((s.rollbacks, s.checkpoint_rejects, guard.recoveries_used()), (0, 1, 0));
        guard.run(4).unwrap();
        assert_eq!(clean.state().positions, guard.state().positions);
        assert_eq!(clean.state().velocities, guard.state().velocities);
    }

    #[test]
    fn corrupt_initial_state_is_a_typed_error() {
        let mut state = galaxy_collision(50, 76);
        state.positions[3].x = f64::NAN;
        let mut guard =
            GuardedSimulation::new(state, SolverKind::Bvh, opts(), GuardConfig::default()).unwrap();
        match guard.step() {
            Err(GuardError::CorruptInitialState { .. }) => {}
            other => panic!("expected CorruptInitialState, got {other:?}"),
        }
    }

    #[test]
    fn recovery_history_is_reproducible() {
        let run = || {
            let mut guard = guarded(200, 77, GuardConfig::default()).with_injector(
                FaultInjector::new(0xABCD)
                    .with_rate(FaultKind::NanInject, 0.05)
                    .with_rate(FaultKind::PositionBitFlip, 0.05),
            );
            guard.run(30).unwrap();
            (guard.stats(), guard.state().positions.clone())
        };
        let (s1, p1) = run();
        let (s2, p2) = run();
        assert_eq!(s1, s2, "recovery history must be a pure function of the seed");
        assert_eq!(p1, p2);
        assert!(s1.rollbacks > 0, "schedule should have fired: {s1:?}");
    }

    #[test]
    fn suspect_amnesty_accepts_honest_violence() {
        // Manufacture a persistent "suspect" source: an absurdly tight
        // KE-jump threshold makes every step of an evolving system suspect.
        let cfg = GuardConfig {
            health: HealthConfig { ke_jump_factor: 1.0 + 1e-15, ..HealthConfig::default() },
            suspect_amnesty: 2,
            ..GuardConfig::default()
        };
        let mut guard = guarded(200, 78, cfg);
        guard.run(6).unwrap();
        let s = guard.stats();
        assert!(s.suspects_accepted > 0, "amnesty never kicked in: {s:?}");
        assert!(
            guard.recoveries_used() < guard.cfg.max_recoveries,
            "amnesty should spare the budget: {s:?}"
        );
    }

    #[test]
    fn guarded_step_timings_are_populated() {
        let mut guard = guarded(100, 79, GuardConfig::default());
        let t = guard.step().unwrap();
        assert!(t.force.as_nanos() > 0);
    }

    #[test]
    fn disk_checkpoints_rotate_and_resume() {
        let dir = std::env::temp_dir();
        let path = dir.join("guard_disk_ckpt_test.bin");
        let prev = dir.join("guard_disk_ckpt_test.bin.prev");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
        let cfg = GuardConfig {
            disk_path: Some(path.clone()),
            disk_every: 3,
            ..GuardConfig::default()
        };
        let mut guard = guarded(120, 80, cfg);
        guard.run(8).unwrap();
        assert!(guard.stats().disk_checkpoints >= 2);
        assert!(path.exists() && prev.exists());
        let (resumed, used_prev) = resume_state_from_disk(&path).unwrap();
        assert!(!used_prev);
        assert_eq!(resumed.len(), 120);
        // Corrupt the newest: resume falls back to the rotated previous.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all(b"garbage").unwrap();
        }
        let (resumed, used_prev) = resume_state_from_disk(&path).unwrap();
        assert!(used_prev, "should have fallen back to .prev");
        assert_eq!(resumed.len(), 120);
        // Both gone: the primary error surfaces.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
        assert!(resume_state_from_disk(&path).is_err());
    }

    #[test]
    fn injected_checkpoint_corruption_is_detected_at_load() {
        let dir = std::env::temp_dir();
        let path = dir.join("guard_disk_fault_test.bin");
        let prev = dir.join("guard_disk_fault_test.bin.prev");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
        let cfg = GuardConfig {
            disk_path: Some(path.clone()),
            disk_every: 2,
            ..GuardConfig::default()
        };
        // Corrupt every written checkpoint file.
        let mut guard = guarded(80, 81, cfg)
            .with_injector(FaultInjector::new(23).with_rate(FaultKind::CheckpointBitFlip, 1.0));
        guard.run(6).unwrap();
        assert!(guard.stats().disk_checkpoints >= 2);
        // The newest file is bit-flipped → typed load failure → the loader
        // falls back to .prev, which is *also* corrupt here → typed error,
        // never a silently wrong state.
        let err = io::try_load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::NonFinite { .. }
            ),
            "bit-flip must be caught by the format: {err:?}"
        );
        assert!(resume_state_from_disk(&path).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
    }

    #[test]
    fn disk_write_failure_degrades_without_panic() {
        // Best-effort durability: an unwritable disk path must not kill a
        // healthy run (no unwrap on the write path) — the failures are
        // counted and the simulation keeps stepping.
        let cfg = GuardConfig {
            disk_path: Some(PathBuf::from("/nonexistent-dir-for-guard-test/ckpt.bin")),
            disk_every: 1,
            ..GuardConfig::default()
        };
        let mut guard = guarded(60, 83, cfg);
        guard.run(4).unwrap();
        let s = guard.stats();
        assert_eq!(s.steps, 4);
        assert_eq!(s.disk_checkpoints, 0);
        assert!(s.disk_write_failures >= 4, "{s:?}");
    }

    #[test]
    fn missing_resume_file_is_a_typed_error() {
        let err =
            resume_state_from_disk("/nonexistent-dir-for-guard-test/nope.bin").unwrap_err();
        assert_eq!(err.io_kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn empty_snapshot_resume_is_a_typed_error_with_prev_fallback() {
        // Regression: an N == 0 snapshot is valid at the io layer (empty
        // states round-trip), but resuming from one used to sail through
        // here and panic later in `Simulation::new`'s bbox path. The resume
        // loader now rejects it like any other validation failure, falling
        // back to the rotated `.prev` when that one is steppable.
        let dir = std::env::temp_dir();
        let path = dir.join("guard_empty_resume_test.bin");
        let prev = dir.join("guard_empty_resume_test.bin.prev");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
        io::try_save(&SystemState::new(), &path).unwrap();
        let err = resume_state_from_disk(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::EmptyBody), "{err:?}");
        // With a non-empty rotated sibling, resume uses the fallback.
        io::try_save(&galaxy_collision(40, 84), &prev).unwrap();
        let (resumed, used_prev) = resume_state_from_disk(&path).unwrap();
        assert!(used_prev, "empty primary must fall back to .prev");
        assert_eq!(resumed.len(), 40);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&prev);
    }

    #[test]
    fn taskgraph_stepping_recovers_like_barrier() {
        // The guard's watchdog/rollback machinery is stepping-agnostic: a
        // scripted fault under task-graph stepping recovers to the same
        // bit-exact trajectory as the clean task-graph run.
        let opts = SimOptions {
            dt: 1e-3,
            stepping: crate::dag::Stepping::TaskGraph,
            ..SimOptions::default()
        };
        let mk = || {
            GuardedSimulation::new(
                galaxy_collision(200, 84),
                SolverKind::Bvh,
                opts,
                GuardConfig::default(),
            )
            .unwrap()
        };
        let mut clean = mk();
        clean.run(12).unwrap();
        let mut faulty = mk()
            .with_injector(FaultInjector::new(29).at_step(5, FaultKind::NanInject));
        faulty.run(12).unwrap();
        assert!(faulty.stats().rollbacks >= 1, "{:?}", faulty.stats());
        assert_eq!(clean.state().positions, faulty.state().positions);
        assert_eq!(clean.state().velocities, faulty.state().velocities);
    }

    #[test]
    fn accessors_cover_the_surface() {
        let mut guard = guarded(60, 82, GuardConfig::default());
        guard.run(2).unwrap();
        assert_eq!(guard.sim().steps_done(), 2);
        assert_eq!(guard.state().len(), 60);
        assert!(guard.monitor().checks() >= 2);
        let sim = guard.into_simulation();
        assert_eq!(sim.steps_done(), 2);
        let _ = Vec3::ZERO; // keep the import honest under cfg(test) pruning
    }
}
