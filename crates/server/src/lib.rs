//! Multi-tenant simulation service (DESIGN.md § Multi-tenant service).
//!
//! A [`SessionManager`] owns a pool of per-session slots — each a
//! [`GuardedSimulation`] (the solo run's self-healing step, DESIGN.md
//! § Self-healing) plus a grow-only [`SimWorkspace`] — and advances
//! **every** active session with one parallel region over the planned
//! sessions per [`SessionManager::tick`].
//! A chunk of that region is one session running its planned steps in
//! order; sessions are unordered against each other, so a tick hands work
//! to the worker pool **once** instead of once per session per step (the
//! naive [`TickMode::PerSession`] baseline is the denominator of the repo
//! benchmark's `server.per_session_ratio`).
//!
//! Policies layered on top of the batched stepper:
//!
//! - **Admission control** — a fixed slot capacity; [`admit`] returns a
//!   typed [`AdmitError`] (pool full, empty system, degenerate checkpoint
//!   ring or cadence, zero weight) instead of growing without bound.
//! - **Fairness** — deficit round-robin over per-session busy-nanosecond
//!   budgets: each tick a session earns `weight × quantum_ns` of deficit
//!   (capped at `burst_ticks` quanta) and is planned
//!   `min(deficit / cost, max_steps_per_tick)` steps, where `cost`
//!   is an EMA of its measured per-step nanoseconds (or a fixed constant
//!   under [`CostModel::Fixed`], which makes schedules exactly
//!   reproducible in tests).
//! - **Quarantine** — a session step is a guarded step with a recovery
//!   budget of 0, so the guard's first objection (a `Suspect`/`Corrupt`
//!   verdict or a failed force pass) is a [`GuardError`] before any rung
//!   runs. It parks the session instead of poisoning the tick, with the
//!   guard's detector string as the reason; [`restore_quarantined`] is the
//!   guard's [`rollback`](GuardedSimulation::rollback).
//! - **Recycling** — closed sessions return their slot to a free list;
//!   the slot's workspace is reused by the next admission (the guard, and
//!   with it the checkpoint ring, is built per admission). Reuse is
//!   bitwise-invisible: a session stepped in a recycled slot produces the
//!   identical trajectory to one stepped in a fresh manager
//!   (`tests/workspace_reuse.rs`).
//! - **Snapshots** — per-session `NBSNAP02` typed io: [`save_session`]
//!   (atomic file), [`snapshot_to`] (stream), and [`admit_from_snapshot`]
//!   which resumes through `resume_state_from_disk` and therefore
//!   inherits its `.prev` fallback and typed empty-body rejection.
//!
//! Under [`TickMode::Batched`] admitted options are normalised to
//! `policy = Seq`: a session's steps must not open nested parallel regions,
//! and a sequential step makes per-session trajectories independent of
//! worker count — bitwise identical to a solo [`Simulation`] run of the same
//! normalised options.
//!
//! [`admit`]: SessionManager::admit
//! [`restore_quarantined`]: SessionManager::restore_quarantined
//! [`save_session`]: SessionManager::save_session
//! [`snapshot_to`]: SessionManager::snapshot_to
//! [`admit_from_snapshot`]: SessionManager::admit_from_snapshot

use nbody_sim::io::{self, SnapshotError};
use nbody_sim::prelude::{
    resume_state_from_disk, CheckpointError, DynPolicy, GuardConfig, GuardError,
    GuardedSimulation, HealthConfig, SimOptions, SimWorkspace, Simulation, SolverKind, SystemState,
};
use nbody_sim::solver::SolverError;
use nbody_telemetry::record;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use stdpar::prelude::{for_each_chunk_worker, Par, SyncSlice};

/// Bounded window of recent per-step latencies kept for percentile
/// queries ([`SessionManager::step_latencies`]). Pre-reserved so warm
/// ticks never reallocate.
const LATENCY_WINDOW: usize = 1 << 15;

/// Generation handle for a pooled session. The epoch guards against
/// stale ids: closing a session bumps its slot's epoch, so a handle held
/// across a close/re-admit cycle resolves to [`SessionError::Stale`]
/// rather than to the stranger now living in the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    slot: u32,
    epoch: u32,
}

/// Per-session admission parameters.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Force solver backing the session.
    pub kind: SolverKind,
    /// Simulation options. Under [`TickMode::Batched`] `policy` is
    /// normalised to `Seq` (see the crate docs); everything else is
    /// honoured as given.
    pub opts: SimOptions,
    /// Checkpoint ring slots (must be ≥ 1; 0 is a typed
    /// [`AdmitError::Checkpoint`] rejection).
    pub ring_capacity: usize,
    /// Record a ring checkpoint every this many accepted steps (must be
    /// ≥ 1; 0 is a typed [`AdmitError::ZeroCheckpointCadence`] rejection).
    /// The count starts at admission and does not rewind on a restore.
    pub checkpoint_every: u64,
    /// Deficit-round-robin weight (must be ≥ 1): a weight-3 session earns
    /// three times the step budget of a weight-1 session.
    pub weight: u32,
    /// Health watchdog thresholds.
    pub health: HealthConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            kind: SolverKind::Bvh,
            opts: SimOptions::default(),
            ring_capacity: 2,
            checkpoint_every: 8,
            weight: 1,
            health: HealthConfig::default(),
        }
    }
}

/// Why an admission was refused. Wraps the typed construction errors of
/// the underlying subsystems so a caller can distinguish "pool is full,
/// retry later" from "this config can never work".
#[derive(Debug)]
pub enum AdmitError {
    /// Every slot is occupied.
    Full {
        /// The pool's fixed slot capacity.
        capacity: usize,
    },
    /// `weight == 0` would starve the session forever.
    ZeroWeight,
    /// `checkpoint_every == 0` would record no rollback point past
    /// admission.
    ZeroCheckpointCadence,
    /// Degenerate checkpoint ring config (zero capacity).
    Checkpoint(CheckpointError),
    /// The simulation itself refused construction (e.g. an empty system).
    Solver(SolverError),
    /// Snapshot resume failed ([`SessionManager::admit_from_snapshot`]).
    Snapshot(SnapshotError),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Full { capacity } => {
                write!(f, "session pool is full (capacity {capacity})")
            }
            AdmitError::ZeroWeight => write!(f, "session weight must be at least 1"),
            AdmitError::ZeroCheckpointCadence => {
                write!(f, "session checkpoint_every must be at least 1")
            }
            AdmitError::Checkpoint(e) => write!(f, "checkpoint config rejected: {e}"),
            AdmitError::Solver(e) => write!(f, "simulation rejected: {e}"),
            AdmitError::Snapshot(e) => write!(f, "snapshot resume failed: {e}"),
        }
    }
}

impl std::error::Error for AdmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmitError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors from operations on an already-admitted session.
#[derive(Debug)]
pub enum SessionError {
    /// The id's epoch no longer matches its slot (session was closed).
    Stale,
    /// No intact checkpoint to restore a quarantined session from.
    NoCheckpoint,
    /// Snapshot io failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Stale => write!(f, "stale session id (session was closed)"),
            SessionError::NoCheckpoint => {
                write!(f, "no intact checkpoint to restore the session from")
            }
            SessionError::Snapshot(e) => write!(f, "snapshot io failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// How a tick advances the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickMode {
    /// One parallel region over the planned sessions on the shared worker
    /// pool; admitted options are normalised to `policy = Seq`.
    Batched,
    /// Naive baseline: sessions step one after another, each step opening
    /// its own parallel regions (the admitted `policy` is honoured).
    PerSession,
}

/// Where the scheduler gets a session's per-step cost estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostModel {
    /// EMA of measured per-step wall nanoseconds (production default).
    Measured,
    /// A fixed per-step cost in nanoseconds — makes deficit-round-robin
    /// schedules exactly reproducible (tests).
    Fixed(u64),
}

/// Deficit-round-robin tuning.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Nanoseconds of step budget a weight-1 session earns per tick.
    pub quantum_ns: u64,
    /// Hard per-session cap on steps planned in one tick.
    pub max_steps_per_tick: u32,
    /// Deficit accumulation cap, in quanta: an idle-then-busy session can
    /// burst at most `burst_ticks` ticks' worth of budget.
    pub burst_ticks: u32,
    /// Cost estimator feeding the planner.
    pub cost_model: CostModel,
    /// Worker count for the batched region (0 = inherit the backend's
    /// `thread_count()`). The service owns its parallelism, so it can
    /// right-size to the hardware even when tenants admitted
    /// over-subscribed thread requests; `1` runs the tick inline.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum_ns: 2_000_000,
            max_steps_per_tick: 32,
            burst_ticks: 4,
            cost_model: CostModel::Measured,
            workers: 0,
        }
    }
}

/// What one [`SessionManager::tick`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// Sessions that executed at least one step.
    pub sessions: usize,
    /// Total steps executed across all sessions.
    pub steps: u64,
    /// Sessions newly quarantined by this tick's guarded steps.
    pub new_quarantines: usize,
    /// Wall time of the whole tick (plan + run + accounting).
    pub wall: Duration,
}

struct Session {
    guard: GuardedSimulation,
    weight: u32,
    deficit_ns: u64,
    /// EMA of measured per-step cost (only read under
    /// [`CostModel::Measured`]).
    cost_ns: u64,
    busy_ns: u64,
    quarantined: Option<&'static str>,
}

impl Session {
    fn steps_done(&self) -> u64 {
        self.guard.sim().steps_done() as u64
    }
}

/// One pooled slot. The workspace outlives the sessions passing through:
/// it is grow-only, so a recycled slot starts warm.
struct Slot {
    epoch: u32,
    session: Option<Session>,
    ws: SimWorkspace,
    /// Wall nanoseconds of each step run in the current tick, in order;
    /// drained into the latency window when the tick settles.
    step_ns: Vec<u64>,
}

#[derive(Clone, Copy)]
struct PlanEntry {
    slot: u32,
    planned: u32,
    /// Cost the planner assumed; the deficit is charged at this rate so
    /// planning and charging can never disagree.
    cost_ns: u64,
    steps_before: u64,
    busy_before: u64,
}

/// Pool of concurrently-running simulation sessions stepped by one
/// parallel region per tick. See the crate docs for the policy
/// stack (admission, fairness, quarantine, recycling, snapshots).
pub struct SessionManager {
    capacity: usize,
    mode: TickMode,
    sched: SchedulerConfig,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    plan: Vec<PlanEntry>,
    latencies: Vec<u64>,
    lat_cursor: usize,
    ticks: u64,
}

impl SessionManager {
    /// A manager with `capacity` session slots (slots are materialised
    /// lazily, so an over-provisioned capacity costs nothing until used).
    pub fn new(capacity: usize, mode: TickMode, sched: SchedulerConfig) -> Self {
        SessionManager {
            capacity,
            mode,
            sched,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            plan: Vec::new(),
            latencies: Vec::with_capacity(LATENCY_WINDOW),
            lat_cursor: 0,
            ticks: 0,
        }
    }

    /// Fixed slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sessions currently admitted (running or quarantined).
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Handles of every live session, in slot order.
    pub fn live_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.session.as_ref().map(|_| SessionId { slot: i as u32, epoch: s.epoch })
        })
    }

    /// Recent per-step wall latencies in nanoseconds (bounded window,
    /// oldest overwritten first) — the raw material for p50/p99.
    pub fn step_latencies(&self) -> &[u64] {
        &self.latencies
    }

    fn normalize(&self, mut opts: SimOptions) -> SimOptions {
        if self.mode == TickMode::Batched {
            // A session's steps run inside the tick's region and must not
            // open nested ones, and a sequential step keeps each
            // trajectory independent of worker count.
            opts.policy = DynPolicy::Seq;
        }
        opts
    }

    /// Admit `state` as a new session. Typed rejection instead of
    /// panics: pool full, zero weight, zero-capacity ring, zero checkpoint
    /// cadence, empty system.
    pub fn admit(
        &mut self,
        state: SystemState,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        match self.try_admit(state, cfg) {
            Ok(id) => {
                self.live += 1;
                record!(counter SERVER_SESSIONS_ADMITTED, 1);
                record!(gauge SERVER_SESSIONS_HIGH_WATER, self.live as u64);
                Ok(id)
            }
            Err(e) => {
                record!(counter SERVER_SESSIONS_REJECTED, 1);
                Err(e)
            }
        }
    }

    /// Admit a session resumed from an `NBSNAP02` snapshot file.
    /// Inherits `resume_state_from_disk`'s `.prev` fallback and its typed
    /// rejection of zero-body snapshots.
    pub fn admit_from_snapshot(
        &mut self,
        path: impl AsRef<Path>,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        let state = match resume_state_from_disk(path) {
            Ok((state, _used_prev)) => state,
            Err(e) => {
                record!(counter SERVER_SESSIONS_REJECTED, 1);
                return Err(AdmitError::Snapshot(e));
            }
        };
        self.admit(state, cfg)
    }

    fn try_admit(
        &mut self,
        state: SystemState,
        cfg: &SessionConfig,
    ) -> Result<SessionId, AdmitError> {
        if cfg.weight == 0 {
            return Err(AdmitError::ZeroWeight);
        }
        if cfg.checkpoint_every == 0 {
            return Err(AdmitError::ZeroCheckpointCadence);
        }
        if cfg.ring_capacity == 0 {
            // Mirror the ring's own construction error without burning a
            // slot on a config that can never work.
            return Err(AdmitError::Checkpoint(CheckpointError::ZeroCapacity));
        }
        if self.free.is_empty() && self.slots.len() >= self.capacity {
            return Err(AdmitError::Full { capacity: self.capacity });
        }
        let sim = Simulation::new(state, cfg.kind, self.normalize(cfg.opts))
            .map_err(AdmitError::Solver)?;
        // The guard judges the admitted state and records checkpoint #0 on
        // the first step, so a session quarantined before its first cadence
        // point can still be restored.
        let guard = GuardedSimulation::from_simulation(
            sim,
            GuardConfig {
                ring_capacity: cfg.ring_capacity,
                checkpoint_every: cfg.checkpoint_every,
                health: cfg.health,
                // The first objection is the quarantine: no rung runs inside
                // the tick, and the tenant decides whether to roll back.
                max_recoveries: 0,
                ..GuardConfig::default()
            },
        );

        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.slots.push(Slot {
                    epoch: 0,
                    session: None,
                    ws: SimWorkspace::new(),
                    // A tick plans at most this many steps per session, so
                    // warm ticks never grow it.
                    step_ns: Vec::with_capacity(self.sched.max_steps_per_tick.max(1) as usize),
                });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        slot.session = Some(Session {
            guard,
            weight: cfg.weight,
            deficit_ns: 0,
            cost_ns: self.sched.quantum_ns.max(1),
            busy_ns: 0,
            quarantined: None,
        });
        Ok(SessionId { slot: idx as u32, epoch: slot.epoch })
    }

    fn slot_index(&self, id: SessionId) -> Result<usize, SessionError> {
        let idx = id.slot as usize;
        match self.slots.get(idx) {
            Some(slot) if slot.epoch == id.epoch && slot.session.is_some() => Ok(idx),
            _ => Err(SessionError::Stale),
        }
    }

    fn session(&self, id: SessionId) -> Result<&Session, SessionError> {
        let idx = self.slot_index(id)?;
        Ok(self.slots[idx].session.as_ref().expect("checked by slot_index"))
    }

    /// Close a session, returning its final state. The slot (and its
    /// workspace) goes back on the free list; the epoch bump invalidates
    /// every outstanding handle to the closed session.
    pub fn close(&mut self, id: SessionId) -> Result<SystemState, SessionError> {
        let idx = self.slot_index(id)?;
        let slot = &mut self.slots[idx];
        let sess = slot.session.take().expect("checked by slot_index");
        slot.epoch = slot.epoch.wrapping_add(1);
        self.free.push(idx as u32);
        self.live -= 1;
        record!(counter SERVER_SESSIONS_CLOSED, 1);
        Ok(sess.guard.into_simulation().into_state())
    }

    /// The session's current state (positions/velocities/masses).
    pub fn session_state(&self, id: SessionId) -> Result<&SystemState, SessionError> {
        Ok(self.session(id)?.guard.state())
    }

    /// Steps the session's simulation has completed.
    pub fn session_steps(&self, id: SessionId) -> Result<u64, SessionError> {
        Ok(self.session(id)?.steps_done())
    }

    /// `Some(reason)` if the session is quarantined, `None` if healthy.
    pub fn quarantine_reason(&self, id: SessionId) -> Result<Option<&'static str>, SessionError> {
        Ok(self.session(id)?.quarantined)
    }

    /// Roll a quarantined session back to its newest intact ring
    /// checkpoint and lift the quarantine: the guard's
    /// [`rollback`](GuardedSimulation::rollback), which passes over
    /// checksum-corrupt slots to older ones. Returns the restored step count.
    pub fn restore_quarantined(&mut self, id: SessionId) -> Result<u64, SessionError> {
        let idx = self.slot_index(id)?;
        let sess = self.slots[idx].session.as_mut().expect("checked by slot_index");
        // `NoUsableCheckpoint` is the one error a rollback returns.
        sess.guard.rollback().map_err(|_| SessionError::NoCheckpoint)?;
        sess.quarantined = None;
        sess.deficit_ns = 0;
        Ok(sess.steps_done())
    }

    /// Atomically save the session's state to `path` (`NBSNAP02`,
    /// write-to-temp-then-rename).
    pub fn save_session(
        &self,
        id: SessionId,
        path: impl AsRef<Path>,
    ) -> Result<(), SessionError> {
        let state = self.session_state(id)?;
        io::save_atomic(state, path).map_err(SessionError::Snapshot)
    }

    /// Stream the session's state as an `NBSNAP02` snapshot into `w`.
    pub fn snapshot_to<W: Write>(&self, id: SessionId, w: W) -> Result<(), SessionError> {
        let state = self.session_state(id)?;
        io::write_binary(state, w)
            .map_err(|e| SessionError::Snapshot(SnapshotError::Io(e)))
    }

    /// Advance the pool one scheduling round. Plans a deficit-round-robin
    /// step budget per session, executes every session's planned steps —
    /// batched into one parallel region, or sequentially per session under
    /// [`TickMode::PerSession`] — then settles deficits and cost EMAs.
    pub fn tick(&mut self) -> TickReport {
        let t0 = Instant::now();
        self.plan.clear();

        // ---- plan: deficit round-robin --------------------------------
        let quantum = self.sched.quantum_ns;
        let burst = self.sched.burst_ticks.max(1) as u64;
        let max_steps = self.sched.max_steps_per_tick.max(1);
        let cost_model = self.sched.cost_model;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(sess) = slot.session.as_mut() else { continue };
            if sess.quarantined.is_some() {
                continue;
            }
            let earn = (sess.weight as u64).saturating_mul(quantum);
            let cap = earn.saturating_mul(burst);
            sess.deficit_ns = sess.deficit_ns.saturating_add(earn).min(cap);
            let cost = match cost_model {
                CostModel::Fixed(c) => c.max(1),
                CostModel::Measured => sess.cost_ns.max(1),
            };
            let k = ((sess.deficit_ns / cost).min(u64::from(max_steps))) as u32;
            if k == 0 {
                continue;
            }
            self.plan.push(PlanEntry {
                slot: i as u32,
                planned: k,
                cost_ns: cost,
                steps_before: sess.steps_done(),
                busy_before: sess.busy_ns,
            });
        }

        // ---- execute --------------------------------------------------
        match self.mode {
            TickMode::Batched => {
                let Self { ref mut slots, ref plan, ref sched, .. } = *self;
                let view = SyncSlice::new(slots.as_mut_slice());
                let run = || {
                    for_each_chunk_worker(Par, 0..plan.len(), 1, |_, entries| {
                        for e in &plan[entries] {
                            // SAFETY: each slot index appears in exactly one
                            // plan entry and each entry in exactly one chunk,
                            // so no two chunks alias the same slot; a
                            // session's steps run in order inside its chunk.
                            run_planned(unsafe { view.get_mut(e.slot as usize) }, e.planned);
                        }
                    });
                };
                if sched.workers > 0 {
                    stdpar::backend::with_threads(sched.workers, run);
                } else {
                    run();
                }
            }
            TickMode::PerSession => {
                for e in &self.plan {
                    run_planned(&mut self.slots[e.slot as usize], e.planned);
                }
            }
        }

        // ---- settle: charge deficits, update cost EMAs ----------------
        let mut report = TickReport::default();
        for pi in 0..self.plan.len() {
            let e = self.plan[pi];
            let slot = &mut self.slots[e.slot as usize];
            for ns in slot.step_ns.drain(..) {
                record!(hist SERVER_STEP_NANOS, ns);
                if self.latencies.len() < LATENCY_WINDOW {
                    self.latencies.push(ns);
                } else {
                    self.latencies[self.lat_cursor] = ns;
                    self.lat_cursor = (self.lat_cursor + 1) % LATENCY_WINDOW;
                }
            }
            let Some(sess) = slot.session.as_mut() else { continue };
            let executed = sess.steps_done() - e.steps_before;
            let busy = sess.busy_ns - e.busy_before;
            if executed > 0 {
                report.sessions += 1;
                report.steps += executed;
                sess.deficit_ns =
                    sess.deficit_ns.saturating_sub(executed.saturating_mul(e.cost_ns));
                let avg = busy / executed;
                // First real measurement replaces the quantum-seeded
                // estimate outright — a slow blend from the seed would
                // under-plan young sessions for several ticks and skew
                // fairness against late arrivals.
                sess.cost_ns =
                    if e.steps_before == 0 { avg } else { (3 * sess.cost_ns + avg) / 4 };
            }
            if sess.quarantined.is_some() {
                report.new_quarantines += 1;
                // No budget accrues while parked.
                sess.deficit_ns = 0;
            }
        }
        self.ticks += 1;
        record!(counter SERVER_TICKS, 1);
        record!(counter SERVER_STEPS, report.steps);
        record!(counter SERVER_QUARANTINES, report.new_quarantines as u64);
        report.wall = t0.elapsed();
        report
    }
}

/// Up to `planned` guarded steps, in order, of the session living in
/// `slot`, noting each step's wall nanoseconds in `slot.step_ns`. A step
/// the guard refuses quarantines the session and ends its run (an absent
/// session runs nothing).
fn run_planned(slot: &mut Slot, planned: u32) {
    let Some(sess) = slot.session.as_mut() else { return };
    for _ in 0..planned {
        if sess.quarantined.is_some() {
            return;
        }
        let t0 = Instant::now();
        if let Err(e) = sess.guard.step_into(&mut slot.ws) {
            sess.quarantined = Some(match e {
                GuardError::CorruptInitialState { reason }
                | GuardError::RecoveryBudgetExhausted { reason, .. } => reason,
                GuardError::NoUsableCheckpoint { .. } => "no usable checkpoint",
            });
        }
        let ns = t0.elapsed().as_nanos() as u64;
        sess.busy_ns += ns;
        slot.step_ns.push(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_sim::prelude::{galaxy_collision, FaultInjector, FaultKind};

    fn small_cfg() -> SessionConfig {
        SessionConfig {
            opts: SimOptions { dt: 1e-3, ..SimOptions::default() },
            ..SessionConfig::default()
        }
    }

    fn det_sched() -> SchedulerConfig {
        SchedulerConfig {
            quantum_ns: 300,
            burst_ticks: 1,
            cost_model: CostModel::Fixed(100),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn admit_step_close_lifecycle() {
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched());
        let id = mgr.admit(galaxy_collision(32, 7), &small_cfg()).unwrap();
        assert_eq!(mgr.live_sessions(), 1);
        let r = mgr.tick();
        assert_eq!(r.sessions, 1);
        assert_eq!(r.steps, 3); // deficit 300 / fixed cost 100
        assert_eq!(mgr.session_steps(id).unwrap(), 3);
        let state = mgr.close(id).unwrap();
        assert_eq!(state.len(), 32);
        assert_eq!(mgr.live_sessions(), 0);
        assert!(matches!(mgr.session_steps(id), Err(SessionError::Stale)));
    }

    /// A batched tick is one parallel region and no task graph (12 graph
    /// nodes before the region replaced them). Counters are process globals
    /// and sibling tests tick too, so the check re-runs itself alone in a
    /// child process.
    #[test]
    fn batched_tick_is_one_region_and_no_graph() {
        let name = "tests::batched_tick_is_one_region_and_no_graph";
        let args: Vec<String> = std::env::args().collect();
        if !(args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == name)) {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([name, "--exact", "--test-threads=1"])
                .output()
                .unwrap();
            let said = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} failed in its own process:\n{said}");
            return;
        }
        use nbody_telemetry::metrics as m;
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched());
        for seed in 0..4 {
            mgr.admit(galaxy_collision(24, seed), &small_cfg()).unwrap();
        }
        let read = || [m::STDPAR_DAG_NODES.get(), m::STDPAR_PAR_REGIONS.get()];
        let before = read();
        let report = mgr.tick();
        let after = read();
        assert_eq!((report.sessions, report.steps), (4, 12)); // 4 × (300 / 100)
        if nbody_telemetry::ENABLED {
            assert_eq!([after[0] - before[0], after[1] - before[1]], [0, 1]);
        }
    }

    #[test]
    fn weighted_sessions_get_proportional_steps() {
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched());
        let a = mgr.admit(galaxy_collision(16, 1), &small_cfg()).unwrap();
        let b =
            mgr.admit(galaxy_collision(16, 2), &SessionConfig { weight: 3, ..small_cfg() })
                .unwrap();
        for _ in 0..4 {
            mgr.tick();
        }
        assert_eq!(mgr.session_steps(a).unwrap(), 12); // 3 per tick
        assert_eq!(mgr.session_steps(b).unwrap(), 36); // 9 per tick
    }

    #[test]
    fn typed_admission_rejections() {
        let mut mgr = SessionManager::new(1, TickMode::Batched, det_sched());
        assert!(matches!(
            mgr.admit(galaxy_collision(8, 3), &SessionConfig { weight: 0, ..small_cfg() }),
            Err(AdmitError::ZeroWeight)
        ));
        assert!(matches!(
            mgr.admit(
                galaxy_collision(8, 3),
                &SessionConfig { checkpoint_every: 0, ..small_cfg() }
            ),
            Err(AdmitError::ZeroCheckpointCadence)
        ));
        assert!(matches!(
            mgr.admit(
                galaxy_collision(8, 3),
                &SessionConfig { ring_capacity: 0, ..small_cfg() }
            ),
            Err(AdmitError::Checkpoint(CheckpointError::ZeroCapacity))
        ));
        assert!(matches!(
            mgr.admit(SystemState::new(), &small_cfg()),
            Err(AdmitError::Solver(SolverError::EmptySystem))
        ));
        mgr.admit(galaxy_collision(8, 3), &small_cfg()).unwrap();
        assert!(matches!(
            mgr.admit(galaxy_collision(8, 4), &small_cfg()),
            Err(AdmitError::Full { capacity: 1 })
        ));
    }

    #[test]
    fn closed_slot_is_recycled_with_a_bumped_epoch() {
        let mut mgr = SessionManager::new(1, TickMode::Batched, det_sched());
        let a = mgr.admit(galaxy_collision(8, 5), &small_cfg()).unwrap();
        mgr.tick();
        mgr.close(a).unwrap();
        let b = mgr.admit(galaxy_collision(8, 6), &small_cfg()).unwrap();
        assert_ne!(a, b);
        assert!(matches!(mgr.session_steps(a), Err(SessionError::Stale)));
        assert_eq!(mgr.session_steps(b).unwrap(), 0);
    }

    /// A tree build that gives up — the paper's §V-B lock-bit insert turns
    /// a stuck lock holder into `SpinBudgetExhausted` — quarantines its own
    /// session, not the tick: the neighbour keeps the solo trajectory, and
    /// the restored session steps on as if the fault had never fired.
    #[test]
    fn a_failed_force_pass_quarantines_one_session_not_the_tick() {
        let mut mgr = SessionManager::new(2, TickMode::Batched, det_sched());
        let cfg = SessionConfig { kind: SolverKind::Octree, ..small_cfg() };
        let armed = mgr.admit(galaxy_collision(64, 11), &cfg).unwrap();
        let calm = mgr.admit(galaxy_collision(64, 12), &cfg).unwrap();
        // Execution index 1: the session's second step.
        let armed_guard = &mut mgr.slots[armed.slot as usize].session.as_mut().unwrap().guard;
        armed_guard.set_injector(FaultInjector::new(5).at_step(1, FaultKind::StuckLock));
        // Bitwise a solo `Seq` run of three steps from the admitted state.
        let is_solo = |got: &SystemState, seed| {
            let opts = SimOptions { policy: DynPolicy::Seq, ..cfg.opts };
            let mut sim =
                Simulation::new(galaxy_collision(64, seed), SolverKind::Octree, opts).unwrap();
            sim.run(3);
            got.positions == sim.state().positions && got.velocities == sim.state().velocities
        };

        let report = mgr.tick();
        assert_eq!((report.sessions, report.steps, report.new_quarantines), (2, 4, 1));
        let reason = mgr.quarantine_reason(armed).unwrap().expect("armed session quarantined");
        assert!(reason.contains("tree build gave up"), "{reason}");
        assert_eq!(mgr.session_steps(armed).unwrap(), 1);
        assert!(is_solo(mgr.session_state(calm).unwrap(), 12));

        // Checkpoint #0 is the newest (cadence 8): the restore rewinds to the
        // admitted state, and the fault, having fired, does not recur.
        assert_eq!(mgr.restore_quarantined(armed).unwrap(), 0);
        let report = mgr.tick();
        assert_eq!((report.sessions, report.new_quarantines), (2, 0));
        assert!(mgr.quarantine_reason(armed).unwrap().is_none());
        assert!(is_solo(mgr.session_state(armed).unwrap(), 11));
    }
}
