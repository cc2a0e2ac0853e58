//! In-memory rollback points: a fixed-capacity ring of checkpoints.
//!
//! The recovery ladder ([`crate::guard`]) needs somewhere cheap to roll
//! back *to*. Disk checkpoints are durable but slow; [`CheckpointRing`]
//! keeps the last few known-good states in memory, in grow-only buffers:
//! each slot's vectors are sized on first use (or pre-warmed via
//! [`CheckpointRing::warm`]) and only ever overwritten afterwards, so
//! steady-state checkpointing performs **zero heap allocations** — the
//! same contract as [`crate::workspace::SimWorkspace`], enforced by the
//! same `alloc_regression` gate.
//!
//! Memory is not trusted blindly: every slot carries a digest of its
//! payload — four interleaved FNV-1a word lanes over the four arrays, folded
//! with their lengths and the clock into one `u64` — recomputed and
//! compared on restore. The digest never leaves memory, so its value is
//! free to change between builds. A slot that rotted in place (or was
//! scribbled over) is reported as [`CheckpointError::ChecksumMismatch`] so
//! the caller can fall back to an older slot instead of resuming from
//! garbage — the in-memory analogue of the CRC-32 trailer on disk
//! snapshots ([`crate::io`]).
//!
//! Each slot also embeds a copy of the [`HealthMonitor`] (it is `Copy`),
//! so a rollback restores the watchdog's baselines alongside the state:
//! replayed steps are judged against the memory the watchdog had when the
//! checkpoint was taken, not against baselines polluted by the corrupt
//! excursion.

use crate::health::HealthMonitor;
use crate::integrator::Simulation;
use nbody_math::Vec3;

/// Why a ring operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The ring was configured with zero slots — a degenerate ring that
    /// could never record a rollback point (`record` would underflow its
    /// slot index). Rejected at construction so callers taking arbitrary
    /// session configs (the multi-tenant server) get a typed error
    /// instead of a panic on the first checkpoint.
    ZeroCapacity,
    /// No checkpoint recorded yet (or `nth` exceeds the stored count).
    OutOfRange { requested: usize, stored: usize },
    /// The slot's payload no longer matches its digest.
    ChecksumMismatch { slot: usize },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::ZeroCapacity => {
                write!(f, "checkpoint ring needs at least one slot")
            }
            CheckpointError::OutOfRange { requested, stored } => {
                write!(f, "checkpoint {requested} requested but only {stored} stored")
            }
            CheckpointError::ChecksumMismatch { slot } => {
                write!(f, "in-memory checkpoint slot {slot} failed its checksum")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a successful restore rolled back to.
#[derive(Clone, Copy, Debug)]
pub struct RestorePoint {
    /// Simulation time of the restored state.
    pub time: f64,
    /// Steps completed at the restored state.
    pub steps_done: usize,
    /// How many ring entries back the restore reached (0 = newest).
    pub age: usize,
}

#[derive(Default)]
struct Slot {
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    masses: Vec<f64>,
    accel: Vec<Vec3>,
    time: f64,
    steps_done: usize,
    accel_fresh: bool,
    monitor: Option<HealthMonitor>,
    checksum: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fnv_word(h: u64, w: u64) -> u64 {
    // Word-at-a-time FNV-1a: we need tamper *detection*, not a
    // cryptographic bound, and hashing 8 bytes per multiply keeps the
    // checkpoint path O(N) with a tiny constant.
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Four interleaved FNV-1a lanes: word `i` of a run goes to lane `i mod 4`,
/// so four multiply chains run side by side instead of one serial chain.
/// Each step is a bijection of its lane, so a change to any one word
/// always changes the final fold.
struct Fnv4([u64; 4]);

impl Fnv4 {
    #[inline]
    fn quad(&mut self, words: [f64; 4]) {
        for (h, w) in self.0.iter_mut().zip(words) {
            *h = fnv_word(*h, w.to_bits());
        }
    }

    fn scalars(&mut self, xs: &[f64]) {
        let (quads, rest) = xs.as_chunks::<4>();
        for q in quads {
            self.quad(*q);
        }
        for (h, w) in self.0.iter_mut().zip(rest) {
            *h = fnv_word(*h, w.to_bits());
        }
    }

    fn vecs(&mut self, vs: &[Vec3]) {
        let (quads, rest) = vs.as_chunks::<4>();
        for [a, b, c, d] in quads {
            self.quad([a.x, a.y, a.z, b.x]);
            self.quad([b.y, b.z, c.x, c.y]);
            self.quad([c.z, d.x, d.y, d.z]);
        }
        for v in rest {
            self.scalars(&[v.x, v.y, v.z]);
        }
    }
}

impl Slot {
    fn digest(&self) -> u64 {
        // Each lane starts from one array's length.
        let lens =
            [self.positions.len(), self.velocities.len(), self.masses.len(), self.accel.len()];
        let mut lanes = Fnv4(lens.map(|l| fnv_word(FNV_OFFSET, l as u64)));
        lanes.vecs(&self.positions);
        lanes.vecs(&self.velocities);
        lanes.scalars(&self.masses);
        lanes.vecs(&self.accel);
        let mut h = lanes.0.into_iter().fold(FNV_OFFSET, fnv_word);
        h = fnv_word(h, self.time.to_bits());
        h = fnv_word(h, self.steps_done as u64);
        h = fnv_word(h, self.accel_fresh as u64);
        h
    }

    /// Copy the payload without sealing it — the digest (the expensive
    /// O(N) part) can run later, off the critical path, because it reads
    /// only the slot's own private buffers.
    fn record_payload(&mut self, sim: &Simulation, monitor: &HealthMonitor) {
        let state = sim.state();
        self.positions.clear();
        self.positions.extend_from_slice(&state.positions);
        self.velocities.clear();
        self.velocities.extend_from_slice(&state.velocities);
        self.masses.clear();
        self.masses.extend_from_slice(&state.masses);
        self.accel.clear();
        self.accel.extend_from_slice(sim.accelerations());
        let (time, steps_done, accel_fresh) = sim.clock();
        self.time = time;
        self.steps_done = steps_done;
        self.accel_fresh = accel_fresh;
        self.monitor = Some(*monitor);
    }

    fn record(&mut self, sim: &Simulation, monitor: &HealthMonitor) {
        self.record_payload(sim, monitor);
        self.checksum = self.digest();
    }
}

/// A fixed-capacity ring of in-memory rollback points. See the module docs.
pub struct CheckpointRing {
    slots: Vec<Slot>,
    /// Index of the slot the *next* record will overwrite.
    next: usize,
    /// Number of slots holding a recorded checkpoint (≤ capacity).
    stored: usize,
    records: u64,
    /// Slot recorded via [`CheckpointRing::record_deferred`] whose digest
    /// has not been computed yet. Sealed by [`CheckpointRing::seal_pending`]
    /// before anything can observe the slot's checksum.
    pending_seal: Option<usize>,
}

impl CheckpointRing {
    /// A ring of `capacity` slots. Slot buffers are empty until the
    /// first record (or [`CheckpointRing::warm`]).
    ///
    /// `capacity == 0` is a configuration error
    /// ([`CheckpointError::ZeroCapacity`]): a zero-slot ring has no slot
    /// for `record` to write and its newest-first index arithmetic would
    /// reduce modulo zero.
    pub fn with_capacity(capacity: usize) -> Result<Self, CheckpointError> {
        if capacity == 0 {
            return Err(CheckpointError::ZeroCapacity);
        }
        Ok(CheckpointRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            next: 0,
            stored: 0,
            records: 0,
            pending_seal: None,
        })
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Checkpoints currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.stored
    }

    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Total records ever made (monotone; exceeds `len` once wrapping).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Pre-size every slot for `n` bodies so later records allocate
    /// nothing — call once at guard construction, before the steady state
    /// the alloc gate measures.
    pub fn warm(&mut self, n: usize) {
        for s in &mut self.slots {
            s.positions.reserve(n);
            s.velocities.reserve(n);
            s.masses.reserve(n);
            s.accel.reserve(n);
        }
    }

    /// Record the simulation's current state (and the watchdog's baselines)
    /// into the oldest slot, sealing it immediately.
    pub fn record(&mut self, sim: &Simulation, monitor: &HealthMonitor) {
        self.seal_pending();
        let cap = self.slots.len();
        self.slots[self.next].record(sim, monitor);
        self.next = (self.next + 1) % cap;
        self.stored = (self.stored + 1).min(cap);
        self.records += 1;
    }

    /// [`CheckpointRing::record`] minus the digest: copies the payload now
    /// and leaves the seal for a later [`CheckpointRing::seal_pending`].
    /// The seal reads only the slot's private buffers, so the guard runs it
    /// concurrently with the next micro-step's health reduction
    /// ([`crate::guard`]) — checkpoint sealing comes off the accept path's
    /// critical section. Restores before the seal lands are handled:
    /// sealing is forced before any checksum is inspected.
    pub fn record_deferred(&mut self, sim: &Simulation, monitor: &HealthMonitor) {
        self.seal_pending();
        let cap = self.slots.len();
        self.slots[self.next].record_payload(sim, monitor);
        self.pending_seal = Some(self.next);
        self.next = (self.next + 1) % cap;
        self.stored = (self.stored + 1).min(cap);
        self.records += 1;
    }

    /// Compute and store the digest of the slot a
    /// [`CheckpointRing::record_deferred`] left unsealed (no-op otherwise).
    /// Touches only ring-owned memory — safe to overlap with anything that
    /// does not mutate the ring.
    pub fn seal_pending(&mut self) {
        if let Some(idx) = self.pending_seal.take() {
            self.slots[idx].checksum = self.slots[idx].digest();
        }
    }

    /// Index (into `slots`) of the `nth`-newest checkpoint.
    fn nth_newest(&self, nth: usize) -> Result<usize, CheckpointError> {
        if nth >= self.stored {
            return Err(CheckpointError::OutOfRange { requested: nth, stored: self.stored });
        }
        let cap = self.slots.len();
        Ok((self.next + cap - 1 - nth) % cap)
    }

    /// `steps_done` recorded in the `nth`-newest checkpoint (0 = newest) —
    /// lets the recovery policy see how far back a rollback would reach
    /// before committing to it.
    pub fn peek_steps(&self, nth: usize) -> Result<usize, CheckpointError> {
        Ok(self.slots[self.nth_newest(nth)?].steps_done)
    }

    /// Roll `sim` (and `monitor`) back to the `nth`-newest checkpoint
    /// (0 = newest), verifying the slot's digest first. On checksum
    /// mismatch nothing is restored — the caller should try `nth + 1`.
    pub fn restore(
        &self,
        nth: usize,
        sim: &mut Simulation,
        monitor: &mut HealthMonitor,
    ) -> Result<RestorePoint, CheckpointError> {
        let idx = self.nth_newest(nth)?;
        let slot = &self.slots[idx];
        if slot.digest() != slot.checksum {
            return Err(CheckpointError::ChecksumMismatch { slot: idx });
        }
        sim.restore_from_parts(
            &slot.positions,
            &slot.velocities,
            &slot.masses,
            &slot.accel,
            slot.time,
            slot.steps_done,
            slot.accel_fresh,
        );
        if let Some(m) = slot.monitor {
            *monitor = m;
        }
        Ok(RestorePoint { time: slot.time, steps_done: slot.steps_done, age: nth })
    }

    /// Flip one bit of the newest slot's payload *without* refreshing its
    /// digest — simulates in-memory rot for tests of the checksum path.
    #[doc(hidden)]
    pub fn corrupt_newest_for_test(&mut self) {
        if let Ok(idx) = self.nth_newest(0) {
            if let Some(p) = self.slots[idx].positions.first_mut() {
                p.x = f64::from_bits(p.x.to_bits() ^ 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::integrator::{SimOptions, Simulation};
    use crate::solver::SolverKind;
    use crate::workload::galaxy_collision;

    fn sim(n: usize, seed: u64) -> Simulation {
        Simulation::new(galaxy_collision(n, seed), SolverKind::Bvh, SimOptions::default()).unwrap()
    }

    #[test]
    fn record_and_restore_round_trips_exactly() {
        let mut s = sim(200, 61);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        s.run(3);
        let reference = s.state().clone();
        let (t0, n0, _) = s.clock();
        let mut ring = CheckpointRing::with_capacity(2).unwrap();
        ring.record(&s, &mon);
        s.run(5);
        assert_ne!(s.state().positions, reference.positions);
        let p = ring.restore(0, &mut s, &mut mon).unwrap();
        assert_eq!(p.steps_done, n0);
        assert_eq!(s.state().positions, reference.positions);
        assert_eq!(s.state().velocities, reference.velocities);
        assert_eq!(s.clock().0, t0);
    }

    #[test]
    fn replay_after_restore_is_identical() {
        // Restoring state + accel + clock and re-running must reproduce the
        // original trajectory exactly (no faults in the window).
        let mut s = sim(150, 62);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        s.run(2);
        let mut ring = CheckpointRing::with_capacity(1).unwrap();
        ring.record(&s, &mon);
        s.run(4);
        let first = s.state().clone();
        ring.restore(0, &mut s, &mut mon).unwrap();
        s.run(4);
        assert_eq!(s.state().positions, first.positions, "replay diverged");
        assert_eq!(s.state().velocities, first.velocities);
    }

    #[test]
    fn ring_wraps_and_orders_newest_first() {
        let mut s = sim(50, 63);
        let mon = HealthMonitor::new(HealthConfig::default());
        let mut ring = CheckpointRing::with_capacity(3).unwrap();
        for _ in 0..5 {
            s.run(1);
            ring.record(&s, &mon);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.records(), 5);
        // Records were taken after steps 1..=5; the ring keeps 3, 4, 5.
        assert_eq!(ring.peek_steps(0).unwrap(), 5);
        assert_eq!(ring.peek_steps(1).unwrap(), 4);
        assert_eq!(ring.peek_steps(2).unwrap(), 3);
        assert!(matches!(ring.peek_steps(3), Err(CheckpointError::OutOfRange { .. })));
    }

    #[test]
    fn zero_capacity_is_a_typed_config_error() {
        // Regression: this used to be an assert (panic); the server admits
        // arbitrary session configs and needs a value-level rejection.
        assert!(matches!(CheckpointRing::with_capacity(0), Err(CheckpointError::ZeroCapacity)));
    }

    #[test]
    fn single_slot_ring_records_wraps_and_restores() {
        // Regression companion to the zero-capacity fix: the smallest legal
        // ring must survive repeated wrap-around records and still restore.
        let mut s = sim(60, 68);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let mut ring = CheckpointRing::with_capacity(1).unwrap();
        for step in 1..=4 {
            s.run(1);
            ring.record(&s, &mon);
            assert_eq!(ring.len(), 1);
            assert_eq!(ring.peek_steps(0).unwrap(), step);
        }
        let last = s.state().clone();
        s.run(2);
        ring.restore(0, &mut s, &mut mon).unwrap();
        assert_eq!(s.state().positions, last.positions);
        assert!(matches!(ring.peek_steps(1), Err(CheckpointError::OutOfRange { .. })));
    }

    #[test]
    fn empty_ring_reports_out_of_range() {
        let ring = CheckpointRing::with_capacity(2).unwrap();
        let mut s = sim(10, 64);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        assert!(matches!(
            ring.restore(0, &mut s, &mut mon),
            Err(CheckpointError::OutOfRange { requested: 0, stored: 0 })
        ));
    }

    #[test]
    fn rotted_slot_is_rejected_and_older_slot_still_restores() {
        let mut s = sim(100, 65);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let mut ring = CheckpointRing::with_capacity(2).unwrap();
        s.run(1);
        let older = s.state().clone();
        ring.record(&s, &mon);
        s.run(1);
        ring.record(&s, &mon);
        ring.corrupt_newest_for_test();
        assert!(matches!(
            ring.restore(0, &mut s, &mut mon),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // The older slot is intact; the ladder falls back to it.
        ring.restore(1, &mut s, &mut mon).unwrap();
        assert_eq!(s.state().positions, older.positions);
    }

    #[test]
    fn deferred_record_seals_before_restore() {
        let mut s = sim(80, 67);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let mut ring = CheckpointRing::with_capacity(2).unwrap();
        s.run(1);
        let reference = s.state().clone();
        ring.record_deferred(&s, &mon);
        s.run(2);
        // The guard forces the seal before inspecting any checksum; an
        // explicit seal_pending models that (and is idempotent).
        ring.seal_pending();
        ring.seal_pending();
        ring.restore(0, &mut s, &mut mon).unwrap();
        assert_eq!(s.state().positions, reference.positions);
        // A follow-up record seals the outstanding slot implicitly, so
        // back-to-back deferred records never leave two unsealed slots.
        ring.record_deferred(&s, &mon);
        s.run(1);
        ring.record_deferred(&s, &mon);
        ring.seal_pending();
        ring.restore(1, &mut s, &mut mon).unwrap();
        assert_eq!(s.state().positions, reference.positions);
    }

    #[test]
    fn steady_state_records_do_not_allocate_after_warm() {
        // Structural proxy for the alloc gate: after warm(), recording
        // must not grow any slot buffer's capacity.
        let mut s = sim(120, 66);
        let mon = HealthMonitor::new(HealthConfig::default());
        let mut ring = CheckpointRing::with_capacity(3).unwrap();
        ring.warm(s.state().len());
        let caps: Vec<usize> = ring.slots.iter().map(|sl| sl.positions.capacity()).collect();
        for _ in 0..7 {
            s.run(1);
            ring.record(&s, &mon);
        }
        for (sl, cap) in ring.slots.iter().zip(caps) {
            assert_eq!(sl.positions.capacity(), cap, "record grew a warmed buffer");
        }
    }
}
