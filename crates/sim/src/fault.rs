//! Deterministic, seeded fault injection for the guarded stepping layer.
//!
//! A [`FaultInjector`] decides — purely as a function of `(seed, step)` —
//! which faults to inject into a micro-step of a
//! [`GuardedSimulation`](crate::guard::GuardedSimulation). Determinism is
//! the whole point: a failing recovery test reproduces from its seed alone,
//! with no dependence on thread timing, global RNG state, or call order.
//! Internally each step gets its own [`SplitMix64`]
//! stream seeded from `seed ^ mix(step)`, so querying steps out of order (or
//! twice) returns identical answers.

use nbody_math::SplitMix64;

/// The classes of fault the guard's injector can apply.
///
/// [`FaultKind::StuckLock`] strikes the force pass (armed on the solver
/// before the micro-step, so its build fails); the other four damage the
/// persistent simulation state or its durable checkpoints *after* the step,
/// modelling torn updates, radiation bit-flips and partial writes. Either
/// way the guard rolls back and replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A worker acquires a tree-node lock and never releases it, livelocking
    /// peers that spin on the slot (the octree's build fails with
    /// `BuildError::SpinBudgetExhausted`; other solvers ignore it).
    StuckLock,
    /// A component of one persistent body position is seeded with NaN
    /// *after* the step's update phase (a torn/omitted write).
    NanInject,
    /// A high exponent bit of one persistent position component is flipped
    /// (a radiation-style single-event upset): the value teleports to an
    /// astronomically large or vanishingly small magnitude.
    PositionBitFlip,
    /// The most recent durable checkpoint file is truncated after the
    /// write (a crash mid-flush / torn rename).
    CheckpointTruncation,
    /// One byte of the most recent durable checkpoint file is bit-flipped
    /// in place (storage corruption).
    CheckpointBitFlip,
}

impl FaultKind {
    /// All fault kinds, in the fixed order rate schedules draw in. Only
    /// kinds with a configured rate draw, so a schedule is unchanged by
    /// kinds it does not name.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::StuckLock,
        FaultKind::NanInject,
        FaultKind::PositionBitFlip,
        FaultKind::CheckpointTruncation,
        FaultKind::CheckpointBitFlip,
    ];
}

/// A deterministic fault schedule.
///
/// Two mechanisms compose:
/// * **rates** ([`FaultInjector::with_rate`]) — each step, each kind fires
///   independently with the given probability, decided by the per-step RNG
///   stream;
/// * **script** ([`FaultInjector::at_step`]) — a kind fires at exactly the
///   given step, unconditionally.
///
/// [`FaultInjector::faults_at`] returns the union, in [`FaultKind::ALL`]
/// order, each kind at most once per step.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    rates: Vec<(FaultKind, f64)>,
    scripted: Vec<(u64, FaultKind)>,
}

impl FaultInjector {
    /// A schedule that injects nothing (until configured).
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed, rates: Vec::new(), scripted: Vec::new() }
    }

    /// Fire `kind` each step with probability `rate` (clamped to `[0, 1]`).
    /// Later calls for the same kind replace earlier ones.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        if let Some(slot) = self.rates.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 = rate;
        } else {
            self.rates.push((kind, rate));
        }
        self
    }

    /// Fire `kind` at exactly `step`, regardless of rates.
    pub fn at_step(mut self, step: u64, kind: FaultKind) -> Self {
        self.scripted.push((step, kind));
        self
    }

    /// The faults to inject at `step`. Pure in `(self, step)`: any query
    /// order, repetition, or interleaving yields the same answer.
    pub fn faults_at(&self, step: u64) -> Vec<FaultKind> {
        // Decorrelate the per-step stream from both seed and step with a
        // 64-bit finalizer so adjacent steps don't share low-bit structure.
        let mut rng = SplitMix64::new(self.seed ^ mix(step));
        let mut out = Vec::new();
        for kind in FaultKind::ALL {
            let by_rate = self
                .rates
                .iter()
                .find(|(k, _)| *k == kind)
                .is_some_and(|&(_, rate)| rng.next_f64() < rate);
            let by_script = self.scripted.iter().any(|&(s, k)| s == step && k == kind);
            if by_rate || by_script {
                out.push(kind);
            }
        }
        out
    }

    /// Whether `kind` fires at `step`.
    pub fn fires(&self, step: u64, kind: FaultKind) -> bool {
        self.faults_at(step).contains(&kind)
    }

    /// A deterministic RNG stream for the *parameters* of the faults fired
    /// at `step` (which body, which component, which bit). Decorrelated
    /// from the fire/no-fire decision stream of [`FaultInjector::faults_at`]
    /// by an extra salt, so drawing parameters never perturbs the schedule.
    pub fn param_stream(&self, step: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ mix(step) ^ 0x9E37_79B9_7F4A_7C15)
    }
}

/// Stafford variant 13 of the MurmurHash3 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(0xDEAD_BEEF)
            .with_rate(FaultKind::StuckLock, 0.3)
            .with_rate(FaultKind::NanInject, 0.1);
        let b = a.clone();
        for step in 0..500 {
            assert_eq!(a.faults_at(step), b.faults_at(step), "step {step}");
        }
    }

    #[test]
    fn query_order_is_irrelevant() {
        let inj = FaultInjector::new(77).with_rate(FaultKind::PositionBitFlip, 0.5);
        let forward: Vec<_> = (0..100).map(|s| inj.faults_at(s)).collect();
        let backward: Vec<_> = (0..100).rev().map(|s| inj.faults_at(s)).collect();
        for (s, faults) in backward.iter().rev().enumerate() {
            assert_eq!(&forward[s], faults);
        }
    }

    #[test]
    fn scripted_faults_fire_exactly_once() {
        let inj = FaultInjector::new(1).at_step(17, FaultKind::StuckLock);
        for step in 0..100 {
            let hit = inj.fires(step, FaultKind::StuckLock);
            assert_eq!(hit, step == 17, "step {step}");
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(99).with_rate(FaultKind::NanInject, 0.25);
        let hits = (0..4000).filter(|&s| inj.fires(s, FaultKind::NanInject)).count();
        // 4000 trials at p=0.25: expect ~1000; allow a generous band.
        assert!((800..1200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn zero_and_full_rates() {
        let never = FaultInjector::new(5).with_rate(FaultKind::NanInject, 0.0);
        let always = FaultInjector::new(5).with_rate(FaultKind::NanInject, 1.0);
        for step in 0..200 {
            assert!(!never.fires(step, FaultKind::NanInject));
            assert!(always.fires(step, FaultKind::NanInject));
        }
    }

    #[test]
    fn a_later_kind_does_not_perturb_an_earlier_kinds_schedule() {
        // Adding a rate for a later kind must leave the draw order (and
        // therefore the schedule) of the earlier kinds intact.
        let base = FaultInjector::new(0xC0FFEE).with_rate(FaultKind::StuckLock, 0.3);
        let extended = base.clone().with_rate(FaultKind::NanInject, 0.5);
        for step in 0..300 {
            assert_eq!(
                base.fires(step, FaultKind::StuckLock),
                extended.fires(step, FaultKind::StuckLock),
                "step {step}"
            );
        }
    }

    #[test]
    fn param_stream_is_deterministic_and_decorrelated() {
        let inj = FaultInjector::new(42).with_rate(FaultKind::NanInject, 1.0);
        let a: Vec<u64> = (0..4).map(|s| inj.param_stream(s).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|s| inj.param_stream(s).next_u64()).collect();
        assert_eq!(a, b, "parameters are a pure function of (seed, step)");
        // Drawing parameters must not change the fire/no-fire schedule.
        let before: Vec<_> = (0..50).map(|s| inj.faults_at(s)).collect();
        let _ = inj.param_stream(17).next_u64();
        let after: Vec<_> = (0..50).map(|s| inj.faults_at(s)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn rate_replacement_not_duplication() {
        let inj = FaultInjector::new(3)
            .with_rate(FaultKind::StuckLock, 1.0)
            .with_rate(FaultKind::StuckLock, 0.0);
        assert!(!inj.fires(0, FaultKind::StuckLock));
        assert_eq!(inj.rates.len(), 1);
    }
}
