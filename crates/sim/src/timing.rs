//! Per-phase step timings (powers the paper's Fig. 8 breakdown), plus
//! per-phase heap-allocation counts (powers the zero-steady-state-allocation
//! regression; see `DESIGN.md` § Memory management).

use std::time::Duration;
use stdpar::alloc_stats::allocation_count;

/// Heap allocations performed during each phase of one step, counted by
/// the [`stdpar::alloc_stats`] allocator when a binary installs it (behind
/// its `alloc-stats` feature). All zeros when the counting allocator is
/// not installed. After warm-up every field must be zero — the workspace
/// arena owns all transient buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepAllocs {
    pub bbox: u64,
    pub sort: u64,
    pub build: u64,
    pub multipole: u64,
    pub force: u64,
    pub update: u64,
}

impl StepAllocs {
    /// Total allocations across all phases.
    pub fn total(&self) -> u64 {
        self.bbox + self.sort + self.build + self.multipole + self.force + self.update
    }

    /// Element-wise sum.
    pub fn accumulate(&mut self, other: &StepAllocs) {
        self.bbox += other.bbox;
        self.sort += other.sort;
        self.build += other.build;
        self.multipole += other.multipole;
        self.force += other.force;
        self.update += other.update;
    }

    /// Phase names and counts, in algorithm order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("bbox", self.bbox),
            ("sort", self.sort),
            ("build", self.build),
            ("multipole", self.multipole),
            ("force", self.force),
            ("update", self.update),
        ]
    }
}

/// Per-phase *busy* nanoseconds. Every phase runs to completion inside its
/// own caller-observed window, so busy time is the wall duration of
/// [`StepTimings`] ([`PhaseBusy::from_wall`]), and their sum stays within
/// the step's wall time (asserted by the `pipeline` integration test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBusy {
    pub bbox: u64,
    pub sort: u64,
    pub build: u64,
    pub multipole: u64,
    pub force: u64,
    pub update: u64,
}

impl PhaseBusy {
    /// Total busy nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.bbox + self.sort + self.build + self.multipole + self.force + self.update
    }

    /// Element-wise sum.
    pub fn accumulate(&mut self, other: &PhaseBusy) {
        self.bbox += other.bbox;
        self.sort += other.sort;
        self.build += other.build;
        self.multipole += other.multipole;
        self.force += other.force;
        self.update += other.update;
    }

    /// Phase names and busy nanoseconds, in algorithm order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("bbox", self.bbox),
            ("sort", self.sort),
            ("build", self.build),
            ("multipole", self.multipole),
            ("force", self.force),
            ("update", self.update),
        ]
    }

    /// Busy attribution for a step record: phases never overlap, so each
    /// phase's busy time is exactly its wall window.
    pub fn from_wall(t: &StepTimings) -> Self {
        PhaseBusy {
            bbox: t.bbox.as_nanos() as u64,
            sort: t.sort.as_nanos() as u64,
            build: t.build.as_nanos() as u64,
            multipole: t.multipole.as_nanos() as u64,
            force: t.force.as_nanos() as u64,
            update: t.update.as_nanos() as u64,
        }
    }
}

/// Wall-clock time of each phase of one integration step (paper Algorithm
/// 2 for the octree, Algorithm 6 for the BVH — phases not applicable to a
/// solver stay zero).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// CALCULATEBOUNDINGBOX.
    pub bbox: Duration,
    /// HILBERTSORT (BVH only).
    pub sort: Duration,
    /// BUILDTREE (octree) / BVH box-structure construction. Zero on a step
    /// that reuses the tree or serves it stale.
    pub build: Duration,
    /// CALCULATEMULTIPOLES (octree) / ACCUMULATEMASS (BVH moment
    /// reduction). Zero on a step that reuses the tree or serves it stale.
    pub multipole: Duration,
    /// CALCULATEFORCE.
    pub force: Duration,
    /// UPDATEPOSITION (filled by the integrator).
    pub update: Duration,
    /// Heap allocations per phase (zeros unless the counting allocator is
    /// installed; see [`StepAllocs`]).
    pub allocs: StepAllocs,
    /// Per-phase busy nanoseconds (see [`PhaseBusy`]). Filled by
    /// [`crate::Simulation::step_into`]; zero for raw
    /// [`crate::ForceSolver::try_compute_into`] calls.
    pub busy: PhaseBusy,
}

impl StepTimings {
    /// Total step time.
    pub fn total(&self) -> Duration {
        self.bbox + self.sort + self.build + self.multipole + self.force + self.update
    }

    /// Everything except the force phase (the paper's Fig. 8 plots the
    /// relative cost of the non-force components).
    pub fn non_force(&self) -> Duration {
        self.total() - self.force
    }

    /// Element-wise sum (for averaging over steps).
    pub fn accumulate(&mut self, other: &StepTimings) {
        self.bbox += other.bbox;
        self.sort += other.sort;
        self.build += other.build;
        self.multipole += other.multipole;
        self.force += other.force;
        self.update += other.update;
        self.allocs.accumulate(&other.allocs);
        self.busy.accumulate(&other.busy);
    }

    /// Phase names and durations, in algorithm order.
    pub fn phases(&self) -> [(&'static str, Duration); 6] {
        [
            ("bbox", self.bbox),
            ("sort", self.sort),
            ("build", self.build),
            ("multipole", self.multipole),
            ("force", self.force),
            ("update", self.update),
        ]
    }
}

/// Time a closure, adding the elapsed time into `slot`.
#[inline]
pub fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let r = f();
    *slot += start.elapsed();
    r
}

/// [`timed`] that also adds the number of heap allocations the closure
/// performed into `allocs` (a delta of the process-wide
/// [`allocation_count`]; zero when the counting allocator is not
/// installed). The count is process-wide, so concurrent allocations on
/// other application threads would be attributed here too — the phases of
/// a step run on the calling thread (workers it spawns are part of the
/// phase), so in practice the delta is the phase's own. The delta
/// saturates at zero: if `stdpar::alloc_stats::reset_allocation_count`
/// runs during the closure the second read is smaller than the first, and
/// a plain subtraction would wrap to a near-`u64::MAX` phantom count.
#[inline]
pub fn timed_counted<R>(slot: &mut Duration, allocs: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = allocation_count();
    let r = timed(slot, f);
    *allocs += allocation_count().saturating_sub(before);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_accumulate() {
        let mut a = StepTimings {
            bbox: Duration::from_millis(1),
            force: Duration::from_millis(10),
            ..StepTimings::default()
        };
        assert_eq!(a.total(), Duration::from_millis(11));
        assert_eq!(a.non_force(), Duration::from_millis(1));

        let b = StepTimings {
            force: Duration::from_millis(5),
            update: Duration::from_millis(2),
            ..StepTimings::default()
        };
        a.accumulate(&b);
        assert_eq!(a.total(), Duration::from_millis(18));
    }

    #[test]
    fn timed_measures_and_returns() {
        let mut slot = Duration::ZERO;
        let out = timed(&mut slot, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(slot >= Duration::from_millis(4));
    }

    #[test]
    fn phases_are_ordered() {
        let t = StepTimings::default();
        let names: Vec<&str> = t.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["bbox", "sort", "build", "multipole", "force", "update"]);
        let a = StepAllocs::default();
        let alloc_names: Vec<&str> = a.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, alloc_names, "timing and alloc phases must stay aligned");
        let b = PhaseBusy::default();
        let busy_names: Vec<&str> = b.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, busy_names, "timing and busy phases must stay aligned");
    }

    #[test]
    fn busy_from_wall_mirrors_durations() {
        let mut t = StepTimings {
            bbox: Duration::from_nanos(7),
            sort: Duration::from_nanos(11),
            force: Duration::from_nanos(100),
            ..StepTimings::default()
        };
        let busy = PhaseBusy::from_wall(&t);
        assert_eq!(busy.bbox, 7);
        assert_eq!(busy.sort, 11);
        assert_eq!(busy.force, 100);
        assert_eq!(busy.total(), 118);
        // Accumulation flows through StepTimings::accumulate.
        t.busy = busy;
        let mut sum = StepTimings::default();
        sum.accumulate(&t);
        sum.accumulate(&t);
        assert_eq!(sum.busy.total(), 236);
    }

    #[test]
    fn alloc_counts_total_and_accumulate() {
        let mut a = StepAllocs { build: 3, force: 2, ..StepAllocs::default() };
        assert_eq!(a.total(), 5);
        a.accumulate(&StepAllocs { force: 1, update: 4, ..StepAllocs::default() });
        assert_eq!(a.total(), 10);
        // And through StepTimings::accumulate.
        let mut t = StepTimings { allocs: a, ..StepTimings::default() };
        t.accumulate(&StepTimings { allocs: a, ..StepTimings::default() });
        assert_eq!(t.allocs.total(), 20);
    }

    #[test]
    fn timed_counted_returns_and_does_not_underflow() {
        // Without the counting allocator installed the delta is 0 - 0;
        // with it, allocations inside the closure must not *decrease* the
        // tally. Either way the closure's value passes through.
        let mut slot = Duration::ZERO;
        let mut allocs = 0u64;
        let v = timed_counted(&mut slot, &mut allocs, || vec![1u8; 4096].len());
        assert_eq!(v, 4096);
        let before = allocs;
        timed_counted(&mut slot, &mut allocs, || ());
        assert_eq!(allocs, before, "empty closure must add zero allocations");

        // Regression: a counter reset *inside* the timed window used to
        // wrap the delta to near u64::MAX (allocation_count() went
        // backwards and the subtraction underflowed). One test fn owns all
        // counter mutation — the counter is process-wide and the harness
        // runs tests concurrently. `CountingAlloc` counts even when not
        // installed as the global allocator, which lets us move the
        // counter off zero without depending on the test binary's
        // allocator configuration.
        use std::alloc::GlobalAlloc;
        use stdpar::alloc_stats::{reset_allocation_count, CountingAlloc};
        let layout = std::alloc::Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            CountingAlloc.dealloc(p, layout);
        }
        assert!(allocation_count() > 0);
        let mut allocs = 0u64;
        timed_counted(&mut slot, &mut allocs, reset_allocation_count);
        assert_eq!(allocs, 0, "reset during the window must saturate, not wrap");
    }
}
