//! The concurrent octree: storage, bump allocation, and the parallel
//! BUILDTREE step (paper Algorithms 4 & 5).

use crate::tags::{self, Slot, CHILDREN, EMPTY, FIRST_GROUP, LOCKED};
use crate::traverse::{QuadColumns, WalkLayout};
pub use nbody_math::BuildError;
use nbody_math::{Aabb, AtomicF64, Vec3};
use nbody_telemetry::record;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use stdpar::prelude::*;

/// Maximum descent depth before bodies are chained as co-located.
///
/// Two bodies closer than `root_edge / 2^MAX_DEPTH` (or at identical
/// positions) stop sub-dividing and are linked into a per-leaf chain whose
/// members interact directly. Guarantees termination for degenerate inputs.
pub const MAX_DEPTH: u32 = 96;

/// Sentinel terminating a co-located chain.
pub const CHAIN_END: u32 = u32::MAX;

/// Statistics returned by a successful [`Octree::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildStats {
    /// Number of node slots allocated (root + padding + groups).
    pub allocated_nodes: u32,
    /// Number of bodies inserted.
    pub bodies: usize,
    /// How many times the node pool had to be grown and the build restarted.
    pub retries: u32,
}

/// Default per-worker budget of *consecutive* spins on one locked slot.
///
/// Under parallel forward progress a lock holder finishes its constant-work
/// critical section after a bounded delay, so a healthy build never comes
/// close to this. Exhausting it means the holder is stuck (crashed,
/// descheduled forever, or a seeded fault) — the build aborts with
/// [`BuildError::SpinBudgetExhausted`] instead of hanging.
pub const DEFAULT_SPIN_BUDGET: u64 = 1 << 24;

/// Shared control block threaded through the per-body insert lambdas of one
/// build attempt: the first worker to observe a fatal condition flags it and
/// every other worker bails out promptly.
///
/// Ordering protocol: both flags are **published with `Release` and read
/// with `Acquire`**. Each flag is raised after writes the observer relies
/// on — `spin_exhausted` after the `max_spins` diagnostic it reports,
/// `overflow` after the leaf-restore store that un-wedges the tree — so an
/// observed flag carries those writes with it. (Flag reads used to be
/// `Relaxed`; that let an observer see `spin_exhausted` without the
/// `max_spins` value behind it.)
struct InsertCtl {
    /// A group allocation failed: grow the pool and restart the build.
    overflow: AtomicBool,
    /// A worker exceeded its spin budget: the build is livelocked.
    spin_exhausted: AtomicBool,
    /// Largest consecutive-spin count observed by a giving-up worker.
    max_spins: AtomicU64,
}

impl InsertCtl {
    fn new() -> Self {
        InsertCtl {
            overflow: AtomicBool::new(false),
            spin_exhausted: AtomicBool::new(false),
            max_spins: AtomicU64::new(0),
        }
    }

    /// True once any worker flagged a condition that dooms this attempt.
    /// `Acquire`: pairs with the `Release` flag stores, so a worker bailing
    /// out also sees every write the flagger published before flagging.
    fn aborted(&self) -> bool {
        self.overflow.load(Ordering::Acquire) || self.spin_exhausted.load(Ordering::Acquire)
    }
}

/// The concurrent octree (see crate docs).
pub struct Octree {
    /// Tagged child slot per node (Fig. 1: "one offset to first child per node").
    pub(crate) child: Vec<AtomicU32>,
    /// Parent node index per sibling group (Fig. 1: "one parent offset per siblings").
    pub(crate) parent: Vec<AtomicU32>,
    /// Bump pointer: next free node index (always group-aligned).
    bump: AtomicU32,
    /// Co-located chain links, one per body.
    pub(crate) next_colocated: Vec<AtomicU32>,
    /// Root cell geometry: the bounding cube.
    pub(crate) root_center: Vec3,
    /// Root cell edge length.
    pub(crate) root_edge: f64,
    /// Multipole storage, sized to `allocated_nodes` by `compute_multipoles`.
    pub(crate) node_mass: Vec<AtomicF64>,
    pub(crate) node_com: [Vec<AtomicF64>; 3],
    /// Optional second moments (quadrupole extension): xx, xy, xz, yy, yz, zz.
    pub(crate) node_quad: Option<QuadColumns>,
    /// Arrival counters for the wait-free tree reduction.
    pub(crate) arrivals: Vec<AtomicU32>,
    /// The walk-order copy of the non-empty nodes CALCULATEFORCE runs on
    /// (see [`crate::traverse`]), rewritten by `compute_multipoles`.
    pub(crate) layout: WalkLayout,
    /// `compute_multipoles` ran since the last `build`: the moments and the
    /// layout describe this tree, not a previous one. Every build, failed
    /// ones included, clears it; force evaluation refuses without it.
    pub(crate) moments_current: bool,
    /// Number of bodies in the current build.
    pub(crate) n_bodies: usize,
    /// High-water mark of initialised (zeroed) child slots.
    initialized: u32,
    /// Per-worker consecutive-spin budget (see [`DEFAULT_SPIN_BUDGET`]).
    spin_budget: u64,
    /// One-shot fault: leave the root slot LOCKED for the next build.
    inject_stuck_lock: bool,
    /// One-shot fault: cap the allocator for the next build so it overflows.
    inject_pool_exhaustion: bool,
    /// Allocator cap in effect for the current build (`u32::MAX` = none).
    alloc_limit: u32,
    /// Install [`Octree::probe_build_invariants`] as a DetPar between-step
    /// probe for the insert region of every build (see
    /// [`Octree::set_step_probes`]).
    step_probes: bool,
}

impl Default for Octree {
    fn default() -> Self {
        Self::new()
    }
}

impl Octree {
    /// An empty tree; the node pool grows on demand.
    pub fn new() -> Self {
        Self::with_node_capacity(1024)
    }

    /// An empty tree with an initial node-pool capacity (rounded up to a
    /// whole number of sibling groups).
    pub fn with_node_capacity(nodes: usize) -> Self {
        let nodes = pool_size_for(nodes as u32);
        Octree {
            child: make_atomic_u32(nodes as usize, EMPTY),
            parent: make_atomic_u32((nodes as usize).saturating_sub(FIRST_GROUP as usize) / CHILDREN as usize, 0),
            bump: AtomicU32::new(FIRST_GROUP),
            next_colocated: Vec::new(),
            root_center: Vec3::ZERO,
            root_edge: 0.0,
            node_mass: Vec::new(),
            node_com: [Vec::new(), Vec::new(), Vec::new()],
            node_quad: None,
            arrivals: Vec::new(),
            layout: WalkLayout::default(),
            moments_current: false,
            n_bodies: 0,
            initialized: 0,
            spin_budget: DEFAULT_SPIN_BUDGET,
            inject_stuck_lock: false,
            inject_pool_exhaustion: false,
            alloc_limit: u32::MAX,
            step_probes: false,
        }
    }

    /// Bound the number of consecutive spins a worker may burn waiting on
    /// one locked slot before the build aborts with
    /// [`BuildError::SpinBudgetExhausted`]. A budget of 0 never spins.
    pub fn set_spin_budget(&mut self, budget: u64) {
        self.spin_budget = budget;
    }

    /// Current consecutive-spin budget.
    pub fn spin_budget(&self) -> u64 {
        self.spin_budget
    }

    /// Fault injection: the *next* build starts with the root slot LOCKED,
    /// as if a worker died inside its critical section. Exactly one build is
    /// affected; the rebuild after it observes a clean pool. Test-only in
    /// spirit, but kept available in release builds so the resilience
    /// harness can exercise production code paths.
    pub fn inject_stuck_lock(&mut self) {
        self.inject_stuck_lock = true;
    }

    /// Fault injection: the *next* build runs with the node allocator capped
    /// at its first sibling group, forcing [`BuildError::PoolExhausted`]
    /// without the usual grow-and-retry. One-shot, like
    /// [`Octree::inject_stuck_lock`].
    pub fn inject_pool_exhaustion(&mut self) {
        self.inject_pool_exhaustion = true;
    }

    /// Run [`Octree::probe_build_invariants`] between every scheduler step
    /// of the insert region when building under
    /// [`Backend::DetPar`](stdpar::backend::Backend): the probe panics the
    /// moment a torn tag, an out-of-bump child group, or a backwards bump
    /// pointer becomes observable, pinning a schedule-fuzz failure to the
    /// exact step that exposed it. A no-op under the real backend (probes
    /// only fire in the DetPar executor).
    pub fn set_step_probes(&mut self, enable: bool) {
        self.step_probes = enable;
    }

    /// Mid-build well-formedness check, designed to run between DetPar
    /// scheduler steps (no insert is in flight at a step boundary, but the
    /// tree may be arbitrarily partial). What must hold at *every* step
    /// boundary:
    ///
    /// * every child tag below the bump pointer decodes to a value some
    ///   insert actually stored — `Empty`, `Locked` (only under fault
    ///   injection or mid-critical-section), `Body(b)` with `b` in range,
    ///   or a group-aligned `Node` offset strictly after its parent. Any
    ///   other pattern is a torn or corrupt child-pointer read;
    /// * every *published* child group lies wholly below the bump pointer
    ///   and its parent back-pointer names the publishing node;
    /// * the bump pointer is group-aligned and never moves backwards:
    ///   callers thread the previous return value in as `min_bump`
    ///   (starting from 0) to assert monotonicity across probe calls.
    ///
    /// Returns the observed bump value. Panics on violation — DetPar probes
    /// signal failure by panicking.
    pub fn probe_build_invariants(&self, min_bump: u32) -> u32 {
        let cap = self.child.len() as u32;
        let bump = self.bump.load(Ordering::Acquire);
        assert!(bump >= min_bump, "bump pointer moved backwards: {bump} < {min_bump}");
        assert!(
            bump >= FIRST_GROUP && (bump - FIRST_GROUP).is_multiple_of(CHILDREN),
            "bump pointer {bump} not group-aligned"
        );
        let n = self.n_bodies as u32;
        let limit = bump.min(cap);
        for i in 0..limit {
            let tag = self.child[i as usize].load(Ordering::Acquire);
            match tags::decode(tag) {
                Slot::Empty | Slot::Locked => {}
                Slot::Body(b) => {
                    assert!(b < n, "node {i}: body tag {b} out of range (n={n})");
                }
                Slot::Node(c) => {
                    assert!(
                        c >= FIRST_GROUP && (c - FIRST_GROUP).is_multiple_of(CHILDREN),
                        "node {i}: torn child tag {tag:#x} (offset {c} not group-aligned)"
                    );
                    assert!(c > i, "node {i}: child group {c} not after its parent");
                    assert!(
                        c + CHILDREN <= limit,
                        "node {i}: published child group {c} beyond bump {limit}"
                    );
                    // relaxed-ok: the back-pointer was written before the
                    // Release publish of the child slot this probe just
                    // Acquire-loaded the group through.
                    let back = self.parent[tags::group_of(c) as usize].load(Ordering::Relaxed);
                    assert!(back == i, "group {c}: parent back-pointer {back}, expected {i}");
                }
            }
        }
        bump
    }

    /// Enable or disable quadrupole moments for subsequent
    /// `compute_multipoles` calls (the paper's "extends to multipoles"
    /// extension; monopole-only is the paper's evaluated configuration).
    pub fn set_quadrupole(&mut self, enable: bool) {
        if enable {
            if self.node_quad.is_none() {
                self.node_quad = Some(std::array::from_fn(|_| Vec::new()));
            }
        } else {
            self.node_quad = None;
        }
    }

    /// True when quadrupole moments are enabled.
    pub fn quadrupole_enabled(&self) -> bool {
        self.node_quad.is_some()
    }

    /// Number of node slots handed out by the bump allocator.
    #[inline]
    pub fn allocated_nodes(&self) -> u32 {
        // relaxed-ok: a monotonic counter read for introspection; callers
        // consume node data only after the build region joined (or through
        // Acquire slot loads), never ordered by this load.
        self.bump.load(Ordering::Relaxed).min(self.child.len() as u32)
    }

    /// Number of bodies in the last build.
    #[inline]
    pub fn n_bodies(&self) -> usize {
        self.n_bodies
    }

    /// Root cell edge length of the last build.
    #[inline]
    pub fn root_edge(&self) -> f64 {
        self.root_edge
    }

    /// Node-pool capacity in slots.
    #[inline]
    pub fn node_capacity(&self) -> usize {
        self.child.len()
    }

    /// Decoded state of node `i` (post-build introspection).
    #[inline]
    pub fn slot(&self, i: u32) -> Slot {
        tags::decode(self.child[i as usize].load(Ordering::Acquire))
    }

    /// Parent node index of node `i > 0`.
    #[inline]
    pub fn parent_of(&self, i: u32) -> u32 {
        // relaxed-ok: the parent entry is written inside the critical
        // section that precedes the group's Release publish, and readers
        // only reach group `i` through an Acquire load of that published
        // slot (or after the build joined) — the edge is on the child slot,
        // not here.
        self.parent[tags::group_of(i) as usize].load(Ordering::Relaxed)
    }

    /// Iterate a co-located body chain starting at its head body.
    pub fn chain(&self, head: u32) -> ChainIter<'_> {
        ChainIter { tree: self, cur: head }
    }

    /// BUILDTREE (paper Algorithm 4): insert all bodies in parallel.
    ///
    /// `bounds` is the box from CALCULATEBOUNDINGBOX; the root cell is its
    /// bounding cube. The policy is bounded by [`ParallelForwardProgress`]
    /// because insertion takes per-leaf locks (starvation-free): `Seq` and
    /// `Par` compile, `ParUnseq` does not.
    ///
    /// On pool overflow the pool is grown ×2 and the build restarts (the
    /// paper sizes the pool from an isotropic-subdivision estimate; growth
    /// makes the estimate self-correcting).
    ///
    /// Every call, successful or not, leaves the moments stale: forces need
    /// a [`Octree::compute_multipoles`] after it.
    pub fn build<P>(&mut self, policy: P, positions: &[Vec3], bounds: Aabb) -> Result<BuildStats, BuildError>
    where
        P: ParallelForwardProgress,
    {
        self.moments_current = false;
        let n = positions.len();
        if n > tags::MAX_INDEX as usize {
            return Err(BuildError::TooManyBodies { n });
        }
        self.n_bodies = n;
        if n == 0 {
            self.reset_slots();
            self.root_center = Vec3::ZERO;
            self.root_edge = 0.0;
            return Ok(BuildStats { allocated_nodes: FIRST_GROUP, bodies: 0, retries: 0 });
        }
        if bounds.is_empty() || !bounds.min.is_finite() || !bounds.max.is_finite() {
            return Err(BuildError::InvalidPositions);
        }
        let cube = bounds.to_cube();
        self.root_center = cube.center();
        self.root_edge = cube.extent().x;

        // Pool estimate: every body costs at most one group on the path it
        // opens; clustered inputs need more, handled by growth-retry.
        let want = pool_size_for((2 * n as u32).max(1024));
        if self.child.len() < want as usize {
            self.grow_pool(want)?;
        }
        if self.next_colocated.len() < n {
            self.next_colocated = make_atomic_u32(n, CHAIN_END);
        }

        // One-shot fault arming: consumed by exactly this build.
        let stuck_lock = std::mem::take(&mut self.inject_stuck_lock);
        self.alloc_limit =
            if std::mem::take(&mut self.inject_pool_exhaustion) { FIRST_GROUP } else { u32::MAX };

        let mut retries = 0u32;
        loop {
            self.reset_slots();
            if stuck_lock && retries == 0 {
                // Simulate a worker that died holding the root lock.
                self.child[0].store(LOCKED, Ordering::Release);
            }
            // Reset chains for this build.
            for_each(policy, &mut self.next_colocated[..n], |c| *c = AtomicU32::new(CHAIN_END));

            let ctl = InsertCtl::new();
            let this = &*self;
            let c = &ctl;
            let insert_region = || {
                for_each_index(policy, 0..n, |b| {
                    if !c.aborted() {
                        this.insert(b as u32, positions, c);
                    }
                })
            };
            if self.step_probes {
                // Between-step invariant probe (fires only under DetPar):
                // the Cell threads bump monotonicity across probe calls.
                let last_bump = std::cell::Cell::new(0u32);
                stdpar::detpar::with_probe(
                    || last_bump.set(this.probe_build_invariants(last_bump.get())),
                    insert_region,
                );
            } else {
                insert_region();
            }

            // Acquire pairs with the Release flag store: observing the flag
            // guarantees the `max_spins` diagnostic behind it is visible.
            if ctl.spin_exhausted.load(Ordering::Acquire) {
                // Livelock: a bigger pool cannot help, so no retry here. The
                // pool is left dirty (reset at the next build).
                return Err(BuildError::SpinBudgetExhausted {
                    // relaxed-ok: ordered after the flag by the Acquire load
                    // above (and the parallel region has joined besides).
                    spins: ctl.max_spins.load(Ordering::Relaxed),
                });
            }
            if !ctl.overflow.load(Ordering::Acquire) {
                let allocated_nodes = self.allocated_nodes();
                record!(counter OCTREE_BUILDS, 1);
                if retries > 0 {
                    record!(counter OCTREE_BUILD_RETRIES, retries as u64);
                }
                record!(gauge OCTREE_POOL_HIGH_WATER, allocated_nodes as u64);
                return Ok(BuildStats { allocated_nodes, bodies: n, retries });
            }
            if self.alloc_limit != u32::MAX {
                // Injected exhaustion: report rather than grow, and disarm so
                // the caller's retry observes a healthy allocator.
                let limit = self.alloc_limit;
                self.alloc_limit = u32::MAX;
                return Err(BuildError::PoolExhausted { requested_nodes: limit });
            }
            retries += 1;
            let new_size = pool_size_for((self.child.len() as u32).saturating_mul(2));
            self.grow_pool(new_size)?;
        }
    }

    /// Insert one body (the per-element lambda of Algorithm 4). Contention
    /// telemetry (lock-bit spins, lost CASes) tallies in locals inside
    /// [`Octree::insert_inner`] and flushes here, once per body and only
    /// when contention actually happened — an uncontended insert performs
    /// zero extra atomic operations.
    fn insert(&self, b: u32, positions: &[Vec3], ctl: &InsertCtl) {
        let mut spins_total = 0u64;
        let mut cas_retries = 0u64;
        self.insert_inner(b, positions, ctl, &mut spins_total, &mut cas_retries);
        if spins_total > 0 {
            record!(counter OCTREE_SPIN_ITERS, spins_total);
        }
        if cas_retries > 0 {
            record!(counter OCTREE_LOCK_CAS_RETRIES, cas_retries);
        }
    }

    fn insert_inner(
        &self,
        b: u32,
        positions: &[Vec3],
        ctl: &InsertCtl,
        spins_total: &mut u64,
        cas_retries: &mut u64,
    ) {
        let p = positions[b as usize];
        let mut i = 0u32;
        let mut center = self.root_center;
        let mut half = self.root_edge * 0.5;
        let mut depth = 0u32;
        // Consecutive spins on the *current* locked slot; any forward step
        // (or even a failed CAS, which proves the slot changed) resets it.
        let mut spins = 0u64;
        loop {
            let tag = self.child[i as usize].load(Ordering::Acquire);
            match tags::decode(tag) {
                Slot::Node(c) => {
                    // Forward step: descend into the child covering `p`.
                    spins = 0;
                    let oct = Aabb::octant_of(center, p);
                    center = octant_center(center, half, oct);
                    half *= 0.5;
                    i = c + oct as u32;
                    depth += 1;
                }
                Slot::Empty => {
                    spins = 0;
                    // Try to claim the empty leaf directly.
                    if self.child[i as usize]
                        .compare_exchange_weak(
                            tag,
                            tags::body_tag(b),
                            Ordering::AcqRel,
                            // relaxed-ok: the failure value is discarded;
                            // the retry re-reads the slot with Acquire.
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        return;
                    }
                    // Lost the race; re-examine the slot.
                    *cas_retries += 1;
                }
                Slot::Locked => {
                    // Another thread is sub-dividing: wait (starvation-free —
                    // requires parallel forward progress, hence the `par`
                    // bound). The wait is budgeted: a holder that never
                    // publishes would otherwise livelock the whole build.
                    spins += 1;
                    *spins_total += 1;
                    if spins > self.spin_budget {
                        // relaxed-ok: the diagnostic payload; publication is
                        // the Release store of the flag just below.
                        ctl.max_spins.fetch_max(spins, Ordering::Relaxed);
                        // Release: publishes `max_spins` to whoever observes
                        // the flag (Acquire in `aborted` / the build loop).
                        ctl.spin_exhausted.store(true, Ordering::Release);
                        return;
                    }
                    if spins.is_multiple_of(64) && ctl.spin_exhausted.load(Ordering::Acquire) {
                        // A peer already diagnosed the livelock; don't burn
                        // a full budget rediscovering it.
                        return;
                    }
                    std::hint::spin_loop();
                }
                Slot::Body(b2) => {
                    spins = 0;
                    // Try to lock the leaf for sub-division (Algorithm 5).
                    // relaxed-ok (failure ordering): the failure value is
                    // discarded; the retry re-reads the slot with Acquire.
                    if self.child[i as usize]
                        .compare_exchange_weak(tag, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_err()
                    {
                        *cas_retries += 1;
                        continue;
                    }
                    // --- critical section ---
                    let p2 = positions[b2 as usize];
                    if depth >= MAX_DEPTH || p == p2 {
                        // Co-located (or resolution exhausted): chain `b`
                        // behind the resident body instead of sub-dividing.
                        // relaxed-ok (all three chain ops): the chain is only
                        // mutated under this leaf's lock, and the Release
                        // store unlocking the leaf below publishes it;
                        // readers reach the chain head via an Acquire load of
                        // the leaf slot.
                        let next = self.next_colocated[b2 as usize].load(Ordering::Relaxed);
                        self.next_colocated[b as usize].store(next, Ordering::Relaxed);
                        self.next_colocated[b2 as usize].store(b, Ordering::Relaxed);
                        self.child[i as usize].store(tags::body_tag(b2), Ordering::Release);
                        return;
                    }
                    match self.allocate_group() {
                        Some(c) => {
                            // Move the resident body into its child, then
                            // publish the new children with a release store.
                            // relaxed-ok (parent + child-slot init): both
                            // writes are sequenced before the Release publish
                            // of the parent slot, and no other thread can
                            // name the fresh group until it observes that
                            // publish with Acquire.
                            self.parent[tags::group_of(c) as usize].store(i, Ordering::Relaxed);
                            let oct2 = Aabb::octant_of(center, p2);
                            self.child[(c + oct2 as u32) as usize]
                                .store(tags::body_tag(b2), Ordering::Relaxed);
                            self.child[i as usize].store(tags::node_tag(c), Ordering::Release);
                            // Next iteration traverses into the children.
                        }
                        None => {
                            // Pool exhausted: restore the leaf, flag, abort.
                            // Release on the flag orders it after the leaf
                            // restore — an observer of `overflow` never sees
                            // the tree still wedged in the Locked state.
                            self.child[i as usize].store(tags::body_tag(b2), Ordering::Release);
                            ctl.overflow.store(true, Ordering::Release);
                            return;
                        }
                    }
                    // --- end critical section ---
                }
            }
        }
    }

    /// Concurrent bump allocation of one sibling group (paper: "relaxed
    /// atomic add operations" on a pre-reserved pool).
    fn allocate_group(&self) -> Option<u32> {
        // relaxed-ok: the RMW's atomicity alone makes claims disjoint; the
        // group's contents are published by the parent slot's Release store,
        // not by this counter (the paper's "relaxed atomic add").
        let c = self.bump.fetch_add(CHILDREN, Ordering::Relaxed);
        let cap = (self.child.len() as u32).min(self.alloc_limit);
        if c.saturating_add(CHILDREN) <= cap {
            Some(c)
        } else {
            None
        }
    }

    /// Zero the previously used region of the pool and reset the allocator.
    fn reset_slots(&mut self) {
        // relaxed-ok (both bump ops): `&mut self` — no other thread exists
        // for these to race with.
        let used = (self.bump.load(Ordering::Relaxed).min(self.child.len() as u32))
            .max(self.initialized);
        let used = used.min(self.child.len() as u32) as usize;
        for slot in &mut self.child[..used] {
            *slot = AtomicU32::new(EMPTY);
        }
        self.bump.store(FIRST_GROUP, Ordering::Relaxed);
        self.initialized = 0;
    }

    fn grow_pool(&mut self, nodes: u32) -> Result<(), BuildError> {
        const MAX_NODES: u32 = 1 << 30;
        if nodes > MAX_NODES {
            return Err(BuildError::PoolExhausted { requested_nodes: nodes });
        }
        self.child = make_atomic_u32(nodes as usize, EMPTY);
        self.parent =
            make_atomic_u32((nodes as usize - FIRST_GROUP as usize) / CHILDREN as usize, 0);
        // relaxed-ok: `&mut self`, single-threaded.
        self.bump.store(FIRST_GROUP, Ordering::Relaxed);
        self.initialized = 0;
        Ok(())
    }
}

/// Iterator over a co-located body chain.
pub struct ChainIter<'a> {
    tree: &'a Octree,
    cur: u32,
}

impl Iterator for ChainIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.cur == CHAIN_END {
            return None;
        }
        let b = self.cur;
        // relaxed-ok: chains were published by the Release store that
        // unlocked their leaf; the iterator's caller reached the head via an
        // Acquire slot load (`Octree::slot`) or after the build joined.
        self.cur = self.tree.next_colocated[b as usize].load(Ordering::Relaxed);
        Some(b)
    }
}

/// Centre of the `oct`-th octant of the cell (`center`, half-width `half`).
#[inline]
pub(crate) fn octant_center(center: Vec3, half: f64, oct: usize) -> Vec3 {
    let q = half * 0.5;
    Vec3::new(
        center.x + if oct & 1 != 0 { q } else { -q },
        center.y + if oct & 2 != 0 { q } else { -q },
        center.z + if oct & 4 != 0 { q } else { -q },
    )
}

fn pool_size_for(nodes: u32) -> u32 {
    let groups = nodes.saturating_sub(FIRST_GROUP).div_ceil(CHILDREN).max(4);
    FIRST_GROUP + groups.saturating_mul(CHILDREN)
}

fn make_atomic_u32(n: usize, v: u32) -> Vec<AtomicU32> {
    let mut out = Vec::with_capacity(n);
    out.resize_with(n, || AtomicU32::new(v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::Slot;
    use nbody_math::SplitMix64;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut r = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0))).collect()
    }

    fn build_tree(pos: &[Vec3]) -> Octree {
        let mut t = Octree::new();
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t
    }

    #[test]
    fn empty_input() {
        let mut t = Octree::new();
        let stats = t.build(Par, &[], Aabb::EMPTY).unwrap();
        assert_eq!(stats.bodies, 0);
        assert_eq!(t.slot(0), Slot::Empty);
    }

    #[test]
    fn single_body_lands_in_root() {
        let pos = vec![Vec3::new(0.5, 0.5, 0.5)];
        let t = build_tree(&pos);
        assert_eq!(t.slot(0), Slot::Body(0));
        assert_eq!(t.chain(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn two_bodies_subdivide_once() {
        let pos = vec![Vec3::new(-0.5, -0.5, -0.5), Vec3::new(0.5, 0.5, 0.5)];
        let t = build_tree(&pos);
        match t.slot(0) {
            Slot::Node(c) => {
                assert_eq!(c, FIRST_GROUP);
                // The bodies sit in opposite octants of the root cube.
                let occupied: Vec<Slot> = (c..c + 8).map(|i| t.slot(i)).collect();
                let bodies: Vec<u32> = occupied
                    .iter()
                    .filter_map(|s| if let Slot::Body(b) = s { Some(*b) } else { None })
                    .collect();
                let mut sorted = bodies.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1]);
            }
            other => panic!("root should be internal, got {other:?}"),
        }
    }

    #[test]
    fn all_bodies_reachable_every_policy() {
        let pos = random_points(2000, 7);
        for reachable in [
            {
                let t = build_tree(&pos);
                crate::validate::collect_bodies(&t)
            },
            {
                let mut t = Octree::new();
                t.build(Seq, &pos, Aabb::from_points(&pos)).unwrap();
                crate::validate::collect_bodies(&t)
            },
        ] {
            let mut r = reachable.clone();
            r.sort_unstable();
            assert_eq!(r, (0..2000u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn no_locked_tags_remain() {
        let pos = random_points(5000, 8);
        let t = build_tree(&pos);
        for i in 0..t.allocated_nodes() {
            assert_ne!(t.slot(i), Slot::Locked, "node {i} still locked");
        }
    }

    #[test]
    fn duplicate_positions_form_chain() {
        let p = Vec3::new(0.25, 0.25, 0.25);
        let pos = vec![p, Vec3::new(-0.5, 0.0, 0.0), p, p];
        let t = build_tree(&pos);
        let bodies = crate::validate::collect_bodies(&t);
        let mut sorted = bodies.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Bodies 0, 2, 3 share one leaf via a chain.
        let inv = crate::validate::TreeInvariants::check(&t, &pos).unwrap();
        assert!(inv.max_chain_len >= 3, "chain len {}", inv.max_chain_len);
    }

    #[test]
    fn extremely_close_positions_terminate() {
        // 1 ulp apart: must terminate via MAX_DEPTH chaining.
        let a = 0.1f64;
        let b = f64::from_bits(a.to_bits() + 1);
        let pos = vec![Vec3::splat(a), Vec3::splat(b), Vec3::new(0.9, 0.9, 0.9)];
        let t = build_tree(&pos);
        let mut bodies = crate::validate::collect_bodies(&t);
        bodies.sort_unstable();
        assert_eq!(bodies, vec![0, 1, 2]);
    }

    #[test]
    fn pool_growth_retries() {
        // Start with a tiny pool and force growth.
        let pos = random_points(3000, 9);
        let mut t = Octree::with_node_capacity(64);
        let stats = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        assert!(stats.retries > 0, "expected at least one growth retry");
        let mut bodies = crate::validate::collect_bodies(&t);
        bodies.sort_unstable();
        assert_eq!(bodies.len(), 3000);
    }

    #[test]
    fn rebuild_reuses_tree() {
        let mut t = Octree::new();
        let pos1 = random_points(500, 10);
        t.build(Par, &pos1, Aabb::from_points(&pos1)).unwrap();
        let pos2 = random_points(800, 11);
        t.build(Par, &pos2, Aabb::from_points(&pos2)).unwrap();
        let mut bodies = crate::validate::collect_bodies(&t);
        bodies.sort_unstable();
        assert_eq!(bodies, (0..800u32).collect::<Vec<_>>());
    }

    #[test]
    fn child_offsets_exceed_parent_offsets() {
        // The stackless-DFS invariant (paper Fig. 3).
        let pos = random_points(3000, 12);
        let t = build_tree(&pos);
        for i in 0..t.allocated_nodes() {
            if let Slot::Node(c) = t.slot(i) {
                assert!(c > i, "child group {c} not after parent {i}");
            }
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut t = Octree::new();
        let pos = vec![Vec3::new(f64::NAN, 0.0, 0.0)];
        assert_eq!(
            t.build(Par, &pos, Aabb::from_points(&pos)),
            Err(BuildError::InvalidPositions)
        );
    }

    #[test]
    fn octant_center_moves_toward_octant() {
        let c = Vec3::ZERO;
        let h = 1.0;
        // `half` is the parent half-width; children centres sit at ±half/2.
        assert_eq!(octant_center(c, h, 0), Vec3::splat(-0.5));
        assert_eq!(octant_center(c, h, 7), Vec3::splat(0.5));
        let oc = octant_center(c, h, 1);
        assert!(oc.x > 0.0 && oc.y < 0.0 && oc.z < 0.0);
    }

    #[test]
    fn pool_size_respects_group_alignment() {
        for n in [0u32, 1, 8, 9, 100, 4096] {
            let s = pool_size_for(n);
            assert!(s >= n.max(FIRST_GROUP));
            assert_eq!((s - FIRST_GROUP) % CHILDREN, 0);
        }
    }

    #[test]
    fn stuck_lock_detected_not_hung() {
        let pos = random_points(200, 21);
        let mut t = Octree::new();
        t.set_spin_budget(10_000); // keep the test fast
        t.inject_stuck_lock();
        let err = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap_err();
        match err {
            BuildError::SpinBudgetExhausted { spins } => assert!(spins > 10_000),
            other => panic!("expected SpinBudgetExhausted, got {other:?}"),
        }
        // The injection was one-shot: an immediate rebuild succeeds.
        let stats = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        assert_eq!(stats.bodies, 200);
        let mut bodies = crate::validate::collect_bodies(&t);
        bodies.sort_unstable();
        assert_eq!(bodies, (0..200u32).collect::<Vec<_>>());
    }

    #[test]
    fn stuck_lock_detected_sequentially() {
        // Single-threaded: the budget is the only thing standing between the
        // lone worker and an infinite spin.
        let pos = random_points(50, 22);
        let mut t = Octree::new();
        t.set_spin_budget(1000);
        t.inject_stuck_lock();
        let err = t.build(Seq, &pos, Aabb::from_points(&pos)).unwrap_err();
        assert!(matches!(err, BuildError::SpinBudgetExhausted { .. }), "{err:?}");
    }

    #[test]
    fn injected_pool_exhaustion_reports_and_recovers() {
        let pos = random_points(500, 23);
        let mut t = Octree::new();
        t.inject_pool_exhaustion();
        let err = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap_err();
        assert!(matches!(err, BuildError::PoolExhausted { .. }), "{err:?}");
        assert!(err.is_retryable());
        // One-shot: the retry builds normally.
        let stats = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        assert_eq!(stats.bodies, 500);
    }

    #[test]
    fn healthy_build_untouched_by_budget() {
        // A generous budget must never fire on a fault-free build.
        let pos = random_points(3000, 24);
        let mut t = Octree::new();
        t.set_spin_budget(DEFAULT_SPIN_BUDGET);
        let stats = t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        assert_eq!(stats.bodies, 3000);
    }

    #[test]
    fn step_probes_hold_under_detpar_schedules() {
        // The mid-build probe must pass at every step boundary of every
        // schedule mode — and the resulting trees must be byte-identical
        // across modes (the build is deterministic given the insert order
        // DetPar serializes).
        let pos = random_points(700, 30);
        let bounds = Aabb::from_points(&pos);
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                for seed in [0u64, 7] {
                    with_schedule(seed, mode, || {
                        let mut t = Octree::new();
                        t.set_step_probes(true);
                        t.build(Par, &pos, bounds).unwrap();
                        crate::validate::TreeInvariants::check(&t, &pos).unwrap();
                    });
                }
            }
        });
    }

    #[test]
    fn ctl_flags_deterministic_under_adversarial_detpar() {
        // Regression for the control-flag ordering fix: both abort flags
        // must produce the same diagnosis on every adversarial schedule,
        // with the publish edge (max_spins behind spin_exhausted, restored
        // leaf behind overflow) intact at the deterministic failure point.
        let pos = random_points(300, 31);
        let bounds = Aabb::from_points(&pos);
        with_backend(Backend::DetPar, || {
            for seed in 0u64..4 {
                with_schedule(seed, ScheduleMode::Adversarial, || {
                    let mut t = Octree::new();
                    t.set_step_probes(true);
                    t.set_spin_budget(2000);
                    t.inject_stuck_lock();
                    match t.build(Par, &pos, bounds).unwrap_err() {
                        BuildError::SpinBudgetExhausted { spins } => {
                            assert_eq!(spins, 2001, "seed {seed}: max_spins not published");
                        }
                        other => panic!("seed {seed}: expected SpinBudgetExhausted, got {other:?}"),
                    }

                    let mut t = Octree::new();
                    t.set_step_probes(true);
                    t.inject_pool_exhaustion();
                    let err = t.build(Par, &pos, bounds).unwrap_err();
                    assert!(matches!(err, BuildError::PoolExhausted { .. }), "seed {seed}: {err:?}");
                    // Overflow published after the leaf restore: no slot may
                    // still be wedged Locked once the flag was observed.
                    for i in 0..t.allocated_nodes() {
                        assert_ne!(t.slot(i), Slot::Locked, "seed {seed}: node {i} wedged");
                    }
                    // And the recovery build must succeed cleanly.
                    t.build(Par, &pos, bounds).unwrap();
                    crate::validate::TreeInvariants::check(&t, &pos).unwrap();
                });
            }
        });
    }

    #[test]
    fn clustered_input_builds() {
        // Tight Gaussian cluster forces deep subdivision.
        let mut r = SplitMix64::new(13);
        let mut pos: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(r.normal() * 1e-6, r.normal() * 1e-6, r.normal() * 1e-6))
            .collect();
        pos.push(Vec3::new(1.0, 1.0, 1.0)); // far outlier stretches the root
        let t = build_tree(&pos);
        let mut bodies = crate::validate::collect_bodies(&t);
        bodies.sort_unstable();
        assert_eq!(bodies.len(), 2001);
    }
}
