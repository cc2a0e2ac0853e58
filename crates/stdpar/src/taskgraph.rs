//! Task-graph executor — a work-stealing scheduler for explicit DAGs.
//!
//! [`TaskGraph`] has no caller inside the workspace. It was written to run
//! a simulation step (and a service tick) as one static DAG of
//! `(phase, tile)` nodes instead of one barrier-separated region per phase;
//! every graph the library went on to build had only 1:1 edges — tile *t*
//! of one phase → tile *t* of the next, step *j* of a session → step *j+1*
//! — which a chunk body of one `for_each_chunk_worker` region orders by
//! itself, so the step (`nbody_sim::dag`) and the tick (`nbody_server`) are
//! plain regions now. The module is still here because the pinned repo
//! benchmark probes it (`stdpar.dag_node_us`) and may not be edited in the
//! change that removed the callers.
//!
//! ## Execution model
//!
//! [`TaskGraph`] is a grow-only arena: nodes are dense `u32` ids, edges
//! are staged as `(from, to)` pairs and sealed into a CSR successor table
//! on first run. [`TaskGraph::run`] dispatches every node exactly once,
//! respecting all edges:
//!
//! * **the parallel backend** (`Dynamic`) — each worker owns a
//!   Chase-Lev-style deque of ready node ids (bounded: a graph of `n`
//!   nodes can push at most `n` ids per deque, so the buffers never wrap,
//!   resize, or recycle slots — no ABA). Completing a node decrements its
//!   successors' dependence counters with an acquire-release RMW; the
//!   worker that drops a counter to zero pushes the successor onto its
//!   own deque. Idle workers steal from peers with the same bounded-spin
//!   discipline as the tree builds (spin, then yield). Each deque's worker
//!   loop is one pool ticket: the caller runs deque 0's, pool workers the
//!   others', and because every loop steals from every deque and exits on
//!   `remaining == 0`, whichever participants show up finish the graph.
//! * **single worker, and `Backend::DetPar`** — nodes run inline in Kahn
//!   (FIFO topological) order.
//!
//! Every run begins with an O(V+E) Kahn pass over plain integers: it
//! proves the graph acyclic (a cycle is a caller bug and must panic, not
//! hang the worker pool) and doubles as the sequential execution order.
//!
//! ## Determinism contract
//!
//! The executor chooses only *when* a node runs, never what it computes:
//! if node bodies are pure functions of their predecessors' output and
//! write disjoint state (the [`SyncSlice`](crate::sync_slice::SyncSlice)
//! contract), the result is bitwise schedule-independent.

use crate::backend::{current_backend, thread_count, Backend, PanicCell};
use nbody_telemetry::record;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

/// Failed pop/steal sweeps an idle worker spins through before yielding
/// the OS thread — the same bounded-spin discipline as the octree build's
/// lock-bit wait.
const SPIN_LIMIT: u32 = 64;

/// A static DAG of tasks plus the grow-only storage its executor needs.
///
/// Build with [`clear`](TaskGraph::clear) / [`add_node`](TaskGraph::add_node)
/// / [`add_edge`](TaskGraph::add_edge), execute with
/// [`run`](TaskGraph::run). All buffers retain capacity across
/// `clear()`, so a steady-state caller that rebuilds the same-shaped
/// graph every step allocates nothing after warm-up.
#[derive(Default)]
pub struct TaskGraph {
    /// Number of nodes in the current graph.
    n: usize,
    /// Staged edges (cleared by `clear`, folded into CSR by `seal`).
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    sealed: bool,
    /// CSR successor table: node `i`'s successors are
    /// `succ[succ_off[i]..succ_off[i+1]]`.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// Scatter cursor scratch for building `succ`.
    cursor: Vec<u32>,
    /// Initial predecessor count per node.
    dep_init: Vec<u32>,
    /// Runtime countdown counters (reset from `dep_init` every run).
    deps: Vec<AtomicU32>,
    /// Kahn scratch: plain-integer countdown + the resulting topo order.
    kahn_dep: Vec<u32>,
    topo: Vec<u32>,
    /// Per-worker deque headers and the flat ring of id slots
    /// (`workers × n`, slot `w*n + k` is deque `w`'s `k`-th push).
    heads: Vec<DequeHead>,
    slots: Vec<AtomicU32>,
}

/// One worker deque's indices, padded to a cache line so two workers'
/// hot counters never false-share.
#[repr(align(64))]
#[derive(Default)]
struct DequeHead {
    /// Next slot the owner pushes to / pops from (owner-written).
    bottom: AtomicI64,
    /// Next slot thieves steal from (CAS-advanced).
    top: AtomicI64,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Discard the current graph and start a new one (capacity retained).
    pub fn clear(&mut self) {
        self.n = 0;
        self.edge_from.clear();
        self.edge_to.clear();
        self.sealed = false;
    }

    /// Add a node; returns its dense id.
    pub fn add_node(&mut self) -> u32 {
        assert!(!self.sealed, "TaskGraph: add_node after run (call clear first)");
        let id = self.n as u32;
        self.n += 1;
        id
    }

    /// Add `count` nodes; returns their contiguous id range.
    pub fn add_nodes(&mut self, count: usize) -> Range<u32> {
        let start = self.n as u32;
        for _ in 0..count {
            self.add_node();
        }
        start..self.n as u32
    }

    /// Require that `from` completes before `to` starts. Duplicate edges
    /// are allowed (each counts as one dependence; correctness is
    /// unaffected, the counter just starts higher).
    pub fn add_edge(&mut self, from: u32, to: u32) {
        assert!(!self.sealed, "TaskGraph: add_edge after run (call clear first)");
        assert!((from as usize) < self.n, "TaskGraph: edge from unknown node {from}");
        assert!((to as usize) < self.n, "TaskGraph: edge to unknown node {to}");
        assert_ne!(from, to, "TaskGraph: self-edge on node {from}");
        self.edge_from.push(from);
        self.edge_to.push(to);
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fold the staged edge list into the CSR successor table and the
    /// initial dependence counts. Idempotent until the next `clear`.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let n = self.n;
        self.succ_off.clear();
        self.succ_off.resize(n + 1, 0);
        for &f in &self.edge_from {
            self.succ_off[f as usize + 1] += 1;
        }
        for i in 0..n {
            self.succ_off[i + 1] += self.succ_off[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.succ_off[..n]);
        self.succ.clear();
        self.succ.resize(self.edge_from.len(), 0);
        for (&f, &t) in self.edge_from.iter().zip(&self.edge_to) {
            let c = &mut self.cursor[f as usize];
            self.succ[*c as usize] = t;
            *c += 1;
        }
        self.dep_init.clear();
        self.dep_init.resize(n, 0);
        for &t in &self.edge_to {
            self.dep_init[t as usize] += 1;
        }
        self.sealed = true;
    }

    /// Kahn pass over plain integers: fills `self.topo` with a FIFO
    /// topological order and panics on a cycle (which would otherwise
    /// hang the worker pool).
    fn toposort(&mut self) {
        let n = self.n;
        self.kahn_dep.clear();
        self.kahn_dep.extend_from_slice(&self.dep_init);
        self.topo.clear();
        self.topo.extend((0..n as u32).filter(|&i| self.kahn_dep[i as usize] == 0));
        let mut head = 0;
        while head < self.topo.len() {
            let node = self.topo[head] as usize;
            head += 1;
            for &s in &self.succ[self.succ_off[node] as usize..self.succ_off[node + 1] as usize] {
                let d = &mut self.kahn_dep[s as usize];
                *d -= 1;
                if *d == 0 {
                    self.topo.push(s);
                }
            }
        }
        assert_eq!(self.topo.len(), n, "TaskGraph: cycle detected — graph is not a DAG");
    }

    /// Execute every node exactly once, respecting all edges.
    ///
    /// `f(node, worker)` is the dispatch: `worker` is a dense index in
    /// `0..thread_count()` never observed concurrently by two threads, so
    /// nodes may key per-worker scratch (interaction-list pools) exactly
    /// like [`for_each_chunk_worker`](crate::foreach::for_each_chunk_worker)
    /// callbacks. A panicking node propagates its original payload to the
    /// caller after all workers joined.
    pub fn run(&mut self, f: impl Fn(u32, usize) + Sync) {
        self.seal();
        let n = self.n;
        if n == 0 {
            return;
        }
        self.toposort();
        record!(counter STDPAR_DAG_RUNS, 1);
        record!(counter STDPAR_DAG_NODES, n as u64);
        record!(counter STDPAR_PAR_REGIONS, 1);
        record!(counter STDPAR_CHUNKS_CLAIMED, n as u64);

        // DetPar is one thread by definition: it takes the inline path below.
        let workers = match current_backend() {
            Backend::DetPar => 1,
            Backend::Dynamic => thread_count().min(n),
        };
        record!(gauge STDPAR_WORKERS_HIGH_WATER, workers as u64);
        if workers <= 1 {
            let t0 = nbody_telemetry::ENABLED.then(Instant::now);
            for &node in &self.topo {
                f(node, 0);
            }
            if let Some(t0) = t0 {
                record!(worker WORKER_BUSY_NANOS, 0, t0.elapsed().as_nanos() as u64);
            }
            return;
        }
        self.run_parallel(workers, &f);
    }

    fn run_parallel(&mut self, workers: usize, f: &(impl Fn(u32, usize) + Sync)) {
        let n = self.n;
        if self.deps.len() < n {
            self.deps.resize_with(n, || AtomicU32::new(0));
        }
        if self.heads.len() < workers {
            self.heads.resize_with(workers, DequeHead::default);
        }
        let need = workers * n;
        if self.slots.len() < need {
            self.slots.resize_with(need, || AtomicU32::new(0));
        }
        // Pre-region resets: the pool's job hand-off orders these before any
        // ticket's first load, so relaxed stores suffice.
        // relaxed-ok (whole loop): single-threaded initialization strictly
        // before the job is published; that edge publishes every store.
        for (i, &d) in self.dep_init.iter().enumerate() {
            self.deps[i].store(d, Ordering::Relaxed);
        }
        for h in &self.heads[..workers] {
            h.bottom.store(0, Ordering::Relaxed);
            h.top.store(0, Ordering::Relaxed);
        }
        // Seed the initially-ready nodes round-robin across the deques (in
        // ascending id order, so the distribution is deterministic).
        let mut w = 0usize;
        for (i, &d) in self.dep_init.iter().enumerate() {
            if d == 0 {
                let b = self.heads[w].bottom.load(Ordering::Relaxed);
                self.slots[w * n + b as usize].store(i as u32, Ordering::Relaxed);
                self.heads[w].bottom.store(b + 1, Ordering::Relaxed);
                w = (w + 1) % workers;
            }
        }

        let remaining = AtomicUsize::new(n);
        let panics = PanicCell::new();
        let deps = &self.deps[..n];
        let succ_off = &self.succ_off[..];
        let succ = &self.succ[..];
        let heads = &self.heads[..workers];
        let slots = &self.slots[..need];

        // One ticket per deque: the loop below, with `me` as its dense worker
        // index. A ticket that starts late (or runs after another on the
        // same thread) finds its deque stolen empty and `remaining == 0`.
        crate::pool::run(workers, &|me| {
            let mut busy = 0u64;
            let mut steals = 0u64;
            let mut spins = 0u32;
            // relaxed-ok (whole worker loop): every Relaxed below is
            // either a slot read validated by the seqcst `top` CAS of
            // the Chase-Lev protocol, or an owner-local index store;
            // the cross-thread publication edges are the Release
            // `bottom` store in push, the AcqRel dependence-counter
            // RMW, and the SeqCst fences/CAS in pop/steal.
            loop {
                if panics.poisoned() {
                    break;
                }
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                let claimed = pop_own(heads, slots, n, me).or_else(|| {
                    let mut got = None;
                    for k in 1..workers {
                        let victim = (me + k) % workers;
                        if let Some(v) = steal_from(heads, slots, n, victim) {
                            steals += 1;
                            got = Some(v);
                            break;
                        }
                    }
                    got
                });
                let Some(node) = claimed else {
                    spins += 1;
                    if spins < SPIN_LIMIT {
                        std::hint::spin_loop();
                    } else {
                        spins = 0;
                        std::thread::yield_now();
                    }
                    continue;
                };
                spins = 0;
                let t0 = nbody_telemetry::ENABLED.then(Instant::now);
                panics.run(|| f(node, me));
                if let Some(t0) = t0 {
                    busy += t0.elapsed().as_nanos() as u64;
                }
                if panics.poisoned() {
                    break;
                }
                let node = node as usize;
                let succs =
                    &succ[succ_off[node] as usize..succ_off[node + 1] as usize];
                for &s in succs {
                    // The worker that retires a node's final
                    // dependence acquires every sibling's release
                    // and republishes via its deque push.
                    if deps[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        push_own(heads, slots, n, me, s);
                    }
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            }
            if busy > 0 {
                record!(worker WORKER_BUSY_NANOS, me, busy);
            }
            if steals > 0 {
                record!(counter STDPAR_DAG_STEALS, steals);
            }
        });
        panics.rethrow();
    }
}

/// Owner-side push onto worker `me`'s deque. Slots are written once and
/// never recycled (the deque holds at most `n` ids over its lifetime), so
/// publication is just the Release store of `bottom`.
#[inline]
fn push_own(heads: &[DequeHead], slots: &[AtomicU32], n: usize, me: usize, v: u32) {
    let h = &heads[me];
    // relaxed-ok (both loads/stores except the Release): `bottom` is
    // owner-written only; the slot store is published by the Release below.
    let b = h.bottom.load(Ordering::Relaxed);
    debug_assert!((b as usize) < n, "task deque overflow");
    slots[me * n + b as usize].store(v, Ordering::Relaxed);
    h.bottom.store(b + 1, Ordering::Release);
}

/// Owner-side pop (LIFO end) of worker `me`'s deque.
#[inline]
fn pop_own(heads: &[DequeHead], slots: &[AtomicU32], n: usize, me: usize) -> Option<u32> {
    let h = &heads[me];
    // relaxed-ok (protocol): the classic Chase-Lev owner pop — the SeqCst
    // fence orders the speculative `bottom` store against the `top` read,
    // and the last-element race is settled by the SeqCst CAS on `top`.
    let b = h.bottom.load(Ordering::Relaxed) - 1;
    if b < h.top.load(Ordering::Relaxed) {
        return None; // fast path: visibly empty, skip the speculative store
    }
    // relaxed-ok: speculative `bottom` store + `top` re-read — the SeqCst
    // fence between them is what orders the pair against thieves; slot
    // reads are owner-local (written by this thread's push).
    h.bottom.store(b, Ordering::Relaxed);
    fence(Ordering::SeqCst);
    let t = h.top.load(Ordering::Relaxed);
    if t < b {
        // relaxed-ok: owner-local slot read (written by this thread's push).
        return Some(slots[me * n + b as usize].load(Ordering::Relaxed));
    }
    if t == b {
        // Exactly one element: race the thieves for it. The SeqCst CAS on
        // `top` settles ownership; everything else here is owner-local.
        // relaxed-ok: CAS failure ordering + owner-only `bottom` restore.
        let won = h.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
        h.bottom.store(b + 1, Ordering::Relaxed);
        return won.then(|| slots[me * n + b as usize].load(Ordering::Relaxed));
    }
    // relaxed-ok: owner-only `bottom` restore (no element was taken).
    h.bottom.store(b + 1, Ordering::Relaxed);
    None
}

/// Thief-side steal (FIFO end) from worker `victim`'s deque.
#[inline]
fn steal_from(heads: &[DequeHead], slots: &[AtomicU32], n: usize, victim: usize) -> Option<u32> {
    let h = &heads[victim];
    let t = h.top.load(Ordering::Acquire);
    fence(Ordering::SeqCst);
    let b = h.bottom.load(Ordering::Acquire);
    if t < b {
        // relaxed-ok: slot `t` was written before `bottom` advanced past it
        // (Acquire on `bottom` above pairs with the push's Release), and
        // slots are never recycled, so the value is stable; the SeqCst CAS
        // decides ownership.
        let v = slots[victim * n + t as usize].load(Ordering::Relaxed);
        if h.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{test_lock, with_backend, with_threads, Backend};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The real substrate plus `DetPar`, which takes the single-worker path.
    const WITH_DETPAR: [Backend; 2] = [Backend::Dynamic, Backend::DetPar];

    /// A diamond over `width` parallel middles: src → m_i → sink.
    fn diamond(g: &mut TaskGraph, width: usize) -> (u32, Range<u32>, u32) {
        g.clear();
        let src = g.add_node();
        let mids = g.add_nodes(width);
        let sink = g.add_node();
        for m in mids.clone() {
            g.add_edge(src, m);
            g.add_edge(m, sink);
        }
        (src, mids, sink)
    }

    #[test]
    fn runs_every_node_once_on_every_backend() {
        let _lock = test_lock();
        for backend in WITH_DETPAR {
            with_backend(backend, || {
                let mut g = TaskGraph::new();
                let (_, _, _) = diamond(&mut g, 37);
                let hits: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
                g.run(|node, _| {
                    hits[node as usize].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "backend={}",
                    backend.name()
                );
            });
        }
    }

    #[test]
    fn edges_order_execution() {
        let _lock = test_lock();
        // A chain a→b→c→…: completion stamps must be strictly increasing.
        for backend in WITH_DETPAR {
            with_backend(backend, || {
                let mut g = TaskGraph::new();
                g.clear();
                let nodes = g.add_nodes(64);
                for i in nodes.start..nodes.end - 1 {
                    g.add_edge(i, i + 1);
                }
                let clock = AtomicU64::new(0);
                let stamps: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
                g.run(|node, _| {
                    stamps[node as usize]
                        .store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                });
                for i in 1..64 {
                    assert!(
                        stamps[i].load(Ordering::SeqCst) > stamps[i - 1].load(Ordering::SeqCst)
                    );
                }
            });
        }
    }

    #[test]
    fn dependence_publishes_writes() {
        let _lock = test_lock();
        // The successor must observe everything its predecessors wrote
        // (the release/acquire chain through counters and deques).
        let mut g = TaskGraph::new();
        let width = 61;
        let (src, mids, sink) = diamond(&mut g, width);
        let mut data = vec![0u64; width];
        let view = crate::sync_slice::SyncSlice::new(&mut data);
        let sum = AtomicU64::new(0);
        g.run(|node, _| {
            if node == src {
                // nothing
            } else if node == sink {
                let mut s = 0;
                for i in 0..width {
                    s += unsafe { view.read(i) };
                }
                sum.store(s, Ordering::SeqCst);
            } else {
                let i = (node - mids.start) as usize;
                unsafe { view.write(i, (i as u64) + 1) };
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), (1..=width as u64).sum::<u64>());
    }

    #[test]
    fn reuse_after_clear_is_clean() {
        let mut g = TaskGraph::new();
        for width in [5usize, 17, 3] {
            diamond(&mut g, width);
            let count = AtomicUsize::new(0);
            g.run(|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), width + 2);
        }
    }

    #[test]
    fn single_worker_runs_inline_in_topo_order() {
        let _lock = test_lock();
        with_threads(1, || {
            let mut g = TaskGraph::new();
            let (src, mids, sink) = diamond(&mut g, 8);
            let order = Mutex::new(Vec::new());
            g.run(|node, worker| {
                assert_eq!(worker, 0);
                order.lock().unwrap().push(node);
            });
            let order = order.into_inner().unwrap();
            assert_eq!(order[0], src);
            assert_eq!(*order.last().unwrap(), sink);
            assert_eq!(order.len(), mids.len() + 2);
        });
    }

    #[test]
    #[should_panic(expected = "cycle detected")]
    fn cycle_panics_instead_of_hanging() {
        let mut g = TaskGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.run(|_, _| {});
    }

    #[test]
    fn node_panic_propagates_payload() {
        let _lock = test_lock();
        let mut g = TaskGraph::new();
        diamond(&mut g, 19);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.run(|node, _| {
                if node == 7 {
                    panic!("node 7 failed");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "node 7 failed");
        // The arena must be reusable after a panicked run.
        g.clear();
        diamond(&mut g, 4);
        g.run(|_, _| {});
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let mut g = TaskGraph::new();
        g.run(|_, _| panic!("must not run"));
        g.clear();
        g.run(|_, _| panic!("must not run"));
    }

    #[test]
    fn wide_graph_saturates_and_completes() {
        // More nodes than workers, uneven costs: exercises stealing.
        let mut g = TaskGraph::new();
        g.clear();
        let nodes = g.add_nodes(300);
        let sink = g.add_node();
        for i in nodes.clone() {
            g.add_edge(i, sink);
        }
        let total = AtomicU64::new(0);
        g.run(|node, _| {
            if node != sink {
                // Uneven spin so some workers finish early and steal.
                let mut acc = 0u64;
                for k in 0..(node as u64 % 97) * 50 {
                    acc = acc.wrapping_add(k);
                }
                std::hint::black_box(acc);
                total.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }
}
