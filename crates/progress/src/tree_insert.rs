//! Steppable lock-based concurrent tree insertion — the octree BUILDTREE
//! algorithm (paper Algorithms 4 & 5) translated into virtual threads.
//!
//! The tree is a 1-D bisection tree over `[0, 1)` (the binary analogue of
//! the octree: same tag states, same lock-subdivide-publish critical
//! section), which keeps the state machine small while preserving the
//! *synchronisation structure* exactly:
//!
//! * `pc = 0` — descend / try-claim / try-lock / **spin on Locked**;
//! * `pc = 1` — critical section, step 1: allocate children, move resident;
//! * `pc = 2` — critical section, step 2: publish children, release lock.
//!
//! The lock is therefore held across at least one scheduling boundary, and
//! any thread spinning at `pc = 0` in the same warp starves the holder
//! under min-pc lockstep scheduling — the paper's non-ITS hang.

use crate::scheduler::{Step, VThread};
use std::cell::RefCell;
use std::rc::Rc;

/// Tag states of a tree slot (mirrors `bh_octree::tags`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Empty,
    Locked,
    Body(usize),
    /// Offset of the left child; the right child is `offset + 1`.
    Node(usize),
}

/// The shared concurrent tree (single-threaded simulation ⇒ `RefCell`).
pub struct SharedTree {
    slots: RefCell<Vec<Slot>>,
}

impl SharedTree {
    pub fn new() -> Rc<Self> {
        Rc::new(SharedTree { slots: RefCell::new(vec![Slot::Empty]) })
    }

    fn load(&self, i: usize) -> Slot {
        self.slots.borrow()[i]
    }

    fn store(&self, i: usize, s: Slot) {
        self.slots.borrow_mut()[i] = s;
    }

    fn alloc_pair(&self) -> usize {
        let mut slots = self.slots.borrow_mut();
        let c = slots.len();
        slots.push(Slot::Empty);
        slots.push(Slot::Empty);
        c
    }

    /// Bodies reachable from the root (for post-run verification).
    pub fn collect_bodies(&self) -> Vec<usize> {
        let slots = self.slots.borrow();
        let mut out = vec![];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            match slots[i] {
                Slot::Empty | Slot::Locked => {}
                Slot::Body(b) => out.push(b),
                Slot::Node(c) => {
                    stack.push(c);
                    stack.push(c + 1);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// True iff no slot is left in the `Locked` state.
    pub fn no_locks_held(&self) -> bool {
        self.slots.borrow().iter().all(|s| *s != Slot::Locked)
    }
}

enum Phase {
    Descend,
    /// Holding the lock on `node`; `resident` must be pushed down.
    CriticalAlloc { resident: usize },
    /// Children allocated at `children`; publish pending.
    CriticalPublish { children: usize },
}

/// One virtual thread inserting `value` as body `body`.
struct InsertThread {
    tree: Rc<SharedTree>,
    value: f64,
    body: usize,
    node: usize,
    lo: f64,
    hi: f64,
    resident_value: f64,
    phase: Phase,
    /// Values of all bodies (to route residents during subdivision).
    values: Rc<Vec<f64>>,
}

impl InsertThread {
    fn new(tree: Rc<SharedTree>, values: Rc<Vec<f64>>, body: usize) -> Self {
        let value = values[body];
        assert!((0.0..1.0).contains(&value), "value must be in [0,1)");
        InsertThread {
            tree,
            value,
            body,
            node: 0,
            lo: 0.0,
            hi: 1.0,
            resident_value: 0.0,
            phase: Phase::Descend,
            values,
        }
    }

    fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl VThread for InsertThread {
    fn pc(&self) -> u32 {
        match self.phase {
            Phase::Descend => 0,
            Phase::CriticalAlloc { .. } => 1,
            Phase::CriticalPublish { .. } => 2,
        }
    }

    fn step(&mut self) -> Step {
        match self.phase {
            Phase::Descend => match self.tree.load(self.node) {
                Slot::Node(c) => {
                    // Forward step into the half covering `value`.
                    let mid = self.mid();
                    if self.value < mid {
                        self.hi = mid;
                        self.node = c;
                    } else {
                        self.lo = mid;
                        self.node = c + 1;
                    }
                    Step::Progress
                }
                Slot::Empty => {
                    // CAS Empty → Body (single-threaded sim: always wins).
                    self.tree.store(self.node, Slot::Body(self.body));
                    Step::Done
                }
                Slot::Body(resident) => {
                    // CAS Body → Locked: enter the critical section.
                    self.tree.store(self.node, Slot::Locked);
                    self.resident_value = self.values[resident];
                    self.phase = Phase::CriticalAlloc { resident };
                    Step::Progress
                }
                Slot::Locked => Step::Spin, // wait for the sub-divider
            },
            Phase::CriticalAlloc { resident } => {
                let c = self.tree.alloc_pair();
                // Move the resident into the child covering it.
                let mid = self.mid();
                let side = if self.resident_value < mid { c } else { c + 1 };
                self.tree.store(side, Slot::Body(resident));
                self.phase = Phase::CriticalPublish { children: c };
                Step::Progress
            }
            Phase::CriticalPublish { children } => {
                // Release store: publish the children, lock released.
                self.tree.store(self.node, Slot::Node(children));
                self.phase = Phase::Descend;
                Step::Progress // next step re-descends from this node
            }
        }
    }
}

/// `n` insertion threads with values spread over `[0.3, 0.7)` — every
/// thread initially contends at the root, so any warp with ≥ 2 threads
/// exercises the lock.
pub fn contended_insertion(n: usize, center: f64) -> Vec<Box<dyn VThread>> {
    let tree = SharedTree::new();
    insertion_threads(tree, n, center).0
}

/// Like [`contended_insertion`], but also returns the tree for inspection.
pub fn insertion_threads(
    tree: Rc<SharedTree>,
    n: usize,
    center: f64,
) -> (Vec<Box<dyn VThread>>, Rc<SharedTree>) {
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let spread = 0.4 * (i as f64 + 0.5) / n as f64 - 0.2;
            (center + spread).clamp(0.0, 1.0 - 1e-9)
        })
        .collect();
    let values = Rc::new(values);
    let threads: Vec<Box<dyn VThread>> = (0..n)
        .map(|b| Box::new(InsertThread::new(tree.clone(), values.clone(), b)) as Box<dyn VThread>)
        .collect();
    (threads, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run_its, run_lockstep, Outcome};

    #[test]
    fn its_completes_and_tree_is_consistent() {
        for n in [2usize, 4, 16, 64] {
            let tree = SharedTree::new();
            let (threads, tree) = insertion_threads(tree, n, 0.5);
            let out = run_its(threads, 1_000_000);
            assert!(out.completed(), "n={n}: {out:?}");
            assert_eq!(tree.collect_bodies(), (0..n).collect::<Vec<_>>());
            assert!(tree.no_locks_held());
        }
    }

    #[test]
    fn lockstep_livelocks_with_contention_in_one_warp() {
        for n in [4usize, 8, 32] {
            let out = run_lockstep(contended_insertion(n, 0.5), n, 1_000_000);
            assert!(matches!(out, Outcome::Livelock { .. }), "n={n}: {out:?}");
        }
    }

    #[test]
    fn lockstep_with_unit_warps_completes() {
        // Warp width 1 ≡ independent scheduling: completes.
        let out = run_lockstep(contended_insertion(16, 0.5), 1, 1_000_000);
        assert!(out.completed(), "{out:?}");
    }

    #[test]
    fn single_thread_never_contends() {
        // One thread per warp trivially; also one thread total under
        // lockstep with any width.
        let out = run_lockstep(contended_insertion(1, 0.5), 32, 1000);
        assert!(out.completed());
    }

    #[test]
    fn sequential_seeded_tree_then_single_inserter_completes_under_lockstep() {
        // A lone inserter in its own warp cannot be starved even in
        // lockstep mode.
        let tree = SharedTree::new();
        let values = Rc::new(vec![0.35, 0.45, 0.55, 0.9]);
        {
            let threads: Vec<Box<dyn VThread>> = (0..3)
                .map(|b| {
                    Box::new(InsertThread::new(tree.clone(), values.clone(), b))
                        as Box<dyn VThread>
                })
                .collect();
            assert!(run_its(threads, 100_000).completed());
        }
        let t = InsertThread::new(tree.clone(), values, 3);
        let out = run_lockstep(vec![Box::new(t)], 4, 100_000);
        assert!(out.completed());
        assert_eq!(tree.collect_bodies(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn livelock_is_detected_quickly() {
        // The all-spin round detector fires long before the step budget.
        let out = run_lockstep(contended_insertion(8, 0.5), 8, u64::MAX);
        match out {
            Outcome::Livelock { steps } => assert!(steps < 10_000, "steps={steps}"),
            other => panic!("expected livelock, got {other:?}"),
        }
    }
}
