//! Steppable wait-free tree reduction — CALCULATEMULTIPOLES (paper Fig. 2)
//! and, by extension, the whole Hilbert-BVH strategy.
//!
//! One virtual thread per leaf accumulates its value onto the parent and
//! bumps the parent's arrival counter; the **last** arriving thread owns the
//! parent and climbs, the others finish. There is no `Spin` state anywhere,
//! so the algorithm needs only weakly parallel forward progress and
//! completes under both schedulers — this is why the BVH "runs on all
//! evaluated systems" while the octree does not.

use crate::scheduler::{Step, VThread};
use std::cell::Cell;
use std::rc::Rc;

/// A complete binary reduction tree (heap layout: root 1, children 2i/2i+1,
/// leaves `leaves..2*leaves`).
pub struct ReduceTree {
    leaves: usize,
    sums: Vec<Cell<u64>>,
    arrivals: Vec<Cell<u32>>,
}

impl ReduceTree {
    fn new(leaves: usize) -> Rc<Self> {
        assert!(leaves.is_power_of_two());
        Rc::new(ReduceTree {
            leaves,
            sums: (0..2 * leaves).map(|_| Cell::new(0)).collect(),
            arrivals: (0..2 * leaves).map(|_| Cell::new(0)).collect(),
        })
    }

    pub fn root_sum(&self) -> u64 {
        self.sums[1].get()
    }
}

/// One reduction thread, initially owning leaf `leaf` with `value`.
struct ReduceThread {
    tree: Rc<ReduceTree>,
    node: usize,
    carry: u64,
    level: u32,
}

impl ReduceThread {
    fn new(tree: Rc<ReduceTree>, leaf: usize, value: u64) -> Self {
        let node = tree.leaves + leaf;
        ReduceThread { tree, node, carry: value, level: 0 }
    }
}

impl VThread for ReduceThread {
    fn pc(&self) -> u32 {
        // Different levels = diverged threads; still no spinning, so the
        // lockstep scheduler always finds a step to make.
        self.level
    }

    fn step(&mut self) -> Step {
        if self.node == 1 {
            // Reached the root while holding its completed sum.
            return Step::Done;
        }
        let parent = self.node / 2;
        // fetch_add-style accumulation + arrival counter.
        self.tree.sums[parent].set(self.tree.sums[parent].get() + self.carry);
        let arrived = self.tree.arrivals[parent].get() + 1;
        self.tree.arrivals[parent].set(arrived);
        if arrived < 2 {
            return Step::Done; // the sibling will finish this parent
        }
        // Last arrival: own the parent and climb with its full sum.
        self.carry = self.tree.sums[parent].get();
        self.node = parent;
        self.level += 1;
        Step::Progress
    }
}

/// A full reduction workload: `leaves` threads, thread `i` carrying value
/// `i + 1` (so the expected root sum is `leaves (leaves+1) / 2`).
pub fn reduction(leaves: usize) -> (Vec<Box<dyn VThread>>, Rc<ReduceTree>) {
    let tree = ReduceTree::new(leaves);
    let threads: Vec<Box<dyn VThread>> = (0..leaves)
        .map(|i| Box::new(ReduceThread::new(tree.clone(), i, i as u64 + 1)) as Box<dyn VThread>)
        .collect();
    (threads, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run_its, run_lockstep};

    fn expected(leaves: usize) -> u64 {
        (leaves as u64) * (leaves as u64 + 1) / 2
    }

    #[test]
    fn completes_under_its() {
        for leaves in [1usize, 2, 8, 64, 256] {
            let (threads, tree) = reduction(leaves.max(2));
            assert!(run_its(threads, 1_000_000).completed());
            assert_eq!(tree.root_sum(), expected(leaves.max(2)));
        }
    }

    #[test]
    fn completes_under_lockstep_any_warp_width() {
        // The key portability property: wait-free ⇒ weakly parallel forward
        // progress suffices ⇒ runs on non-ITS devices.
        for warp in [1usize, 2, 4, 32, 256] {
            let (threads, tree) = reduction(256);
            let out = run_lockstep(threads, warp, 10_000_000);
            assert!(out.completed(), "warp={warp}: {out:?}");
            assert_eq!(tree.root_sum(), expected(256));
        }
    }

    #[test]
    fn root_thread_terminates() {
        let (threads, tree) = reduction(2);
        assert!(run_lockstep(threads, 2, 1000).completed());
        assert_eq!(tree.root_sum(), 3);
    }
}
