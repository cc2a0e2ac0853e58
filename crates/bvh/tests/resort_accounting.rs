//! Resort accounting is the same whichever executor refreshed the tree.
//!
//! An integration test (one test, its own process) rather than a unit test
//! beside `task_rebuild_matches_barrier_bitwise`: the counters are process
//! globals, and the unit tests of this crate re-sort concurrently.

use bh_bvh::{Bvh, BvhScratch};
use nbody_math::{Aabb, SplitMix64, Vec3};
use nbody_telemetry::metrics::{BVH_BUILDS, BVH_FULL_RESORTS, BVH_LAZY_RESORTS};
use stdpar::prelude::{Par, TaskGraph};

#[test]
fn barrier_and_task_graph_rebuilds_move_the_resort_counters_equally() {
    if !nbody_telemetry::ENABLED {
        eprintln!("skipped: telemetry capture is compiled out of this build");
        return;
    }
    let mut rng = SplitMix64::new(4242);
    let pos: Vec<Vec3> = (0..1000)
        .map(|_| Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    let mass: Vec<f64> = (0..1000).map(|_| rng.uniform(0.5, 2.0)).collect();
    let bounds = Aabb::from_points(&pos);
    let counters = || [BVH_FULL_RESORTS.get(), BVH_LAZY_RESORTS.get(), BVH_BUILDS.get()];
    let moved = |before: [u64; 3]| {
        let after = counters();
        [after[0] - before[0], after[1] - before[1], after[2] - before[2]]
    };

    // Barrier rebuild of a fresh persistent tree, as `nbody_sim`'s `TreeOps for Bvh` runs it.
    let before = counters();
    let mut barrier = Bvh::new();
    let mut scratch = BvhScratch::new();
    barrier.try_hilbert_resort_with(Par, &pos, &mass, bounds, &mut scratch).unwrap();
    barrier.build_and_accumulate(Par);
    let barrier_moved = moved(before);

    // The task-graph rebuild of the same bodies.
    let before = counters();
    let mut tasked = Bvh::new();
    let mut graph = TaskGraph::new();
    {
        let tasks = tasked.begin_rebuild_tasks(&pos, &mass, bounds, 8, &mut scratch).unwrap();
        tasks.wire(&mut graph);
        graph.run(|node, _| tasks.run_node(node));
    }
    tasked.finish_rebuild_tasks();
    let tasked_moved = moved(before);

    assert_eq!(barrier_moved, [1, 0, 1], "[full resorts, lazy resorts, builds] of the barrier path");
    assert_eq!(tasked_moved, barrier_moved, "the task-graph path must account alike");
    assert_eq!(tasked.permutation(), barrier.permutation());
}
