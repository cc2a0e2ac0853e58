//! Demonstration of the self-healing pipeline: a guarded octree run under a
//! deterministic, seeded fault injector.
//!
//! ```bash
//! cargo run --release --example fault_injection            # default seed
//! cargo run --release --example fault_injection -- 99      # another seed
//! ```
//!
//! Each micro-step the injector may leave the octree's root lock held by a
//! dead worker (the build gives up on its spin budget and the force pass
//! fails) or poison one position with a NaN after the step. The guard
//! catches both, rolls back to its newest checkpoint and replays, climbing
//! its ladder (dt/2, older checkpoints) when a replay is hit again. Same
//! seed ⇒ same recovery history and the same output, byte for byte.

use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::{FaultInjector, FaultKind, SnapshotError};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2024);
    let state = galaxy_collision(2_000, 42);
    println!("chaos run: N={}, octree, injector seed={seed}", state.len());

    let opts = SimOptions { dt: 1e-3, softening: 1e-3, ..SimOptions::default() };
    let mut guard = GuardedSimulation::new(state, SolverKind::Octree, opts, GuardConfig::default())
        .expect("the octree runs under the default `par` policy")
        .with_injector(
            FaultInjector::new(seed)
                .with_rate(FaultKind::StuckLock, 0.1)
                .with_rate(FaultKind::NanInject, 0.1),
        );

    for step in 0..12 {
        guard.step().expect("the recovery budget outlasts this schedule");
        assert!(guard.state().is_valid());
        let s = guard.stats();
        println!(
            "  step {step:2}: micro-steps {:3}, rollbacks {:2}, dt {:.1e}",
            s.micro_steps,
            s.rollbacks,
            guard.sim().options().dt
        );
    }
    println!("{:?}", guard.stats());

    // Strict snapshot loading: a truncated file is a typed error, not
    // garbage state.
    let mut buf = Vec::new();
    stdpar_nbody::sim::io::write_binary(guard.state(), &mut buf).unwrap();
    buf.truncate(buf.len() / 2);
    match stdpar_nbody::sim::io::try_read_binary(&buf[..]) {
        Err(e @ SnapshotError::Truncated { .. }) => println!("snapshot guard: {e}"),
        other => panic!("expected Truncated, got {other:?}"),
    }
}
