//! # stdpar-nbody
//!
//! Rust reproduction of *"Efficient Tree-based Parallel Algorithms for
//! N-Body Simulations Using C++ Standard Parallelism"* (SC 2024).
//!
//! This façade crate re-exports the whole workspace so examples, tests and
//! downstream users need a single dependency:
//!
//! * [`math`] — vectors, bounding boxes, the Hilbert curve, atomics;
//! * [`stdpar`] — the ISO-C++-style parallel algorithm layer with
//!   `Seq` / `Par` / `ParUnseq` execution policies;
//! * [`progress`] — the forward-progress (ITS vs. legacy SIMT) scheduler
//!   simulator;
//! * [`octree`] — the Concurrent Octree strategy (paper §IV-A);
//! * [`bvh`] — the Hilbert-sorted BVH strategy (paper §IV-B);
//! * [`sim`] — workloads, integration loop, all-pairs baselines,
//!   diagnostics (paper §III, §V);
//! * [`telemetry`] — zero-steady-state-allocation step-level metrics
//!   (DESIGN.md § Observability), enabled by the default `telemetry`
//!   feature.
//!
//! ## Quickstart
//!
//! ```
//! use stdpar_nbody::prelude::*;
//!
//! // Two colliding galaxies, 1000 bodies, deterministic seed.
//! let state = galaxy_collision(1_000, 42);
//! let mut sim = Simulation::new(state, SolverKind::Octree, SimOptions {
//!     dt: 1e-3,
//!     theta: 0.5,
//!     ..SimOptions::default()
//! })
//! .expect("octree supports the default `par` policy");
//! sim.step();
//! assert!(sim.state().positions.iter().all(|p| p.is_finite()));
//! ```

pub use bh_bvh as bvh;
pub use bh_octree as octree;
pub use nbody_math as math;
pub use nbody_resilience as resilience;
pub use nbody_server as server;
pub use nbody_sim as sim;
pub use nbody_telemetry as telemetry;
pub use progress_sim as progress;
pub use stdpar;

/// Everything a typical simulation driver needs.
pub mod prelude {
    pub use crate::math::{Aabb, ForceEval, ForceKernel, KernelPrecision, TreeLifecycle, Vec3};
    pub use crate::sim::diagnostics::{l2_error, Diagnostics};
    pub use crate::sim::solver::{ForceSolver, SolverKind};
    pub use crate::sim::system::SystemState;
    pub use crate::sim::workload::{
        galaxy_collision, plummer, solar_system, spinning_disk, uniform_cube, WorkloadSpec,
    };
    pub use crate::sim::{
        resume_state_from_disk, GuardConfig, GuardError, GuardStats, GuardedSimulation,
        HealthConfig, HealthMonitor, HealthVerdict, SimOptions, SimWorkspace, Simulation,
        StepAllocs, StepTimings, Stepping,
    };
    pub use crate::stdpar::policy::{DynPolicy, Par, ParUnseq, Seq};
}
