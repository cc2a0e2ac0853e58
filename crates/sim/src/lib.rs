//! # nbody-sim — the N-body simulation layer (paper §III, §V)
//!
//! Everything around the tree algorithms: the body state (structure of
//! arrays), workload generators (including the deterministic two-galaxy
//! collision the paper benchmarks and a synthetic stand-in for the JPL
//! Small-Body Database validation), the Störmer-Verlet time integration
//! loop (paper Algorithm 2 / 6), both `O(N²)` all-pairs baselines, and
//! energy/momentum/accuracy diagnostics.
//!
//! ```
//! use nbody_sim::prelude::*;
//!
//! let state = galaxy_collision(512, 42);
//! let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };
//! let mut sim = Simulation::new(state, SolverKind::Octree, opts).unwrap();
//! let t = sim.step();
//! assert!(t.force.as_nanos() > 0);
//! ```

pub mod checkpoint;
pub mod dag;
pub mod diagnostics;
pub mod fault;
pub mod guard;
pub mod health;
pub mod integrator;
pub mod io;
pub mod solver;
pub mod system;
pub mod timing;
mod upkeep;
pub mod workload;
pub mod workspace;

pub use checkpoint::{CheckpointError, CheckpointRing, RestorePoint};
pub use dag::Stepping;
pub use fault::{FaultInjector, FaultKind};
pub use guard::{resume_state_from_disk, GuardConfig, GuardError, GuardStats, GuardedSimulation};
pub use health::{HealthConfig, HealthMonitor, HealthReport, HealthVerdict};
pub use integrator::{IntegratorKind, SimOptions, Simulation};
pub use io::SnapshotError;
pub use solver::{make_solver, ComputeError, ForceSolver, SolverError, SolverKind, SolverParams};
pub use timing::{PhaseBusy, StepAllocs, StepTimings};
pub use workspace::SimWorkspace;

pub mod prelude {
    pub use crate::checkpoint::{CheckpointError, CheckpointRing};
    pub use crate::dag::Stepping;
    pub use crate::diagnostics::{l2_error, Diagnostics};
    pub use crate::guard::{
        resume_state_from_disk, GuardConfig, GuardError, GuardStats, GuardedSimulation,
    };
    pub use crate::health::{HealthConfig, HealthMonitor, HealthReport, HealthVerdict};
    pub use crate::integrator::{IntegratorKind, SimOptions, Simulation};
    pub use crate::fault::{FaultInjector, FaultKind};
    pub use crate::solver::{make_solver, ComputeError, ForceSolver, SolverKind, SolverParams};
    pub use crate::system::SystemState;
    pub use crate::timing::{PhaseBusy, StepAllocs, StepTimings};
    pub use crate::workspace::SimWorkspace;
    pub use crate::workload::{
        galaxy_collision, plummer, solar_system, spinning_disk, uniform_cube, WorkloadSpec,
    };
    pub use nbody_math::{Aabb, ForceParams, Vec3};
    pub use stdpar::policy::DynPolicy;
}
