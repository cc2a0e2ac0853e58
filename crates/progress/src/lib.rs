//! # progress-sim — a forward-progress scheduler simulator
//!
//! The paper's central portability finding (§II, §V-B) is about *forward
//! progress guarantees*, not about silicon: the Concurrent Octree's
//! starvation-free locking needs **parallel forward progress** ("if a
//! thread starts running it will eventually be scheduled again"), which
//! NVIDIA GPUs provide since Volta via Independent Thread Scheduling (ITS),
//! while legacy SIMT schedulers — and AMD/Intel GPUs — only provide
//! **weakly parallel** forward progress. Running the octree there
//! "reliably caused them to hang"; the Hilbert BVH, which never blocks,
//! runs everywhere.
//!
//! We cannot run on a GPU in this reproduction, so this crate simulates the
//! two scheduling semantics *exactly* and executes instrumented
//! state-machine versions of the actual algorithms under each:
//!
//! * [`scheduler::run_its`] — fair round-robin over every live virtual
//!   thread: parallel forward progress.
//! * [`scheduler::run_lockstep`] — warps of `W` threads execute in lockstep;
//!   on divergence the warp serialises one branch side until reconvergence.
//!   We model this by stepping, per warp, only the live threads at the
//!   minimum program counter — the canonical implementation choice that
//!   starves a lock *holder* (at a later pc) whenever a lock *waiter* spins
//!   at an earlier pc in the same warp.
//!
//! The workloads are steppable translations of the two BUILDTREE
//! algorithms:
//!
//! * [`tree_insert`] — lock-based concurrent tree insertion (the octree's
//!   Algorithm 4/5). Under ITS it always completes; under lockstep it
//!   **livelocks** as soon as two threads of one warp contend for a leaf.
//! * [`reduce`] — the wait-free arrival-counter tree reduction
//!   (CALCULATEMULTIPOLES) and, by extension, the whole BVH strategy: no
//!   spin states, completes under both schedulers.
//!
//! ```
//! use progress_sim::scheduler::{run_its, run_lockstep, Outcome};
//! use progress_sim::tree_insert::contended_insertion;
//!
//! // 8 threads, all inserting into the same region ⇒ heavy contention.
//! let mk = || contended_insertion(8, 0.5);
//! assert!(matches!(run_its(mk(), 100_000), Outcome::Completed { .. }));
//! assert!(matches!(run_lockstep(mk(), 8, 100_000), Outcome::Livelock { .. }));
//! ```

pub mod reduce;
pub mod scheduler;
pub mod tree_insert;

pub use scheduler::{run_its, run_lockstep, Outcome, Step, VThread};
