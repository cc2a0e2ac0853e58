//! # stdpar — ISO C++ standard parallelism, reproduced in Rust
//!
//! The paper implements Barnes-Hut entirely against the C++17 parallel
//! algorithms (`std::for_each`, `std::transform_reduce`, `std::sort`) plus
//! execution policies (`seq`, `par`, `par_unseq`) and atomics. This crate
//! reproduces that *API surface* in Rust so the tree algorithms in
//! `bh-octree` / `bh-bvh` read line-for-line like the paper's listings:
//!
//! ```
//! use stdpar::prelude::*;
//!
//! let mut x = vec![1.0f64; 1024];
//! let y = vec![2.0f64; 1024];
//! // Algorithm 1 of the paper: parallel vector addition.
//! let xs = SyncSlice::new(&mut x);
//! for_each_index(ParUnseq, 0..1024, |i| unsafe {
//!     *xs.get_mut(i) += y[i];
//! });
//! assert!(x.iter().all(|&v| v == 3.0));
//! ```
//!
//! ## Execution policies and forward progress
//!
//! The policy types encode the paper's §II contract in the Rust type system:
//!
//! | policy | forward progress | may block / use locks | vectorizable |
//! |---|---|---|---|
//! | [`policy::Seq`] | n/a (single thread) | yes | no |
//! | [`policy::Par`] | *parallel* — a started thread is eventually rescheduled | **yes** (starvation-free algorithms OK) | no |
//! | [`policy::ParUnseq`] | *weakly parallel* | **no** (lock-freedom required) | yes |
//!
//! Algorithms that take locks (the Concurrent Octree build) bound their
//! policy parameter by [`policy::ParallelForwardProgress`], so calling them
//! with `ParUnseq` is a **compile error** — the Rust analogue of the paper's
//! observation that running the octree under `par_unseq` on a GPU without
//! Independent Thread Scheduling "reliably caused them to hang".
//!
//! ## Backends
//!
//! One parallel substrate runs every `Par`/`ParUnseq` algorithm:
//! [`Backend::Dynamic`](backend::Backend) — self-scheduling chunk claiming,
//! dynamic load-balancing (like TBB-backed libstdc++). The paper's second
//! axis, the same source under several C++ toolchains (Figs. 8–9), is not
//! reproduced: it is a property of compilers and runtimes, not of a
//! scheduling discipline. [`Backend::DetPar`](backend::Backend) replays
//! regions on one thread under seeded schedules, for correctness fuzzing.
//!
//! `Dynamic` is a scheduling discipline over one in-tree substrate (no
//! external runtime): a persistent worker pool (the private `pool` module) in
//! which the calling thread takes part and at most `thread_count() - 1`
//! long-lived workers help — like the TBB and OpenMP pools under the paper's
//! C++ runtimes, a region costs a hand-off, not a thread launch. The pool
//! gives `Par` regions *parallel forward progress* (every started piece of a
//! region sits on a real OS thread and never migrates, so lock-bit waits end)
//! and `ParUnseq` regions the weaker guarantee they asked for; every executor
//! keeps the invariant that **any single participant can finish a whole
//! region alone**, so nested regions and concurrent callers cannot deadlock.
//! The executors are panic-safe: a panicking user closure propagates its
//! original payload to the caller after the region has drained.
//! Select with [`backend::set_backend`] or scoped [`backend::with_backend`].

pub mod alloc_stats;
pub mod backend;
pub mod detpar;
pub mod elementwise;
pub mod foreach;
pub mod policy;
mod pool;
pub mod reduce;
pub mod sort;
pub mod sync_slice;
pub mod taskgraph;

pub mod prelude {
    pub use crate::alloc_stats::allocation_count;
    pub use crate::backend::{
        set_backend, set_threads, with_backend, with_threads, Backend,
    };
    pub use crate::detpar::{
        record_trace, replay_trace, set_schedule, with_probe, with_schedule, ScheduleMode,
    };
    pub use crate::elementwise::{copy, fill, generate, transform};
    pub use crate::foreach::{for_each, for_each_chunk, for_each_chunk_worker, for_each_index};
    pub use crate::policy::{ExecutionPolicy, Par, ParUnseq, ParallelForwardProgress, Seq};
    pub use crate::pool::run_pair;
    pub use crate::reduce::{
        all_of, any_of, count_if, max_element, min_element, reduce, transform_reduce,
    };
    pub use crate::sort::{
        apply_permutation, apply_permutation_into, sort_by_key, sort_by_key_with_scratch,
        sort_unstable_by, sort_unstable_by_with_scratch, SortScratch,
    };
    pub use crate::sync_slice::SyncSlice;
    pub use crate::taskgraph::TaskGraph;
}

pub use prelude::*;
