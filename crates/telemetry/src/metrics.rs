//! Central metric inventory: every metric in the system is a `static`
//! declared here, so snapshots enumerate a closed, deterministic set and
//! recording sites refer to them by name through [`record!`](crate::record).
//!
//! Naming: statics are SCREAMING_SNAKE; the parallel string used in JSON
//! snapshots is the same name in lower snake_case. The registry accessors
//! ([`counters`], [`gauges`], [`histograms`]) return the metrics in a fixed
//! order (executor → octree → bvh → sim → simd → guard → server) so emitted
//! JSON is byte-stable across runs.

use crate::{Counter, Gauge, Histogram, WorkerTable};

// ---- stdpar executor -------------------------------------------------------

/// Parallel regions entered (one per chunk loop of the `Dynamic` or `DetPar`
/// executor, one per `TaskGraph::run`).
pub static STDPAR_PAR_REGIONS: Counter = Counter::new();
/// Chunks claimed across all workers (a task graph counts one per node).
pub static STDPAR_CHUNKS_CLAIMED: Counter = Counter::new();
/// Worker panics caught by [`PanicCell`](../stdpar/backend) and re-thrown
/// on the caller thread after the region joined.
pub static STDPAR_PANICS_RECOVERED: Counter = Counter::new();
/// Parallel regions executed by the deterministic DetPar scheduler.
pub static STDPAR_DET_REGIONS: Counter = Counter::new();
/// Chunk-granular schedule steps executed by DetPar.
pub static STDPAR_DET_STEPS: Counter = Counter::new();
/// Between-step invariant-probe invocations under DetPar.
pub static STDPAR_DET_PROBE_CALLS: Counter = Counter::new();
/// Task-graph executions (one per `TaskGraph::run` on a non-empty graph).
pub static STDPAR_DAG_RUNS: Counter = Counter::new();
/// Task-graph nodes dispatched across all runs.
pub static STDPAR_DAG_NODES: Counter = Counter::new();
/// Successful cross-worker deque steals inside task-graph runs.
pub static STDPAR_DAG_STEALS: Counter = Counter::new();
/// Most workers ever active in one region.
pub static STDPAR_WORKERS_HIGH_WATER: Gauge = Gauge::new();
/// Grain (chunk length) distribution across parallel regions.
pub static STDPAR_GRAIN_SIZES: Histogram = Histogram::new();
/// Per-worker busy nanoseconds inside parallel regions.
pub static WORKER_BUSY_NANOS: WorkerTable = WorkerTable::new();

// ---- octree ----------------------------------------------------------------

/// Successful octree builds.
pub static OCTREE_BUILDS: Counter = Counter::new();
/// Whole-tree rebuild retries after pool exhaustion.
pub static OCTREE_BUILD_RETRIES: Counter = Counter::new();
/// Failed slot CAS attempts during concurrent insertion (Empty/Body arms).
pub static OCTREE_LOCK_CAS_RETRIES: Counter = Counter::new();
/// Bounded-spin iterations spent waiting on locked slots.
pub static OCTREE_SPIN_ITERS: Counter = Counter::new();
/// MAC tests that accepted a node as a multipole.
pub static OCTREE_MAC_ACCEPTS: Counter = Counter::new();
/// MAC tests that opened (descended into) a node.
pub static OCTREE_MAC_OPENS: Counter = Counter::new();
/// Node-pool high-water mark (allocated nodes after a successful build).
pub static OCTREE_POOL_HIGH_WATER: Gauge = Gauge::new();
/// Bodies per blocked-traversal interaction list.
pub static OCTREE_LIST_BODIES: Histogram = Histogram::new();
/// Multipole nodes per blocked-traversal interaction list.
pub static OCTREE_LIST_NODES: Histogram = Histogram::new();

// ---- bvh -------------------------------------------------------------------

/// Successful BVH builds.
pub static BVH_BUILDS: Counter = Counter::new();
/// Always 0: nothing records it (every BVH rebuild is one full Hilbert
/// sort). Registered at zero for the pinned benchmark (ROADMAP 0(b)), which
/// reads it by name.
pub static BVH_LAZY_RESORTS: Counter = Counter::new();
/// Always 0: registered at zero for the pinned benchmark (ROADMAP 0(b)),
/// like [`BVH_LAZY_RESORTS`].
pub static BVH_FULL_RESORTS: Counter = Counter::new();
/// MAC tests that accepted a node as a multipole.
pub static BVH_MAC_ACCEPTS: Counter = Counter::new();
/// MAC tests that opened (descended into) a node.
pub static BVH_MAC_OPENS: Counter = Counter::new();
/// Node-count high-water mark across builds.
pub static BVH_NODES_HIGH_WATER: Gauge = Gauge::new();
/// Bodies per blocked-traversal interaction list.
pub static BVH_LIST_BODIES: Histogram = Histogram::new();
/// Multipole nodes per blocked-traversal interaction list.
pub static BVH_LIST_NODES: Histogram = Histogram::new();

// ---- simulation step -------------------------------------------------------

/// Completed simulation steps.
pub static SIM_STEPS: Counter = Counter::new();
/// Steps that served the persistent tree stale behind the drift-padded MAC
/// (`ServeStale`) instead of rebuilding it. `tree_rebuild_every` reuse is
/// not counted.
pub static TREE_REUSE_STEPS: Counter = Counter::new();
/// Cumulative nanoseconds per phase, mirroring `StepTimings`.
pub static SIM_BBOX_NANOS: Counter = Counter::new();
pub static SIM_SORT_NANOS: Counter = Counter::new();
pub static SIM_BUILD_NANOS: Counter = Counter::new();
pub static SIM_MULTIPOLE_NANOS: Counter = Counter::new();
pub static SIM_FORCE_NANOS: Counter = Counter::new();
pub static SIM_UPDATE_NANOS: Counter = Counter::new();

// ---- SIMD force kernel -----------------------------------------------------

/// Body groups evaluated through the tiled SIMD kernel (both trees).
pub static SIMD_GROUPS: Counter = Counter::new();
/// Source tiles streamed by the SIMD kernel: ⌈len / 256⌉ per list and
/// group (⌈len / 128⌉ for quadrupole lists), independent of the group size
/// and the lane width.
pub static SIMD_TILES: Counter = Counter::new();
/// Real sources weighted by the target lanes the kernel issued per real
/// target (targets run across lanes; the last vector of a group may carry
/// padding copies of its last target).
pub static SIMD_LANE_SLOTS: Counter = Counter::new();
/// Real sources, once per group — `active/slots` is the kernel's
/// target-lane occupancy (1.0 when every group fills its vectors), and
/// `group × active` the pair-interaction count of full groups.
pub static SIMD_ACTIVE_LANES: Counter = Counter::new();
/// Dispatch tier selected by the runtime CPU probe (0 = portable baseline,
/// 1 = AVX2+FMA, 2 = AVX-512F, named `"avx512f"`), mirroring
/// `nbody_math::simd::SimdLevel`.
pub static SIMD_DISPATCH_LEVEL: Gauge = Gauge::new();

// ---- self-healing guard ----------------------------------------------------

/// Always 0: nothing records it since the solver fallback chain was
/// retired (the guard's rollback ladder is the one recovery system). It
/// stays registered only because the pinned benchmark reads it by name;
/// it goes when the benchmark stops naming it (ROADMAP item 0).
pub static RESILIENT_FALLBACKS: Counter = Counter::new();

/// Logical steps completed through the guarded stepping layer.
pub static GUARD_STEPS: Counter = Counter::new();
/// Suspect health verdicts.
pub static GUARD_SUSPECTS: Counter = Counter::new();
/// Suspect verdicts accepted under the amnesty policy.
pub static GUARD_SUSPECTS_ACCEPTED: Counter = Counter::new();
/// Corrupt health verdicts (hard evidence: non-finite state).
pub static GUARD_CORRUPTS: Counter = Counter::new();
/// Rollbacks to an in-memory checkpoint.
pub static GUARD_ROLLBACKS: Counter = Counter::new();
/// Replays begun after a rollback.
pub static GUARD_RETRIES: Counter = Counter::new();
/// Recovery rungs that halved dt for a bounded window.
pub static GUARD_DT_HALVINGS: Counter = Counter::new();
/// In-memory rollback points recorded.
pub static GUARD_CHECKPOINTS: Counter = Counter::new();
/// In-memory rollback points rejected by their digest at restore time.
pub static GUARD_CHECKPOINT_REJECTS: Counter = Counter::new();
/// Durable (on-disk) checkpoints written.
pub static GUARD_DISK_CHECKPOINTS: Counter = Counter::new();
/// Age (in ring positions, 0 = newest) of the checkpoint each rollback
/// restored from.
pub static GUARD_ROLLBACK_AGE: Histogram = Histogram::new();

// ---- multi-tenant server ---------------------------------------------------

/// Sessions admitted into a slot.
pub static SERVER_SESSIONS_ADMITTED: Counter = Counter::new();
/// Admissions rejected (pool full or invalid session config).
pub static SERVER_SESSIONS_REJECTED: Counter = Counter::new();
/// Sessions closed (their slot returned to the free list).
pub static SERVER_SESSIONS_CLOSED: Counter = Counter::new();
/// Sessions quarantined by a Suspect/Corrupt health verdict.
pub static SERVER_QUARANTINES: Counter = Counter::new();
/// Scheduler ticks executed (one batched region each).
pub static SERVER_TICKS: Counter = Counter::new();
/// Session micro-steps executed across all ticks.
pub static SERVER_STEPS: Counter = Counter::new();
/// Most sessions ever live at once.
pub static SERVER_SESSIONS_HIGH_WATER: Gauge = Gauge::new();
/// Wall nanoseconds of each session micro-step (the per-step latency the
/// fairness scheduler budgets against).
pub static SERVER_STEP_NANOS: Histogram = Histogram::new();

/// Number of registered counters.
pub const N_COUNTERS: usize = 49;
/// Number of registered gauges.
pub const N_GAUGES: usize = 5;
/// Number of registered histograms.
pub const N_HISTOGRAMS: usize = 7;

/// All counters, in stable snapshot order.
pub fn counters() -> [(&'static str, &'static Counter); N_COUNTERS] {
    [
        ("stdpar_par_regions", &STDPAR_PAR_REGIONS),
        ("stdpar_chunks_claimed", &STDPAR_CHUNKS_CLAIMED),
        ("stdpar_panics_recovered", &STDPAR_PANICS_RECOVERED),
        ("stdpar_det_regions", &STDPAR_DET_REGIONS),
        ("stdpar_det_steps", &STDPAR_DET_STEPS),
        ("stdpar_det_probe_calls", &STDPAR_DET_PROBE_CALLS),
        ("stdpar_dag_runs", &STDPAR_DAG_RUNS),
        ("stdpar_dag_nodes", &STDPAR_DAG_NODES),
        ("stdpar_dag_steals", &STDPAR_DAG_STEALS),
        ("octree_builds", &OCTREE_BUILDS),
        ("octree_build_retries", &OCTREE_BUILD_RETRIES),
        ("octree_lock_cas_retries", &OCTREE_LOCK_CAS_RETRIES),
        ("octree_spin_iters", &OCTREE_SPIN_ITERS),
        ("octree_mac_accepts", &OCTREE_MAC_ACCEPTS),
        ("octree_mac_opens", &OCTREE_MAC_OPENS),
        ("bvh_builds", &BVH_BUILDS),
        ("bvh_lazy_resorts", &BVH_LAZY_RESORTS),
        ("bvh_full_resorts", &BVH_FULL_RESORTS),
        ("bvh_mac_accepts", &BVH_MAC_ACCEPTS),
        ("bvh_mac_opens", &BVH_MAC_OPENS),
        ("sim_steps", &SIM_STEPS),
        ("tree_reuse_steps", &TREE_REUSE_STEPS),
        ("sim_bbox_nanos", &SIM_BBOX_NANOS),
        ("sim_sort_nanos", &SIM_SORT_NANOS),
        ("sim_build_nanos", &SIM_BUILD_NANOS),
        ("sim_multipole_nanos", &SIM_MULTIPOLE_NANOS),
        ("sim_force_nanos", &SIM_FORCE_NANOS),
        ("sim_update_nanos", &SIM_UPDATE_NANOS),
        ("simd_groups", &SIMD_GROUPS),
        ("simd_tiles", &SIMD_TILES),
        ("simd_lane_slots", &SIMD_LANE_SLOTS),
        ("simd_active_lanes", &SIMD_ACTIVE_LANES),
        ("resilient_fallbacks", &RESILIENT_FALLBACKS),
        ("guard_steps", &GUARD_STEPS),
        ("guard_suspects", &GUARD_SUSPECTS),
        ("guard_suspects_accepted", &GUARD_SUSPECTS_ACCEPTED),
        ("guard_corrupts", &GUARD_CORRUPTS),
        ("guard_rollbacks", &GUARD_ROLLBACKS),
        ("guard_retries", &GUARD_RETRIES),
        ("guard_dt_halvings", &GUARD_DT_HALVINGS),
        ("guard_checkpoints", &GUARD_CHECKPOINTS),
        ("guard_checkpoint_rejects", &GUARD_CHECKPOINT_REJECTS),
        ("guard_disk_checkpoints", &GUARD_DISK_CHECKPOINTS),
        ("server_sessions_admitted", &SERVER_SESSIONS_ADMITTED),
        ("server_sessions_rejected", &SERVER_SESSIONS_REJECTED),
        ("server_sessions_closed", &SERVER_SESSIONS_CLOSED),
        ("server_quarantines", &SERVER_QUARANTINES),
        ("server_ticks", &SERVER_TICKS),
        ("server_steps", &SERVER_STEPS),
    ]
}

/// All gauges, in stable snapshot order.
pub fn gauges() -> [(&'static str, &'static Gauge); N_GAUGES] {
    [
        ("stdpar_workers_high_water", &STDPAR_WORKERS_HIGH_WATER),
        ("octree_pool_high_water", &OCTREE_POOL_HIGH_WATER),
        ("bvh_nodes_high_water", &BVH_NODES_HIGH_WATER),
        ("simd_dispatch_level", &SIMD_DISPATCH_LEVEL),
        ("server_sessions_high_water", &SERVER_SESSIONS_HIGH_WATER),
    ]
}

/// All histograms, in stable snapshot order.
pub fn histograms() -> [(&'static str, &'static Histogram); N_HISTOGRAMS] {
    [
        ("stdpar_grain_sizes", &STDPAR_GRAIN_SIZES),
        ("octree_list_bodies", &OCTREE_LIST_BODIES),
        ("octree_list_nodes", &OCTREE_LIST_NODES),
        ("bvh_list_bodies", &BVH_LIST_BODIES),
        ("bvh_list_nodes", &BVH_LIST_NODES),
        ("guard_rollback_age", &GUARD_ROLLBACK_AGE),
        ("server_step_nanos", &SERVER_STEP_NANOS),
    ]
}

/// Zero every metric in the inventory. Call before a measurement window
/// (e.g. at the start of a benchmark) so snapshots describe only that
/// window. Not atomic as a whole: concurrent recorders may land either
/// side of the sweep.
pub fn reset() {
    for (_, c) in counters() {
        c.reset();
    }
    for (_, g) in gauges() {
        g.reset();
    }
    for (_, h) in histograms() {
        h.reset();
    }
    WORKER_BUSY_NANOS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_names_are_unique_snake_case() {
        let mut seen = HashSet::new();
        for name in counters()
            .iter()
            .map(|(n, _)| *n)
            .chain(gauges().iter().map(|(n, _)| *n))
            .chain(histograms().iter().map(|(n, _)| *n))
        {
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "non-snake-case metric name {name}"
            );
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        OCTREE_BUILDS.add(3);
        STDPAR_WORKERS_HIGH_WATER.record(7);
        STDPAR_GRAIN_SIZES.record(128);
        WORKER_BUSY_NANOS.add(1, 99);
        reset();
        assert_eq!(OCTREE_BUILDS.get(), 0);
        assert_eq!(STDPAR_WORKERS_HIGH_WATER.get(), 0);
        assert_eq!(STDPAR_GRAIN_SIZES.count(), 0);
        assert_eq!(WORKER_BUSY_NANOS.get(1), 0);
    }
}
