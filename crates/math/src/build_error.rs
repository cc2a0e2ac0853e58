//! The tree-build error type both trees share.

/// Everything that can go wrong while building an octree or a BVH.
///
/// Both builders surface these as values rather than panicking (or spinning
/// forever), so the caller decides what a failed build costs: `nbody-sim`'s
/// guard rolls the step back and replays it (EXPERIMENTS.md § Reachability
/// of the failure paths lists which variants a real input can reach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The node pool ran out of groups mid-build. Retryable: the builders
    /// grow the pool geometrically and rebuild.
    PoolExhausted {
        /// Pool size (in nodes) that proved insufficient.
        requested_nodes: u32,
    },
    /// More bodies than the `u32` index space of the node pools can address.
    TooManyBodies {
        /// Number of bodies requested.
        n: usize,
    },
    /// A position was NaN/infinite, or the bounding box of a non-empty body
    /// set was empty — no spatial tree can be defined.
    InvalidPositions,
    /// A worker exceeded its bounded-spin budget waiting on a locked child
    /// slot. Under the paper's *parallel forward progress* guarantee this
    /// indicates a livelock (e.g. a stuck or preempted lock holder), not
    /// ordinary contention.
    SpinBudgetExhausted {
        /// Consecutive spins observed by the worker that gave up.
        spins: u64,
    },
    /// A BVH build was attempted before Hilbert-sorting its bodies.
    NotSorted,
    /// `positions` and `masses` disagree in length.
    LengthMismatch {
        /// Number of positions supplied.
        positions: usize,
        /// Number of masses supplied.
        masses: usize,
    },
}

impl BuildError {
    /// Whether a rebuild with grown capacity can succeed. Only pool
    /// exhaustion qualifies; the other variants are input or liveness
    /// defects that a bigger pool cannot fix.
    pub fn is_retryable(self) -> bool {
        matches!(self, BuildError::PoolExhausted { .. })
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BuildError::PoolExhausted { requested_nodes } => {
                write!(f, "node pool exhausted at {requested_nodes} nodes")
            }
            BuildError::TooManyBodies { n } => write!(f, "too many bodies for u32 indices: {n}"),
            BuildError::InvalidPositions => write!(f, "positions invalid or bounding box empty"),
            BuildError::SpinBudgetExhausted { spins } => {
                write!(f, "spin budget exhausted after {spins} consecutive spins on a locked slot")
            }
            BuildError::NotSorted => write!(f, "bodies must be hilbert-sorted before building"),
            BuildError::LengthMismatch { positions, masses } => {
                write!(f, "length mismatch: {positions} positions vs {masses} masses")
            }
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_pool_exhaustion_is_retryable() {
        assert!(BuildError::PoolExhausted { requested_nodes: 64 }.is_retryable());
        assert!(!BuildError::TooManyBodies { n: 5_000_000_000 }.is_retryable());
        assert!(!BuildError::InvalidPositions.is_retryable());
        assert!(!BuildError::SpinBudgetExhausted { spins: 1 << 20 }.is_retryable());
        assert!(!BuildError::NotSorted.is_retryable());
        assert!(!BuildError::LengthMismatch { positions: 3, masses: 2 }.is_retryable());
    }

    #[test]
    fn display_mentions_the_key_quantity() {
        let s = BuildError::PoolExhausted { requested_nodes: 128 }.to_string();
        assert!(s.contains("128"), "{s}");
        let s = BuildError::SpinBudgetExhausted { spins: 4096 }.to_string();
        assert!(s.contains("4096"), "{s}");
        let s = BuildError::LengthMismatch { positions: 10, masses: 9 }.to_string();
        assert!(s.contains("10") && s.contains('9'), "{s}");
    }
}
