//! Tagged child-slot encoding.
//!
//! Each tree node stores a single `u32` that is simultaneously the node's
//! state token and its child offset (paper §IV-A: "We extend the token
//! values Empty, Body to include a Locked state"):
//!
//! | pattern | meaning |
//! |---|---|
//! | `0` | `Empty` leaf |
//! | `1` | `Locked` — a thread is sub-dividing this leaf |
//! | bit 31 set | `Body(i)` leaf holding body `i = v & 0x7fff_ffff` |
//! | otherwise (`8 ≤ v < 2^31`) | `Node(v)` internal; children at `v..v+8` |
//!
//! Internal offsets start at [`FIRST_GROUP`] (the root is node 0; indices
//! 1–7 are reserved padding) so every encodable offset is distinguishable
//! from `Empty`/`Locked`.

/// Empty-leaf token.
pub const EMPTY: u32 = 0;

/// Locked-leaf token (a thread is inside the sub-division critical section).
/// `1` is unused by every other encoding: `Empty` is 0, internal offsets
/// start at [`FIRST_GROUP`], and body tags all have bit 31 set.
pub const LOCKED: u32 = 1;

/// Index of the first child group; also the alignment unit of groups.
pub const FIRST_GROUP: u32 = 8;

/// Children per node (isotropic 3-D subdivision).
pub const CHILDREN: u32 = 8;

/// Maximum encodable body index / node offset (31 bits).
pub const MAX_INDEX: u32 = 0x7fff_ffff;

const BODY_BIT: u32 = 0x8000_0000;

/// Decoded state of a child slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    Empty,
    Locked,
    /// Leaf holding this body index (possibly the head of a co-located chain).
    Body(u32),
    /// Internal node; the eight children live at `offset..offset+8`.
    Node(u32),
}

/// Encode a body-leaf token.
#[inline]
pub const fn body_tag(body: u32) -> u32 {
    debug_assert!(body <= MAX_INDEX);
    body | BODY_BIT
}

/// Encode an internal-node token.
#[inline]
pub const fn node_tag(offset: u32) -> u32 {
    debug_assert!(offset >= FIRST_GROUP && offset <= MAX_INDEX);
    offset
}

/// Decode a token.
#[inline]
pub const fn decode(tag: u32) -> Slot {
    if tag == EMPTY {
        Slot::Empty
    } else if tag == LOCKED {
        Slot::Locked
    } else if tag & BODY_BIT != 0 {
        Slot::Body(tag & !BODY_BIT)
    } else {
        Slot::Node(tag)
    }
}

/// Sibling-group index of node `i` (`i >= FIRST_GROUP`).
#[inline]
pub const fn group_of(i: u32) -> u32 {
    debug_assert!(i >= FIRST_GROUP);
    (i - FIRST_GROUP) / CHILDREN
}

/// Position of node `i` within its sibling group (`0..8`).
#[inline]
pub const fn sibling_rank(i: u32) -> u32 {
    debug_assert!(i >= FIRST_GROUP);
    (i - FIRST_GROUP) % CHILDREN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_special_tokens() {
        assert_eq!(decode(EMPTY), Slot::Empty);
        assert_eq!(decode(LOCKED), Slot::Locked);
    }

    #[test]
    fn body_round_trip() {
        for b in [0u32, 1, 1234, MAX_INDEX] {
            assert_eq!(decode(body_tag(b)), Slot::Body(b));
        }
    }

    #[test]
    fn node_round_trip() {
        for off in [FIRST_GROUP, 16, 1 << 20, MAX_INDEX] {
            assert_eq!(decode(node_tag(off)), Slot::Node(off));
        }
    }

    #[test]
    fn tokens_are_disjoint() {
        // Body(0) must not collide with Empty, Node(8) must not collide
        // with Locked, etc.
        assert_ne!(body_tag(0), EMPTY);
        assert_ne!(body_tag(0), LOCKED);
        assert_ne!(node_tag(FIRST_GROUP), EMPTY);
        assert_ne!(node_tag(FIRST_GROUP), LOCKED);
        assert_ne!(body_tag(MAX_INDEX), node_tag(MAX_INDEX));
    }

    #[test]
    fn group_arithmetic() {
        assert_eq!(group_of(8), 0);
        assert_eq!(group_of(15), 0);
        assert_eq!(group_of(16), 1);
        assert_eq!(sibling_rank(8), 0);
        assert_eq!(sibling_rank(15), 7);
        assert_eq!(sibling_rank(16), 0);
        for g in [0u32, 1, 7, 1000] {
            assert_eq!(group_of(FIRST_GROUP + g * CHILDREN), g);
            assert_eq!(sibling_rank(FIRST_GROUP + g * CHILDREN), 0);
        }
    }
}
