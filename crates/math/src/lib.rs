//! Math and low-level primitives for the stdpar-nbody reproduction.
//!
//! This crate collects everything the tree and simulation crates share:
//! small vector geometry ([`Vec3`], [`Aabb`]), the typed tree-build error
//! both trees return ([`BuildError`]), the Hilbert space-filling
//! curve (Skilling's algorithm in [`hilbert`]), a CAS-loop [`AtomicF64`],
//! compensated summation ([`kahan`]), CRC-32 ([`crc32`](mod@crc32)) and a deterministic,
//! seedable RNG ([`rng`]) so every workload in the paper reproduction is
//! bit-reproducible across runs and thread counts — and the part of
//! CALCULATEFORCE that does not depend on the node encoding: the gravity
//! parameters and exact oracles ([`gravity`]), the interaction lists with
//! their scalar and SIMD kernels ([`interaction`], [`simd`]), and the
//! acceptance criterion, the two force visitors and the force-tile body both
//! trees run ([`tiles`]).

pub mod aabb;
pub mod atomic_f64;
pub mod build_error;
pub mod crc32;
pub mod gravity;
pub mod hilbert;
pub mod interaction;
pub mod kahan;
pub mod rng;
pub mod simd;
pub mod tiles;
pub mod vec3;

pub use aabb::Aabb;
pub use atomic_f64::AtomicF64;
pub use build_error::BuildError;
pub use crc32::{crc32, Crc32};
pub use gravity::{ForceEval, ForceKernel, ForceParams, KernelPrecision, TreeLifecycle};
pub use interaction::{InteractionLists, KernelScratch, KernelStats, ListsPool, WorkerKernelState};
pub use kahan::KahanSum;
pub use rng::SplitMix64;
pub use tiles::{mac_accepts, ForceTiles, Node, TreeView, Visitor, WalkMetrics};
pub use vec3::Vec3;

/// Gravitational constant in SI units (m^3 kg^-1 s^-2).
///
/// The galaxy workloads use natural units (`G = 1`); the synthetic
/// solar-system validation uses SI via this constant.
pub const G_SI: f64 = 6.674_30e-11;

/// Astronomical unit in metres, used by the solar-system validation workload.
pub const AU: f64 = 1.495_978_707e11;

/// Solar mass in kilograms.
pub const M_SUN: f64 = 1.988_47e30;

/// One day in seconds (the paper's validation simulates one full day).
pub const DAY: f64 = 86_400.0;
