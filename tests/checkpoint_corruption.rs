//! Corruption matrix for the durable snapshot format (DESIGN.md §
//! Self-healing & checkpointing): every damaged file must produce a
//! *typed* [`SnapshotError`] — never a panic, never a silently wrong
//! state. The matrix sweeps truncation at **every byte boundary** (which
//! covers every section boundary), a bit-flip at **every byte offset**
//! (header and payload), unsupported versions (the retired trailer-less v1
//! included), and the empty file; then
//! exercises the in-memory [`CheckpointRing`]'s digest rejection and the
//! on-disk primary → `.prev` resume fallback end to end.

use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::io::{self, SnapshotError};
use stdpar_nbody::sim::{CheckpointError, CheckpointRing};
use stdpar_nbody::sim::{GuardConfig, GuardedSimulation, HealthMonitor, SolverKind};

fn snapshot_bytes(n: usize, seed: u64) -> (SystemState, Vec<u8>) {
    let state = galaxy_collision(n, seed);
    let mut bytes = Vec::new();
    io::write_binary(&state, &mut bytes).unwrap();
    (state, bytes)
}

/// Byte offsets where the v2 sections begin (see the layout table in
/// `crates/sim/src/io.rs`).
fn section_starts(n: usize, len: usize) -> Vec<(&'static str, usize)> {
    let n24 = n * 24;
    vec![
        ("magic", 0),
        ("count", 8),
        ("position", 16),
        ("velocity", 16 + n24),
        ("mass", 16 + 2 * n24),
        ("checksum", 16 + 2 * n24 + n * 8),
        ("end", len),
    ]
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let n = 5;
    let (state, bytes) = snapshot_bytes(n, 91);
    let sections = section_starts(n, bytes.len());
    assert_eq!(sections.last().unwrap().1, bytes.len(), "layout table out of date");

    for cut in 0..bytes.len() {
        let err = io::try_read_binary(&bytes[..cut]).expect_err("truncated file must not load");
        match err {
            SnapshotError::Truncated { .. } | SnapshotError::BadMagic => {}
            other => panic!("cut at {cut}: unexpected error class {other:?}"),
        }
        // The lossy wrapper must preserve the typed error as a source.
        let io_err = std::io::Error::from(err);
        if cut >= 8 {
            assert_eq!(
                io_err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}: truncation lowers to UnexpectedEof"
            );
            assert!(
                io_err
                    .get_ref()
                    .and_then(|e| e.downcast_ref::<SnapshotError>())
                    .is_some(),
                "cut at {cut}: typed source lost"
            );
        }
    }

    // Cutting exactly at a section boundary names the *next* section as
    // the one that ran dry.
    for w in sections.windows(2) {
        let (_, start) = w[0];
        let (next_name, next_start) = w[1];
        if next_name == "end" {
            continue;
        }
        let _ = start;
        match io::try_read_binary(&bytes[..next_start]) {
            Err(SnapshotError::Truncated { section, .. }) => {
                assert_eq!(section, next_name, "boundary cut at {next_start}");
            }
            other => panic!("boundary cut at {next_start}: {other:?}"),
        }
    }

    // The full file round-trips (control arm of the matrix).
    let loaded = io::try_read_binary(&bytes[..]).unwrap();
    assert_eq!(loaded.positions, state.positions);
}

#[test]
fn bit_flip_at_every_byte_is_a_typed_error() {
    let n = 4;
    let (_, bytes) = snapshot_bytes(n, 92);
    let payload_start = 16;

    for offset in 0..bytes.len() {
        for bit in [0u8, 7] {
            let mut rotted = bytes.clone();
            rotted[offset] ^= 1 << bit;
            let result = io::try_read_binary(&rotted[..]);
            let Err(err) = result else {
                panic!("flip at byte {offset} bit {bit} loaded successfully");
            };
            if offset >= payload_start {
                // Payload and trailer damage is caught by the CRC — or by
                // value validation when the flip manufactures a NaN/Inf,
                // which reads reject before checksum verification.
                assert!(
                    matches!(
                        err,
                        SnapshotError::ChecksumMismatch { .. } | SnapshotError::NonFinite { .. }
                    ),
                    "flip at byte {offset} bit {bit}: {err:?}"
                );
            } else {
                // Header damage: magic, version, or count errors — all
                // typed, all before any payload is trusted.
                assert!(
                    matches!(
                        err,
                        SnapshotError::BadMagic
                            | SnapshotError::UnsupportedVersion { .. }
                            | SnapshotError::ImplausibleCount(_)
                            | SnapshotError::Truncated { .. }
                            | SnapshotError::ChecksumMismatch { .. }
                    ),
                    "flip at byte {offset} bit {bit}: {err:?}"
                );
            }
        }
    }
}

#[test]
fn unsupported_versions_and_empty_files_are_typed() {
    // Version 9 does not exist yet.
    let (_, mut bytes) = snapshot_bytes(3, 93);
    bytes[7] = b'9';
    match io::try_read_binary(&bytes[..]) {
        Err(SnapshotError::UnsupportedVersion { found: 9, max_supported }) => {
            assert!(max_supported >= 2);
        }
        other => panic!("{other:?}"),
    }
    // v1 (`NBSNAP01`, no checksum trailer) is no longer read: a byte
    // flip in its payload would have loaded silently.
    bytes[7] = b'1';
    assert!(matches!(
        io::try_read_binary(&bytes[..]),
        Err(SnapshotError::UnsupportedVersion { found: 1, .. })
    ));
    // Version 0 is reserved-invalid.
    bytes[6] = b'0';
    bytes[7] = b'0';
    assert!(matches!(
        io::try_read_binary(&bytes[..]),
        Err(SnapshotError::UnsupportedVersion { found: 0, .. })
    ));
    // The empty file is a bad magic, not a panic or an EOF surprise.
    assert!(matches!(io::try_read_binary(&[][..]), Err(SnapshotError::BadMagic)));
    // Garbage that never was a snapshot.
    assert!(matches!(
        io::try_read_binary(&b"GIF89a-definitely-not-a-snapshot"[..]),
        Err(SnapshotError::BadMagic)
    ));
}

/// The body count sits in an unverified header, so it must not decide how
/// much memory the decoder asks for (at most 2^20 elements ahead of what the
/// stream delivered): the typed answer to a lying header is the same on
/// every host, whatever its overcommit policy and free memory.
#[test]
fn header_count_never_sizes_the_reservation() {
    let header = |claimed: u64| {
        let mut bytes = b"NBSNAP02".to_vec();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes
    };

    // 2^30 bodies claimed (24 GiB of positions alone), three delivered.
    let mut lying = header(1 << 30);
    for c in 0..9 {
        lying.extend_from_slice(&f64::from(c).to_le_bytes());
    }
    match io::try_read_binary(&lying[..]) {
        Err(SnapshotError::Truncated { n, section: "position", body: 3 }) => {
            assert_eq!(n, 1 << 30)
        }
        other => panic!("2^30 claimed, 3 delivered: {other:?}"),
    }

    // Past the plausibility bound nothing is decoded at all.
    match io::try_read_binary(&header((1 << 33) + 1)[..]) {
        Err(SnapshotError::ImplausibleCount(n)) => assert_eq!(n, (1 << 33) + 1),
        other => panic!("2^33 + 1 claimed: {other:?}"),
    }

    // A valid snapshot longer than one reservation chunk round-trips
    // bitwise across the chunk boundary, in all three arrays.
    let n = (1 << 20) + 5;
    let at = |i: usize, k: f64| Vec3::new(i as f64 + k, k - i as f64, 0.5 * i as f64 * k);
    let state = SystemState::from_parts(
        (0..n).map(|i| at(i, 0.25)).collect(),
        (0..n).map(|i| at(i, -3.0)).collect(),
        (0..n).map(|i| 1.0 + i as f64).collect(),
    );
    let mut bytes = Vec::new();
    io::write_binary(&state, &mut bytes).unwrap();
    let loaded = io::try_read_binary(&bytes[..]).unwrap();
    assert_eq!(loaded.positions, state.positions);
    assert_eq!(loaded.velocities, state.velocities);
    assert_eq!(loaded.masses, state.masses);
}

#[test]
fn checkpoint_ring_rejects_rotted_slots_and_serves_older_ones() {
    let state = galaxy_collision(120, 95);
    let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::Bvh, opts).unwrap();
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let mut ring = CheckpointRing::with_capacity(3).unwrap();
    ring.warm(sim.state().len());

    for _ in 0..3 {
        sim.step();
        monitor.check(sim.state(), 1e-3, DynPolicy::Par);
        ring.record(&sim, &monitor);
    }
    let newest_steps = ring.peek_steps(0).unwrap();
    assert_eq!(newest_steps, 3);

    // Rot the newest slot in memory: restore must reject it by digest and
    // the caller falls back to the next-newest, which still verifies.
    ring.corrupt_newest_for_test();
    match ring.restore(0, &mut sim, &mut monitor) {
        Err(CheckpointError::ChecksumMismatch { slot: _ }) => {}
        other => panic!("expected digest rejection, got {other:?}"),
    }
    ring.restore(1, &mut sim, &mut monitor).unwrap();
    assert_eq!(sim.steps_done(), 2);

    // Out-of-range asks are typed, not panics.
    assert!(matches!(
        ring.restore(7, &mut sim, &mut monitor),
        Err(CheckpointError::OutOfRange { .. })
    ));
}

#[test]
fn guarded_disk_resume_survives_a_corrupted_primary() {
    let dir = std::env::temp_dir();
    let path = dir.join("ckpt_corruption_resume.bin");
    let prev = dir.join("ckpt_corruption_resume.bin.prev");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);

    let cfg = GuardConfig { disk_path: Some(path.clone()), disk_every: 2, ..GuardConfig::default() };
    let state = galaxy_collision(90, 96);
    let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };
    let mut guard =
        GuardedSimulation::new(state, SolverKind::Bvh, opts, cfg).unwrap();
    guard.run(6).unwrap();
    assert!(guard.stats().disk_checkpoints >= 2, "{:?}", guard.stats());

    // Simulated kill: truncate the newest checkpoint mid-payload. Resume
    // must detect it (typed) and fall back to the rotated previous one.
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);
    assert!(matches!(io::try_load(&path), Err(SnapshotError::Truncated { .. })));

    let (resumed, used_prev) = resume_state_from_disk(&path).unwrap();
    assert!(used_prev, "must have fallen back to .prev");
    assert_eq!(resumed.len(), 90);
    assert!(resumed.is_valid());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}
