//! Snapshot I/O: save and restore [`SystemState`]s.
//!
//! The paper's artifact generates workloads on the fly; a reusable library
//! additionally needs snapshots so long runs can be checkpointed and
//! externally-produced initial conditions (e.g. a real JPL SBDB export)
//! can be loaded. Two formats:
//!
//! * **CSV** — `x,y,z,vx,vy,vz,m` per line, interoperable with plotting
//!   tools;
//! * **binary** — versioned `NBSNAPxx` magic, little-endian `u64` count,
//!   the three arrays and a trailing CRC-32 of everything before it;
//!   lossless `f64` round-trip and ~3× smaller than CSV.
//!
//! ## Binary format (v2, written by [`write_binary`])
//!
//! | offset        | bytes  | contents                                    |
//! |---------------|--------|---------------------------------------------|
//! | 0             | 8      | magic `NBSNAP02` (`NBSNAP` + version digits)|
//! | 8             | 8      | `u64` LE body count `n`                     |
//! | 16            | 24·n   | positions (`f64` LE x,y,z per body)         |
//! | 16 + 24n      | 24·n   | velocities                                  |
//! | 16 + 48n      | 8·n    | masses                                      |
//! | 16 + 56n      | 4      | `u32` LE CRC-32 (IEEE) of bytes `0..16+56n` |
//!
//! The checksum makes a truncated or bit-flipped checkpoint *detectably*
//! invalid instead of silently wrong: the self-healing layer
//! ([`crate::guard`]) relies on load-time rejection to fall back to an
//! older checkpoint. v2 is the only version read or written: any other
//! `NBSNAPxx` magic, the trailer-less v1 `NBSNAP01` included, is a typed
//! [`SnapshotError::UnsupportedVersion`].
//!
//! Readers are strict: a truncated file, a malformed record, a checksum
//! mismatch, or any non-finite value is rejected with a descriptive
//! [`SnapshotError`] *before* the state reaches a solver — a NaN that
//! slips in here would otherwise surface steps later as a mysteriously
//! invalid tree. The `io::Result` entry points ([`read_csv`],
//! [`read_binary`], [`load`]) lower the typed error into an `io::Error`
//! that **preserves it as the source** (kind mapped per variant, e.g.
//! `UnexpectedEof` for truncation), so callers can still downcast to
//! recover the section/offset detail.
//!
//! For durable checkpoints use [`save_atomic`]: it writes to a sibling
//! temporary file and atomically renames it into place, so a crash
//! mid-write leaves either the previous complete checkpoint or a stray
//! `.tmp` — never a half-written file under the real name.

use crate::system::SystemState;
use nbody_math::{Crc32, Vec3};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Shared magic prefix of every binary snapshot version.
const MAGIC_PREFIX: &[u8; 6] = b"NBSNAP";
/// The v2 magic: CRC-32 trailer.
const MAGIC_V2: &[u8; 8] = b"NBSNAP02";
/// The one version this build reads.
const MAX_VERSION: u8 = 2;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The binary magic did not match `NBSNAPxx`.
    BadMagic,
    /// The magic was well-formed but names a version this build cannot
    /// read (anything but v2).
    UnsupportedVersion { found: u8, max_supported: u8 },
    /// The file ended before the promised payload: `n` bodies declared,
    /// data ran out in `section` at body `body`.
    Truncated { n: u64, section: &'static str, body: u64 },
    /// The stored CRC-32 disagrees with the digest of the bytes actually
    /// read — a bit-flip or partial overwrite inside the payload.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// The declared body count exceeds any plausible snapshot.
    ImplausibleCount(u64),
    /// The CSV header line was missing or wrong.
    BadHeader,
    /// A CSV record failed to parse (`line` is 1-based, counting the header).
    Malformed { line: usize, reason: String },
    /// A value was NaN/infinite, or a mass was negative: `what` names the
    /// offending field, `body` the 0-based record.
    NonFinite { body: usize, what: &'static str },
    /// The snapshot is well-formed but holds zero bodies. Empty states
    /// round-trip fine at the io layer; *resuming a simulation* from one is
    /// rejected here ([`crate::guard::resume_state_from_disk`]) because an
    /// empty system cannot be stepped ([`crate::solver::SolverError::EmptySystem`]).
    EmptyBody,
}

impl SnapshotError {
    /// The `io::ErrorKind` this error lowers to: truncation is
    /// `UnexpectedEof` (the bytes end early), everything else a format
    /// problem (`InvalidData`), and wrapped I/O errors keep their own kind.
    pub fn io_kind(&self) -> io::ErrorKind {
        match self {
            SnapshotError::Io(e) => e.kind(),
            SnapshotError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic (want NBSNAPxx)"),
            SnapshotError::UnsupportedVersion { found, max_supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads up to v{max_supported})"
            ),
            SnapshotError::Truncated { n, section, body } => write!(
                f,
                "truncated snapshot: header promises {n} bodies but {section} data ends at body {body}"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::ImplausibleCount(n) => write!(f, "implausible body count {n}"),
            SnapshotError::BadHeader => write!(f, "missing or unexpected csv header"),
            SnapshotError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            SnapshotError::NonFinite { body, what } => {
                write!(f, "body {body}: non-finite or negative {what}")
            }
            SnapshotError::EmptyBody => {
                write!(f, "snapshot holds zero bodies; a simulation cannot resume from it")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> Self {
        match e {
            // A raw I/O failure passes through untouched.
            SnapshotError::Io(inner) => inner,
            // Format errors keep the typed value as the error *source*
            // (not just its rendered string), so `io::Error::get_ref` +
            // downcast recovers the full kind/offset/line detail.
            other => io::Error::new(other.io_kind(), other),
        }
    }
}

/// Reject snapshots whose values no solver can consume.
fn validate_state(state: &SystemState) -> Result<(), SnapshotError> {
    for (i, p) in state.positions.iter().enumerate() {
        if !p.is_finite() {
            return Err(SnapshotError::NonFinite { body: i, what: "position" });
        }
    }
    for (i, v) in state.velocities.iter().enumerate() {
        if !v.is_finite() {
            return Err(SnapshotError::NonFinite { body: i, what: "velocity" });
        }
    }
    for (i, &m) in state.masses.iter().enumerate() {
        if !m.is_finite() || m < 0.0 {
            return Err(SnapshotError::NonFinite { body: i, what: "mass" });
        }
    }
    Ok(())
}

/// Write a CSV snapshot (`x,y,z,vx,vy,vz,m` per body, with header).
pub fn write_csv<W: Write>(state: &SystemState, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "x,y,z,vx,vy,vz,m")?;
    for i in 0..state.len() {
        let p = state.positions[i];
        let v = state.velocities[i];
        // {:e} keeps full f64 precision in a compact, parseable form.
        writeln!(
            w,
            "{:e},{:e},{:e},{:e},{:e},{:e},{:e}",
            p.x, p.y, p.z, v.x, v.y, v.z, state.masses[i]
        )?;
    }
    w.flush()
}

/// Read a CSV snapshot produced by [`write_csv`] (header required), with
/// typed failure reporting. See [`SnapshotError`].
pub fn try_read_csv<R: Read>(r: R) -> Result<SystemState, SnapshotError> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or(SnapshotError::BadHeader)??;
    if header.trim() != "x,y,z,vx,vy,vz,m" {
        return Err(SnapshotError::BadHeader);
    }
    let mut state = SystemState::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<f64> = line
            .split(',')
            .map(|f| f.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| SnapshotError::Malformed { line: lineno + 2, reason: e.to_string() })?;
        if fields.len() != 7 {
            return Err(SnapshotError::Malformed {
                line: lineno + 2,
                reason: format!("expected 7 fields, got {}", fields.len()),
            });
        }
        state.push(
            Vec3::new(fields[0], fields[1], fields[2]),
            Vec3::new(fields[3], fields[4], fields[5]),
            fields[6],
        );
    }
    validate_state(&state)?;
    Ok(state)
}

/// [`try_read_csv`] with the error lowered into `io::Error` (the typed
/// [`SnapshotError`] is preserved as the error source).
pub fn read_csv<R: Read>(r: R) -> io::Result<SystemState> {
    try_read_csv(r).map_err(io::Error::from)
}

/// A `Write` adapter that folds every written byte into a CRC-32 digest.
struct Crc32Writer<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Write the v2 binary snapshot format: versioned magic, body count,
/// payload, trailing CRC-32 of everything before it.
pub fn write_binary<W: Write>(state: &SystemState, w: W) -> io::Result<()> {
    let mut w = Crc32Writer { inner: BufWriter::new(w), crc: Crc32::new() };
    w.write_all(MAGIC_V2)?;
    w.write_all(&(state.len() as u64).to_le_bytes())?;
    for p in &state.positions {
        for c in [p.x, p.y, p.z] {
            w.write_all(&c.to_le_bytes())?;
        }
    }
    for v in &state.velocities {
        for c in [v.x, v.y, v.z] {
            w.write_all(&c.to_le_bytes())?;
        }
    }
    for &m in &state.masses {
        w.write_all(&m.to_le_bytes())?;
    }
    let digest = w.crc.finalize();
    // The digest itself is written past the checksummed region.
    w.inner.write_all(&digest.to_le_bytes())?;
    w.inner.flush()
}

/// A `Read` adapter that folds every consumed byte into a CRC-32 digest.
struct Crc32Reader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// Read a v2 binary snapshot, verifying its checksum, with typed failure
/// reporting. See [`SnapshotError`].
pub fn try_read_binary<R: Read>(r: R) -> Result<SystemState, SnapshotError> {
    let mut r = Crc32Reader { inner: BufReader::new(r), crc: Crc32::new() };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            // Includes the empty file: too short to even carry a magic.
            SnapshotError::BadMagic
        } else {
            SnapshotError::Io(e)
        }
    })?;
    check_version(&magic)?;
    let state = read_arrays(&mut r)?;
    // The digest covers exactly the bytes parsed so far; the stored trailer
    // is read outside the checksummed stream.
    let computed = r.crc.finalize();
    let mut trailer = [0u8; 4];
    r.inner.read_exact(&mut trailer).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                n: state.len() as u64,
                section: "checksum",
                body: state.len() as u64,
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    let stored = u32::from_le_bytes(trailer);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    validate_state(&state)?;
    Ok(state)
}

/// Check the 8-byte magic: `NBSNAP` + two ASCII version digits naming v2.
fn check_version(magic: &[u8; 8]) -> Result<(), SnapshotError> {
    if &magic[..6] != MAGIC_PREFIX
        || !magic[6].is_ascii_digit()
        || !magic[7].is_ascii_digit()
    {
        return Err(SnapshotError::BadMagic);
    }
    let version = (magic[6] - b'0') * 10 + (magic[7] - b'0');
    if version != MAX_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            max_supported: MAX_VERSION,
        });
    }
    Ok(())
}

/// Elements reserved ahead of what has actually been decoded.
const DECODE_CHUNK: usize = 1 << 20;

/// Make room for the next element of an `n`-element array. The count comes
/// from an unverified header (the checksum trails the payload), so it never
/// decides how much memory is requested: at most [`DECODE_CHUNK`] elements
/// are reserved beyond what the stream has delivered — a stream that claims
/// more than it carries runs dry first (`Truncated`) on every host, and a
/// host short of `24·n` free bytes can still stream a valid snapshot. A
/// reservation the host cannot serve is a typed error, not an abort.
fn reserve_ahead<T>(v: &mut Vec<T>, n: usize) -> Result<(), SnapshotError> {
    if v.len() == v.capacity() {
        let ahead = (n - v.len()).min(DECODE_CHUNK);
        v.try_reserve_exact(ahead).map_err(|_| SnapshotError::ImplausibleCount(n as u64))?;
    }
    Ok(())
}

/// Count + the three arrays.
fn read_arrays<R: Read>(r: &mut R) -> Result<SystemState, SnapshotError> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { n: 0, section: "count", body: 0 }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    let n = u64::from_le_bytes(len);
    // Guard against absurd headers before decoding.
    if n > (1 << 33) {
        return Err(SnapshotError::ImplausibleCount(n));
    }
    let n = n as usize;
    // Distinguish "file ended mid-payload" from a raw EOF error: the header
    // made a promise the data does not keep.
    let read_f64 = |r: &mut R, section: &'static str, body: usize| -> Result<f64, SnapshotError> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                SnapshotError::Truncated { n: n as u64, section, body: body as u64 }
            } else {
                SnapshotError::Io(e)
            }
        })?;
        Ok(f64::from_le_bytes(b))
    };
    let mut positions = Vec::new();
    for i in 0..n {
        reserve_ahead(&mut positions, n)?;
        positions.push(Vec3::new(
            read_f64(r, "position", i)?,
            read_f64(r, "position", i)?,
            read_f64(r, "position", i)?,
        ));
    }
    let mut velocities = Vec::new();
    for i in 0..n {
        reserve_ahead(&mut velocities, n)?;
        velocities.push(Vec3::new(
            read_f64(r, "velocity", i)?,
            read_f64(r, "velocity", i)?,
            read_f64(r, "velocity", i)?,
        ));
    }
    let mut masses = Vec::new();
    for i in 0..n {
        reserve_ahead(&mut masses, n)?;
        masses.push(read_f64(r, "mass", i)?);
    }
    Ok(SystemState::from_parts(positions, velocities, masses))
}

/// [`try_read_binary`] with the error lowered into `io::Error` (the typed
/// [`SnapshotError`] is preserved as the error source).
pub fn read_binary<R: Read>(r: R) -> io::Result<SystemState> {
    try_read_binary(r).map_err(io::Error::from)
}

/// Save with typed failure reporting (format chosen by extension:
/// `.csv` → CSV, anything else → v2 binary).
pub fn try_save(state: &SystemState, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let f = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        write_csv(state, f)?;
    } else {
        write_binary(state, f)?;
    }
    Ok(())
}

/// Load with typed failure reporting. See [`try_save`].
pub fn try_load(path: impl AsRef<Path>) -> Result<SystemState, SnapshotError> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        try_read_csv(f)
    } else {
        try_read_binary(f)
    }
}

/// Convenience wrappers over file paths (format chosen by extension:
/// `.csv` → CSV, anything else → binary).
pub fn save(state: &SystemState, path: impl AsRef<Path>) -> io::Result<()> {
    try_save(state, path).map_err(io::Error::from)
}

/// See [`save`].
pub fn load(path: impl AsRef<Path>) -> io::Result<SystemState> {
    try_load(path).map_err(io::Error::from)
}

/// Durably checkpoint `state` to `path` (v2 binary, CRC-32-sealed) via a
/// sibling temporary file and an atomic rename, so a crash at any point
/// leaves either the previous complete file or nothing — never a torn
/// checkpoint under the real name. The data is fsynced before the rename;
/// a stray `<name>.tmp` from an interrupted earlier attempt is simply
/// overwritten.
pub fn save_atomic(state: &SystemState, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            SnapshotError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint path has no file name",
            ))
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let f = std::fs::File::create(&tmp)?;
        write_binary(state, &f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::galaxy_collision;

    #[test]
    fn binary_round_trip_is_lossless() {
        let state = galaxy_collision(500, 21);
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(state.positions, back.positions);
        assert_eq!(state.velocities, back.velocities);
        assert_eq!(state.masses, back.masses);
    }

    #[test]
    fn csv_round_trip_is_lossless() {
        // `{:e}` prints enough digits for exact f64 round-trip.
        let state = galaxy_collision(200, 22);
        let mut buf = Vec::new();
        write_csv(&state, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(state.positions, back.positions);
        assert_eq!(state.velocities, back.velocities);
        assert_eq!(state.masses, back.masses);
    }

    #[test]
    fn empty_state_round_trips() {
        let state = SystemState::new();
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap().len(), 0);
        let mut csv = Vec::new();
        write_csv(&state, &mut csv).unwrap();
        assert_eq!(read_csv(&csv[..]).unwrap().len(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_binary(&b"NOTASNAP\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The typed error survives the io::Error lowering as the source.
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<SnapshotError>());
        assert!(matches!(inner, Some(SnapshotError::BadMagic)), "{inner:?}");
    }

    #[test]
    fn unsupported_version_rejected_with_detail() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"NBSNAP07");
        buf.extend_from_slice(&0u64.to_le_bytes());
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::UnsupportedVersion { found: 7, max_supported }) => {
                assert_eq!(max_supported, MAX_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Older versions (the trailer-less v1 included) and the reserved
        // 00 are unsupported too.
        for (magic, found) in [(b"NBSNAP01", 1), (b"NBSNAP00", 0)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(magic);
            buf.extend_from_slice(&0u64.to_le_bytes());
            match try_read_binary(&buf[..]) {
                Err(SnapshotError::UnsupportedVersion { found: f, .. }) => assert_eq!(f, found),
                other => panic!("expected UnsupportedVersion {found}, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_binary_rejected() {
        let state = galaxy_collision(10, 23);
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        buf.truncate(buf.len() - 4 - 4); // into the mass section
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let state = galaxy_collision(20, 29);
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        // The trailer is the CRC of everything before it.
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        assert_eq!(stored, nbody_math::crc32(&buf[..buf.len() - 4]));
        // Flip one payload bit: parses fine, digest disagrees.
        buf[40] ^= 0x10;
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_trailer_reported_as_truncated_checksum() {
        let state = galaxy_collision(5, 30);
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        buf.truncate(buf.len() - 2); // half the CRC trailer survives
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::Truncated { section: "checksum", .. }) => {}
            other => panic!("expected Truncated checksum, got {other:?}"),
        }
    }

    #[test]
    fn malformed_csv_rejected() {
        assert!(read_csv(&b"wrong,header\n"[..]).is_err());
        assert!(read_csv(&b"x,y,z,vx,vy,vz,m\n1,2,3\n"[..]).is_err());
        assert!(read_csv(&b"x,y,z,vx,vy,vz,m\n1,2,3,4,5,6,abc\n"[..]).is_err());
        assert!(read_csv(&b""[..]).is_err());
    }

    #[test]
    fn truncated_binary_names_section_and_body() {
        let state = galaxy_collision(10, 25);
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        // Cut inside the velocity block: header + positions + 2.5 velocities.
        buf.truncate(8 + 8 + 10 * 24 + 2 * 24 + 12);
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::Truncated { n, section, body }) => {
                assert_eq!(n, 10);
                assert_eq!(section, "velocity");
                assert_eq!(body, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // The io::Result wrapper keeps both the kind and the typed detail.
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("velocity"), "got: {err}");
        match err.get_ref().and_then(|e| e.downcast_ref::<SnapshotError>()) {
            Some(SnapshotError::Truncated { n: 10, section: "velocity", body: 2 }) => {}
            other => panic!("typed source lost in conversion: {other:?}"),
        }
    }

    #[test]
    fn csv_malformed_line_detail_survives_io_lowering() {
        let err = read_csv(&b"x,y,z,vx,vy,vz,m\n1,2,3,4,5,6,abc\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        match err.get_ref().and_then(|e| e.downcast_ref::<SnapshotError>()) {
            Some(SnapshotError::Malformed { line: 2, .. }) => {}
            other => panic!("typed source lost in conversion: {other:?}"),
        }
    }

    #[test]
    fn nan_snapshots_rejected_with_descriptive_error() {
        // Binary: corrupt one position, one velocity, one mass in turn.
        let mut state = galaxy_collision(5, 26);
        state.positions[3].y = f64::NAN;
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::NonFinite { body: 3, what: "position" }) => {}
            other => panic!("expected NonFinite position, got {other:?}"),
        }

        let mut state = galaxy_collision(5, 26);
        state.velocities[1].z = f64::INFINITY;
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::NonFinite { body: 1, what: "velocity" }) => {}
            other => panic!("expected NonFinite velocity, got {other:?}"),
        }

        let mut state = galaxy_collision(5, 26);
        state.masses[4] = -1.0;
        let mut buf = Vec::new();
        write_binary(&state, &mut buf).unwrap();
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::NonFinite { body: 4, what: "mass" }) => {}
            other => panic!("expected NonFinite mass, got {other:?}"),
        }

        // CSV path rejects the same corruption ("NaN" parses as f64::NAN).
        let mut state = galaxy_collision(5, 26);
        state.positions[0].x = f64::NAN;
        let mut csv = Vec::new();
        write_csv(&state, &mut csv).unwrap();
        let err = read_csv(&csv[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("position"), "got: {err}");
    }

    #[test]
    fn implausible_count_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match try_read_binary(&buf[..]) {
            Err(SnapshotError::ImplausibleCount(n)) => assert_eq!(n, u64::MAX),
            other => panic!("expected ImplausibleCount, got {other:?}"),
        }
    }

    #[test]
    fn file_save_load_by_extension() {
        let state = galaxy_collision(50, 24);
        let dir = std::env::temp_dir();
        let bin = dir.join("nbsnap_test.bin");
        let csv = dir.join("nbsnap_test.csv");
        save(&state, &bin).unwrap();
        save(&state, &csv).unwrap();
        assert_eq!(load(&bin).unwrap().positions, state.positions);
        assert_eq!(load(&csv).unwrap().positions, state.positions);
        let _ = std::fs::remove_file(bin);
        let _ = std::fs::remove_file(csv);
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_tmp() {
        let state = galaxy_collision(40, 31);
        let dir = std::env::temp_dir();
        let path = dir.join("nbsnap_atomic_test.bin");
        save_atomic(&state, &path).unwrap();
        // Overwrite with a different state: the rename replaces in place.
        let state2 = galaxy_collision(40, 32);
        save_atomic(&state2, &path).unwrap();
        assert_eq!(try_load(&path).unwrap().positions, state2.positions);
        assert!(
            !dir.join("nbsnap_atomic_test.bin.tmp").exists(),
            "temporary file must not survive a successful save"
        );
        let _ = std::fs::remove_file(path);
    }
}
