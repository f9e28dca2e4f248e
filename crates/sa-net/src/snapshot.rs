//! The at-rest snapshot frame: how a serialized checkpoint is wrapped
//! before it reaches a checkpoint store file or travels between
//! processes.
//!
//! A snapshot frame is a fixed 4-byte header followed by the payload:
//!
//! ```text
//! +----+----+---------+--------+===========+
//! | 'S'| 'K'| version | length |  payload  |
//! +----+----+---------+--------+===========+
//! ```
//!
//! where `length` is a `u32` LE bounded by [`MAX_SNAPSHOT`] before any
//! allocation (`length` spans 4 bytes; the header is
//! [`SNAPSHOT_HEADER_LEN`] bytes total). The payload is a wire-encoded
//! `SessionSnapshot` (see `sa_types::SessionSnapshot`).
//!
//! # Versioning rules
//!
//! Snapshots outlive processes — a file written by one build is read by
//! the next — so this header carries its own version, independent of the
//! live-connection [`WIRE_VERSION`](crate::WIRE_VERSION):
//!
//! * Values inside the payload are tag-free; their layout is pinned by
//!   [`SNAPSHOT_VERSION`]. **Any** change to the serialized layout of
//!   `SessionSnapshot` or an engine's opaque state — new field, reorder,
//!   meaning change — must bump [`SNAPSHOT_VERSION`].
//! * A reader that sees a version it does not speak must reject the
//!   snapshot with a typed error, never guess: a misread snapshot
//!   silently corrupts the resumed stream, which is strictly worse than
//!   restarting cold. (A future build may choose to *accept* an older
//!   version it still knows how to decode; it must never coerce a newer
//!   one.)
//! * The engine-specific `state` payload nested inside the snapshot is
//!   additionally guarded by the engine name: an engine refuses to
//!   restore state produced by a different engine.

use sa_types::SaError;

/// The two magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 2] = *b"SK";

/// The snapshot format version this build writes and accepts.
///
/// Version 2: serialized `WindowResult`s inside finalizer state carry
/// degraded-merge accounting (`degraded`, `lost_items`), and the window
/// finalizer persists its degraded-pane ledger.
///
/// Version 3: the sharded engine merges each pane with the RNG seeded by
/// the pane's start, as the distributed coordinator does, so its state
/// drops the pane index. It keeps each shard's `ingested`/`sampled`
/// lifetime counters (a shard worker's counters now span rearms) and
/// drops the timing-dependent chunk counters, which restart at zero on
/// resume. Version 2 snapshots are refused.
pub const SNAPSHOT_VERSION: u8 = 3;

/// Bytes in the fixed snapshot header.
pub const SNAPSHOT_HEADER_LEN: usize = 7;

/// Upper bound on a snapshot payload, checked before allocation.
///
/// Snapshots are O(sampling budget), not O(stream), so 64 MiB is far
/// above any sane configuration while keeping a corrupt length harmless.
pub const MAX_SNAPSHOT: usize = 64 << 20;

/// Wraps an encoded snapshot payload in the versioned snapshot frame.
///
/// # Errors
///
/// Returns [`SaError::Checkpoint`] if the payload exceeds
/// [`MAX_SNAPSHOT`].
pub fn seal_snapshot(payload: &[u8]) -> Result<Vec<u8>, SaError> {
    if payload.len() > MAX_SNAPSHOT {
        return Err(SaError::Checkpoint(format!(
            "refusing to seal {}-byte snapshot over maximum {MAX_SNAPSHOT}",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validates a snapshot frame and returns its payload bytes.
///
/// # Errors
///
/// Returns [`SaError::Checkpoint`] on a bad magic, an unsupported
/// version, a hostile length, or a truncated payload.
pub fn open_snapshot(bytes: &[u8]) -> Result<&[u8], SaError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(SaError::Checkpoint(format!(
            "snapshot truncated: {} bytes is shorter than the {SNAPSHOT_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..2] != SNAPSHOT_MAGIC {
        return Err(SaError::Checkpoint(format!(
            "bad snapshot magic 0x{:02x}{:02x}",
            bytes[0], bytes[1]
        )));
    }
    let version = bytes[2];
    if version != SNAPSHOT_VERSION {
        return Err(SaError::Checkpoint(format!(
            "unsupported snapshot version {version} (this build speaks {SNAPSHOT_VERSION})"
        )));
    }
    let len = u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]) as usize;
    if len > MAX_SNAPSHOT {
        return Err(SaError::Checkpoint(format!(
            "snapshot length {len} exceeds maximum {MAX_SNAPSHOT}"
        )));
    }
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if payload.len() != len {
        return Err(SaError::Checkpoint(format!(
            "snapshot length {len} disagrees with the {} payload bytes present",
            payload.len()
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_roundtrips() {
        let payload = b"mergeable state".to_vec();
        let sealed = seal_snapshot(&payload).unwrap();
        assert_eq!(open_snapshot(&sealed).unwrap(), payload.as_slice());
        // Empty payloads are legal (a pre-first-pane snapshot).
        let sealed = seal_snapshot(&[]).unwrap();
        assert_eq!(open_snapshot(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn corrupt_frames_rejected_with_typed_errors() {
        let sealed = seal_snapshot(b"state").unwrap();
        // Truncations at every point.
        for cut in 0..sealed.len() {
            assert!(
                matches!(open_snapshot(&sealed[..cut]), Err(SaError::Checkpoint(_))),
                "cut at {cut}"
            );
        }
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert!(matches!(open_snapshot(&bad), Err(SaError::Checkpoint(_))));
        // Unknown version: must reject, never guess (see module docs).
        let mut bad = sealed.clone();
        bad[2] = SNAPSHOT_VERSION + 1;
        match open_snapshot(&bad) {
            Err(SaError::Checkpoint(why)) => assert!(why.contains("version"), "{why}"),
            other => panic!("unexpected {other:?}"),
        }
        // Hostile length prefix.
        let mut bad = sealed.clone();
        bad[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(open_snapshot(&bad), Err(SaError::Checkpoint(_))));
        // Trailing garbage.
        let mut bad = sealed;
        bad.push(0xEE);
        assert!(matches!(open_snapshot(&bad), Err(SaError::Checkpoint(_))));
    }
}
