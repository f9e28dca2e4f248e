//! Bounded-error checkpoint & resume: snapshotting a live session's
//! mergeable state and replaying the tail of the stream after a restart.
//!
//! The paper's samplers make fault tolerance *cheap*: everything a window
//! needs is mergeable, O(sampling budget) state — reservoirs, per-stratum
//! statistics, counters — never the stream itself. A checkpoint is that
//! state serialized ([`sa_types::SessionSnapshot`] wrapping an engine's
//! [`sa_types::EngineSnapshot`]), sealed in the versioned snapshot frame
//! (`sa_net::snapshot`), and handed to a [`CheckpointStore`]. A restart
//! rebuilds the engine from the same query and configuration, restores the
//! serialized state, and — when the input is an `sa-aggregator` log —
//! seeks the consumer back to the offsets recorded in the snapshot, so the
//! resumed run continues draw-for-draw where the snapshot left off.
//!
//! # Snapshot-format versioning rules
//!
//! Serialized snapshots outlive processes, so their layout is governed by
//! `sa_net::SNAPSHOT_VERSION`, not the live-wire version:
//!
//! * Engine `state` payloads are tag-free and layout-pinned: **any**
//!   change — a new field, a reorder, a meaning change — must bump
//!   `sa_net::SNAPSHOT_VERSION`.
//! * Readers reject versions they do not speak; they never guess. A
//!   misread snapshot silently corrupts the resumed stream, which is
//!   strictly worse than restarting cold.
//! * An engine refuses to restore state produced under a different engine
//!   name (`EngineSnapshot::engine`), so a `"batched"` snapshot cannot be
//!   poured into a sharded engine even when the byte layouts happen to
//!   line up.
//!
//! What is deliberately *not* in a snapshot: wall-clock state (elapsed
//! run time restarts at resume) and cost-policy adaptation history (the
//! policy re-adapts within an interval or two; persisting it would couple
//! the snapshot format to every policy implementation).

use crate::combine::PanePayload;
use sa_types::{
    wire_enum, EngineSnapshot, SaError, SessionSnapshot, WireDecode, WireEncode, WireReader,
};
use std::fs;
use std::path::{Path, PathBuf};

/// A pair of function pointers serializing one record type `R` for
/// engine snapshots.
///
/// Engines place no codec bound on `R` in normal operation — records only
/// need to flow through the projection. Checkpointing is the one feature
/// that must write *records* (mid-pane reservoir contents) to disk, so it
/// is opt-in: [`crate::StreamApprox::checkpointable`] requires
/// `R: WireEncode + WireDecode` and injects this codec into the engine it
/// builds. An engine without a codec answers snapshot requests with
/// [`SaError::Checkpoint`].
pub struct RecordCodec<R> {
    pub(crate) encode: fn(&R, &mut Vec<u8>),
    pub(crate) decode: fn(&mut WireReader<'_>) -> Result<R, SaError>,
}

// Not derived: fn pointers are Copy for any `R`, but a derive would demand
// `R: Copy`.
impl<R> Clone for RecordCodec<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for RecordCodec<R> {}

impl<R: WireEncode + WireDecode> RecordCodec<R> {
    /// The codec for any wire-codable record type.
    pub fn new() -> Self {
        RecordCodec {
            encode: |r, out| r.encode(out),
            decode: R::decode,
        }
    }
}

impl<R: WireEncode + WireDecode> Default for RecordCodec<R> {
    fn default() -> Self {
        RecordCodec::new()
    }
}

/// The codec an engine must have been built with to snapshot or restore.
pub(crate) fn require_codec<R>(codec: Option<RecordCodec<R>>) -> Result<RecordCodec<R>, SaError> {
    codec.ok_or_else(|| {
        SaError::Checkpoint(
            "engine built without a record codec; enable with StreamApprox::checkpointable \
             (DigestEngine::checkpointable on a distributed worker)"
                .into(),
        )
    })
}

/// Refuses to decode a snapshot that names a different engine than
/// `engine` (see the versioning rules above).
pub(crate) fn require_engine(snapshot: &EngineSnapshot, engine: &str) -> Result<(), SaError> {
    if snapshot.engine == engine {
        return Ok(());
    }
    Err(SaError::Checkpoint(format!(
        "cannot restore a '{}' snapshot into the {engine} engine",
        snapshot.engine
    )))
}

/// Where sealed snapshots live between a crash and the resume.
///
/// A store holds *one* snapshot — the latest; bounded-error recovery never
/// needs history, because each snapshot supersedes the previous one
/// entirely (state is mergeable and self-contained, not a delta chain).
pub trait CheckpointStore {
    /// Persists a sealed snapshot, replacing any previous one. The store
    /// must be atomic: a crash mid-save leaves the previous snapshot
    /// intact, never a torn file.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] if the snapshot cannot be persisted.
    fn save(&mut self, sealed: &[u8]) -> Result<(), SaError>;

    /// Loads the latest sealed snapshot, `None` when none was ever saved.
    ///
    /// # Errors
    ///
    /// [`SaError::Checkpoint`] if a snapshot exists but cannot be read.
    fn load(&self) -> Result<Option<Vec<u8>>, SaError>;
}

/// A file-backed [`CheckpointStore`]: one snapshot file, replaced
/// atomically through a write-to-temporary-then-rename.
///
/// # Example
///
/// ```no_run
/// use streamapprox::{CheckpointStore, FileCheckpointStore};
///
/// let mut store = FileCheckpointStore::new("/var/lib/app/session.snapshot");
/// store.save(b"sealed snapshot bytes").unwrap();
/// assert!(store.load().unwrap().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store persisting to `path`. The parent directory must exist; the
    /// file itself need not.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, sealed: &[u8]) -> Result<(), SaError> {
        // Write-then-rename so a crash mid-save can never tear the one
        // snapshot the next process will trust.
        let tmp = self.path.with_extension("snapshot.tmp");
        fs::write(&tmp, sealed)
            .map_err(|e| SaError::Checkpoint(format!("writing {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &self.path)
            .map_err(|e| SaError::Checkpoint(format!("replacing {}: {e}", self.path.display())))
    }

    fn load(&self) -> Result<Option<Vec<u8>>, SaError> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SaError::Checkpoint(format!(
                "reading {}: {e}",
                self.path.display()
            ))),
        }
    }
}

/// An in-memory [`CheckpointStore`] for tests and single-process
/// kill/restore drills.
#[derive(Debug, Default, Clone)]
pub struct MemoryCheckpointStore {
    latest: Option<Vec<u8>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryCheckpointStore::default()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, sealed: &[u8]) -> Result<(), SaError> {
        self.latest = Some(sealed.to_vec());
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, SaError> {
        Ok(self.latest.clone())
    }
}

/// Encodes and seals a [`SessionSnapshot`] into the at-rest snapshot
/// frame — the bytes a [`CheckpointStore`] persists.
///
/// # Errors
///
/// [`SaError::Checkpoint`] if the encoded snapshot exceeds
/// [`sa_net::MAX_SNAPSHOT`].
pub fn seal_session_snapshot(snapshot: &SessionSnapshot) -> Result<Vec<u8>, SaError> {
    sa_net::seal_snapshot(&snapshot.to_wire_bytes())
}

/// Opens a sealed snapshot frame back into a [`SessionSnapshot`].
///
/// # Errors
///
/// [`SaError::Checkpoint`] on a bad frame (magic, version, length) and
/// [`SaError::Wire`] on a corrupt payload.
pub fn open_session_snapshot(sealed: &[u8]) -> Result<SessionSnapshot, SaError> {
    SessionSnapshot::from_wire_bytes(sa_net::open_snapshot(sealed)?)
}

// `PanePayload` is the one snapshot type that lives in this crate (not
// sa-types), so its layout is declared here, next to the snapshot code that
// is its only consumer. Any change bumps `sa_net::SNAPSHOT_VERSION`.
wire_enum!(PanePayload {
    0 => Stratified(stats),
    1 => Srs { samples, population },
});

#[cfg(test)]
mod tests {
    use super::*;
    use sa_estimate::{StratumStats, Welford};
    use sa_types::StratumId;

    #[test]
    fn record_codec_roundtrips_values() {
        let codec: RecordCodec<f64> = RecordCodec::new();
        let mut out = Vec::new();
        (codec.encode)(&3.25, &mut out);
        let mut r = WireReader::new(&out);
        assert_eq!((codec.decode)(&mut r).unwrap(), 3.25);
    }

    #[test]
    fn memory_store_keeps_latest_only() {
        let mut store = MemoryCheckpointStore::new();
        assert!(store.load().unwrap().is_none());
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"two");
    }

    #[test]
    fn file_store_survives_replacement_and_reports_missing_as_none() {
        let dir = std::env::temp_dir().join(format!(
            "sa-checkpoint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let mut store = FileCheckpointStore::new(dir.join("session.snapshot"));
        assert!(store.load().unwrap().is_none());
        store.save(b"first").unwrap();
        store.save(b"second").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pane_payload_codec_roundtrips_both_variants() {
        let acc: Welford = [1.0, 2.0, 3.0].into_iter().collect();
        let payloads = [
            PanePayload::Stratified(vec![StratumStats::from_parts(StratumId(2), 9, acc)]),
            PanePayload::Srs {
                samples: vec![(StratumId(0), 1.5), (StratumId(1), -2.5)],
                population: 40,
            },
        ];
        for p in payloads {
            let bytes = p.to_wire_bytes();
            assert_eq!(bytes[0], u8::from(matches!(p, PanePayload::Srs { .. })));
            assert_eq!(PanePayload::from_wire_bytes(&bytes).unwrap(), p);
        }
    }
}
