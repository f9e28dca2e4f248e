//! Bounded-error checkpoint types: snapshots of a session's mergeable
//! state and the policy that decides when to take them.
//!
//! Following AF-Stream ("On the Performance and Convergence of Distributed
//! Stream Processing via Approximate Fault Tolerance"), StreamApprox
//! checkpoints are *approximate*: a crash may lose the items ingested
//! since the last snapshot, and the [`CheckpointPolicy`] bounds how large
//! that exposure is allowed to grow. What makes the scheme cheap is the
//! paper's core observation applied here: everything a session needs to
//! resume — per-stratum reservoirs, Welford statistics, the pane
//! cursor, the watermark, ingest counters — is mergeable state whose size
//! is O(sampling budget), not O(stream).
//!
//! # Snapshot format versioning rules
//!
//! A [`SessionSnapshot`] serializes through the workspace wire codec
//! ([`WireEncode`]/[`WireDecode`](crate::WireDecode)) and is framed by
//! `sa_net::snapshot`, which prepends a magic + format-version header.
//! Inside the frame, values are tag-free, so evolution follows the frame
//! version:
//!
//! * **Additive change** (new trailing field, new engine name): bump the
//!   snapshot frame version in `sa-net`; decoders may accept older
//!   versions by filling defaults.
//! * **Breaking change** (field reordered, meaning changed): bump the
//!   version and *reject* older snapshots — a restored session must never
//!   silently misread state, because the whole point is bit-identical
//!   resumption.
//! * The opaque [`EngineSnapshot::state`] payload is owned by the engine
//!   named in [`EngineSnapshot::engine`]; an engine must refuse a snapshot
//!   carrying another engine's name rather than guess at the layout.

use crate::error::SaError;
use crate::item::EventTime;
use crate::session::IngestCounters;
use crate::wire::{put_varint, WireDecode, WireEncode, WireReader};

/// When a session should take its next checkpoint: a pane-interval cadence
/// plus a hard bound on unsnapshotted items.
///
/// The two knobs trade snapshot cost against crash exposure. `every_panes`
/// is the steady-state cadence — snapshots land on pane-close boundaries,
/// where engine state is quiescent and a restore is bit-identical to an
/// uninterrupted run. `max_unsnapshotted` is the error budget: if a burst
/// pushes more than this many items between pane boundaries, the session
/// reports the checkpoint as due immediately, bounding how much sampled
/// mass (and therefore how much estimate error) a crash can cost.
///
/// # Example
///
/// ```
/// use sa_types::CheckpointPolicy;
///
/// let policy = CheckpointPolicy::every_panes(4).with_max_unsnapshotted(10_000);
/// assert!(!policy.due(3, 500));
/// assert!(policy.due(4, 500)); // cadence reached
/// assert!(policy.due(1, 10_000)); // error budget exhausted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint whenever this many panes have closed since the last one.
    pub every_panes: u32,
    /// Checkpoint whenever this many items have been accepted since the
    /// last one, regardless of pane cadence. `u64::MAX` disables the
    /// budget.
    pub max_unsnapshotted: u64,
}

impl CheckpointPolicy {
    /// A cadence-only policy: checkpoint every `n` closed panes
    /// (`n` is clamped to at least 1), with no item budget.
    pub fn every_panes(n: u32) -> Self {
        CheckpointPolicy {
            every_panes: n.max(1),
            max_unsnapshotted: u64::MAX,
        }
    }

    /// Adds an unsnapshotted-items budget: the checkpoint becomes due as
    /// soon as `max` items have been accepted since the last one, even
    /// mid-pane.
    pub fn with_max_unsnapshotted(mut self, max: u64) -> Self {
        self.max_unsnapshotted = max;
        self
    }

    /// Whether a checkpoint is due given `panes_since` closed panes and
    /// `items_since` accepted items since the last checkpoint.
    pub fn due(&self, panes_since: u32, items_since: u64) -> bool {
        panes_since >= self.every_panes || items_since >= self.max_unsnapshotted
    }
}

impl Default for CheckpointPolicy {
    /// Checkpoint at every pane close, with no item budget.
    fn default() -> Self {
        CheckpointPolicy::every_panes(1)
    }
}

/// A versioned snapshot of one engine's mergeable state.
///
/// The `state` payload is opaque at this layer: each engine serializes its
/// own reservoirs, statistics, and cursors through the workspace wire
/// codec, and only the engine named in `engine` knows the layout (the
/// `streamapprox::checkpoint` module docs hold the versioning rules). Its
/// size is O(sampling
/// budget) — independent of how many items the stream has carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// The engine that produced this snapshot (e.g. `"batched"`); a
    /// restore into a different engine is a [`SaError::Checkpoint`] error.
    pub engine: String,
    /// The pane start (ms) the snapshot covers through: every pane before
    /// this one is fully merged into the state. `None` if no pane has
    /// opened yet.
    pub pane: Option<i64>,
    /// The engine's serialized state, opaque to everything but the
    /// producing engine.
    pub state: Vec<u8>,
}

impl WireEncode for EngineSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.engine.encode(out);
        self.pane.encode(out);
        put_varint(out, self.state.len() as u64);
        out.extend_from_slice(&self.state);
    }
}

impl WireDecode for EngineSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let engine = String::decode(r)?;
        let pane = Option::<i64>::decode(r)?;
        let len = r.read_len()?;
        let state = r.read_bytes(len)?.to_vec();
        Ok(EngineSnapshot {
            engine,
            pane,
            state,
        })
    }
}

/// Everything a crashed session needs to resume within its error bounds:
/// the engine snapshot plus the session-level bookkeeping around it.
///
/// `replay` records the `sa-aggregator` consumer offsets (partition,
/// offset) at snapshot time; a restored session's `ingest_consumer` seeks
/// these so the already-counted prefix of the log is never double-counted
/// — replay resumes exactly where the snapshot's counters left off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The engine state this session snapshot wraps.
    pub engine: EngineSnapshot,
    /// The session watermark at snapshot time.
    pub watermark: Option<EventTime>,
    /// Run-wide ingest accounting at snapshot time.
    pub ingest: IngestCounters,
    /// Items accepted through `push`/`push_batch` at snapshot time.
    pub items_pushed: u64,
    /// Windows the caller had drained through `poll_windows` at snapshot
    /// time.
    pub windows_completed: u64,
    /// Per-partition replay offsets of the session's log consumer at
    /// snapshot time; empty if the session never consumed from a log.
    pub replay: Vec<(usize, u64)>,
}

impl WireEncode for SessionSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.engine.encode(out);
        self.watermark.encode(out);
        self.ingest.encode(out);
        put_varint(out, self.items_pushed);
        put_varint(out, self.windows_completed);
        self.replay.encode(out);
    }
}

impl WireDecode for SessionSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(SessionSnapshot {
            engine: EngineSnapshot::decode(r)?,
            watermark: Option::<EventTime>::decode(r)?,
            ingest: IngestCounters::decode(r)?,
            items_pushed: r.read_varint()?,
            windows_completed: r.read_varint()?,
            replay: Vec::<(usize, u64)>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SessionSnapshot {
        SessionSnapshot {
            engine: EngineSnapshot {
                engine: "sharded".to_string(),
                pane: Some(-5_000),
                state: vec![0xAB, 0x00, 0xFF, 0x01],
            },
            watermark: Some(EventTime::from_millis(4_321)),
            ingest: IngestCounters {
                ingested: 999,
                dropped_late: 3,
            },
            items_pushed: 999,
            windows_completed: 2,
            replay: vec![(0, 120), (1, 98)],
        }
    }

    #[test]
    fn policy_due_on_cadence_or_budget() {
        let p = CheckpointPolicy::every_panes(3).with_max_unsnapshotted(100);
        assert!(!p.due(0, 0));
        assert!(!p.due(2, 99));
        assert!(p.due(3, 0));
        assert!(p.due(0, 100));
        // Cadence clamps to at least one pane.
        assert_eq!(CheckpointPolicy::every_panes(0).every_panes, 1);
        // The default has no item budget.
        assert!(!CheckpointPolicy::default().due(0, u64::MAX - 1));
        assert!(CheckpointPolicy::default().due(1, 0));
    }

    #[test]
    fn snapshots_roundtrip() {
        let snap = sample_snapshot();
        let bytes = snap.to_wire_bytes();
        let back = SessionSnapshot::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // An empty-state, pre-first-pane snapshot also round-trips.
        let empty = SessionSnapshot {
            engine: EngineSnapshot {
                engine: "aggregated".to_string(),
                pane: None,
                state: Vec::new(),
            },
            watermark: None,
            ingest: IngestCounters::default(),
            items_pushed: 0,
            windows_completed: 0,
            replay: Vec::new(),
        };
        let back = SessionSnapshot::from_wire_bytes(&empty.to_wire_bytes()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn truncated_snapshots_error_never_panic() {
        let bytes = sample_snapshot().to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SessionSnapshot::from_wire_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_state_length_rejected() {
        // An EngineSnapshot whose state length prefix exceeds the input.
        let mut bytes = Vec::new();
        "batched".to_string().encode(&mut bytes);
        Option::<i64>::None.encode(&mut bytes);
        put_varint(&mut bytes, u64::MAX - 1);
        assert!(matches!(
            EngineSnapshot::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }
}
