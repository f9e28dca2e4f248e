//! Protocol messages and their wire encodings.

use sa_estimate::StratumStats;
use sa_types::wire::put_varint;
use sa_types::{
    Confidence, EventTime, IngestCounters, RunSeed, SaError, SizingDirective, StratifiedSample,
    Window, WindowResult, WindowSpec, WireDecode, WireEncode, WireReader,
};

/// The run configuration a coordinator assigns to a joining worker in
/// [`Message::HelloAssign`]: every parameter of the run, so worker binaries
/// need no configuration beyond an address and a worker id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The worker id this assignment confirms.
    pub worker: u32,
    /// Total number of workers in the run (the shard count).
    pub num_workers: u32,
    /// The run seed; the worker derives its shard-local seed from it.
    pub seed: RunSeed,
    /// The sampling directive every worker runs under.
    pub directive: SizingDirective,
    /// Pane length in milliseconds (the slide of the window spec).
    pub pane_interval_ms: i64,
    /// Expected items per pane across all workers (sizes reservoirs).
    pub expected_pane_items: u64,
    /// The window specification windows are finalized under.
    pub window: WindowSpec,
    /// The confidence level of the emitted error bounds.
    pub confidence: Confidence,
    /// Cadence (ms) at which the worker's automatic heartbeat thread
    /// reports liveness; 0 disables automatic heartbeats.
    pub heartbeat_interval_ms: u64,
}

impl WireEncode for Assignment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker.encode(out);
        self.num_workers.encode(out);
        self.seed.encode(out);
        self.directive.encode(out);
        self.pane_interval_ms.encode(out);
        self.expected_pane_items.encode(out);
        self.window.encode(out);
        self.confidence.encode(out);
        put_varint(out, self.heartbeat_interval_ms);
    }
}

impl WireDecode for Assignment {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let a = Assignment {
            worker: u32::decode(r)?,
            num_workers: u32::decode(r)?,
            seed: RunSeed::decode(r)?,
            directive: SizingDirective::decode(r)?,
            pane_interval_ms: i64::decode(r)?,
            expected_pane_items: u64::decode(r)?,
            window: WindowSpec::decode(r)?,
            confidence: Confidence::decode(r)?,
            heartbeat_interval_ms: r.read_varint()?,
        };
        if a.num_workers == 0 {
            return Err(SaError::Wire("assignment with zero workers".to_string()));
        }
        if a.worker >= a.num_workers {
            return Err(SaError::Wire(format!(
                "assigned worker {} outside 0..{}",
                a.worker, a.num_workers
            )));
        }
        if a.pane_interval_ms <= 0 {
            return Err(SaError::Wire(format!(
                "non-positive pane interval {}",
                a.pane_interval_ms
            )));
        }
        Ok(a)
    }
}

/// A worker's liveness and progress report, sent while no pane is closing
/// (a [`Digest`] carries the same progress fields with each closed pane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The reporting worker's id.
    pub worker: u32,
    /// The worker's running ingest totals.
    pub ingest: IngestCounters,
    /// The worker's event-time watermark; `None` before its first item.
    pub watermark: Option<EventTime>,
    /// Outstanding items between the worker and its source.
    pub lag: u64,
    /// The pane start (ms) of the worker's last checkpoint, if any.
    pub last_checkpoint_pane: Option<i64>,
    /// Items the worker ingested since its last checkpoint.
    pub items_since_checkpoint: u64,
    /// Encoded size of the worker's last snapshot in bytes.
    pub snapshot_bytes: u64,
}

impl WireEncode for Heartbeat {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker.encode(out);
        self.ingest.encode(out);
        self.watermark.encode(out);
        put_varint(out, self.lag);
        self.last_checkpoint_pane.encode(out);
        put_varint(out, self.items_since_checkpoint);
        put_varint(out, self.snapshot_bytes);
    }
}

impl WireDecode for Heartbeat {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(Heartbeat {
            worker: u32::decode(r)?,
            ingest: IngestCounters::decode(r)?,
            watermark: Option::<EventTime>::decode(r)?,
            lag: r.read_varint()?,
            last_checkpoint_pane: Option::<i64>::decode(r)?,
            items_since_checkpoint: r.read_varint()?,
            snapshot_bytes: r.read_varint()?,
        })
    }
}

/// The mergeable state one worker ships for one closed pane.
#[derive(Debug, Clone, PartialEq)]
pub enum DigestPayload {
    /// A weighted stratified sample, already projected to the aggregated
    /// `f64` value (merging is projection-agnostic, so shipping projected
    /// values is bit-identical to shipping items and projecting centrally).
    Sampled(StratifiedSample<f64>),
    /// Exact per-stratum sufficient statistics (the no-sampling path).
    Exact(Vec<StratumStats>),
}

impl WireEncode for DigestPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DigestPayload::Sampled(sample) => {
                out.push(0);
                sample.encode(out);
            }
            DigestPayload::Exact(stats) => {
                out.push(1);
                stats.encode(out);
            }
        }
    }
}

impl WireDecode for DigestPayload {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        match r.read_u8()? {
            0 => Ok(DigestPayload::Sampled(StratifiedSample::decode(r)?)),
            1 => {
                let stats = Vec::<StratumStats>::decode(r)?;
                for pair in stats.windows(2) {
                    if pair[1].stratum <= pair[0].stratum {
                        return Err(SaError::Wire(format!(
                            "exact digest strata out of order at {}",
                            pair[1].stratum
                        )));
                    }
                }
                Ok(DigestPayload::Exact(stats))
            }
            t => Err(SaError::Wire(format!("unknown digest payload tag {t}"))),
        }
    }
}

/// One worker's digest of one closed pane: who sampled, which pane of
/// event time it covers, the worker's running ingest accounting, and the
/// mergeable sampler state itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// The sending worker's id (the coordinator merges in worker-id order).
    pub worker: u32,
    /// The pane of event time the digest covers.
    pub pane: Window,
    /// The worker's *running* ingest totals as of this pane.
    pub counters: IngestCounters,
    /// The worker's event-time watermark after closing the pane.
    pub watermark: Option<EventTime>,
    /// Outstanding items between the worker and its source.
    pub lag: u64,
    /// The pane start (ms) of the worker's last checkpoint, if any.
    pub last_checkpoint_pane: Option<i64>,
    /// Items the worker ingested since its last checkpoint.
    pub items_since_checkpoint: u64,
    /// Encoded size of the worker's last snapshot in bytes.
    pub snapshot_bytes: u64,
    /// The pane's mergeable sampler state.
    pub payload: DigestPayload,
}

impl WireEncode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker.encode(out);
        self.pane.encode(out);
        self.counters.encode(out);
        self.watermark.encode(out);
        put_varint(out, self.lag);
        self.last_checkpoint_pane.encode(out);
        put_varint(out, self.items_since_checkpoint);
        put_varint(out, self.snapshot_bytes);
        self.payload.encode(out);
    }
}

impl WireDecode for Digest {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(Digest {
            worker: u32::decode(r)?,
            pane: Window::decode(r)?,
            counters: IngestCounters::decode(r)?,
            watermark: Option::<EventTime>::decode(r)?,
            lag: r.read_varint()?,
            last_checkpoint_pane: Option::<i64>::decode(r)?,
            items_since_checkpoint: r.read_varint()?,
            snapshot_bytes: r.read_varint()?,
            payload: DigestPayload::decode(r)?,
        })
    }
}

/// A protocol message, as it crosses a [`frame`](crate::frame)d transport.
///
/// The handshake is coordinator-driven: a worker connects and sends
/// [`Message::HelloJoin`]; the coordinator replies with
/// [`Message::HelloAssign`], whose [`Assignment`] carries *every* run
/// parameter — seed, sampling directive, pane interval, window
/// specification and confidence level — so worker binaries need no
/// configuration beyond an address and a worker id. After that, the worker
/// ships one [`Message::PaneDigest`] per closed pane, interleaves
/// [`Message::Heartbeat`]s while idle (an automatic heartbeat thread on the
/// worker when the assignment carries a non-zero `heartbeat_interval_ms`),
/// and says [`Message::Shutdown`] before closing its end. A socket that
/// closes without `Shutdown` is a worker failure: the coordinator declares
/// the worker dead, holds its shard open for a replacement, and degrades
/// the affected panes if none arrives in time.
///
/// Recovery extends the handshake: a replacement sends
/// [`Message::HelloRejoin`] instead of `HelloJoin`, and the coordinator
/// answers with `HelloAssign` (naming the adopted dead shard) followed by
/// [`Message::Reassign`], which carries the dead worker's last sealed
/// session-snapshot slice — the same frames checkpointing uses — so the
/// replacement resumes within the checkpoint exposure budget. Workers ship
/// those slices upstream with [`Message::SnapshotSlice`] at every
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A worker announces itself and whether it wants results streamed back.
    HelloJoin {
        /// The joining worker's id in `0..num_workers`.
        worker: u32,
        /// When set, the coordinator streams [`Message::WindowResult`]s
        /// back on this connection as windows finalize.
        wants_results: bool,
    },
    /// The coordinator's reply: the full run configuration.
    HelloAssign(Assignment),
    /// One worker's mergeable digest of one closed pane.
    PaneDigest(Digest),
    /// Liveness and progress while no pane is closing.
    Heartbeat(Heartbeat),
    /// A finalized window estimate (coordinator → worker), in the
    /// runtime's own [`WindowResult`] type.
    WindowResult(WindowResult),
    /// A clean goodbye; the sender will close the connection next.
    Shutdown {
        /// The departing worker's id.
        worker: u32,
    },
    /// A replacement worker volunteers to adopt any dead shard; the
    /// coordinator answers with [`Message::HelloAssign`] naming the shard,
    /// then [`Message::Reassign`] with the handoff state.
    HelloRejoin {
        /// When set, the coordinator streams [`Message::WindowResult`]s
        /// back on this connection as windows finalize.
        wants_results: bool,
    },
    /// The handoff that follows a rejoin assignment: the adopted shard's
    /// last sealed session snapshot (empty if the dead worker never
    /// checkpointed), from which the replacement resumes within the
    /// checkpoint exposure budget.
    Reassign {
        /// The shard id the replacement now owns.
        worker: u32,
        /// How many times this shard has been re-adopted, counting this one.
        respawns: u32,
        /// The dead worker's last sealed `SessionSnapshot` (the
        /// `snapshot`-framed bytes), empty if none was ever shipped.
        snapshot: Vec<u8>,
    },
    /// A worker ships its freshly sealed session snapshot to the
    /// coordinator at each checkpoint, so a future replacement can resume
    /// from it (worker → coordinator).
    SnapshotSlice {
        /// The checkpointing worker's id.
        worker: u32,
        /// The pane start (ms) the snapshot covers through, if any.
        pane: Option<i64>,
        /// The sealed `SessionSnapshot` bytes.
        sealed: Vec<u8>,
    },
}

impl WireEncode for Message {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Message::HelloJoin {
                worker,
                wants_results,
            } => {
                out.push(0);
                worker.encode(out);
                wants_results.encode(out);
            }
            Message::HelloAssign(assignment) => {
                out.push(1);
                assignment.encode(out);
            }
            Message::PaneDigest(digest) => {
                out.push(2);
                digest.encode(out);
            }
            Message::Heartbeat(heartbeat) => {
                out.push(3);
                heartbeat.encode(out);
            }
            Message::WindowResult(result) => {
                out.push(4);
                result.encode(out);
            }
            Message::Shutdown { worker } => {
                out.push(5);
                worker.encode(out);
            }
            Message::HelloRejoin { wants_results } => {
                out.push(6);
                wants_results.encode(out);
            }
            Message::Reassign {
                worker,
                respawns,
                snapshot,
            } => {
                out.push(7);
                worker.encode(out);
                respawns.encode(out);
                put_varint(out, snapshot.len() as u64);
                out.extend_from_slice(snapshot);
            }
            Message::SnapshotSlice {
                worker,
                pane,
                sealed,
            } => {
                out.push(8);
                worker.encode(out);
                pane.encode(out);
                put_varint(out, sealed.len() as u64);
                out.extend_from_slice(sealed);
            }
        }
    }
}

impl WireDecode for Message {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        match r.read_u8()? {
            0 => Ok(Message::HelloJoin {
                worker: u32::decode(r)?,
                wants_results: bool::decode(r)?,
            }),
            1 => Ok(Message::HelloAssign(Assignment::decode(r)?)),
            2 => Ok(Message::PaneDigest(Digest::decode(r)?)),
            3 => Ok(Message::Heartbeat(Heartbeat::decode(r)?)),
            4 => Ok(Message::WindowResult(WindowResult::decode(r)?)),
            5 => Ok(Message::Shutdown {
                worker: u32::decode(r)?,
            }),
            6 => Ok(Message::HelloRejoin {
                wants_results: bool::decode(r)?,
            }),
            7 => {
                let worker = u32::decode(r)?;
                let respawns = u32::decode(r)?;
                let len = r.read_len()?;
                let snapshot = r.read_bytes(len)?.to_vec();
                Ok(Message::Reassign {
                    worker,
                    respawns,
                    snapshot,
                })
            }
            8 => {
                let worker = u32::decode(r)?;
                let pane = Option::<i64>::decode(r)?;
                let len = r.read_len()?;
                let sealed = r.read_bytes(len)?.to_vec();
                Ok(Message::SnapshotSlice {
                    worker,
                    pane,
                    sealed,
                })
            }
            t => Err(SaError::Wire(format!("unknown message tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::{ApproxResult, ErrorBound, StratumId, StratumSample};

    fn assignment() -> Assignment {
        Assignment {
            worker: 2,
            num_workers: 3,
            seed: RunSeed::new(42),
            directive: SizingDirective::Fraction(0.05),
            pane_interval_ms: 500,
            expected_pane_items: 10_000,
            window: WindowSpec::sliding_millis(1_000, 500),
            confidence: Confidence::P95,
            heartbeat_interval_ms: 500,
        }
    }

    fn sample_digest() -> Digest {
        let sample: StratifiedSample<f64> = [
            StratumSample::new(StratumId(0), vec![1.0, 2.0], 100, 2),
            StratumSample::new(StratumId(3), vec![4.5], 40, 1),
        ]
        .into_iter()
        .collect();
        Digest {
            worker: 1,
            pane: Window::new(EventTime::from_millis(0), EventTime::from_millis(500)),
            counters: IngestCounters {
                ingested: 140,
                dropped_late: 3,
            },
            watermark: Some(EventTime::from_millis(499)),
            lag: 12,
            last_checkpoint_pane: Some(0),
            items_since_checkpoint: 140,
            snapshot_bytes: 512,
            payload: DigestPayload::Sampled(sample),
        }
    }

    fn all_messages() -> Vec<Message> {
        let result = ApproxResult::new(10.0, ErrorBound::new(0.5, Confidence::P95), 100, 1_000);
        vec![
            Message::HelloJoin {
                worker: 2,
                wants_results: true,
            },
            Message::HelloAssign(assignment()),
            Message::PaneDigest(sample_digest()),
            Message::Heartbeat(Heartbeat {
                worker: 0,
                ingest: IngestCounters {
                    ingested: 7,
                    dropped_late: 0,
                },
                watermark: None,
                lag: 0,
                last_checkpoint_pane: None,
                items_since_checkpoint: 7,
                snapshot_bytes: 0,
            }),
            Message::WindowResult(WindowResult {
                window: Window::new(EventTime::from_millis(0), EventTime::from_millis(1_000)),
                sum: result,
                mean: result,
                sum_by_stratum: vec![(StratumId(0), result)],
                mean_by_stratum: vec![(StratumId(0), result)],
                degraded: true,
                lost_items: 321,
            }),
            Message::Shutdown { worker: 1 },
            Message::HelloRejoin {
                wants_results: false,
            },
            Message::Reassign {
                worker: 1,
                respawns: 2,
                snapshot: vec![0xAB, 0x00, 0x17],
            },
            Message::Reassign {
                worker: 0,
                respawns: 1,
                snapshot: Vec::new(),
            },
            Message::SnapshotSlice {
                worker: 2,
                pane: Some(-1_500),
                sealed: vec![1, 2, 3, 4],
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let bytes = msg.to_wire_bytes();
            assert_eq!(Message::from_wire_bytes(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        for msg in all_messages() {
            let bytes = msg.to_wire_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Message::from_wire_bytes(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Shutdown { worker: 1 }.to_wire_bytes();
        bytes.push(0);
        assert!(matches!(
            Message::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Message::from_wire_bytes(&[9]),
            Err(SaError::Wire(_))
        ));
        assert!(matches!(
            Message::from_wire_bytes(&[250]),
            Err(SaError::Wire(_))
        ));
        assert!(matches!(
            SizingDirective::decode(&mut WireReader::new(&[7])),
            Err(SaError::Wire(_))
        ));
        assert!(matches!(
            DigestPayload::decode(&mut WireReader::new(&[2])),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn invalid_assignments_rejected() {
        let encode_assign = |worker: u32, num_workers: u32, pane_interval_ms: i64| {
            Message::HelloAssign(Assignment {
                worker,
                num_workers,
                pane_interval_ms,
                ..assignment()
            })
            .to_wire_bytes()
        };
        assert!(Message::from_wire_bytes(&encode_assign(0, 0, 500)).is_err());
        assert!(Message::from_wire_bytes(&encode_assign(3, 3, 500)).is_err());
        assert!(Message::from_wire_bytes(&encode_assign(0, 3, 0)).is_err());
        assert!(Message::from_wire_bytes(&encode_assign(0, 3, 500)).is_ok());
    }

    #[test]
    fn invalid_directives_rejected() {
        for directive in [
            SizingDirective::Fraction(0.0),
            SizingDirective::Fraction(-0.5),
            SizingDirective::Fraction(1.5),
            SizingDirective::Fraction(f64::NAN),
            SizingDirective::PerStratum(0),
            SizingDirective::SharedTotal(0),
        ] {
            let bytes = Message::HelloAssign(Assignment {
                directive,
                ..assignment()
            })
            .to_wire_bytes();
            assert!(
                matches!(Message::from_wire_bytes(&bytes), Err(SaError::Wire(_))),
                "{directive:?}"
            );
        }
    }

    #[test]
    fn hostile_reassign_snapshot_length_rejected() {
        // A Reassign whose snapshot length prefix promises more bytes than
        // the frame carries must be a typed error, not an allocation or a
        // panic.
        let mut out = vec![7u8];
        1u32.encode(&mut out);
        1u32.encode(&mut out);
        put_varint(&mut out, u64::MAX - 3);
        assert!(matches!(
            Message::from_wire_bytes(&out),
            Err(SaError::Wire(_))
        ));
        // Same discipline for the worker → coordinator snapshot slice.
        let mut out = vec![8u8];
        0u32.encode(&mut out);
        Option::<i64>::Some(0).encode(&mut out);
        put_varint(&mut out, 1 << 40);
        out.extend_from_slice(&[0; 16]);
        assert!(matches!(
            Message::from_wire_bytes(&out),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn reassign_with_trailing_garbage_rejected() {
        let mut bytes = Message::Reassign {
            worker: 0,
            respawns: 1,
            snapshot: vec![9, 9],
        }
        .to_wire_bytes();
        bytes.extend_from_slice(&[0xFF, 0x01]);
        assert!(matches!(
            Message::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn duplicate_and_late_heartbeats_decode_independently() {
        // Liveness handling is the receiver's job; at the codec layer a
        // duplicated, reordered, or post-shutdown heartbeat is just another
        // well-formed frame and must decode cleanly every time.
        let hb = Message::Heartbeat(Heartbeat {
            worker: 1,
            ingest: IngestCounters {
                ingested: 10,
                dropped_late: 0,
            },
            watermark: Some(EventTime::from_millis(750)),
            lag: 3,
            last_checkpoint_pane: Some(500),
            items_since_checkpoint: 4,
            snapshot_bytes: 128,
        });
        let bytes = hb.to_wire_bytes();
        for _ in 0..3 {
            assert_eq!(Message::from_wire_bytes(&bytes).unwrap(), hb);
        }
        // A heartbeat corrupted anywhere inside the varint tail errors
        // rather than misattributing fields.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] = 0x80; // dangling varint continuation bit
        assert!(Message::from_wire_bytes(&corrupt).is_err());
    }

    #[test]
    fn out_of_order_exact_digest_rejected() {
        use sa_estimate::Welford;
        let stats = vec![
            StratumStats::from_parts(StratumId(5), 10, Welford::new()),
            StratumStats::from_parts(StratumId(2), 10, Welford::new()),
        ];
        let bytes = DigestPayload::Exact(stats).to_wire_bytes();
        assert!(matches!(
            DigestPayload::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }
}
