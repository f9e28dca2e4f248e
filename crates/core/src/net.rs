//! The distributed tier: a self-healing TCP coordinator/worker
//! aggregation service.
//!
//! The paper deploys StreamApprox as *one* logical computation over many
//! machines: workers sample their partitions of the stream close to the
//! data, and only the compact mergeable sampler state travels to the node
//! that finalizes windows (the architecture of §4, fed by the aggregator
//! of §2.1). This module is that deployment shape over real sockets,
//! speaking the `sa-net` framed protocol:
//!
//! * [`DistributedSession`] — the coordinator, started through
//!   [`crate::StreamApprox::distributed`]: binds a listener, assigns the
//!   full run configuration to each joining worker, collects one
//!   [`sa_net::Digest`] per worker per closed pane, merges each pane's
//!   digests in canonical worker-id order through the same pane barrier
//!   the in-process sharded engine merges its shards through, and
//!   finalizes windows with estimation-layer error bounds.
//! * [`DigestEngine`] (built by [`connect_worker`] or [`rejoin_worker`]) —
//!   one worker: a local [`Engine`] that samples its shard of the stream
//!   with full-capacity OASRS and ships the pane's mergeable state at
//!   every pane close instead of estimating locally, heartbeating
//!   automatically in the background. Wrap it in
//!   [`crate::ApproxSession::from_engine`] for the ordinary push/poll
//!   session API.
//!
//! What a digest carries follows the budget. Under a fraction (or
//! without sampling) the coordinator's merge never draws: each worker's
//! sampler already holds only its own share of the budget, so the worker
//! reduces its pane to per-stratum statistics where it was drawn
//! ([`DigestPayload::Stats`], O(strata) bytes) and the merge concatenates
//! them. Under a fixed-size budget every worker samples the whole budget
//! and the merge draws a seeded weighted union of the workers' samples
//! back down to it, so the digest carries the projected sample
//! ([`DigestPayload::Sampled`], O(budget) values). Both ends of a worker
//! connection disable Nagle's algorithm: digests, heartbeats and results
//! are small frames sent back to back.
//!
//! Determinism survives the wire: worker `w` builds exactly the sampler
//! [`ShardSet::rearm`] would hand shard `w`, and the coordinator offers
//! each digest to the one pane barrier the sharded engine offers its
//! shards' closes to (which reduces a shard's sample to the statistics a
//! worker ships where the budget says so). It merges in ascending worker
//! id with the merge RNG seeded by [`crate::pane_merge_seed`] from the
//! run seed and the pane's *start time* — so a fault-free distributed run
//! of K workers reproduces, bit for bit, the sharded engine at N = K
//! under every budget, and the hand-built single-process merge of the
//! same per-shard samplers (§3.2's merge soundness, verified end-to-end
//! in `tests/distributed.rs`).
//!
//! # Surviving worker failure
//!
//! Each worker shard is supervised through a five-state lifecycle, driven
//! by the [`FaultPolicy`] on [`DistributedConfig`]:
//!
//! ```text
//!              HelloJoin                    Shutdown
//!   Empty ────────────────▶ Live ────────────────────▶ Done
//!                           │  ▲
//!          connection lost, │  │ rejoin adopts the shard
//!          or heartbeats    │  │ (generation + 1, at most
//!          missed for       │  │ `max_respawn` times)
//!          `dead_after()`   ▼  │
//!                           Dead ──────────────────▶ Retired
//!                                 no replacement within
//!                                 `backoff`; for the panes,
//!                                 at once when the connection
//!                                 dropped and no handoff is
//!                                 possible
//! ```
//!
//! * **Liveness.** Workers heartbeat automatically every
//!   `heartbeat_interval` (the cadence is assigned in the join
//!   handshake). The coordinator tracks each worker's last sign of life —
//!   heartbeat, digest, or checkpoint slice, in any phase of the run —
//!   and declares a worker `Dead` after `miss_budget` consecutive missed
//!   heartbeats, or immediately when its connection drops without a clean
//!   [`sa_net::Message::Shutdown`]. A late heartbeat from a worker that
//!   was declared dead but never replaced revives it.
//! * **Degraded merges.** A pane blocked on a dead or straggling worker
//!   for longer than `pane_timeout` (and every pane a `Retired` worker
//!   can no longer serve) merges from the digests that did arrive. A
//!   worker whose connection dropped and whose slot offers no handoff —
//!   it never published a checkpoint, or its respawn cap is spent — is
//!   reported `Retired` the moment the drop is seen: no replacement could
//!   refill its panes faster than a fresh replay, so they merge now
//!   rather than after `backoff`, and [`DistributedSession::finish`]
//!   returns without waiting it out. The slot stays adoptable until
//!   `backoff` all the same; a replacement that joins in time serves
//!   the panes not yet merged. A worker that only fell silent keeps the
//!   `Dead` → `backoff` → `Retired` path, since a paused process can
//!   still revive, and so does one with a published checkpoint, whose
//!   replacement can resume without loss. The
//!   missing shards' mass is estimated from the present digests,
//!   populations are inflated Horvitz–Thompson-style
//!   ([`widen_for_shortfall`]) so confidence intervals widen to cover the
//!   loss, and every window touching the pane is stamped
//!   [`WindowResult::degraded`] with the summed
//!   [`WindowResult::lost_items`]. The watermark keeps advancing; a run
//!   degrades, it does not hang.
//! * **Rejoin and handoff.** Workers publish their sealed session
//!   snapshots to the coordinator at every checkpoint
//!   ([`Engine::publish_checkpoint`] →
//!   [`sa_net::Message::SnapshotSlice`]). A replacement process calls
//!   [`rejoin_worker`]: the coordinator hands it the first dead shard
//!   (generation-tagged, so frames from the dead predecessor are
//!   ignored), together with that shard's last snapshot. Resuming via
//!   [`crate::ApproxSession::resume_from_engine`] replays the shard's
//!   source from the recorded consumer offsets, so recovery loses at most
//!   the checkpoint exposure budget; digests for panes the coordinator
//!   already merged, and duplicates of digests the dead predecessor
//!   delivered, are dropped so nothing is double-counted.
//! * **Bounded waits.** Every coordinator wait is bounded: the acceptor
//!   accepts in a dedicated thread forever (a connection that wedges
//!   before its `HelloJoin` only stalls its own handshake thread, for at
//!   most `pane_timeout`), pane collection is bounded by `pane_timeout`,
//!   and [`DistributedSession::finish`] by the configured run timeout.
//!
//! Failure semantics stay typed at the session boundary: a worker that
//! can never be excused (it never joined, or the fault policy windows
//! have not elapsed when the run timeout expires) surfaces as
//! [`SaError::Disconnected`]; hostile or malformed frames on a worker's
//! connection kill that connection (and only it), while protocol
//! violations that reach the merge layer — misaligned panes, payloads
//! contradicting the run directive, duplicate first-generation digests —
//! surface as [`SaError::Wire`].

use crate::checkpoint::{open_session_snapshot, require_codec, require_engine, RecordCodec};
use crate::cost::{frozen_policy, CostPolicy, SizingDirective};
use crate::engine::Engine;
use crate::output::{RunOutput, WindowResult};
use crate::runtime::{
    merges_stats, sampler_sizing, untiled_interval, window_tile_ms, IntervalWorker, Offer,
    PaneBarrier, PaneDriver, PaneSink, ShardSet, WindowFinalizer, WorkerPane,
};
use sa_net::frame::{read_message, write_message};
use sa_net::{Assignment, Digest, DigestPayload, Heartbeat, Message};
use sa_types::wire::{WireDecode, WireEncode, WireReader};
use sa_types::{
    Confidence, EngineSnapshot, EventTime, FaultPolicy, IngestCounters, RunSeed, SaError,
    SessionSnapshot, SessionStatus, StratifiedSample, StratumSample, StreamItem, Window,
    WindowSpec, WorkerHealth, WorkerStatus,
};
use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a distributed coordinator session.
///
/// Mirrors [`crate::ShardedConfig`] — the distributed tier is the sharded
/// engine with processes for threads and frames for channels: the same
/// per-shard samplers, closed through the same pane barrier, so a healthy
/// run of K workers matches the sharded engine at N = K bit for bit under
/// every budget — plus the transport knobs a real service needs: a bind
/// address, a run timeout, and the [`FaultPolicy`] governing failure
/// detection and self-healing.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of workers that will join; also the shard count of the
    /// canonical merge.
    pub workers: u32,
    /// Address the coordinator listens on. Defaults to `127.0.0.1:0`
    /// (loopback, OS-assigned port — read it back with
    /// [`DistributedSession::addr`]).
    pub bind_addr: String,
    /// Pane length in milliseconds; `None` uses the longest interval that
    /// tiles the window — the greatest common divisor of its size and
    /// slide, usually the slide — which is the minimum pane count (fewer
    /// digests per window). An explicit interval must divide that one, or
    /// the session is refused at start with `SaError::InvalidConfig`.
    pub pane_interval_ms: Option<i64>,
    /// Seed of the run: workers derive their shard-local sampler seeds
    /// from it, and every pane merge draws from an RNG derived from it.
    pub seed: RunSeed,
    /// Expected items per pane across all workers; sizes a fraction
    /// directive's first-interval reservoirs.
    pub expected_pane_items: usize,
    /// How long `finish` waits for missing workers or outstanding digests
    /// before declaring the run disconnected.
    pub timeout: Duration,
    /// Failure detection and self-healing: heartbeat cadence, miss
    /// budget, pane straggler timeout, respawn cap and retirement
    /// backoff. The defaults never trip on a healthy loopback run.
    pub fault: FaultPolicy,
}

impl DistributedConfig {
    /// A loopback configuration for `workers` workers with a 30-second
    /// straggler timeout and the default [`FaultPolicy`].
    pub fn new(workers: u32) -> Self {
        DistributedConfig {
            workers,
            bind_addr: "127.0.0.1:0".to_string(),
            pane_interval_ms: None,
            seed: RunSeed::DEFAULT,
            expected_pane_items: 1_000,
            timeout: Duration::from_secs(30),
            fault: FaultPolicy::default(),
        }
    }

    /// Sets the bind address.
    #[must_use]
    pub fn with_bind_addr(mut self, addr: impl Into<String>) -> Self {
        self.bind_addr = addr.into();
        self
    }

    /// Sets an explicit pane interval.
    #[must_use]
    pub fn with_pane_interval_ms(mut self, interval: i64) -> Self {
        self.pane_interval_ms = Some(interval);
        self
    }

    /// Sets the run seed.
    #[must_use]
    pub fn with_seed(mut self, seed: RunSeed) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the expected items per pane (reservoir pre-sizing).
    #[must_use]
    pub fn with_expected_pane_items(mut self, expected: usize) -> Self {
        self.expected_pane_items = expected;
        self
    }

    /// Sets the run timeout `finish` waits under.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the failure-detection and self-healing policy.
    #[must_use]
    pub fn with_fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }
}

/// Supervision state of one worker shard's slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// No worker has ever claimed the shard.
    Empty,
    /// A worker (of the slot's current generation) owns the shard.
    Live,
    /// The owner failed; the shard is open for adoption.
    Dead,
    /// The shard died and no replacement arrived within the backoff; its
    /// remaining panes merge degraded.
    Retired,
    /// The owner shut down cleanly; the shard's stream is complete.
    Done,
}

/// One shard's supervision slot, shared between the session, the
/// acceptor's handshake threads (which claim slots) and the reader
/// threads (which store checkpoint slices).
struct Slot {
    state: SlotState,
    /// Bumped on every adoption; events from older generations are stale.
    gen: u32,
    /// Times the shard has been re-adopted.
    respawns: u32,
    /// The owner's last sealed session snapshot (empty until the first
    /// checkpoint is published) — the handoff a replacement resumes from.
    snapshot: Vec<u8>,
    snapshot_pane: Option<i64>,
}

struct SlotTable {
    slots: Vec<Slot>,
    /// Set when the session shuts down; stops the acceptor and refuses
    /// late handshakes.
    closed: bool,
}

/// Poison-tolerant lock: supervision state stays usable even if a
/// service thread panicked while holding it.
fn lock(table: &Mutex<SlotTable>) -> MutexGuard<'_, SlotTable> {
    table
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the acceptor, handshake and reader threads report to the
/// session. Every worker-scoped event is generation-tagged so frames
/// from a replaced worker's lingering connection are ignored.
enum Event {
    Joined {
        worker: u32,
        gen: u32,
        respawns: u32,
        results: Option<TcpStream>,
    },
    Digest {
        gen: u32,
        digest: Box<Digest>,
    },
    Heartbeat {
        gen: u32,
        heartbeat: Heartbeat,
    },
    /// A sign of life that carries no progress report (a checkpoint
    /// slice was stored).
    Alive {
        worker: u32,
        gen: u32,
    },
    Done {
        worker: u32,
        gen: u32,
    },
    /// The worker's connection is gone or spoke garbage — fatal to the
    /// connection (the worker is declared dead and its shard opened for
    /// adoption), never to the session.
    ConnLost {
        worker: u32,
        gen: u32,
        error: SaError,
    },
    /// The accept service itself failed — fatal to the session.
    Failed(SaError),
}

/// One connected worker, as the coordinator sees it.
struct WorkerPeer {
    status: WorkerStatus,
    done: bool,
    results: Option<TcpStream>,
    gen: u32,
    last_seen: Instant,
    died_at: Option<Instant>,
}

fn reader_loop(
    mut stream: TcpStream,
    worker: u32,
    gen: u32,
    fault: FaultPolicy,
    table: Arc<Mutex<SlotTable>>,
    events: Sender<Event>,
) {
    // Bound the read so a socket that wedges open without traffic cannot
    // pin this thread forever. A silent worker is declared dead after
    // `dead_after` and may revive for `backoff` more; a lost connection
    // retires it at once, so the read must outlast both.
    let read_timeout = (fault.dead_after() * 2)
        .max(fault.dead_after() + fault.backoff)
        .max(Duration::from_secs(1));
    let _ = stream.set_read_timeout(Some(read_timeout));
    loop {
        let event = match read_message(&mut stream) {
            Ok(Some(Message::PaneDigest(digest))) => {
                if digest.worker != worker {
                    Event::ConnLost {
                        worker,
                        gen,
                        error: SaError::Wire(format!(
                            "digest claims worker {} on worker {worker}'s connection",
                            digest.worker
                        )),
                    }
                } else {
                    Event::Digest {
                        gen,
                        digest: Box::new(digest),
                    }
                }
            }
            Ok(Some(Message::Heartbeat(heartbeat))) if heartbeat.worker == worker => {
                Event::Heartbeat { gen, heartbeat }
            }
            Ok(Some(Message::SnapshotSlice {
                worker: w,
                pane,
                sealed,
            })) if w == worker => {
                let mut t = lock(&table);
                let slot = &mut t.slots[worker as usize];
                if slot.gen == gen {
                    slot.snapshot = sealed;
                    slot.snapshot_pane = pane;
                }
                drop(t);
                Event::Alive { worker, gen }
            }
            Ok(Some(Message::Shutdown { .. })) => Event::Done { worker, gen },
            Ok(Some(_)) => Event::ConnLost {
                worker,
                gen,
                error: SaError::Wire(format!("unexpected message from worker {worker}")),
            },
            Ok(None) => Event::ConnLost {
                worker,
                gen,
                error: SaError::Disconnected("worker closed without shutdown"),
            },
            Err(error) => Event::ConnLost { worker, gen, error },
        };
        let terminal = !matches!(
            event,
            Event::Digest { .. } | Event::Heartbeat { .. } | Event::Alive { .. }
        );
        if events.send(event).is_err() || terminal {
            return;
        }
    }
}

/// Performs one connection's join handshake: claims a slot, replies with
/// the assignment (and the handoff snapshot on a rejoin), and announces
/// the worker to the session. Any violation — unknown shard, duplicate
/// claim, malformed hello, handshake timeout — drops this connection and
/// nothing else.
fn handshake(
    mut stream: TcpStream,
    assign: Assignment,
    fault: FaultPolicy,
    table: &Arc<Mutex<SlotTable>>,
    events: &Sender<Event>,
) -> Option<(TcpStream, u32, u32)> {
    let _ = stream.set_read_timeout(Some(fault.pane_timeout));
    let _ = stream.set_write_timeout(Some(fault.pane_timeout));
    let hello = read_message(&mut stream).ok()??;
    let (worker, gen, respawns, wants_results, handoff) = match hello {
        Message::HelloJoin {
            worker,
            wants_results,
        } => {
            if worker >= assign.num_workers {
                return None;
            }
            let mut t = lock(table);
            if t.closed {
                return None;
            }
            let slot = &mut t.slots[worker as usize];
            match slot.state {
                SlotState::Empty => {
                    slot.state = SlotState::Live;
                    (worker, slot.gen, slot.respawns, wants_results, None)
                }
                // Joining a dead shard by id restarts it fresh; state
                // adoption goes through `HelloRejoin`.
                SlotState::Dead if slot.respawns < fault.max_respawn => {
                    slot.gen += 1;
                    slot.respawns += 1;
                    slot.state = SlotState::Live;
                    (worker, slot.gen, slot.respawns, wants_results, None)
                }
                _ => return None,
            }
        }
        Message::HelloRejoin { wants_results } => {
            // Wait (bounded) for a shard to need adopting: the session
            // may not have noticed the death yet when the replacement
            // dials in.
            let deadline = Instant::now() + fault.pane_timeout;
            loop {
                {
                    let mut t = lock(table);
                    if t.closed {
                        return None;
                    }
                    let found = t
                        .slots
                        .iter()
                        .position(|s| s.state == SlotState::Dead && s.respawns < fault.max_respawn);
                    if let Some(idx) = found {
                        let slot = &mut t.slots[idx];
                        slot.gen += 1;
                        slot.respawns += 1;
                        slot.state = SlotState::Live;
                        break (
                            idx as u32,
                            slot.gen,
                            slot.respawns,
                            wants_results,
                            Some(slot.snapshot.clone()),
                        );
                    }
                }
                if Instant::now() >= deadline {
                    return None;
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
        _ => return None,
    };
    let assignment = Message::HelloAssign(Assignment { worker, ..assign });
    let replied = write_message(&mut stream, &assignment).is_ok()
        && match &handoff {
            Some(snapshot) => write_message(
                &mut stream,
                &Message::Reassign {
                    worker,
                    respawns,
                    snapshot: snapshot.clone(),
                },
            )
            .is_ok(),
            None => true,
        };
    if !replied {
        // The claim never completed; reopen the slot for the next taker.
        let mut t = lock(table);
        let slot = &mut t.slots[worker as usize];
        if slot.gen == gen {
            slot.state = if gen == 0 {
                SlotState::Empty
            } else {
                SlotState::Dead
            };
        }
        return None;
    }
    let results = if wants_results {
        stream.try_clone().ok()
    } else {
        None
    };
    if events
        .send(Event::Joined {
            worker,
            gen,
            respawns,
            results,
        })
        .is_err()
    {
        return None;
    }
    Some((stream, worker, gen))
}

/// Accepts forever; each connection handshakes on its own thread, so a
/// client that wedges before its hello cannot stall other joins or the
/// run. The session stops the loop by setting `closed` and dialing a
/// poison-pill connection to unblock `accept`.
fn acceptor_loop(
    listener: TcpListener,
    assign: Assignment,
    fault: FaultPolicy,
    table: Arc<Mutex<SlotTable>>,
    events: Sender<Event>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if lock(&table).closed {
                    return;
                }
                let _ = events.send(Event::Failed(SaError::Wire(format!("accept failed: {e}"))));
                return;
            }
        };
        if lock(&table).closed {
            return;
        }
        // Digests and results are small frames sent back to back; see
        // `dial`.
        let _ = stream.set_nodelay(true);
        let table = Arc::clone(&table);
        let events = events.clone();
        thread::spawn(move || {
            if let Some((stream, worker, gen)) = handshake(stream, assign, fault, &table, &events) {
                reader_loop(stream, worker, gen, fault, table, events);
            }
        });
    }
}

/// A running coordinator: the distributed counterpart of
/// [`crate::ApproxSession`], started through
/// [`crate::StreamApprox::distributed`].
///
/// The session is passive between calls — digests queue on a channel fed
/// by per-connection reader threads, and merging, liveness checking and
/// retirement happen on the caller's thread inside
/// [`poll_windows`](DistributedSession::poll_windows) and
/// [`finish`](DistributedSession::finish). A pane is merged once every
/// worker has either delivered it, provably advanced past it (its
/// watermark reached the pane end), shut down cleanly, or been retired —
/// or once the pane has been blocked for the fault policy's
/// `pane_timeout`, in which case it merges degraded from the digests at
/// hand. Merges happen in pane order so windows still finalize in
/// watermark order.
///
/// The module-level docs in `net.rs` draw the worker lifecycle state
/// machine behind all of this.
pub struct DistributedSession {
    addr: SocketAddr,
    events: Receiver<Event>,
    /// The run configuration every worker is assigned (`worker` is set
    /// per join).
    assign: Assignment,
    barrier: PaneBarrier<f64>,
    finalizer: WindowFinalizer,
    /// When each unmerged pane first saw a digest — the straggler clock
    /// `pane_timeout` measures against.
    pending_since: BTreeMap<i64, Instant>,
    workers: BTreeMap<u32, WorkerPeer>,
    table: Arc<Mutex<SlotTable>>,
    fault: FaultPolicy,
    ready: Vec<WindowResult>,
    error: Option<SaError>,
    completed: u64,
    aggregated: u64,
    degraded_panes: u64,
    lost_items: u64,
    /// Why the most recently failed worker connection died — diagnostic
    /// only (connection loss degrades, it does not error the session).
    last_conn_error: Option<(u32, SaError)>,
    timeout: Duration,
    started: Instant,
}

impl DistributedSession {
    /// Binds the listener and starts the accept service. Called through
    /// [`crate::StreamApprox::distributed`], which supplies the query and
    /// policy parts.
    pub(crate) fn start(
        window: WindowSpec,
        confidence: Confidence,
        policy: &mut dyn CostPolicy,
        config: DistributedConfig,
    ) -> Result<Self, SaError> {
        if config.workers == 0 {
            return Err(SaError::InvalidConfig(
                "a distributed session needs at least one worker".to_string(),
            ));
        }
        // The one consultation: the directive goes into every worker's
        // assignment and stays fixed for the run.
        let directive = policy.interval_sizing();
        if !directive.is_valid() {
            return Err(SaError::InvalidConfig(format!(
                "invalid sizing directive {directive:?}: a fraction must be in (0, 1] and a \
                 budget positive"
            )));
        }
        if !policy.is_static() {
            return Err(frozen_policy("distributed"));
        }
        let fault = config.fault;
        if fault.heartbeat_interval.is_zero()
            || fault.miss_budget == 0
            || fault.pane_timeout.is_zero()
        {
            return Err(SaError::InvalidConfig(
                "the fault policy needs a positive heartbeat interval, miss budget and pane \
                 timeout"
                    .to_string(),
            ));
        }
        let tile_ms = window_tile_ms(window);
        let interval_ms = config.pane_interval_ms.unwrap_or(tile_ms);
        if interval_ms <= 0 {
            return Err(SaError::InvalidConfig(format!(
                "non-positive pane interval {interval_ms}"
            )));
        }
        if tile_ms % interval_ms != 0 {
            return Err(untiled_interval(interval_ms));
        }
        let listener = TcpListener::bind(&config.bind_addr).map_err(|e| {
            SaError::InvalidConfig(format!("cannot bind {}: {e}", config.bind_addr))
        })?;
        let addr = listener.local_addr().map_err(|e| {
            SaError::InvalidConfig(format!("cannot resolve the bound address: {e}"))
        })?;
        // Digests carry values already projected to f64, so the
        // coordinator-side merge runs under the identity projection;
        // reservoir merging never looks at values, only counters and the
        // RNG, which is what makes this bit-identical to merging the
        // unprojected per-shard samplers.
        let mut shard_set = ShardSet::new(config.workers as usize, config.seed, Arc::new(|v| *v));
        let _ = shard_set.rearm(directive, config.expected_pane_items);
        let assign = Assignment {
            worker: 0,
            num_workers: config.workers,
            seed: config.seed,
            directive,
            pane_interval_ms: interval_ms,
            expected_pane_items: config.expected_pane_items as u64,
            window,
            confidence,
            heartbeat_interval_ms: fault.heartbeat_interval.as_millis() as u64,
        };
        let table = Arc::new(Mutex::new(SlotTable {
            slots: (0..config.workers)
                .map(|_| Slot {
                    state: SlotState::Empty,
                    gen: 0,
                    respawns: 0,
                    snapshot: Vec::new(),
                    snapshot_pane: None,
                })
                .collect(),
            closed: false,
        }));
        let (tx, rx) = channel();
        let acceptor_table = Arc::clone(&table);
        thread::spawn(move || acceptor_loop(listener, assign, fault, acceptor_table, tx));
        Ok(DistributedSession {
            addr,
            events: rx,
            assign,
            barrier: PaneBarrier::new(shard_set, interval_ms),
            finalizer: WindowFinalizer::new(window, confidence),
            pending_since: BTreeMap::new(),
            workers: BTreeMap::new(),
            table,
            fault,
            ready: Vec::new(),
            error: None,
            completed: 0,
            aggregated: 0,
            degraded_panes: 0,
            lost_items: 0,
            last_conn_error: None,
            timeout: config.timeout,
            started: Instant::now(),
        })
    }

    /// The address workers should [`connect_worker`] to — useful with the
    /// default `127.0.0.1:0` bind, where the OS picks the port.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn fail(&mut self, error: SaError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    fn set_slot_state(&mut self, worker: u32, gen: u32, state: SlotState) {
        let mut t = lock(&self.table);
        let slot = &mut t.slots[worker as usize];
        if slot.gen == gen {
            slot.state = state;
        }
    }

    /// Declares a worker dead: its shard opens for adoption and its panes
    /// stop being waited on once the fault windows elapse.
    ///
    /// A worker whose connection dropped can never revive, so when its
    /// slot also offers no handoff — no published checkpoint, or the
    /// respawn cap spent — nothing can refill its panes faster than a
    /// fresh replay, and it is reported `Retired` at once: its panes stop
    /// waiting now instead of after `backoff`. The slot itself stays
    /// adoptable until `backoff` elapses.
    fn mark_dead(&mut self, worker: u32, conn_lost: bool) {
        let handoff = {
            let t = lock(&self.table);
            let slot = &t.slots[worker as usize];
            !slot.snapshot.is_empty() && slot.respawns < self.fault.max_respawn
        };
        let Some(peer) = self.workers.get_mut(&worker) else {
            return;
        };
        if peer.done || peer.status.health == WorkerHealth::Retired {
            return;
        }
        if peer.status.health != WorkerHealth::Dead {
            peer.died_at = Some(Instant::now());
        }
        peer.status.health = if conn_lost && !handoff {
            WorkerHealth::Retired
        } else {
            WorkerHealth::Dead
        };
        let gen = peer.gen;
        self.set_slot_state(worker, gen, SlotState::Dead);
    }

    /// Applies the fault policy's clocks: heartbeat misses demote workers
    /// to `Suspect` then `Dead`, and dead shards with no replacement
    /// inside the backoff retire for good (a worker already reported
    /// `Retired` by [`mark_dead`](Self::mark_dead) closes its slot to
    /// adoption then).
    fn check_liveness(&mut self) {
        let dead_after = self.fault.dead_after();
        let suspect_after = self.fault.heartbeat_interval * 2;
        let mut to_kill = Vec::new();
        let mut to_retire = Vec::new();
        for (&worker, peer) in &mut self.workers {
            if peer.done {
                continue;
            }
            match peer.status.health {
                WorkerHealth::Done => {}
                WorkerHealth::Dead | WorkerHealth::Retired => {
                    if peer
                        .died_at
                        .is_some_and(|died| died.elapsed() >= self.fault.backoff)
                    {
                        peer.status.health = WorkerHealth::Retired;
                        peer.died_at = None;
                        to_retire.push((worker, peer.gen));
                    }
                }
                WorkerHealth::Healthy | WorkerHealth::Suspect => {
                    let idle = peer.last_seen.elapsed();
                    if idle >= dead_after {
                        to_kill.push(worker);
                    } else if idle >= suspect_after {
                        peer.status.health = WorkerHealth::Suspect;
                    }
                }
            }
        }
        for worker in to_kill {
            self.mark_dead(worker, false);
        }
        for (worker, gen) in to_retire {
            self.set_slot_state(worker, gen, SlotState::Retired);
        }
    }

    /// A sign of life from the worker's current generation.
    fn note_alive(&mut self, worker: u32, gen: u32) -> bool {
        let Some(peer) = self.workers.get_mut(&worker) else {
            return false;
        };
        if peer.gen != gen {
            return false;
        }
        peer.last_seen = Instant::now();
        match peer.status.health {
            WorkerHealth::Suspect => peer.status.health = WorkerHealth::Healthy,
            // A worker declared dead on missed heartbeats whose frames
            // resume before a replacement claims its shard was only
            // paused: revive it.
            WorkerHealth::Dead => {
                peer.status.health = WorkerHealth::Healthy;
                peer.died_at = None;
                self.set_slot_state(worker, gen, SlotState::Live);
            }
            _ => {}
        }
        true
    }

    fn absorb(&mut self, event: Event) {
        match event {
            Event::Joined {
                worker,
                gen,
                respawns,
                results,
            } => {
                let peer = self.workers.entry(worker).or_insert_with(|| WorkerPeer {
                    status: WorkerStatus {
                        worker,
                        ingest: IngestCounters::default(),
                        watermark: None,
                        lag: 0,
                        last_checkpoint_pane: None,
                        items_since_checkpoint: 0,
                        snapshot_bytes: 0,
                        health: WorkerHealth::Healthy,
                        respawns: 0,
                    },
                    done: false,
                    results: None,
                    gen: 0,
                    last_seen: Instant::now(),
                    died_at: None,
                });
                peer.status.health = WorkerHealth::Healthy;
                peer.status.respawns = respawns;
                peer.done = false;
                peer.results = results;
                peer.gen = gen;
                peer.last_seen = Instant::now();
                peer.died_at = None;
            }
            Event::Digest { gen, digest } => {
                if self.note_alive(digest.worker, gen) {
                    self.absorb_digest(*digest, gen > 0);
                }
            }
            Event::Heartbeat { gen, heartbeat } => {
                if self.note_alive(heartbeat.worker, gen) {
                    self.record_progress(heartbeat);
                }
            }
            Event::Alive { worker, gen } => {
                let _ = self.note_alive(worker, gen);
            }
            Event::Done { worker, gen } => {
                if let Some(peer) = self.workers.get_mut(&worker) {
                    if peer.gen == gen {
                        peer.done = true;
                        peer.status.health = WorkerHealth::Done;
                        self.barrier.excuse(worker as usize, i64::MAX);
                        self.set_slot_state(worker, gen, SlotState::Done);
                    }
                }
            }
            Event::ConnLost { worker, gen, error } => {
                let stale = self
                    .workers
                    .get(&worker)
                    .map_or(true, |peer| peer.gen != gen || peer.done);
                if !stale {
                    self.last_conn_error = Some((worker, error));
                    self.mark_dead(worker, true);
                }
            }
            Event::Failed(error) => self.fail(error),
        }
    }

    /// Writes a worker's latest progress report onto its status; the
    /// watermark never moves back, and excuses the worker from every pane
    /// it has passed.
    fn record_progress(&mut self, report: Heartbeat) {
        if let Some(peer) = self.workers.get_mut(&report.worker) {
            if let Some(watermark) = report.watermark {
                self.barrier
                    .excuse(report.worker as usize, watermark.as_millis());
            }
            let status = &mut peer.status;
            status.ingest = report.ingest;
            status.watermark = report.watermark.max(status.watermark);
            status.lag = report.lag;
            status.last_checkpoint_pane = report.last_checkpoint_pane;
            status.items_since_checkpoint = report.items_since_checkpoint;
            status.snapshot_bytes = report.snapshot_bytes;
        }
    }

    fn absorb_digest(&mut self, digest: Digest, respawned: bool) {
        let start = digest.pane.start.as_millis();
        let end = digest.pane.end.as_millis();
        if start.rem_euclid(self.assign.pane_interval_ms) != 0
            || end != start + self.assign.pane_interval_ms
        {
            return self.fail(SaError::Wire(format!(
                "digest pane {} is not a {}ms pane",
                digest.pane, self.assign.pane_interval_ms
            )));
        }
        let stats = merges_stats(self.assign.directive);
        if stats != matches!(digest.payload, DigestPayload::Stats(_)) {
            return self.fail(SaError::Wire(format!(
                "worker {} digest payload does not match the run directive",
                digest.worker
            )));
        }
        // A digest carries the same progress report a heartbeat does.
        self.record_progress(Heartbeat {
            worker: digest.worker,
            ingest: digest.counters,
            watermark: digest.watermark,
            lag: digest.lag,
            last_checkpoint_pane: digest.last_checkpoint_pane,
            items_since_checkpoint: digest.items_since_checkpoint,
            snapshot_bytes: digest.snapshot_bytes,
        });
        let worker = digest.worker;
        let part = match digest.payload {
            DigestPayload::Sampled(sample) => WorkerPane::Sampled(sample),
            DigestPayload::Stats(stats) => WorkerPane::Stats(stats),
        };
        match self.barrier.offer(worker as usize, start, part) {
            Offer::Held => {
                self.pending_since.entry(start).or_insert_with(Instant::now);
            }
            // The pane was already merged — by straggler timeout or a
            // degraded close — and a replacement replaying its log
            // legitimately re-derives it. Dropping (never re-merging) is
            // what keeps recovery exactly-once at pane granularity.
            Offer::Stale => {}
            // First delivery wins: the dead predecessor's digest for this
            // pane already counts its items.
            Offer::Duplicate if respawned => {}
            Offer::Duplicate => self.fail(SaError::Wire(format!(
                "worker {worker} sent two digests for one pane"
            ))),
        }
    }

    fn drain_pending_events(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            self.absorb(event);
        }
    }

    /// Merges every pane the barrier releases, in pane order. A pane
    /// waits for every worker to deliver it, watermark past it or shut
    /// down; dead-but-not-retired workers still hold it back — their
    /// replacement may yet refill it — until the straggler clock forces a
    /// degraded merge, so one wedged worker cannot stall the watermark.
    /// (A dropped worker with no handoff is retired at once by
    /// [`mark_dead`](Self::mark_dead), so it holds nothing back.)
    /// Workers a degraded merge missed are demoted to `Suspect`.
    fn merge_ready_panes(&mut self) {
        if self.error.is_some() {
            return;
        }
        let timeout = self.fault.pane_timeout;
        while let Some(pane) = self.barrier.take_ready(
            |start| {
                let since = self.pending_since.get(&start);
                since.is_some_and(|t| t.elapsed() >= timeout)
            },
            |w| {
                let peer = self.workers.get(&(w as u32));
                peer.is_some_and(|p| p.status.health == WorkerHealth::Retired)
            },
        ) {
            let start = pane.window.start.as_millis();
            self.pending_since.remove(&start);
            self.aggregated += pane.payload.sampled();
            if !pane.missing.is_empty() {
                for w in pane.missing {
                    if let Some(peer) = self.workers.get_mut(&(w as u32)) {
                        if peer.status.health == WorkerHealth::Healthy {
                            peer.status.health = WorkerHealth::Suspect;
                        }
                    }
                }
                self.degraded_panes += 1;
                self.lost_items += pane.lost;
                self.finalizer.note_degraded_pane(start, pane.lost);
            }
            self.finalizer.ingest_interval(pane.window, pane.payload);
            self.finalizer.close_interval(pane.window.end);
            self.publish_finalized();
        }
    }

    fn publish_finalized(&mut self) {
        let done = self.finalizer.drain_windows();
        if done.is_empty() {
            return;
        }
        self.completed += done.len() as u64;
        for peer in self.workers.values_mut() {
            if let Some(stream) = &mut peer.results {
                let delivered = done
                    .iter()
                    .all(|w| write_message(stream, &Message::WindowResult(w.clone())).is_ok());
                if !delivered {
                    // A subscriber that went away only loses its copy; the
                    // run's results live on the coordinator.
                    peer.results = None;
                }
            }
        }
        self.ready.extend(done);
    }

    /// Takes the windows finalized since the last poll, in watermark
    /// order, without blocking: only digests already received are merged.
    /// Liveness checks run here too — a session that polls regularly
    /// notices dead workers and force-merges timed-out panes promptly.
    ///
    /// # Errors
    ///
    /// [`SaError::Wire`] on protocol violations that reach the merge
    /// layer, [`SaError::Disconnected`] if the accept service died
    /// (worker connection failures do **not** error here — they degrade;
    /// watch [`SessionStatus::workers`] for health).
    pub fn poll_windows(&mut self) -> Result<Vec<WindowResult>, SaError> {
        self.drain_pending_events();
        self.check_liveness();
        self.merge_ready_panes();
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        Ok(std::mem::take(&mut self.ready))
    }

    /// A snapshot of the run's progress: per-worker ingest counters,
    /// watermarks, lag, health and respawn counts (as of each worker's
    /// last digest or heartbeat) on [`SessionStatus::workers`], plus the
    /// merged totals and the degraded-merge ledger.
    pub fn status(&self) -> SessionStatus {
        let mut ingest = IngestCounters::default();
        let mut items_since_checkpoint = 0u64;
        let mut snapshot_bytes = 0u64;
        for peer in self.workers.values() {
            ingest.absorb(peer.status.ingest);
            items_since_checkpoint += peer.status.items_since_checkpoint;
            snapshot_bytes += peer.status.snapshot_bytes;
        }
        SessionStatus {
            items_pushed: ingest.ingested,
            windows_completed: self.completed,
            watermark: self.barrier.watermark(),
            ingest,
            shards: Vec::new(),
            workers: self.workers.values().map(|p| p.status).collect(),
            // Checkpointing is worker-local in the distributed tier: the
            // coordinator has no session-wide checkpoint pane, and the
            // exposure totals below sum the workers' reports.
            last_checkpoint_pane: None,
            items_since_checkpoint,
            snapshot_bytes,
            degraded_panes: self.degraded_panes,
            lost_items: self.lost_items,
        }
    }

    /// Every shard's stream is over: its worker shut down cleanly, or
    /// the shard was retired after its fault windows elapsed.
    fn all_done(&self) -> bool {
        (0..self.assign.num_workers).all(|w| {
            self.workers
                .get(&w)
                .is_some_and(|p| p.done || p.status.health == WorkerHealth::Retired)
        })
    }

    /// Waits for every shard to settle — workers shutting down cleanly,
    /// or dead shards retiring once their fault windows elapse — merges
    /// the remaining panes (degraded where shards went missing), and
    /// returns the completed run. Results not drained through
    /// [`poll_windows`](DistributedSession::poll_windows) are in the
    /// output's `windows`, exactly like a local session's `finish`.
    ///
    /// # Errors
    ///
    /// [`SaError::Disconnected`] if a shard can never settle before the
    /// configured run timeout (a worker that never joined, or fault
    /// windows longer than the timeout); [`SaError::Wire`] on protocol
    /// violations that reach the merge layer.
    pub fn finish(mut self) -> Result<RunOutput, SaError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            self.drain_pending_events();
            self.check_liveness();
            self.merge_ready_panes();
            if let Some(error) = self.error.take() {
                return Err(error);
            }
            if self.all_done() {
                break;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(SaError::Disconnected("timed out waiting for workers"));
            };
            // Wake regularly even without events: retirement and pane
            // timeouts are clock-driven, not frame-driven.
            let tick = remaining.min(Duration::from_millis(20));
            match self.events.recv_timeout(tick) {
                Ok(event) => self.absorb(event),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SaError::Disconnected("coordinator service threads died"));
                }
            }
        }
        self.merge_ready_panes();
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.finalizer.finish();
        self.publish_finalized();
        let status = self.status();
        Ok(RunOutput {
            windows: std::mem::take(&mut self.ready),
            items_ingested: status.ingest.ingested,
            items_aggregated: self.aggregated,
            elapsed: self.started.elapsed(),
        })
    }
}

impl Drop for DistributedSession {
    fn drop(&mut self) {
        // Stop the accept service: mark the table closed so handshakes
        // refuse, then dial a poison-pill connection to unblock `accept`.
        lock(&self.table).closed = true;
        let _ = TcpStream::connect(self.addr);
    }
}

impl std::fmt::Debug for DistributedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedSession")
            .field("addr", &self.addr)
            .field("num_workers", &self.assign.num_workers)
            .field("joined", &self.workers.len())
            .field("windows_completed", &self.completed)
            .field("degraded_panes", &self.degraded_panes)
            .field("last_conn_error", &self.last_conn_error)
            .field("watermark", &self.barrier.watermark())
            .finish()
    }
}

fn project_sample<R>(
    sample: StratifiedSample<R>,
    proj: &(dyn Fn(&R) -> f64 + Send + Sync),
) -> StratifiedSample<f64> {
    sample
        .into_strata()
        .into_iter()
        .map(|s| StratumSample {
            stratum: s.stratum,
            items: s.items.iter().map(proj).collect(),
            population: s.population,
            capacity: s.capacity,
        })
        .collect()
}

/// Worker-side state shared with the background heartbeat thread: the
/// framed connection (one mutex serializes whole frames, so heartbeats
/// never interleave with digests) and the progress counters heartbeats
/// report.
struct WorkerShared {
    stream: Mutex<TcpStream>,
    worker: u32,
    stop: AtomicBool,
    alive: AtomicBool,
    ingested: AtomicU64,
    /// Event-time watermark in ms; `i64::MIN` before the first item.
    watermark: AtomicI64,
    lag: Arc<AtomicU64>,
    /// Pane start of the last checkpoint; `i64::MIN` before the first.
    last_checkpoint_pane: AtomicI64,
    items_at_checkpoint: AtomicU64,
    snapshot_bytes: AtomicU64,
}

const NO_TIME: i64 = i64::MIN;

impl WorkerShared {
    fn lock_stream(&self) -> MutexGuard<'_, TcpStream> {
        self.stream
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn send(&self, message: &Message) -> Result<(), SaError> {
        self.write(&mut self.lock_stream(), message)
    }

    /// Sends one heartbeat unless the engine has stopped them. `stop` is
    /// read under the stream lock, so no heartbeat follows a frame sent
    /// after `stop` was set.
    fn heartbeat(&self) -> Result<(), SaError> {
        let mut stream = self.lock_stream();
        if self.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        self.write(&mut stream, &self.heartbeat_message())
    }

    fn write(&self, stream: &mut TcpStream, message: &Message) -> Result<(), SaError> {
        let sent = write_message(stream, message);
        if sent.is_err() {
            self.alive.store(false, Ordering::Release);
        }
        sent
    }

    fn heartbeat_message(&self) -> Message {
        let ingested = self.ingested.load(Ordering::Relaxed);
        let watermark = match self.watermark.load(Ordering::Relaxed) {
            NO_TIME => None,
            t => Some(EventTime::from_millis(t)),
        };
        let last_checkpoint_pane = match self.last_checkpoint_pane.load(Ordering::Relaxed) {
            NO_TIME => None,
            p => Some(p),
        };
        Message::Heartbeat(Heartbeat {
            worker: self.worker,
            ingest: IngestCounters {
                ingested,
                dropped_late: 0,
            },
            watermark,
            lag: self.lag.load(Ordering::Relaxed),
            last_checkpoint_pane,
            items_since_checkpoint: ingested
                .saturating_sub(self.items_at_checkpoint.load(Ordering::Relaxed)),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
        })
    }
}

/// The background liveness loop: one heartbeat per interval until the
/// engine stops it (or the coordinator goes away). Sleeps in short
/// slices so engine drop is never blocked behind a full interval.
fn heartbeat_loop(shared: Arc<WorkerShared>, interval: Duration) {
    let slice = Duration::from_millis(20).min(interval);
    let mut last = Instant::now();
    loop {
        if shared.stop.load(Ordering::Acquire) || !shared.alive.load(Ordering::Acquire) {
            return;
        }
        if last.elapsed() < interval {
            thread::sleep(slice);
            continue;
        }
        last = Instant::now();
        if shared.heartbeat().is_err() {
            return;
        }
    }
}

/// The worker side of the distributed tier: a local [`Engine`] that
/// samples its shard of the stream and ships one digest per closed pane
/// to the coordinator, built by [`connect_worker`] (fresh shards) or
/// [`rejoin_worker`] (adopting a dead shard).
///
/// The engine holds worker `w`'s full-capacity shard sampler — the exact
/// sampler [`ShardSet::rearm`] hands shard `w` in the in-process sharded
/// engine — so the coordinator's canonical merge of all workers' digests
/// is bit-identical to the single-process merge of the same shards.
///
/// A background thread heartbeats at the coordinator-assigned cadence
/// for as long as the engine lives, so quiet sources never look like
/// failures. Dropping the engine (or the session wrapping it) without
/// `finish` stops the heartbeats and severs the connection — exactly a
/// crash, as the coordinator sees it.
///
/// `poll_windows` is always empty on a worker: estimation happens on the
/// coordinator. A worker that joined with `wants_results` receives the
/// finalized windows back in [`Engine::finish`]'s `RunOutput` once the
/// coordinator completes the run.
///
/// With a record codec attached
/// ([`checkpointable`](DigestEngine::checkpointable)), the engine
/// supports session checkpoints: snapshots serialize the shard sampler
/// and open pane, and every sealed checkpoint is also published to the
/// coordinator so a replacement worker can adopt this shard's state.
pub struct DigestEngine<R> {
    driver: PaneDriver,
    sink: DigestSink<R>,
    /// A second handle onto the same socket for the results drain, so a
    /// blocking read never holds the write lock against the heartbeat
    /// thread.
    reader: TcpStream,
    heartbeat: Option<JoinHandle<()>>,
    respawns: u32,
    wants_results: bool,
    codec: Option<RecordCodec<R>>,
    started: Instant,
}

/// The distributed worker's [`PaneSink`]: samples the open pane with the
/// shard's sampler and ships one digest per closed pane.
struct DigestSink<R> {
    shared: Arc<WorkerShared>,
    worker: u32,
    /// The run's directive, which decides what a digest carries.
    directive: SizingDirective,
    sampler: IntervalWorker<R>,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    watermark: Option<EventTime>,
    panes: u64,
    /// Checkpoint exposure the session reports through
    /// [`Engine::note_checkpoint`], mirrored onto every digest and
    /// heartbeat so the coordinator's [`WorkerStatus`] shows it.
    last_checkpoint_pane: Option<i64>,
    items_at_checkpoint: u64,
    snapshot_bytes: u64,
}

/// Connects to the coordinator with Nagle's algorithm off: a worker's
/// frames are small and back to back, and Nagle plus the peer's delayed
/// ACK would hold each one back for an acknowledgement.
fn dial(addr: impl ToSocketAddrs) -> Result<TcpStream, SaError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| SaError::InvalidConfig(format!("cannot reach the coordinator: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn read_assignment(stream: &mut TcpStream) -> Result<Assignment, SaError> {
    match read_message(stream)? {
        Some(Message::HelloAssign(assignment)) => Ok(assignment),
        Some(_) => Err(SaError::Wire(
            "coordinator did not answer the join with an assignment".to_string(),
        )),
        None => Err(SaError::Disconnected("coordinator hung up mid-handshake")),
    }
}

fn assemble_engine<R>(
    stream: TcpStream,
    assignment: Assignment,
    respawns: u32,
    wants_results: bool,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
) -> Result<DigestEngine<R>, SaError> {
    let reader = stream
        .try_clone()
        .map_err(|e| SaError::Wire(format!("cannot clone the coordinator socket: {e}")))?;
    // Exactly the sampler ShardSet::rearm builds for shard `worker`, so
    // the coordinator's merge sees the same per-shard state a
    // single-process sharded run would.
    let sizing = sampler_sizing(
        assignment.directive,
        assignment.expected_pane_items as usize,
        assignment.num_workers as usize,
    );
    let sampler = IntervalWorker::for_shard(
        sizing,
        assignment.seed,
        assignment.worker as usize,
        Arc::clone(&proj),
    );
    let shared = Arc::new(WorkerShared {
        stream: Mutex::new(stream),
        worker: assignment.worker,
        stop: AtomicBool::new(false),
        alive: AtomicBool::new(true),
        ingested: AtomicU64::new(0),
        watermark: AtomicI64::new(NO_TIME),
        lag: Arc::new(AtomicU64::new(0)),
        last_checkpoint_pane: AtomicI64::new(NO_TIME),
        items_at_checkpoint: AtomicU64::new(0),
        snapshot_bytes: AtomicU64::new(0),
    });
    let heartbeat = if assignment.heartbeat_interval_ms > 0 {
        let interval = Duration::from_millis(assignment.heartbeat_interval_ms);
        let hb = Arc::clone(&shared);
        Some(thread::spawn(move || heartbeat_loop(hb, interval)))
    } else {
        None
    };
    Ok(DigestEngine {
        driver: PaneDriver::new(Some(assignment.pane_interval_ms), assignment.window),
        sink: DigestSink {
            shared,
            worker: assignment.worker,
            directive: assignment.directive,
            sampler,
            proj,
            watermark: None,
            panes: 0,
            last_checkpoint_pane: None,
            items_at_checkpoint: 0,
            snapshot_bytes: 0,
        },
        reader,
        heartbeat,
        respawns,
        wants_results,
        codec: None,
        started: Instant::now(),
    })
}

/// Joins a coordinator as worker `worker`: connects, performs the
/// join/assign handshake, and builds the worker's [`DigestEngine`] from
/// the assigned run configuration (seed, directive, pane interval,
/// window, heartbeat cadence — workers need no local configuration
/// beyond the address, their id, and the projection from their record
/// type).
///
/// Wrap the engine in [`crate::ApproxSession::from_engine`] for the
/// push/poll session API; with `wants_results` the finalized windows come
/// back in the session's `finish` output. To adopt a *dead* worker's
/// shard together with its checkpointed state, use [`rejoin_worker`]
/// instead (joining a dead shard by its id here restarts it fresh).
///
/// # Errors
///
/// [`SaError::InvalidConfig`] when the coordinator is unreachable,
/// [`SaError::Wire`] / [`SaError::Disconnected`] when the handshake is
/// malformed, refused (unknown or already-owned worker id), or cut
/// short.
pub fn connect_worker<R>(
    addr: impl ToSocketAddrs,
    worker: u32,
    wants_results: bool,
    proj: impl Fn(&R) -> f64 + Send + Sync + 'static,
) -> Result<DigestEngine<R>, SaError> {
    let mut stream = dial(addr)?;
    write_message(
        &mut stream,
        &Message::HelloJoin {
            worker,
            wants_results,
        },
    )?;
    let assignment = read_assignment(&mut stream)?;
    if assignment.worker != worker {
        return Err(SaError::Wire(format!(
            "coordinator assigned id {} to worker {worker}",
            assignment.worker
        )));
    }
    assemble_engine(stream, assignment, 0, wants_results, Arc::new(proj))
}

/// Joins a coordinator as a *replacement*: volunteers for whichever
/// worker shard is currently dead, receives that shard's id, run
/// configuration and last published checkpoint, and returns the rebuilt
/// engine (already [`checkpointable`](DigestEngine::checkpointable))
/// together with the decoded [`SessionSnapshot`], if the dead worker
/// ever checkpointed.
///
/// Resume with [`crate::ApproxSession::resume_from_engine`] and replay
/// the shard's source from the snapshot's consumer offsets; without a
/// snapshot, wrap the engine in [`crate::ApproxSession::from_engine`]
/// and replay from the start of the shard's log. Either way the
/// coordinator drops digests for panes it already merged and duplicates
/// of the predecessor's deliveries, so the replay never double-counts.
///
/// A shard that died without publishing a checkpoint stops holding panes
/// back the moment its connection drops, so the coordinator goes on
/// merging them degraded while the replacement starts up: such a
/// replacement serves only the panes not yet merged when its digests
/// arrive. Only a handed-off snapshot lets a rejoin refill the dead
/// shard's panes without loss.
///
/// The coordinator holds the connection until a shard actually dies, for
/// at most its fault policy's `pane_timeout` — so a standby replacement
/// can dial in *before* any failure.
///
/// # Errors
///
/// [`SaError::InvalidConfig`] when the coordinator is unreachable;
/// [`SaError::Disconnected`] when no shard needed adopting within the
/// coordinator's patience (or the respawn budget is exhausted);
/// [`SaError::Wire`] / [`SaError::Checkpoint`] on a malformed handshake
/// or handoff snapshot.
pub fn rejoin_worker<R: WireEncode + WireDecode>(
    addr: impl ToSocketAddrs,
    wants_results: bool,
    proj: impl Fn(&R) -> f64 + Send + Sync + 'static,
) -> Result<(DigestEngine<R>, Option<SessionSnapshot>), SaError> {
    let mut stream = dial(addr)?;
    write_message(&mut stream, &Message::HelloRejoin { wants_results })?;
    let assignment = read_assignment(&mut stream)?;
    let Some(handoff) = read_message(&mut stream)? else {
        return Err(SaError::Disconnected("coordinator hung up mid-handoff"));
    };
    let Message::Reassign {
        worker,
        respawns,
        snapshot,
    } = handoff
    else {
        return Err(SaError::Wire(
            "coordinator did not follow the rejoin assignment with a handoff".to_string(),
        ));
    };
    if worker != assignment.worker {
        return Err(SaError::Wire(format!(
            "handoff names worker {worker} but the assignment named {}",
            assignment.worker
        )));
    }
    let resumed = if snapshot.is_empty() {
        None
    } else {
        Some(open_session_snapshot(&snapshot)?)
    };
    let engine = assemble_engine(stream, assignment, respawns, wants_results, Arc::new(proj))?
        .checkpointable(RecordCodec::new());
    Ok((engine, resumed))
}

impl<R> DigestEngine<R> {
    /// Attaches a record codec, enabling [`Engine::snapshot`] /
    /// [`Engine::restore`] — and with them session checkpoints, whose
    /// sealed bytes are also published to the coordinator for dead-shard
    /// handoff.
    #[must_use]
    pub fn checkpointable(mut self, codec: RecordCodec<R>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// The shard id this engine owns.
    pub fn worker(&self) -> u32 {
        self.sink.worker
    }

    /// How many times this shard had been re-adopted when this engine
    /// joined (0 for a first-generation worker).
    pub fn respawns(&self) -> u32 {
        self.respawns
    }

    /// A handle for reporting this worker's source lag (outstanding items
    /// in its replay log); the engine stamps the latest value onto every
    /// digest and heartbeat. The handle stays valid after the engine is
    /// boxed into an [`crate::ApproxSession`].
    pub fn lag_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.sink.shared.lag)
    }
}

impl<R> DigestSink<R> {
    fn check_alive(&self) -> Result<(), SaError> {
        if self.shared.alive.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(SaError::Disconnected("digest worker lost its coordinator"))
        }
    }

    /// Publishes progress through `last` to the heartbeat thread.
    fn note_progress(&mut self, last: EventTime) {
        self.watermark = Some(last);
        self.shared
            .watermark
            .store(last.as_millis(), Ordering::Relaxed);
        self.shared
            .ingested
            .store(self.sampler.counters().0, Ordering::Relaxed);
    }
}

impl<R> PaneSink<R> for DigestSink<R> {
    #[inline]
    fn observe(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.check_alive()?;
        self.sampler.observe(item.stratum, item.value);
        self.note_progress(item.time);
        Ok(())
    }

    /// The liveness check and the heartbeat counters are paid once per
    /// run, not per item.
    fn observe_run(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        self.check_alive()?;
        if let Some(last) = items.last().map(|item| item.time) {
            self.sampler.observe_chunk(items);
            self.note_progress(last);
        }
        Ok(())
    }

    /// Ships the pane's statistics where the coordinator's merge takes
    /// them ([`merges_stats`]), its projected sample where the merge draws.
    fn close_pane(&mut self, pane: Window) -> Result<(), SaError> {
        self.check_alive()?;
        let payload = if merges_stats(self.directive) {
            DigestPayload::Stats(self.sampler.close_interval())
        } else {
            match self.sampler.close_interval_parts() {
                WorkerPane::Sampled(sample) => {
                    DigestPayload::Sampled(project_sample(sample, self.proj.as_ref()))
                }
                WorkerPane::Stats(stats) => DigestPayload::Stats(stats),
            }
        };
        let (ingested, _) = self.sampler.counters();
        self.panes += 1;
        let digest = Digest {
            worker: self.worker,
            pane,
            counters: IngestCounters {
                ingested,
                dropped_late: 0,
            },
            watermark: self.watermark,
            lag: self.shared.lag.load(Ordering::Relaxed),
            last_checkpoint_pane: self.last_checkpoint_pane,
            items_since_checkpoint: ingested.saturating_sub(self.items_at_checkpoint),
            snapshot_bytes: self.snapshot_bytes,
            payload,
        };
        self.shared.send(&Message::PaneDigest(digest))
    }
}

impl<R> Engine<R> for DigestEngine<R> {
    fn push(&mut self, item: StreamItem<R>) -> Result<(), SaError> {
        self.driver.push(item, &mut self.sink)
    }

    fn push_chunk(&mut self, items: Vec<StreamItem<R>>) -> Result<(), SaError> {
        self.driver.push_chunk(items, &mut self.sink)
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        Vec::new()
    }

    fn panes_closed(&self) -> u64 {
        self.sink.panes
    }

    fn note_checkpoint(&mut self, pane: Option<i64>, snapshot_bytes: u64) {
        let sink = &mut self.sink;
        let (ingested, _) = sink.sampler.counters();
        sink.last_checkpoint_pane = pane;
        sink.items_at_checkpoint = ingested;
        sink.snapshot_bytes = snapshot_bytes;
        sink.shared
            .last_checkpoint_pane
            .store(pane.unwrap_or(NO_TIME), Ordering::Relaxed);
        sink.shared
            .items_at_checkpoint
            .store(ingested, Ordering::Relaxed);
        sink.shared
            .snapshot_bytes
            .store(snapshot_bytes, Ordering::Relaxed);
    }

    fn publish_checkpoint(&mut self, sealed: &[u8]) {
        if self.sink.check_alive().is_err() {
            return;
        }
        // Best-effort by contract: a slice too large for one frame, or a
        // coordinator mid-failure, costs only handoff freshness — the
        // checkpoint itself already succeeded locally.
        let _ = self.sink.shared.send(&Message::SnapshotSlice {
            worker: self.sink.worker,
            pane: self.sink.last_checkpoint_pane,
            sealed: sealed.to_vec(),
        });
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        let codec = require_codec(self.codec)?;
        let mut state = Vec::new();
        self.driver.start().encode(&mut state);
        self.sink.watermark.encode(&mut state);
        sa_types::wire::put_varint(&mut state, self.sink.panes);
        self.sink.sampler.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "digest".into(),
            pane: self.driver.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = require_codec(self.codec)?;
        require_engine(snapshot, "digest")?;
        let mut r = WireReader::new(&snapshot.state);
        let start = Option::<i64>::decode(&mut r)?;
        let watermark = Option::<EventTime>::decode(&mut r)?;
        let panes = r.read_varint()?;
        let sampler = IntervalWorker::decode_state(&mut r, codec, Arc::clone(&self.sink.proj))?;
        r.finish()?;
        self.driver.restore_start(start)?;
        self.sink.watermark = watermark;
        self.sink.panes = panes;
        let (ingested, _) = sampler.counters();
        self.sink.sampler = sampler;
        self.sink.shared.ingested.store(ingested, Ordering::Relaxed);
        self.sink.shared.watermark.store(
            watermark.map_or(NO_TIME, |t| t.as_millis()),
            Ordering::Relaxed,
        );
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunOutput {
        let mut this = *self;
        let mut windows = Vec::new();
        if this.sink.check_alive().is_ok() {
            let flushed = this.driver.finish(&mut this.sink).is_ok();
            // The coordinator stops reading at `Shutdown`, and closing a
            // socket with unread input resets it, discarding the windows
            // not yet drained here: no heartbeat may follow the goodbye.
            this.sink.shared.stop.store(true, Ordering::Release);
            let goodbye = flushed
                && this
                    .sink
                    .shared
                    .send(&Message::Shutdown {
                        worker: this.sink.worker,
                    })
                    .is_ok();
            if goodbye && this.wants_results {
                // The coordinator streams results as windows finalize and
                // closes the connection once the run is over; bound the
                // drain so a stuck coordinator cannot hang the worker.
                let _ = this.reader.set_read_timeout(Some(Duration::from_secs(30)));
                while let Ok(Some(msg)) = read_message(&mut this.reader) {
                    if let Message::WindowResult(result) = msg {
                        windows.push(result);
                    }
                }
            }
        }
        let (ingested, sampled) = this.sink.sampler.counters();
        RunOutput {
            windows,
            items_ingested: ingested,
            items_aggregated: sampled,
            elapsed: this.started.elapsed(),
        }
        // Dropping `this` stops the heartbeat thread and severs the
        // socket.
    }
}

impl<R> Drop for DigestEngine<R> {
    fn drop(&mut self) {
        self.sink.shared.stop.store(true, Ordering::Release);
        // Severing the socket first also unblocks a heartbeat write
        // wedged against a stalled coordinator. After a clean finish this
        // is a no-op close; without one, the coordinator sees exactly a
        // crash.
        let _ = self.reader.shutdown(Shutdown::Both);
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
    }
}

impl<R> std::fmt::Debug for DigestEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestEngine")
            .field("worker", &self.sink.worker)
            .field("respawns", &self.respawns)
            .field("wants_results", &self.wants_results)
            .field("watermark", &self.sink.watermark)
            .field("alive", &self.sink.check_alive().is_ok())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostPolicy, FixedFraction, FixedPerStratum};
    use crate::query::Query;
    use crate::session::StreamApprox;
    use sa_types::StratumId;

    fn query() -> Query<f64> {
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000))
    }

    #[test]
    fn zero_workers_rejected() {
        let mut policy = FixedPerStratum(8);
        let err = StreamApprox::new(query(), &mut policy)
            .distributed(DistributedConfig::new(0))
            .unwrap_err();
        assert!(matches!(err, SaError::InvalidConfig(_)));
    }

    #[test]
    fn invalid_directives_rejected_at_start() {
        struct Fixed(SizingDirective);
        impl CostPolicy for Fixed {
            fn interval_sizing(&mut self) -> SizingDirective {
                self.0
            }
        }
        let policies: [Box<dyn CostPolicy>; 3] = [
            Box::new(FixedPerStratum(0)),
            Box::new(Fixed(SizingDirective::SharedTotal(0))),
            Box::new(FixedFraction(f64::NAN)),
        ];
        for policy in policies {
            let err = StreamApprox::new(query(), policy)
                .distributed(DistributedConfig::new(1))
                .unwrap_err();
            assert!(matches!(err, SaError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn degenerate_fault_policy_rejected() {
        let mut policy = FixedPerStratum(8);
        let err = StreamApprox::new(query(), &mut policy)
            .distributed(
                DistributedConfig::new(1)
                    .with_fault_policy(FaultPolicy::default().with_miss_budget(0)),
            )
            .unwrap_err();
        assert!(matches!(err, SaError::InvalidConfig(_)));
    }

    #[test]
    fn unreachable_coordinator_is_a_typed_error() {
        // Port 1 on loopback is essentially never listening.
        let err = connect_worker("127.0.0.1:1", 0, false, |v: &f64| *v).unwrap_err();
        assert!(matches!(err, SaError::InvalidConfig(_)));
    }

    #[test]
    fn loopback_single_worker_round_trip() {
        let mut policy = FixedPerStratum(16);
        let coordinator = StreamApprox::new(query(), &mut policy)
            .distributed(
                DistributedConfig::new(1)
                    .with_seed(RunSeed::new(11))
                    .with_timeout(Duration::from_secs(10)),
            )
            .expect("bind loopback");
        let addr = coordinator.addr();
        let handle = thread::spawn(move || {
            let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("join");
            let mut session = crate::session::ApproxSession::from_engine(Box::new(engine));
            for i in 0..3_000i64 {
                let item = StreamItem::new(
                    StratumId((i % 2) as u32),
                    EventTime::from_millis(i),
                    f64::from(i as u32 % 10),
                );
                session.push(item).expect("in order");
            }
            session.finish()
        });
        let worker_out = handle.join().expect("worker thread");
        let out = coordinator.finish().expect("clean run");
        assert_eq!(out.items_ingested, 3_000);
        assert_eq!(worker_out.items_ingested, 3_000);
        assert_eq!(out.windows.len(), 3);
        for w in &out.windows {
            let (lo, hi) = w.mean.interval();
            assert!(lo <= w.mean.value && w.mean.value <= hi);
            assert!(!w.degraded, "a healthy run never degrades");
            assert_eq!(w.lost_items, 0);
        }
    }

    /// Digests and results are small frames sent back to back: with
    /// Nagle's algorithm on either end, the peer's delayed ACK holds each
    /// one back, and answers wait milliseconds instead of microseconds.
    #[test]
    fn both_ends_of_a_worker_connection_disable_nagle() {
        let mut policy = FixedPerStratum(8);
        let mut coordinator = StreamApprox::new(query(), &mut policy)
            .distributed(DistributedConfig::new(1).with_timeout(Duration::from_secs(10)))
            .expect("bind loopback");
        let engine = connect_worker(coordinator.addr(), 0, true, |v: &f64| *v).expect("join");
        let dialed = engine.sink.shared.lock_stream().nodelay();
        assert!(dialed.expect("socket option"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !coordinator.workers.contains_key(&0) {
            let _ = coordinator.poll_windows().expect("no failure");
            assert!(Instant::now() < deadline, "the worker never joined");
            thread::sleep(Duration::from_millis(5));
        }
        // A results subscriber's stream is the coordinator's clone of the
        // socket it accepted.
        let accepted = coordinator.workers[&0]
            .results
            .as_ref()
            .map(TcpStream::nodelay);
        assert!(accepted.expect("a subscriber").expect("socket option"));
        let worker = thread::spawn(move || {
            crate::session::ApproxSession::from_engine(Box::new(engine)).finish()
        });
        coordinator.finish().expect("clean run");
        let _ = worker.join().expect("worker thread");
    }

    #[test]
    fn status_reports_per_worker_progress_and_health() {
        let mut policy = FixedPerStratum(8);
        let mut coordinator = StreamApprox::new(query(), &mut policy)
            .distributed(DistributedConfig::new(1).with_timeout(Duration::from_secs(10)))
            .expect("bind loopback");
        let addr = coordinator.addr();
        let handle = thread::spawn(move || {
            let engine = connect_worker(addr, 0, false, |v: &f64| *v).expect("join");
            let lag = engine.lag_handle();
            lag.store(42, Ordering::Relaxed);
            let mut session = crate::session::ApproxSession::from_engine(Box::new(engine));
            for i in 0..2_500i64 {
                session
                    .push(StreamItem::new(
                        StratumId(0),
                        EventTime::from_millis(i),
                        1.0,
                    ))
                    .expect("in order");
            }
            session.finish()
        });
        let _ = handle.join().expect("worker thread");
        // Drain events so the status below sees the worker's digests.
        let _ = coordinator.poll_windows().expect("no failure");
        let status = coordinator.status();
        assert_eq!(status.workers.len(), 1);
        assert_eq!(status.workers[0].worker, 0);
        assert_eq!(status.workers[0].lag, 42);
        assert_eq!(status.workers[0].respawns, 0);
        assert!(status.workers[0].ingest.ingested > 0);
        assert_eq!(status.degraded_panes, 0);
        assert_eq!(status.lost_items, 0);
        let out = coordinator.finish().expect("clean run");
        assert_eq!(out.items_ingested, 2_500);
    }
}
