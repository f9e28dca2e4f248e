//! The closed-loop driver for local sessions: replay the base stream
//! through `push_batch` in 4,096-item chunks, poll after every push, and
//! score every window the moment it comes out.
//!
//! Only the session surface is used here (`StreamApprox` builder,
//! `ApproxSession::{push_batch, poll_windows, finish}`); anything deeper
//! belongs in `layers.rs`.

use crate::score::Scorer;
use crate::spans::Tracer;
use crate::spec::{Drive, Workload, CHUNK_ITEMS};
use crate::stream::{shifted, Reference};
use sa_types::{Confidence, StreamItem, WindowSpec};
use std::time::Instant;
use streamapprox::{
    AggregatedConfig, ApproxSession, CostPolicy, FixedFraction, Query, ShardedConfig, StreamApprox,
    WindowResult,
};

/// A builder for the query every workload runs — the windowed mean of an
/// `f64` at 95% confidence under `FixedFraction`; the caller picks the
/// engine.
pub fn builder(window_ms: (i64, i64), fraction: f64) -> StreamApprox<'static, f64> {
    let query = Query::new(|v: &f64| *v)
        .with_window(WindowSpec::sliding_millis(window_ms.0, window_ms.1))
        .with_confidence(Confidence::P95);
    let policy: Box<dyn CostPolicy> = Box::new(FixedFraction(fraction));
    StreamApprox::new(query, policy)
}

/// Starts the local session a closed-loop workload runs on.
///
/// # Panics
///
/// Panics for the distributed workloads, which have no local session.
pub fn start_session(workload: &Workload, engine_seed: u64) -> ApproxSession<'static, f64> {
    let builder = builder(workload.window_ms, workload.fraction);
    match workload.drive {
        Drive::Aggregated => builder
            .aggregated(AggregatedConfig::new().with_seed(engine_seed))
            .start(),
        Drive::Sharded => builder
            .sharded(ShardedConfig::new(1).with_seed(engine_seed))
            .start(),
        Drive::DistPaced | Drive::DistKill => {
            panic!("{} does not run on a local session", workload.name)
        }
    }
}

/// The base stream plus what replaying it needs.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// The base stream, in event-time order.
    pub items: &'a [StreamItem<f64>],
    /// Its event-time span; pass `p` is shifted by `p × span_ms`.
    pub span_ms: i64,
    /// Its exact per-pane reference.
    pub reference: &'a Reference,
}

/// When a rep stops replaying. Reps always end on a pass boundary, so the
/// exact reference of the final windows is well defined.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many passes over the base stream.
    Passes(u64),
    /// After the first pass that ends at or past this many seconds.
    Seconds(f64),
}

/// What one rep did, beyond what it fed the [`Scorer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Items handed to `push_batch`.
    pub items_offered: u64,
    /// `items_ingested` as `finish` reports it.
    pub items_ingested: u64,
    /// `push_batch` calls.
    pub pushes: u64,
    /// Pushes that returned `Err` or dropped items.
    pub failed_pushes: u64,
    /// Wall time from the first push to `finish` returning, seconds.
    pub wall_s: f64,
    /// Passes replayed.
    pub passes: u64,
}

/// Where a rep's observations go.
pub struct Sinks<'a> {
    /// Sequence checks and accuracy.
    pub scorer: &'a mut Scorer,
    /// One emission latency per window, ms: from the push that offered
    /// the first item at or past the window's end (the item that lets the
    /// watermark close it) to the poll that returned the window.
    pub latencies_ms: &'a mut Vec<f64>,
    /// Every window, when bit-identity is to be checked.
    pub keep: Option<&'a mut Vec<WindowResult>>,
    /// Spans around the session calls, on traced runs.
    pub trace: Tracer<'a>,
}

/// Drives one rep: a fresh `session`, the base stream replayed until
/// `stop`, every window scored as it is polled, then `finish`.
pub fn run_rep(
    mut session: ApproxSession<'static, f64>,
    replay: &Replay<'_>,
    stop: Stop,
    sinks: &mut Sinks<'_>,
) -> Rep {
    let reference = replay.reference;
    let mut rep = Rep::default();
    sinks.scorer.begin_rep();
    // due[k]: when window k's closing item was offered.
    let mut due: Vec<Instant> = Vec::new();
    let rep_span = sinks.trace.open("rep", None);
    let started = Instant::now();
    loop {
        let shift = rep.passes as i64 * replay.span_ms;
        for chunk in replay.items.chunks(CHUNK_ITEMS) {
            let last_ts = chunk[chunk.len() - 1].time.as_millis() + shift;
            let pushed_at = Instant::now();
            while reference.window_end_ms(due.len() as u64) <= last_ts {
                due.push(pushed_at);
            }
            let span = sinks.trace.open("session.push_batch", rep_span);
            let pushed = session.push_batch(chunk.iter().map(|item| shifted(item, shift)));
            sinks.trace.close(span);
            rep.pushes += 1;
            rep.items_offered += chunk.len() as u64;
            if !matches!(pushed, Ok(delta) if delta.ingested == chunk.len() as u64) {
                rep.failed_pushes += 1;
            }
            let span = sinks.trace.open("session.poll_windows", rep_span);
            let windows = session.poll_windows();
            sinks.trace.close(span);
            if !windows.is_empty() {
                emit(reference, windows, Instant::now(), &due, u64::MAX, sinks);
            }
        }
        rep.passes += 1;
        let done = match stop {
            Stop::Passes(n) => rep.passes >= n,
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    let total_panes = rep.passes * reference.panes_per_pass();
    let span = sinks.trace.open("session.finish", rep_span);
    let finishing = Instant::now();
    let out = session.finish();
    let finished = Instant::now();
    sinks.trace.close(span);
    sinks.trace.close(rep_span);
    rep.wall_s = finished.duration_since(started).as_secs_f64();
    rep.items_ingested = out.items_ingested;
    due.resize(total_panes as usize, finishing);
    emit(reference, out.windows, finished, &due, total_panes, sinks);
    sinks.scorer.expect_total(total_panes);
    rep
}

/// Scores `windows`, returned by a poll (or `finish`) at `at`, and records
/// their emission latencies against `due`.
fn emit(
    reference: &Reference,
    windows: Vec<WindowResult>,
    at: Instant,
    due: &[Instant],
    total_panes: u64,
    sinks: &mut Sinks<'_>,
) {
    for w in windows {
        if let Some(k) = sinks.scorer.admit(&w) {
            sinks.scorer.score(&w, reference.exact_mean(k, total_panes));
            let since = due.get(k as usize).copied().unwrap_or(at);
            sinks
                .latencies_ms
                .push(at.duration_since(since).as_secs_f64() * 1e3);
        }
        if let Some(keep) = sinks.keep.as_mut() {
            keep.push(w);
        }
    }
}
