//! The drivers for the distributed tier over loopback TCP: a coordinator
//! polled from the calling thread, one thread per worker.
//!
//! Only the session surface is used here (`StreamApprox::distributed`,
//! `DistributedSession`, `connect_worker`, `ApproxSession`,
//! `FaultPolicy`); anything deeper belongs in `layers.rs`.

use crate::local::{builder, Rep, Replay, Sinks};
use crate::spans::{SpanLog, Tracer};
use crate::spec::CHUNK_ITEMS;
use crate::stream::shifted;
use sa_types::FaultPolicy;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use streamapprox::{
    connect_worker, ApproxSession, DistributedConfig, DistributedSession, WindowResult,
};

/// How often the coordinator thread polls for windows.
pub const POLL_EVERY: Duration = Duration::from_micros(200);

/// What every distributed run fixes up front.
#[derive(Debug, Clone, Copy)]
pub struct DistSetup {
    /// Worker count K.
    pub workers: u32,
    /// Window size and slide, ms.
    pub window_ms: (i64, i64),
    /// `FixedFraction` budget.
    pub fraction: f64,
    /// Run seed.
    pub seed: u64,
    /// Failure detection and recovery clocks.
    pub fault: FaultPolicy,
    /// Expected items per pane across all workers (reservoir pre-sizing).
    pub expected_pane_items: usize,
}

/// The fault clocks of `dist-kill-f20`: heartbeat 30 ms, miss budget 4,
/// pane timeout 250 ms, backoff 200 ms.
pub fn kill_fault_policy() -> FaultPolicy {
    FaultPolicy::default()
        .with_heartbeat_interval(Duration::from_millis(30))
        .with_miss_budget(4)
        .with_pane_timeout(Duration::from_millis(250))
        .with_backoff(Duration::from_millis(200))
}

/// Binds a loopback coordinator.
pub fn start_coordinator(setup: &DistSetup) -> DistributedSession {
    builder(setup.window_ms, setup.fraction)
        .distributed(
            DistributedConfig::new(setup.workers)
                .with_seed(setup.seed.into())
                .with_expected_pane_items(setup.expected_pane_items)
                .with_timeout(Duration::from_secs(60))
                .with_fault_policy(setup.fault),
        )
        .expect("bind a loopback coordinator")
}

/// Joins the coordinator at `addr` as worker `id` and wraps the engine in
/// the ordinary session API.
pub fn join_worker(addr: SocketAddr, id: u32) -> ApproxSession<'static, f64> {
    let engine = connect_worker(addr, id, false, |v: &f64| *v).expect("worker joins");
    ApproxSession::from_engine(Box::new(engine))
}

/// What the coordinator thread gathered.
struct Collected {
    windows: Vec<(WindowResult, Instant)>,
    items_ingested: u64,
    session_failed: bool,
    finish_called: Instant,
    finished: Instant,
}

/// Polls `coordinator` every [`POLL_EVERY`] until `workers_done`, then
/// finishes it. `observe` sees the session after every poll — the traced
/// run reads worker health through it.
fn collect(
    mut coordinator: DistributedSession,
    workers_done: &dyn Fn() -> bool,
    observe: &mut dyn FnMut(&DistributedSession, Instant),
    trace: &mut Tracer<'_>,
) -> Collected {
    let mut windows = Vec::new();
    let mut session_failed = false;
    loop {
        // Read the flag first: the poll after the last worker finished
        // still runs before the loop ends.
        let done = workers_done();
        let span = trace.open("net.coordinator_poll", None);
        let polled = coordinator.poll_windows();
        trace.close(span);
        let now = Instant::now();
        match polled {
            Ok(ws) => windows.extend(ws.into_iter().map(|w| (w, now))),
            Err(_) => {
                session_failed = true;
                break;
            }
        }
        observe(&coordinator, now);
        if done {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    let finish_called = Instant::now();
    let span = trace.open("net.coordinator_finish", None);
    let out = coordinator.finish();
    trace.close(span);
    let finished = Instant::now();
    let items_ingested = match out {
        Ok(out) => {
            windows.extend(out.windows.into_iter().map(|w| (w, finished)));
            out.items_ingested
        }
        Err(_) => {
            session_failed = true;
            0
        }
    };
    Collected {
        windows,
        items_ingested,
        session_failed,
        finish_called,
        finished,
    }
}

/// What a worker thread brings home.
#[derive(Default)]
struct WorkerReport {
    offered: u64,
    pushes: u64,
    failed_pushes: u64,
    first_push: Option<Instant>,
    done: Option<Instant>,
    /// due[k]: when this worker offered window k's closing item.
    due: Vec<Instant>,
    /// Paced runs: how late each measured chunk was sent, ms.
    chunk_lags_ms: Vec<f64>,
    /// Paced runs: worst chunk lag per pane, ms.
    pane_lag_ms: Vec<f64>,
    spans: Option<SpanLog>,
}

/// The open-loop schedule of a paced run.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Items due per millisecond of wall clock, dealt over all workers.
    pub items_per_ms: u64,
    /// Leading event time whose windows are sequence-checked only.
    pub warmup_ms: i64,
}

/// One distributed run over K workers: the base stream replayed `passes`
/// times, items dealt round-robin so every worker sees every pane.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPlan<'a> {
    /// Coordinator and worker configuration.
    pub setup: DistSetup,
    /// The base stream and its reference.
    pub replay: Replay<'a>,
    /// Passes over the base stream.
    pub passes: u64,
    /// When set, the last worker drops its session — no flush, no
    /// goodbye — after this share of its items, and never returns.
    pub kill_after: Option<f64>,
    /// `None` is a closed loop: each worker pushes its next chunk as soon
    /// as the previous push returns. `Some` is an open loop: chunk `c` is
    /// sent when the wall clock reaches its first item's place in the
    /// schedule, however the system is doing.
    pub pace: Option<Pace>,
}

/// What a distributed run did, beyond what it fed the sinks.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// Counters and wall time; `wall_s` runs from the first push on any
    /// worker to `coordinator.finish()` returning.
    pub rep: Rep,
    /// A push, poll or finish returned a session error.
    pub session_failed: bool,
    /// Duration of the `finish()` call itself, seconds.
    pub coordinator_finish_s: f64,
    /// From the last live worker finishing to `finish()` returning.
    pub finish_wait_s: f64,
    /// When the killed worker dropped its session.
    pub victim_dropped: Option<Instant>,
    /// When `coordinator.finish()` returned.
    pub finished: Instant,
    /// Paced runs: how late each chunk past the warm-up was sent, ms.
    pub chunk_lags_ms: Vec<f64>,
    /// Paced runs: measured windows one of whose chunks the generator
    /// sent more than a window length behind the schedule. That is the
    /// host stalling the generator thread, not the system under test
    /// failing an operation, so late windows are reported
    /// (`harness.late_windows`) and never counted as `failed`: a shared
    /// host stalls a thread for 20-60 ms in about one run in ten and for
    /// over 200 ms now and then, and a failure count that depends on that
    /// differs between two runs of the same code. The stall is not hidden
    /// either: it is in the latency, which is counted from the schedule,
    /// and in `harness.generator_lag_p90_ms`.
    pub late_windows: u64,
}

/// Waits until `scheduled` and returns how late the wake-up was, ms.
/// Sleeps most of the wait and spins the last stretch: sleep alone
/// overshoots by more than a 0.5 ms chunk period tolerates.
fn wait_until(scheduled: Instant) -> f64 {
    loop {
        let wait = scheduled.saturating_duration_since(Instant::now());
        if wait > Duration::from_micros(150) {
            std::thread::sleep(wait - Duration::from_micros(100));
        } else if wait.is_zero() {
            return scheduled.elapsed().as_secs_f64() * 1e3;
        } else {
            std::hint::spin_loop();
        }
    }
}

fn replay_worker(
    mut session: ApproxSession<'static, f64>,
    id: usize,
    plan: &ReplayPlan<'_>,
    schedule_origin: Instant,
    mut trace: Tracer<'_>,
) -> WorkerReport {
    let k = plan.setup.workers as usize;
    let replay = &plan.replay;
    let slide = replay.reference.slide_ms();
    let victim = plan.kill_after.filter(|_| id == k - 1);
    let share = |n: usize| (n + k - 1 - id) / k;
    let stop_after =
        victim.map(|p| (share(replay.items.len()) as f64 * plan.passes as f64 * p) as u64);
    let mut report = WorkerReport::default();
    if plan.pace.is_some() {
        let panes = plan.passes * replay.reference.panes_per_pass();
        report.pane_lag_ms = vec![0.0; panes as usize];
    }
    let worker_span = trace.open("net.worker", None);
    'passes: for pass in 0..plan.passes {
        let shift = pass as i64 * replay.span_ms;
        for (c, dealt) in replay.items.chunks(CHUNK_ITEMS * k).enumerate() {
            if stop_after.is_some_and(|limit| report.offered >= limit) {
                break 'passes;
            }
            let mine = share(dealt.len());
            if mine == 0 {
                continue;
            }
            if let Some(pace) = plan.pace {
                // A chunk can go out once its *last* item exists: sending
                // at the first item's place would deliver the rest early
                // and close windows before their time.
                let through =
                    pass * replay.items.len() as u64 + (c * CHUNK_ITEMS * k + dealt.len()) as u64;
                let lag_ms = wait_until(
                    schedule_origin + Duration::from_nanos(through * 1_000_000 / pace.items_per_ms),
                );
                let first_ts = dealt[0].time.as_millis() + shift;
                let pane = &mut report.pane_lag_ms[(first_ts / slide) as usize];
                *pane = pane.max(lag_ms);
                if first_ts >= pace.warmup_ms {
                    report.chunk_lags_ms.push(lag_ms);
                }
            }
            let last_ts = dealt[id + (mine - 1) * k].time.as_millis() + shift;
            let pushed_at = Instant::now();
            report.first_push.get_or_insert(pushed_at);
            while replay.reference.window_end_ms(report.due.len() as u64) <= last_ts {
                report.due.push(pushed_at);
            }
            let span = trace.open("net.worker_push", worker_span);
            let pushed = session.push_batch(
                dealt
                    .iter()
                    .skip(id)
                    .step_by(k)
                    .map(|item| shifted(item, shift)),
            );
            trace.close(span);
            report.pushes += 1;
            report.offered += mine as u64;
            if !matches!(pushed, Ok(delta) if delta.ingested == mine as u64) {
                report.failed_pushes += 1;
            }
        }
    }
    if victim.is_some() {
        // The crash: no flush, no goodbye. Stamped before the drop, which
        // the coordinator can notice before it even returns.
        report.done = Some(Instant::now());
        drop(session);
    } else {
        let span = trace.open("net.worker_finish", worker_span);
        let _ = session.finish();
        trace.close(span);
    }
    trace.close(worker_span);
    report.done.get_or_insert_with(Instant::now);
    report
}

/// Runs one distributed replay: starts the coordinator, joins K worker
/// threads, polls while they push, finishes, and scores every window.
///
/// Emission latency of a closed-loop run is counted from worker 0 — the
/// survivor on kill runs — offering a window's closing item; of a paced
/// run, from the moment the window's last item was due to be sent (the
/// schedule origin plus the window's end). Either way it ends at the poll
/// that returned the window.
pub fn run_replay(
    plan: &ReplayPlan<'_>,
    sinks: &mut Sinks<'_>,
    observe: &mut dyn FnMut(&DistributedSession, Instant),
    span_log: Option<(&mut SpanLog, u32)>,
) -> DistRun {
    let coordinator = start_coordinator(&plan.setup);
    let addr = coordinator.addr();
    let log_origin = span_log.as_ref().map(|(log, _)| log.origin());
    let rep_id = span_log.as_ref().map_or(0, |(_, rep)| *rep);
    // The start line: sessions are not `Send`, so every worker joins from
    // its own thread and then waits here — no run starts its clock around
    // a worker that is still shaking hands, and a paced schedule begins
    // with its workers already waiting.
    let schedule_origin = Instant::now() + Duration::from_millis(20);
    let (collected, mut reports, coordinator_log) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.setup.workers)
            .map(|id| {
                scope.spawn(move || {
                    let session = join_worker(addr, id);
                    wait_until(schedule_origin);
                    let id = id as usize;
                    let mut log = log_origin.map(SpanLog::new);
                    let trace = Tracer::new(log.as_mut(), rep_id);
                    let mut report = replay_worker(session, id, plan, schedule_origin, trace);
                    report.spans = log;
                    report
                })
            })
            .collect();
        let workers_done = || handles.iter().all(|h| h.is_finished());
        let mut log = log_origin.map(SpanLog::new);
        let mut trace = Tracer::new(log.as_mut(), rep_id);
        let collected = collect(coordinator, &workers_done, observe, &mut trace);
        let reports: Vec<WorkerReport> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (collected, reports, log)
    });
    if let Some((log, _)) = span_log {
        let worker_logs = reports.iter_mut().filter_map(|r| r.spans.take());
        for spans in coordinator_log.into_iter().chain(worker_logs) {
            log.absorb(spans);
        }
    }

    let reference = plan.replay.reference;
    let total_panes = plan.passes * reference.panes_per_pass();
    let warmup_ms = plan.pace.map_or(0, |pace| pace.warmup_ms);
    let mut due = std::mem::take(&mut reports[0].due);
    due.resize(total_panes as usize, collected.finish_called);
    let mut late_windows = 0;
    sinks.scorer.begin_rep();
    for (w, at) in &collected.windows {
        if let Some(keep) = sinks.keep.as_mut() {
            keep.push(w.clone());
        }
        let Some(k) = sinks.scorer.admit(w) else {
            continue;
        };
        if w.window.start.as_millis() < warmup_ms {
            continue;
        }
        sinks.scorer.score(w, reference.exact_mean(k, total_panes));
        let since = match plan.pace {
            Some(_) => schedule_origin + Duration::from_millis(w.window.end.as_millis() as u64),
            None => due[k as usize],
        };
        // A poll can only return a window after its closing item was
        // offered; saturate anyway so a clock oddity cannot panic.
        let latency = at.saturating_duration_since(since);
        sinks.latencies_ms.push(latency.as_secs_f64() * 1e3);
        let lag = reports[0].pane_lag_ms.get(k as usize).copied();
        if lag.is_some_and(|lag| lag > reference.size_ms() as f64) {
            late_windows += 1;
        }
    }
    sinks.scorer.expect_total(total_panes);

    let first_push = reports.iter().filter_map(|r| r.first_push).min();
    let victim = plan.kill_after.map(|_| reports.len() - 1);
    let last_live_done = reports
        .iter()
        .enumerate()
        .filter(|(id, _)| Some(*id) != victim)
        .filter_map(|(_, r)| r.done)
        .max()
        .unwrap_or(collected.finish_called);
    DistRun {
        rep: Rep {
            items_offered: reports.iter().map(|r| r.offered).sum(),
            items_ingested: collected.items_ingested,
            pushes: reports.iter().map(|r| r.pushes).sum(),
            failed_pushes: reports.iter().map(|r| r.failed_pushes).sum(),
            wall_s: first_push.map_or(0.0, |t| collected.finished.duration_since(t).as_secs_f64()),
            passes: plan.passes,
        },
        session_failed: collected.session_failed,
        coordinator_finish_s: collected
            .finished
            .duration_since(collected.finish_called)
            .as_secs_f64(),
        finish_wait_s: collected
            .finished
            .saturating_duration_since(last_live_done)
            .as_secs_f64(),
        victim_dropped: victim.and_then(|id| reports[id].done),
        finished: collected.finished,
        chunk_lags_ms: std::mem::take(&mut reports[0].chunk_lags_ms),
        late_windows,
    }
}
