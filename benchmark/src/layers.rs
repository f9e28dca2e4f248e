//! The layer ladder: every call below the session surface, in one file.
//!
//! Each row drives one nesting level single-threaded over the workload's
//! own stream, budget and windows, timed from here around the layer's
//! public functions, and reports `ns_per_item` (plus the delta to the row
//! below where `BENCHMARK.json` names one):
//!
//! ```text
//! Reservoir::observe_run → OasrsSampler::observe_batch → IntervalWorker
//!   → WindowFinalizer / estimators → ApproxSession on the aggregated
//!   engine → sharded N=1 → distributed K=1 over loopback TCP
//! ```
//!
//! Only the `sa-benchmark-traced` bin compiles this file, so a refactor
//! that renames anything in here breaks the traced run and nothing else.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_aggregator::{Consumer, Partitioner, Producer, Topic};
use sa_batched::Cluster;
use sa_benchmark::cli::RunArgs;
use sa_benchmark::dist::{kill_fault_policy, run_replay, DistRun, ReplayPlan};
use sa_benchmark::local::{builder, run_rep, Rep, Sinks, Stop};
use sa_benchmark::report::{results_dir, Metric, Outcome};
use sa_benchmark::run::{run_end_to_end, Prepared};
use sa_benchmark::score::Scorer;
use sa_benchmark::spans::{SpanLog, Tracer};
use sa_benchmark::spec::CHUNK_ITEMS;
use sa_benchmark::stream::shifted;
use sa_estimate::{
    estimate_mean, estimate_mean_by_stratum, estimate_sum, estimate_sum_by_stratum, StratumStats,
};
use sa_net::frame::{read_message, write_message};
use sa_net::{Digest, DigestPayload, Message};
use sa_sampling::{OasrsSampler, Reservoir, SizingPolicy};
use sa_types::{
    Confidence, EventTime, FaultPolicy, IngestCounters, RunSeed, StratumId, StreamItem, Window,
    WindowSpec, WorkerHealth,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamapprox::{
    sampler_sizing, seal_session_snapshot, AggregatedConfig, ApproxSession, BatchedConfig,
    DistributedSession, IntervalWorker, PanePayload, PipelinedConfig, ShardSet, ShardedConfig,
    SizingDirective, WindowFinalizer, WorkerPane,
};

/// Share of `--seconds` each of the two end-to-end runs (untraced, then
/// traced) gets; the ladder rows split the rest.
const END_TO_END_SHARE: f64 = 0.2;
/// The ladder's share of `--seconds` is cut into this many slices: one
/// for each of the six rows that repeat passes until their slice is used
/// (reservoir, oasrs, runtime, aggregated, sharded, net), and two for the
/// rows that run a fixed single pass.
const ROW_SLICES: f64 = 8.0;

fn identity() -> Arc<dyn Fn(&f64) -> f64 + Send + Sync> {
    Arc::new(|v: &f64| *v)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// What [`Ladder::walk`] hands its caller.
enum Step<'b> {
    /// The next portion of the open pane.
    Chunk(&'b mut Vec<StreamItem<f64>>),
    /// Base pane `j` is complete.
    ClosePane(usize),
}

/// The workload's stream cut into panes, with what every row needs.
struct Ladder<'a> {
    p: &'a Prepared,
    /// `bounds[j]..bounds[j + 1]` are the items of base pane `j`.
    bounds: Vec<usize>,
    slide_ms: i64,
    sizing: SizingPolicy,
    row_budget_s: f64,
}

impl<'a> Ladder<'a> {
    fn new(p: &'a Prepared, row_budget_s: f64) -> Self {
        let slide_ms = p.reference.slide_ms();
        let panes = p.reference.panes_per_pass() as i64;
        let bounds = (0..=panes)
            .map(|j| {
                p.items
                    .partition_point(|item| item.time.as_millis() < j * slide_ms)
            })
            .collect();
        // What the aggregated engine arms its first pane with.
        let sizing = sampler_sizing(SizingDirective::Fraction(p.workload.fraction), 0, 1)
            .expect("a fraction directive samples");
        Ladder {
            p,
            bounds,
            slide_ms,
            sizing,
            row_budget_s,
        }
    }

    fn panes(&self) -> usize {
        self.bounds.len() - 1
    }

    fn pane_items(&self, j: usize) -> &'a [StreamItem<f64>] {
        &self.p.items[self.bounds[j]..self.bounds[j + 1]]
    }

    fn pane_window(&self, pass: u64, j: usize) -> Window {
        let start = pass as i64 * self.p.span_ms + j as i64 * self.slide_ms;
        Window::new(
            EventTime::from_millis(start),
            EventTime::from_millis(start + self.slide_ms),
        )
    }

    /// Calls `pass(n)` for n = 0, 1, … until the row's budget is used (one
    /// pass on smoke runs); returns the number of passes.
    fn repeat(&self, mut pass: impl FnMut(u64)) -> u64 {
        let started = Instant::now();
        let mut n = 0;
        loop {
            pass(n);
            n += 1;
            if self.p.smoke || started.elapsed().as_secs_f64() >= self.row_budget_s {
                return n;
            }
        }
    }

    /// Walks pass `pass` pane by pane: each pane's items arrive as
    /// [`Step::Chunk`]s — the ≤4,096-item portions `push_batch` chunking
    /// and pane splitting produce, already shifted into `buf` — followed
    /// by one [`Step::ClosePane`].
    fn walk(&self, pass: u64, buf: &mut Vec<StreamItem<f64>>, mut step: impl FnMut(Step<'_>)) {
        let shift = pass as i64 * self.p.span_ms;
        for j in 0..self.panes() {
            let (mut at, end) = (self.bounds[j], self.bounds[j + 1]);
            while at < end {
                let stop = end.min((at / CHUNK_ITEMS + 1) * CHUNK_ITEMS);
                buf.clear();
                buf.extend(self.p.items[at..stop].iter().map(|i| shifted(i, shift)));
                step(Step::Chunk(buf));
                at = stop;
            }
            step(Step::ClosePane(j));
        }
    }

    fn items_per_pass(&self) -> f64 {
        self.p.items.len() as f64
    }
}

/// `Reservoir::observe_run` alone: same-stratum runs are found up front,
/// capacities are the steady state of `FractionOfPrevious`, and only the
/// kernel is timed.
fn reservoir_row(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let items = &l.p.items;
    let strata = items.iter().map(|i| i.stratum.index()).max().unwrap_or(0) + 1;
    let mut counts = vec![0u64; strata];
    for item in items {
        counts[item.stratum.index()] += 1;
    }
    let mut reservoirs: Vec<Reservoir<f64>> = counts
        .iter()
        .map(|&n| {
            let per_pane = n as f64 / l.panes() as f64;
            Reservoir::new(((per_pane * l.p.workload.fraction).ceil() as usize).max(1))
        })
        .collect();
    // (first item, length) of every same-stratum run, pane by pane.
    let runs: Vec<Vec<(usize, usize)>> = (0..l.panes())
        .map(|j| {
            let mut runs = Vec::new();
            let mut at = l.bounds[j];
            while at < l.bounds[j + 1] {
                let stratum = items[at].stratum;
                let len = items[at..l.bounds[j + 1]]
                    .iter()
                    .take_while(|i| i.stratum == stratum)
                    .count();
                runs.push((at, len));
                at += len;
            }
            runs
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(l.p.seed);
    let (mut busy, mut accepts) = (Duration::ZERO, 0u64);
    let passes = l.repeat(|_| {
        for pane_runs in &runs {
            for r in &mut reservoirs {
                r.reset();
            }
            let started = Instant::now();
            for &(first, len) in pane_runs {
                reservoirs[items[first].stratum.index()].observe_run(len as u64, &mut rng, |off| {
                    accepts += 1;
                    items[first + off as usize].value
                });
            }
            busy += started.elapsed();
        }
    });
    std::hint::black_box(&reservoirs);
    let offered = passes as f64 * l.items_per_pass();
    out.push(Metric::pooled(
        "sa-sampling.reservoir.ns_per_item",
        "ns/item",
        ns(busy) / offered,
    ));
    out.push(Metric::pooled(
        "sa-sampling.reservoir.accept_share",
        "ratio",
        accepts as f64 / offered,
    ));
}

/// `OasrsSampler::observe_batch` + `finish_interval`.
fn oasrs_row(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let mut sampler = OasrsSampler::<f64>::new(l.sizing, l.p.seed);
    let mut buf = Vec::with_capacity(CHUNK_ITEMS);
    let (mut busy, mut closing) = (Duration::ZERO, Duration::ZERO);
    let mut sampled = 0u64;
    let passes = l.repeat(|pass| {
        l.walk(pass, &mut buf, |step| match step {
            Step::Chunk(chunk) => {
                let started = Instant::now();
                sampler.observe_batch(chunk);
                busy += started.elapsed();
            }
            Step::ClosePane(_) => {
                let started = Instant::now();
                let sample = sampler.finish_interval();
                closing += started.elapsed();
                sampled += sample.total_sampled();
            }
        });
    });
    let offered = passes as f64 * l.items_per_pass();
    out.push(Metric::pooled(
        "sa-sampling.oasrs.ns_per_item",
        "ns/item",
        ns(busy + closing) / offered,
    ));
    out.push(Metric::pooled(
        "sa-sampling.oasrs.finish_us_per_pane",
        "us/pane",
        ns(closing) / 1e3 / (passes as f64 * l.panes() as f64),
    ));
    out.push(Metric::pooled(
        "sa-sampling.realized_fraction",
        "ratio",
        sampled as f64 / offered,
    ));
}

/// `IntervalWorker` feeding `WindowFinalizer`, with the estimators timed
/// on their own over each window's merged per-stratum statistics. Returns
/// the row's ns per item (worker + finalizer).
fn runtime_row(l: &Ladder<'_>, out: &mut Vec<Metric>) -> f64 {
    let (size_ms, slide_ms) = l.p.workload.window_ms;
    let spec = WindowSpec::sliding_millis(size_ms, slide_ms);
    let overlap = (size_ms / slide_ms) as usize;
    let mut worker =
        IntervalWorker::for_worker(Some(l.sizing), RunSeed::new(l.p.seed), 0, 1, identity());
    let mut finalizer = WindowFinalizer::new(spec, Confidence::P95);
    // The last `overlap` panes' statistics: what the newest window merges.
    let mut recent = VecDeque::<Vec<StratumStats>>::new();
    let mut buf = Vec::with_capacity(CHUNK_ITEMS);
    let (mut observing, mut closing, mut finalizing, mut estimating) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut windows, mut estimated) = (0u64, 0u64);
    let passes = l.repeat(|pass| {
        l.walk(pass, &mut buf, |step| match step {
            Step::Chunk(chunk) => {
                let started = Instant::now();
                worker.observe_chunk(chunk);
                observing += started.elapsed();
            }
            Step::ClosePane(j) => {
                let started = Instant::now();
                let pane_stats = worker.close_interval();
                closing += started.elapsed();

                recent.push_back(pane_stats.clone());
                if recent.len() > overlap {
                    recent.pop_front();
                }
                let pane = l.pane_window(pass, j);
                let started = Instant::now();
                finalizer.ingest_interval(pane, PanePayload::Stratified(pane_stats));
                finalizer.close_interval(pane.end);
                windows += finalizer.drain_windows().len() as u64;
                finalizing += started.elapsed();

                if recent.len() == overlap {
                    let mut merged: BTreeMap<StratumId, StratumStats> = BTreeMap::new();
                    for s in recent.iter().flatten() {
                        merged
                            .entry(s.stratum)
                            .and_modify(|m| m.merge(s))
                            .or_insert(*s);
                    }
                    let merged: Vec<StratumStats> = merged.into_values().collect();
                    let started = Instant::now();
                    std::hint::black_box((
                        estimate_mean(&merged, Confidence::P95),
                        estimate_sum(&merged, Confidence::P95),
                        estimate_mean_by_stratum(&merged, Confidence::P95),
                        estimate_sum_by_stratum(&merged, Confidence::P95),
                    ));
                    estimating += started.elapsed();
                    estimated += 1;
                }
            }
        });
    });
    let offered = passes as f64 * l.items_per_pass();
    let panes = passes as f64 * l.panes() as f64;
    out.push(Metric::pooled(
        "runtime.worker.ns_per_item",
        "ns/item",
        ns(observing + closing) / offered,
    ));
    out.push(Metric::pooled(
        "runtime.worker.close_us_per_pane",
        "us/pane",
        ns(closing) / 1e3 / panes,
    ));
    out.push(Metric::pooled(
        "runtime.finalizer.us_per_window",
        "us/window",
        ns(finalizing) / 1e3 / windows.max(1) as f64,
    ));
    out.push(Metric::pooled(
        "sa-estimate.us_per_window",
        "us/window",
        ns(estimating) / 1e3 / estimated.max(1) as f64,
    ));
    ns(observing + closing + finalizing) / offered
}

/// One closed-loop rep of `session` over the workload's stream; scoring
/// goes to throwaway sinks, spans to `log` when given.
fn session_rep(
    l: &Ladder<'_>,
    session: ApproxSession<'static, f64>,
    stop: Stop,
    log: Option<&mut SpanLog>,
) -> Rep {
    let mut scorer = Scorer::new(l.p.workload.window_ms);
    let mut latencies = Vec::new();
    run_rep(
        session,
        &l.p.replay(),
        stop,
        &mut Sinks {
            scorer: &mut scorer,
            latencies_ms: &mut latencies,
            keep: None,
            trace: Tracer::new(log, 0),
        },
    )
}

fn row_stop(l: &Ladder<'_>) -> Stop {
    if l.p.smoke {
        Stop::Passes(1)
    } else {
        Stop::Seconds(l.row_budget_s)
    }
}

fn ns_per_item(rep: &Rep) -> f64 {
    rep.wall_s * 1e9 / rep.items_offered.max(1) as f64
}

/// `ApproxSession` on the aggregated engine: the push/poll/finish split
/// from spans, and the row's own ns per item.
fn aggregated_row(l: &Ladder<'_>, below: f64, log: &mut SpanLog, out: &mut Vec<Metric>) -> f64 {
    let w = l.p.workload;
    let session = builder(w.window_ms, w.fraction)
        .aggregated(AggregatedConfig::new().with_seed(l.p.seed))
        .start();
    let mut spans = SpanLog::new(log.origin());
    let rep = session_rep(l, session, row_stop(l), Some(&mut spans));
    let items = rep.items_offered as f64;
    let windows = (rep.passes * l.p.reference.panes_per_pass()) as f64;
    out.push(Metric::pooled(
        "session.push_ns_per_item",
        "ns/item",
        spans.total_ns("session.push_batch") as f64 / items,
    ));
    out.push(Metric::pooled(
        "session.poll_us_per_window",
        "us/window",
        spans.total_ns("session.poll_windows") as f64 / 1e3 / windows,
    ));
    out.push(Metric::pooled(
        "session.finish_ms",
        "ms",
        spans.total_ns("session.finish") as f64 / 1e6,
    ));
    let row = ns_per_item(&rep);
    out.push(Metric::pooled("aggregated.ns_per_item", "ns/item", row));
    out.push(Metric::pooled(
        "aggregated.delta_ns_per_item",
        "ns/item",
        row - below,
    ));
    log.absorb(spans);
    row
}

/// The engines no end-to-end workload runs on, one worker each.
fn side_rows(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let w = l.p.workload;
    let batched = builder(w.window_ms, w.fraction)
        .batched(
            BatchedConfig::new(Cluster::new(1))
                .with_seed(l.p.seed)
                .with_batch_interval_ms(w.window_ms.1),
        )
        .start();
    let rep = session_rep(l, batched, Stop::Passes(1), None);
    out.push(Metric::pooled(
        "batched.ns_per_item",
        "ns/item",
        ns_per_item(&rep),
    ));
    let pipelined = builder(w.window_ms, w.fraction)
        .pipelined(
            PipelinedConfig::new()
                .with_sample_workers(1)
                .with_seed(l.p.seed),
        )
        .start();
    let rep = session_rep(l, pipelined, Stop::Passes(1), None);
    out.push(Metric::pooled(
        "pipelined.ns_per_item",
        "ns/item",
        ns_per_item(&rep),
    ));
}

/// Sharded N=1: the caller-side span split, the fabric's own counters,
/// and `ShardSet::merge_panes` on four parts.
fn sharded_row(l: &Ladder<'_>, below: f64, log: &mut SpanLog, out: &mut Vec<Metric>) -> f64 {
    let w = l.p.workload;
    let start = || {
        builder(w.window_ms, w.fraction)
            .sharded(ShardedConfig::new(1).with_seed(l.p.seed))
            .start()
    };
    let mut spans = SpanLog::new(log.origin());
    let rep = session_rep(l, start(), row_stop(l), Some(&mut spans));
    let row = ns_per_item(&rep);
    out.push(Metric::pooled("sharded.ns_per_item", "ns/item", row));
    out.push(Metric::pooled(
        "sharded.push_ns_per_item",
        "ns/item",
        spans.total_ns("session.push_batch") as f64 / rep.items_offered as f64,
    ));
    out.push(Metric::pooled(
        "sharded.finish_ms",
        "ms",
        spans.total_ns("session.finish") as f64 / 1e6,
    ));
    out.push(Metric::pooled(
        "sharded.delta_ns_per_item",
        "ns/item",
        row - below,
    ));
    log.absorb(spans);

    // The fabric's counters need the session alive: one pass, settle,
    // read `SessionStatus::shards`.
    let mut session = start();
    for chunk in l.p.items.chunks(CHUNK_ITEMS) {
        session
            .push_batch(chunk.iter().copied())
            .expect("sharded push");
        let _ = session.poll_windows();
    }
    session.settle().expect("sharded settle");
    let shard = session.status().shards[0];
    let _ = session.finish();
    out.push(Metric::pooled(
        "sharded.chunks_routed",
        "count",
        shard.chunks_routed as f64,
    ));
    out.push(Metric::pooled(
        "sharded.chunk_recycle_share",
        "ratio",
        shard.chunks_recycled as f64 / shard.chunks_routed.max(1) as f64,
    ));

    // merge_panes on four parts, single-threaded: each pane dealt
    // round-robin to four shard workers, closed, merged.
    let mut set = ShardSet::<f64>::new(4, RunSeed::new(l.p.seed), identity());
    let per_pane = l.p.items.len() / l.panes();
    let mut workers: Vec<IntervalWorker<f64>> = set
        .rearm(SizingDirective::Fraction(w.fraction), per_pane)
        .expect("first arm builds workers");
    let mut rng = SmallRng::seed_from_u64(l.p.seed);
    let mut merging = Duration::ZERO;
    for j in 0..l.panes() {
        for (i, item) in l.pane_items(j).iter().enumerate() {
            workers[i % 4].observe(item.stratum, item.value);
        }
        let parts: Vec<WorkerPane<f64>> = workers
            .iter_mut()
            .map(IntervalWorker::close_interval_parts)
            .collect();
        let started = Instant::now();
        std::hint::black_box(set.merge_panes(parts, &mut rng));
        merging += started.elapsed();
    }
    out.push(Metric::pooled(
        "sharded.merge_us_per_pane",
        "us/pane",
        ns(merging) / 1e3 / l.panes() as f64,
    ));
    row
}

/// One distributed replay with throwaway latency sinks.
fn dist_run(
    plan: &ReplayPlan<'_>,
    scorer: &mut Scorer,
    observe: &mut dyn FnMut(&DistributedSession, Instant),
    log: Option<&mut SpanLog>,
) -> DistRun {
    let mut latencies = Vec::new();
    run_replay(
        plan,
        &mut Sinks {
            scorer,
            latencies_ms: &mut latencies,
            keep: None,
            trace: Tracer::off(),
        },
        observe,
        log.map(|log| (log, 0)),
    )
}

/// The distributed tier: closed-loop K=1 against the sharded row, a
/// healthy K=2 run, and a kill run watched through `WorkerStatus::health`.
fn net_row(l: &Ladder<'_>, below: f64, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let plan = |workers, fault, passes, kill_after| ReplayPlan {
        setup: l.p.dist_setup(workers, l.p.seed, fault),
        replay: l.p.replay(),
        passes,
        kill_after,
        pace: None,
    };
    let window_ms = l.p.workload.window_ms;

    // As many passes as fit the row's budget at the sharded row's pace.
    let passes = if l.p.smoke {
        1
    } else {
        ((l.row_budget_s * 1e9 / (below.max(1.0) * l.items_per_pass())) as u64).clamp(1, 1_024)
    };
    let mut spans = SpanLog::new(log.origin());
    let k1 = dist_run(
        &plan(1, FaultPolicy::default(), passes, None),
        &mut Scorer::new(window_ms),
        &mut |_, _| {},
        Some(&mut spans),
    );
    let row = ns_per_item(&k1.rep);
    out.push(Metric::pooled("net.ns_per_item", "ns/item", row));
    out.push(Metric::pooled(
        "net.worker_push_ns_per_item",
        "ns/item",
        spans.total_ns("net.worker_push") as f64 / k1.rep.items_offered as f64,
    ));
    out.push(Metric::pooled(
        "net.coordinator_finish_ms",
        "ms",
        k1.coordinator_finish_s * 1e3,
    ));
    out.push(Metric::pooled(
        "net.delta_ns_per_item",
        "ns/item",
        row - below,
    ));
    log.absorb(spans);

    // Sixteen panes, so the death falls mid-stream whatever the stream's
    // length.
    let kill_passes = 16u64.div_ceil(l.p.reference.panes_per_pass());
    let healthy = dist_run(
        &plan(2, kill_fault_policy(), kill_passes, None),
        &mut Scorer::new(window_ms),
        &mut |_, _| {},
        None,
    );
    out.push(Metric::pooled(
        "net.healthy_items_per_s",
        "items/s",
        healthy.rep.items_offered as f64 / healthy.rep.wall_s,
    ));

    let (mut dead_seen, mut retired_seen) = (None, None);
    let mut scorer = Scorer::new(window_ms);
    let kill = dist_run(
        &plan(2, kill_fault_policy(), kill_passes, Some(0.5)),
        &mut scorer,
        &mut |session, now| {
            let health = session
                .status()
                .workers
                .iter()
                .find(|w| w.worker == 1)
                .map(|w| w.health);
            if matches!(health, Some(WorkerHealth::Dead | WorkerHealth::Retired)) {
                dead_seen.get_or_insert(now);
            }
            if health == Some(WorkerHealth::Retired) {
                retired_seen.get_or_insert(now);
            }
        },
        None,
    );
    // `finish` absorbs the rest of the lifecycle unobserved: a state not
    // seen by polling is reported as reached when `finish` returned.
    let dropped = kill.victim_dropped.expect("the kill run kills");
    let since_drop = |seen: Option<Instant>| {
        seen.unwrap_or(kill.finished)
            .saturating_duration_since(dropped)
            .as_secs_f64()
            * 1e3
    };
    out.push(Metric::pooled("net.detect_ms", "ms", since_drop(dead_seen)));
    out.push(Metric::pooled(
        "net.retire_ms",
        "ms",
        since_drop(retired_seen),
    ));
    out.push(Metric::pooled("net.finish_wait_s", "s", kill.finish_wait_s));
    out.push(Metric::pooled(
        "net.degraded_window_share",
        "ratio",
        scorer.degraded as f64 / scorer.admitted.max(1) as f64,
    ));
    out.push(Metric::pooled(
        "net.lost_item_share",
        "ratio",
        scorer.lost_items as f64 / kill.rep.items_offered.max(1) as f64,
    ));
}

/// `write_message` / `read_message` on the digests a K=1 worker ships.
fn wire_row(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let mut worker =
        IntervalWorker::for_shard(Some(l.sizing), RunSeed::new(l.p.seed), 0, identity());
    let mut buf = Vec::with_capacity(CHUNK_ITEMS);
    let (mut encoding, mut decoding) = (Duration::ZERO, Duration::ZERO);
    let (mut bytes, mut ingested) = (0usize, 0u64);
    let mut frame = Vec::new();
    l.walk(0, &mut buf, |step| match step {
        Step::Chunk(chunk) => {
            ingested += chunk.len() as u64;
            worker.observe_chunk(chunk);
        }
        Step::ClosePane(j) => {
            let WorkerPane::Sampled(sample) = worker.close_interval_parts() else {
                unreachable!("a fraction budget samples");
            };
            let pane = l.pane_window(0, j);
            let message = Message::PaneDigest(Digest {
                worker: 0,
                pane,
                counters: IngestCounters {
                    ingested,
                    dropped_late: 0,
                },
                watermark: Some(pane.end),
                lag: 0,
                last_checkpoint_pane: None,
                items_since_checkpoint: ingested,
                snapshot_bytes: 0,
                payload: DigestPayload::Sampled(sample),
            });
            frame.clear();
            let started = Instant::now();
            write_message(&mut frame, &message).expect("encode a digest");
            encoding += started.elapsed();
            bytes += frame.len();
            let started = Instant::now();
            let decoded = read_message(&mut frame.as_slice()).expect("decode a digest");
            decoding += started.elapsed();
            assert_eq!(decoded, Some(message), "digest must round-trip");
        }
    });
    let panes = l.panes() as f64;
    out.push(Metric::pooled(
        "sa-net.encode_us_per_digest",
        "us/digest",
        ns(encoding) / 1e3 / panes,
    ));
    out.push(Metric::pooled(
        "sa-net.decode_us_per_digest",
        "us/digest",
        ns(decoding) / 1e3 / panes,
    ));
    out.push(Metric::pooled(
        "sa-net.bytes_per_digest",
        "bytes/digest",
        bytes as f64 / panes,
    ));
    out.push(Metric::pooled(
        "sa-net.bytes_per_item",
        "bytes/item",
        bytes as f64 / l.items_per_pass(),
    ));
}

/// The state a checkpointable aggregated session holds mid-stream.
fn checkpoint_row(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let w = l.p.workload;
    let mut session = builder(w.window_ms, w.fraction)
        .checkpointable()
        .aggregated(AggregatedConfig::new().with_seed(l.p.seed))
        .start();
    let half = l.p.items.len() / 2;
    for chunk in l.p.items[..half].chunks(CHUNK_ITEMS) {
        session
            .push_batch(chunk.iter().copied())
            .expect("aggregated push");
        let _ = session.poll_windows();
    }
    let snapshot = session.checkpoint().expect("checkpointable session");
    let sealed = seal_session_snapshot(&snapshot).expect("seal a snapshot");
    let _ = session.finish();
    out.push(Metric::pooled(
        "checkpoint.sealed_bytes",
        "bytes",
        sealed.len() as f64,
    ));
}

/// `Producer::send` → `Consumer::poll_items`, one replay.
fn aggregator_row(l: &Ladder<'_>, out: &mut Vec<Metric>) {
    let topic = Topic::new("bench", 1);
    let mut producer = Producer::new(Arc::clone(&topic), Partitioner::RoundRobin);
    let mut consumer = Consumer::whole_topic(topic);
    let mut busy = Duration::ZERO;
    let mut polled = 0usize;
    for chunk in l.p.items.chunks(CHUNK_ITEMS) {
        let message = chunk.to_vec();
        let started = Instant::now();
        producer.send(message);
        polled += std::hint::black_box(consumer.poll_items(1)).len();
        busy += started.elapsed();
    }
    assert_eq!(polled, l.p.items.len(), "the consumer reads every item");
    out.push(Metric::pooled(
        "sa-aggregator.poll_ns_per_item",
        "ns/item",
        ns(busy) / l.items_per_pass(),
    ));
}

/// The traced run: the workload end to end without and with spans (their
/// difference prices the tracing), then the ladder. Spans go to
/// `benchmark/results/trace-<workload>.json` unless `--smoke`.
pub fn run_traced(args: &RunArgs, p: &Prepared) -> Outcome {
    let slice = args.seconds * END_TO_END_SHARE;
    let untraced = run_end_to_end(p, slice, None);
    let mut log = SpanLog::new(Instant::now());
    let traced = run_end_to_end(p, slice, Some(&mut log));

    let mut outcome = Outcome {
        checks: traced.checks.clone(),
        ops_attempted: untraced.ops_attempted + traced.ops_attempted,
        ops_failed: untraced.ops_failed + traced.ops_failed,
        samples: traced.samples.clone(),
        ..Outcome::default()
    };
    outcome.check("untraced_run_correct", untraced.correct());

    let row_budget_s = args.seconds * (1.0 - 2.0 * END_TO_END_SHARE) / ROW_SLICES;
    let l = Ladder::new(p, row_budget_s);
    let out = &mut outcome.metrics;
    reservoir_row(&l, out);
    oasrs_row(&l, out);
    let runtime = runtime_row(&l, out);
    let aggregated = aggregated_row(&l, runtime, &mut log, out);
    side_rows(&l, out);
    let sharded = sharded_row(&l, aggregated, &mut log, out);
    net_row(&l, sharded, &mut log, out);
    wire_row(&l, out);
    checkpoint_row(&l, out);
    aggregator_row(&l, out);

    let rate = |o: &Outcome| o.value("items_per_s").unwrap_or(0.0);
    out.push(Metric::pooled(
        "harness.generator_lag_p90_ms",
        "ms",
        traced.sample("generator_lag_p90_ms"),
    ));
    out.push(Metric::pooled(
        "harness.late_windows",
        "count",
        traced.sample("late_windows"),
    ));
    out.push(Metric::pooled(
        "harness.trace_overhead_pct",
        "%",
        (rate(&untraced) - rate(&traced)) / rate(&untraced) * 100.0,
    ));
    // The end-to-end numbers of the traced run ride along in the report,
    // for reading the ladder against them; they are not per-layer metrics.
    outcome.samples.extend([
        ("untraced_items_per_s", rate(&untraced)),
        ("traced_items_per_s", rate(&traced)),
        (
            "untraced_emit_latency_p50_ms",
            untraced.value("emit_latency_p50_ms").unwrap_or(0.0),
        ),
        ("spans", log.spans().len() as f64),
    ]);

    if !p.smoke {
        let path = results_dir().join(format!("trace-{}.json", p.workload.name));
        let written = std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&path, log.to_json().compact()));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    outcome
}
