//! One workload, end to end: set-up, warm-up and determinism pair,
//! measured reps, output checks, the end-to-end metrics.

use crate::cli::RunArgs;
use crate::dist::{
    join_worker, kill_fault_policy, run_replay, start_coordinator, DistSetup, Pace, ReplayPlan,
};
use crate::local::{run_rep, start_session, Rep, Replay, Sinks, Stop};
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::score::{bit_identical, Scorer};
use crate::spans::{SpanLog, Tracer};
use crate::spec::{
    Drive, Workload, FULL_EVENT_MS, KILL_EVENT_MS, PACED_ITEMS_PER_MS, PACED_WARMUP_MS,
    SMOKE_EVENT_MS,
};
use crate::stats;
use crate::stream::{generate, restamp, Reference};
use sa_types::{FaultPolicy, RunSeed, StreamItem};
use std::time::Instant;
use streamapprox::WindowResult;

/// Times the set-up is performed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Measured reps of a closed-loop run.
const REPS: u32 = 5;
/// Panes the determinism pair replays at least: enough windows for
/// bit-identity to mean something, few enough to stay a warm-up.
const PAIR_PANES: u64 = 16;
/// Share of its items after which the victim of `dist-kill-f20` dies.
const KILL_AFTER: f64 = 0.5;

/// A workload ready to run: its base stream, exact reference, and how
/// long getting there took.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The workload.
    pub workload: &'static Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--smoke`.
    pub smoke: bool,
    /// The base stream.
    pub items: Vec<StreamItem<f64>>,
    /// Its event-time span, ms.
    pub span_ms: i64,
    /// Its exact per-pane reference.
    pub reference: Reference,
    /// Seconds each of the [`SETUPS`] set-ups took.
    pub setup_s: Vec<f64>,
}

impl Prepared {
    /// The stream and reference as a replay.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            items: &self.items,
            span_ms: self.span_ms,
            reference: &self.reference,
        }
    }

    /// The distributed configuration of this workload with `workers`
    /// workers and run seed `seed`.
    pub fn dist_setup(&self, workers: u32, seed: u64, fault: FaultPolicy) -> DistSetup {
        let expected_pane_items = self.items.len() / self.reference.panes_per_pass() as usize;
        DistSetup {
            workers,
            window_ms: self.workload.window_ms,
            fraction: self.workload.fraction,
            seed,
            fault,
            expected_pane_items,
        }
    }
}

/// Set-up as a user pays it: base-stream generation, the exact
/// reference, and session start (thread spawn; coordinator bind and
/// worker hello on the distributed workloads). Performed [`SETUPS`] times
/// so the reported median is steady; the last one is kept.
pub fn prepare(args: &RunArgs) -> Prepared {
    let workload = args.workload;
    let event_ms = match workload.drive {
        _ if args.smoke => SMOKE_EVENT_MS,
        Drive::DistKill => KILL_EVENT_MS,
        _ => FULL_EVENT_MS,
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        let mut items = generate(workload.stream, event_ms, args.seed);
        let span_ms = match workload.drive {
            Drive::DistPaced => restamp(&mut items, PACED_ITEMS_PER_MS, workload.window_ms.1),
            _ => event_ms,
        };
        let reference = Reference::new(&items, span_ms, workload.window_ms);
        let prepared = Prepared {
            workload,
            seed: args.seed,
            smoke: args.smoke,
            items,
            span_ms,
            reference,
            setup_s: Vec::new(),
        };
        let dist = match workload.drive {
            Drive::Aggregated | Drive::Sharded => None,
            Drive::DistPaced => Some(prepared.dist_setup(1, args.seed, FaultPolicy::default())),
            Drive::DistKill => Some(prepared.dist_setup(2, args.seed, kill_fault_policy())),
        };
        match dist {
            None => drop(start_session(workload, args.seed)),
            Some(setup) => {
                let coordinator = start_coordinator(&setup);
                let sessions: Vec<_> = (0..setup.workers)
                    .map(|id| join_worker(coordinator.addr(), id))
                    .collect();
                drop(sessions);
                drop(coordinator);
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(prepared);
    }
    let mut prepared = kept.expect("at least one set-up");
    prepared.setup_s = setup_s;
    prepared
}

/// One pass over K=2 workers under the kill fault clocks.
fn kill_plan<'a>(
    p: &Prepared,
    replay: Replay<'a>,
    seed: u64,
    kill_after: Option<f64>,
) -> ReplayPlan<'a> {
    ReplayPlan {
        setup: p.dist_setup(2, seed, kill_fault_policy()),
        replay,
        passes: 1,
        kill_after,
        pace: None,
    }
}

/// Accumulators shared by the three drivers.
struct Tally {
    scorer: Scorer,
    latencies_ms: Vec<f64>,
    /// Latencies before this index belong to reps already folded in.
    latency_mark: usize,
    latency_p50_ms: Vec<f64>,
    latency_p90_ms: Vec<f64>,
    items_per_s: Vec<f64>,
    items_offered: u64,
    attempted: u64,
    failed_pushes: u64,
    session_errors: u64,
    late_windows: u64,
    ingest_matches: bool,
    sessions_ok: bool,
}

impl Tally {
    fn new(window_ms: (i64, i64)) -> Self {
        Tally {
            scorer: Scorer::new(window_ms),
            latencies_ms: Vec::new(),
            latency_mark: 0,
            latency_p50_ms: Vec::new(),
            latency_p90_ms: Vec::new(),
            items_per_s: Vec::new(),
            items_offered: 0,
            attempted: 0,
            failed_pushes: 0,
            session_errors: 0,
            late_windows: 0,
            ingest_matches: true,
            sessions_ok: true,
        }
    }

    /// Folds one measured rep in. `windows_expected` joins the attempted
    /// count; a healthy rep must have ingested exactly what was offered.
    fn rep(&mut self, rep: &Rep, windows_expected: u64, healthy: bool, session_failed: bool) {
        self.attempted += rep.pushes + windows_expected;
        self.failed_pushes += rep.failed_pushes;
        self.session_errors += u64::from(session_failed);
        self.sessions_ok &= !session_failed;
        if healthy {
            self.ingest_matches &= rep.items_ingested == rep.items_offered;
        } else {
            self.ingest_matches &= rep.items_ingested <= rep.items_offered;
        }
        // Latency percentiles are taken per rep and reported as the median
        // over reps: a rep's threads land where the scheduler puts them,
        // and that placement shifts a whole rep's latencies together.
        let fresh = &self.latencies_ms[self.latency_mark..];
        self.latency_p50_ms.push(stats::percentile(fresh, 50.0));
        self.latency_p90_ms.push(stats::percentile(fresh, 90.0));
        self.latency_mark = self.latencies_ms.len();
        self.items_offered += rep.items_offered;
        self.items_per_s
            .push(rep.items_offered as f64 / rep.wall_s.max(f64::MIN_POSITIVE));
    }

    fn sinks<'a>(
        &'a mut self,
        keep: Option<&'a mut Vec<WindowResult>>,
        trace: Tracer<'a>,
    ) -> Sinks<'a> {
        Sinks {
            scorer: &mut self.scorer,
            latencies_ms: &mut self.latencies_ms,
            keep,
            trace,
        }
    }
}

/// Runs the prepared workload for `seconds` and reports every end-to-end
/// metric. With a span log, the measured reps record spans around every
/// session call (the traced run compares its throughput to an untraced
/// one to price the tracing itself).
pub fn run_end_to_end(p: &Prepared, seconds: f64, mut spans: Option<&mut SpanLog>) -> Outcome {
    let workload = p.workload;
    let mut outcome = Outcome::default();
    // The determinism pair doubles as the discarded warm-up rep: two
    // short healthy runs on the same engine seed must agree bit for bit.
    let mut pair = Tally::new(workload.window_ms);
    let (mut first, mut second) = (Vec::new(), Vec::new());
    let mut tally = Tally::new(workload.window_ms);
    let mut lag_samples = Vec::new();
    let mut reference_retries = 0u32;
    let pair_passes = PAIR_PANES.div_ceil(p.reference.panes_per_pass());

    match workload.drive {
        Drive::Aggregated | Drive::Sharded => {
            let replay = p.replay();
            let panes = p.reference.panes_per_pass();
            for keep in [&mut first, &mut second] {
                let rep = run_rep(
                    start_session(workload, p.seed),
                    &replay,
                    Stop::Passes(pair_passes),
                    &mut pair.sinks(Some(keep), Tracer::off()),
                );
                pair.rep(&rep, pair_passes * panes, true, false);
            }
            let (reps, stop) = if p.smoke {
                (1, Stop::Passes(1))
            } else {
                (REPS, Stop::Seconds(seconds / f64::from(REPS)))
            };
            for r in 0..reps {
                let session = start_session(workload, p.seed + 1 + u64::from(r));
                let trace = Tracer::new(spans.as_deref_mut(), r);
                let rep = run_rep(session, &replay, stop, &mut tally.sinks(None, trace));
                tally.rep(&rep, rep.passes * panes, true, false);
            }
        }
        Drive::DistKill => {
            let replay = p.replay();
            let panes = p.reference.panes_per_pass();
            // The healthy K=2 run of the same stream is the in-workload
            // reference: bit-identical across two runs, nothing degraded.
            // Under the kill clocks a host stall past the 250 ms pane
            // timeout degrades a healthy run by design, so a degraded
            // pair is run once more: a stall does not strike twice, a
            // regression that starves heartbeats or digests does.
            loop {
                for keep in [&mut first, &mut second] {
                    let run = run_replay(
                        &kill_plan(p, replay, p.seed, None),
                        &mut pair.sinks(Some(keep), Tracer::off()),
                        &mut |_, _| {},
                        None,
                    );
                    pair.rep(&run.rep, panes, true, run.session_failed);
                }
                if pair.scorer.degraded == 0 || reference_retries == 1 {
                    break;
                }
                reference_retries += 1;
                pair = Tally::new(workload.window_ms);
                first.clear();
                second.clear();
            }
            let started = Instant::now();
            let mut r = 0u32;
            loop {
                // Every kill rep draws its own stream. After the death the
                // answer rests on the survivor's half of the items, and how
                // that half differs from the whole is a property of the
                // stream: on one stream it would repeat in every rep, and
                // pooling reps would not average it out. (Derived, not
                // `seed + rep`: runs on neighbouring seeds must not share
                // streams.)
                let seed = p.seed + 1 + u64::from(r);
                let stream_seed = RunSeed::new(p.seed).derive(u64::from(r)).value();
                let items = generate(workload.stream, p.span_ms, stream_seed);
                let reference = Reference::new(&items, p.span_ms, workload.window_ms);
                let replay = Replay {
                    items: &items,
                    span_ms: p.span_ms,
                    reference: &reference,
                };
                let run = run_replay(
                    &kill_plan(p, replay, seed, Some(KILL_AFTER)),
                    &mut tally.sinks(None, Tracer::off()),
                    &mut |_, _| {},
                    spans.as_deref_mut().map(|log| (log, r)),
                );
                tally.rep(&run.rep, panes, false, run.session_failed);
                r += 1;
                if p.smoke || started.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
        }
        Drive::DistPaced => {
            let replay = p.replay();
            let panes = p.reference.panes_per_pass();
            let plan = |passes, pace| ReplayPlan {
                setup: p.dist_setup(1, p.seed, FaultPolicy::default()),
                replay,
                passes,
                kill_after: None,
                pace,
            };
            // Same content, no schedule: event time is send *order*, so
            // the answers do not depend on the clock.
            for keep in [&mut first, &mut second] {
                let run = run_replay(
                    &plan(pair_passes, None),
                    &mut pair.sinks(Some(keep), Tracer::off()),
                    &mut |_, _| {},
                    None,
                );
                pair.rep(&run.rep, pair_passes * panes, true, run.session_failed);
            }
            // Fresh sessions rather than one long one, so that no single
            // thread placement decides the run's latency.
            let (reps, warmup_ms, measured_ms) = if p.smoke {
                (1, p.span_ms, 3 * p.span_ms)
            } else {
                (
                    REPS,
                    PACED_WARMUP_MS,
                    (seconds * 1e3) as i64 / i64::from(REPS),
                )
            };
            let passes = ((warmup_ms + measured_ms + p.span_ms - 1) / p.span_ms) as u64;
            let pace = Pace {
                items_per_ms: PACED_ITEMS_PER_MS,
                warmup_ms,
            };
            for r in 0..reps {
                let mut plan = plan(passes, Some(pace));
                plan.setup.seed = p.seed + 1 + u64::from(r);
                let run = run_replay(
                    &plan,
                    &mut tally.sinks(None, Tracer::off()),
                    &mut |_, _| {},
                    spans.as_deref_mut().map(|log| (log, r)),
                );
                tally.rep(&run.rep, passes * panes, true, run.session_failed);
                tally.late_windows += run.late_windows;
                lag_samples.extend(run.chunk_lags_ms);
            }
        }
    }

    outcome.check(
        "reference_pair_bit_identical",
        bit_identical(&first, &second),
    );
    outcome.check(
        "items_ingested_equals_offered",
        pair.ingest_matches && tally.ingest_matches,
    );
    outcome.check(
        "window_count_and_order_match_reference",
        pair.scorer.sequence_failures == 0 && tally.scorer.sequence_failures == 0,
    );
    outcome.check(
        "sessions_did_not_error",
        pair.sessions_ok && tally.sessions_ok,
    );
    let killed = workload.drive == Drive::DistKill;
    outcome.check(
        "healthy_runs_not_degraded",
        pair.scorer.degraded == 0 && (killed || tally.scorer.degraded == 0),
    );
    if killed {
        outcome.check("kill_runs_degraded", tally.scorer.degraded > 0);
    }
    // The product is an estimate *with an interval*: whatever a change
    // does to speed, nominal-95% intervals that cover the truth less than
    // nine times in ten are wrong answers, not a slower run. (Smoke runs
    // score too few windows to judge.)
    if !p.smoke {
        outcome.check(
            "ci_coverage_at_least_0.90",
            tally.scorer.ci_coverage() >= 0.90,
        );
    }
    outcome.ops_attempted = pair.attempted + tally.attempted;
    // What failed, by kind, over the determinism pair and the measured reps.
    let failures = [
        ("failed_pushes", pair.failed_pushes + tally.failed_pushes),
        (
            "failed_windows",
            pair.scorer.sequence_failures + tally.scorer.sequence_failures,
        ),
        (
            "failed_sessions",
            pair.session_errors + tally.session_errors,
        ),
    ];
    outcome.ops_failed = failures.iter().map(|(_, n)| n).sum();

    outcome.metrics = vec![
        Metric::per_rep("setup_s", "s", p.setup_s.clone()),
        Metric::per_rep("items_per_s", "items/s", tally.items_per_s.clone()),
        Metric::pooled("accuracy_loss", "ratio", tally.scorer.accuracy_loss()),
        Metric::pooled("ci_coverage", "ratio", tally.scorer.ci_coverage()),
        Metric::pooled("rel_ci_halfwidth", "ratio", tally.scorer.rel_ci_halfwidth()),
        Metric::per_rep("emit_latency_p50_ms", "ms", tally.latency_p50_ms.clone()),
        Metric::per_rep("emit_latency_p90_ms", "ms", tally.latency_p90_ms.clone()),
        Metric::pooled("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    outcome.samples = vec![
        ("reps", tally.items_per_s.len() as f64),
        ("windows_scored", tally.scorer.measured as f64),
        ("latency_samples", tally.latencies_ms.len() as f64),
        ("degraded_windows", tally.scorer.degraded as f64),
        ("lost_items", tally.scorer.lost_items as f64),
        ("windows", tally.scorer.admitted as f64),
        ("items_offered", tally.items_offered as f64),
        (
            "generator_lag_p90_ms",
            stats::percentile(&lag_samples, 90.0),
        ),
        (
            "generator_lag_max_ms",
            stats::percentile(&lag_samples, 100.0),
        ),
    ];
    outcome
        .samples
        .extend(failures.map(|(kind, n)| (kind, n as f64)));
    // Reported, not failures: see `DistRun::late_windows` and the
    // reference pair of `dist-kill-f20`.
    outcome.samples.extend([
        ("late_windows", tally.late_windows as f64),
        ("reference_retries", f64::from(reference_retries)),
    ]);
    outcome
}
