//! The six workloads, by name. Later issues refer to these names; the
//! `why` sentences are repeated in `BENCHMARK.json` and the README.

/// Items pushed per `push_batch` call, on every workload.
pub const CHUNK_ITEMS: usize = 4_096;

/// Event-time length of the base stream: 4 s at 61.2k items/s is ~245k
/// items, 5.9 MB of 24-byte items. Longer streams were tried first (40 s,
/// 59 MB; then 16 s, 23.5 MB): on this shared host they fall out of the
/// process's share of the last-level cache whenever a neighbour is busy,
/// and `agg-dense-f01` then measured the neighbours' memory traffic rather
/// than the code (interquartile spread 15% and 4.7% of the median against
/// 1.4% at 5.9 MB, dips of 27% and 18% against 5%; see the README).
pub const FULL_EVENT_MS: i64 = 4_000;
/// `dist-kill-f20` alone keeps a 16 s stream: its reps last as long as the
/// fault clocks make them, not as long as memory makes them, and sixteen
/// panes give each rep enough windows on either side of the death.
pub const KILL_EVENT_MS: i64 = 16_000;
/// `--smoke` size: the same shapes, the smallest stream that still holds
/// one pane of every workload.
pub const SMOKE_EVENT_MS: i64 = 2_000;

/// Open-loop send rate of `dist-paced-f20`, items per millisecond of
/// wall clock. 8M items/s kept generator lag flat on the 2-core
/// reference host (p90 lag well under one chunk period); it is frozen
/// here so every later run offers the same load.
pub const PACED_ITEMS_PER_MS: u64 = 8_000;
/// Wall-clock lead-in of every paced session whose windows are
/// order-checked but not measured.
pub const PACED_WARMUP_MS: i64 = 480;

/// Which sub-stream mix the base stream is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Three Gaussian strata at 48k/12k/1.2k items per event-second.
    Dense,
    /// 2,048 Gaussian strata with Zipf(1) rates, same total rate.
    Wide,
}

/// Which engine, driven how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Closed loop through a local session on the aggregated engine.
    Aggregated,
    /// Closed loop through a local session on the sharded engine, N=1.
    Sharded,
    /// Open loop, distributed K=1 over loopback TCP, wall-clock paced.
    DistPaced,
    /// Closed loop, distributed K=2, worker 1 dies half-way.
    DistKill,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload exists: what it stresses that the others do not.
    pub why: &'static str,
    /// The engine and load shape.
    pub drive: Drive,
    /// The base stream's mix.
    pub stream: StreamKind,
    /// `FixedFraction` sampling budget.
    pub fraction: f64,
    /// Window size and slide, milliseconds of event time.
    pub window_ms: (i64, i64),
}

/// The workloads, in the order reports list them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "agg-dense-f20",
        why: "Reservoirs fill at once, so the sampler's replacement path and its slot traffic do the work; single-threaded baseline of sharded-dense-f20.",
        drive: Drive::Aggregated,
        stream: StreamKind::Dense,
        fraction: 0.20,
        window_ms: (2_000, 1_000),
    },
    Workload {
        name: "agg-dense-f01",
        why: "Skip-ahead makes sampling nearly free, so push_batch's copy, pane splitting and memory bandwidth dominate: the control for replacement-path changes.",
        drive: Drive::Aggregated,
        stream: StreamKind::Dense,
        fraction: 0.01,
        window_ms: (2_000, 1_000),
    },
    Workload {
        name: "agg-wide-f20",
        why: "2,048 Zipf strata and 100 ms panes: short runs, many pane closes, 10-pane windows, so grouping, pane close, combine and estimation show; guards per-pane overhead.",
        drive: Drive::Aggregated,
        stream: StreamKind::Wide,
        fraction: 0.20,
        window_ms: (1_000, 100),
    },
    Workload {
        name: "sharded-dense-f20",
        why: "Stream, budget and seed of agg-dense-f20 on the sharded engine at N=1: the difference is exactly the fabric (route, copy, ring handoff, close barrier, merge).",
        drive: Drive::Sharded,
        stream: StreamKind::Dense,
        fraction: 0.20,
        window_ms: (2_000, 1_000),
    },
    Workload {
        name: "dist-paced-f20",
        why: "Open loop at a fixed 8M items/s over loopback TCP, K=1: the only workload that measures how long an answer takes; counterweight to throughput won by batching deeper.",
        drive: Drive::DistPaced,
        stream: StreamKind::Dense,
        fraction: 0.20,
        window_ms: (10, 10),
    },
    Workload {
        name: "dist-kill-f20",
        why: "Distributed K=2 where worker 1 dies half-way and never returns: the only workload where supervision, force-merge and interval widening run.",
        drive: Drive::DistKill,
        stream: StreamKind::Dense,
        fraction: 0.20,
        window_ms: (2_000, 1_000),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
