//! Shared harness for the figure-reproduction benches.
//!
//! Every panel of the paper's evaluation (Figures 4–10) has a bench target
//! under `benches/` named after it; each builds its workload here, runs the
//! systems under comparison, and prints the same rows/series the paper
//! reports (plus a CSV copy under `results/`). Absolute numbers differ from
//! the paper's 17-node cluster — EXPERIMENTS.md records the shape checks
//! that must hold instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sa_batched::Cluster;
use sa_estimate::accuracy_loss;
use sa_types::{StratumId, StreamItem};
use std::fmt::Write as _;
use std::sync::OnceLock;
use streamapprox::{
    run_batched, run_pipelined, BatchedConfig, BatchedSystem, FixedFraction, PipelinedConfig,
    PipelinedSystem, Query, RunOutput,
};

/// The six systems of the paper's comparison (§5.1 methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Flink-based StreamApprox.
    FlinkStreamApprox,
    /// Spark-based StreamApprox.
    SparkStreamApprox,
    /// Spark-based simple random sampling.
    SparkSrs,
    /// Spark-based stratified sampling.
    SparkSts,
    /// Native Spark (no sampling).
    NativeSpark,
    /// Native Flink (no sampling).
    NativeFlink,
}

impl System {
    /// The four sampling systems compared in the accuracy panels.
    pub const SAMPLED: [System; 4] = [
        System::FlinkStreamApprox,
        System::SparkStreamApprox,
        System::SparkSrs,
        System::SparkSts,
    ];

    /// All six systems, in the paper's legend order.
    pub const ALL: [System; 6] = [
        System::FlinkStreamApprox,
        System::SparkStreamApprox,
        System::SparkSrs,
        System::SparkSts,
        System::NativeFlink,
        System::NativeSpark,
    ];

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            System::FlinkStreamApprox => "Flink-SA",
            System::SparkStreamApprox => "Spark-SA",
            System::SparkSrs => "Spark-SRS",
            System::SparkSts => "Spark-STS",
            System::NativeSpark => "NativeSpark",
            System::NativeFlink => "NativeFlink",
        }
    }
}

/// Execution environment shared by a bench's runs, sized for the host.
#[derive(Debug, Clone)]
pub struct Env {
    /// Batched-engine configuration (Spark analogue).
    pub batched: BatchedConfig,
    /// Pipelined-engine configuration (Flink analogue).
    pub pipelined: PipelinedConfig,
}

impl Env {
    /// An environment over a cluster with the given worker count.
    pub fn with_workers(workers: usize) -> Env {
        Env {
            batched: BatchedConfig::new(Cluster::new(workers)),
            pipelined: PipelinedConfig::new().with_sample_workers(workers),
        }
    }

    /// The default environment: workers = available cores (min 2).
    pub fn host() -> Env {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        Env::with_workers(cores)
    }
}

/// Runs one system at one sampling fraction over a recorded stream.
/// Native systems ignore the fraction.
pub fn run_system<R>(
    env: &Env,
    system: System,
    fraction: f64,
    query: &Query<R>,
    items: Vec<StreamItem<R>>,
) -> RunOutput
where
    R: Send + Sync + Clone + 'static,
{
    match system {
        System::SparkStreamApprox => run_batched(
            &env.batched,
            BatchedSystem::StreamApprox,
            query,
            &mut FixedFraction(fraction),
            items,
        ),
        System::SparkSrs => run_batched(
            &env.batched,
            BatchedSystem::Srs,
            query,
            &mut FixedFraction(fraction),
            items,
        ),
        System::SparkSts => run_batched(
            &env.batched,
            BatchedSystem::Sts,
            query,
            &mut FixedFraction(fraction),
            items,
        ),
        System::NativeSpark => run_batched(
            &env.batched,
            BatchedSystem::Native,
            query,
            &mut FixedFraction(1.0),
            items,
        ),
        System::FlinkStreamApprox => run_pipelined(
            &env.pipelined,
            PipelinedSystem::StreamApprox,
            query,
            &mut FixedFraction(fraction),
            items,
        ),
        System::NativeFlink => run_pipelined(
            &env.pipelined,
            PipelinedSystem::Native,
            query,
            &mut FixedFraction(1.0),
            items,
        ),
    }
}

/// Runs one system `reps` times and returns the run with the median
/// throughput — the paper averages over 10 runs (§6.1); the median is the
/// noise-robust equivalent affordable at repo scale.
pub fn measure<R>(
    env: &Env,
    system: System,
    fraction: f64,
    query: &Query<R>,
    items: &[StreamItem<R>],
    reps: usize,
) -> RunOutput
where
    R: Send + Sync + Clone + 'static,
{
    assert!(reps > 0, "need at least one repetition");
    let mut runs: Vec<RunOutput> = (0..reps)
        .map(|_| run_system(env, system, fraction, query, items.to_vec()))
        .collect();
    runs.sort_by(|a, b| {
        a.throughput()
            .partial_cmp(&b.throughput())
            .expect("finite throughputs")
    });
    runs.swap_remove(runs.len() / 2)
}

/// Which answer the accuracy metric compares (matches each figure's query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// The windowed global mean (microbenchmarks).
    Mean,
    /// The windowed global sum.
    Sum,
    /// Per-stratum sums, averaged over strata (network case study).
    StratumSum,
    /// Per-stratum means, averaged over strata (taxi case study).
    StratumMean,
}

/// The paper's accuracy-loss metric (`|approx − exact| / exact`, §6.1)
/// averaged over all windows (and strata, for per-stratum metrics) of a
/// run, with the native run as ground truth. Windows with zero ground
/// truth are skipped.
pub fn mean_accuracy(exact: &RunOutput, approx: &RunOutput, metric: Metric) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for e in &exact.windows {
        let Some(a) = approx.window_at(e.window) else {
            continue;
        };
        match metric {
            Metric::Mean => {
                if e.mean.value != 0.0 {
                    total += accuracy_loss(a.mean.value, e.mean.value);
                    n += 1;
                }
            }
            Metric::Sum => {
                if e.sum.value != 0.0 {
                    total += accuracy_loss(a.sum.value, e.sum.value);
                    n += 1;
                }
            }
            Metric::StratumSum => {
                for (stratum, er) in &e.sum_by_stratum {
                    if er.value == 0.0 {
                        continue;
                    }
                    // A lost stratum is 100% loss — SRS pays for overlooked
                    // sub-streams here, as in the paper.
                    let av = a.stratum_sum(*stratum).map(|r| r.value).unwrap_or(0.0);
                    total += accuracy_loss(av, er.value).min(1.0);
                    n += 1;
                }
            }
            Metric::StratumMean => {
                for (stratum, er) in &e.mean_by_stratum {
                    if er.value == 0.0 {
                        continue;
                    }
                    let av = a.stratum_mean(*stratum).map(|r| r.value).unwrap_or(0.0);
                    total += accuracy_loss(av, er.value).min(1.0);
                    n += 1;
                }
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Finds, by bisection over the sampling fraction, the throughput a system
/// reaches at a given accuracy loss — the methodology of Figures 6(b),
/// 8(c), 9(c) ("we fixed the same accuracy loss for all four systems and
/// then measured their respective throughputs").
pub fn throughput_at_accuracy<R>(
    env: &Env,
    system: System,
    target_loss: f64,
    metric: Metric,
    query: &Query<R>,
    items: &[StreamItem<R>],
    exact: &RunOutput,
) -> (f64, f64)
where
    R: Send + Sync + Clone + 'static,
{
    // Accuracy loss decreases with fraction; find the smallest fraction
    // whose loss ≤ target, then report that run's throughput.
    let mut lo = 0.01;
    let mut hi = 1.0;
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        let out = run_system(env, system, mid, query, items.to_vec());
        let loss = mean_accuracy(exact, &out, metric);
        if loss <= target_loss {
            best = Some((out.throughput(), mid));
            hi = mid;
        } else {
            lo = mid;
        }
    }
    best.unwrap_or_else(|| {
        let out = run_system(env, system, 1.0, query, items.to_vec());
        (out.throughput(), 1.0)
    })
}

/// A result table printed to stdout and mirrored as CSV under `results/`.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let mut header = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(header, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Prints the table and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        if std::fs::create_dir_all(dir).is_ok() {
            let mut csv = String::new();
            let _ = writeln!(csv, "{}", self.headers.join(","));
            for row in &self.rows {
                let _ = writeln!(csv, "{}", row.join(","));
            }
            let path = format!("{dir}/{name}.csv");
            if std::fs::write(&path, csv).is_ok() {
                println!("   (saved {path})");
            }
        }
    }
}

fn results_dir() -> &'static str {
    static DIR: OnceLock<String> = OnceLock::new();
    DIR.get_or_init(|| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")))
}

/// Formats a throughput as `K items/s`.
pub fn fmt_kps(throughput: f64) -> String {
    format!("{:.0}", throughput / 1_000.0)
}

/// Formats an accuracy loss as a percentage.
pub fn fmt_loss(loss: f64) -> String {
    format!("{:.3}", loss * 100.0)
}

/// Looks up a per-stratum value in a window result for time-series plots.
pub fn stratum_of(id: u32) -> StratumId {
    StratumId(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::WindowSpec;
    use sa_workloads::Mix;

    fn tiny_env() -> Env {
        Env::with_workers(2)
    }

    fn tiny_query() -> Query<f64> {
        Query::new(|v: &f64| *v).with_window(WindowSpec::tumbling_millis(1_000))
    }

    #[test]
    fn all_systems_run_the_same_stream() {
        let env = tiny_env();
        let items = Mix::gaussian([800.0, 200.0, 20.0]).generate(2_000, 1);
        let query = tiny_query();
        for system in System::ALL {
            let out = run_system(&env, system, 0.5, &query, items.clone());
            assert_eq!(out.items_ingested, items.len() as u64, "{}", system.label());
            assert!(!out.windows.is_empty(), "{}", system.label());
        }
    }

    #[test]
    fn accuracy_metric_is_zero_for_identical_runs() {
        let env = tiny_env();
        let items = Mix::gaussian([500.0, 100.0, 10.0]).generate(2_000, 2);
        let query = tiny_query();
        let exact = run_system(&env, System::NativeSpark, 1.0, &query, items.clone());
        for metric in [
            Metric::Mean,
            Metric::Sum,
            Metric::StratumSum,
            Metric::StratumMean,
        ] {
            assert_eq!(mean_accuracy(&exact, &exact, metric), 0.0, "{metric:?}");
        }
    }

    #[test]
    fn sampled_run_has_nonzero_but_bounded_loss() {
        let env = tiny_env();
        let items = Mix::gaussian([2_000.0, 400.0, 40.0]).generate(2_000, 3);
        let query = tiny_query();
        let exact = run_system(&env, System::NativeSpark, 1.0, &query, items.clone());
        let approx = run_system(&env, System::SparkStreamApprox, 0.4, &query, items);
        let loss = mean_accuracy(&exact, &approx, Metric::Mean);
        assert!(loss > 0.0);
        assert!(loss < 0.1, "loss {loss}");
    }

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
