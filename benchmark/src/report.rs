//! What a run prints: every metric by name with its unit, raw per-rep
//! values, median and quartiles, stamped with host, toolchain, revision
//! and seed — and, as the last line of standard output, the one-object
//! summary the acceptance driver reads.

use crate::cli::RunArgs;
use crate::json::Json;
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value: the median of `per_rep` when there are several.
    pub value: f64,
    /// Raw values, one per rep (or per set-up, for `setup_s`); a single
    /// entry for metrics pooled over all reps.
    pub per_rep: Vec<f64>,
}

impl Metric {
    /// A metric pooled over the whole run.
    pub fn pooled(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            per_rep: vec![value],
        }
    }

    /// A metric measured once per rep, reported as the median.
    pub fn per_rep(name: &'static str, unit: &'static str, per_rep: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value: stats::median(&per_rep),
            per_rep,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Named output checks; any `false` makes the run incorrect.
    pub checks: Vec<(&'static str, bool)>,
    /// `push_batch` calls + windows expected.
    pub ops_attempted: u64,
    /// Pushes that failed or dropped items, windows missing, duplicated or
    /// out of order, sessions that errored.
    pub ops_failed: u64,
    /// Sample counts behind the pooled metrics.
    pub samples: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// All checks passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    /// Looks a sample count up; 0 when absent.
    pub fn sample(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Looks a metric's value up.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn tool_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The package directory (`benchmark/`).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/results/`, where traces and result sets live.
pub fn results_dir() -> PathBuf {
    package_dir().join("results")
}

/// Host cores, `rustc -V` and git revision: a number without them did
/// not happen (ROADMAP aim 1). The revision is `unknown` outside a git
/// checkout.
pub fn host_stamp() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("host_cores", Json::Num(cores as f64)),
        (
            "rustc",
            Json::str(tool_line("rustc", &["-V"], package_dir())),
        ),
        (
            "revision",
            Json::str(tool_line(
                "git",
                &["rev-parse", "--short", "HEAD"],
                package_dir(),
            )),
        ),
    ])
}

/// `VmHWM` of this process in MB — the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_json(m: &Metric) -> Json {
    let mut members = vec![("unit", Json::str(m.unit)), ("value", Json::Num(m.value))];
    // Pooled metrics have one value; the order statistics would repeat it.
    if m.per_rep.len() > 1 {
        let (q1, q3) = stats::quartiles(&m.per_rep);
        members.extend([
            ("per_rep", Json::nums(&m.per_rep)),
            ("median", Json::Num(stats::median(&m.per_rep))),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
        ]);
    }
    Json::obj(members)
}

/// The full report of one run. Ends with `"claim": null`: a run reports,
/// it does not claim.
pub fn full_report(args: &RunArgs, traced: bool, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(args.workload.name)),
        ("why", Json::str(args.workload.why)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("host", host_stamp()),
        (
            "checks",
            Json::obj(outcome.checks.iter().map(|(n, ok)| (*n, Json::Bool(*ok)))),
        ),
        ("ops_attempted", Json::Num(outcome.ops_attempted as f64)),
        ("ops_failed", Json::Num(outcome.ops_failed as f64)),
        (
            "samples",
            Json::obj(outcome.samples.iter().map(|(n, v)| (*n, Json::Num(*v)))),
        ),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| (m.name, metric_json(m)))),
        ),
        ("claim", Json::Null),
    ])
}

/// The one-object summary the acceptance driver reads from the last line
/// of standard output.
pub fn summary_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.ops_attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.ops_failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .compact()
}

/// Prints the full report, then the summary line, and returns the
/// process exit code: 0 for a correct run, 1 otherwise.
pub fn emit(args: &RunArgs, traced: bool, outcome: &Outcome) -> i32 {
    print!("{}", full_report(args, traced, outcome).pretty());
    println!("{}", summary_line(outcome));
    i32::from(!outcome.correct())
}
