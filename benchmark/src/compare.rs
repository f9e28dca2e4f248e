//! Result sets and their comparison.
//!
//! `suite` runs every workload once per seed, each in a fresh process,
//! and gathers the summary lines into one set file. `compare` holds two
//! sets against the bounds in `BENCHMARK.json`, one row per workload ×
//! end-to-end metric — the tool behind the same-code agreement criterion
//! and behind every later claim.

use crate::json::Json;
use crate::report::{host_stamp, package_dir};
use crate::spec::WORKLOADS;
use crate::stats;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Runs every workload once per entry of `seeds` (in that order, seeds
/// outermost, so drift over the session spreads over all workloads) and
/// writes the set to `out`. Returns the process exit code: 1 if any run
/// was incorrect or failed an operation.
pub fn suite(traced: bool, seeds: &[u64], out: &Path, seconds: f64, smoke: bool) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut clean = true;
    for &seed in seeds {
        for workload in &WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("spawn a run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let summary = stdout
                .lines()
                .next_back()
                .and_then(|line| Json::parse(line).ok());
            let Some(summary @ Json::Obj(_)) = summary else {
                eprintln!(
                    "{} seed {seed}: no summary line (exit {:?})\n{}",
                    workload.name,
                    output.status.code(),
                    String::from_utf8_lossy(&output.stderr)
                );
                clean = false;
                continue;
            };
            let correct = summary.get("correct") == Some(&Json::Bool(true));
            let failed = summary.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            clean &= correct && failed == 0.0;
            eprintln!(
                "{} seed {seed}: correct={correct} failed={failed} ({:.0} s elapsed)",
                workload.name,
                started.elapsed().as_secs_f64()
            );
            let labels = [
                ("workload".to_string(), Json::str(workload.name)),
                ("seed".to_string(), Json::Num(seed as f64)),
            ];
            runs.push(Json::Obj(
                labels
                    .into_iter()
                    .chain(summary.members().iter().cloned())
                    .collect(),
            ));
        }
    }
    let set = Json::obj([
        ("host", host_stamp()),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        (
            "seeds",
            Json::nums(&seeds.iter().map(|&s| s as f64).collect::<Vec<_>>()),
        ),
        ("run_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("wall_seconds", Json::Num(started.elapsed().as_secs_f64())),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    if let Err(e) = std::fs::write(out, set.pretty()) {
        eprintln!("cannot write {}: {e}", out.display());
        return 1;
    }
    i32::from(!clean)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every value of `metric` on `workload` in a result set.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map_or(&[][..], Json::items)
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `worse`, `same`, `unresolved`, or `missing` when a set has no
    /// value for the row.
    pub verdict: &'static str,
    /// The printed line.
    pub line: String,
}

/// Compares set `b` against base set `a` under the bounds of `spec`
/// (a parsed `BENCHMARK.json`): per row the medians, quartiles, the ratio
/// `b/a`, the wider of the two run-to-run spreads (interquartile range ÷
/// median), and a verdict. A spread wider than the bound makes the row
/// `unresolved` rather than `same`; `setup_s` is exempt, as it is for the
/// acceptance driver.
pub fn compare_sets(spec: &Json, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in spec.get("workloads").map_or(&[][..], Json::items) {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in spec.get("end_to_end").map_or(&[][..], Json::items) {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(a, workload, name), values(b, workload, name));
            let mut row = Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                verdict: "missing",
                line: String::new(),
            };
            if !va.is_empty() && !vb.is_empty() {
                let (ma, mb) = (stats::median(&va), stats::median(&vb));
                let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
                let spread = stats::relative_spread(&va).max(stats::relative_spread(&vb));
                let worse_by = if lower { mb - ma } else { ma - mb } / ma.abs();
                row.verdict = if spread > bound && name != "setup_s" {
                    "unresolved"
                } else if worse_by > bound {
                    "worse"
                } else {
                    "same"
                };
                row.line = format!(
                    "{ma:>14.6} [{:>14.6}, {:>14.6}]  {mb:>14.6} [{:>14.6}, {:>14.6}]  \
                     b/a {:>7.4} (base {ma:.6})  spread {:>6.2}%  bound {:>5.1}%",
                    qa.0,
                    qa.1,
                    qb.0,
                    qb.1,
                    mb / ma,
                    spread * 100.0,
                    bound * 100.0,
                );
            }
            rows.push(row);
        }
    }
    rows
}

/// `sa-benchmark compare a.json b.json`: prints the rows and returns 0
/// only when every row is `same`.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let spec_path = package_dir().join("../BENCHMARK.json");
    let (spec, a, b) = match (load(&spec_path), load(a), load(b)) {
        (Ok(spec), Ok(a), Ok(b)) => (spec, a, b),
        (spec, a, b) => {
            for e in [spec.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    println!(
        "{:<18} {:<20} {:<10} median a [q1, q3]  median b [q1, q3]  ratio  spread  bound",
        "workload", "metric", "verdict"
    );
    let rows = compare_sets(&spec, &a, &b);
    for row in &rows {
        println!(
            "{:<18} {:<20} {:<10} {}",
            row.workload, row.metric, row.verdict, row.line
        );
    }
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} same, {} worse, {} unresolved, {} missing",
        rows.len(),
        count("same"),
        count("worse"),
        count("unresolved"),
        count("missing")
    );
    i32::from(count("same") != rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                values
                    .iter()
                    .map(|&v| {
                        Json::obj([
                            ("workload", Json::str("w")),
                            (
                                "metrics",
                                Json::obj([("m", Json::obj([("value", Json::Num(v))]))]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn spec(better: &str) -> Json {
        Json::obj([
            (
                "workloads",
                Json::Arr(vec![Json::obj([("name", Json::str("w"))])]),
            ),
            (
                "end_to_end",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("m")),
                    ("better", Json::str(better)),
                    ("bound", Json::Num(0.10)),
                ])]),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = set(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = set(&[100.0, 140.0, 60.0, 130.0, 70.0]);
        let verdict = |better, a: &Json, b: &Json| compare_sets(&spec(better), a, b)[0].verdict;
        assert_eq!(verdict("lower", &base, &slower), "worse");
        assert_eq!(verdict("higher", &base, &slower), "same");
        assert_eq!(verdict("higher", &slower, &base), "worse");
        assert_eq!(verdict("lower", &base, &base), "same");
        assert_eq!(verdict("lower", &base, &noisy), "unresolved");
        assert_eq!(verdict("lower", &base, &set(&[])), "missing");
    }
}
