//! `BENCHMARK.json` and the bins must agree: every workload runs at smoke
//! size, and the names each bin prints are exactly the names declared.

use sa_benchmark::json::Json;
use sa_benchmark::spec::WORKLOADS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn declared(spec: &Json, section: &str) -> BTreeSet<String> {
    let names: Vec<String> = spec
        .get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    let set: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(set.len(), names.len(), "{section}: a name is used twice");
    for name in &set {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{section}: name {name:?} must match [A-Za-z0-9_.-]+"
        );
    }
    set
}

/// Runs one workload at smoke size and returns the metric names (with
/// units) of its summary line.
fn smoke(exe: &str, workload: &str, trace: &str) -> Vec<(String, String)> {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = Json::parse(stdout.lines().next_back().expect("a summary line"))
        .expect("the last line is one JSON object");
    let keys: Vec<&str> = summary.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        summary.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}"
    );
    assert_eq!(summary.get("failed"), Some(&Json::Num(0.0)), "{workload}");
    assert!(
        summary
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    summary
        .get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{workload}: {name} has no numeric value"
            );
            let unit = metric.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_names_equal_declared_names() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = declared(&spec, "workloads");
    let built_in: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, built_in);
    for entry in spec.get("workloads").expect("workloads").items() {
        let name = entry.get("name").and_then(Json::as_str).expect("a name");
        let why = entry.get("why").and_then(Json::as_str).expect("a why");
        let built = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("declared workload exists");
        assert_eq!(why, built.why, "{name}: the two why sentences differ");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    let units = |section: &str| -> BTreeSet<(String, String)> {
        spec.get(section)
            .expect("section")
            .items()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let end_to_end = declared(&spec, "end_to_end");
    assert!(end_to_end.contains("setup_s"));
    let per_layer = declared(&spec, "per_layer");
    assert!(end_to_end.is_disjoint(&per_layer), "a name is used twice");

    for workload in &workloads {
        let printed: BTreeSet<_> = smoke(env!("CARGO_BIN_EXE_sa-benchmark"), workload, "0")
            .into_iter()
            .collect();
        assert_eq!(printed, units("end_to_end"), "{workload} --trace 0");
        let printed: BTreeSet<_> = smoke(env!("CARGO_BIN_EXE_sa-benchmark-traced"), workload, "1")
            .into_iter()
            .collect();
        assert_eq!(printed, units("per_layer"), "{workload} --trace 1");
    }
}
