#!/usr/bin/env python3
"""Parent/change pair runner for the repository benchmark (BENCHMARK.json).

Builds the benchmark twice, once from a clean export of the parent
revision and once from the working tree, each into its own target
directory. Then, for each requested workload in turn, it runs N
alternating pairs at one seed, one fresh process per run, each for the
benchmark's own `run_seconds`. For every end-to-end metric it prints
each side's median and quartiles (the exclusive method of
`statistics.quantiles`, the rule `sa-benchmark compare` uses), the
change's wins out of N, whether the change's median beats the parent's
by more than the parent's interquartile range, the metric's bound from
BENCHMARK.json and the parent's own spread (interquartile range over
median); a row whose parent spread exceeds its bound is flagged, since
such a metric cannot tell a regression of that size from noise. With
--traced N it adds N traced (per-layer) runs per side and workload,
alternated like the pairs, and reports each per-layer metric's median. It
ends with the benchmark's own `sa-benchmark compare` over the two result
sets and, with --out, writes everything to one JSON file stamped with
host cores, `rustc -V` and both revisions.

    python3 tools/ab.py --workload agg-wide-f20[,dist-paced-f20,...|all] \\
        --seed 42 --pairs 10 [--parent <rev>] [--traced [N]] [--work <dir>] \\
        [--out <file.json>]

The change is always the working tree; --parent defaults to HEAD, and a
run whose parent is HEAD with a clean tree is refused (it would compare
the code with itself). --work holds the export, both target directories
and the raw run summaries (default: a new directory under the system
temporary directory); it must lie outside the repository. Nothing is
written inside the repository except --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def build(manifest, target):
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(manifest), "--bins"],
                   env={**os.environ, "CARGO_TARGET_DIR": str(target)}, check=True)


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(spec, name, seed, pairs, summaries, traced):
    """Prints one workload's tables and returns its part of the report."""
    report = {
        "operations": {
            side: {"all_correct": all(s["correct"] for s in summaries[side]),
                   "attempted": sum(s["attempted"] for s in summaries[side]),
                   "failed": sum(s["failed"] for s in summaries[side])}
            for side in SIDES
        },
        "end_to_end": {},
        "traced": {},
    }
    print(f"\n## {name}, seed {seed}, {pairs} alternating pairs of {spec['run_seconds']} s")
    print()
    print("| metric | better | parent median [q1, q3] | change median [q1, q3] "
          "| change/parent | change wins | beats parent IQR | bound | parent IQR/median |")
    print("|---|---|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        metric_name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = {side: [s["metrics"][metric_name]["value"] for s in summaries[side]]
                  for side in SIDES}
        stats = {side: spread(values[side]) for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        beats = gain > parent_iqr
        ratio = (stats["change"]["median"] / stats["parent"]["median"]
                 if stats["parent"]["median"] else None)
        parent_spread = (parent_iqr / abs(stats["parent"]["median"])
                         if stats["parent"]["median"] else None)
        noisy = parent_spread is not None and parent_spread > bound
        report["end_to_end"][metric_name] = {
            "better": better,
            "bound": bound,
            "parent": {**stats["parent"], "values": values["parent"]},
            "change": {**stats["change"], "values": values["change"]},
            "ratio": ratio,
            "wins": wins,
            "beats_parent_iqr": beats,
            "parent_iqr_over_median": parent_spread,
            "parent_spread_exceeds_bound": noisy,
        }
        fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        shown_ratio = f"{ratio:.4f}" if ratio is not None else "-"
        shown_spread = f"{parent_spread:.4f}" if parent_spread is not None else "-"
        print(f"| `{metric_name}` | {better} | {fmt(stats['parent'])} | {fmt(stats['change'])} "
              f"| {shown_ratio} | {wins}/{pairs} | {'yes' if beats else 'no'} | {bound} "
              f"| {shown_spread}{' **exceeds bound**' if noisy else ''} |")
    for side in SIDES:
        ops = report["operations"][side]
        print(f"\n{side}: all runs correct: {ops['all_correct']}; "
              f"failed {ops['failed']} of {ops['attempted']} operations")

    if traced["parent"]:
        runs = len(traced["parent"])
        print(f"\n| traced metric (median of {runs} runs per side) | unit | parent | change "
              "| change/parent |")
        print("|---|---|---|---|---|")
        for metric_name, first in traced["parent"][0]["metrics"].items():
            values = {side: [t["metrics"][metric_name]["value"] for t in traced[side]
                             if metric_name in t["metrics"]] for side in SIDES}
            if len(values["change"]) != runs:
                continue
            p, c = (statistics.median(values[side]) for side in SIDES)
            ratio = c / p if p else None
            report["traced"][metric_name] = {"unit": first["unit"], "parent": p,
                                             "change": c, "ratio": ratio,
                                             "parent_values": values["parent"],
                                             "change_values": values["change"]}
            shown = f"{ratio:.4f}" if ratio is not None else "-"
            print(f"| `{metric_name}` | {first['unit']} | {p:.6g} | {c:.6g} | {shown} |")
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, a comma-separated list of them, or `all`")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--traced", type=int, nargs="?", const=1, default=0, metavar="N",
                    help="add N traced runs per side and workload (1 if N is omitted)")
    ap.add_argument("--work")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has "
                 f"{', '.join(known)}")
    work = Path(args.work or tempfile.mkdtemp(prefix="sa-ab-")).resolve()
    if work == REPO or REPO in work.parents:
        sys.exit("--work must lie outside the repository")
    work.mkdir(parents=True, exist_ok=True)

    parent = git("rev-parse", args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    if parent == head and not dirty:
        sys.exit(f"parent {args.parent} is HEAD and the tree is clean: "
                 "nothing to compare (pass --parent <rev>)")
    change = head + ("+dirty" if dirty else "")

    # The parent as a plain export (no worktree registered in the repository).
    src = work / "parent-src"
    subprocess.run(["rm", "-rf", str(src)], check=True)
    src.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", parent],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(src)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {parent} failed")
    print(f"building parent {parent} and change {change}", file=sys.stderr)
    manifests = {"parent": src / "benchmark/Cargo.toml",
                 "change": REPO / "benchmark/Cargo.toml"}
    for side in SIDES:
        build(manifests[side], work / f"t-{side}")

    def run(side, workload, trace):
        binary = "sa-benchmark-traced" if trace else "sa-benchmark"
        out = subprocess.run(
            [str(work / f"t-{side}/release/{binary}"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    report = {
        "host": {"host_cores": os.cpu_count(),
                 "rustc": subprocess.run(["rustc", "-V"], capture_output=True,
                                         text=True, check=True).stdout.strip()},
        "parent": parent,
        "change": change,
        "workloads": workloads,
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": spec["run_seconds"],
        "order": "per workload, alternating: parent first in odd pairs, "
                 "change first in even pairs",
        "results": {},
    }
    print(f"parent {parent}, change {change}; "
          f"{report['host']['host_cores']} cores, {report['host']['rustc']}")

    rows = {side: [] for side in SIDES}
    for workload in workloads:
        summaries = {side: [] for side in SIDES}
        for i in range(1, args.pairs + 1):
            # Alternate which side goes first, so drift does not favour one.
            for side in (SIDES if i % 2 else SIDES[::-1]):
                summaries[side].append(run(side, workload, False))
            print(f"{workload}: pair {i}/{args.pairs} done", file=sys.stderr)
        traced = {side: [] for side in SIDES}
        for i in range(1, args.traced + 1):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                traced[side].append(run(side, workload, True))
        report["results"][workload] = summarize(spec, workload, args.seed, args.pairs,
                                                summaries, traced)
        for side in SIDES:
            rows[side].extend({"workload": workload, "seed": args.seed, **s}
                              for s in summaries[side])

    for side in SIDES:
        (work / f"{side}-set.json").write_text(json.dumps({"runs": rows[side]}, indent=1))
    compare = subprocess.run(
        [str(work / "t-change/release/sa-benchmark"), "compare",
         str(work / "parent-set.json"), str(work / "change-set.json")],
        capture_output=True, text=True, check=False)
    report["compare"] = [
        line for line in compare.stdout.splitlines()
        if line.startswith((*workloads, "workload")) or "rows:" in line
    ]
    print()
    print("\n".join(report["compare"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
