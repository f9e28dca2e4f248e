#!/usr/bin/env python3
"""Parent/change pair runner for the repository benchmark (BENCHMARK.json).

Builds the benchmark twice, once from a clean export of the parent
revision and once from the working tree, each into its own target
directory. Then it runs N alternating pairs of one workload at one seed,
one fresh process per run, each for the benchmark's own `run_seconds`.
For every end-to-end metric it prints each side's median and quartiles
(the exclusive method of `statistics.quantiles`, the rule
`sa-benchmark compare` uses), the change's wins out of N, and whether the
change's median beats the parent's by more than the parent's
interquartile range. With --traced it adds one traced (per-layer) run per
side. It ends with the benchmark's own `sa-benchmark compare` over the
two result sets and, with --out, writes everything to one JSON file
stamped with host cores, `rustc -V` and both revisions.

    python3 tools/ab.py --workload agg-wide-f20 --seed 42 --pairs 10 \\
        [--parent <rev>] [--traced] [--work <dir>] [--out <file.json>]

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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
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

    def run(side, trace):
        binary = "sa-benchmark-traced" if trace else "sa-benchmark"
        out = subprocess.run(
            [str(work / f"t-{side}/release/{binary}"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    summaries = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        # Alternate which side goes first, so drift does not favour one.
        for side in (SIDES if i % 2 else SIDES[::-1]):
            summaries[side].append(run(side, False))
        print(f"pair {i}/{args.pairs} done", file=sys.stderr)
    traced = {side: run(side, True) for side in SIDES} if args.traced else {}

    report = {
        "host": {"host_cores": os.cpu_count(),
                 "rustc": subprocess.run(["rustc", "-V"], capture_output=True,
                                         text=True, check=True).stdout.strip()},
        "parent": parent,
        "change": change,
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": spec["run_seconds"],
        "order": "alternating: parent first in odd pairs, change first in even pairs",
        "operations": {
            side: {"all_correct": all(s["correct"] for s in summaries[side]),
                   "attempted": sum(s["attempted"] for s in summaries[side]),
                   "failed": sum(s["failed"] for s in summaries[side])}
            for side in SIDES
        },
        "end_to_end": {},
        "traced": {},
    }

    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs of "
          f"{spec['run_seconds']} s; parent {parent}, change {change}; "
          f"{report['host']['host_cores']} cores, {report['host']['rustc']}")
    print()
    print("| metric | better | parent median [q1, q3] | change median [q1, q3] "
          "| change/parent | change wins | beats parent IQR |")
    print("|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [s["metrics"][name]["value"] for s in summaries[side]]
                  for side in SIDES}
        stats = {side: spread(values[side]) for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        beats = gain > stats["parent"]["q3"] - stats["parent"]["q1"]
        ratio = stats["change"]["median"] / stats["parent"]["median"]
        report["end_to_end"][name] = {
            "better": better,
            "bound": metric["bound"],
            "parent": {**stats["parent"], "values": values["parent"]},
            "change": {**stats["change"], "values": values["change"]},
            "ratio": ratio,
            "wins": wins,
            "beats_parent_iqr": beats,
        }
        fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"| `{name}` | {better} | {fmt(stats['parent'])} | {fmt(stats['change'])} "
              f"| {ratio:.4f} | {wins}/{args.pairs} | {'yes' if beats else 'no'} |")
    for side in SIDES:
        ops = report["operations"][side]
        print(f"\n{side}: all runs correct: {ops['all_correct']}; "
              f"failed {ops['failed']} of {ops['attempted']} operations")

    if traced:
        print("\n| traced metric (one run per side) | unit | parent | change | change/parent |")
        print("|---|---|---|---|---|")
        for name, p in traced["parent"]["metrics"].items():
            c = traced["change"]["metrics"].get(name)
            if c is None:
                continue
            ratio = c["value"] / p["value"] if p["value"] else None
            report["traced"][name] = {"unit": p["unit"], "parent": p["value"],
                                      "change": c["value"], "ratio": ratio}
            shown = f"{ratio:.4f}" if ratio is not None else "-"
            print(f"| `{name}` | {p['unit']} | {p['value']:.6g} | {c['value']:.6g} | {shown} |")

    for side in SIDES:
        rows = [{"workload": args.workload, "seed": args.seed, **s} for s in summaries[side]]
        (work / f"{side}-set.json").write_text(json.dumps({"runs": rows}, indent=1))
    compare = subprocess.run(
        [str(work / "t-change/release/sa-benchmark"), "compare",
         str(work / "parent-set.json"), str(work / "change-set.json")],
        capture_output=True, text=True, check=False)
    report["compare"] = [
        line for line in compare.stdout.splitlines()
        if line.startswith((args.workload, "workload")) or "rows:" in line
    ]
    print()
    print("\n".join(report["compare"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
