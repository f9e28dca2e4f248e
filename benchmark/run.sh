#!/usr/bin/env bash
# The entry point BENCHMARK.json names. Builds, from source, the bin that
# serves the requested `--trace` value — `sa-benchmark` (end to end,
# tracing off) or `sa-benchmark-traced` (per layer) — and runs it with the
# arguments unchanged:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The two bins are separate on purpose: the end-to-end one touches only
# the session surface, so it still builds when a refactor renames
# something `src/layers.rs` calls.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin=sa-benchmark
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=sa-benchmark-traced
    fi
    prev="$arg"
done

cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --bin "$bin" >&2
exec "${CARGO_TARGET_DIR:-$root/benchmark/target}/release/$bin" "$@"
