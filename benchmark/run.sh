#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
#   benchmark/run.sh aa [RUNS] [--seconds S]   # the benchmark against itself
#   benchmark/run.sh manifest                  # prints BENCHMARK.json
#
# The last line of standard output is the result as one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
DMEM_BENCH_DIR="$here" exec "$target/release/dmem-benchmark" "$@"
