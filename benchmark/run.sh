#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repo root:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--smoke] [--aa]                     the suite
#   benchmark/run.sh --print-spec                                    BENCHMARK.json
#
# See benchmark/README.md.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# Quiet when there is nothing to build, so a run prints only its result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/phpbench" --out "$here/out" "$@"
