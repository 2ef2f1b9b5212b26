#!/usr/bin/env bash
# Fault-injection soak: seeded faults against all four accelerators, full
# availability and byte-identity required. Exits nonzero on any regression.
# Response bodies are dropped inside the soak binary (keep_bodies = false),
# so long seed lists run in bounded memory.
# Usage: scripts/soak.sh [--workers N] [--arena] [--memo] [--shed] [--shape S]
#                        [seed ...]
#   --workers N  run each seed through an N-worker pool (threaded mode);
#                with --shed, the *simulated* worker count draining the queue
#   --shed       overload-survival soak: shaped arrivals at ~2x capacity
#                through the deadline-aware admission controller (machines
#                stay live between requests; shedding must stay graceful)
#   --shape S    arrival shape for --shed runs
#                (steady|diurnal|burst|flash-crowd)
#   --arena      arena/epoch allocation for the request-scoped heap churn
#                (reference machines stay on free lists, so replay
#                cross-checks the two allocators under fault injection)
#   --memo       attach one shared cross-request memo cache to the script
#                every request ends with (primaries run it on the compiled
#                VM, references tree-walk it): proven call sites replay out
#                of the cache while faults churn, and the run fails unless
#                the tier engaged and replay stayed byte-identical
#   default: a fixed seed set, single worker plus a 4-worker pool pass
set -euo pipefail
cd "$(dirname "$0")/.."

workers=1
arena=()
memo=()
shed=()
shape=()
seeds=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workers)
      workers="$2"
      shift 2
      ;;
    --arena)
      arena=(--arena)
      shift
      ;;
    --memo)
      memo=(--memo)
      shift
      ;;
    --shed)
      shed=(--shed)
      shift
      ;;
    --shape)
      shape=(--shape "$2")
      shift 2
      ;;
    *)
      seeds+=("$1")
      shift
      ;;
  esac
done

default_seeds=0
if [ ${#seeds[@]} -eq 0 ]; then
  seeds=(20170613 1 12345)
  default_seeds=1
fi

cargo build --release -q -p bench --bin soak

if [ ${#shed[@]} -gt 0 ]; then
  for seed in "${seeds[@]}"; do
    echo "== soak seed $seed (overload${shape:+, shape ${shape[1]}}, $workers simulated workers${arena:+, arena}${memo:+, memo}) =="
    ./target/release/soak "$seed" --shed --workers "$workers" \
      ${shape[@]+"${shape[@]}"} ${arena[@]+"${arena[@]}"} ${memo[@]+"${memo[@]}"}
  done
  echo "Overload soak passed for seeds: ${seeds[*]}"
  exit 0
fi

for seed in "${seeds[@]}"; do
  if [ "$workers" -gt 1 ]; then
    echo "== soak seed $seed ($workers workers${arena:+, arena}${memo:+, memo}) =="
    ./target/release/soak "$seed" --workers "$workers" ${arena[@]+"${arena[@]}"} ${memo[@]+"${memo[@]}"}
  else
    echo "== soak seed $seed${arena:+ (arena)}${memo:+ (memo)} =="
    ./target/release/soak "$seed" ${arena[@]+"${arena[@]}"} ${memo[@]+"${memo[@]}"}
  fi
done

# With the default seed set, also exercise the threaded pool once.
if [ "$workers" -eq 1 ] && [ "$default_seeds" -eq 1 ]; then
  echo "== soak seed ${seeds[0]} (4 workers${arena:+, arena}${memo:+, memo}) =="
  ./target/release/soak "${seeds[0]}" --workers 4 ${arena[@]+"${arena[@]}"} ${memo[@]+"${memo[@]}"}
fi

echo "Soak passed for seeds: ${seeds[*]} (workers: $workers${arena:+, arena}${memo:+, memo})"
