#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== uncalled public surface =="
# Every `pub fn` under crates/*/src must be named somewhere besides its own
# definition (in crates, src, tests, examples or benchmark/src). A name
# printed here has no caller: delete it rather than keep it. Two types that
# share a method name hide each other, so the scan can miss, never misfire.
uncalled=$(for n in $(grep -rhoP 'pub(\([a-z]+\))? fn \K\w+' crates/*/src | sort -u); do
  if [ "$(grep -rwo --include='*.rs' "$n" crates src tests examples benchmark/src | wc -l)" -le 1 ]; then
    echo "$n"
  fi
done)
if [ -n "$uncalled" ]; then
  echo "pub fn with no caller:" $uncalled >&2
  exit 1
fi

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo doc (broken or private intra-doc links are errors) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --offline --no-deps --workspace

echo "== benchmark package: unit tests =="
# benchmark/ is a package of its own that path-depends on crates/*; nothing
# above builds benchmark/src/adapter.rs, so a signature change in crates/*
# would otherwise first be noticed by the pipeline's benchmark run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark suite smoke =="
benchmark/run.sh --smoke >target/benchmark-smoke.out

echo "== interprocedural analysis =="
# Lints are errors: every corpus lint must be covered by the allowlist.
# (Covers the taint lints and the region pass's [cross-request-escape]
# findings alike — any new escaping site fails here until allowlisted.)
cargo run -q -p bench --bin analyze -- --gate scripts/taint-allowlist.txt \
  >target/analyze-gate.out

echo "== taint-allowlist drift check =="
# Every allowlist pattern must still match a real corpus finding; a stale
# entry would silently waive a lint that no longer exists.
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  if ! grep -qF -- "$line" target/analyze-gate.out; then
    echo "stale allowlist entry (matches no corpus lint): $line" >&2
    exit 1
  fi
done <scripts/taint-allowlist.txt
echo "all allowlist entries resolve to live corpus lints"

echo "== fault-injection soak =="
scripts/soak.sh

echo "== arena-epoch soak smoke (4 workers) =="
scripts/soak.sh --workers 4 --arena 20170613

echo "== memo soak smoke (4 workers, shared cross-request cache) =="
# One shared memo cache across all workers with the full fault plan live:
# proven call sites replay out of the cache while breakers trip and recover
# around them, and every response must still replay byte-identically.
scripts/soak.sh --workers 4 --memo 20170613

echo "== overload-survival soak smoke (flash crowd, shedding) =="
# Shaped arrivals at ~2x capacity through the admission controller, with
# the full fault plan live: shedding must be early and graceful, admitted
# requests must all serve, and replay must stay byte-identical. Seeds
# 20170613, 1, 12345 and 42 all pass this shape; 12345 is the one this
# smoke has always run (it was chosen when 20170613's hash-table faults
# landed on entries no request read again, see CHANGES.md PR 14).
scripts/soak.sh --shed --shape flash-crowd 12345

echo "== bench smokes (release) =="
# Each bench applies its own gates and exits non-zero when one fails.
cargo build --release -q -p bench --bin serve_bench --bin alloc_bench \
  --bin vm_bench --bin memo_bench --bin overload_bench
for b in serve alloc vm memo; do
  "./target/release/${b}_bench" --smoke --out "target/BENCH_${b}_smoke.json"
done
# The overload sweep has no smoke mode: the full run (every load factor,
# 240 arrivals a run) takes well under a second and applies every gate.
./target/release/overload_bench --out target/BENCH_overload_full.json

echo "== Figure 8 live-memory timeline (release) =="
# The allocator's timeline is off unless a caller turns it on, and
# fig08_memusage is the one caller that does. Both of its timelines must
# hold samples, or the opt-in no longer reaches the allocator.
cargo run --release -q -p bench --bin fig08_memusage >target/fig08.out
if grep -q '(0 samples' target/fig08.out || [ "$(grep -c ' samples; ' target/fig08.out)" -ne 2 ]; then
  echo "fig08_memusage: a live-memory timeline is empty or missing" >&2
  exit 1
fi

echo "== Figure 14 qualitative claim (release) =="
# The paper finds Drupal the application the accelerators help least.
# fig14_exectime prints that check; a change to the modelled machine or to
# an application's driver can flip it, and no pin reads the line.
cargo run --release -q -p bench --bin fig14_exectime >target/fig14.out
if ! grep -q '^check: Drupal benefits least: true' target/fig14.out; then
  echo "fig14_exectime: Drupal no longer benefits least" >&2
  exit 1
fi

echo "== http front-end smoke (release) =="
cargo build --release -q -p bench --bin serve_http
scripts/http_smoke.sh target/release/serve_http

echo "All checks passed."
