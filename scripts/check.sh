#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo doc (broken intra-doc links are errors) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --no-deps --workspace

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
# requests must all serve, and replay must stay byte-identical. Seed 12345:
# with the script phase on, the hash-table faults of 20170613 land on
# entries the scripts left behind and never read again, so that breaker
# does not trip under this shape (seed sensitivity, see CHANGES.md PR 14).
scripts/soak.sh --shed --shape flash-crowd 12345

echo "== bench smokes (release) =="
# Each bench applies its own gates and exits non-zero when one fails.
cargo build --release -q -p bench --bin serve_bench --bin alloc_bench \
  --bin vm_bench --bin memo_bench --bin overload_bench
for b in serve alloc vm memo overload; do
  "./target/release/${b}_bench" --smoke --out "target/BENCH_${b}_smoke.json"
done

echo "== http front-end smoke (release) =="
cargo build --release -q -p bench --bin serve_http
scripts/http_smoke.sh target/release/serve_http

echo "All checks passed."
