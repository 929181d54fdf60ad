#!/usr/bin/env bash
# Builds gb-serve, gb-router and the perfbench load generator from source,
# then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload hit-binary --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the result object. On SIGTERM/SIGINT/SIGHUP the load
# generator and every server it spawned are killed before exiting.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
  -p gb-service --bin gb-serve -p gb-router --bin gb-router >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

"$CARGO_TARGET_DIR/release/perfbench" "$@" &
bench=$!

cleanup() {
  kill -KILL "$bench" 2>/dev/null || true
  wait "$bench" 2>/dev/null || true
  # perfbench lists the servers it spawned, one pid per line, in
  # perfbench-run-<its pid>/pids under the target directory.
  run_dir="$CARGO_TARGET_DIR/perfbench-run-$bench"
  if [[ -f "$run_dir/pids" ]]; then
    while read -r pid; do
      kill -KILL "$pid" 2>/dev/null || true
    done <"$run_dir/pids"
  fi
  rm -rf "$run_dir"
}
trap 'cleanup; exit 143' TERM INT HUP

wait "$bench"
