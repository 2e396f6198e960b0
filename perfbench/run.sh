#!/usr/bin/env bash
# Builds the er-serve binary and the benchmark from this checkout, then runs
# the benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload serve-interactive --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin er-serve 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/er-serve" "$@"
