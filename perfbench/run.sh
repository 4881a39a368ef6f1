#!/usr/bin/env bash
# Build the served binary and the benchmark from this checkout, then run
# the benchmark with the given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload fanout_5k --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin firehose >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/firehose" "$@"
