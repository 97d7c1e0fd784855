#!/usr/bin/env bash
# Builds drmap-serve, drmap-router and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload zipf_hits --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --bin drmap-serve --bin drmap-router >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" \
    --scratch "$CARGO_TARGET_DIR/perfbench-runs" "$@"
