#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload paper-fsync --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); traces and scratch state go under it too.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline \
    --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" --out "$target/perfbench-out" "$@"
