#!/usr/bin/env bash
# The benchmark's single entry point: build `stackbench` from source into
# $CARGO_TARGET_DIR (default .bench_build, which is also where scratch
# data, traces and result records go), then run it from the repo root.
#
#   bench/run.sh run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                        [--repeat R] [--out FILE]
#   bench/run.sh trace   ...            same as run --trace 1
#   bench/run.sh smoke                  all workloads at 1/100 size + name check
#   bench/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stackbench" "$@"
