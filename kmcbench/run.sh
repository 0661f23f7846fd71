#!/usr/bin/env bash
# Builds the `tensorkmc` CLI and the benchmark into one target directory
# (CARGO_TARGET_DIR, default .bench_build), then runs the benchmark with
# the given arguments. Run from the root of a checkout:
#
#   bash kmcbench/run.sh --workload dilute_2v --seed 1 --seconds 10 --trace 0
#
# Cargo's own output goes to stderr; stdout carries only the report, whose
# last line is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path Cargo.toml --bin tensorkmc 1>&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path kmcbench/Cargo.toml 1>&2
exec "$target/release/kmcbench" "$@"
