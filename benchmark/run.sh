#!/usr/bin/env bash
# Builds the benchmark harness and starts it with the given arguments.
#
#   benchmark/run.sh [--seed S]            every workload, both passes; prints
#                                          the table, writes benchmark/out/
#   benchmark/run.sh --quick               1 repetition, cycle counts / 10,
#                                          all checks, writes nothing
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last line is the result
#
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target when unset.
# The package has no dependency outside this repository, so it builds
# offline and leaves the root Cargo.toml / Cargo.lock alone.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/drain-benchmark" --out-dir "$here/out" "$@"
