#!/usr/bin/env bash
# Repo-wide checks: lint the whole workspace (warnings are errors), make
# sure the rustdoc for every crate still builds, run the test suite, and
# finish with a short invariant/differential-oracle fuzz smoke (fails on
# any violation; see EXPERIMENTS.md "Invariant checking & fuzzing").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> drain-fuzz smoke (invariants + differential oracle, 2-shard kernel)"
# --smoke pins the 2-shard allocation kernel, so every smoke point also
# soaks shard determinism: a sharded-kernel divergence shows up as an
# oracle failure here. The wake-driven Phase A scheduler is on (config
# default) for every leg, so the smoke — sabotage injection included —
# also soaks the wake graph under the deep sweep's missed-wake oracle.
cargo build --release -p drain-bench --bin drain_fuzz --quiet
./target/release/drain_fuzz --smoke --json results/drain_fuzz_smoke.json
./target/release/drain_fuzz --smoke --seed-fault \
    --json results/drain_fuzz_smoke_fault.json

echo "==> sharded-kernel differentials (serial vs 2/4-shard bit-identity)"
# Headline schemes at a low and a saturated rate: Stats, final cycle and
# trace bytes must be identical at every shard count (also run as part of
# the workspace suite above; repeated here so a sharded-kernel regression
# is named in CI output, not buried in a 400-test run).
cargo test -p drain-bench --test determinism -q sharded_kernel
cargo test -p drain-netsim -q shard

echo "==> drain-trace smoke (event trace + telemetry on a 4x4 mesh)"
# The binary re-parses every JSONL line it wrote and asserts drain-epoch
# cadence, so a zero exit is the smoke pass; golden-trace determinism is
# covered by the drain-bench test suite above.
cargo build --release -p drain-bench --bin drain_trace --quiet
./target/release/drain_trace --mesh 4x4 --cycles 8192 \
    --out results/trace_smoke
cargo test -p drain-bench --test golden_trace -q

echo "==> trace overhead benchmark (smoke mode)"
cargo bench -p drain-bench --bench trace_overhead -- --test

echo "==> repo benchmark (quick mode: every workload once, all output checks)"
# One short repetition of the seven BENCHMARK.json workloads with every
# output check on (see benchmark/README.md), plus the golden pins:
# trace-byte and Stats digests of the saturated presets (see DESIGN.md,
# "Determinism contract"). Any change to the keyed draws, visit order or
# candidate ordering fails here, not in a figure regeneration a week
# later.
benchmark/run.sh --quick
cargo test -p drain-bench --test golden_pin -q

echo "==> drain-metrics smoke (registry + phase profiler + exposition round-trip)"
# The binary re-parses its merged JSONL stream and its Prometheus file
# (round-trip must be byte-identical) and asserts the merged phase
# attribution sums to ~100%; the profiler-is-invisible differentials get
# a named CI line alongside it.
cargo build --release -p drain-bench --bin drain_metrics --quiet
./target/release/drain_metrics --mesh 4x4 --cycles 8192 --points 2 \
    --out results/metrics_smoke
cargo test -p drain-bench --test metrics -q
# Golden pins must reproduce with the profiler sampling at the default
# cadence — metrics are pure observers and this holds them to it.
DRAIN_PROFILE=64 cargo test -p drain-bench --test golden_pin -q

echo "==> wake-scheduler smoke (wake-vs-dense differentials)"
# The golden-pin run above already gates the wake-driven Phase A scheduler
# (it is the config default) and repeats the pins with the dense scan
# forced in-process; here the wake-vs-dense differentials get a named CI
# line.
cargo test -p drain-bench --test determinism -q wake_scheduler

echo "==> results guard (cheap figures must reproduce the committed results/*.txt)"
# results/*.txt back every number in EXPERIMENTS.md. Re-run the figures
# that take seconds and diff their stdout against the committed files,
# ignoring the engine summary line (wall time, thread count). A simulator
# change that moves results must regenerate results/ and restate
# EXPERIMENTS.md in the same PR.
cargo build --release -p drain-bench --bins --quiet
guard_dir=$(mktemp -d)
trap 'rm -rf "$guard_dir"' EXIT
summary='^[a-z0-9_]+: [0-9]+ points \('
for fig in fig04 fig06 fig09 fig11 table1 table2; do
    DRAIN_RESULTS_DIR="$guard_dir/results" DRAIN_CACHE_DIR="$guard_dir/cache" \
        "./target/release/$fig" | grep -vE "$summary" > "$guard_dir/$fig.txt"
    diff <(grep -vE "$summary" "results/$fig.txt") "$guard_dir/$fig.txt" \
        || { echo "results/$fig.txt is stale: regenerate results/ (see EXPERIMENTS.md)"; exit 1; }
done

echo "All checks passed."
