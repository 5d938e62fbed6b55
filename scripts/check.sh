#!/usr/bin/env bash
# Repo-wide checks: lint the whole workspace (warnings are errors), make
# sure the rustdoc for every crate still builds, run the test suite, and
# finish with a short invariant/differential-oracle fuzz smoke (fails on
# any violation; see EXPERIMENTS.md "Invariant checking & fuzzing").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace (every suite once)"
# One run of every suite. On failure the full log is printed; on success
# one line per non-empty suite, plus one per test of the differential
# families — wake scheduler (bit-identity of Stats, traces and telemetry
# between the default run and run_rerouting, which wakes every head
# before every cycle, on the synthetic points, on arbitrary topologies
# and on the closed-loop Fig 12 cell with its mixed packet lengths),
# profiler and telemetry (pure observers),
# golden traces and golden pins (trace-byte and Stats digests of the
# saturated presets, DESIGN.md "Determinism"), the Fig 12 cell that used
# to wedge (finish cycles per scheme, deep check on every cycle), the
# congested-irregular benchmark point under the deep check on every
# cycle (where source-queue heads park), the
# tier-1 structure properties (routing tables against a queue BFS and
# their definitions), the mask-walk differential (Phase A's walk over the
# routing's port masks against the per-slot reference over the expanded
# candidate list, on seeded random arenas) and the routing tables' own
# unit tests (distance, up*/down*, DoR: the closed-form XY table and the
# pinned summaries) — crate-internal, so matched by module path — so a
# regression there is
# named in CI output, not buried in a 400-test run. Any change to the
# keyed draws, visit order or candidate ordering fails here, not in a
# figure regeneration a week later.
cargo test --workspace > "$tmp/test.log" 2>&1 || { cat "$tmp/test.log"; exit 1; }
awk '
    function emit() { if (suite != "") { print suite; suite = "" } print }
    /^ +(Running|Doc-tests) / {
        suite = $0
        named = /tests\/(determinism|golden_trace|golden_pin|metrics|wedge|congested|proptest_invariants|rng_props)\.rs/
        next
    }
    /^test result: ok\. 0 passed; 0 failed; 0 ignored/ { next }
    /^test result/ { emit(); next }
    /^test / && (named || /(::mask_walk_tests|distance::tests|updown::tests|routing::dor::tests)::/) { emit() }
' "$tmp/test.log"

echo "==> drain-fuzz smoke (invariants + differential oracle)"
# Every leg runs the wake-driven Phase A scheduler (Phase A has no other
# mode), so the smoke — sabotage injection included — also soaks the
# wake graph under the deep sweep's missed-wake oracle.
cargo build --release -p drain-bench --bin drain_fuzz --quiet
./target/release/drain_fuzz --smoke --json results/drain_fuzz_smoke.json
./target/release/drain_fuzz --smoke --seed-fault \
    --json results/drain_fuzz_smoke_fault.json
# A seed above 2^53 must print exactly, not rounded through an f64.
./target/release/drain_fuzz --points 1 --seed 18446744073709551615 --json "$tmp/seed_max.json"
grep -qF '"base_seed":18446744073709551615' "$tmp/seed_max.json" \
    || { echo "drain_fuzz rounded a 64-bit seed"; cat "$tmp/seed_max.json"; exit 1; }

echo "==> drain-trace smoke (event trace + telemetry on a 4x4 mesh)"
# The binary re-parses every trace and telemetry line it wrote, both
# through the one JSON reader (drain_netsim::json), and asserts
# drain-epoch cadence, so a zero exit is the smoke pass; golden-trace
# determinism is covered by the drain-bench test suite above.
cargo build --release -p drain-bench --bin drain_trace --quiet
./target/release/drain_trace --mesh 4x4 --cycles 8192 \
    --out results/trace_smoke

echo "==> repo benchmark (its own tests, then quick mode: every workload once, all output checks)"
# benchmark/ is a package of its own that imports the crates from outside:
# its tests hold BENCHMARK.json to the harness, and one short repetition
# of the seven workloads runs with every output check on (see
# benchmark/README.md). A change that breaks the benchmark's imports or
# contract fails here, not in the PR driver — including a change to any
# crate's dependency list, which makes cargo rewrite benchmark/Cargo.lock
# without saying so.
cp benchmark/Cargo.lock "$tmp/benchmark.lock"
cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick
cmp -s benchmark/Cargo.lock "$tmp/benchmark.lock" \
    || { echo "benchmark/Cargo.lock was rewritten by building or running the benchmark: a dependency list changed"; exit 1; }

echo "==> drain-metrics smoke (registry + phase profiler + JSONL read-back)"
# The binary re-parses its merged JSONL stream, reads every counter of the
# merged registry back from drain_metrics.jsonl, and asserts the merged
# phase attribution sums to ~100%. The output directory starts empty, so
# it holds this build's files and nothing else: exactly the two the
# binary documents, the registry being one `{"kind":"metrics",...}` line.
cargo build --release -p drain-bench --bin drain_metrics --quiet
rm -rf results/metrics_smoke
./target/release/drain_metrics --mesh 4x4 --cycles 8192 --points 2 \
    --out results/metrics_smoke
[ "$(ls results/metrics_smoke)" = "$(printf 'drain_metrics.jsonl\nstream.jsonl')" ] \
    || { echo "results/metrics_smoke must hold only drain_metrics.jsonl and stream.jsonl"; ls results/metrics_smoke; exit 1; }
[ "$(wc -l < results/metrics_smoke/drain_metrics.jsonl)" = 1 ] \
    && head -c 17 results/metrics_smoke/drain_metrics.jsonl | grep -qxF '{"kind":"metrics"' \
    || { echo "drain_metrics.jsonl must be one line starting {\"kind\":\"metrics\""; exit 1; }
# Bad input is one `error:` line and exit code 2, never a backtrace: an
# unknown flag, a flag that was removed, a value outside its range that
# once ran silently, an on/off switch that is neither 0 nor 1, a scheme
# name not in `Scheme`'s table, and DRAIN asked to be its own reference.
cargo build --release -p drain-bench --bin table1 --quiet
bin=./target/release
for bad in "$bin/drain_metrics --listen x" "$bin/drain_fuzz --shards 2" \
    "$bin/drain_trace --rate NaN" "DRAIN_NO_CACHE=yes $bin/table1" \
    "$bin/drain_trace --scheme bogus" "$bin/drain_fuzz --baseline drain"; do
    rc=0
    env $bad > /dev/null 2> "$tmp/flag.err" || rc=$?
    [ "$rc" = 2 ] && [ "$(wc -l < "$tmp/flag.err")" = 1 ] && grep -q '^error: ' "$tmp/flag.err" \
        || { echo "$bad must end in one error line and exit 2 (got exit $rc)"; cat "$tmp/flag.err"; exit 1; }
done

echo "==> results guard (cheap figures must reproduce the committed results/*.txt)"
# results/*.txt back every number in EXPERIMENTS.md. Re-run the figures
# that take seconds — fig12/13/15 are the coherence runs, nothing else
# here pins the MESI engine end to end; fig08's walk-through is the one
# figure with an idle (zero-rate) source — and diff their stdout against
# the committed files, ignoring the engine summary line (wall time, thread
# count). A simulator change that moves results must regenerate results/
# and restate EXPERIMENTS.md in the same PR.
cargo build --release -p drain-bench --bins --quiet
guard_dir="$tmp/guard"
mkdir "$guard_dir"
summary='^[a-z0-9_]+: [0-9]+ points \('
for fig in fig04 fig06 fig08 fig09 fig11 fig12 fig13 fig15 table1 table2; do
    DRAIN_RESULTS_DIR="$guard_dir/results" DRAIN_CACHE_DIR="$guard_dir/cache" \
        "./target/release/$fig" | grep -vE "$summary" > "$guard_dir/$fig.txt"
    diff <(grep -vE "$summary" "results/$fig.txt") "$guard_dir/$fig.txt" \
        || { echo "results/$fig.txt is stale: regenerate results/ (see EXPERIMENTS.md)"; exit 1; }
done

echo "All checks passed."
