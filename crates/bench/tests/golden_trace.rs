//! Golden-trace regression tests: the observability event stream of a
//! deterministic run must be byte-identical across repeated runs, across
//! worker-thread counts (the sweep engine promises bit-identical results
//! no matter the parallelism) and across shard counts (the sharded
//! allocation kernel promises the same), with the trace stream as the
//! strictest witness of those promises. Also covered: the flight
//! recorder still dumps a replayable seed when the violating router is
//! owned by a non-zero shard.

use drain_bench::cache::ResultCache;
use drain_bench::engine::SweepEngine;
use drain_bench::scheme::DrainVariant;
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{TraceConfig, TraceSink};
use drain_topology::Topology;

/// One deterministic traced run: a 2×2 mesh under DRAIN with a short
/// epoch (so drain-epoch events appear), serialized to JSONL bytes,
/// on the `shards`-way allocation kernel (1 = serial).
fn traced_jsonl_sharded(seed: u64, shards: usize) -> String {
    let topo = Topology::mesh(2, 2);
    let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim_traced(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.10,
        seed,
        256,
        1,
        TraceConfig::events_on(),
    );
    sim.set_shards(shards);
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(4_096);
    let events = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed");
    assert!(!events.is_empty(), "a traced run must emit events");
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

/// Serial shorthand used by the pre-existing tests.
fn traced_jsonl(seed: u64) -> String {
    traced_jsonl_sharded(seed, 1)
}

#[test]
fn golden_trace_is_identical_across_runs() {
    let a = traced_jsonl(7);
    let b = traced_jsonl(7);
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
    assert!(
        a.contains("\"ev\":\"drain-epoch-start\""),
        "short-epoch run must trace drain windows"
    );
    let c = traced_jsonl(8);
    assert_ne!(a, c, "different seeds must diverge");
}

#[test]
fn golden_trace_is_worker_thread_invariant() {
    let jobs: Vec<u64> = vec![3, 4, 5];
    let run = |threads: usize| -> Vec<String> {
        let mut engine =
            SweepEngine::with("goldentrace", Scale::Quick, threads, ResultCache::disabled());
        engine.run_jobs(&jobs, |&seed| traced_jsonl(seed), |_, _| 4_096)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "trace bytes must not depend on the worker-thread count"
    );
}

/// The same traced run must serialize to byte-identical JSONL on the
/// serial kernel and on every sharded kernel.
#[test]
fn golden_trace_is_shard_count_invariant() {
    for seed in [7u64, 8] {
        let serial = traced_jsonl_sharded(seed, 1);
        for k in [2usize, 4] {
            assert_eq!(
                serial,
                traced_jsonl_sharded(seed, k),
                "seed {seed}: trace bytes must not depend on shard count {k}"
            );
        }
    }
}

/// A violation on a router owned by a *non-zero* shard still produces a
/// complete flight-recorder dump carrying the replayable seed: the
/// drain turn-table is corrupted only on links terminating in shard 1 of
/// the 2-way partition, and the sabotaged run executes on the 2-shard
/// kernel.
#[test]
fn sharded_flight_recorder_dumps_replayable_seed() {
    use drain_core::{DrainConfig, DrainMechanism};
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::SyntheticTraffic;
    use drain_netsim::{CheckConfig, RunOutcome, Sim, SimConfig, TraceEvent, ViolationKind};
    use drain_path::DrainPath;
    use drain_topology::partition::Partition;

    let dir = std::env::temp_dir().join(format!(
        "drain-shard-flightrec-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let topo = Topology::mesh(4, 4);
    let part = Partition::balanced(&topo, 2);
    let mut path = DrainPath::compute(&topo).expect("connected topology");
    // Skew only the turns of links whose downstream router shard 1 owns:
    // the forced-move validator must then fire inside the non-zero shard.
    let skew: Vec<_> = topo
        .link_ids()
        .filter(|&l| part.shard_of(topo.link(l).dst) == 1)
        .map(|l| (l, path.next_link(path.next_link(l))))
        .collect();
    assert!(!skew.is_empty(), "2-way mesh partition must own links");
    for (from, to) in skew {
        path.corrupt_turn_for_tests(from, to);
    }

    let seed = 0x5AAD_F11E;
    let config = SimConfig {
        num_classes: 1,
        seed,
        watchdog_threshold: 0,
        // Drain forced moves need occupied escape VCs to expose the skew.
        escape_entry_patience: 0,
        shards: 2,
        checks: CheckConfig::full().no_panic().with_progress_horizon(20_000),
        trace: TraceConfig::events_on().with_flight_recorder(dir.clone()),
        ..SimConfig::drain_default()
    };
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 256,
            full_drain_period: 1,
            ..DrainConfig::default()
        },
    );
    let mut sim = Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(mech),
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            0.10,
            1,
            seed ^ 0x7AFF1C,
        )),
    );
    let outcome = sim.run(40_000);
    assert_eq!(outcome, RunOutcome::InvariantViolation);
    let v = sim.violation().expect("sabotaged run must trip the checker");
    assert_eq!(v.kind, ViolationKind::ForcedMove);
    assert_eq!(v.seed, seed, "violation must carry the replay seed");

    let dump = sim.flight_record().expect("failed run persists a dump");
    let text = std::fs::read_to_string(dump).unwrap();
    let last = text.lines().last().expect("non-empty dump");
    match TraceEvent::parse_jsonl(last) {
        Ok(TraceEvent::InvariantViolation { seed: s, .. }) => {
            assert_eq!(s, seed, "dump carries the replay seed");
        }
        other => panic!("final dump event should be the violation, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
