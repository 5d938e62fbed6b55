//! `drain-metrics`: metrics-registry / phase-profiler smoke harness and
//! JSONL export demo.
//!
//! Two phases, both exercising the unified `drain_` metrics namespace:
//!
//! 1. **Streaming**: one simulation runs with telemetry sampling and the
//!    kernel phase profiler enabled; every `--snapshot-period` cycles a
//!    registry snapshot is appended (as a `{"kind":"metrics",...}` line)
//!    to `<out>/stream.jsonl`, merged in cycle order with the telemetry
//!    samples (`{"kind":"telemetry",...}`) taken in the same window.
//! 2. **Sweep**: a small multi-point sweep runs through the
//!    [`SweepEngine`]; every per-point snapshot plus the engine's own
//!    `drain_sweep_*` job metrics merge into one registry written as one
//!    JSONL line to `<out>/drain_metrics.jsonl`, which is immediately
//!    re-parsed: the line must be valid JSON and every counter sample
//!    must read back under its `name{labels}` key with the same value
//!    (any mismatch is fatal). The merged phase-profile attribution
//!    prints as a table and its shares must sum to ~100%; the merged
//!    wake-scheduler counters print after it, with the injection-queue
//!    heads' parks and skips broken out, and then the kernel work
//!    counters (`drain_kernel_work_total`) in total and per flit-hop.
//!
//! `stream.jsonl` and `drain_metrics.jsonl` are the only files written
//! to `<out>`. Everything asserted here is also covered by
//! unit/integration tests; this binary is the end-to-end smoke run wired
//! into `scripts/check.sh`.
//!
//! ```text
//! drain_metrics [--mesh WxH] [--rate R] [--cycles N] [--points K]
//!               [--profile-period P] [--telemetry-period T]
//!               [--snapshot-period S] [--seed S]
//!               [--out DIR]
//! ```

use std::path::PathBuf;

use drain_bench::engine::SweepEngine;
use drain_bench::report::results_dir;
use drain_bench::scheme::DrainVariant;
use drain_bench::table::{banner, print_table};
use drain_bench::{parse_mesh, parse_positive, parse_rate, Flags, Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{MetricValue, MetricsSnapshot, Phase, TraceConfig};
use drain_topology::Topology;

struct Args {
    mesh: (u16, u16),
    rate: f64,
    cycles: u64,
    points: u64,
    profile_period: u64,
    telemetry_period: u64,
    snapshot_period: u64,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        mesh: (8, 8),
        rate: 0.10,
        cycles: 16_384,
        points: 4,
        profile_period: 64,
        telemetry_period: 256,
        snapshot_period: 4_096,
        seed: 1,
        out: results_dir().join("metrics"),
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next_flag() {
        let f = flag.as_str();
        match f {
            "--mesh" => args.mesh = flags.value(f, parse_mesh),
            "--rate" => args.rate = flags.value(f, parse_rate),
            "--cycles" => args.cycles = flags.value(f, parse_positive),
            "--points" => args.points = flags.parsed(f),
            "--profile-period" => args.profile_period = flags.value(f, parse_positive),
            "--telemetry-period" => args.telemetry_period = flags.parsed(f),
            "--snapshot-period" => args.snapshot_period = flags.value(f, parse_positive),
            "--seed" => args.seed = flags.parsed(f),
            "--out" => args.out = flags.parsed(f),
            _ => Flags::unknown(f),
        }
    }
    args
}

/// Phase 1: one streaming simulation emitting merged JSONL.
fn streaming_phase(args: &Args, topo: &Topology) -> MetricsSnapshot {
    let trace_cfg = TraceConfig::default().with_telemetry(args.telemetry_period);
    let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim_traced(
        topo,
        false,
        SyntheticPattern::UniformRandom,
        args.rate,
        args.seed,
        1_024,
        1,
        trace_cfg,
    );
    sim.set_profile_period(args.profile_period);

    let mut stream = String::new();
    let mut next = 0;
    while next < args.cycles {
        let slice = args.snapshot_period.min(args.cycles - next);
        sim.run(slice);
        next += slice;
        // Telemetry samples taken during this slice all carry stamps at
        // or before the slice boundary, so draining them first keeps the
        // merged stream in cycle order.
        for s in sim.core_mut().telemetry_mut().take_samples() {
            stream.push_str(&s.to_jsonl(args.telemetry_period));
            stream.push('\n');
        }
        stream.push_str(&sim.metrics_snapshot().to_jsonl(sim.core().cycle()));
        stream.push('\n');
    }

    let stream_path = args.out.join("stream.jsonl");
    std::fs::write(&stream_path, &stream).expect("write stream.jsonl");
    // Re-parse the merged stream; a malformed line is a bug.
    let mut n_metrics = 0u64;
    let mut n_telemetry = 0u64;
    for (i, line) in stream.lines().enumerate() {
        let v = drain_bench::json::parse(line)
            .unwrap_or_else(|e| panic!("stream line {} does not parse: {e}", i + 1));
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("metrics") => n_metrics += 1,
            Some("telemetry") => n_telemetry += 1,
            other => panic!("stream line {} has unexpected kind {other:?}", i + 1),
        }
    }
    assert!(n_metrics > 0, "streaming phase must emit metrics lines");
    println!(
        "stream: {n_metrics} metrics + {n_telemetry} telemetry lines -> {}",
        stream_path.display()
    );

    sim.metrics_snapshot()
}

/// Phase 2: a small sweep; returns the merged registry across all points
/// plus the engine's own job metrics.
fn sweep_phase(args: &Args, topo: &Topology, scale: Scale) -> MetricsSnapshot {
    let seeds: Vec<u64> = (0..args.points).map(|i| args.seed + i).collect();
    let mut engine = SweepEngine::new("drain_metrics", scale);
    let snapshots = engine.run_jobs(
        &seeds,
        |&seed| {
            let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim(
                topo,
                false,
                SyntheticPattern::UniformRandom,
                args.rate,
                seed,
                1_024,
            );
            sim.set_profile_period(args.profile_period);
            sim.run(args.cycles);
            sim.metrics_snapshot()
        },
        |_, _| args.cycles,
    );
    let mut merged = MetricsSnapshot::new();
    for snap in &snapshots {
        merged.merge(snap);
    }
    merged.merge(&engine.metrics_snapshot());
    engine.finish();
    merged
}

/// Parses the registry's JSONL `line` back and checks that every counter
/// sample of `snap` reads back under its `name{labels}` key with the same
/// value; returns how many counters were checked.
fn check_reads_back(snap: &MetricsSnapshot, line: &str) -> usize {
    let parsed = drain_bench::json::parse(line)
        .unwrap_or_else(|e| panic!("drain_metrics.jsonl does not parse: {e}"));
    let mut checked = 0;
    for fam in snap.families() {
        for s in &fam.samples {
            if let MetricValue::Counter(v) = s.value {
                let key = s.key(&fam.name);
                let back = parsed.get(&key).and_then(|j| j.as_u64());
                assert_eq!(back, Some(v), "counter {key} does not read back");
                checked += 1;
            }
        }
    }
    checked
}

/// Prints the merged phase attribution and asserts shares sum to ~100%.
fn phase_table(merged: &MetricsSnapshot) {
    let cycle_nanos = merged
        .counter_value("drain_profile_cycle_nanos_total")
        .expect("profiler was enabled, cycle nanos must be present");
    let sampled = merged
        .counter_value("drain_profile_sampled_cycles_total")
        .unwrap_or(0);
    assert!(sampled > 0, "profiler sampled no cycles");
    let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    names.push("other");
    let mut rows = Vec::new();
    let mut share_sum = 0.0;
    for name in names {
        let nanos = merged
            .counter_value_labeled("drain_profile_phase_nanos_total", &[("phase", name)])
            .unwrap_or(0);
        let share = 100.0 * nanos as f64 / cycle_nanos as f64;
        share_sum += share;
        rows.push(vec![
            name.to_string(),
            nanos.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    rows.push(vec![
        "total".to_string(),
        cycle_nanos.to_string(),
        format!("{share_sum:.1}%"),
    ]);
    print_table(
        "kernel phase attribution (merged over all points)",
        &["phase", "nanos", "share"],
        &rows,
    );
    // `other` is cycle - sum(phases) by construction, but saturating
    // (clock jitter can make a phase overshoot its cycle); allow slack.
    assert!(
        (share_sum - 100.0).abs() < 2.0,
        "phase shares must sum to ~100%, got {share_sum:.2}%"
    );
}

/// Prints the merged wake-scheduler counters: every event, and the
/// injection-queue heads' share of parks and skips.
fn wake_table(merged: &MetricsSnapshot) {
    let count = |family: &str, event: &str| {
        merged
            .counter_value_labeled(family, &[("event", event)])
            .unwrap_or(0)
    };
    let events = [
        "parks",
        "skips",
        "wakes",
        "spurious_wakes",
        "wake_alls",
        "stalls",
    ];
    let rows: Vec<Vec<String>> = events
        .iter()
        .map(|&event| {
            let injection = match event {
                "parks" | "skips" => count("drain_wake_injection_events_total", event).to_string(),
                _ => "-".to_string(),
            };
            vec![
                event.to_string(),
                count("drain_wake_events_total", event).to_string(),
                injection,
            ]
        })
        .collect();
    print_table(
        "wake scheduler (merged over all points)",
        &["event", "total", "injection heads"],
        &rows,
    );
}

/// Prints the merged kernel work counters, in total and per flit-hop (a
/// speed-up's work delta, readable without the host clock).
fn work_table(merged: &MetricsSnapshot) {
    let flit_hops = merged.counter_value("drain_flit_hops_total").unwrap_or(0);
    assert!(flit_hops > 0, "the points moved no flits");
    let rows: Vec<Vec<String>> = ["heads_visited", "ports_probed"]
        .iter()
        .map(|&unit| {
            let total = merged
                .counter_value_labeled("drain_kernel_work_total", &[("unit", unit)])
                .unwrap_or(0);
            vec![
                unit.to_string(),
                total.to_string(),
                format!("{:.3}", total as f64 / flit_hops as f64),
            ]
        })
        .collect();
    print_table(
        "kernel work (merged over all points)",
        &["unit", "total", "per flit-hop"],
        &rows,
    );
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    banner(
        "metrics",
        "unified metrics registry + phase profiler smoke",
        scale,
    );
    std::fs::create_dir_all(&args.out).expect("create metrics output dir");

    let topo = Topology::mesh(args.mesh.0, args.mesh.1);
    let stream_snap = streaming_phase(&args, &topo);
    let mut merged = sweep_phase(&args, &topo, scale);
    merged.merge(&stream_snap);

    let path = args.out.join("drain_metrics.jsonl");
    let line = merged.to_jsonl(args.cycles);
    std::fs::write(&path, line.clone() + "\n").expect("write drain_metrics.jsonl");
    let counters = check_reads_back(&merged, &line);
    println!(
        "registry: {} families, {counters} counters read back, {} bytes -> {}",
        merged.families().len(),
        line.len(),
        path.display()
    );

    phase_table(&merged);
    wake_table(&merged);
    work_table(&merged);
    println!("drain_metrics: OK");
}
