//! `drain-trace`: single-point observability inspector.
//!
//! Runs one fully configured simulation point with event tracing and
//! telemetry sampling enabled, then post-processes its own output:
//!
//! * the structured event stream goes to `<out>/trace.jsonl` (one event
//!   per line, see [`drain_netsim::trace`]);
//! * telemetry samples (per-router VC occupancy / queue depths / credit
//!   stalls, per-link utilization) go to `<out>/telemetry.jsonl`;
//! * a per-router utilization & misroute table is printed and written to
//!   `<out>/drain_trace_routers.csv`;
//! * a scheduler summary (wake-driven Phase A counters and per-site RNG
//!   draws, read from the unified metrics registry) is printed and
//!   written to `<out>/drain_trace_scheduler.csv`;
//! * the flight recorder is armed at `<out>/flightrec/`, so a failing
//!   point leaves a replayable dump.
//!
//! The binary re-parses every line it wrote (a malformed line is fatal)
//! and — for the DRAIN scheme — asserts drain-epoch events appear at the
//! configured cadence, which makes it the trace smoke test run by
//! `scripts/check.sh`.
//!
//! ```text
//! drain_trace [--mesh WxH] [--faults N] [--fault-seed S]
//!             [--scheme drain|escape-vc|spin] [--pattern NAME]
//!             [--rate R] [--seed S] [--epoch E] [--cycles C]
//!             [--telemetry-period P] [--out DIR]
//! ```

use std::path::PathBuf;

use drain_bench::engine::SweepEngine;
use drain_bench::report::{results_dir, write_csv_in};
use drain_bench::scheme::DrainVariant;
use drain_bench::sweep::plan::TopoSpec;
use drain_bench::table::{banner, f3, print_table};
use drain_bench::{
    check_mesh_faults, parse_mesh, parse_positive, parse_rate, usage_error, Flags, Scale, Scheme,
};
use drain_netsim::config::MAX_PACKET_FLITS;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{
    DrawSite, RunOutcome, TelemetrySample, TraceConfig, TraceEvent, TraceSink,
};
use drain_topology::{LinkId, NodeId, Topology};

struct Args {
    mesh: (u16, u16),
    faults: usize,
    fault_seed: u64,
    scheme: Scheme,
    pattern: SyntheticPattern,
    rate: f64,
    seed: u64,
    epoch: u64,
    cycles: u64,
    telemetry_period: u64,
    out: PathBuf,
}

fn parse_pattern(name: &str) -> Result<SyntheticPattern, &'static str> {
    Ok(match name {
        "uniform" => SyntheticPattern::UniformRandom,
        "transpose" => SyntheticPattern::Transpose,
        "bitcomp" => SyntheticPattern::BitComplement,
        "shuffle" => SyntheticPattern::Shuffle,
        "neighbor" => SyntheticPattern::Neighbor,
        "hotspot" => SyntheticPattern::Hotspot(vec![NodeId(0)]),
        _ => return Err("uniform, transpose, bitcomp, shuffle, neighbor or hotspot"),
    })
}

fn parse_scheme(name: &str) -> Result<Scheme, &'static str> {
    Ok(match name {
        "drain" => Scheme::Drain(DrainVariant::Vn1Vc2),
        "escape-vc" => Scheme::EscapeVc,
        "spin" => Scheme::Spin,
        _ => return Err("drain, escape-vc or spin"),
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        mesh: (4, 4),
        faults: 0,
        fault_seed: 1,
        scheme: Scheme::Drain(DrainVariant::Vn1Vc2),
        pattern: SyntheticPattern::UniformRandom,
        rate: 0.10,
        seed: 1,
        epoch: 1_024,
        cycles: 16_384,
        telemetry_period: 256,
        out: results_dir().join("trace"),
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next_flag() {
        let f = flag.as_str();
        match f {
            "--mesh" => args.mesh = flags.value(f, parse_mesh),
            "--faults" => args.faults = flags.parsed(f),
            "--fault-seed" => args.fault_seed = flags.parsed(f),
            "--scheme" => args.scheme = flags.value(f, parse_scheme),
            "--pattern" => args.pattern = flags.value(f, parse_pattern),
            "--rate" => args.rate = flags.value(f, parse_rate),
            "--seed" => args.seed = flags.parsed(f),
            "--epoch" => args.epoch = flags.value(f, parse_positive),
            "--cycles" => args.cycles = flags.value(f, parse_positive),
            "--telemetry-period" => args.telemetry_period = flags.parsed(f),
            "--out" => args.out = flags.parsed(f),
            _ => Flags::unknown(f),
        }
    }
    // The one check that spans two flags.
    if let Err(msg) = check_mesh_faults(args.mesh, args.faults) {
        usage_error(&msg);
    }
    args
}

/// What the traced run hands back to the post-processing stage.
struct TraceRun {
    outcome: RunOutcome,
    injected: u64,
    ejected: u64,
    flit_hops: u64,
    samples: Vec<TelemetrySample>,
    flight_record: Option<PathBuf>,
    sink_errors: u64,
    metrics: drain_netsim::MetricsSnapshot,
}

/// Checks that consecutive `drain-epoch-start` events are `epoch` cycles
/// apart plus the bounded drain overhead (pre-drain window + forced steps
/// with their serialization freezes).
fn check_drain_cadence(starts: &[u64], epoch: u64, topo: &Topology) {
    if starts.len() < 2 {
        return;
    }
    // A drain path covers every unidirectional link exactly once
    // (`verify_circuit` rejects any other length), so its length is the
    // link count.
    let path_len = topo.num_unidirectional_links() as u64;
    // The pre-drain freeze (MAX_PACKET_FLITS) + worst case: a full drain of
    // the whole Eulerian circuit, each step followed by the same freeze.
    let max_flits = u64::from(MAX_PACKET_FLITS);
    let slack = 8 + path_len * (1 + max_flits) + max_flits;
    for pair in starts.windows(2) {
        let delta = pair[1] - pair[0];
        assert!(
            delta >= epoch && delta <= epoch + slack,
            "drain cadence violated: consecutive epoch starts {} and {} are {delta} apart \
             (expected [{epoch}, {}])",
            pair[0],
            pair[1],
            epoch + slack
        );
    }
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    banner(
        "trace",
        "single-point event trace + telemetry inspector",
        scale,
    );

    let topo_spec = if args.faults > 0 {
        TopoSpec::FaultyMesh {
            w: args.mesh.0,
            h: args.mesh.1,
            faults: args.faults,
            seed: args.fault_seed,
        }
    } else {
        TopoSpec::Mesh {
            w: args.mesh.0,
            h: args.mesh.1,
        }
    };
    let topo = topo_spec.build();
    let full_mesh = topo_spec.full_mesh();
    std::fs::create_dir_all(&args.out).expect("create trace output dir");
    let trace_path = args.out.join("trace.jsonl");
    let telemetry_path = args.out.join("telemetry.jsonl");

    let trace_cfg = TraceConfig::events_on()
        .with_telemetry(args.telemetry_period)
        .with_flight_recorder(args.out.join("flightrec"));

    let mut engine = SweepEngine::new("drain_trace", scale);
    let runs = engine.run_jobs(
        &[args.seed],
        |&seed| {
            let mut sim = args.scheme.synthetic_sim_traced(
                &topo,
                full_mesh,
                args.pattern.clone(),
                args.rate,
                seed,
                args.epoch,
                1,
                trace_cfg.clone(),
            );
            sim.set_trace_sink(TraceSink::jsonl_file(&trace_path).expect("open trace file"));
            let outcome = sim.run(args.cycles);
            sim.flush_trace().expect("flush trace file");
            let s = sim.stats();
            TraceRun {
                outcome,
                injected: s.injected,
                ejected: s.ejected,
                flit_hops: s.flit_hops,
                flight_record: sim.flight_record().map(|p| p.to_path_buf()),
                sink_errors: sim.core().tracer().sink_errors(),
                metrics: sim.metrics_snapshot(),
                samples: sim.core_mut().telemetry_mut().take_samples(),
            }
        },
        |_, _| args.cycles,
    );
    let run = &runs[0];
    assert_eq!(run.sink_errors, 0, "trace sink reported write errors");

    // Telemetry export (JSONL, one sample per line).
    let telemetry: String = run
        .samples
        .iter()
        .map(|s| s.to_jsonl(args.telemetry_period) + "\n")
        .collect();
    std::fs::write(&telemetry_path, telemetry).expect("write telemetry file");

    // Re-parse everything we just wrote; a malformed line is a bug.
    let raw = std::fs::read_to_string(&trace_path).expect("read trace back");
    let mut events = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        match TraceEvent::parse_jsonl(line) {
            Ok(ev) => events.push(ev),
            Err(e) => panic!("trace line {} does not parse: {e}\n{line}", i + 1),
        }
    }
    for (i, line) in std::fs::read_to_string(&telemetry_path)
        .expect("read telemetry back")
        .lines()
        .enumerate()
    {
        if let Err(e) = drain_bench::json::parse(line) {
            panic!("telemetry line {} does not parse: {e}", i + 1);
        }
    }

    // DRAIN runs must show epoch events at the configured cadence (the
    // first window opens on cycle `epoch`).
    let epoch_starts: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::DrainEpochStart { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .collect();
    if matches!(args.scheme, Scheme::Drain(_)) && args.cycles > args.epoch {
        assert!(
            !epoch_starts.is_empty(),
            "a DRAIN run of {} cycles with epoch {} must start at least one drain window",
            args.cycles,
            args.epoch
        );
        check_drain_cadence(&epoch_starts, args.epoch, &topo);
    }

    // Per-router utilization / misroute table from the event stream +
    // telemetry series.
    let n = topo.num_nodes();
    let mut traversals = vec![0u64; n];
    let mut misroutes = vec![0u64; n];
    let mut forced = vec![0u64; n];
    let mut ejected = vec![0u64; n];
    for ev in &events {
        match ev {
            TraceEvent::LinkTraverse { link, misroute, .. } => {
                let dst = topo.link(LinkId(*link)).dst.index();
                traversals[dst] += 1;
                if *misroute {
                    misroutes[dst] += 1;
                }
            }
            TraceEvent::ForcedHop { link, misroute, .. } => {
                let dst = topo.link(LinkId(*link)).dst.index();
                traversals[dst] += 1;
                forced[dst] += 1;
                if *misroute {
                    misroutes[dst] += 1;
                }
            }
            TraceEvent::Eject { node, .. } => ejected[*node as usize] += 1,
            _ => {}
        }
    }
    let mean_occ: Vec<f64> = (0..n)
        .map(|r| {
            if run.samples.is_empty() {
                0.0
            } else {
                run.samples
                    .iter()
                    .map(|s| s.routers[r].occupied_vcs as f64)
                    .sum::<f64>()
                    / run.samples.len() as f64
            }
        })
        .collect();
    let stalls: Vec<u64> = (0..n)
        .map(|r| run.samples.iter().map(|s| s.routers[r].credit_stalls).sum())
        .collect();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|r| {
            vec![
                r.to_string(),
                traversals[r].to_string(),
                misroutes[r].to_string(),
                forced[r].to_string(),
                ejected[r].to_string(),
                f3(mean_occ[r]),
                stalls[r].to_string(),
            ]
        })
        .collect();
    let header = [
        "router",
        "traversals",
        "misroutes",
        "forced",
        "ejected",
        "mean_occ_vcs",
        "credit_stalls",
    ];
    print_table("per-router activity (from trace)", &header, &rows);
    write_csv_in(&args.out, "drain_trace_routers", &header, &rows);

    // Scheduler accounting, straight from the unified metrics registry.
    // Wake/park counters are network-global (the wake scheduler tracks
    // VC and injection-queue heads, not routers), so they print as a
    // summary block beside the per-router table rather than extra columns.
    let m = &run.metrics;
    let wake = |event: &str| {
        m.counter_value_labeled("drain_wake_events_total", &[("event", event)])
            .unwrap_or(0)
    };
    let injection = |event: &str| {
        m.counter_value_labeled("drain_wake_injection_events_total", &[("event", event)])
            .unwrap_or(0)
    };
    let draws = |site: &str| {
        m.counter_value_labeled("drain_rng_draws_total", &[("site", site)])
            .unwrap_or(0)
    };
    let sched_rows: Vec<Vec<String>> = [
        ("parks", wake("parks")),
        ("skips", wake("skips")),
        ("injection_parks", injection("parks")),
        ("injection_skips", injection("skips")),
        ("wakes", wake("wakes")),
        ("spurious_wakes", wake("spurious_wakes")),
        ("wake_alls", wake("wake_alls")),
        ("wake_stalls", wake("stalls")),
    ]
    .into_iter()
    .map(|(name, v)| vec![name.to_string(), v.to_string()])
    .chain(
        DrawSite::ALL
            .into_iter()
            .map(|s| vec![format!("rng_draws_{}", s.label()), draws(s.label()).to_string()]),
    )
    .collect();
    let sched_header = ["counter", "total"];
    print_table(
        "scheduler (from metrics registry)",
        &sched_header,
        &sched_rows,
    );
    write_csv_in(&args.out, "drain_trace_scheduler", &sched_header, &sched_rows);

    println!(
        "\ntrace: {} events ({} drain-epoch starts) -> {}",
        events.len(),
        epoch_starts.len(),
        trace_path.display()
    );
    println!(
        "telemetry: {} samples (period {}) -> {}",
        run.samples.len(),
        args.telemetry_period,
        telemetry_path.display()
    );
    println!(
        "run: outcome={:?} injected={} ejected={} flit_hops={}",
        run.outcome, run.injected, run.ejected, run.flit_hops
    );
    if let Some(fr) = &run.flight_record {
        println!("flight record: {}", fr.display());
    }
    engine.finish();
    if run.outcome == RunOutcome::InvariantViolation || run.outcome == RunOutcome::Deadlocked {
        std::process::exit(1);
    }
}
