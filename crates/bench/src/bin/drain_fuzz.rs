//! `drain-fuzz`: invariant + differential-oracle soak harness.
//!
//! Sweeps random irregular topologies × synthetic traffic patterns ×
//! seeds, running every point through both correctness layers:
//!
//! 1. the runtime invariant checker ([`drain_netsim::check`]) on both
//!    schemes — conservation, VC occupancy, reachability, forced-move
//!    validity and drain-epoch forward progress, every cycle;
//! 2. the differential oracle ([`drain_bench::oracle`]) — DRAIN and a
//!    trusted baseline fed identical traffic must deliver identical
//!    packet multisets.
//!
//! Violations are reported as structured JSON (`results/drain_fuzz.json`)
//! with everything needed to replay a failing point: its topology key,
//! pattern, rate, seed and epoch. Exit code 1 on any violation.
//!
//! ```text
//! drain_fuzz [--points N] [--seed S] [--inject CYCLES] [--smoke]
//!            [--baseline escape-vc|spin|updown|ideal] [--seed-fault]
//!            [--json PATH]
//! ```
//!
//! `--smoke` is the CI preset (few points, short runs; used by
//! `scripts/check.sh`).
//! `--seed-fault` corrupts the DRAIN turn-table on every point through
//! the drainpath crate's test-only hook and *expects* the checker to
//! catch each one — exit code 0 iff every seeded fault is detected.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use drain_bench::engine::SweepEngine;
use drain_bench::json::{num, Json};
use drain_bench::oracle::{run_oracle, FaultSeed, OracleReport, OracleSpec};
use drain_bench::sweep::plan::TopoSpec;
use drain_bench::table::banner;
use drain_bench::{Flags, Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::RunOutcome;
use drain_topology::NodeId;

/// One fuzz point: a fully determined (topology, traffic, scheme-config)
/// combination.
struct FuzzPoint {
    index: usize,
    topo: TopoSpec,
    spec: OracleSpec,
    fault: FaultSeed,
}

/// Expands point `i` of the sweep deterministically from the base seed.
fn gen_point(i: usize, base_seed: u64, inject_cycles: u64, fault: FaultSeed) -> FuzzPoint {
    let mut rng = ChaCha8Rng::seed_from_u64(base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    let topo = match rng.gen_range(0..3u32) {
        0 => TopoSpec::FaultyMesh {
            w: rng.gen_range(4..=7),
            h: rng.gen_range(4..=7),
            faults: rng.gen_range(1..=6),
            seed: rng.gen_range(0..1_000_000),
        },
        1 => TopoSpec::Random {
            n: rng.gen_range(8..=24),
            degree_milli: rng.gen_range(2500..=4000),
            seed: rng.gen_range(0..1_000_000),
        },
        _ => TopoSpec::Chiplet {
            seed: rng.gen_range(0..1_000_000),
        },
    };
    let pattern = match rng.gen_range(0..6u32) {
        0 => SyntheticPattern::UniformRandom,
        1 => SyntheticPattern::Transpose,
        2 => SyntheticPattern::BitComplement,
        3 => SyntheticPattern::Shuffle,
        4 => SyntheticPattern::Neighbor,
        _ => SyntheticPattern::Hotspot(vec![NodeId(0)]),
    };
    // The hotspot funnels every node into one ejection port (1 packet per
    // cycle), so its per-node rate must stay well under 1/n or the drain
    // phase dwarfs the injection phase.
    let rate = if matches!(pattern, SyntheticPattern::Hotspot(_)) {
        rng.gen_range(0.005..0.025)
    } else {
        rng.gen_range(0.02..0.20)
    };
    let mut spec = OracleSpec {
        pattern,
        rate,
        seed: rng.gen_range(0..1_000_000),
        epoch: *[256u64, 512, 1024, 2048]
            .get(rng.gen_range(0..4usize))
            .unwrap(),
        full_drain_period: *[0u64, 4, 64].get(rng.gen_range(0..3usize)).unwrap(),
        inject_cycles,
        drain_budget: 150_000,
        baseline: Scheme::EscapeVc,
        flightrec_dir: None,
    };
    if fault != FaultSeed::None {
        // A sabotaged turn-table is only *observable* when a drain window
        // actually forces a move, so seeded-fault points pin parameters
        // that guarantee drain activity: short epochs, a full drain every
        // window, and enough load that escape VCs are occupied at window
        // boundaries — a packet takes VC 0 only when the link's other VCs
        // are taken, so that needs contention (a floor of 0.08 lets one
        // point in 24 slip through on about half of thirteen base seeds;
        // 0.25 lets none).
        spec.epoch = 256;
        spec.full_drain_period = 1;
        spec.rate = spec.rate.max(0.25);
    }
    FuzzPoint {
        index: i,
        topo,
        spec,
        fault,
    }
}

fn outcome_str(o: RunOutcome) -> &'static str {
    match o {
        RunOutcome::BudgetExhausted => "budget-exhausted",
        RunOutcome::WorkloadFinished => "finished",
        RunOutcome::Deadlocked => "deadlocked",
        RunOutcome::InvariantViolation => "invariant-violation",
    }
}

/// JSON record for one point's outcome.
fn point_json(p: &FuzzPoint, r: &OracleReport, ok: bool) -> Json {
    let mut violations: Vec<Json> = Vec::new();
    for leg in [&r.drain, &r.baseline] {
        if let Some(v) = &leg.violation {
            violations.push(Json::obj([
                ("scheme", Json::Str(leg.scheme.to_string())),
                ("kind", Json::Str(v.kind.name().to_string())),
                ("cycle", num(v.cycle as f64)),
                ("replay_seed", num(v.seed as f64)),
                ("detail", Json::Str(v.detail.clone())),
                (
                    "flight_record",
                    leg.flight_record
                        .as_ref()
                        .map(|p| Json::Str(p.display().to_string()))
                        .unwrap_or(Json::Null),
                ),
            ]));
        }
    }
    Json::obj([
        ("index", num(p.index as f64)),
        ("topo", Json::Str(p.topo.key_material())),
        ("pattern", Json::Str(p.spec.pattern.name().to_string())),
        ("rate", num(p.spec.rate)),
        ("seed", num(p.spec.seed as f64)),
        ("epoch", num(p.spec.epoch as f64)),
        ("full_drain_period", num(p.spec.full_drain_period as f64)),
        ("baseline", Json::Str(p.spec.baseline.name().to_string())),
        ("seeded_fault", Json::Bool(p.fault != FaultSeed::None)),
        ("ok", Json::Bool(ok)),
        ("drain_outcome", Json::Str(outcome_str(r.drain.outcome).into())),
        (
            "baseline_outcome",
            Json::Str(outcome_str(r.baseline.outcome).into()),
        ),
        ("delivered", num(r.drain.delivered.len() as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("leg_violations", Json::Arr(violations)),
    ])
}

struct Args {
    points: usize,
    seed: u64,
    inject: u64,
    seed_fault: bool,
    baseline: Scheme,
    json_path: String,
}

/// Whether `scheme` can be the trusted reference: not DRAIN (the scheme
/// under test) and not the unprotected network.
fn is_reference(scheme: Scheme) -> bool {
    !matches!(scheme, Scheme::Drain(_) | Scheme::Unprotected)
}

/// `--baseline`: the [`Scheme::name`] of a reference scheme.
fn parse_reference(name: &str) -> Result<Scheme, String> {
    name.parse()
        .ok()
        .filter(|&s| is_reference(s))
        .ok_or_else(|| {
            let names: Vec<&str> = Scheme::all()
                .filter(|&s| is_reference(s))
                .map(Scheme::name)
                .collect();
            format!("one of {}", names.join(", "))
        })
}

fn parse_args() -> Args {
    let mut args = Args {
        points: 200,
        seed: 0xF00D,
        inject: 3_000,
        seed_fault: false,
        baseline: Scheme::EscapeVc,
        json_path: "results/drain_fuzz.json".to_string(),
    };
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next_flag() {
        let f = flag.as_str();
        match f {
            "--points" => args.points = flags.parsed(f),
            "--seed" => args.seed = flags.parsed(f),
            "--inject" => args.inject = flags.parsed(f),
            "--json" => args.json_path = flags.parsed(f),
            "--seed-fault" => args.seed_fault = true,
            "--smoke" => {
                // The wake-driven Phase A scheduler is on (config
                // default) for every leg, so the smoke also soaks the
                // wake graph — including the deep sweep's missed-wake
                // oracle — and sabotage injection (`--seed-fault`)
                // covers the wake path too.
                args.points = 24;
                args.inject = 1_500;
            }
            "--baseline" => args.baseline = flags.value(f, parse_reference),
            _ => Flags::unknown(f),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let fault = if args.seed_fault {
        FaultSeed::SkewTurnTable
    } else {
        FaultSeed::None
    };
    banner(
        "fuzz",
        if args.seed_fault {
            "seeded-fault detection sweep (every point sabotaged; all must be caught)"
        } else {
            "invariant + differential-oracle soak sweep"
        },
        scale,
    );

    // Failing points leave a flight-recorder dump next to the JSON report
    // (last events + VC occupancy + replay seed); `point_json` records the
    // dump path per leg violation so failures can be replayed offline.
    let flightrec_dir = std::path::Path::new(&args.json_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("flightrec");
    let jobs: Vec<FuzzPoint> = (0..args.points)
        .map(|i| {
            let mut p = gen_point(i, args.seed, args.inject, fault);
            p.spec.baseline = args.baseline;
            p.spec.flightrec_dir = Some(flightrec_dir.clone());
            p
        })
        .collect();

    let mut engine = SweepEngine::new("drain_fuzz", scale);
    let reports: Vec<OracleReport> = engine.run_jobs(
        &jobs,
        |p| run_oracle(&p.topo.build(), p.topo.full_mesh(), &p.spec, p.fault),
        |_, r| r.drain.cycles + r.baseline.cycles,
    );

    // A point passes when the run is clean — or, in seeded-fault mode,
    // when the sabotage was caught by the forced-move validator.
    let mut failing = 0usize;
    let mut records = Vec::with_capacity(jobs.len());
    for (p, r) in jobs.iter().zip(&reports) {
        let ok = if args.seed_fault {
            r.drain.violation.is_some()
        } else {
            r.ok()
        };
        if !ok {
            failing += 1;
            let what = if args.seed_fault {
                "seeded fault NOT caught".to_string()
            } else {
                r.failures.join("; ")
            };
            eprintln!(
                "FAIL point {} [topo={} pattern={} rate={:.3} seed={} epoch={}]: {}",
                p.index,
                p.topo.key_material(),
                p.spec.pattern.name(),
                p.spec.rate,
                p.spec.seed,
                p.spec.epoch,
                what
            );
        }
        records.push(point_json(p, r, ok));
    }

    let doc = Json::obj([
        ("mode", Json::Str(if args.seed_fault {
            "seed-fault".into()
        } else {
            "sweep".into()
        })),
        ("base_seed", num(args.seed as f64)),
        ("points", num(jobs.len() as f64)),
        ("failing", num(failing as f64)),
        ("points_detail", Json::Arr(records)),
    ]);
    std::fs::create_dir_all(
        std::path::Path::new(&args.json_path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new(".")),
    )
    .expect("create results dir");
    std::fs::write(&args.json_path, format!("{doc}\n")).expect("write fuzz report");

    engine.finish();
    if args.seed_fault {
        println!(
            "seed-fault: {}/{} sabotaged points caught ({})",
            jobs.len() - failing,
            jobs.len(),
            args.json_path
        );
    } else {
        println!(
            "fuzz: {}/{} points clean ({})",
            jobs.len() - failing,
            jobs.len(),
            args.json_path
        );
    }
    if failing > 0 {
        std::process::exit(1);
    }
}
