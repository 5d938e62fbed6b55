//! Regression tests for the simulator's bit-identity guarantees:
//!
//! 1. parallel sweep execution is bit-identical to serial execution,
//! 2. a warm cache rerun simulates nothing and returns identical points,
//! 3. the wake-driven Phase A scheduler is invisible: the same seeded
//!    point produces identical [`drain_netsim::Stats`], the same final
//!    cycle, byte-identical traces and an identical telemetry series with
//!    blocked heads parking and with every head re-routed every cycle
//!    (the dense scan, `common::run_rerouting`) — and parked heads draw
//!    nothing,
//! 4. a closed-loop coherence point that evicts repeats exactly (the
//!    victim draw indexes a sorted candidate list, not `HashMap` order).
//!
//! Item 3 holds by construction under the keyed RNG (each draw is
//! `mix(seed, cycle, site, id)`, see `drain_netsim::rng`); the tests are
//! what keeps it so. The profiler-cadence differential lives in
//! `metrics.rs`.

use drain_bench::engine::SweepEngine;
use drain_bench::cache::ResultCache;
use drain_bench::sweep;
use drain_bench::scheme::DrainVariant;
use drain_bench::sweep::plan::{load_sweep_specs, PointSpec, TopoSpec};
use drain_bench::{Scale, Scheme};
use drain_netsim::rng::NUM_DRAW_SITES;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{DrawSite, RunOutcome, Stats, TelemetrySample, TraceConfig, TraceSink};
use drain_topology::Topology;

mod common;
use common::{bursty_sim, irregular_topo, run_rerouting, wedge_cell_sim};

/// The fig10-style grid this test sweeps: one scheme on a 4×4 mesh with
/// two different fault patterns.
fn grid() -> Vec<(TopoSpec, u64)> {
    vec![
        (TopoSpec::mesh_with_faults(4, 4, 2, 41), 41),
        (TopoSpec::mesh_with_faults(4, 4, 2, 42), 42),
    ]
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let pattern = SyntheticPattern::UniformRandom;

    // Serial reference: the plain sweep::load_sweep path, one thread, no
    // engine, no cache.
    let mut serial = Vec::new();
    for (topo, seed) in grid() {
        serial.extend(sweep::load_sweep(
            Scheme::Spin,
            &topo.build(),
            topo.full_mesh(),
            &pattern,
            seed,
            Scheme::DEFAULT_EPOCH,
            Scale::Quick,
        ));
    }

    // Parallel run: same grid through the engine on several workers.
    let specs: Vec<PointSpec> = grid()
        .into_iter()
        .flat_map(|(topo, seed)| {
            load_sweep_specs(
                Scheme::Spin,
                &topo,
                &pattern,
                seed,
                Scheme::DEFAULT_EPOCH,
                Scale::Quick,
            )
        })
        .collect();
    let mut engine = SweepEngine::with("determinism", Scale::Quick, 4, ResultCache::disabled());
    let parallel = engine.run_points(&specs);

    assert_eq!(
        serial, parallel,
        "parallel sweep must be point-for-point identical to serial"
    );
}

#[test]
fn warm_cache_rerun_runs_zero_simulations() {
    let dir = std::env::temp_dir().join(format!(
        "drain-determinism-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let specs: Vec<PointSpec> = grid()
        .into_iter()
        .flat_map(|(topo, seed)| {
            load_sweep_specs(
                Scheme::Spin,
                &topo,
                &SyntheticPattern::Neighbor,
                seed,
                Scheme::DEFAULT_EPOCH,
                Scale::Quick,
            )
        })
        .collect();

    let mut cold = SweepEngine::with("detcold", Scale::Quick, 2, ResultCache::at(&dir));
    let first = cold.run_points(&specs);
    let cold_report = cold.report();
    assert_eq!(cold_report.simulated, specs.len());
    assert_eq!(cold_report.cache_hits, 0);

    let mut warm = SweepEngine::with("detwarm", Scale::Quick, 2, ResultCache::at(&dir));
    let second = warm.run_points(&specs);
    let warm_report = warm.report();
    assert_eq!(warm_report.simulated, 0, "warm rerun must simulate nothing");
    assert_eq!(warm_report.cache_hits, specs.len());
    assert_eq!(first, second, "cached points must round-trip bit-identically");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Wake-scheduler differential on telemetry: Phase A's credit-stall
/// notes are the one output that reaches neither `Stats` nor the trace,
/// and a parked head reports its stall from the skip path instead of from
/// a failed routing pass. So the full sample series (per-router
/// occupancy, queue depths and credit stalls, per-link flits) and the
/// per-router stall totals must match the dense scan's.
#[test]
fn wake_scheduler_keeps_telemetry_identical() {
    let topo = irregular_topo();
    for scheme in Scheme::headline() {
        let observe = |wake: bool| -> (Vec<TelemetrySample>, Vec<u64>) {
            let mut sim = scheme.synthetic_sim_traced(
                &topo,
                false,
                SyntheticPattern::UniformRandom,
                0.35,
                11,
                512,
                1,
                TraceConfig::default().with_telemetry(64),
            );
            if wake { sim.run(6_000) } else { run_rerouting(&mut sim, 6_000) };
            if wake {
                let parks = sim.core().wake_counters().parks;
                assert!(parks > 0, "{}: wake scheduler never engaged", scheme.label());
            }
            let telem = sim.core().telemetry();
            let stalls = (0..topo.num_nodes())
                .map(|router| telem.total_credit_stalls(router))
                .collect();
            (telem.samples().cloned().collect(), stalls)
        };
        let dense = observe(false);
        assert!(!dense.0.is_empty(), "{}: no telemetry samples", scheme.label());
        assert!(
            dense.1.iter().sum::<u64>() > 0,
            "{}: a saturated run must record credit stalls",
            scheme.label()
        );
        assert_eq!(
            dense,
            observe(true),
            "{}: telemetry must not depend on the wake scheduler",
            scheme.label()
        );
    }
}

/// One seeded point, run by `Sim::run` (`wake`) or as the dense scan
/// (`run_rerouting`). Returns the
/// wake counters and per-site draw counts too, so callers can assert the
/// parking path actually engaged and that parked heads drew nothing.
fn point_stats_wake(
    scheme: Scheme,
    rate: f64,
    wake: bool,
) -> (Stats, u64, drain_netsim::WakeCounters, [u64; NUM_DRAW_SITES]) {
    let topo = irregular_topo();
    let mut sim =
        scheme.synthetic_sim(&topo, false, SyntheticPattern::UniformRandom, rate, 11, 512);
    if wake { sim.run(6_000) } else { run_rerouting(&mut sim, 6_000) };
    (
        sim.stats().clone(),
        sim.core().cycle(),
        sim.core().wake_counters(),
        sim.core().rng_draw_counts(),
    )
}

/// Wake-scheduler differential: every headline scheme at a low and a
/// saturated rate must produce identical `Stats` (every counter and full latency histograms) and the
/// same final cycle whether blocked VCs park on wake subscriptions or the
/// dense Phase A scan re-routes them every cycle. A parked head's draw is
/// never computed: the wake-scheduled run never draws more than the
/// dense scan, and at the saturated rate it performs strictly fewer
/// Phase A draws and strictly fewer injection draws (parked source-queue
/// heads). The same holds for
/// the closed-loop Fig 12 cell of `wedge.rs` under mixed packet lengths,
/// and for a bursty scripted DRAIN run that must deliver every packet and
/// drain across its idle gaps.
#[test]
fn wake_scheduler_is_bit_identical_to_dense_scan() {
    for scheme in Scheme::headline() {
        for rate in [0.01, 0.35] {
            let (dense, dense_cycle, _, dense_draws) = point_stats_wake(scheme, rate, false);
            let (wake, wake_cycle, wake_ctrs, wake_draws) = point_stats_wake(scheme, rate, true);
            assert_eq!(
                dense,
                wake,
                "{} at rate {rate}: stats must not depend on the wake scheduler",
                scheme.label()
            );
            assert_eq!(
                dense_cycle,
                wake_cycle,
                "{} at rate {rate}: final cycle must not depend on the wake scheduler",
                scheme.label()
            );
            assert!(wake.ejected > 0, "{} at rate {rate} delivered nothing", scheme.label());
            let injection_draws =
                |draws: [u64; NUM_DRAW_SITES]| draws[DrawSite::Injection.index()];
            assert!(
                injection_draws(wake_draws) <= injection_draws(dense_draws),
                "{} at rate {rate}: a parked queue head must draw nothing, \
                 and an unparked one draws as the dense scan does",
                scheme.label()
            );
            if rate > 0.1 {
                assert!(
                    injection_draws(wake_draws) < injection_draws(dense_draws),
                    "{} saturated: parked injection heads must skip their draws \
                     (wake {} vs dense {})",
                    scheme.label(),
                    injection_draws(wake_draws),
                    injection_draws(dense_draws)
                );
                assert!(
                    wake_ctrs.parks > 0 && wake_ctrs.skips > 0,
                    "{} saturated: wake scheduler never engaged ({wake_ctrs:?})",
                    scheme.label()
                );
                assert!(
                    wake_draws[DrawSite::PhaseA.index()] < dense_draws[DrawSite::PhaseA.index()],
                    "{} saturated: parked heads must skip their draws (wake {} vs dense {})",
                    scheme.label(),
                    wake_draws[DrawSite::PhaseA.index()],
                    dense_draws[DrawSite::PhaseA.index()]
                );
            }
        }
    }
    // Coherence leg: synthetic traffic has one packet length, MESI-lite
    // mixes 5-flit data with 1-flit control — the only regime where two
    // slots of one link vacate with different `free_at`s inside one tail.
    for scheme in Scheme::headline() {
        let cell = |wake: bool| {
            let mut sim = wedge_cell_sim(scheme, Scheme::DEFAULT_EPOCH);
            let budget = Scale::Quick.app_budget();
            let outcome = if wake { sim.run(budget) } else { run_rerouting(&mut sim, budget) };
            (outcome, sim.stats().clone(), sim.core().cycle())
        };
        let (dense, wake) = (cell(false), cell(true));
        assert_eq!(dense.0, RunOutcome::WorkloadFinished, "{}", scheme.label());
        assert_eq!(
            dense,
            wake,
            "{} on the Fig 12 cell: a coherence run must not depend on the wake scheduler",
            scheme.label()
        );
    }
    // Idle-gap leg: scripted bursts thousands of cycles apart, so DRAIN's
    // short-epoch windows fire on an empty network between them.
    let bursty = |wake: bool| {
        let (mut sim, packets) = bursty_sim(TraceConfig::default());
        let outcome = if wake { sim.run(30_000) } else { run_rerouting(&mut sim, 30_000) };
        (outcome, sim.stats().clone(), sim.core().cycle(), packets)
    };
    let (dense, wake) = (bursty(false), bursty(true));
    assert_eq!(
        dense, wake,
        "the bursty run must not depend on the wake scheduler"
    );
    let (outcome, stats, _, packets) = wake;
    assert_eq!(outcome, RunOutcome::WorkloadFinished);
    assert_eq!((stats.injected, stats.ejected), (packets, packets));
    assert!(
        stats.drains > 0,
        "short-epoch run must execute drain windows across the gaps"
    );
}

/// Same differential on the trace stream: with event capture on, the
/// wake-driven and dense Phase A schedulers must yield byte-identical
/// JSONL, on the synthetic points and on the bursty scripted run.
#[test]
fn wake_scheduler_keeps_traces_byte_identical() {
    let topo = irregular_topo();
    for scheme in Scheme::headline() {
        let traced = |wake: bool| -> String {
            let mut sim = scheme.synthetic_sim_traced(
                &topo,
                false,
                SyntheticPattern::UniformRandom,
                0.10,
                11,
                512,
                1,
                TraceConfig::events_on(),
            );
            sim.set_trace_sink(TraceSink::Memory(Vec::new()));
            if wake { sim.run(2_000) } else { run_rerouting(&mut sim, 2_000) };
            let events = sim
                .core_mut()
                .tracer_mut()
                .take_memory()
                .expect("memory sink installed");
            assert!(!events.is_empty());
            events
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect()
        };
        assert_eq!(
            traced(false),
            traced(true),
            "{}: trace bytes must not depend on the wake scheduler",
            scheme.label()
        );
    }
    // The bursty DRAIN run: events captured across the idle gaps, every
    // scripted packet delivered.
    let bursty = |wake: bool| -> String {
        let (mut sim, packets) = bursty_sim(TraceConfig::events_on());
        sim.set_trace_sink(TraceSink::Memory(Vec::new()));
        if wake { sim.run(30_000) } else { run_rerouting(&mut sim, 30_000) };
        assert_eq!(sim.stats().ejected, packets);
        let events = sim
            .core_mut()
            .tracer_mut()
            .take_memory()
            .expect("memory sink installed");
        assert!(!events.is_empty());
        events.iter().map(|e| e.to_jsonl() + "\n").collect()
    };
    assert_eq!(
        bursty(false),
        bursty(true),
        "bursty trace bytes must not depend on the wake scheduler"
    );
}

/// Coherence runs that fill the L1 must repeat: canneal on mesh(8,8) at
/// 1 200 operations per core overflows the 256-line L1, so every core
/// evicts. Each `HashMap` gets its own hasher keys, so two engines in one
/// process iterate their line tables in different orders — an eviction
/// victim picked by position in that order diverges here.
#[test]
fn evicting_coherence_point_repeats_exactly() {
    let topo = Topology::mesh(8, 8);
    let app = drain_workloads::app_by_name("canneal").expect("canneal model");
    let run = || {
        let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).coherence_sim(
            &topo,
            true,
            &app,
            Some(1_200),
            3,
            Scheme::DEFAULT_EPOCH,
        );
        let outcome = sim.run(2_000_000);
        assert_eq!(outcome, RunOutcome::WorkloadFinished);
        (sim.stats().clone(), sim.core().cycle())
    };
    assert_eq!(run(), run());
}
