//! One point, measured from outside: build the topology, assemble the
//! simulation through `Scheme::*_sim`, time `Sim::run`, read the counters
//! back through `Sim::stats()` / `Sim::metrics_snapshot()` and check the
//! outputs. Also the standalone layer builds of the traced pass.
//!
//! Timed runs take whatever `Scheme::*_sim` builds by default: no RNG,
//! wake-scheduler or fast-forward setter is called, so the numbers keep
//! meaning "what a user gets" when those defaults change.

use std::collections::BTreeMap;

use drain_bench::cache::fnv1a64;
use drain_bench::sweep::plan::TopoSpec;
use drain_bench::sweep::Point as SweepPoint;
use drain_bench::Scheme;
use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::routing::{DorTable, FullyAdaptive};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{HistogramSnapshot, MetricValue, MetricsSnapshot, RunOutcome, Sim};
use drain_path::DrainPath;
use drain_topology::chiplet::random_connected;
use drain_topology::distance::DistanceMap;
use drain_topology::faults::FaultInjector;
use drain_topology::partition::Partition;
use drain_topology::updown::UpDownRouting;
use drain_topology::Topology;

use crate::defs::PHASES;
use crate::spans::Recorder;
use crate::workloads::{topo_label, Kind, Point, Workload};

/// Metric name → value. Counts are exact in an `f64` (all far below 2^53).
pub type Values = BTreeMap<&'static str, f64>;

/// Cycles between profiler samples in the profiled run of the traced pass.
pub const PROFILE_PERIOD: u64 = 64;

/// 64-bit FNV-1a (the result cache's) over `u64`s as little-endian bytes.
pub fn fnv_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// Folds a 64-bit digest to 48 bits, which a JSON number carries exactly.
pub fn fold48(h: u64) -> f64 {
    ((h ^ (h >> 48)) & ((1 << 48) - 1)) as f64
}

fn histogram_words(s: &HistogramSnapshot) -> impl Iterator<Item = u64> + '_ {
    [s.count, s.sum, s.max]
        .into_iter()
        .chain(s.le.iter().copied())
}

/// Digest of every simulated statistic of a finished run: the final
/// cycle, every `Stats` counter and both latency histograms. Simulator-
/// speed accounting (wake, fast-forward, draw counters) stays out: a
/// scheduler may change it without changing what was simulated.
pub fn stats_digest(sim: &Sim) -> u64 {
    let s = sim.stats();
    let counters = [
        sim.core().cycle(),
        s.generated,
        s.injected,
        s.ejected,
        s.hops,
        s.misroutes,
        s.forced_hops,
        s.flit_hops,
        s.drains,
        s.full_drains,
        s.spins,
        s.probe_hops,
        s.deadlocks_detected,
        s.first_deadlock_cycle,
        s.oracle_resolutions,
        s.watchdog_deadlock as u64,
        s.window_start_cycle,
        s.window_ejected,
    ];
    let (net, total) = (s.net_latency.snapshot(), s.total_latency.snapshot());
    fnv_u64s(
        counters
            .into_iter()
            .chain(histogram_words(&net))
            .chain(histogram_words(&total)),
    )
}

/// Builds the topology a spec describes, one span per layer call.
pub fn build_topo(rec: &mut Recorder, spec: &TopoSpec) -> Result<Topology, String> {
    match *spec {
        TopoSpec::Mesh { w, h } => Ok(rec.span("Topology::mesh", |_| Topology::mesh(w, h)).0),
        TopoSpec::FaultyMesh { w, h, faults, seed } => {
            let base = rec.span("Topology::mesh", |_| Topology::mesh(w, h)).0;
            rec.span("FaultInjector::remove_links", |_| {
                FaultInjector::new(seed).remove_links(&base, faults)
            })
            .0
            .map_err(|e| format!("fault injection failed: {e:?}"))
        }
        TopoSpec::Random {
            n,
            degree_milli,
            seed,
        } => Ok(rec
            .span("random_connected", |_| {
                random_connected(n, degree_milli as f64 / 1000.0, seed)
            })
            .0),
        TopoSpec::Chiplet { .. } => Err("no workload uses a chiplet topology".into()),
    }
}

/// Profiler accumulators of one profiled run.
#[derive(Clone, Debug, Default)]
pub struct PhaseNanos {
    pub sampled_cycles: u64,
    pub cycle_nanos: u64,
    /// In [`PHASES`] order.
    pub phase: [u64; 9],
    /// Planning nanoseconds of shards 0 and 1 (sharded runs only).
    pub shard_plan: [u64; 2],
}

impl PhaseNanos {
    pub fn add(&mut self, o: &PhaseNanos) {
        self.sampled_cycles += o.sampled_cycles;
        self.cycle_nanos += o.cycle_nanos;
        for (a, b) in self.phase.iter_mut().zip(o.phase) {
            *a += b;
        }
    }
}

pub fn phase_nanos(m: &MetricsSnapshot) -> PhaseNanos {
    let labeled =
        |name: &str, key: &str, v: &str| m.counter_value_labeled(name, &[(key, v)]).unwrap_or(0);
    let mut p = PhaseNanos {
        sampled_cycles: m
            .counter_value("drain_profile_sampled_cycles_total")
            .unwrap_or(0),
        cycle_nanos: m
            .counter_value("drain_profile_cycle_nanos_total")
            .unwrap_or(0),
        ..PhaseNanos::default()
    };
    for (slot, name) in p.phase.iter_mut().zip(PHASES) {
        *slot = labeled("drain_profile_phase_nanos_total", "phase", name);
    }
    for (s, slot) in p.shard_plan.iter_mut().enumerate() {
        *slot = labeled(
            "drain_profile_shard_plan_nanos_total",
            "shard",
            &s.to_string(),
        );
    }
    p
}

/// One finished run of one point.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// Topology build + `Scheme::*_sim`: everything before the first
    /// simulated cycle.
    pub setup_s: f64,
    /// The `Scheme::*_sim` call alone.
    pub scheme_build_s: f64,
    pub run_s: f64,
    /// Exact simulated counts, by per-layer metric name.
    pub counts: Values,
    pub digest: u64,
    pub phases: PhaseNanos,
    /// The operating point as the sweep engine would report it.
    pub sweep_point: SweepPoint,
}

/// Sum of one site's draws over both RNG modes (the `mode` label only
/// says which contract the build defaults to).
fn rng_draws(m: &MetricsSnapshot, site: &str) -> f64 {
    let Some(fam) = m.family("drain_rng_draws_total") else {
        return 0.0;
    };
    fam.samples
        .iter()
        .filter(|s| s.labels.iter().any(|(k, v)| k == "site" && v == site))
        .map(|s| match s.value {
            MetricValue::Counter(v) => v as f64,
            _ => 0.0,
        })
        .sum()
}

fn collect_counts(sim: &Sim, m: &MetricsSnapshot) -> Values {
    let s = sim.stats();
    let wake = |event: &str| {
        m.counter_value_labeled("drain_wake_events_total", &[("event", event)])
            .unwrap_or(0) as f64
    };
    let latency = s.net_latency.snapshot();
    Values::from([
        ("netsim.cycles", sim.core().cycle() as f64),
        ("netsim.packets_generated", s.generated as f64),
        ("netsim.packets_injected", s.injected as f64),
        ("netsim.packets_ejected", s.ejected as f64),
        ("netsim.hops", s.hops as f64),
        ("netsim.flit_hops", s.flit_hops as f64),
        ("netsim.misroutes", s.misroutes as f64),
        ("netsim.rng_draws.phase_a", rng_draws(m, "phase_a")),
        ("netsim.rng_draws.injection", rng_draws(m, "injection")),
        ("netsim.rng_draws.mechanism", rng_draws(m, "mechanism")),
        ("netsim.ff_cycles_skipped", sim.ff_cycles_skipped() as f64),
        ("netsim.ff_jumps", sim.ff_jumps() as f64),
        ("netsim.wake.parks", wake("parks")),
        ("netsim.wake.skips", wake("skips")),
        ("netsim.wake.wakes", wake("wakes")),
        ("netsim.wake.spurious_wakes", wake("spurious_wakes")),
        ("netsim.wake.stalls", wake("stalls")),
        ("core.drains", s.drains as f64),
        ("core.full_drains", s.full_drains as f64),
        ("core.forced_hops", s.forced_hops as f64),
        ("baselines.spins", s.spins as f64),
        ("baselines.probe_hops", s.probe_hops as f64),
        ("baselines.deadlocks_detected", s.deadlocks_detected as f64),
        // `aux.*` are not metrics: inputs of workload-level aggregates.
        ("aux.latency_sum", latency.sum as f64),
        ("aux.latency_count", latency.count as f64),
        ("aux.p99", s.net_latency.p99() as f64),
        (
            "aux.shard_fabric_flits",
            m.counter_value("drain_shard_fabric_flits_total")
                .unwrap_or(0) as f64,
        ),
        (
            "aux.sharded_cycles",
            m.counter_value("drain_sharded_cycles_total").unwrap_or(0) as f64,
        ),
    ])
}

/// The output checks every finished point must pass.
fn check_outputs(
    sim: &Sim,
    m: &MetricsSnapshot,
    outcome: RunOutcome,
    kind: &Kind,
) -> Result<(), String> {
    let s = sim.stats();
    let want = match kind {
        Kind::Synthetic { .. } => RunOutcome::BudgetExhausted,
        Kind::Coherence { .. } => RunOutcome::WorkloadFinished,
    };
    if outcome != want {
        return Err(format!("run ended {outcome:?}, expected {want:?}"));
    }
    if let Some(v) = sim.violation() {
        return Err(format!("invariant violation: {v:?}"));
    }
    if s.watchdog_deadlock {
        return Err("watchdog deadlock".into());
    }
    if s.ejected == 0 {
        return Err("no packet was delivered".into());
    }
    if !(s.generated >= s.injected && s.injected >= s.ejected) {
        return Err(format!(
            "generated {} >= injected {} >= ejected {} does not hold",
            s.generated, s.injected, s.ejected
        ));
    }
    let in_network = m.gauge_value("drain_packets_in_network").unwrap_or(-1.0);
    if (s.injected - s.ejected) as f64 != in_network {
        return Err(format!(
            "injected - ejected = {} but drain_packets_in_network = {in_network}",
            s.injected - s.ejected
        ));
    }
    Ok(())
}

/// A point set up and ready to simulate.
pub struct Built {
    pub topo: Topology,
    pub sim: Sim,
    /// Topology build + `Scheme::*_sim`.
    pub setup_s: f64,
    /// The `Scheme::*_sim` call alone.
    pub scheme_build_s: f64,
}

/// Everything before the first simulated cycle of one point.
pub fn build_point(rec: &mut Recorder, w: &Workload, p: &Point) -> Result<Built, String> {
    rec.point = p.id.clone();
    let spec = &w.topos[p.topo];
    let full_mesh = spec.full_mesh();
    let (built, setup_s) = rec.span("setup", |rec| -> Result<(Topology, Sim, f64), String> {
        let topo = build_topo(rec, spec)?;
        let (sim, scheme_build_s) = match p.kind {
            Kind::Synthetic { rate, epoch, .. } => rec.span("Scheme::synthetic_sim", |_| {
                p.scheme.synthetic_sim(
                    &topo,
                    full_mesh,
                    SyntheticPattern::UniformRandom,
                    rate,
                    p.seed,
                    epoch,
                )
            }),
            Kind::Coherence { app, quota, .. } => {
                let app = drain_workloads::app_by_name(app)
                    .ok_or_else(|| format!("unknown app {app}"))?;
                rec.span("Scheme::coherence_sim", |_| {
                    p.scheme.coherence_sim(
                        &topo,
                        full_mesh,
                        &app,
                        Some(quota),
                        p.seed,
                        Scheme::DEFAULT_EPOCH,
                    )
                })
            }
        };
        Ok((topo, sim, scheme_build_s))
    });
    let (topo, sim, scheme_build_s) = built?;
    Ok(Built {
        topo,
        sim,
        setup_s,
        scheme_build_s,
    })
}

/// Builds and runs one point. `profiled` turns the kernel phase profiler
/// on and `shards > 1` selects the sharded kernel: both are for the
/// traced pass only, timed end-to-end runs take the defaults.
pub fn run_point(
    rec: &mut Recorder,
    w: &Workload,
    p: &Point,
    profiled: bool,
    shards: usize,
) -> Result<PointRun, String> {
    let Built {
        topo,
        mut sim,
        setup_s,
        scheme_build_s,
    } = build_point(rec, w, p)?;
    if shards > 1 {
        sim.set_shards(shards);
    }
    if profiled {
        sim.set_profile_period(PROFILE_PERIOD);
    }
    let (outcome, run_s) = rec.span("Sim::run", |_| match p.kind {
        Kind::Synthetic {
            warmup: 0, cycles, ..
        } => sim.run(cycles),
        Kind::Synthetic { warmup, cycles, .. } => sim.warmup_and_measure(warmup, cycles),
        Kind::Coherence { budget, .. } => sim.run(budget),
    });
    let m = sim.metrics_snapshot();
    check_outputs(&sim, &m, outcome, &p.kind)?;
    let s = sim.stats();
    let offered = match p.kind {
        Kind::Synthetic { rate, .. } => rate,
        Kind::Coherence { .. } => 0.0,
    };
    let mut counts = collect_counts(&sim, &m);
    counts.insert(
        "aux.node_cycles",
        sim.core().cycle() as f64 * topo.num_nodes() as f64,
    );
    Ok(PointRun {
        setup_s,
        scheme_build_s,
        run_s,
        counts,
        digest: stats_digest(&sim),
        phases: phase_nanos(&m),
        sweep_point: SweepPoint {
            offered,
            throughput: s.throughput(sim.core().cycle(), topo.num_nodes()),
            latency: s.net_latency.mean(),
            p99: s.net_latency.p99(),
        },
    })
}

/// Standalone builds of each layer on one topology (traced pass): what
/// `Scheme::*_sim` is made of, each timed on its own.
pub struct LayerBuilds {
    /// Seconds by per-layer metric name.
    pub secs: Values,
    /// `topology.nodes`, `topology.links`, `drainpath.circuit_len`.
    pub counts: Values,
}

pub fn layer_builds(
    rec: &mut Recorder,
    w: &Workload,
    topo_idx: usize,
) -> Result<LayerBuilds, String> {
    let spec = &w.topos[topo_idx];
    rec.point = format!("{}/layers", topo_label(spec));
    let (result, _) = rec.span("layers", |rec| -> Result<LayerBuilds, String> {
        let mut secs = Values::new();
        let (topo, build_s) = rec.span("topology", |rec| build_topo(rec, spec));
        let topo = topo?;
        secs.insert("topology.build_s", build_s);
        secs.insert(
            "topology.distance_map_s",
            rec.span("DistanceMap::new", |_| DistanceMap::new(&topo)).1,
        );
        secs.insert(
            "topology.updown_s",
            rec.span("UpDownRouting::new", |_| UpDownRouting::new(&topo))
                .1,
        );
        secs.insert(
            "topology.partition_s",
            rec.span("Partition::balanced", |_| Partition::balanced(&topo, 2))
                .1,
        );
        let (path, compute_s) = rec.span("DrainPath::compute", |_| DrainPath::compute(&topo));
        let path = path.map_err(|e| format!("DrainPath::compute: {e:?}"))?;
        secs.insert("drainpath.compute_s", compute_s);
        let (verified, verify_s) = rec.span("DrainPath::verify", |_| path.verify(&topo));
        verified.map_err(|e| format!("DrainPath::verify: {e:?}"))?;
        secs.insert("drainpath.verify_s", verify_s);
        let circuit_len = path.len();
        if spec.full_mesh() {
            secs.insert(
                "netsim.routing.dor_table_s",
                rec.span("DorTable::new", |_| DorTable::new(&topo)).1,
            );
        }
        let shared = std::sync::Arc::new(topo);
        secs.insert(
            "netsim.routing.adaptive_new_s",
            rec.span("FullyAdaptive::new", |_| FullyAdaptive::new(&shared))
                .1,
        );
        secs.insert(
            "core.mechanism_new_s",
            rec.span("DrainMechanism::new", |_| {
                DrainMechanism::new(path, DrainConfig::default())
            })
            .1,
        );
        if let Some(Kind::Coherence { app, quota, .. }) = w.points.first().map(|p| &p.kind) {
            let model =
                drain_workloads::app_by_name(app).ok_or_else(|| format!("unknown app {app}"))?;
            secs.insert(
                "coherence.build_s",
                rec.span("CoherenceEngine::new", |_| {
                    let trace = drain_workloads::AppTrace::new(model, shared.num_nodes(), 1)
                        .with_quota(*quota);
                    drain_coherence::CoherenceEngine::new(
                        &shared,
                        drain_coherence::CoherenceConfig::default(),
                        Box::new(trace),
                    )
                })
                .1,
            );
        }
        let counts = Values::from([
            ("topology.nodes", shared.num_nodes() as f64),
            ("topology.links", shared.num_bidirectional_links() as f64),
            ("drainpath.circuit_len", circuit_len as f64),
        ]);
        Ok(LayerBuilds { secs, counts })
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    #[test]
    fn fnv_u64s_hashes_little_endian_bytes() {
        assert_eq!(fnv_u64s([]), 0xcbf2_9ce4_8422_2325, "FNV-1a offset basis");
        assert_eq!(fnv_u64s([0x0102]), fnv1a64(&[2, 1, 0, 0, 0, 0, 0, 0]));
        assert_ne!(fnv_u64s([1, 2]), fnv_u64s([2, 1]));
    }

    #[test]
    fn fold48_fits_a_json_number_exactly() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            let f = fold48(h);
            assert!(f < (1u64 << 48) as f64);
            assert_eq!(f as u64 as f64, f);
        }
        assert_ne!(fold48(1 << 60), fold48(0));
    }

    #[test]
    fn a_quick_point_passes_its_checks_and_repeats_bit_for_bit() {
        let w = workload("sat_mesh8", 3, true).unwrap();
        let mut rec = Recorder::new(false, w.name);
        let a = run_point(&mut rec, &w, &w.points[2], false, 1).unwrap();
        let b = run_point(&mut rec, &w, &w.points[2], true, 1).unwrap();
        assert_eq!(a.digest, b.digest, "the profiler is a pure observer");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.phases.sampled_cycles, 0);
        assert!(b.phases.sampled_cycles > 0);
        assert!(a.counts["netsim.packets_ejected"] > 0.0);
        let other = run_point(&mut rec, &w, &w.points[0], false, 1).unwrap();
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn layer_builds_cover_every_layer_of_a_mesh() {
        let w = workload("sat_mesh8", 1, true).unwrap();
        let mut rec = Recorder::new(true, w.name);
        let l = layer_builds(&mut rec, &w, 0).unwrap();
        for name in [
            "topology.build_s",
            "topology.distance_map_s",
            "topology.updown_s",
            "topology.partition_s",
            "drainpath.compute_s",
            "drainpath.verify_s",
            "netsim.routing.dor_table_s",
            "netsim.routing.adaptive_new_s",
            "core.mechanism_new_s",
        ] {
            assert!(l.secs.contains_key(name), "{name}");
        }
        assert_eq!(l.counts["topology.nodes"], 64.0);
        assert_eq!(l.counts["topology.links"], 112.0);
        assert_eq!(l.counts["drainpath.circuit_len"], 224.0);
    }
}
