//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root is generated from these
//! tables (`--emit-contract`) and a test holds the two equal.

use drain_bench::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share by which the value may get worse before `--compare` calls
    /// it a regression; `None` = reported, never gated.
    pub bound: Option<f64>,
    /// A simulated count or a value derived only from such counts: it
    /// must repeat bit-for-bit for one seed.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn secs(name: &'static str) -> MetricDef {
    def(name, "s", "lower")
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// An exact simulated count.
const fn count(name: &'static str) -> MetricDef {
    exact(name, "count", "lower")
}

const fn gated(d: MetricDef, bound: f64) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..d
    }
}

/// Bound of every host-time metric, the contract's maximum: on the
/// noisiest workload the quartile spread over ten runs reads 4-8 % from
/// one window to the next, and it has to stay below a third of the bound
/// (README "Bounds").
const TIME_BOUND: f64 = 0.25;

/// What a user of the repo pays, reported by every workload. Host time
/// unless the unit says otherwise; every timing is a floor-sum.
pub const END_TO_END: &[MetricDef] = &[
    gated(secs("setup_s"), TIME_BOUND),
    gated(secs("wall_s"), TIME_BOUND),
    gated(def("sim_cycles_per_s", "cycles/s", "higher"), TIME_BOUND),
    gated(def("ns_per_flit_hop", "ns/flit-hop", "lower"), TIME_BOUND),
];

/// Scheme suffixes of the per-scheme rows, in `Scheme::headline()` order.
pub const SCHEME_KEYS: [&str; 3] = ["escapevc", "spin", "drain"];

/// Kernel phases of the profiler, in `Phase::ALL` order plus `other`.
pub const PHASES: [&str; 9] = [
    "endpoints",
    "mechanism",
    "phase_a",
    "phase_b",
    "fabric",
    "forced",
    "checks",
    "telemetry",
    "other",
];

/// One value per layer boundary, reported by the traced pass. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // The process: `VmHWM` after the one-at-a-time part of the first
    // repetition. Steady to 1 % for one seed, but the saturated
    // workloads' source queues grow by doubling, so it moves 15-20 %
    // between seeds: gated by `--compare` (same seed) and kept out of the
    // end-to-end list.
    gated(def("process.peak_rss_mb", "MiB", "lower"), 0.05),
    // topology
    secs("topology.build_s"),
    secs("topology.distance_map_s"),
    secs("topology.updown_s"),
    secs("topology.partition_s"),
    count("topology.nodes"),
    count("topology.links"),
    // drainpath
    secs("drainpath.compute_s"),
    secs("drainpath.verify_s"),
    count("drainpath.circuit_len"),
    // core
    secs("core.mechanism_new_s"),
    count("core.drains"),
    count("core.full_drains"),
    count("core.forced_hops"),
    // netsim.routing
    secs("netsim.routing.dor_table_s"),
    secs("netsim.routing.adaptive_new_s"),
    // bench.scheme
    secs("bench.scheme.build_s.escapevc"),
    secs("bench.scheme.build_s.spin"),
    secs("bench.scheme.build_s.drain"),
    // netsim, seen from outside
    secs("netsim.run_s"),
    secs("netsim.run_s.escapevc"),
    secs("netsim.run_s.spin"),
    secs("netsim.run_s.drain"),
    def("netsim.ns_per_cycle", "ns/cycle", "lower"),
    count("netsim.cycles"),
    count("netsim.packets_generated"),
    count("netsim.packets_injected"),
    exact("netsim.packets_ejected", "count", "higher"),
    count("netsim.hops"),
    count("netsim.flit_hops"),
    count("netsim.misroutes"),
    count("netsim.rng_draws.phase_a"),
    count("netsim.rng_draws.injection"),
    count("netsim.rng_draws.mechanism"),
    exact("netsim.ff_cycles_skipped", "count", "higher"),
    exact("netsim.ff_jumps", "count", "higher"),
    exact("netsim.throughput", "pkt/node/cycle", "higher"),
    exact("netsim.mean_latency_cycles", "cycles", "lower"),
    exact("netsim.p99_latency_cycles", "cycles", "lower"),
    exact("netsim.stats_digest", "hash48", "lower"),
    // netsim.wake
    count("netsim.wake.parks"),
    exact("netsim.wake.skips", "count", "higher"),
    count("netsim.wake.wakes"),
    count("netsim.wake.spurious_wakes"),
    count("netsim.wake.stalls"),
    exact("netsim.wake.skips_per_park", "ratio", "higher"),
    exact("netsim.wake.spurious_share", "ratio", "lower"),
    // netsim.phase (profiled run)
    def("netsim.phase.endpoints_share", "ratio", "lower"),
    def("netsim.phase.mechanism_share", "ratio", "lower"),
    def("netsim.phase.phase_a_share", "ratio", "lower"),
    def("netsim.phase.phase_b_share", "ratio", "lower"),
    def("netsim.phase.fabric_share", "ratio", "lower"),
    def("netsim.phase.forced_share", "ratio", "lower"),
    def("netsim.phase.checks_share", "ratio", "lower"),
    def("netsim.phase.telemetry_share", "ratio", "lower"),
    def("netsim.phase.other_share", "ratio", "lower"),
    def("netsim.phase.endpoints_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.mechanism_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.phase_a_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.phase_b_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.fabric_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.forced_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.checks_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.telemetry_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.phase.other_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.trace_overhead_ratio", "ratio", "lower"),
    // netsim.shard (K=1 vs K=2 probe, sat_mesh16 only)
    def("netsim.shard.k1_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.shard.k2_ns_per_cycle", "ns/cycle", "lower"),
    def("netsim.shard.k2_speedup", "ratio", "higher"),
    count("netsim.shard.fabric_flits"),
    exact("netsim.shard.sharded_cycles", "count", "higher"),
    def("netsim.shard.plan_ns_shard0", "ns/cycle", "lower"),
    def("netsim.shard.plan_ns_shard1", "ns/cycle", "lower"),
    // baselines
    count("baselines.spins"),
    count("baselines.probe_hops"),
    count("baselines.deadlocks_detected"),
    // coherence
    secs("coherence.build_s"),
    exact("coherence.finish_cycle", "cycles", "lower"),
    // bench.sweep / runner / cache / json (sweep_fig10q only)
    secs("bench.sweep.plan_s"),
    secs("bench.sweep.cold_s"),
    secs("bench.sweep.warm_s"),
    secs("bench.sweep.overhead_s"),
    def("bench.sweep.point_wall_ms_mean", "ms", "lower"),
    def("bench.sweep.point_wall_ms_max", "ms", "lower"),
    gated(
        def("bench.sweep.points_per_s", "points/s", "higher"),
        TIME_BOUND,
    ),
    gated(
        def("bench.sweep.warm_points_per_s", "points/s", "higher"),
        TIME_BOUND,
    ),
    def("bench.runner.worker_utilization", "ratio", "higher"),
    secs("bench.runner.queue_wait_s"),
    def("bench.cache.store_us_per_point", "us/point", "lower"),
    def("bench.cache.lookup_us_per_point", "us/point", "lower"),
    exact("bench.cache.hits", "count", "higher"),
    count("bench.cache.misses"),
    def("bench.json.encode_us", "us", "lower"),
    def("bench.json.parse_us", "us", "lower"),
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sat_mesh8",
        why: "mesh(8,8) at 0.40: dense network, Phase A + Phase B dominate, small working set, construction near 0",
    },
    WorkloadDef {
        name: "low_mesh8",
        why: "mesh(8,8) at 0.005: almost every VC empty, endpoints and bitmap skips dominate; taxes on the empty case show here",
    },
    WorkloadDef {
        name: "congested_irregular",
        why: "mesh(12,12) minus 24 links at 0.25, epoch 512: long blocking episodes, drain windows and up*/down* tables run",
    },
    WorkloadDef {
        name: "sat_mesh16",
        why: "mesh(16,16) at 0.40: the dense regime at 4x the arena footprint, cache-miss bound; preset of the K=1/K=2 probe",
    },
    WorkloadDef {
        name: "build_large",
        why: "mesh(32,32) and a 1000-router random graph, 300 cycles: construction dominates, the kernel does little",
    },
    WorkloadDef {
        name: "sweep_fig10q",
        why: "21 Fig 10 points through the sweep engine cold on 2 threads, then a 630-spec cached replay: runner, cache and JSON",
    },
    WorkloadDef {
        name: "coherence_app",
        why: "MESI-lite canneal on mesh(8,8), closed loop, 3 message classes: endpoint-side work and multi-class injection",
    },
];

/// Seconds one run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 15;

fn metric_json(d: &MetricDef, with_bound: bool) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(d.name.into())),
        ("unit", Json::Str(d.unit.into())),
        ("better", Json::Str(d.better.into())),
    ];
    if with_bound {
        pairs.push((
            "bound",
            Json::Num(d.bound.expect("end-to-end metrics are gated")),
        ));
    }
    Json::obj(pairs)
}

/// The contract file, as a JSON value.
pub fn contract() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric_json(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric_json(d, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn ok_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            names.push(d.name);
            assert!(ok_unit(d.unit), "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        assert!(names.iter().all(|n| ok_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = drain_bench::json::parse(&text).expect("valid JSON");
        assert_eq!(
            on_disk,
            contract(),
            "regenerate with run.sh --emit-contract"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
