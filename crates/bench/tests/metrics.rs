//! Regression tests for the unified metrics registry and the kernel
//! phase profiler:
//!
//! 1. the profiler is a pure observer — the same seeded point produces
//!    identical [`drain_netsim::Stats`], the same final cycle and
//!    byte-identical traces with profiling off and on;
//! 2. a real simulation's registry agrees with [`drain_netsim::Stats`]
//!    and its JSONL line parses back with every counter under its
//!    `name{labels}` key, and its telemetry samples sit on window
//!    boundaries and sum to the cumulative link-flit totals;
//! 3. the JSONL line stays valid JSON for NaN and infinite gauges and
//!    for label values that need escaping;
//! 4. `MetricsSnapshot::merge` is associative (property-based), so
//!    fan-in order across sweep workers never changes the JSONL line.

use drain_bench::json::{self, Json};
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{MetricValue, MetricsSnapshot, Stats, TraceConfig, TraceSink};

mod common;
use common::irregular_topo;

/// One seeded point with the phase profiler at `period` (0 = off).
/// Returns stats, final cycle, and trace bytes.
fn profiled_point(scheme: Scheme, period: u64) -> (Stats, u64, String) {
    let topo = irregular_topo();
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
    sim.set_profile_period(period);
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(2_000);
    let trace: String = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed")
        .iter()
        .map(|e| e.to_jsonl() + "\n")
        .collect();
    assert!(!trace.is_empty());
    (sim.stats().clone(), sim.core().cycle(), trace)
}

/// Profiler differential: every headline scheme must produce identical
/// `Stats` (every counter and full latency histograms), the same final
/// cycle and byte-identical traces with the profiler off and sampling
/// every 32nd cycle.
#[test]
fn profiler_is_bit_identical_off_and_on() {
    for scheme in Scheme::headline() {
        let (off, cycle_off, trace_off) = profiled_point(scheme, 0);
        let (on, cycle_on, trace_on) = profiled_point(scheme, 32);
        assert_eq!(
            off,
            on,
            "{}: stats must not depend on the profiler",
            scheme.label()
        );
        assert_eq!(
            cycle_off,
            cycle_on,
            "{}: final cycle must not depend on the profiler",
            scheme.label()
        );
        assert_eq!(
            trace_off,
            trace_on,
            "{}: trace bytes must not depend on the profiler",
            scheme.label()
        );
        assert!(off.ejected > 0, "{} delivered nothing", scheme.label());
    }
}

/// A real simulation's registry must agree with `Stats`, and its JSONL
/// line must parse back with every counter under its `name{labels}` key.
/// The telemetry series it sampled sits on window boundaries and accounts
/// for every flit the per-link totals saw.
#[test]
fn jsonl_snapshot_agrees_with_stats_on_a_real_run() {
    const PERIOD: u64 = 64;
    let topo = irregular_topo();
    let mut sim = Scheme::headline()[0].synthetic_sim_traced(
        &topo,
        false,
        SyntheticPattern::UniformRandom,
        0.10,
        11,
        512,
        1,
        TraceConfig::default().with_telemetry(PERIOD),
    );
    sim.set_profile_period(32);
    // A whole number of windows, so the last sample closes the run.
    sim.run(47 * PERIOD);

    let telem = sim.core().telemetry();
    let samples: Vec<_> = telem.samples().collect();
    assert_eq!(samples.len(), 47);
    for s in &samples {
        assert_eq!(
            (s.cycle + 1) % PERIOD,
            0,
            "sample at cycle {} is off a boundary",
            s.cycle
        );
    }
    let windowed: u64 = samples.iter().map(|s| s.total_flits()).sum();
    let cumulative: u64 = (0..topo.num_unidirectional_links())
        .map(|l| telem.total_link_flits(l))
        .sum();
    assert!(windowed > 0);
    assert_eq!(
        windowed, cumulative,
        "summed window flits must equal the per-link totals"
    );

    let snap = sim.metrics_snapshot();
    let stats = sim.stats();
    assert_eq!(
        snap.counter_value("drain_packets_ejected_total"),
        Some(stats.ejected)
    );
    assert_eq!(
        snap.counter_value("drain_packets_injected_total"),
        Some(stats.injected)
    );
    assert_eq!(snap.counter_value("drain_hops_total"), Some(stats.hops));
    assert!(
        snap.counter_value("drain_profile_sampled_cycles_total").unwrap_or(0) > 0,
        "profiler must have sampled"
    );
    assert!(
        snap.counter_value("drain_telemetry_samples_taken_total").unwrap_or(0) > 0,
        "telemetry must have sampled"
    );

    let line = snap.to_jsonl(sim.core().cycle());
    let parsed = json::parse(&line).expect("real snapshot line parses");
    let mut counters = 0;
    for fam in snap.families() {
        for s in &fam.samples {
            if let MetricValue::Counter(v) = s.value {
                let key = s.key(&fam.name);
                assert_eq!(
                    parsed.get(&key).and_then(Json::as_u64),
                    Some(v),
                    "counter {key} must read back"
                );
                counters += 1;
            }
        }
    }
    assert!(counters > 20, "only {counters} counters in a real snapshot");
    assert_eq!(
        parsed.get("drain_packets_ejected_total").and_then(Json::as_u64),
        Some(stats.ejected)
    );
}

/// JSON has no NaN or infinity and needs quotes and backslashes escaped:
/// the registry's line must stay parseable with all of them in it.
#[test]
fn jsonl_line_is_valid_json_for_nonfinite_gauges_and_escaped_labels() {
    let mut m = MetricsSnapshot::new();
    m.gauge("t_nan", f64::NAN);
    m.gauge("t_inf", f64::INFINITY);
    m.gauge_labeled("t_neg_inf", &[("k", "a\"b\\c\nd")], f64::NEG_INFINITY);
    m.counter_labeled("t_escaped_total", &[("path", "C:\\x \"y\"")], 7);
    let line = m.to_jsonl(0);
    let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(parsed.get("t_nan"), Some(&Json::Null));
    assert_eq!(parsed.get("t_inf"), Some(&Json::Null));
    assert_eq!(
        parsed.get("t_neg_inf{k=\"a\"b\\c\nd\"}"),
        Some(&Json::Null)
    );
    assert_eq!(
        parsed
            .get("t_escaped_total{path=\"C:\\x \"y\"\"}")
            .and_then(Json::as_u64),
        Some(7)
    );
}

mod merge_associativity {
    use super::*;
    use drain_netsim::HistogramSnapshot;
    use proptest::prelude::*;

    /// A small arbitrary registry: a counter, a labeled counter, a gauge
    /// and a histogram whose samples are derived from `hist_seed` (the
    /// vendored proptest has no collection strategies, so an LCG stands
    /// in for an arbitrary sample vector).
    fn snapshot(c: u64, labeled: u64, g: i64, hist_seed: u64) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.counter("t_counter_total", c);
        m.counter_labeled("t_labeled_total", &[("k", "a")], labeled);
        m.gauge("t_gauge", g as f64);
        let mut h = HistogramSnapshot::default();
        let mut x = hist_seed;
        for _ in 0..(hist_seed % 8) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 48);
        }
        m.histogram("t_hist", h);
        m
    }

    proptest! {
        /// merge(merge(a, b), c) == merge(a, merge(b, c)) — compared as
        /// values and on the JSONL line, so sample ordering and float
        /// rendering are covered too. Gauges are right-biased in both groupings, so
        /// associativity holds for every kind.
        #[test]
        fn merge_is_associative(
            a in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
            b in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
            c in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
        ) {
            // Keep counters small enough that three-way sums cannot wrap.
            let mk = |t: &(u64, u64, i64, u64)| {
                snapshot(t.0 % (1 << 40), t.1 % (1 << 40), t.2, t.3)
            };
            let (sa, sb, sc) = (mk(&a), mk(&b), mk(&c));

            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);

            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);

            prop_assert_eq!(&left, &right);
            prop_assert_eq!(left.to_jsonl(0), right.to_jsonl(0));
        }
    }
}
