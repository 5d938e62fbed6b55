//! Regression tests for the unified metrics registry and the kernel
//! phase profiler:
//!
//! 1. the profiler is a pure observer — the same seeded point produces
//!    identical [`drain_netsim::Stats`], the same final cycle and
//!    byte-identical traces with profiling off and on;
//! 2. a real simulation's Prometheus exposition parses back and
//!    re-encodes byte-identically, with registry counters agreeing with
//!    [`drain_netsim::Stats`], and its telemetry samples sit on window
//!    boundaries and sum to the cumulative link-flit totals;
//! 3. `MetricsSnapshot::merge` is associative (property-based), so
//!    fan-in order across sweep workers never changes the exposition.

use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{MetricsSnapshot, Stats, TraceConfig, TraceSink};

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

/// A real simulation's exposition must round-trip through the text
/// format byte-identically, and the registry must agree with `Stats`.
/// The telemetry series it sampled sits on window boundaries and accounts
/// for every flit the per-link totals saw.
#[test]
fn prometheus_round_trips_on_a_real_snapshot() {
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

    let text = snap.to_prometheus();
    let reparsed = MetricsSnapshot::parse_prometheus(&text)
        .expect("real exposition parses");
    assert_eq!(
        reparsed.to_prometheus(),
        text,
        "exposition must round-trip byte-identically"
    );
    assert_eq!(
        reparsed.counter_value("drain_packets_ejected_total"),
        Some(stats.ejected)
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
        m.counter("t_counter_total", "c", c);
        m.counter_labeled("t_labeled_total", "l", &[("k", "a")], labeled);
        m.gauge("t_gauge", "g", g as f64);
        let mut h = HistogramSnapshot::default();
        let mut x = hist_seed;
        for _ in 0..(hist_seed % 8) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 48);
        }
        m.histogram("t_hist", "h", h);
        m
    }

    proptest! {
        /// merge(merge(a, b), c) == merge(a, merge(b, c)) — compared on
        /// the wire format, so sample ordering and float rendering are
        /// covered too. Gauges are right-biased in both groupings, so
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

            prop_assert_eq!(left.to_prometheus(), right.to_prometheus());
        }
    }
}
