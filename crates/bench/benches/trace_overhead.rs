//! Observability overhead: simulator cycles/second with tracing disabled
//! (the default; must stay within ~2% of the pre-observability kernel),
//! with event capture into the null-sink ring buffer, with telemetry
//! sampling, and with the kernel phase profiler at its default and a
//! dense cadence — all on one saturated 8×8 DRAIN point.
//!
//! The `disabled` variant doubles as the metrics-subsystem regression
//! gate: the registry is pull-based and the profiler costs one branch
//! per phase mark when off, so `disabled` must match the pre-metrics
//! kernel within noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drain_bench::scheme::DrainVariant;
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::TraceConfig;
use drain_topology::Topology;

fn bench(c: &mut Criterion) {
    let topo = Topology::mesh(8, 8);
    let scheme = Scheme::Drain(DrainVariant::Vn1Vc2);
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    const CYCLES: u64 = 5_000;
    g.throughput(Throughput::Elements(CYCLES));

    // (name, trace config, profiler period; 0 = profiler off)
    let variants: [(&str, TraceConfig, u64); 5] = [
        ("disabled", TraceConfig::default(), 0),
        ("ring-null", TraceConfig::events_on(), 0),
        ("telemetry-256", TraceConfig::default().with_telemetry(256), 0),
        ("profiler-64", TraceConfig::default(), 64),
        ("profiler-1", TraceConfig::default(), 1),
    ];
    for (name, cfg, profile_period) in variants {
        let input = (cfg, profile_period);
        g.bench_with_input(BenchmarkId::new("cycles", name), &input, |b, (cfg, period)| {
            b.iter(|| {
                let mut sim = scheme.synthetic_sim_traced(
                    &topo,
                    true,
                    SyntheticPattern::UniformRandom,
                    0.08,
                    1,
                    Scheme::DEFAULT_EPOCH,
                    1,
                    cfg.clone(),
                );
                sim.set_profile_period(*period);
                sim.run(CYCLES);
                sim.stats().ejected
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
