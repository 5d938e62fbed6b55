//! Load–latency sweeps and saturation-throughput search.
//!
//! [`measure_point`] is the primitive every synthetic figure builds on;
//! [`plan`] expands figure grids into independent [`plan::PointSpec`] jobs
//! for the parallel [`crate::engine::SweepEngine`]. The serial entry
//! points here and the engine share the same measurement code, so the two
//! paths produce bit-identical [`Point`]s (asserted by the
//! `parallel_sweep_determinism` integration test).

pub mod plan;

use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::TraceConfig;
use drain_topology::Topology;

use crate::scale::Scale;
use crate::scheme::Scheme;

/// One measured operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Offered injection rate (packets/node/cycle).
    pub offered: f64,
    /// Accepted (received) throughput (packets/node/cycle).
    pub throughput: f64,
    /// Mean network latency over the measurement window (cycles); NaN when
    /// no packet was delivered in the window.
    pub latency: f64,
    /// 99th-percentile network latency (cycles).
    pub p99: u64,
}

/// Measures one operating point: warmup, then a measurement window.
/// `hops_per_drain` is 1 everywhere but the Fig 14 ablation.
#[allow(clippy::too_many_arguments)]
pub fn measure_point(
    scheme: Scheme,
    topo: &Topology,
    full_mesh: bool,
    pattern: &SyntheticPattern,
    rate: f64,
    seed: u64,
    epoch: u64,
    hops_per_drain: u32,
    scale: Scale,
) -> Point {
    let mut sim = scheme.synthetic_sim_traced(
        topo,
        full_mesh,
        pattern.clone(),
        rate,
        seed,
        epoch,
        hops_per_drain,
        TraceConfig::default(),
    );
    sim.warmup_and_measure(scale.warmup(), scale.measure());
    let now = sim.core().cycle();
    let s = sim.stats();
    Point {
        offered: rate,
        throughput: s.throughput(now, topo.num_nodes()),
        latency: s.net_latency.mean(),
        p99: s.net_latency.p99(),
    }
}

/// Full load sweep for one (scheme, topology, pattern, seed), run
/// serially in the calling thread. The parallel equivalent is
/// [`crate::engine::SweepEngine::load_sweep`].
pub fn load_sweep(
    scheme: Scheme,
    topo: &Topology,
    full_mesh: bool,
    pattern: &SyntheticPattern,
    seed: u64,
    epoch: u64,
    scale: Scale,
) -> Vec<Point> {
    scale
        .rate_sweep()
        .into_iter()
        .map(|rate| measure_point(scheme, topo, full_mesh, pattern, rate, seed, epoch, 1, scale))
        .collect()
}

/// Saturation throughput: the maximum accepted throughput over the sweep
/// (the standard plateau measure).
pub fn saturation_throughput(points: &[Point]) -> f64 {
    points.iter().map(|p| p.throughput).fold(0.0, f64::max)
}

/// Low-load latency: mean latency at the lowest swept rate.
pub fn low_load_latency(points: &[Point]) -> f64 {
    points
        .first()
        .map(|p| p.latency)
        .unwrap_or(f64::NAN)
}

/// Mean of a slice (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_load() {
        let topo = Topology::mesh(4, 4);
        let pat = SyntheticPattern::UniformRandom;
        let low = measure_point(
            Scheme::Spin,
            &topo,
            true,
            &pat,
            0.02,
            1,
            Scheme::DEFAULT_EPOCH,
            1,
            Scale::Quick,
        );
        let high = measure_point(
            Scheme::Spin,
            &topo,
            true,
            &pat,
            0.30,
            1,
            Scheme::DEFAULT_EPOCH,
            1,
            Scale::Quick,
        );
        assert!(high.latency > low.latency);
        assert!(high.throughput > low.throughput * 2.0);
    }

    #[test]
    fn saturation_is_max() {
        let pts = vec![
            Point {
                offered: 0.1,
                throughput: 0.1,
                latency: 10.0,
                p99: 20,
            },
            Point {
                offered: 0.4,
                throughput: 0.32,
                latency: 300.0,
                p99: 900,
            },
        ];
        assert_eq!(saturation_throughput(&pts), 0.32);
        assert_eq!(low_load_latency(&pts), 10.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
