//! The seven workloads as data: which topologies each builds and which
//! points (scheme × operating point) it simulates. Traffic, random
//! topology and application trace derive from `--seed` by the fixed
//! offsets below; the two fault patterns are fixed (see their constants).
//! The simulator receives only the generated inputs.

use drain_bench::sweep::plan::{load_sweep_specs, PointSpec, TopoSpec};
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;

/// Fault pattern of `congested_irregular`. Fixed: how hard a pattern
/// congests moves flit hops per cycle by ±7 % from pattern to pattern
/// (±0.8 % from traffic seed to traffic seed), which would read as
/// run-to-run noise of `ns_per_flit_hop`.
const CONGESTED_FAULT_SEED: u64 = 9;
/// Random-topology seed offset (`random_connected(.., seed + RANDOM_TOPO_SEED)`).
const RANDOM_TOPO_SEED: u64 = 6;
/// The Fig 10 slice: fig10's own fault pattern for 8 faults (its seed is
/// `faults * 1000 + s`), simulated with seed `seed + SWEEP_SEED`. The
/// pattern is fixed because accepted throughput above saturation, and so
/// host time per flit hop, differs by ~8 % from pattern to pattern.
const SWEEP_SEED: u64 = 8_000;

/// Application-trace seeds (`seed .. seed + COHERENCE_SEEDS`) of
/// `coherence_app`.
const COHERENCE_SEEDS: u64 = 5;

/// What one point simulates.
#[derive(Clone, Debug)]
pub enum Kind {
    /// Open-loop uniform-random traffic: `warmup` cycles, then `cycles`
    /// more (`warmup == 0` is a plain `Sim::run(cycles)`).
    Synthetic {
        rate: f64,
        epoch: u64,
        warmup: u64,
        cycles: u64,
    },
    /// Closed-loop MESI-lite application model; must finish its quota
    /// within `budget` cycles.
    Coherence {
        app: &'static str,
        quota: u64,
        budget: u64,
    },
}

#[derive(Clone, Debug)]
pub struct Point {
    /// Index into [`Workload::topos`].
    pub topo: usize,
    pub scheme: Scheme,
    /// Index of `scheme` in `Scheme::headline()`.
    pub scheme_idx: usize,
    pub kind: Kind,
    pub seed: u64,
    pub id: String,
}

pub struct Workload {
    pub name: &'static str,
    pub topos: Vec<TopoSpec>,
    pub points: Vec<Point>,
    /// `sweep_fig10q`: the points also go through the sweep engine.
    pub sweep: bool,
    /// `sat_mesh16`: the traced pass also runs the K=1 / K=2 shard probe.
    pub shard_probe: bool,
}

/// A topology's cache-key fragment, made safe for a point id.
pub fn topo_label(t: &TopoSpec) -> String {
    t.key_material().replace(':', "-")
}

/// The three headline schemes at one operating point, on every topology
/// and for every simulation seed.
fn headline_points(topos: &[TopoSpec], kind: &Kind, seeds: std::ops::Range<u64>) -> Vec<Point> {
    let mut points = Vec::new();
    for (topo, spec) in topos.iter().enumerate() {
        for seed in seeds.clone() {
            for (scheme_idx, scheme) in Scheme::headline().into_iter().enumerate() {
                points.push(Point {
                    topo,
                    scheme,
                    scheme_idx,
                    kind: kind.clone(),
                    seed,
                    id: format!(
                        "{}/{}/s{seed}",
                        topo_label(spec),
                        crate::defs::SCHEME_KEYS[scheme_idx]
                    ),
                });
            }
        }
    }
    points
}

fn synthetic(rate: f64, epoch: u64, cycles: u64, quick: bool) -> Kind {
    Kind::Synthetic {
        rate,
        epoch,
        warmup: 0,
        cycles: if quick { cycles / 10 } else { cycles },
    }
}

/// Builds the named workload for `seed`; `quick` divides cycle counts
/// (and the coherence quota and budget) by ten and keeps 3 of the sweep
/// slice's 7 rates.
pub fn workload(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let def = crate::defs::WORKLOADS.iter().find(|w| w.name == name)?;
    let epoch = Scheme::DEFAULT_EPOCH;
    let mesh = |w, h| TopoSpec::Mesh { w, h };
    let mut seeds = seed..seed + 1;
    let (topos, kind) = match name {
        "sat_mesh8" => (vec![mesh(8, 8)], synthetic(0.40, epoch, 25_000, quick)),
        "low_mesh8" => (vec![mesh(8, 8)], synthetic(0.005, epoch, 500_000, quick)),
        "congested_irregular" => (
            vec![TopoSpec::mesh_with_faults(12, 12, 24, CONGESTED_FAULT_SEED)],
            synthetic(0.25, 512, 12_000, quick),
        ),
        "sat_mesh16" => (vec![mesh(16, 16)], synthetic(0.40, epoch, 5_000, quick)),
        "build_large" => (
            vec![
                mesh(32, 32),
                TopoSpec::Random {
                    n: 1_000,
                    degree_milli: 4_000,
                    seed: seed + RANDOM_TOPO_SEED,
                },
            ],
            synthetic(0.10, epoch, 300, quick),
        ),
        "coherence_app" => {
            // `CoherenceEngine::evict_one` picks its victim by position in
            // a `HashMap`'s iteration order, which differs from run to run,
            // so a run that evicts does not repeat. 240 operations per core
            // (+ 16 MSHRs) never fill the 256-line L1: no eviction, exact
            // counts. Several application-trace seeds make up the work.
            let div = if quick { 10 } else { 1 };
            seeds = seed..seed + if quick { 1 } else { COHERENCE_SEEDS };
            (
                vec![mesh(8, 8)],
                Kind::Coherence {
                    app: "canneal",
                    quota: 240 / div,
                    budget: 100_000 / div,
                },
            )
        }
        "sweep_fig10q" => {
            let s = seed + SWEEP_SEED;
            let topo = TopoSpec::mesh_with_faults(8, 8, 8, SWEEP_SEED);
            let mut points = Vec::new();
            for (scheme_idx, scheme) in Scheme::headline().into_iter().enumerate() {
                // `Scale::Quick` fixes the cycle count, so `quick` thins the
                // rates instead: every third one.
                let step = if quick { 3 } else { 1 };
                for rate in Scale::Quick.rate_sweep().into_iter().step_by(step) {
                    points.push(Point {
                        topo: 0,
                        scheme,
                        scheme_idx,
                        kind: Kind::Synthetic {
                            rate,
                            epoch,
                            warmup: Scale::Quick.warmup(),
                            cycles: Scale::Quick.measure(),
                        },
                        seed: s,
                        id: format!(
                            "{}/{}/r{:.2}",
                            topo_label(&topo),
                            crate::defs::SCHEME_KEYS[scheme_idx],
                            rate
                        ),
                    });
                }
            }
            return Some(Workload {
                name: def.name,
                topos: vec![topo],
                points,
                sweep: true,
                shard_probe: false,
            });
        }
        _ => return None,
    };
    Some(Workload {
        name: def.name,
        points: headline_points(&topos, &kind, seeds),
        topos,
        sweep: false,
        shard_probe: name == "sat_mesh16",
    })
}

impl Workload {
    /// The points as sweep-engine jobs (`sweep_fig10q`).
    pub fn point_specs(&self) -> Vec<PointSpec> {
        self.points
            .iter()
            .map(|p| match p.kind {
                Kind::Synthetic { rate, epoch, .. } => PointSpec::new(
                    p.scheme,
                    self.topos[p.topo].clone(),
                    SyntheticPattern::UniformRandom,
                    rate,
                    p.seed,
                    Scale::Quick,
                )
                .with_epoch(epoch),
                Kind::Coherence { .. } => unreachable!("sweep points are synthetic"),
            })
            .collect()
    }
}

/// The full fig10 quick grid (2 patterns × 5 fault counts × 3 schemes ×
/// 3 seeds × 7 rates = 630 specs), in fig10's order with `seed` added to
/// fig10's own seeds, for the cached replay.
pub fn fig10_quick_grid(seed: u64) -> Vec<PointSpec> {
    let scale = Scale::Quick;
    let mut specs = Vec::new();
    for pattern in [SyntheticPattern::UniformRandom, SyntheticPattern::Transpose] {
        for faults in [0usize, 1, 4, 8, 12] {
            for scheme in Scheme::headline() {
                for s in 0..scale.seeds() {
                    let seed = seed + (faults * 1000 + s) as u64;
                    let topo = TopoSpec::mesh_with_faults(8, 8, faults, seed);
                    specs.extend(load_sweep_specs(
                        scheme,
                        &topo,
                        &pattern,
                        seed,
                        Scheme::DEFAULT_EPOCH,
                        scale,
                    ));
                }
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_and_has_points() {
        for def in crate::defs::WORKLOADS {
            let w = workload(def.name, 1, false).expect(def.name);
            assert!(!w.points.is_empty(), "{}", def.name);
            assert!(w.points.iter().all(|p| p.topo < w.topos.len()));
        }
        assert!(workload("nope", 1, false).is_none());
    }

    #[test]
    fn sweep_slice_is_21_specs_and_the_grid_is_630() {
        let w = workload("sweep_fig10q", 1, false).unwrap();
        assert_eq!(w.point_specs().len(), 21);
        assert_eq!(fig10_quick_grid(1).len(), 630);
    }

    #[test]
    fn the_seed_reaches_every_random_input() {
        let a = workload("build_large", 1, false).unwrap();
        let b = workload("build_large", 2, false).unwrap();
        assert_ne!(a.topos[1], b.topos[1]);
        assert_ne!(a.points[0].seed, b.points[0].seed);
    }
}
