//! Experiment-grid planning: every synthetic operating point a figure
//! needs, expressed as an independent, hashable [`PointSpec`] job.
//!
//! A figure's evaluation grid (scheme × topology × pattern × rate ×
//! fault-seed) is expanded up front into `PointSpec`s; the
//! [`crate::engine::SweepEngine`] then runs the specs in parallel and
//! caches each result under the spec's [cache key](PointSpec::key_material).
//! Because a spec carries *everything* that determines its result —
//! including the RNG seed and the run-length [`Scale`] — parallel and
//! serial execution produce bit-identical [`Point`]s.

use drain_netsim::traffic::SyntheticPattern;
use drain_topology::chiplet::{demo_heterogeneous_system, random_connected};
use drain_topology::{faults::FaultInjector, Topology};

use crate::scale::Scale;
use crate::scheme::Scheme;
use crate::sweep::{measure_point, Point};

/// A reproducible topology description (the cacheable stand-in for a
/// built [`Topology`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TopoSpec {
    /// A pristine `w`×`h` mesh.
    Mesh {
        /// Mesh width.
        w: u16,
        /// Mesh height.
        h: u16,
    },
    /// A `w`×`h` mesh with `faults` bidirectional links removed by
    /// [`FaultInjector::new(seed)`](FaultInjector).
    FaultyMesh {
        /// Mesh width.
        w: u16,
        /// Mesh height.
        h: u16,
        /// Number of removed links (> 0; use [`TopoSpec::Mesh`] for 0).
        faults: usize,
        /// Fault-injection seed.
        seed: u64,
    },
    /// [`random_connected`]`(n, avg_degree, seed)`.
    Random {
        /// Node count.
        n: u16,
        /// Average degree × 1000 (kept integral so the cache key never
        /// depends on float formatting).
        degree_milli: u32,
        /// Construction seed.
        seed: u64,
    },
    /// [`demo_heterogeneous_system`]`(seed)` — the §VI chiplet system.
    Chiplet {
        /// Composition seed.
        seed: u64,
    },
}

impl TopoSpec {
    /// A faulty mesh when `faults > 0`, a pristine mesh otherwise (the
    /// idiom every mesh figure uses).
    pub fn mesh_with_faults(w: u16, h: u16, faults: usize, seed: u64) -> TopoSpec {
        if faults == 0 {
            TopoSpec::Mesh { w, h }
        } else {
            TopoSpec::FaultyMesh { w, h, faults, seed }
        }
    }

    /// Constructs the topology.
    ///
    /// # Panics
    ///
    /// Panics when fault injection cannot remove the requested links while
    /// keeping the topology connected (mirrors the original binaries).
    pub fn build(&self) -> Topology {
        match *self {
            TopoSpec::Mesh { w, h } => Topology::mesh(w, h),
            TopoSpec::FaultyMesh { w, h, faults, seed } => FaultInjector::new(seed)
                .remove_links(&Topology::mesh(w, h), faults)
                .expect("fault injection keeps the mesh connected"),
            TopoSpec::Random {
                n,
                degree_milli,
                seed,
            } => random_connected(n, degree_milli as f64 / 1000.0, seed),
            TopoSpec::Chiplet { seed } => demo_heterogeneous_system(seed),
        }
    }

    /// Whether schemes may use mesh-specialised (XY-escape) assembly —
    /// true only for pristine meshes, matching the `full_mesh` flag the
    /// figure binaries passed by hand.
    pub fn full_mesh(&self) -> bool {
        matches!(self, TopoSpec::Mesh { .. })
    }

    /// Canonical cache-key fragment.
    pub fn key_material(&self) -> String {
        match *self {
            TopoSpec::Mesh { w, h } => format!("mesh:{w}x{h}"),
            TopoSpec::FaultyMesh { w, h, faults, seed } => {
                format!("faultymesh:{w}x{h}:f{faults}:s{seed}")
            }
            TopoSpec::Random {
                n,
                degree_milli,
                seed,
            } => format!("random:{n}:d{degree_milli}:s{seed}"),
            TopoSpec::Chiplet { seed } => format!("chiplet:s{seed}"),
        }
    }
}

/// Canonical cache-key fragment for a traffic pattern.
pub fn pattern_key(pattern: &SyntheticPattern) -> String {
    match pattern {
        SyntheticPattern::Hotspot(targets) => {
            let ids: Vec<String> = targets.iter().map(|n| n.0.to_string()).collect();
            format!("hotspot[{}]", ids.join(","))
        }
        p => p.name().to_string(),
    }
}

/// One independent synthetic operating point: everything that determines
/// its [`Point`] result, and nothing that doesn't.
#[derive(Clone, Debug, PartialEq)]
pub struct PointSpec {
    /// Evaluated scheme.
    pub scheme: Scheme,
    /// Topology description.
    pub topo: TopoSpec,
    /// Traffic pattern.
    pub pattern: SyntheticPattern,
    /// Offered injection rate (packets/node/cycle).
    pub rate: f64,
    /// Simulation seed (also salts traffic generation).
    pub seed: u64,
    /// Drain epoch in cycles (ignored by non-DRAIN schemes).
    pub epoch: u64,
    /// Hops drained per window (paper default 1; Fig 14 ablation only).
    pub hops_per_drain: u32,
    /// Warmup/measurement lengths.
    pub scale: Scale,
}

impl PointSpec {
    /// A spec with the paper-default epoch and 1 hop per drain window.
    pub fn new(
        scheme: Scheme,
        topo: TopoSpec,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        scale: Scale,
    ) -> PointSpec {
        PointSpec {
            scheme,
            topo,
            pattern,
            rate,
            seed,
            epoch: Scheme::DEFAULT_EPOCH,
            hops_per_drain: 1,
            scale,
        }
    }

    /// Overrides the drain epoch.
    pub fn with_epoch(mut self, epoch: u64) -> PointSpec {
        self.epoch = epoch;
        self
    }

    /// Simulated cycles this spec will run (warmup + measurement window).
    pub fn sim_cycles(&self) -> u64 {
        self.scale.warmup() + self.scale.measure()
    }

    /// Runs the simulation for this spec (builds the topology and the
    /// simulator locally, so specs can run on any worker thread).
    pub fn run(&self) -> Point {
        let topo = self.topo.build();
        measure_point(
            self.scheme,
            &topo,
            self.topo.full_mesh(),
            &self.pattern,
            self.rate,
            self.seed,
            self.epoch,
            self.hops_per_drain,
            self.scale,
        )
    }

    /// The canonical string hashed into the cache key. Every field that
    /// influences the result appears here; rates are fixed-point
    /// formatted (µ-units) so the key never depends on float printing.
    pub fn key_material(&self) -> String {
        format!(
            "scheme={}|topo={}|pattern={}|rate={}|seed={}|epoch={}|hops={}|scale={}",
            self.scheme.key(),
            self.topo.key_material(),
            pattern_key(&self.pattern),
            (self.rate * 1e6).round() as u64,
            self.seed,
            self.epoch,
            self.hops_per_drain,
            self.scale.label(),
        )
    }
}

/// Expands a full load sweep (one spec per swept rate) for one
/// (scheme, topology, pattern, seed) — the unit from which saturation
/// throughput and low-load latency are derived.
pub fn load_sweep_specs(
    scheme: Scheme,
    topo: &TopoSpec,
    pattern: &SyntheticPattern,
    seed: u64,
    epoch: u64,
    scale: Scale,
) -> Vec<PointSpec> {
    scale
        .rate_sweep()
        .into_iter()
        .map(|rate| {
            PointSpec::new(scheme, topo.clone(), pattern.clone(), rate, seed, scale)
                .with_epoch(epoch)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> PointSpec {
        PointSpec::new(
            Scheme::Spin,
            TopoSpec::Mesh { w: 4, h: 4 },
            SyntheticPattern::UniformRandom,
            0.05,
            1,
            Scale::Quick,
        )
    }

    #[test]
    fn key_changes_when_any_field_changes() {
        let base = base_spec();
        let variants = [
            PointSpec {
                scheme: Scheme::EscapeVc,
                ..base.clone()
            },
            PointSpec {
                topo: TopoSpec::Mesh { w: 8, h: 8 },
                ..base.clone()
            },
            PointSpec {
                topo: TopoSpec::FaultyMesh {
                    w: 4,
                    h: 4,
                    faults: 2,
                    seed: 1,
                },
                ..base.clone()
            },
            PointSpec {
                pattern: SyntheticPattern::Transpose,
                ..base.clone()
            },
            PointSpec {
                rate: 0.06,
                ..base.clone()
            },
            PointSpec {
                seed: 2,
                ..base.clone()
            },
            PointSpec {
                epoch: 1024,
                ..base.clone()
            },
            PointSpec {
                hops_per_drain: 2,
                ..base.clone()
            },
            PointSpec {
                scale: Scale::Full,
                ..base.clone()
            },
        ];
        let base_key = base.key_material();
        let mut all: Vec<String> = variants.iter().map(|s| s.key_material()).collect();
        for k in &all {
            assert_ne!(k, &base_key, "variant key must differ from base");
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), variants.len(), "variant keys must be distinct");
    }

    #[test]
    fn key_is_stable_for_equal_specs() {
        assert_eq!(base_spec().key_material(), base_spec().key_material());
    }

    #[test]
    fn mesh_with_faults_collapses_zero_faults() {
        assert_eq!(
            TopoSpec::mesh_with_faults(8, 8, 0, 99),
            TopoSpec::Mesh { w: 8, h: 8 }
        );
        assert!(matches!(
            TopoSpec::mesh_with_faults(8, 8, 4, 99),
            TopoSpec::FaultyMesh { faults: 4, seed: 99, .. }
        ));
    }

    #[test]
    fn topo_specs_build_and_report_full_mesh() {
        let mesh = TopoSpec::Mesh { w: 4, h: 4 };
        assert!(mesh.full_mesh());
        assert_eq!(mesh.build().num_nodes(), 16);
        let faulty = TopoSpec::FaultyMesh {
            w: 4,
            h: 4,
            faults: 2,
            seed: 3,
        };
        assert!(!faulty.full_mesh());
        assert_eq!(faulty.build().num_nodes(), 16);
        let rand = TopoSpec::Random {
            n: 12,
            degree_milli: 3000,
            seed: 5,
        };
        assert!(!rand.full_mesh());
        assert_eq!(rand.build().num_nodes(), 12);
    }

    #[test]
    fn load_sweep_specs_cover_every_rate() {
        let specs = load_sweep_specs(
            Scheme::Spin,
            &TopoSpec::Mesh { w: 4, h: 4 },
            &SyntheticPattern::UniformRandom,
            7,
            Scheme::DEFAULT_EPOCH,
            Scale::Quick,
        );
        let rates = Scale::Quick.rate_sweep();
        assert_eq!(specs.len(), rates.len());
        for (spec, rate) in specs.iter().zip(rates) {
            assert_eq!(spec.rate, rate);
            assert_eq!(spec.seed, 7);
        }
    }
}
