//! DRAIN: the paper's subactive deadlock-freedom mechanism.
//!
//! DRAIN neither avoids deadlocks (like turn restrictions / escape VCs /
//! virtual networks) nor detects them (like SPIN). It obliviously and
//! periodically *drains* the network: every `epoch` cycles, after a short
//! pre-drain credit freeze, each router forces the packet in every escape
//! VC one hop along a precomputed [`DrainPath`] covering every link. Any
//! routing-level or protocol-level deadlock is eventually swept away; when
//! no deadlock exists, the only cost is the occasional misroute.
//!
//! This crate provides:
//!
//! * [`DrainConfig`] — epoch, hops per drain, full-drain period (paper
//!   §III-C); the pre-drain window is one serialisation of the longest
//!   packet, [`drain_netsim::config::MAX_PACKET_FLITS`] cycles.
//! * [`DrainMechanism`] — the runtime controller implementing the epoch
//!   register, credit freeze and turn-table-forced movement as a
//!   [`drain_netsim::mechanism::Mechanism`].
//! * [`builder::DrainNetworkBuilder`] — one-stop assembly of a DRAIN-protected
//!   simulation.
//! * [`reconfigure`] — the fault-event flow: drain traffic, recompute the
//!   drain path offline, resume on the degraded topology.
//!
//! # Examples
//!
//! ```
//! use drain_topology::Topology;
//! use drain_core::builder::DrainNetworkBuilder;
//! use drain_netsim::traffic::{SyntheticTraffic, SyntheticPattern};
//!
//! let topo = Topology::mesh(4, 4);
//! let mut sim = DrainNetworkBuilder::new(topo)
//!     .epoch(1024)
//!     .endpoints(Box::new(SyntheticTraffic::new(
//!         SyntheticPattern::UniformRandom, 0.05, 1, 9)))
//!     .build()?;
//! sim.run(5_000);
//! assert!(sim.stats().ejected > 0);
//! # Ok::<(), drain_core::DrainBuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod reconfigure;

use drain_netsim::config::MAX_PACKET_FLITS;
use drain_netsim::mechanism::{ControlAction, ForcedKind, ForcedMove, Mechanism};
use drain_netsim::{SimCore, TraceEvent, VcRef};
use drain_path::DrainPath;

pub use builder::DrainBuildError;

/// DRAIN runtime parameters (paper §III-C, Table defaults §IV).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainConfig {
    /// Cycles between drain windows (paper default: 64K).
    pub epoch: u64,
    /// Hops each drain window forces (paper footnote: 1 always wins).
    pub hops_per_drain: u32,
    /// A full drain (the whole path) runs every `full_drain_period` drain
    /// windows; 0 disables full drains (paper: "very large N").
    pub full_drain_period: u64,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            epoch: 65_536,
            hops_per_drain: 1,
            full_drain_period: 1024,
        }
    }
}

impl DrainConfig {
    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero epoch or zero hops per drain.
    pub fn validate(&self) {
        assert!(self.epoch > 0, "epoch must be positive");
        assert!(self.hops_per_drain > 0, "must drain at least one hop");
    }
}

#[derive(Clone, Debug)]
enum Phase {
    /// Normal operation; counts down to the next pre-drain.
    Running { epoch_left: u64 },
    /// Credit freeze before the drain window: one serialisation of the
    /// longest packet.
    PreDrain { left: u64 },
    /// Forced movement, `steps_left` hops to go; `freeze_left` covers the
    /// serialization of the hop in progress.
    Draining {
        steps_left: u64,
        freeze_left: u64,
        full: bool,
    },
}

/// The DRAIN controller: epoch register, credit freeze and turn-table
/// drains, implemented as a simulator [`Mechanism`].
#[derive(Clone, Debug)]
pub struct DrainMechanism {
    path: DrainPath,
    config: DrainConfig,
    phase: Phase,
    windows_done: u64,
    /// Forced moves executed in the drain window in progress (reported in
    /// the window's `DrainEpochEnd` trace event).
    moved_this_window: u64,
}

impl DrainMechanism {
    /// Creates the controller from a verified drain path.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(path: DrainPath, config: DrainConfig) -> Self {
        config.validate();
        DrainMechanism {
            path,
            phase: Phase::Running {
                epoch_left: config.epoch,
            },
            config,
            windows_done: 0,
            moved_this_window: 0,
        }
    }

    /// The drain path in use.
    pub fn path(&self) -> &DrainPath {
        &self.path
    }

    /// The configuration.
    pub fn config(&self) -> &DrainConfig {
        &self.config
    }

    /// Drain windows completed so far.
    pub fn windows_done(&self) -> u64 {
        self.windows_done
    }

    /// Installs a freshly computed drain path (after a fault event) and
    /// restarts the epoch.
    pub fn set_path(&mut self, path: DrainPath) {
        self.path = path;
        self.phase = Phase::Running {
            epoch_left: self.config.epoch,
        };
    }

    /// Builds the forced moves for one drain hop: every occupied escape VC
    /// (VC 0 of each VN) shifts to the next link on the path.
    fn drain_moves(&self, core: &SimCore) -> Vec<ForcedMove> {
        let vns = core.config().vns as u8;
        let mut moves = Vec::new();
        for &link in self.path.circuit() {
            for vn in 0..vns {
                let from = VcRef { link, vn, vc: 0 };
                if core.vc(from).occ.is_some() {
                    moves.push(ForcedMove {
                        from,
                        to: VcRef {
                            link: self.path.next_link(link),
                            vn,
                            vc: 0,
                        },
                    });
                }
            }
        }
        moves
    }
}

impl Mechanism for DrainMechanism {
    fn name(&self) -> &str {
        "drain"
    }

    fn control(&mut self, core: &mut SimCore) -> ControlAction {
        match self.phase {
            Phase::Running { ref mut epoch_left } => {
                if *epoch_left > 0 {
                    *epoch_left -= 1;
                    return ControlAction::Normal;
                }
                self.phase = Phase::PreDrain {
                    left: u64::from(MAX_PACKET_FLITS),
                };
                self.moved_this_window = 0;
                if core.trace_enabled() {
                    let full = self.config.full_drain_period > 0
                        && (self.windows_done + 1).is_multiple_of(self.config.full_drain_period);
                    core.trace_emit(TraceEvent::DrainEpochStart {
                        cycle: core.cycle(),
                        window: self.windows_done + 1,
                        full,
                    });
                }
                ControlAction::Freeze
            }
            Phase::PreDrain { ref mut left } => {
                if *left > 0 {
                    *left -= 1;
                    return ControlAction::Freeze;
                }
                let full = self.config.full_drain_period > 0
                    && (self.windows_done + 1).is_multiple_of(self.config.full_drain_period);
                let steps = if full {
                    self.path.len() as u64
                } else {
                    self.config.hops_per_drain as u64
                };
                self.phase = Phase::Draining {
                    steps_left: steps,
                    freeze_left: 0,
                    full,
                };
                // Fall through to the draining phase on this same cycle.
                self.control(core)
            }
            Phase::Draining {
                ref mut steps_left,
                ref mut freeze_left,
                full,
            } => {
                if *freeze_left > 0 {
                    *freeze_left -= 1;
                    return ControlAction::Freeze;
                }
                if *steps_left == 0 {
                    self.windows_done += 1;
                    if core.trace_enabled() {
                        core.trace_emit(TraceEvent::DrainEpochEnd {
                            cycle: core.cycle(),
                            window: self.windows_done,
                            moved: self.moved_this_window,
                        });
                    }
                    self.phase = Phase::Running {
                        epoch_left: self.config.epoch,
                    };
                    return ControlAction::Normal;
                }
                *steps_left -= 1;
                // Serialization gap before the next step or the restart.
                *freeze_left = u64::from(MAX_PACKET_FLITS);
                let moves = self.drain_moves(core);
                self.moved_this_window += moves.len() as u64;
                let kind = if full {
                    ForcedKind::FullDrain
                } else {
                    ForcedKind::Drain
                };
                ControlAction::Forced(moves, kind)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
    use drain_netsim::{Sim, SimConfig, TraceSink};
    use drain_topology::Topology;

    fn drain_sim(epoch: u64, rate: f64) -> Sim {
        let topo = Topology::mesh(4, 4);
        let path = DrainPath::compute(&topo).unwrap();
        let mech = DrainMechanism::new(
            path,
            DrainConfig {
                epoch,
                hops_per_drain: 1,
                full_drain_period: 0,
            },
        );
        Sim::new(
            topo.clone(),
            SimConfig {
                num_classes: 1,
                // Tests exercise the drain machinery directly, so let
                // packets use the escape VC freely.
                escape_entry_patience: 0,
                ..SimConfig::drain_default()
            },
            FullyAdaptive::new(&topo),
            Box::new(mech),
            Box::new(SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                rate,
                1,
                11,
            )),
        )
    }

    #[test]
    fn drains_happen_on_schedule() {
        let mut sim = drain_sim(100, 0.1);
        sim.run(1_000);
        // With epoch=100 we expect ~9 windows in 1000 cycles (each window
        // also spends predrain + serialization cycles).
        assert!(sim.stats().drains >= 5, "drains: {}", sim.stats().drains);
        assert!(sim.stats().forced_hops > 0);
    }

    /// §III-C: the pre-drain credit freeze covers exactly one
    /// serialisation of the longest packet, so every drain window's
    /// forced hop comes `MAX_PACKET_FLITS` frozen cycles after the
    /// cycle its `DrainEpochStart` is stamped with.
    #[test]
    fn predrain_freeze_lasts_one_max_packet() {
        let mut sim = drain_sim(100, 0.2);
        sim.set_trace_sink(TraceSink::Memory(Vec::new()));
        sim.run(2_000);
        let events = sim.core_mut().tracer_mut().take_memory().unwrap();
        let (mut start, mut hops) = (None, 0);
        for e in events {
            match e {
                TraceEvent::DrainEpochStart { cycle, .. } => start = Some(cycle),
                TraceEvent::ForcedHop { cycle, .. } => {
                    let frozen = cycle - start.expect("hop inside a window") - 1;
                    assert_eq!(frozen, u64::from(MAX_PACKET_FLITS));
                    hops += 1;
                }
                _ => {}
            }
        }
        assert!(hops > 0, "no window moved a packet");
    }

    #[test]
    fn no_drain_movement_when_network_empty() {
        let mut sim = drain_sim(50, 0.0);
        sim.run(500);
        assert_eq!(sim.stats().forced_hops, 0);
        assert!(sim.stats().drains >= 1, "windows still tick over");
    }

    #[test]
    fn traffic_still_delivered_with_aggressive_draining() {
        let mut sim = drain_sim(16, 0.1);
        sim.run(5_000);
        let s = sim.stats();
        assert!(s.ejected > 500, "ejected: {}", s.ejected);
        // Frequent drains must misroute some packets.
        assert!(s.forced_hops > 0);
    }

    #[test]
    fn full_drain_flushes_everything() {
        let topo = Topology::mesh(3, 3);
        let path = DrainPath::compute(&topo).unwrap();
        let mech = DrainMechanism::new(
            path,
            DrainConfig {
                epoch: 64,
                hops_per_drain: 1,
                full_drain_period: 1, // every window is a full drain
            },
        );
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                num_classes: 1,
                escape_entry_patience: 0,
                ..SimConfig::drain_default()
            },
            FullyAdaptive::new(&topo),
            Box::new(mech),
            Box::new(
                SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.1, 1, 4)
                    .stop_injection_at(1_500),
            ),
        );
        sim.run(60_000);
        let s = sim.stats();
        assert!(s.full_drains > 0, "full drains: {}", s.full_drains);
        assert_eq!(
            sim.core().packets_in_network(),
            0,
            "full drains must flush all in-network packets"
        );
        assert_eq!(s.injected, s.ejected);
    }

    #[test]
    fn packet_conservation() {
        let mut sim = drain_sim(64, 0.15);
        sim.run(4_000);
        let s = sim.stats();
        assert_eq!(
            s.injected as usize,
            s.ejected as usize + sim.core().packets_in_network(),
            "every injected packet is either delivered or still in a VC"
        );
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn zero_epoch_rejected() {
        DrainConfig {
            epoch: 0,
            ..DrainConfig::default()
        }
        .validate();
    }
}
