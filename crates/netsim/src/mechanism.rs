//! Deadlock-freedom mechanism hook.
//!
//! A [`Mechanism`] is consulted once per cycle, *before* normal allocation,
//! and steers the whole network through a [`ControlAction`]:
//!
//! * `Normal` — routers allocate and move packets as usual;
//! * `Freeze` — no new grants this cycle (DRAIN's pre-drain credit freeze,
//!   or the serialization tail of a forced movement);
//! * `Forced` — an atomic set of forced one-hop movements that overrides
//!   the allocators (a DRAIN drain step or a SPIN spin).
//!
//! DRAIN itself is implemented in the `drain-core` crate and the reactive
//! baselines in `drain-baselines`; this module only defines the interface
//! plus [`NoMechanism`] (used for plain escape-VC runs and the Fig 3
//! deadlock-likelihood study).

use crate::state::{SimCore, VcRef};

/// Why a forced movement happened (statistics attribution).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForcedKind {
    /// A periodic DRAIN drain-window hop.
    Drain,
    /// One hop of a DRAIN full drain.
    FullDrain,
    /// A SPIN coordinated spin.
    Spin,
}

impl ForcedKind {
    /// Stable short name (used in trace events and reports).
    pub fn name(self) -> &'static str {
        match self {
            ForcedKind::Drain => "drain",
            ForcedKind::FullDrain => "full-drain",
            ForcedKind::Spin => "spin",
        }
    }

    /// Inverse of [`ForcedKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "drain" => Some(ForcedKind::Drain),
            "full-drain" => Some(ForcedKind::FullDrain),
            "spin" => Some(ForcedKind::Spin),
            _ => None,
        }
    }
}

/// One forced one-hop movement: the packet in `from` traverses `to.link`
/// and lands in `to` (or ejects on arrival at its destination).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForcedMove {
    /// Source VC (must be occupied).
    pub from: VcRef,
    /// Target VC; `to.link` must depart from `from.link`'s head router.
    pub to: VcRef,
}

/// Per-cycle network-level control decision.
#[derive(Clone, Debug)]
pub enum ControlAction {
    /// Routers allocate normally.
    Normal,
    /// No grants this cycle (in-flight serialization still completes).
    Freeze,
    /// Apply these movements atomically; normal allocation is suspended.
    Forced(Vec<ForcedMove>, ForcedKind),
}

/// A deadlock-freedom scheme plugged into the simulator.
pub trait Mechanism: Send {
    /// Short name for reports (e.g. `"drain"`, `"spin"`, `"escape-vc"`).
    fn name(&self) -> &str;

    /// Inspects the network and decides this cycle's control action. May
    /// mutate mechanism-internal state (epoch counters, probes) and core
    /// statistics.
    fn control(&mut self, core: &mut SimCore) -> ControlAction;
}

/// The do-nothing mechanism: always [`ControlAction::Normal`].
///
/// Used for the escape-VC baseline (whose deadlock freedom is entirely in
/// the routing function) and for deliberately deadlock-prone runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMechanism;

impl NoMechanism {
    /// Creates the mechanism.
    pub fn new() -> Self {
        NoMechanism
    }
}

impl Mechanism for NoMechanism {
    fn name(&self) -> &str {
        "none"
    }

    fn control(&mut self, _core: &mut SimCore) -> ControlAction {
        ControlAction::Normal
    }
}
