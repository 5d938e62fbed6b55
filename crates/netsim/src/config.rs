//! Simulator configuration (paper Table II).

use crate::trace::TraceConfig;

/// Router pipeline latency in cycles (Table II).
pub const ROUTER_LATENCY: u64 = 1;
/// Link traversal latency in cycles (Table II).
pub const LINK_LATENCY: u64 = 1;
/// Flits per data packet: a 64-byte line over 128-bit links, head
/// overhead folded in (Table II).
pub const DATA_PACKET_FLITS: u32 = 5;
/// Flits per control packet (Table II).
pub const CTRL_PACKET_FLITS: u32 = 1;
/// The longest packet: one serialisation of it is what the pre-drain and
/// post-spin credit freezes must cover (§III-C).
pub const MAX_PACKET_FLITS: u32 = DATA_PACKET_FLITS;
const _: () = assert!(DATA_PACKET_FLITS >= CTRL_PACKET_FLITS);

/// Network configuration knobs.
///
/// Defaults reproduce the paper's Table II baseline: 3 virtual networks × 2
/// VCs (the escape-VC/SPIN provisioning), virtual cut-through with a single
/// packet per VC. The fixed router model — [`ROUTER_LATENCY`],
/// [`LINK_LATENCY`], [`DATA_PACKET_FLITS`], [`CTRL_PACKET_FLITS`] — is
/// constant, not configuration.
///
/// # Examples
///
/// ```
/// use drain_netsim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.vns, 3);
/// assert_eq!(cfg.vcs_per_vn, 2);
/// let drain_cfg = SimConfig::drain_default();
/// assert_eq!(drain_cfg.vns, 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of virtual networks (one per message class in the baselines;
    /// DRAIN needs only one).
    pub vns: usize,
    /// VCs per virtual network (VC 0 is the escape VC).
    pub vcs_per_vn: usize,
    /// Number of message classes generated by endpoints (classes map onto
    /// virtual networks as `class % vns`).
    pub num_classes: usize,
    /// Capacity of each per-class injection queue.
    pub inj_queue_capacity: usize,
    /// Capacity of each per-class ejection queue.
    pub ej_queue_capacity: usize,
    /// Once a packet occupies an escape VC it may only move to escape VCs
    /// downstream (paper §III-A; true for DRAIN and the escape-VC baseline).
    pub escape_sticky: bool,
    /// Cycles an in-network packet must have been blocked before it may
    /// fall back into an escape VC (only meaningful with `escape_sticky`;
    /// ignored when a VN has a single VC). Packets still waiting in a
    /// source queue never claim escape VCs — they hold no network resource
    /// and can always keep waiting.
    pub escape_entry_patience: u64,
    /// Cycles between structural deadlock-detector sweeps (0 disables).
    pub deadlock_check_interval: u64,
    /// Cycles without any packet movement (while packets are in-network)
    /// after which the watchdog declares a deadlock (0 disables).
    pub watchdog_threshold: u64,
    /// RNG seed for all stochastic choices in the core (adaptive
    /// tie-breaks): each draw is the pure function
    /// `mix(seed, cycle, site, id)` of [`crate::rng`].
    pub seed: u64,
    /// Observability: event tracing, telemetry sampling, flight recorder
    /// (all off by default; see [`crate::trace`] and
    /// [`crate::telemetry`]).
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vns: 3,
            vcs_per_vn: 2,
            num_classes: 3,
            inj_queue_capacity: 1 << 20,
            ej_queue_capacity: 4,
            escape_sticky: false,
            escape_entry_patience: 1,
            deadlock_check_interval: 0,
            watchdog_threshold: 100_000,
            seed: 0xD4A1,
            trace: TraceConfig::default(),
        }
    }
}

impl SimConfig {
    /// The paper's default DRAIN configuration: one virtual network with
    /// two VCs (VN-1, VC-2), escape VC sticky.
    pub fn drain_default() -> Self {
        SimConfig {
            vns: 1,
            vcs_per_vn: 2,
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// The escape-VC baseline: 3 VNs × 2 VCs, sticky escape.
    pub fn escape_vc_baseline() -> Self {
        SimConfig {
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// Total VCs per input port.
    pub fn total_vcs(&self) -> usize {
        self.vns * self.vcs_per_vn
    }

    /// Virtual network used by a message class.
    pub fn vn_of_class(&self, class: crate::MessageClass) -> usize {
        class.index() % self.vns
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is degenerate (zero VNs/VCs/classes or zero
    /// ejection capacity).
    pub fn validate(&self) {
        assert!(self.vns > 0, "need at least one virtual network");
        assert!(self.vcs_per_vn > 0, "need at least one VC per VN");
        assert!(self.num_classes > 0, "need at least one message class");
        assert!(self.num_classes <= 8, "at most 8 message classes supported");
        assert!(self.ej_queue_capacity > 0, "ejection queues need capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageClass;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::default();
        assert_eq!(c.total_vcs(), 6);
        assert_eq!((DATA_PACKET_FLITS, CTRL_PACKET_FLITS), (5, 1));
        assert_eq!(MAX_PACKET_FLITS, 5);
        assert_eq!((ROUTER_LATENCY, LINK_LATENCY), (1, 1));
        c.validate();
    }

    #[test]
    fn drain_configs() {
        assert_eq!(SimConfig::drain_default().total_vcs(), 2);
        assert!(SimConfig::drain_default().escape_sticky);
    }

    #[test]
    fn class_to_vn_mapping() {
        let c = SimConfig::drain_default();
        assert_eq!(c.vn_of_class(MessageClass::REQUEST), 0);
        assert_eq!(c.vn_of_class(MessageClass::RESPONSE), 0);
        let c3 = SimConfig::default();
        assert_eq!(c3.vn_of_class(MessageClass::RESPONSE), 2);
    }

    #[test]
    #[should_panic(expected = "virtual network")]
    fn zero_vns_rejected() {
        SimConfig {
            vns: 0,
            ..SimConfig::default()
        }
        .validate();
    }
}
