//! SPIN-style reactive deadlock detection and recovery.
//!
//! SPIN (Parasar et al., HPCA 2018) detects potential deadlocks with
//! per-router timeout counters, confirms them by sending a *probe* that
//! walks the chain of blocked packets, and resolves a confirmed cycle with
//! a coordinated forward movement of every packet in it (a *spin*). No
//! extra buffers and no routing restrictions are needed — at the price of
//! detection/coordination hardware, which the paper's Fig 9 charges as a
//! ~15% router-control overhead.
//!
//! This reimplementation reproduces the externally visible behaviour at the
//! simulator's abstraction level:
//!
//! * a VC whose head packet has been blocked for `timeout` cycles
//!   (default 1024, the paper's SPIN setting) launches a probe;
//! * the probe advances one hop per cycle along the wait-for chain (each
//!   hop is counted for the power model), following the occupied candidate
//!   buffer of the currently blocked packet;
//! * if the walk closes a cycle, the packets on the cycle perform a
//!   one-hop spin (forced, atomic, like a drain step but along the
//!   discovered cycle instead of a precomputed path);
//! * if the walk reaches a packet that can move, the probe aborts.
//!
//! Like real SPIN, protocol-level deadlocks are *not* resolved — the
//! scheme relies on per-class virtual networks for those.

use drain_netsim::config::MAX_PACKET_FLITS;
use drain_netsim::mechanism::{ControlAction, ForcedKind, ForcedMove, Mechanism};
use drain_netsim::routing::{Candidate, RouteCtx};
use drain_netsim::{SimCore, TraceEvent, VcRef};

/// A probe abandons after this many hops (bounds hardware walk length).
const MAX_PROBE_LEN: usize = 4096;
/// Cycles per probe hop (dedicated control wires; 1 in SPIN).
const PROBE_HOP_LATENCY: u64 = 1;

/// SPIN parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpinConfig {
    /// Blocked cycles before a VC is suspected (paper: 1024).
    pub timeout: u64,
}

impl Default for SpinConfig {
    fn default() -> Self {
        SpinConfig { timeout: 1024 }
    }
}

#[derive(Clone, Debug)]
struct Probe {
    /// Walked VCs; `path[i+1]` is the buffer `path[i]`'s packet waits on.
    path: Vec<VcRef>,
    /// Packet ids observed at each path entry (abort if any moved).
    pids: Vec<drain_netsim::PacketId>,
    next_advance_at: u64,
}

/// The SPIN mechanism.
#[derive(Clone, Debug)]
pub struct SpinMechanism {
    config: SpinConfig,
    probe: Option<Probe>,
    /// Freeze cycles left after an emitted spin (serialization).
    freeze_left: u64,
    /// Rotates scan/choice starting points for fairness.
    rotation: u64,
    /// Lower bound on `max(entered_at, ready_at)` over every occupied VC,
    /// learned as a byproduct of each suspect scan that comes up empty.
    /// No VC can time out before `suspect_floor + timeout`, so until then
    /// the per-cycle occupancy sweep is skipped outright. Sound because a
    /// buffer's timestamps are written only when a packet enters it, and
    /// every entry stamps them at or after the current cycle — newcomers
    /// can only raise the true minimum, never undercut the bound.
    suspect_floor: u64,
    /// Probe-walk scratch (reused across hops — a probe hop allocates
    /// nothing).
    cands: Vec<Candidate>,
    targets: Vec<VcRef>,
    occupied: Vec<VcRef>,
}

impl SpinMechanism {
    /// Creates the mechanism.
    pub fn new(config: SpinConfig) -> Self {
        SpinMechanism {
            config,
            probe: None,
            freeze_left: 0,
            rotation: 0,
            suspect_floor: 0,
            cands: Vec::new(),
            targets: Vec::new(),
            occupied: Vec::new(),
        }
    }

    /// Creates the mechanism with the paper's defaults.
    pub fn with_defaults() -> Self {
        Self::new(SpinConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &SpinConfig {
        &self.config
    }

    /// The concrete occupied buffer `vc`'s packet is waiting on, or `None`
    /// if the packet can move / eject (no deadlock through this VC).
    fn wait_target(&mut self, core: &SimCore, vc: VcRef, choice: u64) -> Option<VcRef> {
        let st = core.vc(vc);
        let pid = st.occ?;
        let p = core.packet(pid);
        let here = core.topology().link(vc.link).dst;
        if p.dest == here {
            // Waiting on the ejection queue, not on a buffer.
            return None;
        }
        // Like the detector, probes must consider every buffer the packet
        // could eventually claim, including deflection targets.
        let ctx = RouteCtx {
            cur: here,
            dest: p.dest,
            arrived_via: Some(vc.link),
            in_escape: core.config().escape_sticky && vc.vc == 0,
            blocked_for: u64::MAX,
            sample: 0,
        };
        self.cands.clear();
        core.route_candidates(&ctx, &mut self.cands);
        let vn = core.config().vn_of_class(p.class) as u8;
        self.occupied.clear();
        for i in 0..self.cands.len() {
            let c = self.cands[i];
            self.targets.clear();
            core.concrete_targets(c, vn, &mut self.targets);
            for &t in &self.targets {
                // A free (unoccupied) buffer means the packet is merely
                // waiting on link arbitration, not deadlocked.
                core.vc(t).occ?;
                self.occupied.push(t);
            }
        }
        if self.occupied.is_empty() {
            return None;
        }
        Some(self.occupied[(choice % self.occupied.len() as u64) as usize])
    }

    /// Scans for a VC blocked longer than the timeout.
    ///
    /// Walks the core's occupancy bitmap: iterating set bits ascending
    /// from `rotation % total_slots` and wrapping reproduces the original
    /// dense circular sweep (which skipped empty VCs anyway) at
    /// O(total VCs / 64) words plus one two-field gather per occupied VC —
    /// no copying, no sorting, no allocation. An empty-handed sweep has
    /// seen every occupied buffer's timestamp, so it additionally learns
    /// the earliest cycle at which *any* buffer could next time out
    /// (`suspect_floor + timeout`); until that cycle later sweeps return
    /// `None` without touching the arena at all. Skipped sweeps have no
    /// observable effect (a sweep that finds nothing has none either), so
    /// the probe-launch schedule — and every downstream trace event — is
    /// bit-identical to the ungated scan.
    fn find_suspect(&mut self, core: &SimCore) -> Option<VcRef> {
        let now = core.cycle();
        let timeout = self.config.timeout;
        if now.saturating_sub(timeout) < self.suspect_floor {
            return None;
        }
        let cfg = core.config();
        let total_slots =
            (core.topology().num_unidirectional_links() * cfg.vns * cfg.vcs_per_vn) as u64;
        if total_slots == 0 {
            return None;
        }
        let bits = core.occupied_vc_bitmap();
        let start = (self.rotation % total_slots) as usize;
        let mut min_key = u64::MAX;
        let mut scan_word = |wi: usize, mask: u64| -> Option<VcRef> {
            let mut w = bits[wi] & mask;
            while w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let st = core.vc_state_of_index(idx);
                let key = st.entered_at.max(st.ready_at);
                if now.saturating_sub(key) >= timeout {
                    return Some(core.vc_ref_of_index(idx));
                }
                min_key = min_key.min(key);
            }
            None
        };
        let sw = start / 64;
        let sb = start % 64;
        // [start, end), then wrap to [0, start).
        let mut found = scan_word(sw, !0u64 << sb);
        if found.is_none() {
            found = (sw + 1..bits.len())
                .chain(0..sw)
                .find_map(|wi| scan_word(wi, !0))
                .or_else(|| scan_word(sw, (1u64 << sb) - 1));
        }
        if found.is_none() {
            // Every occupied buffer was inspected; packets entering later
            // stamp timestamps at or after `now`, so this minimum (capped
            // at `now`) lower-bounds all future keys.
            self.suspect_floor = min_key.min(now);
        }
        found
    }

    /// Builds the spin moves for a discovered cycle `cycle[0] -> cycle[1]
    /// -> ... -> cycle[0]`.
    fn spin_moves(cycle: &[VcRef]) -> Vec<ForcedMove> {
        (0..cycle.len())
            .map(|i| ForcedMove {
                from: cycle[i],
                to: cycle[(i + 1) % cycle.len()],
            })
            .collect()
    }
}

impl Mechanism for SpinMechanism {
    fn name(&self) -> &str {
        "spin"
    }

    fn control(&mut self, core: &mut SimCore) -> ControlAction {
        self.rotation = self.rotation.wrapping_add(1);
        if self.freeze_left > 0 {
            self.freeze_left -= 1;
            return ControlAction::Freeze;
        }
        let now = core.cycle();
        // Advance or initiate the probe.
        if self.probe.is_none() {
            if let Some(suspect) = self.find_suspect(core) {
                let pid = core.vc(suspect).occ.expect("suspect is occupied");
                self.probe = Some(Probe {
                    path: vec![suspect],
                    pids: vec![pid],
                    next_advance_at: now + PROBE_HOP_LATENCY,
                });
            }
            return ControlAction::Normal;
        }
        {
            let probe = self.probe.as_ref().expect("checked above");
            if now < probe.next_advance_at {
                return ControlAction::Normal;
            }
            // Verify nothing on the walked path has moved.
            for (r, pid) in probe.path.iter().zip(&probe.pids) {
                if core.vc(*r).occ != Some(*pid) {
                    self.probe = None;
                    return ControlAction::Normal;
                }
            }
        }
        let cur = *self
            .probe
            .as_ref()
            .expect("checked above")
            .path
            .last()
            .expect("probe path is never empty");
        let choice = self.rotation;
        core.stats.probe_hops += 1;
        if core.trace_enabled() {
            let router = core.topology().link(cur.link).dst.0;
            let len = self.probe.as_ref().expect("checked above").path.len() as u32;
            core.trace_emit(TraceEvent::Probe {
                cycle: now,
                router,
                len,
            });
        }
        let Some(next) = self.wait_target(core, cur, choice) else {
            // The chain can progress: no deadlock here.
            self.probe = None;
            return ControlAction::Normal;
        };
        let probe = self.probe.as_mut().expect("checked above");
        if let Some(pos) = probe.path.iter().position(|&r| r == next) {
            // Cycle closed: spin the packets on path[pos..].
            let cycle: Vec<VcRef> = probe.path[pos..].to_vec();
            self.probe = None;
            self.freeze_left = u64::from(MAX_PACKET_FLITS);
            let moves = Self::spin_moves(&cycle);
            if core.trace_enabled() {
                core.trace_emit(TraceEvent::Spin {
                    cycle: now,
                    moves: moves.len() as u32,
                });
            }
            return ControlAction::Forced(moves, ForcedKind::Spin);
        }
        if probe.path.len() >= MAX_PROBE_LEN {
            self.probe = None;
            return ControlAction::Normal;
        }
        let next_pid = core.vc(next).occ.expect("wait target is occupied");
        probe.path.push(next);
        probe.pids.push(next_pid);
        probe.next_advance_at = now + PROBE_HOP_LATENCY;
        ControlAction::Normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
    use drain_netsim::{Sim, SimConfig};
    use drain_topology::Topology;

    /// A 4-ring with a single VC and heavy cross traffic deadlocks quickly;
    /// SPIN must detect and resolve every deadlock so that all packets are
    /// eventually delivered after injection stops.
    #[test]
    fn spin_resolves_ring_deadlocks() {
        let topo = Topology::ring(4);
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                vns: 1,
                vcs_per_vn: 1,
                num_classes: 1,
                watchdog_threshold: 50_000,
                ..SimConfig::default()
            },
            FullyAdaptive::new(&topo),
            Box::new(SpinMechanism::new(SpinConfig { timeout: 64 })),
            Box::new(
                SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.5, 1, 5)
                    .stop_injection_at(2_000),
            ),
        );
        let outcome = sim.run(60_000);
        assert_eq!(outcome, drain_netsim::RunOutcome::WorkloadFinished);
        let s = sim.stats();
        assert!(s.spins > 0, "expected spins, got {}", s.spins);
        assert!(s.probe_hops > 0);
        assert_eq!(s.injected, s.ejected);
        assert!(!s.watchdog_deadlock);
    }

    #[test]
    fn no_probes_at_low_load() {
        let topo = Topology::mesh(4, 4);
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                num_classes: 1,
                ..SimConfig::default()
            },
            FullyAdaptive::new(&topo),
            Box::new(SpinMechanism::with_defaults()),
            Box::new(SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                0.02,
                1,
                6,
            )),
        );
        sim.run(5_000);
        let s = sim.stats();
        assert_eq!(s.spins, 0, "no deadlocks expected at 2% load");
        assert!(s.ejected > 200);
    }

    #[test]
    fn default_timeout_matches_paper() {
        assert_eq!(SpinConfig::default().timeout, 1024);
    }
}
