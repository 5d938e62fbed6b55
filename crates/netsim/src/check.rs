//! Runtime invariant checking for the simulator core.
//!
//! DRAIN's correctness claim is *oblivious* deadlock removal — there is no
//! handshake whose failure would make a bug loud. The invariants that
//! matter (single packet per VC, flit/credit conservation, reachability of
//! every in-flight destination, forward progress across drain epochs) can
//! silently erode under a broken routing table or a malformed forced
//! permutation and still produce plausible-looking throughput numbers.
//!
//! This module is the correctness backstop: with a [`CheckConfig`]
//! installed through [`crate::Sim::set_checks`], the simulation
//! re-validates the whole core every cycle and validates every forced
//! permutation *before* it is applied. A failed check produces a
//! [`Violation`] carrying the cycle and the core RNG seed so the run can
//! be replayed exactly; by default the simulator panics with that report,
//! or (for soak harnesses) records it and stops the run with
//! [`crate::RunOutcome::InvariantViolation`].
//!
//! [`RecordingEndpoints`] supports the differential oracle built on top of
//! this layer: it fingerprints every delivered packet so two schemes run
//! on identical traffic can be compared for multiset-equal deliveries.
//!
//! Checks are off by default and cost nothing when disabled.

use std::collections::HashSet;
use std::fmt;

use drain_topology::NodeId;

use crate::config::{LINK_LATENCY, MAX_PACKET_FLITS, ROUTER_LATENCY};
use crate::mechanism::ForcedMove;
use crate::packet::{Location, MessageClass, Packet, PacketId};
use crate::routing::RouteCtx;
use crate::state::SimCore;
use crate::traffic::Endpoints;

/// Which runtime invariants the driver validates, and how it reacts.
///
/// Installed with [`crate::Sim::set_checks`]. The default is everything
/// off (production runs pay nothing); [`CheckConfig::full`] turns every
/// check on, as used by the fuzz harness and the property tests.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckConfig {
    /// Run every invariant check: packet/queue/counter conservation and
    /// timer bounds, single-packet-per-VC occupancy and location
    /// cross-references, reachability of every in-flight destination
    /// (against the BFS [`drain_topology::distance::DistanceMap`] oracle)
    /// with sane routing candidates — each cycle — and validation of every
    /// forced permutation (drains, spins) before it is applied: occupied
    /// sources, router-pivot property, distinct sources/targets, no
    /// innocent packet overwritten.
    pub enabled: bool,
    /// Cycles without any packet movement (while packets are in-network)
    /// that count as a forward-progress violation; 0 disables. For DRAIN
    /// this should comfortably exceed one drain epoch.
    pub progress_horizon: u64,
    /// Cadence of the *deep* sweep (full queue/packet container
    /// cross-referencing, which is O(live packets) and dominates when
    /// injection queues back up). The cheap O(VCs) checks run every
    /// cycle; the deep sweep runs every `deep_interval` cycles (1 = every
    /// cycle, 0 = never).
    pub deep_interval: u64,
    /// Panic with the violation report (default) instead of recording it
    /// and stopping the run with
    /// [`crate::RunOutcome::InvariantViolation`].
    pub panic_on_violation: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            enabled: false,
            progress_horizon: 0,
            deep_interval: 64,
            panic_on_violation: true,
        }
    }
}

impl CheckConfig {
    /// Every check enabled (progress still needs
    /// [`CheckConfig::with_progress_horizon`]).
    pub fn full() -> Self {
        CheckConfig {
            enabled: true,
            ..CheckConfig::default()
        }
    }

    /// Enables the forward-progress check with the given horizon.
    pub fn with_progress_horizon(mut self, horizon: u64) -> Self {
        self.progress_horizon = horizon;
        self
    }

    /// Record violations instead of panicking (soak/fuzz harnesses).
    pub fn no_panic(mut self) -> Self {
        self.panic_on_violation = false;
        self
    }

    /// Whether any end-of-cycle sweep is enabled.
    pub fn any_per_cycle(&self) -> bool {
        self.enabled || self.progress_horizon > 0
    }
}

/// Whether the deep (O(live packets)) check tier runs at `cycle` — the
/// single cadence predicate shared by [`run_checks`] and the driver's
/// sweep-count accounting, so the `drain_check_sweeps_total{tier="deep"}`
/// metric can never drift from what actually ran.
pub fn deep_sweep_due(checks: &CheckConfig, cycle: u64) -> bool {
    checks.deep_interval > 0 && cycle.is_multiple_of(checks.deep_interval)
}

/// Which invariant a [`Violation`] broke.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Packet/queue/counter conservation or a timer bound.
    Conservation,
    /// VC occupancy / packet-location cross-reference.
    Occupancy,
    /// An in-flight packet cannot reach its destination, or the routing
    /// function produced degenerate candidates.
    Reachability,
    /// No packet moved for longer than the configured horizon.
    Progress,
    /// A forced permutation (drain/spin) was malformed.
    ForcedMove,
}

impl ViolationKind {
    /// Stable short name (used in fuzz reports).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Conservation => "conservation",
            ViolationKind::Occupancy => "occupancy",
            ViolationKind::Reachability => "reachability",
            ViolationKind::Progress => "progress",
            ViolationKind::ForcedMove => "forced-move",
        }
    }

    /// Inverse of [`ViolationKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "conservation" => Some(ViolationKind::Conservation),
            "occupancy" => Some(ViolationKind::Occupancy),
            "reachability" => Some(ViolationKind::Reachability),
            "progress" => Some(ViolationKind::Progress),
            "forced-move" => Some(ViolationKind::ForcedMove),
            _ => None,
        }
    }
}

/// A failed invariant check, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub kind: ViolationKind,
    /// Cycle at which the check failed.
    pub cycle: u64,
    /// The core's RNG seed ([`crate::SimConfig::seed`]): rebuilding the
    /// same topology/config/traffic with this seed reproduces the run
    /// deterministically.
    pub seed: u64,
    /// Human-readable description of the broken invariant.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violation [{}] at cycle {} (replay: sim seed {:#x}): {}",
            self.kind.name(),
            self.cycle,
            self.seed,
            self.detail
        )
    }
}

fn violation(core: &SimCore, kind: ViolationKind, detail: String) -> Violation {
    Violation {
        kind,
        cycle: core.cycle(),
        seed: core.config().seed,
        detail,
    }
}

/// Runs every per-cycle check `checks` enables. Called by
/// [`crate::Sim::step`] at the end of each cycle; callable directly
/// against any quiescent core.
///
/// # Errors
///
/// The first violation found, ordered occupancy → conservation →
/// reachability → progress (occupancy failures would poison the later
/// sweeps' packet lookups, so they are reported first).
pub fn run_checks(core: &SimCore, checks: &CheckConfig) -> Result<(), Violation> {
    let deep = deep_sweep_due(checks, core.cycle());
    if checks.enabled {
        occupancy_vcs(core).map_err(|d| violation(core, ViolationKind::Occupancy, d))?;
        if deep {
            occupancy_deep(core).map_err(|d| violation(core, ViolationKind::Occupancy, d))?;
        }
        conservation(core).map_err(|d| violation(core, ViolationKind::Conservation, d))?;
        reachability(core).map_err(|d| violation(core, ViolationKind::Reachability, d))?;
        if deep {
            reachability_queued(core).map_err(|d| violation(core, ViolationKind::Reachability, d))?;
        }
    }
    if checks.progress_horizon > 0 {
        progress(core, checks.progress_horizon)
            .map_err(|d| violation(core, ViolationKind::Progress, d))?;
    }
    Ok(())
}

/// The cheap (O(occupied VCs)) half of the occupancy check, run every
/// cycle: every VC in the occupancy bitmap holds exactly one live packet
/// whose recorded location points back at that VC, and timers are sane.
/// Walks [`SimCore::occupied_vc_indices`] rather than rescanning the dense
/// VC array; the bitmap itself is cross-validated against the raw array
/// by the deep sweep.
fn occupancy_vcs(core: &SimCore) -> Result<(), String> {
    let cfg = core.config();
    let mut seen: HashSet<PacketId> = HashSet::new();
    for idx in core.occupied_vc_indices() {
        let r = core.vc_ref_of_index(idx);
        let s = core.vc(r);
        let Some(pid) = s.occ else {
            return Err(format!("{r:?} is in the occupancy bitmap but holds no packet"));
        };
        if s.entered_at > core.cycle() {
            return Err(format!(
                "{r:?}: entered_at {} is in the future (cycle {})",
                s.entered_at,
                core.cycle()
            ));
        }
        let Some(p) = core.try_packet(pid) else {
            return Err(format!("{r:?} holds retired {pid:?}"));
        };
        if cfg.vn_of_class(p.class) as u8 != r.vn {
            return Err(format!(
                "{pid:?} of class {} must ride VN {} but occupies {r:?}",
                p.class,
                cfg.vn_of_class(p.class)
            ));
        }
        let here = Location::Vc {
            link: r.link,
            vn: r.vn,
            vc: r.vc,
        };
        if p.loc != here {
            return Err(format!(
                "{pid:?} occupies {here:?} but its location says {:?}",
                p.loc
            ));
        }
        if !seen.insert(pid) {
            return Err(format!("{pid:?} occupies more than one VC"));
        }
    }
    Ok(())
}

/// The deep (O(live packets + VCs)) half of the occupancy check, run every
/// [`CheckConfig::deep_interval`] cycles: the occupancy indexes exactly
/// mirror the dense VC array, every queued packet sits in the queue its
/// location claims, and every live packet is held by exactly one
/// container. This is the expensive sweep when injection queues back up,
/// hence the cadence.
fn occupancy_deep(core: &SimCore) -> Result<(), String> {
    core.validate_active_index()?;
    // The wake scheduler's soundness contract: no parked head may have a
    // feasible move, and subscription bookkeeping must balance (see
    // [`SimCore::validate_wake_parking`]). Cheap when nothing is parked.
    core.validate_wake_parking()?;
    let cfg = core.config();
    // Holders by packet id (ids are slab indices): a vector, not a hash
    // map — with source queues backed up this sweep visits every live
    // packet, every cycle under `deep_interval: 1`.
    let ids = core
        .live_packet_iter()
        .map(|(pid, _)| pid.0 as usize + 1)
        .max();
    let mut holder: Vec<Option<Location>> = vec![None; ids.unwrap_or(0)];
    fn note(holder: &mut [Option<Location>], pid: PacketId, loc: Location) -> Result<(), String> {
        let Some(slot) = holder.get_mut(pid.0 as usize) else {
            return Err(format!("{loc:?} holds retired {pid:?}"));
        };
        match slot.replace(loc) {
            Some(prev) => Err(format!("{pid:?} held twice: {prev:?} and {loc:?}")),
            None => Ok(()),
        }
    }

    for r in core.vc_refs() {
        let Some(pid) = core.vc(r).occ else { continue };
        note(
            &mut holder,
            pid,
            Location::Vc {
                link: r.link,
                vn: r.vn,
                vc: r.vc,
            },
        )?;
    }

    for node in core.topology().nodes() {
        for c in 0..cfg.num_classes {
            let class = MessageClass(c as u8);
            for pid in core.injection_queue(node, class) {
                let Some(p) = core.try_packet(pid) else {
                    return Err(format!(
                        "injection queue ({}, {class}) holds retired {pid:?}",
                        node.index()
                    ));
                };
                if p.class != class {
                    return Err(format!(
                        "{pid:?} of class {} queued under class {class}",
                        p.class
                    ));
                }
                note(&mut holder, pid, Location::InjectionQueue(node))?;
            }
            for pid in core.ejection_queue(node, class) {
                let Some(p) = core.try_packet(pid) else {
                    return Err(format!(
                        "ejection queue ({}, {class}) holds retired {pid:?}",
                        node.index()
                    ));
                };
                if p.class != class || p.dest != node {
                    return Err(format!(
                        "{pid:?} (class {}, dest {}) parked in ejection queue ({}, {class})",
                        p.class,
                        p.dest.index(),
                        node.index()
                    ));
                }
                note(&mut holder, pid, Location::EjectionQueue(node))?;
            }
        }
    }

    for (pid, p) in core.live_packet_iter() {
        match holder[pid.0 as usize] {
            None => {
                return Err(format!(
                    "live {pid:?} ({} -> {}) is held by no container (loc says {:?})",
                    p.src.index(),
                    p.dest.index(),
                    p.loc
                ));
            }
            Some(loc) if loc != p.loc => {
                return Err(format!(
                    "{pid:?} location mismatch: packet says {:?}, container is {loc:?}",
                    p.loc
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Conservation ledger and timer bounds: container occupancies sum to the
/// live-packet count, the generated/injected/ejected counters satisfy
/// their lifetime identities, and no link/VC timer promises further into
/// the future than one maximal packet can justify.
fn conservation(core: &SimCore) -> Result<(), String> {
    let cfg = core.config();
    let topo = core.topology();
    let s = &core.stats;
    let mut inj_total = 0usize;
    let mut ej_total = 0usize;
    for node in topo.nodes() {
        for c in 0..cfg.num_classes {
            let class = MessageClass(c as u8);
            inj_total += core.injection_len(node, class);
            ej_total += core.ejection_len(node, class);
        }
    }
    let live = core.live_packets();
    if inj_total + core.packets_in_network() + ej_total != live {
        return Err(format!(
            "containers hold {inj_total} queued + {} in-network + {ej_total} delivered \
             but {live} packets are live",
            core.packets_in_network()
        ));
    }
    if s.injected > s.generated {
        return Err(format!(
            "injected {} exceeds generated {}",
            s.injected, s.generated
        ));
    }
    if s.ejected > s.injected {
        return Err(format!(
            "ejected {} exceeds injected {}",
            s.ejected, s.injected
        ));
    }
    if s.generated + ej_total as u64 != s.ejected + live as u64 {
        return Err(format!(
            "lifetime ledger broken: generated {} + backlog {ej_total} != ejected {} + live {live}",
            s.generated, s.ejected
        ));
    }
    let flit_horizon = core.cycle() + u64::from(MAX_PACKET_FLITS);
    for l in topo.link_ids() {
        if core.link_busy_until(l) > flit_horizon {
            return Err(format!(
                "link {} serializes until {} — beyond cycle + max packet length ({flit_horizon})",
                l.index(),
                core.link_busy_until(l)
            ));
        }
    }
    let ready_horizon = core.cycle() + LINK_LATENCY + ROUTER_LATENCY;
    for r in core.vc_refs() {
        let st = core.vc(r);
        // An occupied buffer's `free_at` is the `u64::MAX` sentinel, not a
        // deadline: only an empty buffer's tail can run past the horizon.
        if st.occ.is_none() && st.free_at > flit_horizon {
            return Err(format!(
                "{r:?} frees at {} — beyond cycle + max packet length ({flit_horizon})",
                st.free_at
            ));
        }
        if st.occ.is_some() && st.ready_at > ready_horizon {
            return Err(format!(
                "{r:?} ready at {} — beyond cycle + pipeline latency ({ready_horizon})",
                st.ready_at
            ));
        }
    }
    Ok(())
}

/// Reachability against the BFS oracle: every in-flight packet's current
/// router can still reach its destination, and the routing function offers
/// at least one candidate, every one of which departs from the packet's
/// router and does not lead into a disconnected region.
fn reachability(core: &SimCore) -> Result<(), String> {
    let dmap = core.distance_map();
    let topo = core.topology();
    let cfg = core.config();
    let mut cands = Vec::new();
    for r in core.vc_refs() {
        let Some(pid) = core.vc(r).occ else { continue };
        let p = core.packet(pid);
        let cur = topo.link(r.link).dst;
        if p.dest == cur {
            continue; // ejects here; no route needed
        }
        if dmap.distance(cur, p.dest) == u16::MAX {
            return Err(format!(
                "{pid:?} at router {} cannot reach destination {}",
                cur.index(),
                p.dest.index()
            ));
        }
        let ctx = RouteCtx {
            cur,
            dest: p.dest,
            arrived_via: Some(r.link),
            in_escape: cfg.escape_sticky && r.vc == 0,
            // Maximal pressure: include even patience-gated candidates so
            // "no candidates" means structurally stuck, not just waiting.
            blocked_for: u64::MAX,
            sample: 0,
        };
        cands.clear();
        core.route_candidates(&ctx, &mut cands);
        if cands.is_empty() {
            return Err(format!(
                "routing offers no candidate for {pid:?} at router {} toward {}",
                cur.index(),
                p.dest.index()
            ));
        }
        for c in &cands {
            let link = topo.link(c.link);
            if link.src != cur {
                return Err(format!(
                    "candidate link {} for {pid:?} departs router {} instead of {}",
                    c.link.index(),
                    link.src.index(),
                    cur.index()
                ));
            }
            if dmap.distance(link.dst, p.dest) == u16::MAX {
                return Err(format!(
                    "candidate link {} for {pid:?} leads to router {} which cannot reach {}",
                    c.link.index(),
                    link.dst.index(),
                    p.dest.index()
                ));
            }
        }
    }
    Ok(())
}

/// Deep-sweep companion to [`reachability`]: source-queued packets only
/// need their destination to exist in the connected component (they hold
/// no network resource yet), and their set only grows at injection time,
/// so this O(live packets) scan runs on the
/// [`CheckConfig::deep_interval`] cadence.
fn reachability_queued(core: &SimCore) -> Result<(), String> {
    let dmap = core.distance_map();
    for (pid, p) in core.live_packet_iter() {
        if let Location::InjectionQueue(node) = p.loc {
            if dmap.distance(node, p.dest) == u16::MAX {
                return Err(format!(
                    "queued {pid:?} at node {} has unreachable destination {}",
                    node.index(),
                    p.dest.index()
                ));
            }
        }
    }
    Ok(())
}

/// Forward progress: with packets in the network, *something* (a grant, an
/// ejection, a drain) must happen at least once per horizon.
fn progress(core: &SimCore, horizon: u64) -> Result<(), String> {
    if core.packets_in_network() == 0 {
        return Ok(());
    }
    let idle = core.cycle().saturating_sub(core.stats.last_progress_cycle);
    if idle > horizon {
        return Err(format!(
            "no packet movement for {idle} cycles (> horizon {horizon}) with {} packets in-network",
            core.packets_in_network()
        ));
    }
    Ok(())
}

/// Validates a forced permutation (drain step or spin) *before* it is
/// applied, so a corrupted drain path is caught in release builds too
/// (the engine's own checks are debug assertions).
///
/// Rules: every source VC is occupied, every move pivots at the source
/// link's head router, the moved packet stays in its class's virtual
/// network, sources and targets are each distinct, and no target holds a
/// packet that is not itself being moved.
///
/// # Errors
///
/// A [`ViolationKind::ForcedMove`] violation describing the first
/// malformed move.
pub fn validate_forced(core: &SimCore, moves: &[ForcedMove]) -> Result<(), Violation> {
    let topo = core.topology();
    let cfg = core.config();
    let num_links = topo.num_unidirectional_links();
    let mut sources = HashSet::with_capacity(moves.len());
    let mut targets = HashSet::with_capacity(moves.len());
    let fail = |d: String| Err(violation(core, ViolationKind::ForcedMove, d));
    for m in moves {
        for (r, role) in [(m.from, "source"), (m.to, "target")] {
            if r.link.index() >= num_links
                || r.vn as usize >= cfg.vns
                || r.vc as usize >= cfg.vcs_per_vn
            {
                return fail(format!("forced-move {role} {r:?} is out of range"));
            }
        }
        let Some(pid) = core.vc(m.from).occ else {
            return fail(format!("forced move from empty VC {:?}", m.from));
        };
        let pivot = topo.link(m.from.link).dst;
        if topo.link(m.to.link).src != pivot {
            return fail(format!(
                "forced move {:?} -> {:?} does not pivot at router {} \
                 (target link departs router {})",
                m.from,
                m.to,
                pivot.index(),
                topo.link(m.to.link).src.index()
            ));
        }
        let class = core.packet(pid).class;
        if cfg.vn_of_class(class) as u8 != m.to.vn {
            return fail(format!(
                "forced move sends {pid:?} of class {class} into VN {} (its VN is {})",
                m.to.vn,
                cfg.vn_of_class(class)
            ));
        }
        if !sources.insert(m.from) {
            return fail(format!("duplicate forced-move source {:?}", m.from));
        }
        if !targets.insert(m.to) {
            return fail(format!("duplicate forced-move target {:?}", m.to));
        }
    }
    for m in moves {
        if core.vc(m.to).occ.is_some() && !sources.contains(&m.to) {
            return fail(format!(
                "forced-move target {:?} holds a packet that is not being moved",
                m.to
            ));
        }
    }
    Ok(())
}

/// Identity of a delivered packet for differential comparison: two schemes
/// fed identical traffic must deliver identical *multisets* of these.
///
/// [`crate::traffic::SyntheticTraffic`] stamps a per-source sequence
/// number into `tag`, so fingerprints are unique per generated packet and
/// multiset equality degenerates to set equality.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketFingerprint {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Length in flits.
    pub len_flits: u32,
    /// Endpoint tag (sequence number for synthetic traffic).
    pub tag: u64,
}

impl PacketFingerprint {
    /// Fingerprint of a packet.
    pub fn of(p: &Packet) -> Self {
        PacketFingerprint {
            src: p.src,
            dest: p.dest,
            class: p.class,
            len_flits: p.len_flits,
            tag: p.tag,
        }
    }
}

/// Endpoint decorator that fingerprints every delivered packet before
/// delegating to the wrapped model — the capture side of the differential
/// oracle. Read the log back through
/// [`crate::Sim::endpoints_as::<RecordingEndpoints>`].
pub struct RecordingEndpoints {
    inner: Box<dyn Endpoints>,
    delivered: Vec<PacketFingerprint>,
}

impl RecordingEndpoints {
    /// Wraps an endpoint model.
    pub fn new(inner: Box<dyn Endpoints>) -> Self {
        RecordingEndpoints {
            inner,
            delivered: Vec::new(),
        }
    }

    /// Every delivery fingerprint observed so far, in delivery order.
    pub fn delivered(&self) -> &[PacketFingerprint] {
        &self.delivered
    }

    /// The delivery multiset in canonical (sorted) order, for comparison
    /// across schemes that deliver in different orders.
    pub fn delivered_sorted(&self) -> Vec<PacketFingerprint> {
        let mut v = self.delivered.clone();
        v.sort_unstable();
        v
    }
}

impl Endpoints for RecordingEndpoints {
    fn name(&self) -> &str {
        "recording"
    }

    fn pre_cycle(&mut self, core: &mut SimCore) {
        // Record before the inner model can consume; skipped (exactly a
        // no-op) when every ejection queue is empty.
        if core.ejection_backlog() > 0 {
            let n = core.topology().num_nodes();
            let classes = core.config().num_classes;
            for ni in 0..n {
                let node = NodeId(ni as u16);
                for c in 0..classes {
                    while let Some(d) = core.pop_ejection(node, MessageClass(c as u8)) {
                        self.delivered.push(PacketFingerprint::of(&d.packet));
                    }
                }
            }
        }
        self.inner.pre_cycle(core);
    }

    fn finished(&self, core: &SimCore) -> bool {
        self.inner.finished(core)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
