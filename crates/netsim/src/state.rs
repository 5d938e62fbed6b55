//! The simulator's mutable state and its allocation engine.
//!
//! [`SimCore`] owns everything a cycle touches: the topology, VC buffers,
//! link timers, injection/ejection queues, the packet slab, the routing
//! function and statistics. The driver in [`crate::sim`] sequences
//! endpoints → mechanism → allocation each cycle; mechanisms and endpoint
//! models receive `&mut SimCore` and use the accessors here.
//!
//! # Memory layout
//!
//! VC state is a struct-of-arrays arena: one contiguous per-field buffer
//! (`occ`, `ready_at`, `free_at`, `entered_at`) indexed by the link-major
//! VC id, plus *hot mirrors* of the occupant's immutable fields (`dest`,
//! `class`, `len_flits`) copied in when a packet occupies the slot. The
//! per-cycle allocation sweep reads only these arrays — never the packet
//! slab, which grows with the live population (megabytes under
//! saturation) and would turn every visit into a cache miss. Packet
//! payloads live in a [`PacketSlab`] freelist slab; in steady state no
//! per-packet heap allocation happens at all. See DESIGN.md, "Kernel
//! memory layout", for the ownership rules and the invariants guarding
//! each buffer.
//!
//! Timing model (virtual cut-through, single packet per VC — Table II):
//!
//! * A grant at cycle `t` moves the packet's occupancy to the downstream VC
//!   immediately; it becomes eligible for allocation there at
//!   `t + LINK_LATENCY + ROUTER_LATENCY` (both 1, [`crate::config`]).
//! * The traversed link is busy until `t + len_flits` (serialization), and
//!   the vacated VC can accept a new packet only from `t + len_flits`
//!   (the tail must fully drain).
//! * One grant per output link per cycle; one ejection per (node, class)
//!   per cycle.

use std::collections::VecDeque;
use std::sync::Arc;

use drain_topology::{distance::DistanceMap, IntoSharedTopology, LinkId, NodeId, Topology};

use crate::config::{SimConfig, LINK_LATENCY, ROUTER_LATENCY};
use crate::mechanism::{ForcedKind, ForcedMove};
use crate::metrics::{Phase, PhaseProfiler};
use crate::packet::{Location, MessageClass, Packet, PacketId, PacketSlab};
use crate::rng::{mix, DrawSite, NUM_DRAW_SITES};
use crate::routing::{Candidate, RouteCtx, Routing, TargetVc, WakeProfile};
use crate::stats::{KernelWork, Stats, WakeCounters};
use crate::telemetry::Telemetry;
use crate::trace::{TraceEvent, Tracer};
use crate::wake::{list_of_bit, list_of_slot, ParkNote, WakeState};

/// Reference to one VC buffer: the input port of `link`'s head router,
/// virtual network `vn`, VC `vc` (0 = escape).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VcRef {
    /// Input link whose buffer this is.
    pub link: LinkId,
    /// Virtual network index.
    pub vn: u8,
    /// VC index within the VN (0 = escape).
    pub vc: u8,
}

/// By-value snapshot of one VC buffer's state.
///
/// The simulator keeps VC state in struct-of-arrays buffers (see the
/// module docs); this struct is the gathered view handed to checkers,
/// mechanisms and diagnostics by [`SimCore::vc`]. It is a copy — mutating
/// it does not touch the simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct VcState {
    /// Occupying packet, if any.
    pub occ: Option<PacketId>,
    /// Cycle from which the occupant may be allocated onward.
    pub ready_at: u64,
    /// Cycle from which an empty buffer may accept a new packet;
    /// `u64::MAX` while the buffer is occupied.
    pub free_at: u64,
    /// Cycle the current occupant arrived (for timeout counters).
    pub entered_at: u64,
}

/// Sentinel in the `vc_occ` array for an empty VC.
const EMPTY: u32 = u32::MAX;

/// Ascending indices of the set bits of a bitmap (bit `i % 64` of word
/// `i / 64`).
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        std::iter::successors((word != 0).then_some(word), |&w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| wi * 64 + w.trailing_zeros() as usize)
    })
}

/// Outcome info for a delivered packet, handed to ejection-queue consumers.
#[derive(Clone, Debug)]
pub struct Delivered {
    /// The packet, removed from the network.
    pub packet: Packet,
    /// Its id while it was live (now retired).
    pub id: PacketId,
}

/// Where a granted link request moves its packet *from*.
#[derive(Clone, Copy, Debug)]
enum MoveSource {
    /// A VC buffer, by link-major arena index.
    Vc(usize),
    /// The head of a per-(node, class) injection queue.
    Injection { node: NodeId, class: MessageClass },
}

/// One pending request for an output link.
#[derive(Clone, Copy, Debug)]
struct LinkRequest {
    source: MoveSource,
    pid: PacketId,
    target: TargetVc,
    /// How long the requester has been waiting (age-based arbitration).
    blocked_for: u64,
}

/// One head as routing sees it: a VC occupant ([`SimCore::vc_head`]) or
/// an injection-queue head ([`SimCore::injection_head`]).
#[derive(Clone, Copy, Debug)]
struct Head {
    ctx: RouteCtx,
    vn: u8,
    /// Whether escape-VC targets are open to it (entry patience).
    allow_escape: bool,
    /// Earliest cycle at which its candidate set or `allow_escape` can
    /// change while it stays put (`u64::MAX` = never).
    changes_at: u64,
}

/// Outcome of one fused Phase A routing + parking decision
/// ([`SimCore::route_or_park`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseAOutcome {
    /// Request this output link (target-VC kind, `blocked_for` age).
    Route(LinkId, TargetVc, u64),
    /// No feasible move; park the head under this note.
    Park(ParkNote),
    /// No feasible move; the head stays active and is re-routed next
    /// cycle (a closed gate, or a park whose wake would fire before it
    /// could skip a single visit).
    Stall,
}

/// What one Phase A sweep counted: parked heads skipped (injection-queue
/// heads among them), blocked VC heads that neither routed nor parked,
/// tie-break samples per [`DrawSite`], and the sweep's work (see
/// [`KernelWork`]).
#[derive(Clone, Copy, Debug, Default)]
struct PhaseATally {
    skips: u64,
    injection_skips: u64,
    stalls: u64,
    draws: [u64; NUM_DRAW_SITES],
    work: KernelWork,
}

/// The allocation scratch, reused across cycles: everything Phase A filed
/// for [`SimCore::finish_allocation`]. Boxed in the core so a cycle moves
/// one pointer out and back, never the vectors.
struct AllocScratch {
    /// Ejection requests `(queue, arena idx, pid)`.
    ejects: Vec<(usize, usize, PacketId)>,
    /// Per output link: this cycle's requests, in sweep order (which
    /// fixes the arbitration winner, see [`SimCore::link_winner`]).
    reqs: Vec<Vec<LinkRequest>>,
    /// Bitmap over links with at least one request; ascending set-bit
    /// order replaces sorting a link list.
    req_bits: Vec<u64>,
    parks: Vec<ParkNote>,
    /// Routers charged one Phase A credit stall each.
    stalls: Vec<u32>,
}

impl AllocScratch {
    /// Files a head's request for output link `link`.
    fn request(&mut self, link: LinkId, req: LinkRequest) {
        let li = link.index();
        self.req_bits[li / 64] |= 1u64 << (li % 64);
        self.reqs[li].push(req);
    }
}

/// The simulator state plus allocation engine.
pub struct SimCore {
    topo: Arc<Topology>,
    config: SimConfig,
    routing: Routing,
    /// All-pairs distances for misroute accounting — the routing's own
    /// table when it has one (see [`Routing::shared_distance_map`]).
    dmap: Arc<DistanceMap>,
    /// VC arena, link-major: index `link * total_vcs + vn * vcs_per_vn +
    /// vc` into each of the struct-of-arrays buffers below. Occupant id,
    /// or [`EMPTY`].
    vc_occ: Vec<u32>,
    /// Cycle from which the occupant may be allocated onward.
    vc_ready_at: Vec<u64>,
    /// Cycle from which an empty buffer may accept a new packet, and
    /// `u64::MAX` while it is occupied: `vc_free_at[s] <= now` is the
    /// whole "claimable" test. Written only by [`SimCore::occupy_slot`]
    /// and [`SimCore::vacate_slot`].
    vc_free_at: Vec<u64>,
    /// Cycle the current occupant arrived.
    vc_entered_at: Vec<u64>,
    /// Hot mirror of the occupant's destination (valid while occupied).
    vc_dest: Vec<u16>,
    /// Hot mirror of the occupant's message class (valid while occupied).
    vc_class: Vec<u8>,
    /// Hot mirror of the occupant's length in flits (valid while occupied).
    vc_len: Vec<u32>,
    /// Occupancy bitmap over link-major VC indices: bit `i % 64` of word
    /// `i / 64` is set iff index `i` is occupied.
    occ_bits: Vec<u64>,
    /// Per unidirectional link: busy (serializing) until this cycle.
    link_busy: Vec<u64>,
    /// Per (node, class) injection queues, each entry carrying its
    /// packet's destination (a head's route reads no slab line).
    inj: Vec<VecDeque<(PacketId, u16)>>,
    /// Per (node, class) ejection queues.
    ej: Vec<VecDeque<PacketId>>,
    /// Live packets.
    packets: PacketSlab,
    /// Statistics.
    pub stats: Stats,
    /// Current cycle.
    cycle: u64,
    /// Number of occupied VCs (the popcount of `occ_bits`, kept as a
    /// counter).
    in_network: usize,
    /// Cached `config.total_vcs()` (the link-major stride).
    stride: usize,
    /// Bitmap over (node, class) injection-queue indices with at least
    /// one queued packet: the Phase A injection sweep visits only these,
    /// in ascending bit order.
    inj_bits: Vec<u64>,
    /// Packets parked in ejection queues (counter form of
    /// [`SimCore::ejection_backlog`]).
    ej_backlog: usize,
    /// Per-[`DrawSite`] samples produced so far (surfaced as
    /// `drain_rng_draws_total{site}`).
    rng_draws: [u64; NUM_DRAW_SITES],
    /// Phase A work so far (surfaced as `drain_kernel_work_total{unit}`).
    work: KernelWork,
    /// Bitmap over (node, class) ejection-queue indices with at least one
    /// parked packet (lets consumers pop deliveries without sweeping
    /// every queue; ascending bit order is the sweep order).
    ej_bits: Vec<u64>,
    /// Decode table: owning link of each link-major VC index (avoids a
    /// runtime division in the Phase A sweep).
    idx_link: Vec<u32>,
    /// Decode table: VC-within-VN of each link-major VC index.
    idx_vc: Vec<u8>,
    /// Decode table: router at which each link-major VC index sits (the
    /// dst node of its link).
    idx_here: Vec<u16>,
    /// The allocation scratch (`None` only while a cycle's allocation has
    /// it checked out, see [`SimCore::take_alloc_scratch`]).
    alloc: Option<Box<AllocScratch>>,
    /// Per message class: its virtual network (`class % vns`, tabulated
    /// off the hot path).
    class_vn: [u8; 8],
    /// The wake scheduler's deadlines, subscription lists and gate (see
    /// [`crate::wake`]).
    wake: WakeState,
    /// Structured event bus (see [`crate::trace`]).
    tracer: Tracer,
    /// Telemetry sampler (see [`crate::telemetry`]).
    telem: Telemetry,
    /// Kernel phase profiler (see [`crate::metrics`]). Pure observer:
    /// reads the wall clock, writes only its own accumulators.
    prof: PhaseProfiler,
}

impl SimCore {
    /// Builds a core for `topo` with the given routing function.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]).
    pub fn new(
        topo: impl IntoSharedTopology,
        config: SimConfig,
        routing: impl Into<Routing>,
    ) -> Self {
        config.validate();
        let topo = topo.into_shared();
        let routing = routing.into();
        let dmap = routing
            .shared_distance_map()
            .unwrap_or_else(|| Arc::new(DistanceMap::new(&topo)));
        let m = topo.num_unidirectional_links();
        let n = topo.num_nodes();
        let total_vcs = config.total_vcs();
        let classes = config.num_classes;
        let tracer = Tracer::new(&config.trace);
        let telem = Telemetry::new(&config.trace, m, n);
        let slots = m * total_vcs;
        // Every slot decode table in one link-major pass, no division.
        let mut idx_link = Vec::with_capacity(slots);
        let mut idx_vc = Vec::with_capacity(slots);
        let mut idx_here = Vec::with_capacity(slots);
        for link in topo.link_ids() {
            let here = topo.link(link).dst.0;
            for _ in 0..config.vns {
                for vc in 0..config.vcs_per_vn as u8 {
                    idx_link.push(link.0);
                    idx_vc.push(vc);
                    idx_here.push(here);
                }
            }
        }
        let mut class_vn = [0u8; 8];
        for (class, vn) in class_vn.iter_mut().enumerate() {
            *vn = (class % config.vns) as u8;
        }
        SimCore {
            vc_occ: vec![EMPTY; slots],
            vc_ready_at: vec![0; slots],
            vc_free_at: vec![0; slots],
            vc_entered_at: vec![0; slots],
            vc_dest: vec![0; slots],
            vc_class: vec![0; slots],
            vc_len: vec![0; slots],
            occ_bits: vec![0; slots.div_ceil(64)],
            link_busy: vec![0; m],
            inj: (0..n * classes).map(|_| VecDeque::new()).collect(),
            ej: (0..n * classes).map(|_| VecDeque::new()).collect(),
            packets: PacketSlab::new(),
            stats: Stats::new(),
            cycle: 0,
            in_network: 0,
            stride: total_vcs,
            inj_bits: vec![0; (n * classes).div_ceil(64)],
            ej_backlog: 0,
            rng_draws: [0; NUM_DRAW_SITES],
            work: KernelWork::default(),
            ej_bits: vec![0; (n * classes).div_ceil(64)],
            idx_link,
            idx_vc,
            idx_here,
            alloc: Some(Box::new(AllocScratch {
                ejects: Vec::new(),
                reqs: (0..m).map(|_| Vec::new()).collect(),
                req_bits: vec![0; m.div_ceil(64)],
                parks: Vec::new(),
                stalls: Vec::new(),
            })),
            class_vn,
            wake: WakeState::new(slots, n * classes, routing.wake_profile()),
            tracer,
            telem,
            prof: PhaseProfiler::new(0),
            dmap,
            topo,
            config,
            routing,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The routing function's name.
    pub fn routing_name(&self) -> &str {
        self.routing.name()
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of packets currently inside VC buffers.
    pub fn packets_in_network(&self) -> usize {
        self.in_network
    }

    /// Number of live packets anywhere (queues + network).
    pub fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Distance map used for misroute accounting and adaptive routing.
    pub fn distance_map(&self) -> &DistanceMap {
        &self.dmap
    }

    /// The structured event bus (captured events, emission counters).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable event bus (install sinks, drain the memory sink).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Whether event tracing is enabled. Hot paths use this as the guard
    /// and construct events only behind it.
    #[inline(always)]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Emits one trace event (no-op when tracing is disabled). Intended
    /// for mechanisms and drivers; core hot paths emit directly behind
    /// [`SimCore::trace_enabled`].
    #[inline]
    pub fn trace_emit(&mut self, event: TraceEvent) {
        self.tracer.push(event);
    }

    /// The telemetry sampler (retained samples, cumulative counters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telem
    }

    /// Mutable telemetry sampler (drain the sample series).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telem
    }

    /// The kernel phase profiler (sampled wall-time attribution; see
    /// [`crate::metrics::PhaseProfiler`]).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.prof
    }

    /// Replaces the phase profiler (see [`crate::Sim::set_profile_period`]).
    pub(crate) fn set_profile_period(&mut self, period: u64) {
        self.prof = PhaseProfiler::new(period);
    }

    /// Opens the profiler's view of `cycle` (no-op unless profiling).
    #[inline]
    pub(crate) fn prof_begin_cycle(&mut self, cycle: u64) {
        self.prof.begin_cycle(cycle);
    }

    /// Attributes wall time since the last mark to `phase` (no-op unless
    /// the cycle is sampled).
    #[inline]
    pub(crate) fn prof_mark(&mut self, phase: Phase) {
        self.prof.mark(phase);
    }

    /// Closes the profiler's view of the cycle.
    #[inline]
    pub(crate) fn prof_end_cycle(&mut self) {
        self.prof.end_cycle();
    }

    #[inline]
    pub(crate) fn vc_index(&self, r: VcRef) -> usize {
        r.link.index() * self.stride + r.vn as usize * self.config.vcs_per_vn + r.vc as usize
    }

    /// The [`VcRef`] addressed by a link-major VC array index (inverse of
    /// the layout used by [`SimCore::occupied_vc_indices`]).
    pub fn vc_ref_of_index(&self, idx: usize) -> VcRef {
        let rem = idx % self.stride;
        VcRef {
            link: LinkId((idx / self.stride) as u32),
            vn: (rem / self.config.vcs_per_vn) as u8,
            vc: (rem % self.config.vcs_per_vn) as u8,
        }
    }

    /// Link-major array indices of every occupied VC, ascending (the set
    /// bits of [`SimCore::occupied_vc_bitmap`]): exactly the order of the
    /// `link, vn, vc` loop nest, in O(words + occupied). Map entries back
    /// to buffers with [`SimCore::vc_ref_of_index`].
    pub fn occupied_vc_indices(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.occ_bits)
    }

    /// Occupancy bitmap over link-major VC indices: bit `i % 64` of word
    /// `i / 64` is set iff the VC at index `i` is occupied.
    ///
    /// The bitmap *is* the dense sweep order in O(occupied/64) words:
    /// iterating set bits ascending visits occupied buffers exactly as the
    /// `link, vn, vc` loop nest would, with no copying or sorting. SPIN's
    /// suspect scan uses this for its circular timeout sweep; gather the
    /// per-VC fields with [`SimCore::vc_state_of_index`].
    pub fn occupied_vc_bitmap(&self) -> &[u64] {
        &self.occ_bits
    }

    /// Cross-validates the occupancy indexes against the dense VC arena:
    /// the occupied-VC counter, the occupancy bitmap and the `free_at`
    /// sentinel (`u64::MAX` ⟺ occupied) must agree with the arena, and
    /// the hot mirrors (`dest`, `class`, `len_flits`) must match the
    /// occupant in the packet slab. Used by the deep invariant sweep.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch found.
    pub fn validate_active_index(&self) -> Result<(), String> {
        let occupied = self.vc_occ.iter().filter(|&&o| o != EMPTY).count();
        if occupied != self.in_network {
            return Err(format!(
                "occupied-VC counter reads {} but {} VCs are occupied",
                self.in_network, occupied
            ));
        }
        for (idx, &occ) in self.vc_occ.iter().enumerate() {
            if (self.occ_bits[idx / 64] >> (idx % 64)) & 1 != u64::from(occ != EMPTY) {
                return Err(format!(
                    "occupancy bitmap disagrees with arena at VC {:?}",
                    self.vc_ref_of_index(idx)
                ));
            }
            if (self.vc_free_at[idx] == u64::MAX) != (occ != EMPTY) {
                return Err(format!(
                    "free_at sentinel disagrees with arena at VC {:?}: free_at {}, {}",
                    self.vc_ref_of_index(idx),
                    self.vc_free_at[idx],
                    if occ == EMPTY { "empty" } else { "occupied" }
                ));
            }
            if occ != EMPTY {
                let Some(p) = self.packets.try_get(PacketId(occ)) else {
                    return Err(format!(
                        "VC {:?} holds dead packet id p{occ}",
                        self.vc_ref_of_index(idx)
                    ));
                };
                if (p.dest.0, p.class.0, p.len_flits)
                    != (self.vc_dest[idx], self.vc_class[idx], self.vc_len[idx])
                {
                    return Err(format!(
                        "stale hot mirror at VC {:?}: mirror (dest {}, class {}, len {}) \
                         vs packet (dest {}, class {}, len {})",
                        self.vc_ref_of_index(idx),
                        self.vc_dest[idx],
                        self.vc_class[idx],
                        self.vc_len[idx],
                        p.dest.0,
                        p.class.0,
                        p.len_flits,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Registers `idx` as occupied in both occupancy indexes (counter,
    /// bitmap).
    #[inline]
    fn activate(&mut self, idx: usize) {
        debug_assert_eq!(
            self.occ_bits[idx / 64] >> (idx % 64) & 1,
            0,
            "VC already indexed"
        );
        self.in_network += 1;
        self.occ_bits[idx / 64] |= 1 << (idx % 64);
    }

    /// Removes `idx` from both occupancy indexes.
    #[inline]
    fn deactivate(&mut self, idx: usize) {
        debug_assert_eq!(
            self.occ_bits[idx / 64] >> (idx % 64) & 1,
            1,
            "VC not indexed"
        );
        self.in_network -= 1;
        self.occ_bits[idx / 64] &= !(1 << (idx % 64));
    }

    /// Marks `idx` occupied by `pid` and fills the hot mirrors from the
    /// packet slab (the one slab read per occupation; every later sweep
    /// visit reads only the arena). `free_at` becomes `u64::MAX`, so an
    /// occupied buffer is never claimable and the wake fold tells it from
    /// a draining one with the same load.
    #[inline]
    fn occupy_slot(&mut self, idx: usize, pid: PacketId, ready_at: u64, entered_at: u64) {
        let p = self.packets.get(pid);
        let (dest, class, len) = (p.dest.0, p.class.0, p.len_flits);
        self.vc_occ[idx] = pid.0;
        self.vc_free_at[idx] = u64::MAX;
        self.vc_ready_at[idx] = ready_at;
        self.vc_entered_at[idx] = entered_at;
        self.vc_dest[idx] = dest;
        self.vc_class[idx] = class;
        self.vc_len[idx] = len;
        self.wake.new_head(idx);
        self.activate(idx);
    }

    /// Marks `idx` empty, accepting new packets from `free_at` (tail
    /// serialization). Every vacate in the simulator funnels through
    /// here, so queueing the slot for the end-of-cycle wake flush is
    /// exhaustive: no freeing event can bypass the parked subscribers.
    #[inline]
    fn vacate_slot(&mut self, idx: usize, free_at: u64) {
        self.vc_occ[idx] = EMPTY;
        self.vc_free_at[idx] = free_at;
        self.deactivate(idx);
        self.wake
            .note_vacate(idx, list_of_slot(idx, self.idx_vc[idx]));
    }

    /// End-of-cycle wake flush (see [`WakeState::flush`]): fires the
    /// (link, VN, kind) list of every slot vacated this cycle that is
    /// still empty. Must run before the per-cycle validators
    /// (`validate_wake_parking` assumes no fire is in flight).
    pub(crate) fn flush_wakes(&mut self) {
        let (idx_vc, occ) = (&self.idx_vc, &self.vc_occ);
        self.wake.flush(
            self.cycle,
            |slot| list_of_slot(slot, idx_vc[slot]),
            |slot| occ[slot] == EMPTY,
        );
    }

    /// Snapshot of one VC buffer's state (see [`VcState`]).
    pub fn vc(&self, r: VcRef) -> VcState {
        self.vc_state_of_index(self.vc_index(r))
    }

    /// Snapshot of the VC at link-major array index `idx` (pairs with
    /// [`SimCore::occupied_vc_indices`] / [`SimCore::occupied_vc_bitmap`]
    /// without a round-trip through [`VcRef`]).
    pub fn vc_state_of_index(&self, idx: usize) -> VcState {
        let occ = self.vc_occ[idx];
        VcState {
            occ: (occ != EMPTY).then_some(PacketId(occ)),
            ready_at: self.vc_ready_at[idx],
            free_at: self.vc_free_at[idx],
            entered_at: self.vc_entered_at[idx],
        }
    }

    /// Shared access to a live packet.
    pub fn packet(&self, id: PacketId) -> &Packet {
        self.packets.get(id)
    }

    /// Shared access to a packet, or `None` if `id` is not live (used by
    /// the invariant checker to diagnose dangling ids gracefully).
    pub fn try_packet(&self, id: PacketId) -> Option<&Packet> {
        self.packets.try_get(id)
    }

    /// Iterator over all VC references of the network.
    pub fn vc_refs(&self) -> impl Iterator<Item = VcRef> + '_ {
        let vns = self.config.vns as u8;
        let vcs = self.config.vcs_per_vn as u8;
        self.topo.link_ids().flat_map(move |link| {
            (0..vns).flat_map(move |vn| (0..vcs).map(move |vc| VcRef { link, vn, vc }))
        })
    }

    #[inline]
    fn qidx(&self, node: NodeId, class: MessageClass) -> usize {
        node.index() * self.config.num_classes + class.index()
    }

    /// Per-[`DrawSite`] samples produced so far, in [`DrawSite::ALL`]
    /// order.
    pub fn rng_draw_counts(&self) -> [u64; NUM_DRAW_SITES] {
        self.rng_draws
    }

    /// Counts `n` keyed draws made at `site` — the one door into the
    /// per-site counters for draws made outside the Phase A sweep (an
    /// endpoint model's own [`mix`] calls).
    #[inline]
    pub fn note_draws(&mut self, site: DrawSite, n: u64) {
        self.rng_draws[site.index()] += n;
    }

    /// Free slots in a node's per-class injection queue.
    pub fn injection_space(&self, node: NodeId, class: MessageClass) -> usize {
        self.config
            .inj_queue_capacity
            .saturating_sub(self.inj[self.qidx(node, class)].len())
    }

    /// Occupancy of a node's per-class injection queue.
    pub fn injection_len(&self, node: NodeId, class: MessageClass) -> usize {
        self.inj[self.qidx(node, class)].len()
    }

    /// Occupancy of a node's per-class ejection queue.
    pub fn ejection_len(&self, node: NodeId, class: MessageClass) -> usize {
        self.ej[self.qidx(node, class)].len()
    }

    /// Total packets currently parked in ejection queues (delivered but
    /// not yet consumed by the endpoint model).
    pub fn ejection_backlog(&self) -> usize {
        self.ej_backlog
    }

    /// Packet ids waiting in a node's per-class injection queue, head
    /// first (invariant checker and diagnostics).
    pub fn injection_queue(
        &self,
        node: NodeId,
        class: MessageClass,
    ) -> impl Iterator<Item = PacketId> + '_ {
        self.inj[self.qidx(node, class)].iter().map(|&(pid, _)| pid)
    }

    /// Packet ids parked in a node's per-class ejection queue, head first
    /// (invariant checker and diagnostics).
    pub fn ejection_queue(
        &self,
        node: NodeId,
        class: MessageClass,
    ) -> impl Iterator<Item = PacketId> + '_ {
        self.ej[self.qidx(node, class)].iter().copied()
    }

    /// Iterator over `(id, packet)` for every live packet, wherever it is
    /// (queues or network).
    pub fn live_packet_iter(&self) -> impl Iterator<Item = (PacketId, &Packet)> {
        self.packets.iter()
    }

    /// Cycle until which `l` is serializing a packet (busy).
    pub fn link_busy_until(&self, l: LinkId) -> u64 {
        self.link_busy[l.index()]
    }

    /// Whether the per-class ejection queue has room for one more packet.
    pub fn ejection_has_space(&self, node: NodeId, class: MessageClass) -> bool {
        self.ej[self.qidx(node, class)].len() < self.config.ej_queue_capacity
    }

    /// Creates a packet in `src`'s injection queue. Returns `None` (and
    /// creates nothing) when the queue is full or `src == dest`.
    pub fn try_enqueue_packet(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
        tag: u64,
    ) -> Option<PacketId> {
        if self.injection_space(src, class) == 0 {
            return None;
        }
        self.force_enqueue_packet(src, dest, class, len_flits, tag)
    }

    /// Enqueues a packet bypassing the injection-queue capacity bound.
    ///
    /// For control messages whose population is bounded elsewhere (e.g.
    /// coherence unblocks, at most one per MSHR): real designs provision
    /// reserved slots for them so that consuming the sink class can never
    /// block. Returns `None` only when `src == dest`.
    pub fn force_enqueue_packet(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
        tag: u64,
    ) -> Option<PacketId> {
        if src == dest {
            return None;
        }
        let pid = self.packets.insert(Packet {
            src,
            dest,
            class,
            len_flits,
            birth_cycle: self.cycle,
            inject_cycle: u64::MAX,
            loc: Location::InjectionQueue(src),
            hops: 0,
            misroutes: 0,
            forced_hops: 0,
            tag,
        });
        let q = self.qidx(src, class);
        if self.inj[q].is_empty() {
            self.inj_bits[q / 64] |= 1u64 << (q % 64);
            self.wake.new_head(self.wake.first_queue() + q);
        }
        self.inj[q].push_back((pid, dest.0));
        self.stats.generated += 1;
        Some(pid)
    }

    /// Peeks the head of a node's per-class ejection queue.
    pub fn peek_ejection(&self, node: NodeId, class: MessageClass) -> Option<&Packet> {
        self.ej[self.qidx(node, class)]
            .front()
            .map(|&pid| self.packets.get(pid))
    }

    /// Consumes the head of a node's per-class ejection queue, retiring the
    /// packet from the network.
    pub fn pop_ejection(&mut self, node: NodeId, class: MessageClass) -> Option<Delivered> {
        let q = self.qidx(node, class);
        let pid = self.ej[q].pop_front()?;
        if self.ej[q].is_empty() {
            self.ej_bits[q / 64] &= !(1u64 << (q % 64));
        }
        self.ej_backlog -= 1;
        let packet = self.packets.remove(pid);
        Some(Delivered { packet, id: pid })
    }

    /// Consumes the head of the lowest-indexed non-empty ejection queue
    /// (ascending (node, class) order — the same order as sweeping
    /// [`SimCore::pop_ejection`] over every node and class, so endpoint
    /// models that drain everything each cycle retire packets in the
    /// identical sequence without visiting empty queues).
    pub fn pop_next_ejection(&mut self) -> Option<Delivered> {
        let wi = self.ej_bits.iter().position(|&w| w != 0)?;
        let q = wi * 64 + self.ej_bits[wi].trailing_zeros() as usize;
        let node = NodeId((q / self.config.num_classes) as u16);
        let class = MessageClass((q % self.config.num_classes) as u8);
        self.pop_ejection(node, class)
    }

    /// Routing candidates for an explicit context (used by the reference
    /// walk, the deadlock detector and SPIN probes). Results are appended
    /// to `out`.
    pub fn route_candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        self.routing.candidates(ctx, out);
    }

    /// Concrete downstream VC slots a candidate may claim, in preference
    /// order (non-escape before escape for [`TargetVc::Any`]).
    pub fn concrete_targets(&self, cand: Candidate, vn: u8, out: &mut Vec<VcRef>) {
        let vcs = self.config.vcs_per_vn as u8;
        match cand.target {
            TargetVc::EscapeOnly => out.push(VcRef {
                link: cand.link,
                vn,
                vc: 0,
            }),
            TargetVc::NonEscapeOnly => {
                for vc in 1..vcs {
                    out.push(VcRef {
                        link: cand.link,
                        vn,
                        vc,
                    });
                }
            }
            TargetVc::Any => {
                for vc in 1..vcs {
                    out.push(VcRef {
                        link: cand.link,
                        vn,
                        vc,
                    });
                }
                out.push(VcRef {
                    link: cand.link,
                    vn,
                    vc: 0,
                });
            }
        }
    }

    /// Whether the VC buffer can accept a new packet right now (empty,
    /// and its last tenant's tail has drained).
    #[inline]
    pub fn vc_is_free(&self, r: VcRef) -> bool {
        self.vc_free_at[self.vc_index(r)] <= self.cycle
    }

    /// Whether the link can start a new serialization right now.
    #[inline]
    pub fn link_is_free(&self, l: LinkId) -> bool {
        self.link_busy[l.index()] <= self.cycle
    }

    // ------------------------------------------------------------------
    // Per-cycle engine
    // ------------------------------------------------------------------

    /// Advances the cycle counter (called by `Sim::step` after all phases)
    /// and runs the park-profitability gate on window boundaries.
    pub(crate) fn advance_cycle(&mut self) {
        self.cycle += 1;
        self.wake.tick(self.cycle);
    }

    /// Takes a telemetry sample — occupancy and queue depths — when the
    /// current cycle closes a sampling window. Called by the driver once
    /// per cycle; the O(VCs + routers) sweep runs only on window
    /// boundaries.
    // Inlined into `Sim::step`: out of line, the per-cycle call cost
    // `coherence_app` 3–5 % of its wall time.
    #[inline]
    pub(crate) fn telemetry_tick(&mut self) {
        if !self.telem.active() {
            return;
        }
        if !(self.cycle + 1).is_multiple_of(self.telem.period()) {
            return;
        }
        let n = self.topo.num_nodes();
        // A recycled scratch vector — sampling allocates nothing in steady
        // state (see [`Telemetry::checkout_routers`]).
        let mut routers = self.telem.checkout_routers(n);
        // VC buffers sit at the input of their link's destination router;
        // only occupied ones contribute.
        for idx in set_bits(&self.occ_bits) {
            routers[self.idx_here[idx] as usize].occupied_vcs += 1;
        }
        for (q, queue) in self.inj.iter().enumerate() {
            routers[q / self.config.num_classes].inj_depth += queue.len() as u32;
        }
        for (q, queue) in self.ej.iter().enumerate() {
            routers[q / self.config.num_classes].ej_depth += queue.len() as u32;
        }
        self.telem.push_sample(self.cycle, routers);
    }

    /// Normal allocation: one Phase A sweep over every slot and queue,
    /// filed into the allocation scratch (checked out of the core for the
    /// cycle), then [`SimCore::finish_allocation`], which checks it back
    /// in.
    pub(crate) fn allocate_and_move(&mut self) {
        let mut scratch = self.alloc.take().expect("allocation scratch checked in");
        let tally = self.phase_a_sweep(&mut scratch);
        self.finish_allocation(scratch, tally);
    }

    /// Phase A: every ready VC head and every injection-queue head files
    /// its decision into `scratch` — an ejection request, a link request,
    /// a park, a credit stall. Takes `&self`: every decision is made
    /// against the frozen cycle-start state, and nothing is committed
    /// before Phase B.
    ///
    /// Occupied slots are visited in ascending link-major index order —
    /// the order of the `link, vn, vc` loop nest — then non-empty
    /// injection queues (the set bits of `inj_bits`) in ascending
    /// `(node, class)` order; that order fixes each output link's request
    /// list and so its arbitration winner. Ascending
    /// set-bit iteration over the occupancy bitmap IS that order and
    /// visits exactly the occupied slots (nothing here changes occupancy,
    /// so the bitmap is stable mid-sweep). Each routed head draws the pure
    /// `mix(seed, cycle, site, id)` of [`crate::rng`]; parked heads draw
    /// nothing. Only the VC arena and its hot mirrors are read, never the
    /// packet slab.
    fn phase_a_sweep(&self, scratch: &mut AllocScratch) -> PhaseATally {
        let now = self.cycle;
        let seed = self.config.seed;
        let telem_on = self.telem.active();
        let mut tally = PhaseATally::default();
        for (wi, mut w) in self.occ_bits.iter().copied().enumerate() {
            // Counted per head, not per word: `count_ones` is a dozen
            // instructions without a popcount unit, and at low load most
            // words are empty.
            while w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                tally.work.heads_visited += 1;
                if self.vc_ready_at[idx] > now {
                    continue;
                }
                let pid = PacketId(self.vc_occ[idx]);
                let here = self.idx_here[idx];
                if self.vc_dest[idx] == here {
                    let class = MessageClass(self.vc_class[idx]);
                    scratch
                        .ejects
                        .push((self.qidx(NodeId(here), class), idx, pid));
                    continue;
                }
                // Parked fast path: a head whose last routing pass proved
                // no feasible move, with a wake deadline still in the
                // future, routes the same `None` a re-route would
                // recompute — skip the ctx build, the routing call and the
                // feasibility walk entirely.
                if self.wake.at[idx] > now {
                    tally.skips += 1;
                    if telem_on {
                        scratch.stalls.push(u32::from(here));
                    }
                    continue;
                }
                tally.draws[DrawSite::PhaseA.index()] += 1;
                let sample = mix(seed, now, DrawSite::PhaseA, idx as u64);
                let head = self.vc_head(idx, sample);
                match self.route_or_park(idx, &head, &mut tally.work.ports_probed) {
                    PhaseAOutcome::Route(out_link, target, blocked_for) => scratch.request(
                        out_link,
                        LinkRequest {
                            source: MoveSource::Vc(idx),
                            pid,
                            target,
                            blocked_for,
                        },
                    ),
                    // A resident packet that cannot even request a move is
                    // credit-stalled at its current router; the fused walk
                    // may have decided to park it until its answer can
                    // change.
                    outcome => {
                        if telem_on {
                            scratch.stalls.push(u32::from(here));
                        }
                        match outcome {
                            PhaseAOutcome::Park(note) => scratch.parks.push(note),
                            _ => tally.stalls += 1,
                        }
                    }
                }
            }
        }
        // Injection requests: the head of each non-empty per-class queue.
        // A queue head parks and skips exactly like a VC head, under
        // subscriber id `slots + q`.
        let classes = self.config.num_classes;
        let first_queue = self.wake.first_queue();
        for (wi, mut w) in self.inj_bits.iter().copied().enumerate() {
            while w != 0 {
                let q = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                tally.work.heads_visited += 1;
                if self.wake.at[first_queue + q] > now {
                    tally.skips += 1;
                    tally.injection_skips += 1;
                    continue;
                }
                let (pid, dest) = self.inj[q][0];
                debug_assert_eq!(
                    NodeId(dest),
                    self.packets.get(pid).dest,
                    "stale queued destination"
                );
                tally.draws[DrawSite::Injection.index()] += 1;
                let sample = mix(seed, now, DrawSite::Injection, q as u64);
                let head = self.injection_head(q, dest, sample);
                match self.route_or_park(first_queue + q, &head, &mut tally.work.ports_probed) {
                    PhaseAOutcome::Route(link, target, _) => {
                        let node = NodeId((q / classes) as u16);
                        let class = MessageClass((q % classes) as u8);
                        scratch.request(
                            link,
                            LinkRequest {
                                source: MoveSource::Injection { node, class },
                                pid,
                                target,
                                blocked_for: 0,
                            },
                        );
                    }
                    PhaseAOutcome::Park(note) => scratch.parks.push(note),
                    PhaseAOutcome::Stall => {}
                }
            }
        }
        tally
    }

    /// Everything after the Phase A sweep: the filed park notes, the
    /// sweep's counters and telemetry notes, then Phase B — ejection
    /// grants and link grants, each committed as it is decided.
    ///
    /// Parks go first, in ascending subscriber order (slots, then
    /// queues), the order the sweep files them in. Deferring them past
    /// the sweep is exact: the sweep reads a deadline only for the head
    /// it is visiting and [`SimCore::route_or_park`] reads no wake state,
    /// while Phase B's vacates must fire against the new deadlines.
    fn finish_allocation(&mut self, mut scratch: Box<AllocScratch>, tally: PhaseATally) {
        debug_assert!(scratch.parks.is_sorted_by_key(|n| n.id));
        for note in scratch.parks.drain(..) {
            let out_links = self.topo.out_links(NodeId(note.here));
            let vn_base = usize::from(note.vn) * self.config.vcs_per_vn;
            let stride = self.stride;
            self.wake
                .apply_park(note, |bit| list_of_bit(out_links, stride, vn_base, bit));
        }
        let w = &mut self.wake.counters;
        w.skips += tally.skips;
        w.injection_skips += tally.injection_skips;
        w.stalls += tally.stalls;
        for (acc, d) in self.rng_draws.iter_mut().zip(tally.draws) {
            *acc += d;
        }
        self.work.heads_visited += tally.work.heads_visited;
        self.work.ports_probed += tally.work.ports_probed;
        for router in scratch.stalls.drain(..) {
            self.telem.note_credit_stalls(router as usize, 1);
        }
        self.prof.mark(Phase::PhaseA);

        // Phase B: ejection grants — one per (node, class) queue with space.
        let ejects = &mut scratch.ejects;
        ejects.sort_unstable_by_key(|&(q, idx, _)| (q, idx));
        let mut gi = 0;
        while gi < ejects.len() {
            let q = ejects[gi].0;
            let mut ge = gi;
            while ge < ejects.len() && ejects[ge].0 == q {
                ge += 1;
            }
            let group = &ejects[gi..ge];
            // Oldest-first ejection grant.
            if self.ej[q].len() >= self.config.ej_queue_capacity {
                // Deliverable packets blocked on a full ejection queue are
                // credit-stalled at the destination router.
                if self.telem.active() {
                    self.telem
                        .note_credit_stalls(q / self.config.num_classes, group.len() as u64);
                }
            } else {
                let (_, idx, pid) = group[self.eject_winner(q, group)];
                self.commit_eject(idx, pid);
            }
            gi = ge;
        }
        ejects.clear();

        // Phase B: link grants — one per output link, oldest requester
        // first (age-based arbitration bounds worst-case blocking, as in
        // real NoC allocators); rotation breaks ties. Only links that
        // received a request are visited, in ascending id order
        // (ascending set-bit iteration needs no sort).
        for wi in 0..scratch.req_bits.len() {
            let mut w = std::mem::take(&mut scratch.req_bits[wi]);
            while w != 0 {
                let li = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let reqs = &mut scratch.reqs[li];
                let req = reqs[self.link_winner(li, reqs)];
                reqs.clear();
                self.commit_move(&req, LinkId(li as u32));
            }
        }
        self.prof.mark(Phase::PhaseB);
        self.alloc = Some(scratch);
    }

    /// The ready, non-ejecting head at arena index `idx` as routing sees
    /// it, given its tie-break `sample`. `blocked_for`'s base is frozen
    /// while the slot stays occupied, so every threshold it has not yet
    /// crossed (routing widening, escape-entry patience) is an exact
    /// cycle: `changes_at`.
    #[inline(always)]
    fn vc_head(&self, idx: usize, sample: u64) -> Head {
        let dest = NodeId(self.vc_dest[idx]);
        debug_assert_eq!(
            dest,
            self.packets.get(PacketId(self.vc_occ[idx])).dest,
            "stale dest mirror"
        );
        let in_escape = self.config.escape_sticky && self.idx_vc[idx] == 0;
        let base = self.vc_entered_at[idx].max(self.vc_ready_at[idx]);
        let blocked_for = self.cycle.saturating_sub(base);
        let vn = self.class_vn[usize::from(self.vc_class[idx])];
        debug_assert_eq!(
            vn,
            ((idx % self.stride) / self.config.vcs_per_vn) as u8,
            "packet must sit in its class VN"
        );
        // Escape VCs are a last resort: only packets blocked for the
        // configured patience may fall back into one (packets already in
        // an escape VC must continue there).
        let patience = self.config.escape_entry_patience;
        let allow_escape = in_escape || self.escape_always_allowed() || blocked_for >= patience;
        let mut changes_at = match self.wake.profile {
            WakeProfile::WidensAt(t) if blocked_for < t => base + t,
            _ => u64::MAX,
        };
        if !allow_escape {
            // Escape targets unlock when `blocked_for` reaches the
            // patience threshold (both the skipped `EscapeOnly`
            // candidates and the `Any` → `NonEscapeOnly` downgrade).
            changes_at = changes_at.min(base + patience);
        }
        Head {
            ctx: RouteCtx {
                cur: NodeId(self.idx_here[idx]),
                dest,
                arrived_via: Some(LinkId(self.idx_link[idx])),
                in_escape,
                blocked_for,
                sample,
            },
            vn,
            allow_escape,
            changes_at,
        }
    }

    /// The head of injection queue `q`, bound for `dest`, as routing sees
    /// it, given its tie-break `sample`.
    ///
    /// Source-queue waiting is ordinary queueing, not deadlock pressure:
    /// a waiting injection holds no network resource, so it neither
    /// deflects nor claims the escape VC (it can always keep waiting for
    /// a non-escape buffer). Its `blocked_for` is always 0 and its escape
    /// entry fixed, so its candidate set is frozen for as long as it is
    /// the head (`changes_at` = never). The destination comes from the
    /// queue entry, not the slab: under backpressure every queue is
    /// non-empty and the slab spans megabytes.
    #[inline(always)]
    fn injection_head(&self, q: usize, dest: u16, sample: u64) -> Head {
        let classes = self.config.num_classes;
        Head {
            ctx: RouteCtx {
                cur: NodeId((q / classes) as u16),
                dest: NodeId(dest),
                arrived_via: None,
                in_escape: false,
                blocked_for: 0,
                sample,
            },
            vn: self.class_vn[q % classes],
            allow_escape: self.escape_always_allowed(),
            changes_at: u64::MAX,
        }
    }

    /// Whether escape-VC entry needs no patience: non-sticky configs have
    /// no escape distinction, and single-VC VNs have nothing else to use.
    #[inline]
    fn escape_always_allowed(&self) -> bool {
        !self.config.escape_sticky
            || self.config.vcs_per_vn == 1
            || self.config.escape_entry_patience == 0
    }

    /// Pure routing decision for `head`: the first routing candidate with
    /// a free link and a free target VC, or `None` when every next hop
    /// lacks buffer or link credit this cycle. `cands` is caller-provided
    /// scratch (cleared here). The independent per-slot reference over
    /// the expanded candidate list that [`SimCore::validate_wake_parking`]
    /// holds [`SimCore::route_or_park`]'s mask walk to.
    fn choose_feasible(
        &self,
        head: &Head,
        cands: &mut Vec<Candidate>,
    ) -> Option<(LinkId, TargetVc)> {
        cands.clear();
        self.routing.candidates(&head.ctx, cands);
        for cand in cands.iter() {
            let target = match (cand.target, head.allow_escape) {
                (TargetVc::Any, false) => TargetVc::NonEscapeOnly,
                (TargetVc::EscapeOnly, false) => continue,
                (t, _) => t,
            };
            if !self.link_is_free(cand.link) {
                continue;
            }
            let downgraded = Candidate {
                link: cand.link,
                target,
            };
            if self.resolve_target_vc(downgraded, head.vn).is_some() {
                return Some((cand.link, target));
            }
        }
        None
    }

    /// Fused Phase A routing + parking decision for subscriber `id` (a
    /// VC slot or `slots + q` for an injection queue) with head `head`:
    /// the first feasible next hop in rotated order — exactly
    /// [`SimCore::choose_feasible`]'s answer — or, when every next hop is
    /// infeasible, a parking decision folded out of the *same* walk (no
    /// second pass: the failure walk has already touched every link clock
    /// and target slot the wake decision needs). Adds the ports it
    /// probes to `probes`.
    ///
    /// The walk runs on the routing's port masks ([`Routing::port_sets`]),
    /// never on a candidate list: per set, the ports come in
    /// [`crate::routing::PortSet::rotated`] order with their index `j` in hand, so the
    /// link is `out_links(here)[j]` and the subscription bit is
    /// `2j + kind`. A target slot `s` is claimable iff `vc_free_at[s] <=
    /// now` and occupied iff `vc_free_at[s] == u64::MAX` — one load per
    /// slot answers both the feasibility and the wake fold: a port is
    /// claimable from `max(link_busy, earliest free_at of its target
    /// slots)`, which is `u64::MAX` when every target slot is occupied.
    ///
    /// Every router fits the 64-bit subscription mask
    /// (`drain_topology::MAX_DEGREE` is 32). Parking is declined (`Stall`)
    /// when the scheduler is off or its gate closed, and when it is sound
    /// but *worthless*: a wake deadline of `now + 1` fires
    /// before the next visit could skip anything, so the park would be
    /// pure bookkeeping. With single-cycle link serialization any
    /// candidate with an empty-but-infeasible slot yields a `now + 1`
    /// deadline, so heads only ever park when every eligible candidate
    /// slot is occupied — the parks that sleep until a vacate fires.
    ///
    /// Soundness argument (missed wakes are impossible):
    ///
    /// * The candidate *set* is frozen while the head stays put except at
    ///   the known thresholds folded into `head.changes_at`.
    /// * Per candidate, feasibility needs a free link and a free target
    ///   VC. `link_busy`/`vc_free_at` only ever move a *known* deadline
    ///   (timed wake at the max of both for empty slots); occupied slots
    ///   can free only through [`SimCore::vacate_slot`], which fires the
    ///   list of exactly that slot's (link, VN, kind). The head subscribes
    ///   to every kind in which a target slot is occupied. State changes
    ///   in the other direction (occupations, busier links) only delay
    ///   feasibility and are re-checked on wake.
    ///
    /// The feasibility half must stay behaviourally identical to
    /// `choose_feasible` (same downgrade, same link/slot checks, same
    /// first-match order). That duplication is deliberate:
    /// `validate_wake_parking` re-routes parked heads through the
    /// *independent* `choose_feasible` walk, so any drift between the two
    /// shows up as a missed-wake violation in the deep sweeps and
    /// proptests, not as silent divergence.
    ///
    /// Takes `&self` against pre-commit state; the notes it returns are
    /// applied by [`SimCore::finish_allocation`] before any Phase B
    /// commit.
    // Forced inline, with the two head builders: at two call sites the
    // compiler kept it out of line, and the call cost `sat_mesh8` ~5 %
    // of its wall time.
    #[inline(always)]
    fn route_or_park(&self, id: usize, head: &Head, probes: &mut u64) -> PhaseAOutcome {
        let now = self.cycle;
        let vcs = self.config.vcs_per_vn;
        let vn_base = usize::from(head.vn) * vcs;
        let out_links = self.topo.out_links(head.ctx.cur);
        let mut wake_at = head.changes_at;
        let mut subs: u64 = 0;
        for set in &self.routing.port_sets(&head.ctx) {
            let target = match (set.target, head.allow_escape) {
                (TargetVc::Any, false) => TargetVc::NonEscapeOnly,
                (TargetVc::EscapeOnly, false) => continue,
                (t, _) => t,
            };
            // The target VCs within the VN; for `Any` the non-escape ones
            // are preferred, but feasibility only asks whether one is
            // claimable, and that is order-free.
            let (lo, hi) = match target {
                TargetVc::EscapeOnly => (0, 1),
                TargetVc::NonEscapeOnly => (1, vcs),
                TargetVc::Any => (0, vcs),
            };
            for j in set.rotated() {
                *probes += 1;
                let link = out_links[j as usize];
                let li = link.index();
                let slot0 = li * self.stride + vn_base;
                // The earliest `free_at` of a target slot (`u64::MAX` when
                // every one is occupied), and bit `kind` set for each kind
                // with an occupied target slot.
                let (mut earliest, mut kinds) = (u64::MAX, 0u64);
                for (tvc, &f) in (lo..).zip(&self.vc_free_at[slot0 + lo..slot0 + hi]) {
                    earliest = earliest.min(f);
                    kinds |= u64::from(f == u64::MAX) << u32::from(tvc != 0);
                }
                // Claimable once the link and some target slot are both
                // free: the min over slots of `max(link_busy, free_at)`.
                let claimable_at = self.link_busy[li].max(earliest);
                if claimable_at <= now {
                    return PhaseAOutcome::Route(link, target, head.ctx.blocked_for);
                }
                // Infeasible: fold it into the wake decision (unused when
                // the head may not park).
                wake_at = wake_at.min(claimable_at);
                subs |= kinds << (2 * j);
            }
        }
        if !self.wake.may_park() {
            return PhaseAOutcome::Stall;
        }
        debug_assert!(
            wake_at > now,
            "an infeasible move cannot become feasible this cycle"
        );
        // A wake at `now + 1` fires before the next visit could skip
        // anything — the park would be pure overhead. Stay active.
        if wake_at <= now + 1 {
            return PhaseAOutcome::Stall;
        }
        PhaseAOutcome::Park(ParkNote {
            id: id as u32,
            here: head.ctx.cur.0,
            vn: head.vn,
            wake_at,
            subs,
        })
    }

    /// Conservative wake-all: every parked head's deadline — VC and
    /// injection-queue heads alike — drops to `now` so the next Phase A
    /// sweep re-routes it. Used around events the subscription graph does
    /// not model (mechanism-forced permutations). Parking is only a cache
    /// of routing answers, so this is a cache flush: no simulated result
    /// depends on when, or how often, it is called. Calling it before
    /// every cycle re-routes every head every cycle — the reference run
    /// of the wake differential tests.
    pub fn wake_all(&mut self) {
        self.wake.wake_all(self.cycle, set_bits(&self.occ_bits));
    }

    /// Phase A work since construction (see [`KernelWork`]).
    pub fn kernel_work(&self) -> KernelWork {
        self.work
    }

    /// Wake-scheduler accounting since construction.
    pub fn wake_counters(&self) -> WakeCounters {
        self.wake.counters
    }

    /// Deep-sweep validation of the wake scheduler (paired with
    /// [`SimCore::validate_active_index`]):
    ///
    /// * *No missed wake*: every parked head (`wake_at > now`) — VC slot
    ///   or injection queue — must still route `None`: re-deciding
    ///   Phase A for it right now through the independent
    ///   `choose_feasible` walk (sample 0; `None`-ness is
    ///   sample-independent, see [`WakeProfile`]) must not find a
    ///   feasible move the scheduler would have skipped.
    /// * *Subscription bookkeeping*: every mask bit corresponds to exactly
    ///   one entry in the (link, VN, kind) list it names, and no list
    ///   holds an entry without its mask bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_wake_parking(&self) -> Result<(), String> {
        let now = self.cycle;
        let first_queue = self.wake.first_queue();
        let mut cands = Vec::new();
        for id in self.wake.parked(now) {
            let (head, what) = if id < first_queue {
                // A vacated slot keeps its stale deadline until its next
                // tenant resets it.
                if self.vc_occ[id] == EMPTY {
                    continue;
                }
                let what = format!("VC {:?}", self.vc_ref_of_index(id));
                if self.vc_ready_at[id] > now {
                    return Err(format!(
                        "parked {what} is not allocation-eligible (ready_at {} > {now})",
                        self.vc_ready_at[id]
                    ));
                }
                (self.vc_head(id, 0), what)
            } else {
                let q = id - first_queue;
                let Some(&(_, dest)) = self.inj[q].front() else {
                    return Err(format!("injection queue {q} is parked but empty"));
                };
                (
                    self.injection_head(q, dest, 0),
                    format!("injection queue {q}"),
                )
            };
            if let Some((l, _)) = self.choose_feasible(&head, &mut cands) {
                return Err(format!(
                    "missed wake: parked {what} (wake_at {}) has a feasible move via {l:?}",
                    self.wake.at[id]
                ));
            }
        }
        let classes = self.config.num_classes;
        let vcs = self.config.vcs_per_vn;
        self.wake.validate_lists(|id, bit| {
            let (here, vn) = if id < first_queue {
                (NodeId(self.idx_here[id]), self.vc_ref_of_index(id).vn)
            } else {
                let q = id - first_queue;
                (NodeId((q / classes) as u16), self.class_vn[q % classes])
            };
            let out_links = self.topo.out_links(here);
            if usize::from(bit >> 1) >= out_links.len() {
                return usize::MAX;
            }
            list_of_bit(out_links, self.stride, usize::from(vn) * vcs, bit)
        })
    }

    /// Oldest-first ejection arbitration for the non-empty request
    /// `group` of ejection queue `q` (each entry `(q, arena idx, pid)`):
    /// index of the winning entry. Rotation breaks ties.
    fn eject_winner(&self, q: usize, group: &[(usize, usize, PacketId)]) -> usize {
        let now = self.cycle;
        let rot = (now as usize + q) % group.len();
        (0..group.len())
            .max_by_key(|&i| {
                let idx = group[i].1;
                let blocked =
                    now.saturating_sub(self.vc_entered_at[idx].max(self.vc_ready_at[idx]));
                (blocked, usize::from(i == rot))
            })
            .expect("non-empty group")
    }

    /// Oldest-first link arbitration for the non-empty request list of
    /// output link `li`: index of the winning request. Rotation breaks
    /// ties; ties on `(age, rotation)` fall to the *last* maximum, so the
    /// winner depends on list order, which is the Phase A sweep's order.
    fn link_winner(&self, li: usize, reqs: &[LinkRequest]) -> usize {
        let rot = (self.cycle as usize + li) % reqs.len();
        (0..reqs.len())
            .max_by_key(|&i| (reqs[i].blocked_for, usize::from(i == rot)))
            .expect("non-empty request list")
    }

    /// Resolves a target kind to the first currently free concrete VC
    /// (non-escape before escape for [`TargetVc::Any`]): the slot a
    /// granted request claims, and the reference walk's feasibility test.
    pub(crate) fn resolve_target_vc(&self, cand: Candidate, vn: u8) -> Option<VcRef> {
        let vcs = self.config.vcs_per_vn as u8;
        let try_vc = |vc: u8| -> Option<VcRef> {
            let r = VcRef {
                link: cand.link,
                vn,
                vc,
            };
            self.vc_is_free(r).then_some(r)
        };
        match cand.target {
            TargetVc::EscapeOnly => try_vc(0),
            TargetVc::NonEscapeOnly => (1..vcs).find_map(try_vc),
            TargetVc::Any => (1..vcs).find_map(try_vc).or_else(|| try_vc(0)),
        }
    }

    /// Commits a granted link request: vacates the source, occupies the
    /// first free target VC of the requested kind on `out_link`, starts
    /// the link's serialization, and books stats, telemetry and trace
    /// events.
    fn commit_move(&mut self, req: &LinkRequest, out_link: LinkId) {
        let now = self.cycle;
        // Free the source.
        match req.source {
            MoveSource::Vc(idx) => {
                debug_assert_eq!(self.vc_occ[idx], req.pid.0);
                let len = self.vc_len[idx] as u64;
                self.vacate_slot(idx, now + len);
            }
            MoveSource::Injection { node, class } => {
                let q = self.qidx(node, class);
                let popped = self.inj[q].pop_front();
                debug_assert_eq!(popped.map(|(pid, _)| pid), Some(req.pid));
                if self.inj[q].is_empty() {
                    self.inj_bits[q / 64] &= !(1u64 << (q % 64));
                }
                self.wake.new_head(self.wake.first_queue() + q);
                self.packets.get_mut(req.pid).inject_cycle = now;
                self.stats.injected += 1;
            }
        }
        // One slab read covers the rest of the commit (`Packet` is `Copy`).
        let p = *self.packets.get(req.pid);
        let p_len = p.len_flits as u64;
        let from_node = self.topo.link(out_link).src;
        // Occupy the target VC.
        let vn = self.class_vn[p.class.index()];
        let cand = Candidate {
            link: out_link,
            target: req.target,
        };
        let target = self
            .resolve_target_vc(cand, vn)
            .expect("target was free at request time and only one grant per link");
        let arrive = now + LINK_LATENCY + ROUTER_LATENCY;
        self.occupy_slot(self.vc_index(target), req.pid, arrive, now);
        self.link_busy[out_link.index()] = now + p_len;
        // Packet bookkeeping.
        let to_node = self.topo.link(out_link).dst;
        let old_d = self.dmap.distance(from_node, p.dest);
        let new_d = self.dmap.distance(to_node, p.dest);
        let misroute = new_d >= old_d;
        let pm = self.packets.get_mut(req.pid);
        pm.loc = Location::Vc {
            link: out_link,
            vn: target.vn,
            vc: target.vc,
        };
        pm.hops += 1;
        if misroute {
            pm.misroutes += 1;
            self.stats.misroutes += 1;
        }
        self.stats.hops += 1;
        self.stats.flit_hops += p_len;
        self.stats.last_progress_cycle = now;
        if self.telem.active() {
            self.telem.note_link_flits(out_link.index(), p_len);
        }
        if self.tracer.enabled() {
            let (src, dest, class) = (p.src.0, p.dest.0, p.class.index() as u8);
            if matches!(req.source, MoveSource::Injection { .. }) {
                self.tracer.push(TraceEvent::Inject {
                    cycle: now,
                    pid: req.pid.0,
                    src,
                    dest,
                    class,
                });
            }
            self.tracer.push(TraceEvent::VcAlloc {
                cycle: now,
                pid: req.pid.0,
                link: out_link.0,
                vn: target.vn,
                vc: target.vc,
            });
            self.tracer.push(TraceEvent::LinkTraverse {
                cycle: now,
                pid: req.pid.0,
                link: out_link.0,
                flits: p_len as u32,
                misroute,
            });
        }
    }

    fn commit_eject(&mut self, vc_idx: usize, pid: PacketId) {
        let now = self.cycle;
        debug_assert_eq!(self.vc_occ[vc_idx], pid.0);
        let len = self.vc_len[vc_idx] as u64;
        self.vacate_slot(vc_idx, now + len);
        self.finish_delivery(pid, false);
    }

    /// Records delivery stats and parks the packet in its destination's
    /// ejection queue.
    fn finish_delivery(&mut self, pid: PacketId, via_drain: bool) {
        let now = self.cycle;
        let (dest, class, len, inject, birth) = {
            let p = self.packets.get(pid);
            (
                p.dest,
                p.class,
                p.len_flits as u64,
                p.inject_cycle,
                p.birth_cycle,
            )
        };
        let q = self.qidx(dest, class);
        debug_assert!(self.ej[q].len() < self.config.ej_queue_capacity || via_drain);
        self.ej[q].push_back(pid);
        self.ej_bits[q / 64] |= 1u64 << (q % 64);
        self.ej_backlog += 1;
        self.packets.get_mut(pid).loc = Location::EjectionQueue(dest);
        let net = now.saturating_sub(inject) + len;
        let total = now.saturating_sub(birth) + len;
        self.stats.net_latency.record(net);
        self.stats.total_latency.record(total);
        self.stats.ejected += 1;
        self.stats.window_ejected += 1;
        self.stats.last_progress_cycle = now;
        if self.tracer.enabled() {
            self.tracer.push(TraceEvent::Eject {
                cycle: now,
                pid: pid.0,
                node: dest.0,
                class: class.index() as u8,
                latency: net,
            });
        }
    }

    /// Applies an atomic set of forced one-hop movements (a drain step or a
    /// spin). Movements form a partial permutation: sources are distinct,
    /// targets are distinct, and a target may coincide with another move's
    /// source (the classic cyclic shift).
    ///
    /// A moved packet that arrives at its destination router ejects
    /// immediately if its ejection queue has space (paper §III-C2).
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the set is not a valid permutation or a
    /// source VC is empty.
    pub(crate) fn apply_forced(&mut self, moves: &[ForcedMove], kind: ForcedKind) {
        let now = self.cycle;
        // A forced permutation rearranges occupancy wholesale — packets
        // land in new buffers, links go busy, ejections free VCs. The
        // vacates below fire their own wake lists, but conservatively wake
        // every parked head anyway: forced cycles are rare (one per drain
        // epoch / spin) and a blanket re-route is provably safe, whereas
        // proving the subscription graph covers every mechanism's side
        // effects is not worth the fragility.
        self.wake_all();
        // Validate + snapshot.
        let mut staged: Vec<(PacketId, VcRef)> = Vec::with_capacity(moves.len());
        for m in moves {
            let fidx = self.vc_index(m.from);
            let occ = self.vc_occ[fidx];
            assert!(occ != EMPTY, "forced move from an empty VC");
            debug_assert_eq!(
                self.topo.link(m.from.link).dst,
                self.topo.link(m.to.link).src,
                "forced move must pivot at the from-link's head router"
            );
            staged.push((PacketId(occ), m.to));
        }
        if cfg!(debug_assertions) {
            let mut froms: Vec<usize> = moves.iter().map(|m| self.vc_index(m.from)).collect();
            froms.sort_unstable();
            froms.dedup();
            assert_eq!(froms.len(), moves.len(), "duplicate forced-move source");
            let mut tos: Vec<usize> = moves.iter().map(|m| self.vc_index(m.to)).collect();
            tos.sort_unstable();
            tos.dedup();
            assert_eq!(tos.len(), moves.len(), "duplicate forced-move target");
        }
        // Clear all sources first (atomic permutation semantics).
        for m in moves {
            let fidx = self.vc_index(m.from);
            let len = self.vc_len[fidx] as u64;
            self.vacate_slot(fidx, now + len);
        }
        // Fill targets / eject.
        let arrive = now + LINK_LATENCY + ROUTER_LATENCY;
        for (pid, to) in staged {
            let p_len = self.packets.get(pid).len_flits as u64;
            let from_node = self.topo.link(to.link).src;
            let to_node = self.topo.link(to.link).dst;
            self.link_busy[to.link.index()] = now + p_len;
            self.stats.flit_hops += p_len;
            let (dest, class, old_d, new_d) = {
                let p = self.packets.get(pid);
                (
                    p.dest,
                    p.class,
                    self.dmap.distance(from_node, p.dest),
                    self.dmap.distance(to_node, p.dest),
                )
            };
            {
                let p = self.packets.get_mut(pid);
                p.hops += 1;
                p.forced_hops += 1;
                if new_d >= old_d {
                    p.misroutes += 1;
                }
            }
            self.stats.hops += 1;
            self.stats.forced_hops += 1;
            if new_d >= old_d {
                self.stats.misroutes += 1;
            }
            if self.telem.active() {
                self.telem.note_link_flits(to.link.index(), p_len);
            }
            if self.tracer.enabled() {
                self.tracer.push(TraceEvent::ForcedHop {
                    cycle: now,
                    pid: pid.0,
                    link: to.link.0,
                    kind,
                    misroute: new_d >= old_d,
                });
            }
            if dest == to_node && self.ejection_has_space(to_node, class) {
                self.finish_delivery(pid, true);
                continue;
            }
            let tidx = self.vc_index(to);
            debug_assert!(
                self.vc_occ[tidx] == EMPTY,
                "forced-move target still occupied after clearing sources"
            );
            self.occupy_slot(tidx, pid, arrive, now);
            self.packets.get_mut(pid).loc = Location::Vc {
                link: to.link,
                vn: to.vn,
                vc: to.vc,
            };
        }
        match kind {
            ForcedKind::Drain => self.stats.drains += 1,
            ForcedKind::FullDrain => self.stats.full_drains += 1,
            ForcedKind::Spin => self.stats.spins += 1,
        }
        if !moves.is_empty() {
            self.stats.last_progress_cycle = now;
        }
    }

    /// Places a freshly created packet directly into a VC buffer —
    /// scripted scenarios only (walk-throughs, adversarial tests). The
    /// packet is counted as generated and injected at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the VC is occupied or `vn` does not match the class's
    /// virtual network.
    pub fn place_packet(
        &mut self,
        r: VcRef,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
    ) -> PacketId {
        assert_eq!(
            self.config.vn_of_class(class) as u8,
            r.vn,
            "packet class must match the VC's virtual network"
        );
        let idx = self.vc_index(r);
        assert!(self.vc_occ[idx] == EMPTY, "VC {r:?} is occupied");
        let pid = self.packets.insert(Packet {
            src,
            dest,
            class,
            len_flits,
            birth_cycle: self.cycle,
            inject_cycle: self.cycle,
            loc: Location::Vc {
                link: r.link,
                vn: r.vn,
                vc: r.vc,
            },
            hops: 0,
            misroutes: 0,
            forced_hops: 0,
            tag: 0,
        });
        self.occupy_slot(idx, pid, self.cycle, self.cycle);
        self.stats.generated += 1;
        self.stats.injected += 1;
        pid
    }

    /// Snapshot of `(VcRef, PacketId)` for every occupied VC (diagnostics
    /// and walk-throughs).
    pub fn occupied_vcs(&self) -> Vec<(VcRef, PacketId)> {
        self.vc_refs()
            .filter_map(|r| self.vc(r).occ.map(|p| (r, p)))
            .collect()
    }

    /// Oracle delivery: teleports the packet in `r` straight into its
    /// destination's ejection queue (zero cost). Used by the ideal
    /// deadlock-free reference (Fig 5) — never by a real mechanism.
    pub fn oracle_deliver(&mut self, r: VcRef) {
        let idx = self.vc_index(r);
        let occ = self.vc_occ[idx];
        if occ == EMPTY {
            return;
        }
        self.vacate_slot(idx, self.cycle);
        // Out-of-band vacate (mechanism `control`, before this cycle's
        // Phase A): deliver the wake now so parked heads can use the
        // freed slot this very cycle, exactly as the dense scan would.
        self.flush_wakes();
        self.stats.oracle_resolutions += 1;
        self.finish_delivery(PacketId(occ), true);
    }
}

impl std::fmt::Debug for SimCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore")
            .field("topology", &self.topo.name())
            .field("cycle", &self.cycle)
            .field("in_network", &self.in_network)
            .field("live_packets", &self.packets.len())
            .field("routing", &self.routing.name())
            .finish()
    }
}

#[cfg(test)]
#[path = "mask_walk_tests.rs"]
mod mask_walk_tests;
