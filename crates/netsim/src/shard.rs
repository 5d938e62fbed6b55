//! Sharded deterministic allocation kernel.
//!
//! With [`crate::SimConfig::shards`] `> 1` the routers of the topology are
//! partitioned into `K` shards ([`drain_topology::partition::Partition`],
//! balanced BFS blocks) and each cycle's allocation phase is *planned* in
//! parallel — one worker thread per shard, all reading the same frozen
//! `&SimCore` — then *committed* serially at the cycle barrier in a
//! canonical order. Results are bit-identical to the serial kernel at
//! every shard count: same `Stats`, same cycle counts, byte-identical
//! trace streams.
//!
//! # Ownership
//!
//! * A VC buffer sits at the input port of its link's `dst` router; the
//!   slot belongs to that router's shard.
//! * An output link belongs to its `src` router's shard — which is
//!   exactly the shard holding *every* possible requester of that link
//!   (VC heads at `src`'s input ports and `src`'s injection queues), so
//!   link arbitration never crosses a shard boundary.
//! * Injection and ejection queues belong to their node's shard.
//!
//! # Determinism
//!
//! Every tie-break draw is the pure function `mix(seed, cycle, site,
//! id)` (see [`crate::rng`]), so a planner sweeps only its own slots —
//! through a per-shard sub-view of the occupancy bitmap ([`ShardMap`]'s
//! slot masks) — and computes each owned head's sample in place. The
//! sample a head receives depends only on its identity and the cycle, so
//! shard-count invariance of the draws holds by construction; what the
//! merge below has to reproduce is only the serial kernel's *commit
//! order*.
//!
//! # The barrier merge
//!
//! Plans are pure data: ejection outcomes, link grants and telemetry
//! notes. The merge replays them through the serial kernel's own commit
//! functions in the serial kernel's own order — ejection grants ascending
//! queue id, then link grants ascending link id — so every observable
//! (stats, queue contents, trace event sequence) is identical by
//! construction. A granted move whose target VC belongs to *another*
//! shard is a cross-shard flit: its occupation is deferred through the
//! per-(shard, shard) queues of [`ShardFabric`] and applied after all
//! grants, in canonical `(from, to)` then dense-VC-index order. Deferral
//! is unobservable within the cycle because each output link gets exactly
//! one grant and every grant's target sits on its own output link.
//!
//! Mechanism control (drain/spin/freeze decisions), endpoint models and
//! instrumentation all run serially *at* the cycle barrier on globally
//! merged state — that barrier is the cross-shard coordination point for
//! drain epochs, so `Forced` and `Freeze` cycles bypass the sharded path
//! entirely and need no distributed protocol.

use std::time::Instant;

use drain_topology::{partition::Partition, LinkId, NodeId, Topology};

use crate::metrics::Phase;
use crate::packet::{MessageClass, PacketId};
use crate::rng::{mix, DrawSite, NUM_DRAW_SITES};
use crate::routing::Candidate;
use crate::state::{LinkRequest, MoveSource, ParkNote, PendingOccupy, PhaseAOutcome, SimCore};

/// Maximum shard count: the fabric's nonempty-pair index is one `u64`
/// (`8 × 8` ordered pairs).
pub const MAX_SHARDS: usize = 8;

/// Static ownership tables for one (topology, shard count) pairing:
/// which shard owns each router, each link-major VC slot and each
/// output link.
#[derive(Clone, Debug)]
pub struct ShardMap {
    k: usize,
    shard_of_node: Vec<u16>,
    slot_owner: Vec<u16>,
    link_owner: Vec<u16>,
    /// Per shard: a bitmap over the occupancy words with exactly this
    /// shard's owned slots set. Planners sweep
    /// `occ_bits[wi] & slot_mask[shard][wi]` — a per-shard sub-view of
    /// the occupancy bitmap that skips foreign slots wholesale instead
    /// of filtering them bit by bit.
    slot_mask: Vec<Vec<u64>>,
    cut_links: usize,
}

impl ShardMap {
    /// Builds the ownership tables from a balanced router partition.
    /// `vcs_per_port` is the link-major stride
    /// ([`crate::SimConfig::total_vcs`]).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`MAX_SHARDS`].
    pub fn new(topo: &Topology, k: usize, vcs_per_port: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&k),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        let part = Partition::balanced(topo, k);
        let shard_of_node: Vec<u16> = (0..topo.num_nodes())
            .map(|n| part.shard_of(NodeId(n as u16)))
            .collect();
        let m = topo.num_unidirectional_links();
        let link_owner: Vec<u16> = (0..m)
            .map(|li| shard_of_node[topo.link(LinkId(li as u32)).src.index()])
            .collect();
        let slot_owner: Vec<u16> = (0..m * vcs_per_port)
            .map(|idx| shard_of_node[topo.link(LinkId((idx / vcs_per_port) as u32)).dst.index()])
            .collect();
        let words = (m * vcs_per_port).div_ceil(64);
        let mut slot_mask = vec![vec![0u64; words]; k];
        for (idx, &owner) in slot_owner.iter().enumerate() {
            slot_mask[owner as usize][idx / 64] |= 1 << (idx % 64);
        }
        let cut_links = part.cut_links(topo);
        ShardMap {
            k,
            shard_of_node,
            slot_owner,
            link_owner,
            slot_mask,
            cut_links,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.k
    }

    /// Shard owning a router.
    pub fn shard_of_node(&self, n: NodeId) -> u16 {
        self.shard_of_node[n.index()]
    }

    /// Shard owning the VC buffer at link-major arena index `idx`.
    pub fn slot_owner(&self, idx: usize) -> u16 {
        self.slot_owner[idx]
    }

    /// Shard owning an output link (its `src` router's shard).
    pub fn link_owner(&self, l: LinkId) -> u16 {
        self.link_owner[l.index()]
    }

    /// Unidirectional links whose endpoints live in different shards
    /// (the flits that must cross the [`ShardFabric`]).
    pub fn cut_links(&self) -> usize {
        self.cut_links
    }
}

/// Per-(shard, shard) cross-shard flit queues plus a nonempty-pair index.
///
/// A granted move whose resolved target VC belongs to another shard
/// pushes `(target arena index, packet id)` into the `(from, to)` queue;
/// at the cycle barrier [`ShardFabric::drain_in_order`] visits non-empty
/// pairs in ascending `(from, to)` order (one `u64` of pair bits — hence
/// [`MAX_SHARDS`]) and delivers each queue's flits sorted by dense VC
/// index, making delivery order canonical regardless of which thread
/// produced what.
#[derive(Debug)]
pub struct ShardFabric {
    k: usize,
    queues: Vec<Vec<(u32, u32)>>,
    pair_bits: u64,
}

impl ShardFabric {
    /// Creates an empty fabric for `k` shards.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`MAX_SHARDS`].
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&k),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        ShardFabric {
            k,
            queues: (0..k * k).map(|_| Vec::new()).collect(),
            pair_bits: 0,
        }
    }

    /// Enqueues one flit moving from shard `from` to shard `to`: the
    /// packet `pid` landing in the VC at dense arena index `tidx`.
    pub fn push(&mut self, from: u16, to: u16, tidx: u32, pid: u32) {
        let pair = from as usize * self.k + to as usize;
        self.queues[pair].push((tidx, pid));
        self.pair_bits |= 1 << pair;
    }

    /// Whether any flit is queued.
    pub fn is_empty(&self) -> bool {
        self.pair_bits == 0
    }

    /// Total queued flits.
    pub fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Drains every queue in canonical order — ascending `(from, to)`
    /// pair, flits within a pair sorted by dense VC index — invoking
    /// `f(from, to, tidx, pid)` for each flit. The fabric is empty
    /// afterwards.
    pub fn drain_in_order(&mut self, mut f: impl FnMut(u16, u16, u32, u32)) {
        let mut bits = self.pair_bits;
        self.pair_bits = 0;
        while bits != 0 {
            let pair = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.queues[pair].sort_unstable_by_key(|&(tidx, _)| tidx);
            let (from, to) = ((pair / self.k) as u16, (pair % self.k) as u16);
            for &(tidx, pid) in &self.queues[pair] {
                f(from, to, tidx, pid);
            }
            self.queues[pair].clear();
        }
    }
}

/// One shard's pure plan for a cycle: what its routers would commit.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Per-site samples this plan computed (merged into the core's
    /// `drain_rng_draws_total` counters; summed over shards this equals
    /// the serial kernel's count).
    draws: [u64; NUM_DRAW_SITES],
    /// Ejection outcomes, ascending queue id (queue ids are wholly owned
    /// by one shard, so ids never collide across plans).
    ejects: Vec<EjectOutcome>,
    /// Winning link grants, ascending link id (one per owned requested
    /// link).
    grants: Vec<(u32, LinkRequest)>,
    /// Phase A credit-stall telemetry notes `(router, count)` (collected
    /// only while telemetry is active; counters are additive so the merge
    /// may apply them in any order).
    stalls: Vec<(u32, u64)>,
    /// Wake-scheduler park notes for owned heads whose routing pass
    /// returned `None`, computed against the frozen pre-commit state (the
    /// serial sweep computes parks in Phase A, before any commit; the
    /// merge must therefore apply these before ejects and grants so
    /// commit-time vacates fire against the new deadlines).
    parks: Vec<ParkNote>,
    /// Parked owned heads skipped this cycle (wake accounting).
    skips: u64,
    /// Blocked owned heads that neither routed nor parked (wake
    /// accounting).
    wake_stalls: u64,
    /// Wall nanoseconds this plan took, measured only on phase-profiler
    /// sampled cycles (0 otherwise); credited to the shard at the merge.
    plan_nanos: u64,
}

/// Outcome of one (node, class) ejection queue's arbitration.
#[derive(Clone, Copy, Debug)]
enum EjectOutcome {
    /// The winning head ejects.
    Grant { q: u32, idx: u32, pid: PacketId },
    /// The queue is full; its would-be ejectors are credit-stalled.
    Full { q: u32, router: u32, count: u64 },
}

impl EjectOutcome {
    fn queue(&self) -> u32 {
        match *self {
            EjectOutcome::Grant { q, .. } | EjectOutcome::Full { q, .. } => q,
        }
    }
}

/// Reusable per-thread scratch for [`plan_shard`] (no steady-state
/// allocation, mirroring the serial kernel's reuse discipline).
#[derive(Default)]
pub(crate) struct PlanScratch {
    cands: Vec<Candidate>,
    reqs: Vec<(u32, LinkRequest)>,
    ejects: Vec<(usize, usize, PacketId)>,
    group: Vec<LinkRequest>,
}

/// Plans one shard's allocation phase against the frozen cycle-start
/// state: Phase A routing decisions for owned slots and injection heads,
/// and local Phase B arbitration for owned ejection queues and output
/// links.
pub(crate) fn plan_shard(
    core: &SimCore,
    map: &ShardMap,
    shard: u16,
    scratch: &mut PlanScratch,
) -> ShardPlan {
    let now = core.cycle();
    let telem_on = core.telemetry().active();
    let wake_on = core.config().wake_scheduler;
    // Self-timing for the phase profiler: only on sampled cycles (one
    // bool read through the shared core otherwise), and a pure observer
    // — the measurement never feeds back into the plan.
    let timing = core.prof_active().then(Instant::now);
    let seed = core.config().seed;
    let mut draws = [0u64; NUM_DRAW_SITES];
    scratch.reqs.clear();
    scratch.ejects.clear();
    let mut stalls: Vec<(u32, u64)> = Vec::new();
    let mut parks: Vec<ParkNote> = Vec::new();
    let mut skips = 0u64;
    let mut wake_stalls = 0u64;

    // Phase A sweep: only this shard's occupied slots, via the per-shard
    // occupancy sub-view, ascending — the serial sweep's order restricted
    // to owned slots. Each routed head's sample is the pure
    // `mix(seed, cycle, PhaseA, idx)` the serial sweep computes for the
    // same slot on the same cycle. Parked heads draw nothing.
    let mask = &map.slot_mask[shard as usize];
    for (wi, (&occ_w, &mask_w)) in core.occ_bits.iter().zip(mask).enumerate() {
        let mut w = occ_w & mask_w;
        while w != 0 {
            let idx = wi * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            if core.vc_ready_at[idx] > now {
                continue;
            }
            let here = core.idx_here[idx];
            if core.vc_dest[idx] == here {
                let q = core.qidx(NodeId(here), MessageClass(core.vc_class[idx]));
                scratch.ejects.push((q, idx, PacketId(core.vc_occ[idx])));
                continue;
            }
            if wake_on && core.vc_wake_at[idx] > now {
                skips += 1;
                if telem_on {
                    stalls.push((u32::from(here), 1));
                }
                continue;
            }
            let sample = mix(seed, now, DrawSite::PhaseA, idx as u64);
            draws[DrawSite::PhaseA.index()] += 1;
            let link = LinkId(core.idx_link[idx]);
            let vc = core.idx_vc[idx];
            // The same `phase_a_route_or_park` call the serial sweep
            // makes, with the outcome recorded instead of committed.
            match core.phase_a_route_or_park(idx, link, vc, sample, &mut scratch.cands) {
                PhaseAOutcome::Route(out_link, target, blocked_for) => scratch.reqs.push((
                    out_link.0,
                    LinkRequest {
                        source: MoveSource::Vc(idx),
                        pid: PacketId(core.vc_occ[idx]),
                        target,
                        blocked_for,
                    },
                )),
                outcome => {
                    if telem_on {
                        stalls.push((u32::from(here), 1));
                    }
                    match outcome {
                        PhaseAOutcome::Park(note) => parks.push(note),
                        _ => wake_stalls += 1,
                    }
                }
            }
        }
    }

    // Injection: every owned non-empty queue head in ascending (node,
    // class) order, as in the serial sweep (including its whole-phase
    // `nonempty_inj` gate).
    if core.nonempty_inj > 0 {
        let classes = core.config().num_classes;
        for q in 0..core.inj.len() {
            let Some(&pid) = core.inj[q].front() else {
                continue;
            };
            let node = NodeId((q / classes) as u16);
            if map.shard_of_node[node.index()] != shard {
                continue;
            }
            let sample = mix(seed, now, DrawSite::Injection, q as u64);
            draws[DrawSite::Injection.index()] += 1;
            let class = MessageClass((q % classes) as u8);
            if let Some((out_link, target)) =
                core.injection_route(node, class, sample, &mut scratch.cands)
            {
                scratch.reqs.push((
                    out_link.0,
                    LinkRequest {
                        source: MoveSource::Injection { node, class },
                        pid,
                        target,
                        blocked_for: 0,
                    },
                ));
            }
        }
    }

    // Local Phase B, ejection: all contenders for an owned queue are
    // owned slots, so arbitration is complete here.
    scratch.ejects.sort_unstable_by_key(|&(q, idx, _)| (q, idx));
    let classes = core.config().num_classes;
    let mut ejects: Vec<EjectOutcome> = Vec::new();
    let mut gi = 0;
    while gi < scratch.ejects.len() {
        let q = scratch.ejects[gi].0;
        let mut ge = gi;
        while ge < scratch.ejects.len() && scratch.ejects[ge].0 == q {
            ge += 1;
        }
        let group = &scratch.ejects[gi..ge];
        let node = NodeId((q / classes) as u16);
        let class = MessageClass((q % classes) as u8);
        if core.ejection_has_space(node, class) {
            let (_, idx, pid) = group[core.eject_winner(q, group)];
            ejects.push(EjectOutcome::Grant {
                q: q as u32,
                idx: idx as u32,
                pid,
            });
        } else if telem_on {
            ejects.push(EjectOutcome::Full {
                q: q as u32,
                router: (q / classes) as u32,
                count: group.len() as u64,
            });
        }
        gi = ge;
    }

    // Local Phase B, links: every requester of an owned link is owned,
    // and the sweeps above visited them in the serial sweep's order, so a
    // stable sort by link id reproduces the serial request lists — and
    // therefore the serial winner — exactly.
    scratch.reqs.sort_by_key(|&(li, _)| li);
    let mut grants: Vec<(u32, LinkRequest)> = Vec::new();
    let mut gi = 0;
    while gi < scratch.reqs.len() {
        let li = scratch.reqs[gi].0;
        debug_assert_eq!(map.link_owner[li as usize], shard, "foreign link request");
        scratch.group.clear();
        while gi < scratch.reqs.len() && scratch.reqs[gi].0 == li {
            scratch.group.push(scratch.reqs[gi].1);
            gi += 1;
        }
        let win = core.link_winner(li as usize, &scratch.group);
        grants.push((li, scratch.group[win]));
    }

    ShardPlan {
        draws,
        ejects,
        grants,
        stalls,
        parks,
        skips,
        wake_stalls,
        plan_nanos: timing.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
    }
}

/// Commits the shards' plans against the core in canonical serial order
/// (see the module docs); cross-shard occupations ride `fabric`. Returns
/// the number of flits that crossed a shard boundary this cycle.
fn apply_plans(
    core: &mut SimCore,
    map: &ShardMap,
    plans: Vec<ShardPlan>,
    fabric: &mut ShardFabric,
) -> u64 {
    let mut draws = [0u64; NUM_DRAW_SITES];
    let mut ejects: Vec<EjectOutcome> = Vec::new();
    let mut grants: Vec<(u32, LinkRequest)> = Vec::new();
    let mut stalls: Vec<(u32, u64)> = Vec::new();
    let mut parks: Vec<ParkNote> = Vec::new();
    let mut skips = 0u64;
    let mut wake_stalls = 0u64;
    for (shard, p) in plans.into_iter().enumerate() {
        for (acc, d) in draws.iter_mut().zip(p.draws) {
            *acc += d;
        }
        core.prof_note_shard(shard, p.plan_nanos);
        ejects.extend(p.ejects);
        grants.extend(p.grants);
        stalls.extend(p.stalls);
        parks.extend(p.parks);
        skips += p.skips;
        wake_stalls += p.wake_stalls;
    }
    core.note_rng_draws(draws);

    // Park notes first — the serial kernel parks in Phase A, before any
    // commit, so commit-time vacates below must fire against the new
    // deadlines. Ascending arena index reproduces the serial sweep's
    // subscription-list insertion order exactly (not required for
    // behaviour — fires are commutative — but it keeps internal wake
    // state bit-identical to the serial kernel's, which the deep
    // validator can then compare without caveats).
    parks.sort_unstable_by_key(|n| n.idx);
    for n in parks {
        core.apply_park(n);
    }
    core.note_wake_skips(skips, wake_stalls);

    // Ejection outcomes ascending queue id (ids are unique across plans).
    ejects.sort_unstable_by_key(EjectOutcome::queue);
    for e in ejects {
        match e {
            EjectOutcome::Grant { idx, pid, .. } => core.commit_eject(idx as usize, pid),
            EjectOutcome::Full { router, count, .. } => {
                core.note_credit_stalls(router as usize, count);
            }
        }
    }

    // Link grants ascending link id (one grant per link, ids unique).
    grants.sort_unstable_by_key(|&(li, _)| li);
    let mut fabric_flits = 0u64;
    for (li, req) in &grants {
        let from = map.link_owner[*li as usize];
        let pending =
            core.commit_move_deferring(req, LinkId(*li), |tidx| map.slot_owner[tidx] != from);
        if let Some(p) = pending {
            fabric.push(from, map.slot_owner[p.tidx as usize], p.tidx, p.pid.0);
            fabric_flits += 1;
        }
    }
    core.prof_mark(Phase::PhaseB);

    // Cross-shard deliveries in canonical (from, to, dense index) order.
    fabric.drain_in_order(|_, _, tidx, pid| {
        core.apply_remote_occupy(PendingOccupy {
            tidx,
            pid: PacketId(pid),
        });
    });
    core.prof_mark(Phase::Fabric);

    // Phase A credit-stall notes (additive counters; order immaterial).
    for (router, n) in stalls {
        core.note_credit_stalls(router as usize, n);
    }
    core.prof_mark(Phase::PhaseB);
    fabric_flits
}

/// The sharded kernel's per-`Sim` runtime: ownership tables, the
/// cross-shard fabric and the persistent worker pool.
pub(crate) struct ShardRuntime {
    map: ShardMap,
    fabric: ShardFabric,
    pool: pool::Pool,
    scratch0: PlanScratch,
    /// Flits that crossed a shard boundary through the fabric so far.
    fabric_flits: u64,
    /// Cycles allocated by the sharded kernel (every `Normal` cycle
    /// since the runtime was built).
    sharded_cycles: u64,
}

impl ShardRuntime {
    /// Builds the runtime for the core's configured shard count (spawns
    /// `shards - 1` worker threads; shard 0 is planned on the caller's
    /// thread).
    pub(crate) fn new(core: &SimCore) -> Self {
        let k = core.config().shards;
        let map = ShardMap::new(core.topology(), k, core.config().total_vcs());
        ShardRuntime {
            map,
            fabric: ShardFabric::new(k),
            pool: pool::Pool::new(k),
            scratch0: PlanScratch::default(),
            fabric_flits: 0,
            sharded_cycles: 0,
        }
    }

    /// Runs one sharded allocation cycle: parallel planning, then the
    /// canonical serial merge. Bit-identical to
    /// `SimCore::allocate_and_move`.
    pub(crate) fn allocate(&mut self, core: &mut SimCore) {
        let plans = self.pool.plan_cycle(core, &self.map, &mut self.scratch0);
        core.prof_mark(Phase::PhaseA);
        self.fabric_flits += apply_plans(core, &self.map, plans, &mut self.fabric);
        self.sharded_cycles += 1;
        debug_assert!(self.fabric.is_empty(), "fabric drained at the barrier");
    }

    /// Flits that crossed a shard boundary through the fabric so far.
    pub(crate) fn fabric_flits(&self) -> u64 {
        self.fabric_flits
    }

    /// Cycles allocated by the sharded kernel so far.
    pub(crate) fn sharded_cycles(&self) -> u64 {
        self.sharded_cycles
    }
}

/// The persistent worker pool. This is the only place in the crate that
/// needs `unsafe`: lifetime-erased pointers hand the frozen cycle state
/// to long-lived worker threads (a scoped-thread-per-cycle design costs
/// more than a whole serial cycle in spawn overhead).
#[allow(unsafe_code)]
mod pool {
    use super::{plan_shard, PlanScratch, ShardMap, ShardPlan};
    use crate::state::SimCore;
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::JoinHandle;

    // The whole design rests on planning being a read-only, data-race-free
    // view of the core; make the compiler re-check that claim.
    const _: () = {
        const fn assert_sync<T: Sync>() {}
        assert_sync::<SimCore>();
        assert_sync::<ShardMap>();
    };

    /// One planning epoch's inputs, lifetime-erased.
    ///
    /// SAFETY invariant: the pointees outlive the epoch —
    /// [`Pool::plan_cycle`] does not return until every worker has
    /// deposited its plan, and workers never touch a `Job` outside the
    /// epoch that published it. Workers form only shared references
    /// (`SimCore: Sync`, asserted above).
    #[derive(Clone, Copy)]
    struct Job {
        core: *const SimCore,
        map: *const ShardMap,
    }

    // SAFETY: see `Job` — the pointers are used strictly as shared
    // borrows bracketed by the dispatching call.
    unsafe impl Send for Job {}

    struct State {
        epoch: u64,
        job: Option<Job>,
        plans: Vec<Option<ShardPlan>>,
        done_count: usize,
        shutdown: bool,
    }

    struct Shared {
        state: Mutex<State>,
        work: Condvar,
        done: Condvar,
    }

    pub(super) struct Pool {
        shared: Arc<Shared>,
        handles: Vec<JoinHandle<()>>,
    }

    impl Pool {
        /// Spawns `k - 1` workers, for shards `1..k`.
        pub(super) fn new(k: usize) -> Pool {
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    plans: (1..k).map(|_| None).collect(),
                    done_count: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            });
            let handles = (1..k)
                .map(|s| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("drain-shard-{s}"))
                        .spawn(move || worker(&shared, s as u16))
                        .expect("spawn shard worker")
                })
                .collect();
            Pool { shared, handles }
        }

        /// Runs one planning epoch: workers plan shards `1..k` while this
        /// thread plans shard 0; returns all plans ordered by shard id.
        pub(super) fn plan_cycle(
            &self,
            core: &SimCore,
            map: &ShardMap,
            scratch0: &mut PlanScratch,
        ) -> Vec<ShardPlan> {
            {
                let mut st = self.shared.state.lock().expect("pool lock");
                st.job = Some(Job { core, map });
                st.epoch += 1;
                st.done_count = 0;
                self.shared.work.notify_all();
            }
            let plan0 = plan_shard(core, map, 0, scratch0);
            let mut st = self.shared.state.lock().expect("pool lock");
            while st.done_count < st.plans.len() {
                st = self.shared.done.wait(st).expect("pool lock");
            }
            st.job = None;
            let mut plans = Vec::with_capacity(st.plans.len() + 1);
            plans.push(plan0);
            plans.extend(st.plans.iter_mut().map(|p| p.take().expect("worker plan")));
            plans
        }
    }

    impl Drop for Pool {
        fn drop(&mut self) {
            {
                let mut st = self.shared.state.lock().expect("pool lock");
                st.shutdown = true;
                self.shared.work.notify_all();
            }
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }

    fn worker(shared: &Shared, shard: u16) {
        let mut scratch = PlanScratch::default();
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().expect("pool lock");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch > seen {
                        seen = st.epoch;
                        break st.job.expect("job published with epoch");
                    }
                    st = shared.work.wait(st).expect("pool lock");
                }
            };
            // SAFETY: `plan_cycle` keeps the pointees alive and unmutated
            // until this worker deposits its plan below (the `Job`
            // invariant); only shared references are formed.
            let (core, map) = unsafe { (&*job.core, &*job.map) };
            let plan = plan_shard(core, map, shard, &mut scratch);
            let mut st = shared.state.lock().expect("pool lock");
            st.plans[shard as usize - 1] = Some(plan);
            st.done_count += 1;
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::Topology;

    #[test]
    fn map_assigns_every_slot_and_link() {
        let topo = Topology::mesh(4, 4);
        let map = ShardMap::new(&topo, 4, 6);
        let m = topo.num_unidirectional_links();
        for li in 0..m {
            let l = LinkId(li as u32);
            assert_eq!(map.link_owner(l), map.shard_of_node(topo.link(l).src));
            for s in 0..6 {
                assert_eq!(
                    map.slot_owner(li * 6 + s),
                    map.shard_of_node(topo.link(l).dst)
                );
            }
        }
    }

    /// The per-shard occupancy-word masks partition the slot space
    /// exactly: pairwise disjoint, jointly complete, and each bit agrees
    /// with `slot_owner`. The planners sweep
    /// `occ_bits[wi] & slot_mask[shard][wi]`, so a stray or missing bit
    /// would silently double- or un-route a head.
    #[test]
    fn slot_masks_partition_the_slot_space() {
        for (w, h, k, vcs) in [(4u16, 4u16, 4usize, 6usize), (5, 3, 3, 4), (6, 6, 8, 2), (2, 2, 1, 3)] {
            let topo = Topology::mesh(w, h);
            let map = ShardMap::new(&topo, k, vcs);
            let slots = topo.num_unidirectional_links() * vcs;
            let words = slots.div_ceil(64);
            assert_eq!(map.slot_mask.len(), k);
            for wi in 0..words {
                let mut union = 0u64;
                for shard in 0..k {
                    let m = map.slot_mask[shard][wi];
                    assert_eq!(union & m, 0, "overlapping masks at word {wi} ({w}x{h} k={k})");
                    union |= m;
                }
                let tail = slots - wi * 64;
                let full = if tail >= 64 { u64::MAX } else { (1u64 << tail) - 1 };
                assert_eq!(union, full, "incomplete masks at word {wi} ({w}x{h} k={k})");
            }
            for idx in 0..slots {
                let owner = map.slot_owner(idx) as usize;
                assert_eq!(map.slot_mask[owner][idx / 64] >> (idx % 64) & 1, 1);
            }
        }
    }

    #[test]
    fn fabric_orders_pairs_and_indices() {
        let mut fab = ShardFabric::new(4);
        fab.push(3, 0, 7, 100);
        fab.push(0, 2, 9, 101);
        fab.push(0, 2, 4, 102);
        fab.push(1, 3, 1, 103);
        assert_eq!(fab.len(), 4);
        let mut seen = Vec::new();
        fab.drain_in_order(|from, to, tidx, pid| seen.push((from, to, tidx, pid)));
        assert_eq!(
            seen,
            vec![(0, 2, 4, 102), (0, 2, 9, 101), (1, 3, 1, 103), (3, 0, 7, 100)]
        );
        assert!(fab.is_empty());
        assert_eq!(fab.len(), 0);
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn fabric_rejects_too_many_shards() {
        ShardFabric::new(9);
    }
}
