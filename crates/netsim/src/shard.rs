//! Sharded allocation: parallel Phase A in front of the serial Phase B.
//!
//! With [`crate::SimConfig::shards`] `> 1` the routers of the topology are
//! partitioned into `K` shards ([`drain_topology::partition::Partition`],
//! balanced BFS blocks) and each `Normal` cycle's Phase A runs as `K`
//! calls of the serial kernel's own sweep (`SimCore::phase_a_sweep`) —
//! one worker thread per shard, all reading the same frozen `&SimCore`,
//! each restricted to the slots and nodes its shard owns and recording
//! into its own plan buffer. At the cycle barrier the plans are *filed*,
//! shard after shard, into the allocation scratch the serial sweep would
//! have filled directly, and the serial kernel's
//! `SimCore::finish_allocation` does the rest. There is no second
//! sweep, arbiter or commit path: results are bit-identical to the serial
//! kernel at every shard count — same `Stats`, same cycle counts,
//! byte-identical trace streams.
//!
//! # Ownership
//!
//! * A VC buffer sits at the input port of its link's `dst` router; the
//!   slot belongs to that router's shard ([`ShardMap`]'s slot masks).
//! * Injection queues belong to their node's shard.
//!
//! Nothing else is owned: Phase B runs on one thread over global state.
//!
//! # Why filing reproduces the serial scratch
//!
//! * Every tie-break draw is the pure function `mix(seed, cycle, site,
//!   id)` (see [`crate::rng`]): the sample a head receives depends only on
//!   its identity and the cycle, never on who visits it.
//! * Every requester of an output link — the VC heads at its `src`
//!   router's input ports and `src`'s injection queues — lives in one
//!   shard, and a planner visits its slots, then its queues, in ascending
//!   order like the serial sweep. So each link's request list arrives from
//!   a single plan, already in serial order, and the arbitration winner
//!   (which depends on list order) is the serial one.
//! * Ejection requests and park notes are sorted by
//!   `SimCore::finish_allocation` itself; counters and credit-stall
//!   notes are additive.
//!
//! Mechanism control (drain/spin/freeze decisions), endpoint models and
//! instrumentation all run serially *at* the cycle barrier on global
//! state — that barrier is the cross-shard coordination point for drain
//! epochs, so `Forced` and `Freeze` cycles bypass the sharded path
//! entirely and need no distributed protocol.

use std::time::Instant;

use drain_topology::{partition::Partition, LinkId, NodeId, Topology};

use crate::packet::PacketId;
use crate::routing::Candidate;
use crate::state::{LinkRequest, PhaseASink, PhaseATally, SimCore};
use crate::wake::ParkNote;

/// Maximum shard count (the phase profiler keeps this many per-shard
/// accumulators).
pub const MAX_SHARDS: usize = 8;

/// Static ownership tables for one (topology, shard count) pairing:
/// which shard owns each router and each link-major VC slot, and which
/// links cross a shard boundary.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shard_of_node: Vec<u16>,
    /// Per shard: a bitmap over the occupancy words with exactly this
    /// shard's owned slots set — the `slots` argument of its Phase A
    /// sweep, which skips foreign slots wholesale instead of filtering
    /// them bit by bit.
    slot_mask: Vec<Vec<u64>>,
    /// Bitmap over link ids: set iff the link's endpoints live in
    /// different shards.
    cut_bits: Vec<u64>,
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
        let mut slot_mask = vec![vec![0u64; (m * vcs_per_port).div_ceil(64)]; k];
        let mut cut_bits = vec![0u64; m.div_ceil(64)];
        for li in 0..m {
            let link = topo.link(LinkId(li as u32));
            let owner = shard_of_node[link.dst.index()];
            for idx in li * vcs_per_port..(li + 1) * vcs_per_port {
                slot_mask[owner as usize][idx / 64] |= 1 << (idx % 64);
            }
            if shard_of_node[link.src.index()] != owner {
                cut_bits[li / 64] |= 1 << (li % 64);
            }
        }
        ShardMap {
            shard_of_node,
            slot_mask,
            cut_bits,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slot_mask.len()
    }

    /// Shard owning a router.
    pub fn shard_of_node(&self, n: NodeId) -> u16 {
        self.shard_of_node[n.index()]
    }

    /// Whether `l`'s endpoints live in different shards.
    pub fn is_cut(&self, l: LinkId) -> bool {
        self.cut_bits[l.index() / 64] >> (l.index() % 64) & 1 == 1
    }

    /// Unidirectional links whose endpoints live in different shards.
    pub fn cut_links(&self) -> usize {
        self.cut_bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One shard's plan buffer: its Phase A decisions for a cycle in sweep
/// order (it is the recording [`PhaseASink`]), what the sweep counted, and
/// the sweep's routing scratch. Reused across cycles —
/// [`ShardPlan::file_into`] empties it and keeps the capacity.
#[derive(Default)]
struct ShardPlan {
    ejects: Vec<(usize, usize, PacketId)>,
    requests: Vec<(LinkId, LinkRequest)>,
    parks: Vec<ParkNote>,
    stalls: Vec<usize>,
    tally: PhaseATally,
    cands: Vec<Candidate>,
    /// Wall nanoseconds the sweep took, measured only on phase-profiler
    /// sampled cycles (0 otherwise).
    plan_nanos: u64,
}

impl PhaseASink for ShardPlan {
    fn eject(&mut self, q: usize, idx: usize, pid: PacketId) {
        self.ejects.push((q, idx, pid));
    }

    fn request(&mut self, link: LinkId, req: LinkRequest) {
        self.requests.push((link, req));
    }

    fn park(&mut self, note: ParkNote) {
        self.parks.push(note);
    }

    fn credit_stall(&mut self, router: usize) {
        self.stalls.push(router);
    }
}

impl ShardPlan {
    /// Replays every recorded decision into `sink`, each kind in recorded
    /// order, leaving the record empty.
    fn file_into(&mut self, sink: &mut impl PhaseASink) {
        for (q, idx, pid) in self.ejects.drain(..) {
            sink.eject(q, idx, pid);
        }
        for (link, req) in self.requests.drain(..) {
            sink.request(link, req);
        }
        for note in self.parks.drain(..) {
            sink.park(note);
        }
        for router in self.stalls.drain(..) {
            sink.credit_stall(router);
        }
    }
}

/// Plans one shard's Phase A against the frozen cycle-start state: the
/// serial sweep over the shard's slot mask and nodes, recording.
fn plan_shard(core: &SimCore, map: &ShardMap, shard: u16, plan: &mut ShardPlan) {
    // Self-timing for the phase profiler: only on sampled cycles (one
    // bool read through the shared core otherwise), and a pure observer
    // — the measurement never feeds back into the plan.
    let timing = core.prof_active().then(Instant::now);
    let mut cands = std::mem::take(&mut plan.cands);
    let owns_node = |n: NodeId| map.shard_of_node[n.index()] == shard;
    plan.tally = core.phase_a_sweep(
        Some(&map.slot_mask[shard as usize]),
        owns_node,
        &mut cands,
        plan,
    );
    plan.cands = cands;
    plan.plan_nanos = timing.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
}

/// The sharded kernel's per-`Sim` runtime: ownership tables and the
/// persistent worker pool with its plan buffers.
pub(crate) struct ShardRuntime {
    map: ShardMap,
    pool: pool::Pool,
    /// Grants on cut links so far: moves whose packet changed shard.
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
        ShardRuntime {
            map: ShardMap::new(core.topology(), k, core.config().total_vcs()),
            pool: pool::Pool::new(k),
            fabric_flits: 0,
            sharded_cycles: 0,
        }
    }

    /// Runs one sharded allocation cycle: parallel planning, then file
    /// and finish on this thread. Bit-identical to
    /// `SimCore::allocate_and_move`.
    pub(crate) fn allocate(&mut self, core: &mut SimCore) {
        self.pool.plan_cycle(core, &self.map);
        let mut scratch = core.take_alloc_scratch();
        let mut tally = PhaseATally::default();
        self.pool.each_plan(|shard, plan| {
            core.prof_note_shard(shard, plan.plan_nanos);
            tally += plan.tally;
            plan.file_into(&mut *scratch);
        });
        // Every requested link is granted exactly once by Phase B, so
        // the requested cut links are this cycle's cross-shard moves.
        self.fabric_flits += scratch.requests_on(&self.map.cut_bits);
        core.finish_allocation(scratch, tally);
        self.sharded_cycles += 1;
    }

    /// Grants on cut links so far (`drain_shard_fabric_flits_total`).
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
    use super::{plan_shard, ShardMap, ShardPlan};
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
    /// reported its plan done, and workers never touch a `Job` outside
    /// the epoch that published it. Workers form only shared references
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
        done_count: usize,
        shutdown: bool,
    }

    struct Shared {
        state: Mutex<State>,
        work: Condvar,
        done: Condvar,
        /// One plan buffer per shard, living here for the pool's lifetime
        /// so nothing is allocated or moved per cycle. A shard's planner
        /// holds its buffer's lock while it sweeps; the dispatching
        /// thread locks it only after the barrier, so these locks are
        /// never contended.
        plans: Vec<Mutex<ShardPlan>>,
    }

    impl Shared {
        /// Plans `shard` into its buffer on the calling thread.
        fn plan(&self, core: &SimCore, map: &ShardMap, shard: usize) {
            let mut plan = self.plans[shard].lock().expect("plan lock");
            plan_shard(core, map, shard as u16, &mut plan);
        }
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
                    done_count: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                plans: (0..k).map(|_| Mutex::default()).collect(),
            });
            let handles = (1..k)
                .map(|s| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("drain-shard-{s}"))
                        .spawn(move || worker(&shared, s))
                        .expect("spawn shard worker")
                })
                .collect();
            Pool { shared, handles }
        }

        /// Runs one planning epoch: workers plan shards `1..k` while this
        /// thread plans shard 0; returns once every plan buffer is
        /// filled.
        pub(super) fn plan_cycle(&self, core: &SimCore, map: &ShardMap) {
            {
                let mut st = self.shared.state.lock().expect("pool lock");
                st.job = Some(Job { core, map });
                st.epoch += 1;
                st.done_count = 0;
                self.shared.work.notify_all();
            }
            self.shared.plan(core, map, 0);
            let mut st = self.shared.state.lock().expect("pool lock");
            while st.done_count < self.handles.len() {
                st = self.shared.done.wait(st).expect("pool lock");
            }
            st.job = None;
        }

        /// Visits the plan buffers in ascending shard order (between
        /// epochs: every planner is idle).
        pub(super) fn each_plan(&self, mut f: impl FnMut(usize, &mut ShardPlan)) {
            for (shard, plan) in self.shared.plans.iter().enumerate() {
                f(shard, &mut plan.lock().expect("plan lock"));
            }
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

    fn worker(shared: &Shared, shard: usize) {
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
            // until this worker reports done below (the `Job` invariant);
            // only shared references are formed.
            let (core, map) = unsafe { (&*job.core, &*job.map) };
            shared.plan(core, map, shard);
            let mut st = shared.state.lock().expect("pool lock");
            st.done_count += 1;
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::Topology;

    /// The per-shard occupancy-word masks partition the slot space
    /// exactly: pairwise disjoint, jointly complete, and each slot sits
    /// in the mask of its link's `dst` router's shard. Each planner sweeps
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
                let dst = topo.link(LinkId((idx / vcs) as u32)).dst;
                let owner = map.shard_of_node(dst) as usize;
                assert_eq!(map.slot_mask[owner][idx / 64] >> (idx % 64) & 1, 1);
            }
        }
    }
}
