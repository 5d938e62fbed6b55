//! The coherence engine: protocol FSMs wired into the simulator as an
//! endpoint model.

use std::collections::VecDeque;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use drain_netsim::config::{CTRL_PACKET_FLITS, DATA_PACKET_FLITS};
use drain_netsim::traffic::Endpoints;
use drain_netsim::{MessageClass, SimCore};
use drain_topology::NodeId;

use crate::msg::{Addr, CohMsg, MsgType};
use crate::node::{DirCommit, DirState, LineState, MissKind, Mshr, NodeState, Tbe};
use crate::trace::MemoryTrace;

/// Outstanding transactions per core (paper §III-A: finite MSHRs and
/// queues bound in-flight packets per class).
const MSHRS_PER_CORE: usize = 16;
/// Blocking directory transactions per home node.
const TBES_PER_DIR: usize = 16;
/// Messages consumed per class per node per cycle.
const CONSUME_PER_CLASS: usize = 1;
/// Core issue width (memory ops attempted per cycle).
const ISSUE_WIDTH: usize = 1;

/// Per-run engine parameters (the protocol's resource bounds above are
/// fixed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// L1 capacity in lines.
    pub l1_capacity: usize,
    /// RNG seed (evictions).
    pub seed: u64,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            l1_capacity: 256,
            seed: 0xC0FE,
        }
    }
}

/// Aggregate protocol statistics.
#[derive(Clone, Debug, Default)]
pub struct CoherenceStats {
    /// Memory operations issued (hits + misses).
    pub issued: u64,
    /// Miss transactions completed (loads + stores).
    pub completed: u64,
    /// L1 hits.
    pub hits: u64,
    /// Writebacks performed.
    pub writebacks: u64,
    /// Forward messages answered from a racing writeback MSHR.
    pub protocol_races: u64,
    /// Cycles a request-queue head spent stalled on resources.
    pub request_stall_cycles: u64,
    /// Sum of completed-transaction latencies.
    pub latency_sum: u64,
}

/// The MESI-lite engine (see crate docs for the protocol tables).
pub struct CoherenceEngine {
    config: CoherenceConfig,
    /// When set, every protocol event touching this address is recorded
    /// (diagnostics).
    pub watch_addr: Option<Addr>,
    /// Event log for the watched address.
    pub watch_log: Vec<String>,
    nodes: Vec<NodeState>,
    trace: Box<dyn MemoryTrace>,
    rng: ChaCha8Rng,
    /// Same-node messages delivered without touching the network.
    local: VecDeque<(NodeId, CohMsg)>,
    stats: CoherenceStats,
    num_nodes: usize,
    checked_capacity: bool,
}

impl CoherenceEngine {
    /// Builds the engine for every node of `topo`.
    pub fn new(
        topo: &drain_topology::Topology,
        config: CoherenceConfig,
        trace: Box<dyn MemoryTrace>,
    ) -> Self {
        let n = topo.num_nodes();
        CoherenceEngine {
            watch_addr: None,
            watch_log: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            nodes: (0..n).map(|_| NodeState::default()).collect(),
            config,
            trace,
            local: VecDeque::new(),
            stats: CoherenceStats::default(),
            num_nodes: n,
            checked_capacity: false,
        }
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Completed miss transactions per core (runtime metric for the
    /// closed-loop application studies).
    pub fn completed_per_core(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.completed).collect()
    }

    /// The home (directory slice) of an address.
    pub fn home(&self, addr: Addr) -> NodeId {
        NodeId((addr as usize % self.num_nodes) as u16)
    }

    /// The stable L1 state of `addr` at `node`, if cached.
    pub fn line_state(&self, node: NodeId, addr: Addr) -> Option<LineState> {
        self.nodes[node.index()].lines.get(&addr).copied()
    }

    /// The directory state of `addr` at its home (I if never touched).
    pub fn dir_state(&self, addr: Addr) -> DirState {
        let home = self.home(addr);
        self.nodes[home.index()]
            .dir
            .get(&addr)
            .map(|e| e.state)
            .unwrap_or(DirState::I)
    }

    /// Outstanding transactions (MSHRs in use) at `node`.
    pub fn outstanding(&self, node: NodeId) -> usize {
        self.nodes[node.index()].mshrs.len()
    }

    /// Diagnostic dump of all in-flight protocol state (MSHRs, TBEs,
    /// deferred local messages).
    pub fn dump_inflight(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, ns) in self.nodes.iter().enumerate() {
            for (addr, m) in &ns.mshrs {
                let _ = writeln!(
                    s,
                    "n{i} mshr addr={addr} kind={:?} have_data={} acks={} fwd_handled={}",
                    m.kind, m.have_data, m.acks_needed, m.fwd_handled
                );
            }
            for (addr, tbe) in &ns.tbes {
                let _ = writeln!(
                    s,
                    "n{i} tbe addr={addr} req={:?} commit={:?}",
                    tbe.requester, tbe.commit
                );
            }
        }
        for (node, msg) in &self.local {
            let _ = writeln!(s, "local@{node:?}: {:?} addr={} req={:?} acks={}", msg.mtype, msg.addr, msg.requester, msg.ack_count);
        }
        s
    }

    /// Verifies the single-writer invariant: at most one core holds a line
    /// in an owning, writable state (E/M) for any address.
    ///
    /// # Panics
    ///
    /// Panics when the invariant is violated.
    pub fn check_single_writer(&self) {
        use std::collections::HashMap;
        let mut owner: HashMap<Addr, NodeId> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (&addr, &st) in &node.lines {
                if st.writable() {
                    if let Some(prev) = owner.insert(addr, NodeId(i as u16)) {
                        panic!(
                            "single-owner violated for addr {addr}: nodes {prev:?} and n{i} both own it"
                        );
                    }
                }
            }
        }
    }

    /// Whether every core reached its quota and the system is quiescent.
    fn quota_reached(&self, core_state: &SimCore) -> bool {
        let Some(q) = self.trace.quota() else {
            return false;
        };
        self.nodes.iter().all(|n| n.completed + n.hits >= q)
            && self.nodes.iter().all(|n| n.mshrs.is_empty())
            && core_state.live_packets() == 0
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    fn watch(&mut self, cycle: u64, what: String) {
        self.watch_log.push(format!("c{cycle}: {what}"));
    }

    fn send(&mut self, core: &mut SimCore, from: NodeId, to: NodeId, msg: CohMsg) {
        if self.watch_addr == Some(msg.addr) {
            self.watch(core.cycle(), format!("send {:?} {from:?}->{to:?} acks={}", msg.mtype, msg.ack_count));
        }
        if from == to {
            self.local.push_back((to, msg));
            return;
        }
        let len = if msg.mtype.carries_data() {
            DATA_PACKET_FLITS
        } else {
            CTRL_PACKET_FLITS
        };
        let ok = core.try_enqueue_packet(from, to, msg.mtype.class(), len, msg.pack());
        debug_assert!(
            ok.is_some(),
            "injection space was pre-checked for {:?}",
            msg.mtype
        );
    }

    /// Remote recipients among `targets` (local ones bypass queue-space
    /// accounting).
    fn remote_count(node: NodeId, targets: impl Iterator<Item = NodeId>) -> usize {
        targets.filter(|&t| t != node).count()
    }

    // ------------------------------------------------------------------
    // Handlers
    // ------------------------------------------------------------------

    fn handle_response(&mut self, core: &mut SimCore, node: NodeId, msg: CohMsg) {
        let now = core.cycle();
        if self.watch_addr == Some(msg.addr) {
            self.watch(now, format!("resp {:?} at {node:?} acks={}", msg.mtype, msg.ack_count));
        }
        // Set when the node's outstanding transaction finishes: the home
        // is notified so the blocking directory can commit and unblock.
        let mut completed = false;
        match msg.mtype {
            MsgType::Data | MsgType::DataE => {
                let ns = &mut self.nodes[node.index()];
                let Some(mshr) = ns.mshrs.get_mut(&msg.addr) else {
                    return; // stale (e.g. duplicate after a race); drop
                };
                match mshr.kind {
                    MissKind::Load => {
                        let state = if msg.mtype == MsgType::DataE {
                            LineState::E
                        } else {
                            LineState::S
                        };
                        ns.lines.insert(msg.addr, state);
                        Self::complete_mshr(ns, &mut self.stats, msg.addr, now);
                        completed = true;
                    }
                    MissKind::Store => {
                        mshr.have_data = true;
                        mshr.acks_needed += msg.ack_count as i32;
                        if mshr.acks_needed == 0 {
                            ns.lines.insert(msg.addr, LineState::M);
                            Self::complete_mshr(ns, &mut self.stats, msg.addr, now);
                            completed = true;
                        }
                    }
                    MissKind::Writeback => {}
                }
            }
            MsgType::InvAck => {
                let ns = &mut self.nodes[node.index()];
                let Some(mshr) = ns.mshrs.get_mut(&msg.addr) else {
                    return;
                };
                if mshr.kind == MissKind::Store {
                    mshr.acks_needed -= 1;
                    if mshr.have_data && mshr.acks_needed == 0 {
                        ns.lines.insert(msg.addr, LineState::M);
                        Self::complete_mshr(ns, &mut self.stats, msg.addr, now);
                        completed = true;
                    }
                }
            }
            MsgType::WBAck => {
                let ns = &mut self.nodes[node.index()];
                if matches!(
                    ns.mshrs.get(&msg.addr).map(|m| m.kind),
                    Some(MissKind::Writeback)
                ) {
                    ns.mshrs.remove(&msg.addr);
                    self.stats.writebacks += 1;
                }
            }
            MsgType::AckToHome => {
                // The old owner's data writeback reaching the home;
                // the directory commit itself happens at Unblock.
            }
            MsgType::Unblock => {
                // The requester finished: commit the new stable state and
                // unblock the address.
                let ns = &mut self.nodes[node.index()];
                if let Some(tbe) = ns.tbes.remove(&msg.addr) {
                    let entry = ns.dir.entry(msg.addr).or_default();
                    match tbe.commit {
                        DirCommit::ExclusiveTo(n) => {
                            entry.state = DirState::EM(n);
                            entry.sharers = 0;
                        }
                        DirCommit::AddSharer(n) => {
                            entry.state = DirState::S;
                            entry.sharers |= 1u64 << n.index();
                        }
                        DirCommit::TransferRead { old, new } => {
                            entry.state = DirState::S;
                            entry.sharers |= (1u64 << old.index()) | (1u64 << new.index());
                        }
                    }
                }
            }
            _ => unreachable!("non-response message in response handler"),
        }
        if completed {
            // The unblock bypasses the bounded injection queue: its
            // population is bounded by the MSHR count, and it must never
            // make the sink class unconsumable (paper §III-A).
            let home = self.home(msg.addr);
            let unblock = CohMsg::new(MsgType::Unblock, msg.addr, node);
            if node == home {
                self.local.push_back((node, unblock));
            } else {
                core.force_enqueue_packet(
                    node,
                    home,
                    MessageClass::RESPONSE,
                    CTRL_PACKET_FLITS,
                    unblock.pack(),
                );
            }
        }
    }

    fn complete_mshr(ns: &mut NodeState, stats: &mut CoherenceStats, addr: Addr, now: u64) {
        if let Some(m) = ns.mshrs.remove(&addr) {
            ns.completed += 1;
            let lat = now.saturating_sub(m.started_at);
            ns.latency_sum += lat;
            stats.completed += 1;
            stats.latency_sum += lat;
        }
    }

    /// Responses a forward consumer must inject remotely (for queue-space
    /// pre-checks).
    fn forward_response_need(&self, node: NodeId, msg: &CohMsg) -> usize {
        match msg.mtype {
            MsgType::Inv => usize::from(msg.requester != node),
            MsgType::FwdGetS | MsgType::FwdGetM => {
                let home = self.home(msg.addr);
                usize::from(msg.requester != node) + usize::from(home != node)
            }
            _ => 0,
        }
    }

    fn handle_forward(&mut self, core: &mut SimCore, node: NodeId, msg: CohMsg) {
        if self.watch_addr == Some(msg.addr) {
            let line = self.nodes[node.index()].lines.get(&msg.addr).copied();
            self.watch(core.cycle(), format!("fwd {:?} at {node:?} line={line:?}", msg.mtype));
        }
        match msg.mtype {
            MsgType::Inv => {
                let ns = &mut self.nodes[node.index()];
                ns.lines.remove(&msg.addr);
                self.send(
                    core,
                    node,
                    msg.requester,
                    CohMsg::new(MsgType::InvAck, msg.addr, msg.requester),
                );
            }
            MsgType::FwdGetS | MsgType::FwdGetM => {
                let for_read = msg.mtype == MsgType::FwdGetS;
                let home = self.home(msg.addr);
                let ns = &mut self.nodes[node.index()];
                if ns.lines.remove(&msg.addr).is_none() {
                    // PutM race: answer from the writeback MSHR.
                    if let Some(m) = ns.mshrs.get_mut(&msg.addr) {
                        m.fwd_handled = true;
                    }
                    self.stats.protocol_races += 1;
                } else if for_read {
                    // Downgrade to S (data goes back to the home).
                    ns.lines.insert(msg.addr, LineState::S);
                }
                self.send(
                    core,
                    node,
                    msg.requester,
                    CohMsg::new(MsgType::Data, msg.addr, msg.requester),
                );
                self.send(
                    core,
                    node,
                    home,
                    CohMsg::new(MsgType::AckToHome, msg.addr, msg.requester),
                );
            }
            _ => unreachable!("non-forward message in forward handler"),
        }
    }

    /// Resources a request consumer needs: `(tbe, remote_forwards,
    /// remote_responses)`, or `None` when the address is busy. Every
    /// GetS/GetM blocks the address (full blocking directory, gem5-MESI
    /// style: the TBE clears when the requester's Unblock arrives).
    fn request_need(&self, node: NodeId, msg: &CohMsg) -> Option<(bool, usize, usize)> {
        let ns = &self.nodes[node.index()];
        if ns.tbes.contains_key(&msg.addr) {
            return None; // blocking directory: address busy
        }
        let entry = ns.dir.get(&msg.addr);
        let state = entry.map(|e| e.state).unwrap_or(DirState::I);
        let remote_inv = entry
            .map(|e| Self::remote_count(node, e.sharers_excluding(msg.requester)))
            .unwrap_or(0);
        Some(match msg.mtype {
            MsgType::GetS => match state {
                DirState::I | DirState::S => (true, 0, usize::from(msg.requester != node)),
                DirState::EM(o) => (true, usize::from(o != node), 0),
            },
            MsgType::GetM => match state {
                DirState::I => (true, 0, usize::from(msg.requester != node)),
                DirState::S => (true, remote_inv, usize::from(msg.requester != node)),
                DirState::EM(o) => (true, usize::from(o != node), 0),
            },
            MsgType::PutM => (false, 0, usize::from(msg.requester != node)),
            _ => unreachable!("non-request message in request handler"),
        })
    }

    fn handle_request(&mut self, core: &mut SimCore, node: NodeId, msg: CohMsg) {
        if self.watch_addr == Some(msg.addr) {
            let st = self.nodes[node.index()].dir.get(&msg.addr).map(|e| (e.state, e.sharers));
            self.watch(core.cycle(), format!("req {:?} from {:?} at home {node:?} dir={st:?}", msg.mtype, msg.requester));
        }
        let req = msg.requester;
        let state = {
            let ns = &self.nodes[node.index()];
            ns.dir.get(&msg.addr).map(|e| e.state).unwrap_or(DirState::I)
        };
        let sharers: Vec<NodeId> = {
            let ns = &self.nodes[node.index()];
            ns.dir
                .get(&msg.addr)
                .map(|e| e.sharers_excluding(req).collect())
                .unwrap_or_default()
        };
        let block = |this: &mut Self, commit: DirCommit| {
            this.nodes[node.index()]
                .tbes
                .insert(msg.addr, Tbe { requester: req, commit });
        };
        match (msg.mtype, state) {
            (MsgType::GetS, DirState::I) => {
                block(self, DirCommit::ExclusiveTo(req));
                self.send(core, node, req, CohMsg::new(MsgType::DataE, msg.addr, req));
            }
            (MsgType::GetS, DirState::S) => {
                block(self, DirCommit::AddSharer(req));
                self.send(core, node, req, CohMsg::new(MsgType::Data, msg.addr, req));
            }
            (MsgType::GetS, DirState::EM(o)) => {
                block(self, DirCommit::TransferRead { old: o, new: req });
                self.send(core, node, o, CohMsg::new(MsgType::FwdGetS, msg.addr, req));
            }
            (MsgType::GetM, DirState::I) => {
                block(self, DirCommit::ExclusiveTo(req));
                self.send(core, node, req, CohMsg::new(MsgType::DataE, msg.addr, req));
            }
            (MsgType::GetM, DirState::S) => {
                let acks = sharers.len() as u8;
                block(self, DirCommit::ExclusiveTo(req));
                self.send(
                    core,
                    node,
                    req,
                    CohMsg::new(MsgType::Data, msg.addr, req).with_acks(acks),
                );
                for s in sharers {
                    self.send(core, node, s, CohMsg::new(MsgType::Inv, msg.addr, req));
                }
            }
            (MsgType::GetM, DirState::EM(o)) => {
                // Ownership transfer (an owned line has no sharers).
                block(self, DirCommit::ExclusiveTo(req));
                self.send(core, node, o, CohMsg::new(MsgType::FwdGetM, msg.addr, req));
            }
            (MsgType::PutM, st) => {
                if st == DirState::EM(req) {
                    // Back to I, which is what an absent entry reads as.
                    self.nodes[node.index()].dir.remove(&msg.addr);
                }
                // Stale PutM (ownership already moved): just ack.
                self.send(core, node, req, CohMsg::new(MsgType::WBAck, msg.addr, req));
            }
            _ => unreachable!("non-request message in request handler"),
        }
    }

    // ------------------------------------------------------------------
    // Core issue
    // ------------------------------------------------------------------

    fn try_issue(&mut self, core: &mut SimCore, node: NodeId) {
        if let Some(q) = self.trace.quota() {
            let ns = &self.nodes[node.index()];
            if ns.completed + ns.hits >= q {
                return;
            }
        }
        // Resource gates before consulting the trace (so the trace stream
        // is not consumed on stall cycles).
        {
            let ns = &self.nodes[node.index()];
            if !ns.mshr_available(MSHRS_PER_CORE)
                || core.injection_space(node, MessageClass::REQUEST) < 2
            {
                return;
            }
        }
        let Some(op) = self.trace.next_op(node, core.cycle()) else {
            return;
        };
        if self.watch_addr == Some(op.addr) {
            let line = self.nodes[node.index()].lines.get(&op.addr).copied();
            self.watch(core.cycle(), format!("issue {:?} write={} at {node:?} line={line:?}", op.addr, op.is_write));
        }
        self.stats.issued += 1;
        let ns = &mut self.nodes[node.index()];
        // An address with an outstanding transaction is not re-issued.
        if ns.mshrs.contains_key(&op.addr) {
            ns.hits += 1; // coalesced into the outstanding miss
            self.stats.hits += 1;
            return;
        }
        match ns.lines.get(&op.addr).copied() {
            Some(LineState::M) => {
                ns.hits += 1;
                self.stats.hits += 1;
            }
            Some(LineState::E) => {
                if op.is_write {
                    ns.lines.insert(op.addr, LineState::M); // silent upgrade
                }
                ns.hits += 1;
                self.stats.hits += 1;
            }
            Some(LineState::S) if !op.is_write => {
                ns.hits += 1;
                self.stats.hits += 1;
            }
            line => {
                // Miss (or an S-state store upgrade). Make room first.
                if line != Some(LineState::S)
                    && ns.lines.len() >= self.config.l1_capacity
                    && !self.evict_one(core, node)
                {
                    return; // cannot evict now; retry next cycle
                }
                let ns = &mut self.nodes[node.index()];
                ns.mshrs.insert(
                    op.addr,
                    Mshr {
                        kind: if op.is_write {
                            MissKind::Store
                        } else {
                            MissKind::Load
                        },
                        have_data: false,
                        acks_needed: 0,
                        started_at: core.cycle(),
                        fwd_handled: false,
                    },
                );
                let mtype = if op.is_write {
                    MsgType::GetM
                } else {
                    MsgType::GetS
                };
                let home = self.home(op.addr);
                self.send(core, node, home, CohMsg::new(mtype, op.addr, node));
            }
        }
    }

    /// Evicts one random non-busy line; dirty/exclusive lines go through a
    /// PutM writeback (needs an MSHR slot and request space). Returns
    /// whether room was made.
    fn evict_one(&mut self, core: &mut SimCore, node: NodeId) -> bool {
        let victim = {
            let ns = &self.nodes[node.index()];
            let mut candidates: Vec<Addr> = ns
                .lines
                .keys()
                .copied()
                .filter(|a| !ns.mshrs.contains_key(a))
                .collect();
            if candidates.is_empty() {
                return false;
            }
            // `HashMap` iteration order changes from process to process;
            // the seeded draw must index a canonical order to repeat.
            candidates.sort_unstable();
            candidates[self.rng.gen_range(0..candidates.len())]
        };
        let state = self.nodes[node.index()].lines[&victim];
        match state {
            LineState::S => {
                // Silent clean-shared drop (the directory over-approximates).
                self.nodes[node.index()].lines.remove(&victim);
                true
            }
            LineState::E | LineState::M => {
                // Needs a writeback MSHR + one more request slot beyond the
                // one reserved for the triggering miss.
                let ns = &self.nodes[node.index()];
                if ns.mshrs.len() + 2 > MSHRS_PER_CORE
                    || core.injection_space(node, MessageClass::REQUEST) < 2
                {
                    return false;
                }
                let ns = &mut self.nodes[node.index()];
                ns.lines.remove(&victim);
                ns.mshrs.insert(
                    victim,
                    Mshr {
                        kind: MissKind::Writeback,
                        have_data: true,
                        acks_needed: 0,
                        started_at: core.cycle(),
                        fwd_handled: false,
                    },
                );
                let home = self.home(victim);
                self.send(core, node, home, CohMsg::new(MsgType::PutM, victim, node));
                true
            }
        }
    }

    /// Drains same-node messages (delivered without the network). Messages
    /// that cannot be processed yet (busy address, no queue space for their
    /// remote side effects) are deferred to the next cycle.
    fn process_local(&mut self, core: &mut SimCore) {
        let mut deferred: Vec<(NodeId, CohMsg)> = Vec::new();
        let mut guard = 0;
        while let Some((node, msg)) = self.local.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "local message storm");
            match msg.mtype.class() {
                MessageClass::RESPONSE => self.handle_response(core, node, msg),
                MessageClass::FORWARD => {
                    let need = self.forward_response_need(node, &msg);
                    if core.injection_space(node, MessageClass::RESPONSE) < need {
                        deferred.push((node, msg));
                    } else {
                        self.handle_forward(core, node, msg);
                    }
                }
                MessageClass::REQUEST => {
                    // Local requests still respect the blocking directory
                    // and queue-space gates.
                    match self.request_need(node, &msg) {
                        Some((needs_tbe, fwd_need, resp_need))
                            if (!needs_tbe
                                || self.nodes[node.index()].tbe_available(TBES_PER_DIR))
                                && core.injection_space(node, MessageClass::FORWARD)
                                    >= fwd_need
                                && core.injection_space(node, MessageClass::RESPONSE)
                                    >= resp_need =>
                        {
                            self.handle_request(core, node, msg);
                        }
                        _ => deferred.push((node, msg)),
                    }
                }
                _ => unreachable!("unknown class"),
            }
        }
        self.local.extend(deferred);
    }
}

impl Endpoints for CoherenceEngine {
    fn name(&self) -> &str {
        "mesi"
    }

    fn pre_cycle(&mut self, core: &mut SimCore) {
        if !self.checked_capacity {
            assert!(
                core.config().inj_queue_capacity >= self.num_nodes + 2,
                "coherence needs injection queues that can hold a full \
                 invalidation burst (>= num_nodes + 2 entries)"
            );
            assert!(
                core.config().num_classes >= 3,
                "coherence uses three message classes"
            );
            self.checked_capacity = true;
        }
        for ni in 0..self.num_nodes {
            let node = NodeId(ni as u16);
            // 1. Responses: the sink class, always consumable.
            for _ in 0..CONSUME_PER_CLASS {
                let Some(d) = core.pop_ejection(node, MessageClass::RESPONSE) else {
                    break;
                };
                let msg = CohMsg::unpack(d.packet.tag);
                self.handle_response(core, node, msg);
            }
            // 2. Forwards: need response-injection space.
            for _ in 0..CONSUME_PER_CLASS {
                let Some(pkt) = core.peek_ejection(node, MessageClass::FORWARD) else {
                    break;
                };
                let msg = CohMsg::unpack(pkt.tag);
                let need = self.forward_response_need(node, &msg);
                if core.injection_space(node, MessageClass::RESPONSE) < need {
                    break; // head-of-line stall: the protocol dependence
                }
                core.pop_ejection(node, MessageClass::FORWARD);
                self.handle_forward(core, node, msg);
            }
            // 3. Requests (at the home): need TBE/space and a non-busy
            //    address.
            for _ in 0..CONSUME_PER_CLASS {
                let Some(pkt) = core.peek_ejection(node, MessageClass::REQUEST) else {
                    break;
                };
                let msg = CohMsg::unpack(pkt.tag);
                let Some((needs_tbe, fwd_need, resp_need)) = self.request_need(node, &msg)
                else {
                    self.stats.request_stall_cycles += 1;
                    break; // address busy
                };
                let ns = &self.nodes[node.index()];
                if (needs_tbe && !ns.tbe_available(TBES_PER_DIR))
                    || core.injection_space(node, MessageClass::FORWARD) < fwd_need
                    || core.injection_space(node, MessageClass::RESPONSE) < resp_need
                {
                    self.stats.request_stall_cycles += 1;
                    break;
                }
                core.pop_ejection(node, MessageClass::REQUEST);
                self.handle_request(core, node, msg);
            }
            // 4. Core issue.
            for _ in 0..ISSUE_WIDTH {
                self.try_issue(core, node);
            }
        }
        self.process_local(core);
    }

    fn finished(&self, core: &SimCore) -> bool {
        self.quota_reached(core)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl std::fmt::Debug for CoherenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoherenceEngine")
            .field("nodes", &self.num_nodes)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SyntheticMemTrace;
    use drain_netsim::mechanism::NoMechanism;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::{Sim, SimConfig};
    use drain_topology::Topology;

    /// A deadlock-free (escape-VC protected, 3-VN) coherent system.
    fn coherent_sim(vns: usize, issue: f64, write: f64, seed: u64) -> Sim {
        let topo = Topology::mesh(4, 4);
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig::default(),
            Box::new(SyntheticMemTrace::uniform(issue, write, 128, seed)),
        );
        Sim::new(
            topo.clone(),
            SimConfig {
                vns,
                vcs_per_vn: 2,
                num_classes: 3,
                inj_queue_capacity: 64,
                escape_sticky: true,
                ..SimConfig::default()
            },
            drain_netsim::routing::EscapeVcRouting::with_dor(&topo),
            Box::new(NoMechanism),
            Box::new(engine),
        )
    }

    #[test]
    fn transactions_complete_with_three_vns() {
        let mut sim = coherent_sim(3, 0.1, 0.3, 1);
        sim.run(10_000);
        // Completed transactions show up as delivered response packets.
        assert!(sim.stats().ejected > 500, "ejected {}", sim.stats().ejected);
        assert!(!sim.stats().deadlocked());
    }

    #[test]
    fn read_sharing_then_write_invalidations() {
        // High sharing + writes force Inv/InvAck chains; ensure forward
        // traffic exists (class counts via message mix is internal, so use
        // protocol liveness as the signal).
        let mut sim = coherent_sim(3, 0.2, 0.5, 2);
        sim.run(20_000);
        assert!(sim.stats().ejected > 2_000);
        assert!(!sim.stats().deadlocked());
    }

    #[test]
    fn single_writer_invariant_holds() {
        let topo = Topology::mesh(3, 3);
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig {
                l1_capacity: 32,
                ..CoherenceConfig::default()
            },
            Box::new(SyntheticMemTrace::uniform(0.3, 0.5, 16, 3)),
        );
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                inj_queue_capacity: 64,
                ..SimConfig::default()
            },
            FullyAdaptive::new(&topo),
            Box::new(NoMechanism),
            Box::new(engine),
        );
        for _ in 0..10 {
            sim.run(500);
            sim.endpoints_as::<CoherenceEngine>()
                .unwrap()
                .check_single_writer();
        }
        assert!(!sim.stats().deadlocked());
    }

    #[test]
    fn small_queues_expose_protocol_pressure() {
        // Tight injection queues with heavy writes: the engine must stall
        // (HOL) rather than drop or wedge in the deadlock-free VN-3 config.
        let topo = Topology::mesh(3, 3);
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig::default(),
            Box::new(SyntheticMemTrace::uniform(0.4, 0.6, 32, 4)),
        );
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                inj_queue_capacity: 12,
                ej_queue_capacity: 2,
                escape_sticky: true,
                ..SimConfig::default()
            },
            drain_netsim::routing::EscapeVcRouting::with_dor(&topo),
            Box::new(NoMechanism),
            Box::new(engine),
        );
        sim.run(30_000);
        assert!(!sim.stats().deadlocked(), "VN-3 escape-VC must stay live");
        assert!(sim.stats().ejected > 1_000);
    }

    #[test]
    fn quota_finishes_workload() {
        let topo = Topology::mesh(3, 3);
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig::default(),
            Box::new(SyntheticMemTrace::uniform(0.2, 0.3, 64, 5).with_quota(50)),
        );
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                inj_queue_capacity: 64,
                ..SimConfig::default()
            },
            FullyAdaptive::new(&topo),
            Box::new(NoMechanism),
            Box::new(engine),
        );
        let outcome = sim.run(200_000);
        assert_eq!(outcome, drain_netsim::RunOutcome::WorkloadFinished);
    }

    #[test]
    fn home_mapping_is_stable() {
        let topo = Topology::mesh(4, 4);
        let e = CoherenceEngine::new(
            &topo,
            CoherenceConfig::default(),
            Box::new(SyntheticMemTrace::uniform(0.1, 0.1, 8, 6)),
        );
        assert_eq!(e.home(0), NodeId(0));
        assert_eq!(e.home(17), NodeId(1));
        assert_eq!(e.home(15), NodeId(15));
    }
}
