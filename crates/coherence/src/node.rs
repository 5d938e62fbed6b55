//! Per-node protocol state: private L1 cache + directory/LLC slice.

use std::collections::HashMap;

use drain_topology::NodeId;

use crate::msg::Addr;

/// Stable L1 line states (transient states live in the MSHR).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineState {
    /// Shared, clean, read-only.
    S,
    /// Exclusive, clean (silent upgrade to M on store).
    E,
    /// Modified, dirty.
    M,
}

impl LineState {
    /// Whether the line may be written without a request — the copy that
    /// supplies data on a forward and writes back on eviction.
    pub fn writable(self) -> bool {
        matches!(self, LineState::E | LineState::M)
    }
}

/// The memory operation a miss is waiting to complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissKind {
    /// Load miss (GetS outstanding).
    Load,
    /// Store miss / upgrade (GetM outstanding).
    Store,
    /// Dirty eviction (PutM outstanding).
    Writeback,
}

/// An MSHR entry: one outstanding transaction of this core.
#[derive(Clone, Debug)]
pub struct Mshr {
    /// What kind of miss this is.
    pub kind: MissKind,
    /// Data received yet? (GetM completes when data AND all acks arrived.)
    pub have_data: bool,
    /// InvAcks still needed (valid once data arrived; counts may go
    /// negative transiently if acks beat the data, hence signed).
    pub acks_needed: i32,
    /// Cycle the transaction started (for latency stats).
    pub started_at: u64,
    /// A forward raced with our PutM and was answered from the MSHR.
    pub fwd_handled: bool,
}

/// Directory entry stable states.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DirState {
    /// Not cached anywhere (or silently dropped by sharers).
    #[default]
    I,
    /// Cached read-only by the sharer set.
    S,
    /// Owned (E or M) by one core.
    EM(NodeId),
}

/// A directory entry: stable state plus sharer bitmap.
#[derive(Clone, Debug, Default)]
pub struct DirEntry {
    /// Stable state.
    pub state: DirState,
    /// Sharer bitmap (indexed by node id; used in state `S`).
    pub sharers: u64,
}

impl DirEntry {
    /// Fresh entry in state I.
    pub fn new() -> Self {
        DirEntry::default()
    }

    /// Number of sharers excluding `but`.
    pub fn sharer_count_excluding(&self, but: NodeId) -> u32 {
        (self.sharers & !(1u64 << but.index())).count_ones()
    }

    /// Iterator over sharer node ids excluding `but`.
    pub fn sharers_excluding(&self, but: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mask = self.sharers & !(1u64 << but.index());
        (0..64u16).filter_map(move |i| {
            if mask & (1u64 << i) != 0 {
                Some(NodeId(i))
            } else {
                None
            }
        })
    }
}

/// What the directory commits when the requester's Unblock arrives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirCommit {
    /// A read grant from I (or a write grant): the requester becomes the
    /// exclusive owner.
    ExclusiveTo(NodeId),
    /// A read grant from S: the requester joins the sharer set.
    AddSharer(NodeId),
    /// A read transfer from an owner: owner and requester end up sharing
    /// (state S).
    TransferRead {
        /// The owner the forward was sent to.
        old: NodeId,
        /// The reader.
        new: NodeId,
    },
}

/// A directory TBE: the blocking directory's record of the in-flight
/// transaction for an address — every GetS/GetM blocks the address until
/// the requester's Unblock commits the new stable state.
#[derive(Clone, Copy, Debug)]
pub struct Tbe {
    /// The requester whose Unblock will clear this entry.
    pub requester: NodeId,
    /// The state to commit at Unblock.
    pub commit: DirCommit,
}

/// Everything one node owns: L1 lines, MSHRs, its directory slice and TBEs.
#[derive(Clone, Debug, Default)]
pub struct NodeState {
    /// L1 cache lines.
    pub lines: HashMap<Addr, LineState>,
    /// Outstanding transactions.
    pub mshrs: HashMap<Addr, Mshr>,
    /// Directory entries for addresses homed here.
    pub dir: HashMap<Addr, DirEntry>,
    /// Busy directory transactions (blocking per address).
    pub tbes: HashMap<Addr, Tbe>,
    /// Completed transactions (loads + stores, not writebacks).
    pub completed: u64,
    /// Sum of transaction latencies (for averages).
    pub latency_sum: u64,
    /// L1 hits (no traffic).
    pub hits: u64,
}

impl NodeState {
    /// Whether a new MSHR may be allocated under the given bound.
    pub fn mshr_available(&self, max: usize) -> bool {
        self.mshrs.len() < max
    }

    /// Whether the directory can start a blocking transaction.
    pub fn tbe_available(&self, max: usize) -> bool {
        self.tbes.len() < max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_bitmap_ops() {
        let mut e = DirEntry::new();
        e.sharers = 0b1011;
        assert_eq!(e.sharer_count_excluding(NodeId(0)), 2);
        assert_eq!(e.sharer_count_excluding(NodeId(5)), 3);
        let sharers: Vec<NodeId> = e.sharers_excluding(NodeId(1)).collect();
        assert_eq!(sharers, vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn line_writability() {
        assert!(!LineState::S.writable());
        assert!(LineState::E.writable());
        assert!(LineState::M.writable());
    }

    #[test]
    fn bounds_checks() {
        let mut n = NodeState::default();
        assert!(n.mshr_available(1));
        n.mshrs.insert(
            1,
            Mshr {
                kind: MissKind::Load,
                have_data: false,
                acks_needed: 0,
                started_at: 0,
                fwd_handled: false,
            },
        );
        assert!(!n.mshr_available(1));
        assert!(n.tbe_available(1));
    }
}
