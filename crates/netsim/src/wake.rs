//! The wake scheduler's bookkeeping (DESIGN.md §8): per-subscriber wake
//! deadlines, the subscription lists vacates fire, and the profitability
//! gate.
//!
//! A *subscriber* is anything Phase A can park: a VC slot (id = its
//! link-major arena index) or an injection-queue head (id = `slots + q`,
//! `q` the `(node, class)` queue index). A subscription names one
//! (out-link, VN, escape / non-escape) triple — the slots a blocked head
//! actually asked for — so a vacate wakes only heads that could claim the
//! freed slot. The list of a triple is named by the arena index of the
//! first slot of that kind: `link * stride + vn * vcs_per_vn + kind`,
//! `kind` 0 for the escape VC and 1 for the non-escape VCs.
//!
//! [`crate::state::SimCore`] decides parks and resolves list names; this
//! module only keeps the lists and deadlines consistent.

use drain_topology::LinkId;

use crate::routing::WakeProfile;
use crate::stats::WakeCounters;

/// Park-profitability gate window (cycles). At each boundary the gate
/// compares the window's parks against the visits they saved (skips) and
/// stops parking when a park buys fewer than [`GATE_MIN_SKIPS_PER_PARK`]
/// skips — on workloads whose blocked episodes last only a cycle or two
/// (a healthy mesh past saturation) the park/wake bookkeeping costs more
/// than the routing it skips. Parking choice never affects results (a
/// `Stall` re-routes the head next cycle, as if nothing parked), so the
/// gate is purely a speed knob; it re-probes every
/// [`GATE_PROBE_PERIOD`]-th window.
const GATE_WINDOW: u64 = 2_048;
/// A gated-off scheduler re-enables parking every this many windows to
/// re-measure profitability (workload phases change).
const GATE_PROBE_PERIOD: u64 = 8;
/// Minimum skips a park must earn in a window to keep parking on
/// (break-even measured in DESIGN.md §8.3).
const GATE_MIN_SKIPS_PER_PARK: u64 = 3;
/// Windows with fewer parks than this are too quiet to judge (and cost
/// nothing): the gate stays on.
const GATE_MIN_PARKS: u64 = 64;

/// The list of the slot at arena index `slot`, whose VC-within-VN is
/// `vc`: the index of the first slot of its kind.
#[inline]
pub(crate) fn list_of_slot(slot: usize, vc: u8) -> usize {
    slot + 1 - usize::from(vc.max(1))
}

/// The list of mask bit `bit` (`2j + kind`) of a subscriber whose router
/// has out-links `out_links`, in the VN whose first VC sits `vn_base`
/// slots into each `stride`-slot port.
#[inline]
pub(crate) fn list_of_bit(out_links: &[LinkId], stride: usize, vn_base: usize, bit: u8) -> usize {
    out_links[usize::from(bit >> 1)].index() * stride + vn_base + usize::from(bit & 1)
}

/// One wake-list entry: subscriber `sub` holds bit `bit` of its mask.
/// Bit `2j + kind` stands for kind `kind` on out-link `j` of the
/// subscriber's router.
#[derive(Clone, Copy, Debug)]
struct WakeSub {
    sub: u32,
    bit: u8,
}

/// A parking decision for one blocked head, computed against pre-commit
/// state by `SimCore::route_or_park` and applied by
/// `SimCore::finish_allocation`. `subs` holds bit `2j + kind` for every
/// kind on out-link `j` of router `here` in which a target slot was
/// occupied; `vn` is the head's virtual network. Opaque outside the
/// crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ParkNote {
    pub(crate) id: u32,
    pub(crate) here: u16,
    pub(crate) vn: u8,
    pub(crate) wake_at: u64,
    pub(crate) subs: u64,
}

/// Wake deadlines, subscription lists and gate state.
pub(crate) struct WakeState {
    /// Per subscriber: `0` = fresh/active (route on visit); `> now` =
    /// parked (Phase A skips routing and draws nothing); `0 < v <= now`
    /// = woken, routes on the next visit.
    pub(crate) at: Vec<u64>,
    /// Per list: its subscribers, fired (drained) by [`WakeState::flush`].
    lists: Vec<Vec<WakeSub>>,
    /// Per subscriber: the bits with a live entry in their list.
    /// Invariant: bit set ⟺ exactly one `(sub, bit)` entry exists — a
    /// *subscriber* property that survives occupant turnover, so stale
    /// entries never accumulate and re-parking never duplicates them.
    mask: Vec<u64>,
    /// Slots vacated this cycle whose list has subscribers, awaiting the
    /// end-of-cycle [`WakeState::flush`].
    pending: Vec<u32>,
    /// First injection-queue subscriber id (= the slot count).
    first_queue: usize,
    /// Park-profitability gate: `false` suspends *new* parks
    /// (already-parked heads still wake normally).
    gate: bool,
    /// Next cycle at which the gate re-evaluates.
    gate_next: u64,
    /// `counters.parks` at the last gate evaluation.
    gate_parks: u64,
    /// `counters.skips` at the last gate evaluation.
    gate_skips: u64,
    /// The routing's wake profile (fixed for the simulation).
    pub(crate) profile: WakeProfile,
    /// Accounting (outside `Stats`: see [`WakeCounters`]).
    pub(crate) counters: WakeCounters,
}

impl WakeState {
    /// Empty state for `slots` VC slots and `queues` injection queues:
    /// one list per slot id (with more than two VCs per VN, only a VN's
    /// first two slots name lists).
    pub(crate) fn new(slots: usize, queues: usize, profile: WakeProfile) -> Self {
        WakeState {
            at: vec![0; slots + queues],
            lists: vec![Vec::new(); slots],
            mask: vec![0; slots + queues],
            pending: Vec::new(),
            first_queue: slots,
            gate: true,
            gate_next: GATE_WINDOW,
            gate_parks: 0,
            gate_skips: 0,
            profile,
            counters: WakeCounters::default(),
        }
    }

    /// Whether a blocked head may park now (gate open).
    #[inline]
    pub(crate) fn may_park(&self) -> bool {
        self.gate
    }

    /// Runs the gate at the start of cycle `now` if a window closed.
    #[inline]
    pub(crate) fn tick(&mut self, now: u64) {
        if now >= self.gate_next {
            self.gate_tick(now);
        }
    }

    /// Gate boundary: runs on committed counters only, so the gate
    /// trajectory is a pure function of the simulation.
    #[cold]
    fn gate_tick(&mut self, now: u64) {
        let w = now / GATE_WINDOW;
        let (parks, skips) = (self.counters.parks, self.counters.skips);
        if self.gate {
            let dp = parks - self.gate_parks;
            let ds = skips - self.gate_skips;
            self.gate = dp < GATE_MIN_PARKS || ds >= GATE_MIN_SKIPS_PER_PARK * dp;
        } else {
            self.gate = w.is_multiple_of(GATE_PROBE_PERIOD);
        }
        self.gate_parks = parks;
        self.gate_skips = skips;
        self.gate_next = (w + 1) * GATE_WINDOW;
    }

    /// The deadline of a new head: a VC occupant or a new queue head
    /// starts fresh. Its subscription entries deliberately survive — they
    /// are subscriber properties; a stale one fires at most one spurious
    /// wake and removes itself.
    #[inline]
    pub(crate) fn new_head(&mut self, id: usize) {
        self.at[id] = 0;
    }

    /// Queues vacated slot `slot` (list `list`) for the end-of-cycle
    /// flush when anything subscribes to its list.
    #[inline]
    pub(crate) fn note_vacate(&mut self, slot: usize, list: usize) {
        if !self.lists[list].is_empty() {
            self.pending.push(slot as u32);
        }
    }

    /// End-of-cycle wake flush: fires the list of every slot vacated this
    /// cycle that is *still empty now* (`is_empty`). A slot re-occupied by
    /// a later commit in the same cycle never presents a free buffer to
    /// any Phase A sweep, so skipping its fire is exact — its own eventual
    /// vacate re-queues it. Sorting makes the fire order independent of
    /// commit order and puts each list's slots in one run (a list's slots
    /// are index-adjacent and `list_of` is monotone).
    pub(crate) fn flush(
        &mut self,
        now: u64,
        list_of: impl Fn(usize) -> usize,
        is_empty: impl Fn(usize) -> bool,
    ) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        let mut i = 0;
        while i < pending.len() {
            let list = list_of(pending[i] as usize);
            let mut still_empty = false;
            while i < pending.len() && list_of(pending[i] as usize) == list {
                still_empty |= is_empty(pending[i] as usize);
                i += 1;
            }
            if still_empty {
                self.fire(list, now);
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Fires every subscription on list `list`. A fire delivers the
    /// *event*, not a deadline: each subscriber's wake drops to `now` (as
    /// in [`WakeState::wake_all`]; a fresh/active one stays at 0), so its
    /// next Phase A visit re-routes it, recomputes its own timed deadline
    /// from the freed slot's `free_at` and the link's `link_busy`, and
    /// re-subscribes. Handing out the freed slot's deadline instead would
    /// let a second slot of the list vacate inside that gap with an
    /// earlier `free_at` (mixed packet lengths) and find the consumed
    /// list empty. Entries are consumed: a wake is one-shot.
    fn fire(&mut self, list: usize, now: u64) {
        let mut subs = std::mem::take(&mut self.lists[list]);
        self.counters.wakes += subs.len() as u64;
        for s in subs.drain(..) {
            self.mask[s.sub as usize] &= !(1u64 << s.bit);
            let w = &mut self.at[s.sub as usize];
            *w = (*w).min(now);
        }
        // Hand the (empty) allocation back for reuse.
        self.lists[list] = subs;
    }

    /// Applies a park note: records the wake deadline and inserts the
    /// subscription entries the subscriber does not already hold
    /// (`list_of_bit` names the list of a mask bit). The mask invariant
    /// makes the dedup exact, so entry counts stay bounded by twice the
    /// router degree no matter how often the subscriber re-parks.
    pub(crate) fn apply_park(&mut self, note: ParkNote, list_of_bit: impl Fn(u8) -> usize) {
        let id = note.id as usize;
        if self.at[id] != 0 {
            // The head had parked before and this visit's wake failed to
            // unblock it.
            self.counters.spurious_wakes += 1;
        }
        self.at[id] = note.wake_at;
        let mut fresh = note.subs & !self.mask[id];
        self.mask[id] |= note.subs;
        while fresh != 0 {
            let bit = fresh.trailing_zeros() as u8;
            fresh &= fresh - 1;
            self.lists[list_of_bit(bit)].push(WakeSub { sub: note.id, bit });
        }
        self.counters.parks += 1;
        if id >= self.first_queue {
            self.counters.injection_parks += 1;
        }
    }

    /// Conservative wake-all: the deadline of every slot in `occupied`
    /// and of every injection queue drops to `now`, so the next Phase A
    /// sweep re-routes them. Subscription entries stay in place — the
    /// mask invariant is a subscriber property, and a later fire on a
    /// woken subscriber is a no-op `min`.
    pub(crate) fn wake_all(&mut self, now: u64, occupied: impl Iterator<Item = usize>) {
        for idx in occupied {
            self.at[idx] = self.at[idx].min(now);
        }
        for w in &mut self.at[self.first_queue..] {
            *w = (*w).min(now);
        }
        self.counters.wake_alls += 1;
    }

    /// Subscribers parked at `now` (deadline in the future), ascending.
    pub(crate) fn parked(&self, now: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.at.len()).filter(move |&id| self.at[id] > now)
    }

    /// First injection-queue subscriber id.
    pub(crate) fn first_queue(&self) -> usize {
        self.first_queue
    }

    /// The bookkeeping half of `SimCore::validate_wake_parking`: every
    /// mask bit corresponds to exactly one `(sub, bit)` entry, sitting in
    /// the list `expected(sub, bit)` names, and no list holds an entry
    /// without its mask bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub(crate) fn validate_lists(
        &self,
        expected: impl Fn(usize, u8) -> usize,
    ) -> Result<(), String> {
        let mut entry_counts = vec![0u32; self.mask.len()];
        for (list, entries) in self.lists.iter().enumerate() {
            for s in entries {
                let sub = s.sub as usize;
                if self.mask[sub] & (1u64 << s.bit) == 0 {
                    return Err(format!(
                        "wake entry (sub {sub}, bit {}) on list {list} has no mask bit",
                        s.bit
                    ));
                }
                let want = expected(sub, s.bit);
                if want != list {
                    return Err(format!(
                        "wake entry (sub {sub}, bit {}) sits on list {list}, expected {want}",
                        s.bit
                    ));
                }
                entry_counts[sub] += 1;
            }
        }
        for (sub, &mask) in self.mask.iter().enumerate() {
            if mask.count_ones() != entry_counts[sub] {
                return Err(format!(
                    "subscriber {sub} mask has {} bits but {} wake entries exist",
                    mask.count_ones(),
                    entry_counts[sub]
                ));
            }
        }
        Ok(())
    }
}
