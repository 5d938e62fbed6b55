//! Structural deadlock detection (instrumentation oracle).
//!
//! The detector builds the VC wait-for relation — each occupied VC waits on
//! the concrete downstream VC slots its head packet could claim — and
//! computes the set of VCs that can *never* free: the complement of the
//! least fixed point of "can eventually progress" seeded from free buffers
//! and available ejection slots.
//!
//! It is used (a) by the Fig 3 deadlock-likelihood study, (b) by the ideal
//! deadlock-free reference mechanism (which resolves what the detector
//! finds at zero cost), and (c) as pure instrumentation in DRAIN runs to
//! count how many deadlocks actually formed between drains.
//!
//! Protocol-level deadlocks whose cycle passes through endpoint state
//! (MSHRs, directory queues) are not visible structurally; the simulator's
//! progress watchdog (see [`crate::sim`]) catches those.

use crate::routing::RouteCtx;
use crate::state::{SimCore, VcRef};

/// Result of one detector sweep.
#[derive(Clone, Debug, Default)]
pub struct DeadlockReport {
    /// VCs that can never progress (empty = no structural deadlock).
    pub deadlocked: Vec<VcRef>,
}

impl DeadlockReport {
    /// Whether a deadlock was found.
    pub fn is_deadlocked(&self) -> bool {
        !self.deadlocked.is_empty()
    }
}

/// Sweeps the network for structural deadlocks.
///
/// Complexity is O(VCs × candidates) per sweep; run it at a coarse
/// interval (`SimConfig::deadlock_check_interval`).
pub fn detect(core: &SimCore) -> DeadlockReport {
    let vcs: Vec<VcRef> = core.vc_refs().collect();
    let index_of = |r: VcRef| -> usize {
        // Same layout as the core's internal indexing.
        let total = core.config().total_vcs();
        r.link.index() * total + r.vn as usize * core.config().vcs_per_vn + r.vc as usize
    };
    let n = vcs.len();
    // live[i]: this VC slot can eventually become free.
    let mut live = vec![false; n];
    // Wait edges, reversed: for each slot, which occupied VCs are waiting
    // on it.
    let mut waiters: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut worklist: Vec<usize> = Vec::new();
    let mut cands = Vec::new();
    let mut targets = Vec::new();

    for (i, &r) in vcs.iter().enumerate() {
        let st = core.vc(r);
        let Some(pid) = st.occ else {
            live[i] = true;
            worklist.push(i);
            continue;
        };
        let p = core.packet(pid);
        let here = core.topology().link(r.link).dst;
        if p.dest == here {
            // Ejection candidate: progress iff the queue has room now
            // (endpoint consumption liveness is the watchdog's job).
            if core.ejection_has_space(here, p.class) {
                live[i] = true;
                worklist.push(i);
            }
            continue;
        }
        // Wait edges to every concrete VC slot the packet may claim.
        // Liveness must consider every move the packet could eventually
        // make, so pressure-gated candidates (deflection, escape entry)
        // are included by claiming an unbounded blocked time.
        let ctx = RouteCtx {
            cur: here,
            dest: p.dest,
            arrived_via: Some(r.link),
            in_escape: core.config().escape_sticky && r.vc == 0,
            blocked_for: u64::MAX,
            sample: 0,
        };
        cands.clear();
        core.route_candidates(&ctx, &mut cands);
        let vn = core.config().vn_of_class(p.class) as u8;
        let mut any_target = false;
        for &c in &cands {
            targets.clear();
            core.concrete_targets(c, vn, &mut targets);
            for &t in &targets {
                any_target = true;
                waiters[index_of(t)].push(i);
            }
        }
        if !any_target {
            // No route at all (should not happen on connected topologies);
            // treat as deadlocked by leaving it non-live with no hope.
            continue;
        }
    }
    // Propagate liveness backwards through wait edges: if a slot can free,
    // everything waiting on it can progress (claim it eventually).
    while let Some(i) = worklist.pop() {
        // `waiters[i]` lists occupied VCs that have i as a candidate slot.
        let ws = std::mem::take(&mut waiters[i]);
        for w in ws {
            if !live[w] {
                live[w] = true;
                worklist.push(w);
            }
        }
    }
    let deadlocked = vcs
        .iter()
        .enumerate()
        .filter(|&(i, &r)| !live[i] && core.vc(r).occ.is_some())
        .map(|(_, &r)| r)
        .collect();
    DeadlockReport { deadlocked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::mechanism::NoMechanism;
    use crate::routing::FullyAdaptive;
    use crate::sim::Sim;
    use crate::traffic::{SyntheticPattern, SyntheticTraffic};
    use drain_topology::Topology;

    #[test]
    fn empty_network_has_no_deadlock() {
        let topo = Topology::mesh(4, 4);
        let routing = FullyAdaptive::new(&topo);
        let sim = Sim::new(
            topo.clone(),
            SimConfig {
                vns: 1,
                vcs_per_vn: 1,
                num_classes: 1,
                ..SimConfig::default()
            },
            routing,
            Box::new(NoMechanism),
            Box::new(SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                0.0,
                1,
                7,
            )),
        );
        assert!(!detect(sim.core()).is_deadlocked());
    }

    #[test]
    fn saturated_ring_with_single_vc_deadlocks() {
        // A unidirectional-pressure scenario: a 4-ring, 1 VN × 1 VC,
        // adaptive routing, very high injection of packets that must travel
        // half-way around. With U-turn-free minimal routing on a ring and
        // one VC, cyclic waits form quickly.
        let topo = Topology::ring(4);
        let routing = FullyAdaptive::new(&topo);
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                vns: 1,
                vcs_per_vn: 1,
                num_classes: 1,
                watchdog_threshold: 0,
                ..SimConfig::default()
            },
            routing,
            Box::new(NoMechanism),
            Box::new(SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                0.9,
                1,
                3,
            )),
        );
        let mut saw_deadlock = false;
        for _ in 0..2000 {
            sim.step();
            if detect(sim.core()).is_deadlocked() {
                saw_deadlock = true;
                break;
            }
        }
        assert!(
            saw_deadlock,
            "expected a structural deadlock on a saturated 1-VC ring"
        );
    }
}
