//! The one `results/` cell where DRAIN does not drain, frozen as it is
//! today (ROADMAP item 1a): Fig 12 pagerank, 8 faults, fault pattern 1.
//! Under the paper's 64K epoch DRAIN VN-1,VC-2 forms a protocol-level
//! knot about a third of the way in and spends the rest of the budget in
//! it; the same point finishes at epoch 4 096, and so do both baselines.
//!
//! Built exactly as `AppJob::run` builds it, so the numbers are the ones
//! behind `results/fig12.txt`. A change that moves them either fixed the
//! wedge (restate EXPERIMENTS.md's Fig 12 verdict) or moved every
//! coherence figure (regenerate `results/`).

use drain_bench::scheme::DrainVariant;
use drain_bench::{Scale, Scheme};
use drain_netsim::{RunOutcome, Sim};
use drain_topology::faults::FaultInjector;
use drain_topology::Topology;

const FAULTS: usize = 8;
/// `app_jobs`' seed for 8 faults, pattern 1.
const SEED: u64 = (FAULTS * 7919 + 1) as u64 ^ 0xA44;
const _: () = assert!(SEED == 64_829);

/// Runs the cell under `scheme` to the quick-scale budget.
fn run(scheme: Scheme, epoch: u64) -> (RunOutcome, Sim) {
    let topo = FaultInjector::new(SEED)
        .remove_links(&Topology::mesh(8, 8), FAULTS)
        .unwrap();
    let app = drain_workloads::app_by_name("pagerank").unwrap();
    let quota = Some(Scale::Quick.app_quota());
    let mut sim = scheme.coherence_sim(&topo, false, &app, quota, SEED, epoch);
    (sim.run(Scale::Quick.app_budget()), sim)
}

#[test]
fn baselines_finish_the_wedge_point() {
    for (scheme, finish) in [(Scheme::EscapeVc, 27_068), (Scheme::Spin, 29_605)] {
        let (outcome, sim) = run(scheme, Scheme::DEFAULT_EPOCH);
        assert_eq!(outcome, RunOutcome::WorkloadFinished, "{}", scheme.label());
        assert_eq!(sim.core().cycle(), finish, "{}", scheme.label());
    }
}

#[test]
fn drain_finishes_at_a_short_epoch() {
    let (outcome, sim) = run(Scheme::Drain(DrainVariant::Vn1Vc2), 4_096);
    assert_eq!(outcome, RunOutcome::WorkloadFinished);
    assert_eq!(sim.core().cycle(), 28_930);
    assert_eq!(sim.stats().drains, 7);
}

#[test]
fn drain_wedges_under_the_paper_epoch() {
    let (outcome, sim) = run(Scheme::Drain(DrainVariant::Vn1Vc2), Scheme::DEFAULT_EPOCH);
    assert_eq!(outcome, RunOutcome::BudgetExhausted);
    assert_eq!(sim.core().cycle(), 150_000);
    let s = sim.stats();
    assert_eq!((s.ejected, s.drains, s.full_drains), (33_872, 2, 0));
}
