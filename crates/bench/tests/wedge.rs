//! The `results/` cell that used to wedge: Fig 12 pagerank, 8 faults,
//! fault pattern 1. Until the wake scheduler's missed wake under mixed
//! packet lengths was fixed, DRAIN VN-1,VC-2 spent the 64K-epoch budget
//! here in what read as a protocol-level knot (`BudgetExhausted` at
//! 150 000 with 33 872 deliveries) — a head sleeping past a feasible
//! move, not a property of the model. The numbers below are the ones a
//! run that re-routes every head every cycle produced before the fix,
//! and the default run produces now.
//!
//! A change that moves them moved every coherence figure (regenerate
//! `results/`); `determinism.rs` holds the default run to
//! `common::run_rerouting` on this cell.

use drain_bench::scheme::DrainVariant;
use drain_bench::{Scale, Scheme};
use drain_netsim::{CheckConfig, RunOutcome, Sim};

mod common;
use common::wedge_cell_sim;

/// Runs the cell under `scheme` to the quick-scale budget.
fn run(scheme: Scheme, epoch: u64) -> (RunOutcome, Sim) {
    let mut sim = wedge_cell_sim(scheme, epoch);
    (sim.run(Scale::Quick.app_budget()), sim)
}

#[test]
fn baselines_finish_the_former_wedge_point() {
    for (scheme, finish) in [(Scheme::EscapeVc, 26_858), (Scheme::Spin, 27_634)] {
        let (outcome, sim) = run(scheme, Scheme::DEFAULT_EPOCH);
        assert_eq!(outcome, RunOutcome::WorkloadFinished, "{}", scheme.label());
        assert_eq!(sim.core().cycle(), finish, "{}", scheme.label());
    }
}

#[test]
fn drain_finishes_at_a_short_epoch() {
    let (outcome, sim) = run(Scheme::Drain(DrainVariant::Vn1Vc2), 4_096);
    assert_eq!(outcome, RunOutcome::WorkloadFinished);
    assert_eq!(sim.core().cycle(), 26_615);
    assert_eq!(sim.stats().drains, 6);
}

#[test]
fn drain_finishes_under_the_paper_epoch_without_a_drain() {
    let (outcome, sim) = run(Scheme::Drain(DrainVariant::Vn1Vc2), Scheme::DEFAULT_EPOCH);
    assert_eq!(outcome, RunOutcome::WorkloadFinished);
    assert_eq!(sim.core().cycle(), 26_487);
    assert_eq!((sim.stats().drains, sim.stats().full_drains), (0, 0));
}

/// Every cycle of the cell under the full invariant checker with the
/// deep sweep — the missed-wake oracle `validate_wake_parking` included —
/// on every cycle. Before the fix this panicked at cycle 1 553 ("missed
/// wake: parked VC … (wake_at 1556) has a feasible move via l94").
#[test]
fn the_cell_is_clean_under_the_deep_check_every_cycle() {
    for scheme in Scheme::headline() {
        let mut sim = wedge_cell_sim(scheme, Scheme::DEFAULT_EPOCH);
        sim.set_checks(CheckConfig {
            deep_interval: 1,
            ..CheckConfig::full()
        });
        let outcome = sim.run(Scale::Quick.app_budget());
        assert_eq!(outcome, RunOutcome::WorkloadFinished, "{}", scheme.label());
        assert!(sim.violation().is_none(), "{}", scheme.label());
    }
}
