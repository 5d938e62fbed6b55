//! The `congested_irregular` benchmark point — mesh(12,12) minus 24
//! links (fault pattern 9), uniform random at 0.25, epoch 512, the three
//! headline schemes. Its heads stay blocked for many cycles, so it is
//! where the wake scheduler parks most: in-network heads and source-queue
//! heads alike. The run holds every parked head to the missed-wake oracle
//! (`validate_wake_parking`, part of the deep sweep) on every cycle.

use drain_bench::sweep::plan::TopoSpec;
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{CheckConfig, RunOutcome};

#[test]
fn congested_irregular_is_clean_under_the_deep_check_every_cycle() {
    let topo = TopoSpec::mesh_with_faults(12, 12, 24, 9).build();
    for scheme in Scheme::headline() {
        let mut sim =
            scheme.synthetic_sim(&topo, false, SyntheticPattern::UniformRandom, 0.25, 1, 512);
        sim.set_checks(CheckConfig {
            deep_interval: 1,
            ..CheckConfig::full()
        });
        let outcome = sim.run(3_000);
        assert_eq!(outcome, RunOutcome::BudgetExhausted, "{}", scheme.label());
        assert!(sim.violation().is_none(), "{}", scheme.label());
        let w = sim.core().wake_counters();
        assert!(
            w.injection_parks > 0 && w.injection_skips > 0,
            "{}: no source-queue head parked ({w:?})",
            scheme.label()
        );
    }
}
