//! Fig 3: likelihood of deadlocks for PARSEC workload models as links are
//! removed from an 8×8 mesh.
//!
//! Methodology (paper §II-A): fully adaptive routing with **no** deadlock
//! protection; each workload runs several times per fault count with 1 VC
//! and 4 VCs per virtual network; a cell reports the percentage of runs
//! that deadlocked (structural wait-for-graph oracle or progress
//! watchdog).

use drain_bench::engine::SweepEngine;
use drain_bench::report::write_csv;
use drain_bench::table::{banner, print_table};
use drain_bench::Scale;
use drain_coherence::{CoherenceConfig, CoherenceEngine};
use drain_netsim::{Sim, SimConfig};
use drain_topology::{faults::FaultInjector, Topology};
use drain_workloads::{parsec, AppModel, AppTrace};

/// One unprotected run: which model, how many VCs, which fault pattern.
struct Probe<'a> {
    base: &'a Topology,
    app: &'a AppModel,
    vcs_per_vn: usize,
    faults: usize,
    seed: u64,
    budget: u64,
}

impl Probe<'_> {
    /// Returns (deadlocked, cycles simulated).
    fn run(&self) -> (bool, u64) {
        let topo = if self.faults == 0 {
            self.base.clone()
        } else {
            FaultInjector::new(self.seed)
                .remove_links(self.base, self.faults)
                .unwrap()
        };
        let seed = self.seed ^ 0xDEAD;
        let config = SimConfig {
            vns: 3,
            vcs_per_vn: self.vcs_per_vn,
            num_classes: 3,
            inj_queue_capacity: topo.num_nodes() + 8,
            deadlock_check_interval: 512,
            watchdog_threshold: 20_000,
            seed,
            ..SimConfig::default()
        };
        let trace = AppTrace::new(self.app.clone(), topo.num_nodes(), seed ^ 0xF16);
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig {
                seed: seed ^ 0x03,
                ..CoherenceConfig::default()
            },
            Box::new(trace),
        );
        let mut sim = Sim::new(
            topo.clone(),
            config,
            drain_netsim::routing::FullyAdaptive::new(&topo),
            Box::new(drain_netsim::mechanism::NoMechanism),
            Box::new(engine),
        )
        .stop_on_deadlock(true);
        sim.run(self.budget);
        (sim.stats().deadlocked(), sim.core().cycle())
    }
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Fig 3",
        "deadlock likelihood for PARSEC models vs removed links (8x8 mesh, fully adaptive, unprotected)",
        scale,
    );
    let mut engine = SweepEngine::new("fig03", scale);
    let base = Topology::mesh(8, 8);
    let fault_counts: Vec<usize> = match scale {
        Scale::Quick => vec![0, 2, 4, 8, 12],
        Scale::Full => vec![0, 1, 2, 4, 6, 8, 10, 12],
    };
    let runs = scale.seeds().max(3);
    let budget = match scale {
        Scale::Quick => 60_000,
        Scale::Full => 300_000,
    };
    let apps = parsec();

    let mut jobs: Vec<Probe> = Vec::new();
    for vcs in [1usize, 4] {
        for app in &apps {
            for &faults in &fault_counts {
                for r in 0..runs {
                    jobs.push(Probe {
                        base: &base,
                        app,
                        vcs_per_vn: vcs,
                        faults,
                        seed: (faults as u64) << 16 | r as u64,
                        budget,
                    });
                }
            }
        }
    }
    let outcomes = engine.run_jobs(&jobs, Probe::run, |_, &(_, cycles)| cycles);

    let mut cells = outcomes.chunks(runs);
    let mut csv_rows = Vec::new();
    for vcs in [1usize, 4] {
        let mut rows = Vec::new();
        for app in &apps {
            let mut row = vec![app.name.to_string()];
            for &faults in &fault_counts {
                let cell = cells.next().expect("grid order");
                let deadlocked = cell.iter().filter(|&&(d, _)| d).count();
                let share = format!("{}%", 100 * deadlocked / runs);
                csv_rows.push(vec![
                    vcs.to_string(),
                    app.name.to_string(),
                    faults.to_string(),
                    share.clone(),
                ]);
                row.push(share);
            }
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["app".into()];
        header.extend(fault_counts.iter().map(|f| format!("{f} links")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Fig 3 — % of runs deadlocking ({vcs} VC/VNet)"),
            &header_refs,
            &rows,
        );
    }
    write_csv(
        "fig03",
        &["vcs_per_vn", "app", "faults", "deadlocked_share"],
        &csv_rows,
    );
    engine.finish();
}
