//! Closed-loop application comparisons (Figs 12, 13, 15).
//!
//! App runs are closed-loop (their runtime depends on the whole history),
//! so unlike synthetic points they are not cached; they are still
//! parallelised: [`app_jobs`] expands a figure's (scheme × app × seed)
//! grid into independent [`AppJob`]s for
//! [`SweepEngine::run_jobs`](crate::engine::SweepEngine::run_jobs), and
//! [`average`] folds the per-seed results exactly like the serial
//! [`run_app_averaged`] (bit-identical, since each job carries its own
//! seed).

use drain_netsim::RunOutcome;
use drain_topology::{faults::FaultInjector, Topology};
use drain_workloads::AppModel;

use crate::scale::Scale;
use crate::scheme::Scheme;

/// Result of one closed-loop application run.
#[derive(Clone, Copy, Debug)]
pub struct AppRun {
    /// Mean packet latency over the run (cycles).
    pub latency: f64,
    /// 99th-percentile packet latency (cycles).
    pub p99: u64,
    /// Runtime: cycles to finish the per-core quota (in practice the
    /// budget itself when that ran out first — see [`run_app`]).
    pub runtime: f64,
    /// Whether the run wedged (watchdog deadlock that never recovered).
    pub deadlocked: bool,
    /// Cycles actually simulated (≤ the scale's budget; feeds
    /// [`RunReport::sim_cycles`](crate::report::RunReport)).
    pub cycles: u64,
}

/// Runs `scheme` on `app` over `topo` until the per-core quota completes.
pub fn run_app(
    scheme: Scheme,
    topo: &Topology,
    full_mesh: bool,
    app: &AppModel,
    seed: u64,
    scale: Scale,
) -> AppRun {
    let quota = scale.app_quota();
    let budget = scale.app_budget();
    let mut sim = scheme.coherence_sim(topo, full_mesh, app, Some(quota), seed, Scheme::DEFAULT_EPOCH);
    let outcome = sim.run(budget);
    let finished = outcome == RunOutcome::WorkloadFinished;
    let cycles = sim.core().cycle() as f64;
    // When the budget ran out, scale by progress — in practice by 1, so a
    // wedged run reads as the budget, not an extrapolation:
    let runtime = if finished {
        cycles
    } else {
        let target = (quota as f64) * topo.num_nodes() as f64;
        // `ejected` counts ~4 packets per operation (requests + forwards +
        // responses), so it passes `target` a quarter of the way in.
        let progress = (sim.stats().ejected as f64 / target).max(1e-3);
        cycles / progress.min(1.0)
    };
    AppRun {
        latency: sim.stats().net_latency.mean(),
        p99: sim.stats().net_latency.p99(),
        runtime,
        deadlocked: sim.stats().watchdog_deadlock,
        cycles: sim.core().cycle(),
    }
}

/// One independent closed-loop run: everything [`run_app`] needs,
/// including the fault pattern, resolved from the figure's seed formula
/// so a job can run on any worker thread.
#[derive(Clone, Debug)]
pub struct AppJob<'a> {
    /// Evaluated scheme.
    pub scheme: Scheme,
    /// Application model.
    pub app: &'a AppModel,
    /// Fault-free base topology.
    pub base: &'a Topology,
    /// Links removed from `base` (0 = pristine).
    pub faults: usize,
    /// Simulation + fault-injection seed.
    pub seed: u64,
    /// Run-length policy.
    pub scale: Scale,
}

impl AppJob<'_> {
    /// Runs the job (builds the faulty topology locally).
    pub fn run(&self) -> AppRun {
        let topo = if self.faults == 0 {
            self.base.clone()
        } else {
            FaultInjector::new(self.seed)
                .remove_links(self.base, self.faults)
                .unwrap()
        };
        run_app(
            self.scheme,
            &topo,
            self.faults == 0,
            self.app,
            self.seed,
            self.scale,
        )
    }
}

/// Expands one (scheme, app, fault count) cell into its per-seed jobs,
/// using the same seed formula as [`run_app_averaged`].
pub fn app_jobs<'a>(
    scheme: Scheme,
    base: &'a Topology,
    faults: usize,
    app: &'a AppModel,
    scale: Scale,
) -> Vec<AppJob<'a>> {
    (0..scale.seeds())
        .map(|s| AppJob {
            scheme,
            app,
            base,
            faults,
            seed: (faults * 7919 + s) as u64 ^ 0xA44,
            scale,
        })
        .collect()
}

/// Folds per-seed runs into the figure's cell: mean latency/runtime,
/// worst-case p99, any-deadlock.
pub fn average(runs: &[AppRun]) -> AppRun {
    let n = runs.len().max(1) as f64;
    AppRun {
        latency: runs.iter().map(|r| r.latency).sum::<f64>() / n,
        p99: runs.iter().map(|r| r.p99).max().unwrap_or(0),
        runtime: runs.iter().map(|r| r.runtime).sum::<f64>() / n,
        deadlocked: runs.iter().any(|r| r.deadlocked),
        cycles: runs.iter().map(|r| r.cycles).sum(),
    }
}

/// Averages runs over the scale's seeds and fault patterns, serially in
/// the calling thread. The figures run the same jobs in parallel via
/// [`app_jobs`] + [`average`]; both paths produce identical numbers.
pub fn run_app_averaged(
    scheme: Scheme,
    base: &Topology,
    faults: usize,
    app: &AppModel,
    scale: Scale,
) -> AppRun {
    let runs: Vec<AppRun> = app_jobs(scheme, base, faults, app, scale)
        .iter()
        .map(AppJob::run)
        .collect();
    average(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_run_produces_sane_numbers() {
        let topo = Topology::mesh(4, 4);
        let app = drain_workloads::app_by_name("blackscholes").unwrap();
        let r = run_app(Scheme::EscapeVc, &topo, true, &app, 1, Scale::Quick);
        assert!(r.latency > 0.0);
        assert!(r.runtime > 0.0);
        assert!(!r.deadlocked);
    }
}
