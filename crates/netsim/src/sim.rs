//! The top-level simulation driver.
//!
//! [`Sim`] sequences one cycle as: endpoints (consume/produce) → mechanism
//! control (drain/spin/freeze decisions) → network allocation → watchdog &
//! detector instrumentation.

use std::path::{Path, PathBuf};

use crate::check::{self, CheckConfig, Violation};
use crate::deadlock;
use crate::mechanism::{ControlAction, Mechanism};
use crate::metrics::{MetricsSnapshot, Phase};
use crate::state::SimCore;
use crate::stats::Stats;
use crate::trace::{self, TraceEvent, TraceSink};
use crate::traffic::Endpoints;
use crate::SimConfig;
use drain_topology::IntoSharedTopology;

/// Why a bounded run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The cycle budget was exhausted.
    BudgetExhausted,
    /// The endpoint model reported completion.
    WorkloadFinished,
    /// A deadlock was observed (structural detector or watchdog) and the
    /// run was configured to stop on deadlock.
    Deadlocked,
    /// A runtime invariant check failed and the run was configured not to
    /// panic; the report is available via [`Sim::violation`].
    InvariantViolation,
}

/// A complete simulation: state + mechanism + endpoints.
///
/// `Sim` is `Send` (both plugin traits — [`Mechanism`], [`Endpoints`] —
/// require `Send`, and every [`crate::routing::Routing`] is), so whole simulations
/// can be handed to worker threads; the experiment harness's parallel
/// sweep engine relies on this.
pub struct Sim {
    core: SimCore,
    mechanism: Box<dyn Mechanism>,
    endpoints: Box<dyn Endpoints>,
    stop_on_deadlock: bool,
    violation: Option<Violation>,
    flight_record: Option<PathBuf>,
    /// Runtime invariant checks (all off unless [`Sim::set_checks`]).
    checks: CheckConfig,
    /// Cycles on which the cheap per-cycle invariant tier ran
    /// (simulator accounting only — deliberately *not* part of [`Stats`],
    /// which must be bit-identical with checks on or off).
    check_sweeps: u64,
    /// Cycles on which the deep invariant tier additionally ran.
    check_deep_sweeps: u64,
}

// Compile-time audit of the `Send` guarantee documented above: building a
// `Sim` on one thread and running it on another is what the bench crate's
// worker pool does on every job.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim>();
    assert_send::<Stats>();
};

impl Sim {
    /// Assembles a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(
        topo: impl IntoSharedTopology,
        config: SimConfig,
        routing: impl Into<crate::routing::Routing>,
        mechanism: Box<dyn Mechanism>,
        endpoints: Box<dyn Endpoints>,
    ) -> Self {
        Sim {
            core: SimCore::new(topo, config, routing),
            mechanism,
            endpoints,
            stop_on_deadlock: false,
            violation: None,
            flight_record: None,
            checks: CheckConfig::default(),
            check_sweeps: 0,
            check_deep_sweeps: 0,
        }
    }

    /// No-op: the kernel is serial; kept only because `benchmark/src/measure.rs` calls it.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Makes [`Sim::run`] return early once a deadlock is observed.
    pub fn stop_on_deadlock(mut self, stop: bool) -> Self {
        self.stop_on_deadlock = stop;
        self
    }

    /// Switches the wake-driven Phase A scheduler on (the default) or off,
    /// resetting all wake state. On, heads whose routing pass produced no
    /// feasible move are *parked* (a timed wake deadline plus
    /// subscriptions on the output links their candidates named) and
    /// skipped by later Phase A sweeps until a vacate or timeout can have
    /// changed the answer; off, every head is re-routed every cycle (the
    /// dense scan, the in-process reference of the wake differentials).
    /// Results are bit-identical either way — a simulator-speed switch
    /// only (DESIGN.md §8).
    pub fn set_wake_scheduler(&mut self, enabled: bool) {
        self.core.set_wake_scheduler(enabled);
    }

    /// Installs the runtime invariant checks (see [`crate::check`]; all
    /// off by default).
    pub fn set_checks(&mut self, checks: CheckConfig) {
        self.checks = checks;
    }

    /// The simulation state.
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Mutable simulation state (for scripted tests).
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// The mechanism's name.
    pub fn mechanism_name(&self) -> &str {
        self.mechanism.name()
    }

    /// Downcasts the endpoint model to its concrete type (e.g. to read the
    /// coherence engine's protocol statistics mid-run).
    pub fn endpoints_as<T: 'static>(&self) -> Option<&T> {
        self.endpoints.as_any().downcast_ref::<T>()
    }

    /// [`Sim::endpoints_as`], mutably (e.g. to stop a traffic source
    /// mid-run).
    pub fn endpoints_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        (self.endpoints.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Opens a fresh measurement window (call after warmup).
    pub fn open_measurement_window(&mut self) {
        let c = self.core.cycle();
        self.core.stats.open_window(c);
    }

    /// The first invariant violation observed, when the run was configured
    /// not to panic ([`crate::check::CheckConfig::no_panic`]).
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Installs a trace sink and enables event capture (see
    /// [`crate::trace`]). Sinks live outside [`SimConfig`] because they
    /// can hold file handles; configs stay `Clone + PartialEq`.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.core.tracer_mut().set_sink(sink);
    }

    /// Flushes a writer trace sink, if one is installed.
    ///
    /// # Errors
    ///
    /// The writer's flush error, if any.
    pub fn flush_trace(&mut self) -> std::io::Result<()> {
        self.core.tracer_mut().flush()
    }

    /// Path of the flight-recorder dump written by this run, if the run
    /// failed and [`crate::TraceConfig::flightrec_dir`] was configured.
    pub fn flight_record(&self) -> Option<&Path> {
        self.flight_record.as_deref()
    }

    /// Advances the simulation by one cycle.
    ///
    /// With [`crate::check::CheckConfig`] flags enabled, forced
    /// permutations are validated before they are applied and the whole
    /// core is re-checked at the end of the cycle. A violation panics with
    /// a replayable report, or — with
    /// [`crate::check::CheckConfig::no_panic`] — is recorded and freezes
    /// the simulation (further steps are no-ops).
    ///
    /// # Panics
    ///
    /// Panics with the [`Violation`] report when a check fails and
    /// `panic_on_violation` is set (the default for enabled checks).
    pub fn step(&mut self) {
        if self.violation.is_some() {
            return;
        }
        // Phase-profiler brackets: pure observers (wall clock in, nothing
        // out), each a single bool check when the cycle is not sampled.
        self.core.prof_begin_cycle(self.core.cycle());
        self.endpoints.pre_cycle(&mut self.core);
        self.core.prof_mark(Phase::Endpoints);
        let action = self.mechanism.control(&mut self.core);
        self.core.prof_mark(Phase::Mechanism);
        match action {
            ControlAction::Normal => self.core.allocate_and_move(),
            ControlAction::Freeze => {}
            ControlAction::Forced(moves, kind) => {
                if self.checks.enabled {
                    if let Err(v) = check::validate_forced(&self.core, &moves) {
                        self.fail(v);
                        return;
                    }
                }
                self.core.apply_forced(&moves, kind);
                self.core.prof_mark(Phase::Forced);
            }
        }
        // All of this cycle's vacates (allocation or forced) have
        // committed — deliver the surviving wake fires before the
        // validators look at the parked set.
        self.core.flush_wakes();
        self.core.prof_mark(Phase::PhaseA);
        self.instrument();
        self.core.prof_mark(Phase::Mechanism);
        self.core.telemetry_tick();
        self.core.prof_mark(Phase::Telemetry);
        if self.checks.any_per_cycle() {
            self.check_sweeps += 1;
            if check::deep_sweep_due(&self.checks, self.core.cycle()) {
                self.check_deep_sweeps += 1;
            }
            if let Err(v) = check::run_checks(&self.core, &self.checks) {
                self.fail(v);
                return;
            }
            self.core.prof_mark(Phase::Checks);
        }
        self.core.advance_cycle();
        self.core.prof_end_cycle();
    }

    fn fail(&mut self, v: Violation) {
        self.core.trace_emit(TraceEvent::InvariantViolation {
            cycle: v.cycle,
            kind: v.kind,
            seed: v.seed,
            detail: v.detail.clone(),
        });
        self.record_failure("invariant");
        if self.checks.panic_on_violation {
            panic!("{v}");
        }
        self.violation = Some(v);
    }

    /// Dumps a flight record for the first failure of the run (no-op when
    /// [`crate::TraceConfig::flightrec_dir`] is unset).
    fn record_failure(&mut self, reason: &str) {
        if self.flight_record.is_some() {
            return;
        }
        if let Some(path) = trace::flight_record(&self.core, reason) {
            eprintln!("flight record written to {}", path.display());
            self.flight_record = Some(path);
        }
    }

    fn instrument(&mut self) {
        let interval = self.core.config().deadlock_check_interval;
        let wd = self.core.config().watchdog_threshold;
        let now = self.core.cycle();
        if interval > 0 && now % interval == interval - 1 {
            let report = deadlock::detect(&self.core);
            if report.is_deadlocked() {
                let first = self.core.stats.first_deadlock_cycle == u64::MAX;
                self.core.stats.deadlocks_detected += 1;
                if first {
                    self.core.stats.first_deadlock_cycle = now;
                    if self.core.trace_enabled() {
                        let r = report.deadlocked[0];
                        self.core.trace_emit(TraceEvent::DeadlockConviction {
                            cycle: now,
                            convicted: report.deadlocked.len() as u32,
                            link: r.link.0,
                            vn: r.vn,
                            vc: r.vc,
                        });
                    }
                    self.record_failure("deadlock");
                }
            }
        }
        let idle = now.saturating_sub(self.core.stats.last_progress_cycle);
        if wd > 0 && self.core.packets_in_network() > 0 && idle > wd {
            let first = !self.core.stats.watchdog_deadlock;
            self.core.stats.watchdog_deadlock = true;
            if self.core.stats.first_deadlock_cycle == u64::MAX {
                self.core.stats.first_deadlock_cycle = now;
            }
            if first {
                self.core
                    .trace_emit(TraceEvent::WatchdogTrip { cycle: now, idle });
                self.record_failure("watchdog");
            }
        }
    }

    /// Always 0: idle fast-forward is gone; kept for `benchmark/`'s reader.
    pub fn ff_cycles_skipped(&self) -> u64 {
        0
    }

    /// Always 0: idle fast-forward is gone; kept for `benchmark/`'s reader.
    pub fn ff_jumps(&self) -> u64 {
        0
    }

    /// Cycles on which the cheap per-cycle invariant tier ran.
    pub fn check_sweeps(&self) -> u64 {
        self.check_sweeps
    }

    /// Cycles on which the deep invariant tier additionally ran.
    pub fn check_deep_sweeps(&self) -> u64 {
        self.check_deep_sweeps
    }

    /// Sets the kernel phase profiler's sampling cadence: every
    /// `period`-th cycle gets per-phase wall-time attribution (0, the
    /// default, disables it; accumulated attribution is reset). A pure
    /// observer — results are bit-identical at any cadence, and the
    /// metrics differential tests prove it.
    pub fn set_profile_period(&mut self, period: u64) {
        self.core.set_profile_period(period);
    }

    /// Collects every counter family the simulation maintains into one
    /// [`MetricsSnapshot`] under the stable `drain_` namespace: `Stats`
    /// (packets, latency histograms, mechanism events), wake-scheduler
    /// counters, per-site RNG draw volume, check-tier sweeps,
    /// telemetry/trace volume, occupancy gauges, and — when enabled — the
    /// phase profiler's attribution.
    ///
    /// Collection is pull-based: the counters are maintained anyway, so
    /// taking a snapshot costs nothing between scrapes and cannot
    /// perturb the simulation.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        let s = &self.core.stats;
        m.counter("drain_packets_generated_total", s.generated);
        m.counter("drain_packets_injected_total", s.injected);
        m.counter("drain_packets_ejected_total", s.ejected);
        m.histogram("drain_net_latency_cycles", s.net_latency.snapshot());
        m.histogram("drain_total_latency_cycles", s.total_latency.snapshot());
        m.counter("drain_hops_total", s.hops);
        m.counter("drain_misroutes_total", s.misroutes);
        m.counter("drain_forced_hops_total", s.forced_hops);
        m.counter("drain_flit_hops_total", s.flit_hops);
        m.counter("drain_drains_total", s.drains);
        m.counter("drain_full_drains_total", s.full_drains);
        m.counter("drain_spins_total", s.spins);
        m.counter("drain_probe_hops_total", s.probe_hops);
        m.counter("drain_deadlocks_detected_total", s.deadlocks_detected);
        m.counter("drain_oracle_resolutions_total", s.oracle_resolutions);
        let w = self.core.wake_counters();
        for (event, v) in [
            ("parks", w.parks),
            ("skips", w.skips),
            ("wakes", w.wakes),
            ("spurious_wakes", w.spurious_wakes),
            ("wake_alls", w.wake_alls),
            ("stalls", w.stalls),
        ] {
            m.counter_labeled("drain_wake_events_total", &[("event", event)], v);
        }
        // A family of its own: a label added to `drain_wake_events_total`
        // would break readers that match its label set exactly.
        for (event, v) in [("parks", w.injection_parks), ("skips", w.injection_skips)] {
            m.counter_labeled("drain_wake_injection_events_total", &[("event", event)], v);
        }
        let work = self.core.kernel_work();
        for (unit, v) in [
            ("heads_visited", work.heads_visited),
            ("ports_probed", work.ports_probed),
        ] {
            m.counter_labeled("drain_kernel_work_total", &[("unit", unit)], v);
        }
        for (site, v) in crate::rng::DrawSite::ALL
            .iter()
            .zip(self.core.rng_draw_counts())
        {
            m.counter_labeled("drain_rng_draws_total", &[("site", site.label())], v);
        }
        m.counter_labeled("drain_check_sweeps_total", &[("tier", "cheap")], self.check_sweeps);
        m.counter_labeled("drain_check_sweeps_total", &[("tier", "deep")], self.check_deep_sweeps);
        let telem = self.core.telemetry();
        m.counter("drain_telemetry_samples_taken_total", telem.samples_taken());
        m.counter("drain_telemetry_samples_dropped_total", telem.samples_dropped());
        let tr = self.core.tracer();
        m.counter("drain_trace_events_total", tr.emitted());
        m.counter("drain_trace_sink_errors_total", tr.sink_errors());
        m.gauge("drain_cycle", self.core.cycle() as f64);
        m.gauge("drain_packets_in_network", self.core.packets_in_network() as f64);
        m.gauge("drain_live_packets", self.core.live_packets() as f64);
        m.gauge("drain_ejection_backlog", self.core.ejection_backlog() as f64);
        self.core.profiler().collect(&mut m);
        m
    }

    /// Runs for up to `cycles` cycles — one [`Sim::step`] each — stopping
    /// early on an invariant violation, a deadlock (when
    /// [`Sim::stop_on_deadlock`] is set) or a finished workload.
    pub fn run(&mut self, cycles: u64) -> RunOutcome {
        let end = self.core.cycle() + cycles;
        while self.core.cycle() < end {
            self.step();
            if self.violation.is_some() {
                return RunOutcome::InvariantViolation;
            }
            if self.stop_on_deadlock && self.core.stats.deadlocked() {
                return RunOutcome::Deadlocked;
            }
            if self.endpoints.finished(&self.core) {
                return RunOutcome::WorkloadFinished;
            }
        }
        RunOutcome::BudgetExhausted
    }

    /// Warm up, open the measurement window, then measure — the standard
    /// experiment shape. Returns the outcome of the measurement phase.
    pub fn warmup_and_measure(&mut self, warmup: u64, measure: u64) -> RunOutcome {
        let outcome = self.run(warmup);
        if outcome != RunOutcome::BudgetExhausted {
            return outcome;
        }
        self.open_measurement_window();
        self.run(measure)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("core", &self.core)
            .field("mechanism", &self.mechanism.name())
            .field("endpoints", &self.endpoints.name())
            .finish()
    }
}
