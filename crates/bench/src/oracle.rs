//! Differential oracle: DRAIN vs. a trusted baseline on identical traffic.
//!
//! The soundness argument: [`SyntheticTraffic`] is open-loop and its
//! generation stream is independent of network state (injection queues are
//! effectively unbounded, so `try_enqueue_packet` never drops), so two
//! schemes built on the same topology, pattern, rate and seed generate the
//! *identical* multiset of packets. If both schemes are deadlock-free and
//! injection stops at a known cycle, both must eventually deliver exactly
//! that multiset — any divergence (a lost, duplicated or phantom packet)
//! convicts one of the schemes. Deliveries are fingerprinted by
//! [`RecordingEndpoints`] and compared in canonical order.
//!
//! Both legs also run with the full runtime invariant checks of
//! [`drain_netsim::check`] enabled (recording, not panicking), so a run
//! can fail three ways: an invariant violation inside either leg, a leg
//! failing to drain within its cycle budget, or a delivery-multiset
//! mismatch between the legs.
//!
//! [`FaultSeed::SkewTurnTable`] deliberately corrupts the DRAIN leg's
//! turn-table (through the drainpath crate's test-only hook) to prove the
//! detection path works end-to-end: the forced-move validator must reject
//! the first drain window with a replayable report.

use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use std::path::{Path, PathBuf};

use drain_netsim::{
    CheckConfig, PacketFingerprint, RecordingEndpoints, RunOutcome, Sim, SimConfig, TraceConfig,
    Violation,
};
use drain_path::DrainPath;
use drain_topology::{LinkId, Topology};

use crate::scheme::{DrainVariant, Scheme, SYNTHETIC_TRAFFIC_SALT};

/// Deliberate fault injection into the DRAIN leg (detection-path tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSeed {
    /// Healthy run.
    None,
    /// Replace every turn-table entry `next(l)` by `next(next(l))` of the
    /// healthy table: every forced drain move then tries to pivot one
    /// router downstream of where its packet actually sits, which the
    /// forced-move validator must reject.
    SkewTurnTable,
}

/// One differential comparison's parameters.
#[derive(Clone, Debug)]
pub struct OracleSpec {
    /// Traffic pattern (shared by both legs).
    pub pattern: SyntheticPattern,
    /// Per-node injection probability.
    pub rate: f64,
    /// Seed for traffic and both cores.
    pub seed: u64,
    /// DRAIN epoch (kept short so fuzz runs exercise many drain windows).
    pub epoch: u64,
    /// DRAIN full-drain period in windows (0 disables full drains).
    pub full_drain_period: u64,
    /// Injection stops after this many cycles; the rest of the budget
    /// drains the network.
    pub inject_cycles: u64,
    /// Extra cycles after injection stops for both legs to deliver
    /// everything.
    pub drain_budget: u64,
    /// The trusted reference scheme.
    pub baseline: Scheme,
    /// When set, both legs run with event tracing on and dump a flight
    /// record into this directory on failure (see
    /// [`drain_netsim::trace`]); the dump path lands in
    /// [`LegReport::flight_record`].
    pub flightrec_dir: Option<PathBuf>,
}

impl OracleSpec {
    /// Forward-progress horizon for the invariant checker: a healthy DRAIN
    /// network can stay frozen for at most a few epochs before the next
    /// drain forces movement.
    pub fn progress_horizon(&self) -> u64 {
        4 * self.epoch + 16_384
    }

    /// Total cycle budget per leg.
    pub fn budget(&self) -> u64 {
        self.inject_cycles + self.drain_budget
    }
}

/// What one leg (scheme) of the comparison did.
#[derive(Clone, Debug)]
pub struct LegReport {
    /// Scheme label ("drain" or the baseline's name).
    pub scheme: &'static str,
    /// How the bounded run ended.
    pub outcome: RunOutcome,
    /// Cycles actually simulated.
    pub cycles: u64,
    /// Packets generated by the traffic source.
    pub generated: u64,
    /// Delivery fingerprints in canonical (sorted) order.
    pub delivered: Vec<PacketFingerprint>,
    /// The invariant violation that stopped the leg, if any.
    pub violation: Option<Violation>,
    /// Flight-recorder dump written by the leg, if it failed and
    /// [`OracleSpec::flightrec_dir`] was configured.
    pub flight_record: Option<PathBuf>,
}

/// Outcome of one differential comparison.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// The DRAIN leg.
    pub drain: LegReport,
    /// The reference leg.
    pub baseline: LegReport,
    /// Everything wrong with the run: leg violations, budget exhaustion,
    /// traffic divergence, delivery-multiset mismatches. Empty = pass.
    pub failures: Vec<String>,
}

impl OracleReport {
    /// Whether the comparison passed cleanly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn checked_config(mut config: SimConfig, spec: &OracleSpec) -> SimConfig {
    config.num_classes = 1;
    config.watchdog_threshold = 0;
    config.seed = spec.seed;
    if let Some(dir) = &spec.flightrec_dir {
        config.trace = TraceConfig::events_on().with_flight_recorder(dir.clone());
    }
    config
}

fn recording_traffic(spec: &OracleSpec) -> Box<RecordingEndpoints> {
    Box::new(RecordingEndpoints::new(Box::new(
        SyntheticTraffic::new(
            spec.pattern.clone(),
            spec.rate,
            1,
            spec.seed ^ SYNTHETIC_TRAFFIC_SALT,
        )
        .stop_injection_at(spec.inject_cycles),
    )))
}

fn drain_config(spec: &OracleSpec) -> DrainConfig {
    DrainConfig {
        epoch: spec.epoch,
        full_drain_period: spec.full_drain_period,
        ..DrainConfig::default()
    }
}

fn finish_leg(scheme: &'static str, mut sim: Sim, spec: &OracleSpec) -> LegReport {
    // Oracle legs keep the wake-driven Phase A scheduler on (nothing turns
    // it off), so fuzzing — including sabotage injection — soaks the wake
    // graph under the full invariant checker (the deep sweep's
    // missed-wake oracle included).
    sim.set_checks(
        CheckConfig::full()
            .no_panic()
            .with_progress_horizon(spec.progress_horizon()),
    );
    let outcome = sim.run(spec.budget());
    let rec = sim
        .endpoints_as::<RecordingEndpoints>()
        .expect("oracle legs use recording endpoints");
    LegReport {
        scheme,
        outcome,
        cycles: sim.core().cycle(),
        generated: sim.stats().generated,
        delivered: rec.delivered_sorted(),
        violation: sim.violation().cloned(),
        flight_record: sim.flight_record().map(Path::to_owned),
    }
}

/// Wired by hand rather than through [`Scheme::build`]: the sabotage
/// corrupts the turn table before the mechanism is built.
fn run_drain_leg(topo: &Topology, spec: &OracleSpec, fault: FaultSeed) -> LegReport {
    let mut path = DrainPath::compute(topo).expect("connected topology");
    let mut config = checked_config(Scheme::Drain(DrainVariant::Vn1Vc2).config(), spec);
    if fault == FaultSeed::SkewTurnTable {
        // Compute the skew against the healthy table first, then apply.
        let skew: Vec<(LinkId, LinkId)> = topo
            .link_ids()
            .map(|l| (l, path.next_link(path.next_link(l))))
            .collect();
        for (from, to) in skew {
            path.corrupt_turn_for_tests(from, to);
        }
        // A corrupted turn-table is only observable when a drain window
        // forces a move, which needs an occupied escape VC — let packets
        // enter VC 0 freely so every drain window exercises the sabotage.
        config.escape_entry_patience = 0;
    }
    let mech = DrainMechanism::new(path, drain_config(spec));
    let sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::new(topo),
        Box::new(mech),
        recording_traffic(spec),
    );
    finish_leg("drain", sim, spec)
}

fn run_baseline_leg(topo: &Topology, full_mesh: bool, spec: &OracleSpec) -> LegReport {
    let sim = spec
        .baseline
        .build(
            topo,
            full_mesh,
            recording_traffic(spec),
            checked_config(spec.baseline.config(), spec),
            drain_config(spec),
        )
        .expect("connected topology");
    finish_leg(spec.baseline.name(), sim, spec)
}

/// Runs DRAIN and the reference baseline on identical traffic and compares
/// them. With [`FaultSeed::SkewTurnTable`] the DRAIN leg is sabotaged and
/// the caller should expect `drain.violation` to be populated (the
/// failures list will report it).
pub fn run_oracle(
    topo: &Topology,
    full_mesh: bool,
    spec: &OracleSpec,
    fault: FaultSeed,
) -> OracleReport {
    let drain = run_drain_leg(topo, spec, fault);
    let baseline = run_baseline_leg(topo, full_mesh, spec);
    let mut failures = Vec::new();
    for leg in [&drain, &baseline] {
        if let Some(v) = &leg.violation {
            failures.push(format!("{}: {v}", leg.scheme));
        } else if leg.outcome != RunOutcome::WorkloadFinished {
            failures.push(format!(
                "{}: {:?} after {} cycles with only {} of {} packets delivered",
                leg.scheme,
                leg.outcome,
                leg.cycles,
                leg.delivered.len(),
                leg.generated
            ));
        }
    }
    if failures.is_empty() {
        if drain.generated != baseline.generated {
            failures.push(format!(
                "traffic divergence: drain generated {} packets, {} generated {}",
                drain.generated, baseline.scheme, baseline.generated
            ));
        }
        if drain.delivered != baseline.delivered {
            failures.push(format!(
                "delivery multisets differ ({} vs {} deliveries): {}",
                drain.delivered.len(),
                baseline.delivered.len(),
                first_diff(&drain.delivered, &baseline.delivered)
            ));
        }
    }
    OracleReport {
        drain,
        baseline,
        failures,
    }
}

/// Locates the first divergence between two sorted fingerprint sequences.
fn first_diff(a: &[PacketFingerprint], b: &[PacketFingerprint]) -> String {
    for i in 0..a.len().max(b.len()) {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return format!("first divergence at sorted index {i}: drain={x:?} baseline={y:?}")
            }
        }
    }
    "sequences equal".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::plan::TopoSpec;
    use drain_netsim::ViolationKind;

    fn quick_spec(seed: u64) -> OracleSpec {
        OracleSpec {
            pattern: SyntheticPattern::UniformRandom,
            rate: 0.08,
            seed,
            epoch: 512,
            full_drain_period: 8,
            inject_cycles: 1_500,
            drain_budget: 60_000,
            baseline: Scheme::EscapeVc,
            flightrec_dir: None,
        }
    }

    #[test]
    fn drain_matches_escape_vc_on_faulty_mesh() {
        let topo = TopoSpec::FaultyMesh {
            w: 5,
            h: 5,
            faults: 4,
            seed: 11,
        }
        .build();
        let report = run_oracle(&topo, false, &quick_spec(7), FaultSeed::None);
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report.drain.delivered.len() > 100);
        assert_eq!(report.drain.delivered, report.baseline.delivered);
    }

    #[test]
    fn corrupted_turn_table_is_caught_with_replayable_seed() {
        let topo = TopoSpec::FaultyMesh {
            w: 4,
            h: 4,
            faults: 2,
            seed: 3,
        }
        .build();
        // A corrupted turn-table is only observable when a drain window
        // forces a move from an occupied escape VC, so this spec drains
        // aggressively: short epochs with a full drain every window.
        let mut spec = quick_spec(21);
        spec.epoch = 256;
        spec.full_drain_period = 1;
        let report = run_oracle(&topo, false, &spec, FaultSeed::SkewTurnTable);
        let v = report
            .drain
            .violation
            .as_ref()
            .expect("sabotaged drain leg must trip the checker");
        assert_eq!(v.kind, ViolationKind::ForcedMove);
        assert_eq!(v.seed, spec.seed, "violation must carry the replay seed");
        assert!(!report.ok());
        assert_eq!(report.drain.outcome, RunOutcome::InvariantViolation);
    }

    #[test]
    fn seeded_fault_leaves_flight_record_with_violation_and_seed() {
        use drain_netsim::TraceEvent;

        let dir =
            std::env::temp_dir().join(format!("drain-oracle-flightrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = TopoSpec::FaultyMesh {
            w: 4,
            h: 4,
            faults: 2,
            seed: 3,
        }
        .build();
        let mut spec = quick_spec(21);
        spec.epoch = 256;
        spec.full_drain_period = 1;
        spec.flightrec_dir = Some(dir.clone());
        let report = run_oracle(&topo, false, &spec, FaultSeed::SkewTurnTable);
        let path = report
            .drain
            .flight_record
            .as_ref()
            .expect("failed leg persists its flight-record path");
        let text = std::fs::read_to_string(path).unwrap();
        let last = text.lines().last().expect("non-empty dump");
        match TraceEvent::parse_jsonl(last) {
            Ok(TraceEvent::InvariantViolation { seed, .. }) => {
                assert_eq!(seed, spec.seed, "dump carries the replay seed");
            }
            other => panic!("final dump event should be the violation, got {other:?}"),
        }
        assert!(
            report.baseline.flight_record.is_none(),
            "healthy baseline leg leaves no dump"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
