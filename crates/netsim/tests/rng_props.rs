//! Property tests for the keyed counter-based RNG.
//!
//! The determinism contract (see `drain_netsim::rng`) promises that a
//! draw is a pure function of `(seed, cycle, site, id)` — nothing else.
//! Two consequences are load-bearing enough to pin as properties rather
//! than examples:
//!
//! * **visit-order invariance**: evaluating any set of draw keys in any
//!   permutation yields identical values per key;
//! * **skip invariance**: on an arbitrary connected topology, the wake
//!   scheduler's skipped visits change nothing but the number of routing
//!   draws, which can only fall — a parked head draws nothing, and every
//!   head it does route draws the dense scan's sample.
//!
//! The open-loop source draws from the same function, so its statistical
//! contract is checked here too: per-node Bernoulli frequency, uniform
//! destinations, and an offered sequence that does not depend on the
//! network it is offered to.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use drain_netsim::mechanism::NoMechanism;
use drain_netsim::rng::{mix, NUM_DRAW_SITES};
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{Endpoints, SyntheticPattern, SyntheticTraffic};
use drain_netsim::{DrawSite, RunOutcome, Sim, SimConfig, SimCore};
use drain_topology::chiplet::random_connected;
use drain_topology::{NodeId, Topology};

proptest! {
    /// Every key maps to the same value no matter where in the visit
    /// order it is evaluated.
    #[test]
    fn keyed_draws_are_invariant_under_visit_order_permutations(
        seed in any::<u64>(),
        keys_seed in any::<u64>(),
        len in 2usize..128,
    ) {
        // The vendored proptest stub has no collection strategies; derive
        // the key set from a drawn seed instead.
        let mut krng = ChaCha8Rng::seed_from_u64(keys_seed);
        let keys: Vec<(usize, u64, u64)> = (0..len)
            .map(|_| (krng.gen_range(0..NUM_DRAW_SITES), krng.gen(), krng.gen()))
            .collect();
        let shuffled = {
            // Deterministic permutation derived from the seed: rotate +
            // reverse, which differs from the identity for len >= 2.
            let mut s = keys.clone();
            let pivot = (seed as usize) % s.len();
            s.rotate_left(pivot);
            s.reverse();
            s
        };
        let eval = |order: &[(usize, u64, u64)]| -> Vec<((usize, u64, u64), u64)> {
            order
                .iter()
                .map(|&(s, cycle, id)| ((s, cycle, id), mix(seed, cycle, DrawSite::ALL[s], id)))
                .collect()
        };
        let mut a = eval(&keys);
        let mut b = eval(&shuffled);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// [`Sim::run`] with every parked head woken before every cycle, so each
/// head is re-routed every cycle: the dense scan the wake differential
/// holds the default run to. Returns what `Sim::run` would.
fn run_rerouting(sim: &mut Sim, cycles: u64) -> RunOutcome {
    for _ in 0..cycles {
        sim.core_mut().wake_all();
        let outcome = sim.run(1);
        if outcome != RunOutcome::BudgetExhausted {
            return outcome;
        }
    }
    RunOutcome::BudgetExhausted
}

/// One run by `Sim::run` (`wake`) or as the dense scan
/// (`run_rerouting`): full debug-formatted statistics, final cycle, and
/// per-site draw counts.
fn keyed_run(
    topo: &drain_topology::Topology,
    sim_seed: u64,
    wake: bool,
) -> (String, u64, [u64; NUM_DRAW_SITES]) {
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 2,
        num_classes: 1,
        seed: sim_seed,
        watchdog_threshold: 0,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::new(topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            0.20,
            1,
            sim_seed ^ 0x9E37,
        )),
    );
    if wake { sim.run(800) } else { run_rerouting(&mut sim, 800) };
    (
        format!("{:?}", sim.stats()),
        sim.core().cycle(),
        sim.core().rng_draw_counts(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The wake scheduler is invisible on an arbitrary connected
    /// topology: identical statistics and final cycle to the dense scan,
    /// at most its Phase A and injection draws, and exactly its traffic
    /// draws.
    #[test]
    fn keyed_wake_run_matches_dense_on_arbitrary_topologies(
        n in 4u16..=20,
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
    ) {
        let topo = random_connected(n, 3.0, topo_seed);
        let (dense_stats, dense_cycle, dense_draws) = keyed_run(&topo, sim_seed, false);
        let (wake_stats, wake_cycle, wake_draws) = keyed_run(&topo, sim_seed, true);
        prop_assert_eq!(wake_stats, dense_stats);
        prop_assert_eq!(wake_cycle, dense_cycle);
        for site in DrawSite::ALL {
            let (w, d) = (wake_draws[site.index()], dense_draws[site.index()]);
            match site {
                DrawSite::PhaseA | DrawSite::Injection => prop_assert!(
                    w <= d,
                    "{} draws: wake {} > dense {}", site.label(), w, d
                ),
                DrawSite::Traffic | DrawSite::TrafficDest => prop_assert_eq!(w, d),
            }
        }
    }
}

/// Per-node injection frequency is Bernoulli(`rate`): within 4σ over 10⁵
/// cycles at a low, a saturating and the always-on rate; a zero rate never
/// injects, and `stop_injection_at(t)` cuts at cycle `t` exactly.
#[test]
fn injection_frequency_matches_the_rate_per_node() {
    const CYCLES: u64 = 100_000;
    for rate in [0.005, 0.25, 1.0, 0.0] {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, rate, 1, 0x5EED);
        let sigma = (CYCLES as f64 * rate * (1.0 - rate)).sqrt();
        for node in [0u16, 1, 17, 63] {
            let hits = (0..CYCLES)
                .filter(|&c| traffic.injects(c, NodeId(node)))
                .count() as f64;
            assert!(
                (hits - CYCLES as f64 * rate).abs() <= 4.0 * sigma,
                "node {node} at rate {rate}: {hits} injections in {CYCLES} cycles"
            );
        }
    }
    let stopped =
        SyntheticTraffic::new(SyntheticPattern::Neighbor, 1.0, 1, 3).stop_injection_at(40);
    assert!(stopped.injects(39, NodeId(2)));
    assert!(!stopped.injects(40, NodeId(2)));
}

/// Uniform-random destinations never name the source and spread evenly
/// over the other 63 nodes of a mesh(8,8) (χ², 62 degrees of freedom:
/// 130 is past the 10⁻⁶ tail).
#[test]
fn uniform_destinations_skip_the_source_and_are_uniform() {
    let topo = Topology::mesh(8, 8);
    let draws = 63_000u64;
    for src in [0u16, 31, 63] {
        let mut counts = [0u64; 64];
        for cycle in 0..draws {
            let sample = mix(0xD357, cycle, DrawSite::TrafficDest, u64::from(src));
            let dest = SyntheticPattern::UniformRandom
                .dest(&topo, NodeId(src), sample)
                .expect("63 other nodes");
            counts[dest.index()] += 1;
        }
        assert_eq!(counts[src as usize], 0, "node {src} addressed itself");
        let expect = draws as f64 / 63.0;
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != src as usize)
            .map(|(_, &c)| (c as f64 - expect).powi(2) / expect)
            .sum();
        assert!(
            chi2 < 130.0,
            "destinations of node {src} are not uniform: χ² = {chi2:.1}"
        );
    }
}

/// Records what the wrapped source managed to enqueue: every packet born
/// this cycle, as `(cycle, src, dest, tag)`.
struct BirthLog {
    inner: SyntheticTraffic,
    births: Vec<(u64, u16, u16, u64)>,
}

impl Endpoints for BirthLog {
    fn name(&self) -> &str {
        "birth-log"
    }
    fn pre_cycle(&mut self, core: &mut SimCore) {
        self.inner.pre_cycle(core);
        let now = core.cycle();
        let born = core
            .live_packet_iter()
            .filter(|(_, p)| p.birth_cycle == now)
            .map(|(_, p)| (now, p.src.0, p.dest.0, p.tag));
        self.births.extend(born);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The offered traffic is a function of `(seed, cycle, node)` alone: a
/// network that refuses most packets (one-entry injection queues) is
/// offered exactly what a network that takes them all is. The `tag` is
/// the attempt's sequence number, stamped whether or not the queue had
/// room, so equal tags are the same attempt.
#[test]
fn offered_traffic_does_not_depend_on_congestion() {
    let topo = Topology::mesh(4, 4);
    let births = |inj_queue_capacity: usize| {
        let config = SimConfig {
            vns: 1,
            vcs_per_vn: 2,
            num_classes: 1,
            watchdog_threshold: 0,
            inj_queue_capacity,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo.clone(),
            config,
            FullyAdaptive::new(&topo),
            Box::new(NoMechanism),
            Box::new(BirthLog {
                inner: SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.6, 1, 77),
                births: Vec::new(),
            }),
        );
        sim.run(600);
        let mut births = sim
            .endpoints_as::<BirthLog>()
            .expect("birth log")
            .births
            .clone();
        births.sort_unstable_by_key(|b| b.3);
        (births, sim.core().rng_draw_counts())
    };
    let (roomy, roomy_draws) = births(1 << 20);
    let (cramped, cramped_draws) = births(1);
    // The roomy network took every attempt: tags 1..=N with no gap.
    assert!(roomy.iter().map(|b| b.3).eq(1..=roomy.len() as u64));
    // One injection draw per node per cycle, one destination draw per
    // attempt — whatever became of the attempt.
    for draws in [roomy_draws, cramped_draws] {
        assert_eq!(draws[DrawSite::Traffic.index()], 16 * 600);
        assert_eq!(draws[DrawSite::TrafficDest.index()], roomy.len() as u64);
    }
    assert!(
        cramped.len() * 10 < roomy.len() * 9,
        "one-entry queues must refuse a good share ({} of {})",
        cramped.len(),
        roomy.len()
    );
    for b in &cramped {
        assert_eq!(
            roomy[b.3 as usize - 1],
            *b,
            "attempt {} differs under congestion",
            b.3
        );
    }
}
