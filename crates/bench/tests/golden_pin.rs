//! Cross-refactor golden pins for the simulator kernel.
//!
//! Unlike `golden_trace.rs` (which proves *self*-consistency: identical
//! bytes across reruns and worker-thread counts), these tests pin the
//! kernel's observable behaviour to constants captured from a known-good
//! build. Any data-layout or allocation-order rework that silently drifts
//! the keyed draws (`drain_netsim::rng`: mixer, draw-site keys, slot
//! identities), the allocation order, or the trace stream fails here even
//! though it would still be self-consistent.
//!
//! The pinned digests were captured on the serial kernel when the
//! open-loop traffic source moved onto the keyed draws (PR 24; the kernel's
//! own draws have been keyed since PR 10). The sharded kernel, the wake
//! scheduler and the phase profiler (sampling in-process through
//! `Sim::set_profile_period`) are held to the same constants: every cell
//! must reproduce the digests bit for bit.
//!
//! If a *deliberate* behaviour change invalidates them, re-capture with
//! `cargo test -p drain-bench --test golden_pin -- --nocapture` (each test
//! prints the digests it observed) and explain the re-pin in the PR.

use drain_bench::scheme::DrainVariant;
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{TraceConfig, TraceSink};
use drain_topology::Topology;

/// FNV-1a, dependency-free (the workspace builds offline).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The three headline schemes with stable directory-safe ids.
fn headline() -> [(&'static str, Scheme); 3] {
    [
        ("escapevc", Scheme::EscapeVc),
        ("spin", Scheme::Spin),
        ("drain", Scheme::Drain(DrainVariant::Vn1Vc2)),
    ]
}

/// Digest of a saturated traced run: mesh(4,4), 40% uniform-random
/// injection (far past saturation, the bench's `saturated` preset rate),
/// a short drain epoch so forced movement appears in-window, 2 000 cycles
/// of JSONL event bytes. `profile_period` is the phase profiler's cadence
/// (0 = off).
fn saturated_trace_digest(scheme: Scheme, shards: usize, profile_period: u64) -> u64 {
    let topo = Topology::mesh(4, 4);
    let mut sim = scheme.synthetic_sim_traced(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.40,
        17,
        512,
        1,
        TraceConfig::events_on(),
    );
    sim.set_shards(shards);
    sim.set_profile_period(profile_period);
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(2_000);
    let events = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed");
    assert!(
        !events.is_empty(),
        "a saturated traced run must emit events"
    );
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    fnv1a(out.as_bytes())
}

/// Digest of a saturated untraced run's full statistics: mesh(8,8) (the
/// bench topology), 40% injection, 2 000 cycles, `Stats` debug-formatted
/// (every counter plus both full latency histograms), with the shard
/// count, wake scheduler and profiler cadence (0 = off) chosen by the
/// caller.
fn saturated_stats_digest(scheme: Scheme, shards: usize, wake: bool, profile_period: u64) -> u64 {
    let topo = Topology::mesh(8, 8);
    let mut sim = scheme.synthetic_sim(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.40,
        17,
        Scheme::DEFAULT_EPOCH,
    );
    sim.set_shards(shards);
    sim.set_wake_scheduler(wake);
    sim.set_profile_period(profile_period);
    sim.run(2_000);
    assert!(
        sim.stats().ejected > 0,
        "saturated run must deliver packets"
    );
    fnv1a(format!("{:?}", sim.stats()).as_bytes())
}

/// Expected per-scheme digests (see module docs).
const PINNED_TRACE: [(&str, u64); 3] = [
    ("escapevc", 0x9d8b_c366_c228_068c),
    ("spin", 0xa023_0ba7_e9fb_3465),
    ("drain", 0x8d0e_754d_e8db_4207),
];

const PINNED_STATS: [(&str, u64); 3] = [
    ("escapevc", 0xaa9a_a906_08f6_7c0a),
    ("spin", 0xf997_ab0e_87d5_d93c),
    ("drain", 0xa0b1_0522_dad9_cec3),
];

#[test]
fn saturated_golden_trace_is_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, 1, 0)))
        .collect();
    for (id, d) in &got {
        println!("trace {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_TRACE,
        "saturated trace bytes drifted from the pinned digests"
    );
}

#[test]
fn saturated_stats_are_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, 1, true, 0)))
        .collect();
    for (id, d) in &got {
        println!("stats {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_STATS,
        "saturated stats drifted from the pinned digests"
    );
}

/// The 4-shard kernel must reproduce the *same* pinned trace digests the
/// serial kernel was captured with — not merely be self-consistent.
#[test]
fn four_shard_golden_trace_matches_serial_pins() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, 4, 0)))
        .collect();
    for (id, d) in &got {
        println!("trace k4 {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_TRACE,
        "4-shard trace bytes drifted from the serial kernel's pinned digests"
    );
}

/// Same pin on statistics: 4-shard saturated runs must hash to the serial
/// kernel's pinned constants.
#[test]
fn four_shard_stats_match_serial_pins() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, 4, true, 0)))
        .collect();
    for (id, d) in &got {
        println!("stats k4 {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_STATS,
        "4-shard stats drifted from the serial kernel's pinned digests"
    );
}

/// The stats pin must hold across the full determinism matrix: shard
/// count K ∈ {1, 2, 4, 8} × wake scheduler on/off. Draws depend only on
/// the key, never on visit order or which heads were actually routed, so
/// every cell hashes identically. Run on the drain scheme (the only one
/// exercising all mechanism paths); the per-scheme serial pins above
/// cover the other schemes.
#[test]
fn stats_pins_hold_across_shards_and_wake() {
    let pinned = PINNED_STATS[2].1;
    for shards in [1usize, 2, 4, 8] {
        for wake in [true, false] {
            let d = saturated_stats_digest(Scheme::Drain(DrainVariant::Vn1Vc2), shards, wake, 0);
            println!("stats k{shards} wake={wake}: {d:#018x}");
            assert_eq!(d, pinned, "stats diverged at shards={shards} wake={wake}");
        }
    }
}

/// The phase profiler is a pure observer: with it sampling every 64th
/// cycle, every headline scheme must still reproduce both pin families.
#[test]
fn pins_hold_with_the_profiler_sampling() {
    let trace: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, 1, 64)))
        .collect();
    assert_eq!(trace, PINNED_TRACE, "profiling moved the trace bytes");
    let stats: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, 1, true, 64)))
        .collect();
    assert_eq!(stats, PINNED_STATS, "profiling moved the stats");
}
