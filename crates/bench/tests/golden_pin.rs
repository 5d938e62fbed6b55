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
//! The pinned digests were captured when the open-loop traffic source
//! moved onto the keyed draws (the kernel's own draws were keyed before
//! that). The wake scheduler and the phase profiler (sampling in-process
//! through `Sim::set_profile_period`) are held to the same constants:
//! every cell must reproduce the digests bit for bit.
//!
//! If a *deliberate* behaviour change invalidates them, re-capture with
//! `cargo test -p drain-bench --test golden_pin -- --nocapture` (each test
//! prints the digests it observed) and explain the re-pin in the PR.

use drain_bench::scheme::DrainVariant;
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{TraceConfig, TraceSink};
use drain_topology::Topology;

mod common;
use common::run_rerouting;

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
fn saturated_trace_digest(scheme: Scheme, profile_period: u64) -> u64 {
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
/// (every counter plus both full latency histograms), run by `Sim::run`
/// (`wake`) or as the dense scan (`run_rerouting`), at the profiler
/// cadence (0 = off) chosen by the caller.
fn saturated_stats_digest(scheme: Scheme, wake: bool, profile_period: u64) -> u64 {
    let topo = Topology::mesh(8, 8);
    let mut sim = scheme.synthetic_sim(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.40,
        17,
        Scheme::DEFAULT_EPOCH,
    );
    sim.set_profile_period(profile_period);
    if wake { sim.run(2_000) } else { run_rerouting(&mut sim, 2_000) };
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
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, 0)))
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
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, true, 0)))
        .collect();
    for (id, d) in &got {
        println!("stats {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_STATS,
        "saturated stats drifted from the pinned digests"
    );
}

/// The stats pin must hold with the wake scheduler parking heads and with
/// the dense scan (every head re-routed every cycle). Draws depend only
/// on the key, never on which heads were actually routed, so both cells
/// hash identically. Run on the drain
/// scheme (the only one exercising all mechanism paths); the per-scheme
/// pins above cover the other schemes.
#[test]
fn stats_pins_hold_with_wake_and_dense() {
    let pinned = PINNED_STATS[2].1;
    for wake in [true, false] {
        let d = saturated_stats_digest(Scheme::Drain(DrainVariant::Vn1Vc2), wake, 0);
        println!("stats wake={wake}: {d:#018x}");
        assert_eq!(d, pinned, "stats diverged at wake={wake}");
    }
}

/// The phase profiler is a pure observer: with it sampling every 64th
/// cycle, every headline scheme must still reproduce both pin families.
#[test]
fn pins_hold_with_the_profiler_sampling() {
    let trace: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, 64)))
        .collect();
    assert_eq!(trace, PINNED_TRACE, "profiling moved the trace bytes");
    let stats: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, true, 64)))
        .collect();
    assert_eq!(stats, PINNED_STATS, "profiling moved the stats");
}
