//! Fig 14: DRAIN epoch sensitivity — low-load latency and saturation
//! throughput for epochs from 16 to 64K cycles (uniform random, 8×8
//! mesh), plus the paper's footnote-3 ablation: hops per drain window.
//!
//! Paper shape: a 16-cycle epoch thrashes the network with continuous
//! misrouting; latency falls and throughput rises monotonically with the
//! epoch; draining more than one hop per window never helps.

use drain_bench::engine::SweepEngine;
use drain_bench::report::write_csv;
use drain_bench::scheme::DrainVariant;
use drain_bench::sweep::plan::{load_sweep_specs, PointSpec, TopoSpec};
use drain_bench::sweep::{low_load_latency, saturation_throughput};
use drain_bench::table::{banner, f1, f3, print_table};
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::TraceConfig;

fn main() {
    let scale = Scale::from_env();
    banner("Fig 14", "epoch sensitivity (uniform random, 8x8)", scale);
    let mut engine = SweepEngine::new("fig14", scale);
    let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
    let topo = TopoSpec::Mesh { w: 8, h: 8 };
    let epochs: &[u64] = &[16, 64, 256, 1_024, 4_096, 16_384, 65_536];

    // One full load sweep per epoch; the lowest swept rate (2%) doubles
    // as the low-load latency measurement.
    let specs: Vec<PointSpec> = epochs
        .iter()
        .flat_map(|&epoch| {
            load_sweep_specs(
                drain,
                &topo,
                &SyntheticPattern::UniformRandom,
                7,
                epoch,
                scale,
            )
        })
        .collect();
    let points = engine.run_points(&specs);

    let mut sweeps = points.chunks(scale.rate_sweep().len());
    let mut rows = Vec::new();
    for &epoch in epochs {
        let pts = sweeps.next().expect("grid order");
        rows.push(vec![
            epoch.to_string(),
            f1(low_load_latency(pts)),
            f3(saturation_throughput(pts)),
        ]);
    }
    print_table(
        "Fig 14 — latency/throughput vs epoch",
        &["epoch (cycles)", "low-load latency", "saturation throughput"],
        &rows,
    );
    write_csv(
        "fig14",
        &["epoch_cycles", "low_load_latency", "saturation_throughput"],
        &rows,
    );

    // Ablation: hops per drain window (paper footnote 3: >1 always
    // worse). Needs the forced-hops counter, which a cached Point does
    // not carry, so these run as plain jobs.
    let built = topo.build();
    let hop_settings = [1u32, 2, 4];
    let results = engine.run_jobs(
        &hop_settings,
        |&hops| {
            let mut sim = drain.synthetic_sim_traced(
                &built,
                true,
                SyntheticPattern::UniformRandom,
                0.02,
                9,
                1_024,
                hops,
                TraceConfig::default(),
            );
            sim.warmup_and_measure(scale.warmup(), scale.measure());
            (sim.stats().net_latency.mean(), sim.stats().forced_hops)
        },
        |_, _| scale.warmup() + scale.measure(),
    );
    let mut rows = Vec::new();
    for (&hops, &(lat, forced)) in hop_settings.iter().zip(&results) {
        rows.push(vec![hops.to_string(), f1(lat), forced.to_string()]);
    }
    print_table(
        "Fig 14 ablation — hops per drain window (epoch 1024, 2% load)",
        &["hops/drain", "low-load latency", "forced hops"],
        &rows,
    );
    write_csv(
        "fig14_ablation",
        &["hops_per_drain", "low_load_latency", "forced_hops"],
        &rows,
    );
    println!("\nPaper shape: frequent draining (16-cycle epoch) hurts both metrics; draining is best done rarely; one hop per window wins.");
    engine.finish();
}
