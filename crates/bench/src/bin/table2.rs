//! Table II: key simulation parameters, printed from the live defaults so
//! the table can never drift from the code.

use drain_bench::engine::SweepEngine;
use drain_bench::report::write_csv;
use drain_bench::table::print_table;
use drain_bench::Scale;
use drain_core::DrainConfig;
use drain_netsim::config::{
    CTRL_PACKET_FLITS, DATA_PACKET_FLITS, MAX_PACKET_FLITS, ROUTER_LATENCY,
};
use drain_netsim::SimConfig;

fn main() {
    let engine = SweepEngine::new("table2", Scale::from_env());
    let base = SimConfig::default();
    let drain = SimConfig::drain_default();
    let dcfg = DrainConfig::default();
    let rows = vec![
        vec![
            "Core".into(),
            "64 cores (Ligra models), 16 cores (PARSEC/SPLASH-2 models), 1 GHz".into(),
        ],
        vec![
            "L1 Cache".into(),
            "private; finite capacity + MSHRs (drain-coherence)".into(),
        ],
        vec![
            "Last Level Cache".into(),
            "shared, distributed directory slices, blocking TBEs".into(),
        ],
        vec![
            "Cache Coherence".into(),
            format!("MESI-lite, {} message classes", base.num_classes),
        ],
        vec![
            "Topology".into(),
            "irregular 8x8 mesh (Ligra/synthetic), irregular 4x4 mesh (PARSEC/SPLASH-2)".into(),
        ],
        vec![
            "Routing".into(),
            "DoR (regular mesh escape VC), up*/down* (irregular escape VC), fully adaptive random (SPIN, DRAIN)".into(),
        ],
        vec![
            "Router Latency".into(),
            format!("{ROUTER_LATENCY} cycle"),
        ],
        vec![
            "Virtual Networks".into(),
            format!(
                "{}-VNet (EscapeVC, SPIN), {}-VNet (DRAIN), {} VCs/VNet",
                base.vns, drain.vns, base.vcs_per_vn
            ),
        ],
        vec![
            "Buffers".into(),
            format!(
                "virtual cut-through, single packet per VC, data {DATA_PACKET_FLITS} flits / ctrl {CTRL_PACKET_FLITS} flit"
            ),
        ],
        vec!["Link Bandwidth".into(), "128 bits/cycle".into()],
        vec![
            "Faults".into(),
            "0, 8 (applications); 0, 1, 4, 8, 12 (synthetic)".into(),
        ],
        vec![
            "DRAIN epoch".into(),
            format!(
                "{} cycles (pre-drain {MAX_PACKET_FLITS} cycles, full drain every {} windows)",
                dcfg.epoch, dcfg.full_drain_period
            ),
        ],
    ];
    print_table("Table II — key simulation parameters", &["Parameter", "Value"], &rows);
    write_csv("table2", &["parameter", "value"], &rows);
    engine.finish();
}
