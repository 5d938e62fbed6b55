//! Fig 13: PARSEC + SPLASH-2 workload models on a 16-node mesh — packet
//! latency and runtime normalized to escape VCs, 0 and 8 faults.

use drain_bench::apps::{app_jobs, average, AppJob, AppRun};
use drain_bench::engine::SweepEngine;
use drain_bench::report::write_csv;
use drain_bench::scheme::DrainVariant;
use drain_bench::table::{banner, f3, print_table};
use drain_bench::{Scale, Scheme};
use drain_topology::Topology;
use drain_workloads::{parsec, splash2};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Fig 13",
        "PARSEC/SPLASH-2 models: latency & runtime normalized to EscapeVC (4x4)",
        scale,
    );
    let mut engine = SweepEngine::new("fig13", scale);
    let base = Topology::mesh(4, 4);
    let mut apps = parsec();
    apps.extend(splash2());
    let apps = match scale {
        Scale::Quick => apps.into_iter().take(4).collect::<Vec<_>>(),
        Scale::Full => apps,
    };
    // EscapeVC first: every cell is normalized against it.
    let schemes = [
        Scheme::EscapeVc,
        Scheme::Spin,
        Scheme::Drain(DrainVariant::Vn3Vc2),
        Scheme::Drain(DrainVariant::Vn1Vc6),
        Scheme::Drain(DrainVariant::Vn1Vc2),
    ];
    let mut csv_rows = Vec::new();
    for faults in [0usize, 8] {
        let mut jobs: Vec<AppJob> = Vec::new();
        for app in &apps {
            for s in schemes {
                jobs.extend(app_jobs(s, &base, faults, app, scale));
            }
        }
        let runs = engine.run_jobs(&jobs, AppJob::run, |_, r: &AppRun| r.cycles);

        let mut cells = runs.chunks(scale.seeds()).map(average);
        let mut lat_rows = Vec::new();
        let mut rt_rows = Vec::new();
        for app in &apps {
            let esc = cells.next().expect("grid order");
            let mut lat_row = vec![app.name.to_string()];
            let mut rt_row = vec![app.name.to_string()];
            for _s in &schemes[1..] {
                let r = cells.next().expect("grid order");
                lat_row.push(f3(r.latency / esc.latency));
                rt_row.push(f3(r.runtime / esc.runtime));
            }
            csv_rows.push(
                [faults.to_string(), "latency".into()]
                    .into_iter()
                    .chain(lat_row.iter().cloned())
                    .collect(),
            );
            csv_rows.push(
                [faults.to_string(), "runtime".into()]
                    .into_iter()
                    .chain(rt_row.iter().cloned())
                    .collect(),
            );
            lat_rows.push(lat_row);
            rt_rows.push(rt_row);
        }
        let header = [
            "app",
            "SPIN",
            "DRAIN VN-3,VC-2",
            "DRAIN VN-1,VC-6",
            "DRAIN VN-1,VC-2",
        ];
        print_table(
            &format!("Fig 13 — packet latency vs EscapeVC ({faults} faults)"),
            &header,
            &lat_rows,
        );
        print_table(
            &format!("Fig 13 — runtime vs EscapeVC ({faults} faults)"),
            &header,
            &rt_rows,
        );
    }
    let csv_header: Vec<&str> = ["faults", "metric", "app"]
        .into_iter()
        .chain(schemes[1..].iter().map(|s| s.key()))
        .collect();
    write_csv("fig13", &csv_header, &csv_rows);
    println!("\nPaper shape: DRAIN ≈ SPIN across apps; default DRAIN trades packet latency, not runtime.");
    engine.finish();
}
