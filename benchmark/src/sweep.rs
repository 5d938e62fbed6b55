//! `sweep_fig10q`: the only workload where runner, cache and JSON do the
//! work. One repetition plans the fig10 quick grid, pre-fills a cache
//! with synthetic points through `ResultCache::store` (the "null
//! simulation": the replay then costs lookups and JSON only), runs the
//! 21-point slice cold through `SweepEngine::run_points`, and replays the
//! 630-spec grid fully cached.

use std::path::Path;

use drain_bench::cache::ResultCache;
use drain_bench::engine::SweepEngine;
use drain_bench::json;
use drain_bench::report::RunReport;
use drain_bench::sweep::plan::PointSpec;
use drain_bench::sweep::Point as SweepPoint;
use drain_bench::Scale;

use crate::spans::Recorder;
use crate::workloads::fig10_quick_grid;

/// Timings and engine accounting of one repetition.
pub struct SweepRep {
    pub plan_s: f64,
    pub store_s: f64,
    pub cold_s: f64,
    /// One per replay.
    pub warm_s: Vec<f64>,
    /// Traced pass only.
    pub lookup_s: f64,
    pub encode_s: f64,
    pub parse_s: f64,
    /// Specs of the replayed grid; every replay was checked to hit them all.
    pub grid_len: usize,
    pub cold: RunReport,
}

/// Cached replays per repetition.
const WARM_REPLAYS: usize = 5;

fn synthetic_point(i: usize, spec: &PointSpec) -> SweepPoint {
    SweepPoint {
        offered: spec.rate,
        throughput: spec.rate * 0.9,
        latency: 20.0 + i as f64 * 0.25,
        p99: 50 + i as u64,
    }
}

/// One repetition inside `dir` (emptied again before returning).
/// `reference[i]` is what simulating `slice[i]` by hand gave: the cold
/// engine must return exactly that.
pub fn sweep_rep(
    rec: &mut Recorder,
    slice: &[PointSpec],
    reference: &[SweepPoint],
    seed: u64,
    threads: usize,
    dir: &Path,
    traced: bool,
) -> Result<SweepRep, String> {
    rec.point = "sweep".into();
    let (rep, _) = rec.span("sweep", |rec| -> Result<SweepRep, String> {
        let (grid, plan_s) = rec.span("load_sweep_specs", |_| fig10_quick_grid(seed));
        let warm_dir = dir.join("warm");
        let cold_dir = dir.join("cold");
        let cache = ResultCache::at(&warm_dir);
        let synthetic: Vec<SweepPoint> = grid
            .iter()
            .enumerate()
            .map(|(i, s)| synthetic_point(i, s))
            .collect();
        let mut store_s = 0.0;
        for (spec, point) in grid.iter().zip(&synthetic) {
            store_s += rec
                .span("ResultCache::store", |_| cache.store(spec, point))
                .1;
        }

        let mut engine = SweepEngine::with(
            "bench-cold",
            Scale::Quick,
            threads,
            ResultCache::at(&cold_dir),
        );
        let (points, cold_s) = rec.span("SweepEngine::run_points", |_| engine.run_points(slice));
        let cold = engine.report();
        if points != reference {
            return Err("cold engine points differ from the points simulated by hand".into());
        }
        if cold.simulated != slice.len() || cold.cache_hits != 0 {
            return Err(format!(
                "cold run simulated {} and hit {} of {}",
                cold.simulated,
                cold.cache_hits,
                slice.len()
            ));
        }

        // The replay takes milliseconds of file reads: several per
        // repetition, or its floor rests on too few samples.
        let mut warm_s = Vec::new();
        for _ in 0..WARM_REPLAYS {
            let mut engine = SweepEngine::with(
                "bench-warm",
                Scale::Quick,
                threads,
                ResultCache::at(&warm_dir),
            );
            let (replayed, s) = rec.span("SweepEngine::run_points", |_| engine.run_points(&grid));
            warm_s.push(s);
            let report = engine.report();
            if replayed != synthetic {
                return Err("cached replay is not bit-identical to the stored points".into());
            }
            if report.cache_hits != grid.len() || report.simulated != 0 {
                return Err(format!(
                    "cached replay hit {} and simulated {} of {}",
                    report.cache_hits,
                    report.simulated,
                    grid.len()
                ));
            }
        }

        let (mut lookup_s, mut encode_s, mut parse_s) = (0.0, 0.0, 0.0);
        if traced {
            for (spec, point) in grid.iter().zip(&synthetic) {
                let (found, s) = rec.span("ResultCache::lookup", |_| cache.lookup(spec));
                lookup_s += s;
                if found.as_ref() != Some(point) {
                    return Err("ResultCache::lookup lost a stored point".into());
                }
            }
            let (text, s) = rec.span("RunReport::to_json", |_| cold.to_json());
            encode_s = s;
            let (parsed, s) = rec.span("json::parse", |_| json::parse(&text));
            parse_s = s;
            let parsed = parsed.map_err(|e| format!("RunReport JSON does not parse: {e}"))?;
            if parsed.get("total_points").and_then(|v| v.as_u64()) != Some(slice.len() as u64) {
                return Err("RunReport JSON lost total_points".into());
            }
        }
        Ok(SweepRep {
            plan_s,
            store_s,
            cold_s,
            warm_s,
            lookup_s,
            encode_s,
            parse_s,
            grid_len: grid.len(),
            cold,
        })
    });
    let _ = std::fs::remove_dir_all(dir);
    rep
}
