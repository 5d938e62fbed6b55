//! One run of one workload: the repetition loop, the cross-repetition
//! checks, and the metrics.
//!
//! The repetition loop is outermost and the points of the workload are
//! visited inside it, so every point's samples are spread over the whole
//! measuring window. A workload's time is the floor-sum of its points.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use drain_bench::sweep::Point as SweepPoint;

use crate::defs::{MetricDef, END_TO_END, PER_LAYER, PHASES, SCHEME_KEYS};
use crate::measure::{
    build_point, fnv_u64s, fold48, layer_builds, run_point, PhaseNanos, PointRun, Values,
};
use crate::spans::Recorder;
use crate::sweep::{sweep_rep, SweepRep};
use crate::timing::{floor_sum, Samples};
use crate::workloads::{workload, Kind, Workload};

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measuring window in seconds, warm-up repetition included.
    pub seconds: f64,
    pub trace: bool,
    /// One repetition, no warm-up, cycle counts ÷ 10.
    pub quick: bool,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every metric of the pass (`END_TO_END` or `PER_LAYER`), in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The printed rows: per-point detail and floor/median/max/n.
    pub lines: Vec<String>,
    pub reps: usize,
}

/// Fewest timed repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 2;
/// Cycles and interleaved repetitions of the K=1 / K=2 shard probe.
const PROBE_CYCLES: u64 = 1_500;
const PROBE_REPS: usize = 5;

#[derive(Default)]
struct PointAgg {
    setup: Samples,
    scheme_build: Samples,
    run: Samples,
    profiled_run: Samples,
    first: Option<PointRun>,
}

#[derive(Default)]
struct SweepAgg {
    plan: Samples,
    store: Samples,
    cold: Samples,
    warm: Samples,
    lookup: Samples,
    encode: Samples,
    parse: Samples,
    /// The repetition with the fastest cold run.
    best: Option<SweepRep>,
}

struct Run<'a> {
    w: &'a Workload,
    opts: &'a Opts,
    rec: Recorder,
    points: Vec<PointAgg>,
    /// Per topology: seconds by layer metric name.
    layers: Vec<BTreeMap<&'static str, Samples>>,
    layer_counts: Vec<Values>,
    phases: PhaseNanos,
    sweep: SweepAgg,
    shard: Values,
    /// `VmHWM` after the one-at-a-time part of the first repetition
    /// (traced pass).
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Worker threads for the sweep engine and the K=2 probe: 2, or 1 on a
/// one-core host.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

impl Run<'_> {
    /// Runs one operation; a returned error or a panic counts it failed.
    fn attempt<T>(
        &mut self,
        what: &str,
        ops: u64,
        f: impl FnOnce(&mut Recorder) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += ops;
        let depth = self.rec.depth();
        let rec = &mut self.rec;
        let result = catch_unwind(AssertUnwindSafe(|| f(rec))).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Err(format!("panicked: {msg}"))
        });
        self.rec.unwind_to(depth);
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(ops, format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops;
        self.failures.push(msg);
    }

    /// Simulates every point once (twice when traced: plain, then with
    /// the phase profiler on, back to back).
    fn point_pass(&mut self, timed: bool) {
        let w = self.w;
        for (i, p) in w.points.iter().enumerate() {
            let Some(run) = self.attempt(&p.id, 1, |rec| run_point(rec, w, p, false, 1)) else {
                continue;
            };
            if timed {
                let agg = &mut self.points[i];
                agg.setup.push(run.setup_s);
                agg.scheme_build.push(run.scheme_build_s);
                agg.run.push(run.run_s);
            }
            let digest = run.digest;
            match &self.points[i].first {
                None => self.points[i].first = Some(run),
                Some(first) => {
                    if first.digest != digest || first.counts != run.counts {
                        self.fail(1, format!("{}: counts differ between repetitions", p.id));
                    }
                }
            }
            if self.opts.trace {
                let Some(prof) = self.attempt(&p.id, 1, |rec| run_point(rec, w, p, true, 1)) else {
                    continue;
                };
                if prof.digest != digest {
                    self.fail(
                        1,
                        format!("{}: profiled run changed the simulated statistics", p.id),
                    );
                }
                self.points[i].profiled_run.push(prof.run_s);
                self.phases.add(&prof.phases);
            }
        }
    }

    /// Sets every point up without simulating it: what `PointSpec::run`
    /// does inside the sweep engine before its first cycle, timed here
    /// because it cannot be timed there.
    fn setup_pass(&mut self) {
        let w = self.w;
        for (i, p) in w.points.iter().enumerate() {
            if let Some(built) = self.attempt(&p.id, 0, |rec| build_point(rec, w, p)) {
                self.points[i].setup.push(built.setup_s);
                self.points[i].scheme_build.push(built.scheme_build_s);
            }
        }
    }

    fn layer_pass(&mut self) {
        let w = self.w;
        for t in 0..w.topos.len() {
            let Some(l) = self.attempt("layer builds", 1, |rec| layer_builds(rec, w, t)) else {
                continue;
            };
            for (name, s) in l.secs {
                self.layers[t].entry(name).or_default().push(s);
            }
            self.layer_counts[t] = l.counts;
        }
    }

    fn sweep_pass(&mut self) {
        let reference: Vec<SweepPoint> = self
            .points
            .iter()
            .filter_map(|p| p.first.as_ref().map(|f| f.sweep_point))
            .collect();
        let slice = self.w.point_specs();
        if reference.len() != slice.len() {
            return; // the reference pass already failed; nothing to compare with
        }
        let dir = self
            .opts
            .out_dir
            .join(format!("cache-{}", std::process::id()));
        let (seed, traced) = (self.opts.seed, self.opts.trace);
        let Some(rep) = self.attempt("sweep engine", slice.len() as u64, |rec| {
            sweep_rep(rec, &slice, &reference, seed, threads(), &dir, traced)
        }) else {
            return;
        };
        let s = &mut self.sweep;
        s.plan.push(rep.plan_s);
        s.store.push(rep.store_s);
        s.cold.push(rep.cold_s);
        for &secs in &rep.warm_s {
            s.warm.push(secs);
        }
        s.lookup.push(rep.lookup_s);
        s.encode.push(rep.encode_s);
        s.parse.push(rep.parse_s);
        if s.best.as_ref().is_none_or(|b| rep.cold_s < b.cold_s) {
            s.best = Some(rep);
        }
    }

    /// K=1 vs K=2 on the DRAIN point, interleaved best-of-N, then one
    /// profiled K=2 run for the per-shard planning time.
    fn shard_probe(&mut self) {
        let w = self.w;
        let Some(base) = w.points.iter().find(|p| p.scheme_idx == 2) else {
            return;
        };
        let mut probe = base.clone();
        if let Kind::Synthetic { cycles, .. } = &mut probe.kind {
            *cycles = if self.opts.quick {
                PROBE_CYCLES / 10
            } else {
                PROBE_CYCLES
            };
        }
        let ks: &[usize] = if threads() >= 2 { &[1, 2] } else { &[1] };
        let mut best = [f64::INFINITY; 2];
        let mut digests = Vec::new();
        let reps = if self.opts.quick { 1 } else { PROBE_REPS };
        for _ in 0..reps {
            for &k in ks {
                probe.id = format!("shard-probe/k{k}");
                let p = &probe;
                if let Some(run) = self.attempt(&p.id, 1, |rec| run_point(rec, w, p, false, k)) {
                    best[k - 1] = best[k - 1].min(run.run_s);
                    digests.push(run.digest);
                }
            }
        }
        if digests.windows(2).any(|d| d[0] != d[1]) {
            self.fail(1, "shard probe: K=1 and K=2 digests differ".into());
        }
        let cycles = match probe.kind {
            Kind::Synthetic { cycles, .. } => cycles as f64,
            Kind::Coherence { .. } => return,
        };
        self.shard
            .insert("netsim.shard.k1_ns_per_cycle", best[0] * 1e9 / cycles);
        if ks.len() < 2 {
            eprintln!("note: one core available, the K=2 leg of the shard probe is skipped");
            return;
        }
        self.shard
            .insert("netsim.shard.k2_ns_per_cycle", best[1] * 1e9 / cycles);
        self.shard
            .insert("netsim.shard.k2_speedup", best[0] / best[1]);
        probe.id = "shard-probe/k2-profiled".into();
        let p = &probe;
        if let Some(run) = self.attempt(&p.id, 1, |rec| run_point(rec, w, p, true, 2)) {
            let sampled = run.phases.sampled_cycles.max(1) as f64;
            self.shard.insert(
                "netsim.shard.plan_ns_shard0",
                run.phases.shard_plan[0] as f64 / sampled,
            );
            self.shard.insert(
                "netsim.shard.plan_ns_shard1",
                run.phases.shard_plan[1] as f64 / sampled,
            );
            self.shard.insert(
                "netsim.shard.fabric_flits",
                run.counts["aux.shard_fabric_flits"],
            );
            self.shard.insert(
                "netsim.shard.sharded_cycles",
                run.counts["aux.sharded_cycles"],
            );
        }
    }

    /// One repetition of everything the pass measures.
    fn repetition(&mut self, timed: bool) {
        if self.opts.trace {
            self.layer_pass();
        }
        if !self.w.sweep || self.opts.trace {
            self.point_pass(timed);
        } else {
            self.setup_pass();
        }
        if self.opts.trace && self.peak_rss_mb == 0.0 {
            // Before the sweep engine's and the shard probe's worker
            // threads: which points share memory there is the scheduler's
            // choice, and the peak moved by 10 % between identical runs.
            self.peak_rss_mb = peak_rss_mb();
        }
        if self.w.sweep && timed {
            self.sweep_pass();
        }
    }
}

fn sum<'a>(values: impl IntoIterator<Item = &'a Values>, key: &str) -> f64 {
    values
        .into_iter()
        .map(|v| v.get(key).copied().unwrap_or(0.0))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload and computes the pass's metrics.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = workload(&opts.workload, opts.seed, opts.quick)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", opts.out_dir))?;
    let started = Instant::now();
    let mut r = Run {
        w: &w,
        opts,
        rec: Recorder::new(opts.trace, w.name),
        points: w.points.iter().map(|_| PointAgg::default()).collect(),
        layers: vec![BTreeMap::new(); w.topos.len()],
        layer_counts: vec![Values::new(); w.topos.len()],
        phases: PhaseNanos::default(),
        sweep: SweepAgg::default(),
        shard: Values::new(),
        peak_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // Untimed first pass: the warm-up repetition and, for the sweep, the
    // points simulated by hand that the engine's output is checked against.
    if w.sweep && !opts.trace {
        r.point_pass(false);
    } else if !opts.quick && !opts.trace {
        r.repetition(false);
    }
    let mut reps = 0;
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        r.repetition(true);
        longest = longest.max(t.elapsed().as_secs_f64());
        reps += 1;
        if reps == 1 && opts.trace && w.shard_probe {
            r.shard_probe();
        }
        let fits = started.elapsed().as_secs_f64() + longest <= opts.seconds;
        if opts.quick || (reps >= MIN_REPS && !fits) {
            break;
        }
    }

    let (metrics, lines) = if opts.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    if opts.trace && !opts.quick {
        let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
        r.rec
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures,
        metrics,
        lines,
        reps,
    })
}

fn firsts<'a>(r: &'a Run) -> impl Iterator<Item = &'a Values> {
    r.points
        .iter()
        .filter_map(|p| p.first.as_ref().map(|f| &f.counts))
}

fn end_to_end(r: &Run) -> (Vec<(MetricDef, f64)>, Vec<String>) {
    let cycles = sum(firsts(r), "netsim.cycles");
    let flit_hops = sum(firsts(r), "netsim.flit_hops");
    // Everything before the first simulated cycle (`plan` is 0 off the
    // sweep). Pre-filling the replay's cache is scaffolding of the
    // benchmark — 630 small files, file-system time that differs 10x
    // between runs — so it stays out; `bench.cache.store_us_per_point`
    // reports it.
    let setup = floor_sum(r.points.iter().map(|p| &p.setup)) + r.sweep.plan.floor();
    let (run, wall) = if r.w.sweep {
        // The engine sets every point up again inside `run_points`, so
        // here `setup_s` is a share of the cold run, not a term beside it.
        let cold = r.sweep.cold.floor();
        (cold, r.sweep.plan.floor() + cold + r.sweep.warm.floor())
    } else {
        let run = floor_sum(r.points.iter().map(|p| &p.run));
        (run, setup + run)
    };
    let values = Values::from([
        ("setup_s", setup),
        ("wall_s", wall),
        ("sim_cycles_per_s", ratio(cycles, run)),
        ("ns_per_flit_hop", ratio(run * 1e9, flit_hops)),
    ]);
    let mut lines = Vec::new();
    if r.w.sweep {
        let s = &r.sweep;
        lines.push(format!("  plan            {} s", s.plan.describe()));
        lines.push(format!("  cache prefill   {} s", s.store.describe()));
        lines.push(format!("  cold run_points {} s", s.cold.describe()));
        lines.push(format!("  warm run_points {} s", s.warm.describe()));
    } else {
        for (p, agg) in r.w.points.iter().zip(&r.points) {
            lines.push(format!("  {:<40} setup {} s", p.id, agg.setup.describe()));
            lines.push(format!("  {:<40} run   {} s", p.id, agg.run.describe()));
        }
    }
    let metrics = END_TO_END.iter().map(|d| (*d, values[d.name])).collect();
    (metrics, lines)
}

fn per_layer(r: &Run) -> (Vec<(MetricDef, f64)>, Vec<String>) {
    let mut v = Values::from([("process.peak_rss_mb", r.peak_rss_mb)]);
    let mut lines = Vec::new();

    // Standalone layer builds: floor per topology, summed over topologies.
    for layers in &r.layers {
        for (name, samples) in layers {
            *v.entry(name).or_default() += samples.floor();
            lines.push(format!("  {:<34} {} s", name, samples.describe()));
        }
    }
    for key in ["topology.nodes", "topology.links", "drainpath.circuit_len"] {
        v.insert(key, sum(&r.layer_counts, key));
    }

    // The kernel from outside: exact counts of the first repetition
    // (every later one was checked equal), floors of the timings.
    for d in PER_LAYER.iter().filter(|d| d.exact) {
        if firsts(r).any(|c| c.contains_key(d.name)) {
            v.insert(d.name, sum(firsts(r), d.name));
        }
    }
    let run_s = floor_sum(r.points.iter().map(|p| &p.run));
    let cycles = sum(firsts(r), "netsim.cycles");
    v.insert("netsim.run_s", run_s);
    v.insert("netsim.ns_per_cycle", ratio(run_s * 1e9, cycles));
    for (p, agg) in r.w.points.iter().zip(&r.points) {
        let key = SCHEME_KEYS[p.scheme_idx];
        *v.entry(metric_name(format!("netsim.run_s.{key}")))
            .or_default() += agg.run.floor();
        *v.entry(metric_name(format!("bench.scheme.build_s.{key}")))
            .or_default() += agg.scheme_build.floor();
        lines.push(format!(
            "  {:<40} Scheme::*_sim {} s",
            p.id,
            agg.scheme_build.describe()
        ));
        lines.push(format!(
            "  {:<40} Sim::run      {} s",
            p.id,
            agg.run.describe()
        ));
    }
    v.insert(
        "netsim.throughput",
        ratio(
            sum(firsts(r), "netsim.packets_ejected"),
            sum(firsts(r), "aux.node_cycles"),
        ),
    );
    v.insert(
        "netsim.mean_latency_cycles",
        ratio(
            sum(firsts(r), "aux.latency_sum"),
            sum(firsts(r), "aux.latency_count"),
        ),
    );
    v.insert(
        "netsim.p99_latency_cycles",
        firsts(r).map(|c| c["aux.p99"]).fold(0.0, f64::max),
    );
    let digests = r
        .points
        .iter()
        .map(|p| p.first.as_ref().map_or(0, |f| f.digest));
    v.insert("netsim.stats_digest", fold48(fnv_u64s(digests)));
    v.insert(
        "netsim.wake.skips_per_park",
        ratio(
            sum(firsts(r), "netsim.wake.skips"),
            sum(firsts(r), "netsim.wake.parks"),
        ),
    );
    v.insert(
        "netsim.wake.spurious_share",
        ratio(
            sum(firsts(r), "netsim.wake.spurious_wakes"),
            sum(firsts(r), "netsim.wake.wakes"),
        ),
    );
    if matches!(r.w.points[0].kind, Kind::Coherence { .. }) {
        v.insert("coherence.finish_cycle", cycles);
    }

    // Profiled run: phase attribution summed over points and repetitions.
    for (name, nanos) in PHASES.iter().zip(r.phases.phase) {
        v.insert(
            metric_name(format!("netsim.phase.{name}_share")),
            ratio(nanos as f64, r.phases.cycle_nanos as f64),
        );
        v.insert(
            metric_name(format!("netsim.phase.{name}_ns_per_cycle")),
            ratio(nanos as f64, r.phases.sampled_cycles as f64),
        );
    }
    v.insert(
        "netsim.trace_overhead_ratio",
        ratio(floor_sum(r.points.iter().map(|p| &p.profiled_run)), run_s),
    );
    v.extend(r.shard.iter().map(|(k, x)| (*k, *x)));

    if let Some(best) = &r.sweep.best {
        let s = &r.sweep;
        let points = best.cold.simulated as f64;
        let grid = best.grid_len as f64;
        v.insert("bench.sweep.plan_s", s.plan.floor());
        v.insert("bench.sweep.cold_s", s.cold.floor());
        v.insert("bench.sweep.warm_s", s.warm.floor());
        v.insert(
            "bench.sweep.overhead_s",
            best.cold_s - best.cold.busy_secs / best.cold.threads as f64,
        );
        v.insert(
            "bench.sweep.point_wall_ms_mean",
            best.cold.mean_point_wall_ms,
        );
        v.insert("bench.sweep.point_wall_ms_max", best.cold.max_point_wall_ms);
        v.insert("bench.sweep.points_per_s", ratio(points, s.cold.floor()));
        v.insert("bench.sweep.warm_points_per_s", ratio(grid, s.warm.floor()));
        v.insert(
            "bench.runner.worker_utilization",
            best.cold.worker_utilization,
        );
        v.insert("bench.runner.queue_wait_s", best.cold.queue_wait_secs);
        v.insert(
            "bench.cache.store_us_per_point",
            s.store.floor() * 1e6 / grid,
        );
        v.insert(
            "bench.cache.lookup_us_per_point",
            s.lookup.floor() * 1e6 / grid,
        );
        v.insert("bench.cache.hits", grid);
        v.insert("bench.cache.misses", points);
        v.insert("bench.json.encode_us", s.encode.floor() * 1e6);
        v.insert("bench.json.parse_us", s.parse.floor() * 1e6);
        lines.push(format!(
            "  cold run_points {} s on {} threads",
            s.cold.describe(),
            best.cold.threads
        ));
        lines.push(format!("  warm run_points {} s", s.warm.describe()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|d| (*d, v.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    (metrics, lines)
}

/// The `PER_LAYER` entry of a composed metric name.
fn metric_name(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}
