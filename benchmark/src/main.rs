//! The repo benchmark (README.md beside this package says what it
//! measures and why). Modes:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result as JSON
//!   (`--trace 0`: the end-to-end metrics, `--trace 1`: the per-layer
//!   metrics). This is what `BENCHMARK.json`'s `command` starts.
//! * no `--workload` — every workload, one child process per workload
//!   and pass, then the table, `out/results.json` and `out/trace.jsonl`.
//!   `--quick`: one repetition, cycle counts ÷ 10, writes nothing.
//! * `--compare A.json B.json` — two results files, metric by metric.
//! * `--emit-contract` — prints `BENCHMARK.json` from the tables.

mod defs;
mod measure;
mod results;
mod run;
mod spans;
mod sweep;
mod timing;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use drain_bench::json::{self, Json};

use defs::{END_TO_END, RUN_SECONDS, WORKLOADS};
use results::{Results, Stamp, WorkloadResult};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    emit_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
        emit_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--emit-contract" => a.emit_contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// `Scheme::build`, `SweepEngine::new` and `ResultCache::from_env` read
/// `DRAIN_*` variables; a set one would silently change what is measured.
fn refuse_drain_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DRAIN_")) {
        Some((k, _)) => Err(format!(
            "{} is set: unset every DRAIN_* variable before measuring",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

fn result_line(o: &run::Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|(d, v)| {
            let m = Json::obj([("value", json::num(*v)), ("unit", Json::Str(d.unit.into()))]);
            (d.name.to_string(), m)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// One run of one workload; prints the rows, then the result line.
fn single(a: &Args, workload: &str) -> Result<ExitCode, String> {
    let opts = run::Opts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        out_dir: a.out_dir.clone(),
    };
    let o = run::run(&opts)?;
    println!(
        "{workload} seed {} {} pass: {} timed repetitions, {} operations, {} failed",
        a.seed,
        if a.trace { "traced" } else { "end-to-end" },
        o.reps,
        o.attempted,
        o.failed
    );
    for line in &o.lines {
        println!("{line}");
    }
    for (d, v) in &o.metrics {
        println!("{workload:<20} {:<40} {v:>18.6} {}", d.name, d.unit);
    }
    for f in &o.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_line(&o));
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn stamp(a: &Args) -> Stamp {
    let commit = command_line("git", &["rev-parse", "HEAD"]).map_or("unknown".to_string(), |c| {
        let dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        if dirty {
            format!("{c}-dirty")
        } else {
            c
        }
    });
    Stamp {
        commit,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
    }
}

/// Starts this program again for one workload and pass, echoes what it
/// prints, and folds its result line into `into`.
fn child_pass(
    a: &Args,
    workload: &str,
    trace: bool,
    into: &mut WorkloadResult,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&a.out_dir);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (rows, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{rows}");
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let v = json::parse(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let count = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("{workload}: no {k}"))
    };
    into.attempted += count("attempted")?;
    into.failed += count("failed")?;
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        return Err(format!("{workload}: no metrics"));
    };
    for (name, m) in metrics {
        let value =
            json::float_or_nan(m.get("value")).ok_or(format!("{workload}: {name} has no value"))?;
        into.metrics.insert(name.clone(), value);
    }
    Ok(())
}

/// Every workload, both passes; the table; the files.
fn all(a: &Args) -> Result<ExitCode, String> {
    let mut results = Results {
        stamp: stamp(a),
        workloads: BTreeMap::new(),
    };
    let mut broken = false;
    for w in WORKLOADS {
        let mut r = WorkloadResult::default();
        for trace in [false, true] {
            if let Err(e) = child_pass(a, w.name, trace, &mut r) {
                eprintln!("FAILED {e}");
                broken = true;
            }
        }
        r.correct = r.failed == 0 && r.attempted > 0;
        results.workloads.insert(w.name.to_string(), r);
    }

    println!("\nend-to-end (floor-sums; failed_share = failed / attempted operations)");
    print!("{:<20}", "workload");
    for d in END_TO_END {
        print!(" {:>22}", format!("{} [{}]", d.name, d.unit));
    }
    println!(" {:>12}", "failed_share");
    for w in WORKLOADS {
        let r = &results.workloads[w.name];
        print!("{:<20}", w.name);
        for d in END_TO_END {
            print!(
                " {:>22.6}",
                r.metrics.get(d.name).copied().unwrap_or(f64::NAN)
            );
        }
        println!(" {:>12.6}", r.failed as f64 / r.attempted.max(1) as f64);
    }
    let s = &results.stamp;
    println!(
        "commit {} | nproc {} | {} | seed {} | {} s per run{}",
        s.commit,
        s.nproc,
        s.rustc,
        s.seed,
        s.seconds,
        if s.quick { " | quick" } else { "" }
    );

    if !a.quick {
        let path = a.out_dir.join("results.json");
        std::fs::write(&path, results::pretty(&results.to_json()))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let mut trace = String::new();
        for w in WORKLOADS {
            let part = a.out_dir.join(format!("trace-{}.jsonl", w.name));
            trace.push_str(&std::fs::read_to_string(&part).unwrap_or_default());
        }
        let trace_path = a.out_dir.join("trace.jsonl");
        std::fs::write(&trace_path, trace)
            .map_err(|e| format!("cannot write {trace_path:?}: {e}"))?;
        println!("wrote {} and {}", path.display(), trace_path.display());
    }
    let ok = !broken && results.workloads.values().all(|r| r.correct);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p:?}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{p:?}: {e}"))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    println!("A: {} ({})", a.display(), ra.stamp.commit);
    println!("B: {} ({})", b.display(), rb.stamp.commit);
    let rows = results::compare(&ra, &rb)?;
    Ok(if results::print_comparison(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| {
        if a.emit_contract {
            print!("{}", results::pretty(&defs::contract()));
            return Ok(ExitCode::SUCCESS);
        }
        if let Some((x, y)) = &a.compare {
            return compare(x, y);
        }
        refuse_drain_env()?;
        match &a.workload {
            Some(w) => single(&a, w),
            None => all(&a),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
