//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/figNN.rs` binary reproduces one paper figure/table and
//! prints the same rows/series as a markdown table. All binaries honour
//! the `DRAIN_SCALE` environment variable:
//!
//! * `quick` (default) — reduced seeds and cycle counts, minutes total;
//! * `full` — the paper's 10 fault patterns per point and long windows.
//!
//! Runs are parallel and cached: every synthetic operating point is an
//! independent [`sweep::plan::PointSpec`] job that the
//! [`engine::SweepEngine`] fans across `DRAIN_THREADS` workers and
//! memoizes in a content-addressed [`cache`] under `results/cache/`, so
//! reruns only simulate missing points. Each figure writes its CSV plus a
//! [`report::RunReport`] JSON under `results/`.
//!
//! The building blocks live here:
//!
//! * [`scale`] — run-length/seed policy (`DRAIN_SCALE`).
//! * [`scheme`] — assembling each evaluated scheme (escape VC, SPIN, the
//!   three DRAIN configurations, ideal, up*/down*) for synthetic and
//!   coherence workloads.
//! * [`sweep`] — load–latency sweeps and saturation-throughput search;
//!   [`sweep::plan`] expands figure grids into cacheable job specs.
//! * [`runner`] — the scoped-thread worker pool (order-preserving, so
//!   parallel output is bit-identical to serial).
//! * [`cache`] — the content-addressed on-disk result cache.
//! * [`engine`] — ties plan + runner + cache together per figure.
//! * [`report`] — the experiment/metrics contract ([`report::RunReport`],
//!   CSV emission).
//! * [`json`] — dependency-free JSON used by cache and reports.
//! * [`serve`] — a tiny blocking HTTP listener exposing Prometheus-format
//!   metric snapshots (see the `drain_metrics` binary).
//! * [`apps`] — closed-loop application workload runs.
//! * [`table`] — markdown row printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod engine;
pub mod json;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scheme;
pub mod serve;
pub mod sweep;
pub mod table;

pub use scale::Scale;
pub use scheme::{Scheme, Workload};

/// Reads environment variable `name` through the pure parser `parse`,
/// whose `Err` names the accepted values. `None` when the variable is
/// unset; a set value that does not parse ends the process with one line
/// on stderr and exit code 2 — a typo must not silently run something
/// other than what was asked for.
pub(crate) fn env_parsed<T>(name: &str, parse: fn(&str) -> Result<T, &'static str>) -> Option<T> {
    let raw = std::env::var_os(name)?;
    let value = raw.to_string_lossy();
    Some(parse(&value).unwrap_or_else(|accepted| {
        eprintln!("error: {name}={value:?}: expected {accepted}");
        std::process::exit(2)
    }))
}
