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
//! * [`scheme`] — the one table of evaluated schemes (escape VC, SPIN, the
//!   three DRAIN configurations, ideal, up*/down*, unprotected): names,
//!   Table II provisioning, and assembly for synthetic and coherence
//!   workloads.
//! * [`sweep`] — load–latency sweeps and saturation-throughput search;
//!   [`sweep::plan`] expands figure grids into cacheable job specs.
//! * [`runner`] — the scoped-thread worker pool (order-preserving, so
//!   parallel output is bit-identical to serial).
//! * [`cache`] — the content-addressed on-disk result cache.
//! * [`engine`] — ties plan + runner + cache together per figure.
//! * [`report`] — the experiment/metrics contract ([`report::RunReport`],
//!   CSV emission).
//! * [`json`] — the JSON value model used by cache and reports (a
//!   re-export of [`drain_netsim::json`]).
//! * [`apps`] — closed-loop application workload runs.
//! * [`oracle`] — the differential oracle `drain_fuzz` sweeps (DRAIN vs a
//!   trusted baseline on identical traffic).
//! * [`table`] — markdown row printing.
//! * [`Flags`] — the one reader of the tool binaries' command lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod engine;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scheme;
pub mod sweep;
pub mod table;

pub use drain_netsim::json;
pub use scale::Scale;
pub use scheme::Scheme;

/// Ends the process the way every tool reports bad input: one `error: …`
/// line on stderr, exit code 2 — a typo must not silently run something
/// other than what was asked for, nor end in a backtrace.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Reads environment variable `name` through the pure parser `parse`,
/// whose `Err` names the accepted values. `None` when the variable is
/// unset; a set value that does not parse is a [`usage_error`].
pub(crate) fn env_parsed<T>(name: &str, parse: fn(&str) -> Result<T, &'static str>) -> Option<T> {
    let raw = std::env::var_os(name)?;
    let value = raw.to_string_lossy();
    Some(
        parse(&value).unwrap_or_else(|accepted| {
            usage_error(&format!("{name}={value:?}: expected {accepted}"))
        }),
    )
}

/// The parser of an on/off environment switch (`DRAIN_NO_CACHE`,
/// `DRAIN_PROGRESS`): `0` or `1`, nothing else.
pub(crate) fn parse_switch(value: &str) -> Result<bool, &'static str> {
    match value.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("0 or 1"),
    }
}

/// The `--flag value` command line of the tool binaries (`drain_trace`,
/// `drain_metrics`, `drain_fuzz`), read one flag at a time. A flag without
/// its value, a value its parser rejects and a flag nobody matches each end
/// in one `error: …` line and exit code 2, like a bad `DRAIN_*` variable.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Flags::new(std::env::args().skip(1).collect())
    }

    /// An explicit argument list.
    pub fn new(args: Vec<String>) -> Self {
        Flags(args.into_iter())
    }

    /// The next flag; `None` at the end of the line.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The pure half of [`Flags::value`]: `Err` is the message.
    pub fn try_value<T, E: std::fmt::Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let value = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        parse(&value).map_err(|accepted| format!("{flag} {value:?}: expected {accepted}"))
    }

    /// The value after `flag`, through the pure parser `parse`, whose `Err`
    /// names the accepted values.
    pub fn value<T, E: std::fmt::Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> T {
        self.try_value(flag, parse)
            .unwrap_or_else(|msg| usage_error(&msg))
    }

    /// [`Flags::value`] through the type's own `FromStr` (numbers, paths).
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.value(flag, |v| {
            v.parse()
                .map_err(|_| format!("a value of type {}", std::any::type_name::<T>()))
        })
    }

    /// No arm matched `flag`.
    pub fn unknown(flag: &str) -> ! {
        usage_error(&format!("unknown flag {flag:?}"))
    }
}

/// `WxH` → mesh dimensions: 2 to 65 536 routers (one router has no link
/// to drain along; node ids are 16-bit).
pub fn parse_mesh(value: &str) -> Result<(u16, u16), &'static str> {
    value
        .split_once('x')
        .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
        .filter(|&(w, h): &(u16, u16)| (2..=1 << 16).contains(&(u32::from(w) * u32::from(h))))
        .ok_or("WxH with 2 to 65536 routers, e.g. 8x8")
}

/// An injection rate in packets per node per cycle: a number in `[0, 1]`
/// (NaN is not).
pub fn parse_rate(value: &str) -> Result<f64, &'static str> {
    value
        .parse()
        .ok()
        .filter(|r| (0.0..=1.0).contains(r))
        .ok_or("a number in [0, 1]")
}

/// `faults` links removed from a `w`×`h` mesh must leave it connected: a
/// mesh has `(w−1)(h−1)` links beyond a spanning tree, and
/// [`drain_topology::faults::FaultInjector`] can remove exactly that many.
pub fn check_mesh_faults((w, h): (u16, u16), faults: usize) -> Result<(), String> {
    let max = usize::from(w.saturating_sub(1)) * usize::from(h.saturating_sub(1));
    if faults > max {
        return Err(format!(
            "--faults {faults}: a {w}x{h} mesh can lose at most {max} of its links and stay connected"
        ));
    }
    Ok(())
}

/// A period or count that must not be 0.
pub fn parse_positive(value: &str) -> Result<u64, &'static str> {
    value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or("a whole number above 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flag_values_parse_in_order() {
        let mut f = flags(&["--mesh", "4x6", "--smoke", "--cycles", "8"]);
        assert_eq!(f.next_flag().as_deref(), Some("--mesh"));
        assert_eq!(f.try_value("--mesh", parse_mesh), Ok((4, 6)));
        assert_eq!(f.next_flag().as_deref(), Some("--smoke"));
        assert_eq!(f.next_flag().as_deref(), Some("--cycles"));
        assert_eq!(f.try_value("--cycles", parse_positive), Ok(8));
        assert_eq!(f.next_flag(), None);
    }

    #[test]
    fn missing_and_malformed_values_are_one_line_messages() {
        assert_eq!(
            flags(&[]).try_value("--rate", str::parse::<f64>),
            Err("--rate needs a value".to_string())
        );
        assert_eq!(
            flags(&["4by4"]).try_value("--mesh", parse_mesh),
            Err("--mesh \"4by4\": expected WxH with 2 to 65536 routers, e.g. 8x8".to_string())
        );
        assert_eq!(
            flags(&["0"]).try_value("--profile-period", parse_positive),
            Err("--profile-period \"0\": expected a whole number above 0".to_string())
        );
    }

    #[test]
    fn switches_take_zero_or_one_only() {
        assert_eq!(parse_switch("0"), Ok(false));
        assert_eq!(parse_switch(" 1\n"), Ok(true));
        for v in ["", "yes", "true", "2", "01", "on"] {
            assert_eq!(parse_switch(v), Err("0 or 1"), "{v:?}");
        }
    }

    #[test]
    fn rates_outside_the_unit_interval_are_rejected() {
        assert_eq!(parse_rate("0"), Ok(0.0));
        assert_eq!(parse_rate("1.0"), Ok(1.0));
        for v in ["NaN", "-0.1", "1.5", "inf", "fast"] {
            assert_eq!(
                flags(&[v]).try_value("--rate", parse_rate),
                Err(format!("--rate {v:?}: expected a number in [0, 1]")),
            );
        }
    }

    #[test]
    fn a_zero_epoch_is_rejected() {
        assert_eq!(
            flags(&["0"]).try_value("--epoch", parse_positive),
            Err("--epoch \"0\": expected a whole number above 0".to_string())
        );
    }

    #[test]
    fn zero_cycles_are_rejected() {
        assert_eq!(
            flags(&["0"]).try_value("--cycles", parse_positive),
            Err("--cycles \"0\": expected a whole number above 0".to_string())
        );
    }

    #[test]
    fn meshes_without_a_link_or_past_16_bit_ids_are_rejected() {
        assert_eq!(parse_mesh("1x2"), Ok((1, 2)));
        assert_eq!(parse_mesh("256x256"), Ok((256, 256)));
        for v in ["1x1", "0x4", "4x0", "257x256"] {
            assert_eq!(
                parse_mesh(v),
                Err("WxH with 2 to 65536 routers, e.g. 8x8"),
                "{v:?}"
            );
        }
    }

    #[test]
    fn more_faults_than_a_mesh_can_lose_are_rejected() {
        use drain_topology::{faults::FaultInjector, Topology};
        // The bound is the fault injector's own: 9 removals fit a 4x4
        // mesh, 10 do not.
        let mesh = Topology::mesh(4, 4);
        assert!(FaultInjector::new(1).remove_links(&mesh, 9).is_ok());
        assert!(FaultInjector::new(1).remove_links(&mesh, 10).is_err());
        assert_eq!(check_mesh_faults((4, 4), 9), Ok(()));
        assert_eq!(check_mesh_faults((1, 2), 0), Ok(()));
        assert_eq!(
            check_mesh_faults((4, 4), 500),
            Err(
                "--faults 500: a 4x4 mesh can lose at most 9 of its links and stay connected"
                    .to_string()
            )
        );
        assert!(check_mesh_faults((4, 4), 10).is_err());
        assert!(check_mesh_faults((1, 2), 1).is_err());
    }
}
