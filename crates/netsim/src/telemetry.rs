//! Periodic telemetry sampling: per-router and per-link time series.
//!
//! Where [`crate::trace`] records individual events, this module records
//! *rates*: every [`crate::trace::TraceConfig::telemetry_period`] cycles
//! the core snapshots per-router VC occupancy, injection/ejection queue
//! depths and credit-stall counts, plus per-link flit counts, as one
//! [`TelemetrySample`]. Samples accumulate in a bounded in-memory series
//! (oldest dropped first) that harness binaries export as JSONL.
//!
//! Cost model: the only per-event work while sampling is active is two
//! counter increments in the allocation hot path (link flits, credit
//! stalls), both behind an `active()` flag that is false by default; the
//! O(VCs + routers) sweep happens only on sample boundaries, so sample
//! stamps are exactly the cycles `s` with `(s + 1) % period == 0`.

use std::collections::VecDeque;

use crate::metrics::fmt_f64;
use crate::trace::TraceConfig;

/// One router's state at a sample boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterTelemetry {
    /// VC buffers (across this router's input ports) currently occupied.
    pub occupied_vcs: u32,
    /// Packets waiting in the node's injection queues (all classes).
    pub inj_depth: u32,
    /// Packets parked in the node's ejection queues (all classes).
    pub ej_depth: u32,
    /// Credit stalls charged to this router during the sample window: a
    /// resident packet (or granted ejection) that could not even *request*
    /// a move because every feasible downstream buffer or the ejection
    /// queue was full. Losing arbitration is not a stall.
    pub credit_stalls: u64,
}

/// One telemetry sample: the network's state over one sampling window.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// Cycle the sample was taken at (the window's last cycle).
    pub cycle: u64,
    /// 1-based sample index.
    pub window: u64,
    /// Per-router series, indexed by node id.
    pub routers: Vec<RouterTelemetry>,
    /// Flits serialized per unidirectional link during the window.
    pub link_flits: Vec<u64>,
}

impl TelemetrySample {
    /// Per-link utilization (flits per cycle, in `[0, 1]`) over a window of
    /// `period` cycles.
    pub fn link_utilization(&self, period: u64) -> Vec<f64> {
        let p = period.max(1) as f64;
        self.link_flits.iter().map(|&f| f as f64 / p).collect()
    }

    /// Total flit-link traversals in the window.
    pub fn total_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// Encodes the sample as one JSON line (no trailing newline):
    /// `{"kind":"telemetry","cycle":…,"window":…,"total_flits":…,
    /// "occupied_vcs":[…],"inj_depth":[…],"ej_depth":[…],
    /// "credit_stalls":[…],"link_util":[…]}`. Per-router arrays are
    /// indexed by node id, `link_util` by link id and normalised by the
    /// sampling `period` ([`TelemetrySample::link_utilization`]).
    pub fn to_jsonl(&self, period: u64) -> String {
        use std::fmt::Write as _;
        fn array<T: std::fmt::Display>(
            out: &mut String,
            key: &str,
            items: impl Iterator<Item = T>,
        ) {
            let _ = write!(out, ",\"{key}\":[");
            for (i, v) in items.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        let mut out = format!(
            "{{\"kind\":\"telemetry\",\"cycle\":{},\"window\":{},\"total_flits\":{}",
            self.cycle,
            self.window,
            self.total_flits()
        );
        let r = &self.routers;
        array(&mut out, "occupied_vcs", r.iter().map(|r| r.occupied_vcs));
        array(&mut out, "inj_depth", r.iter().map(|r| r.inj_depth));
        array(&mut out, "ej_depth", r.iter().map(|r| r.ej_depth));
        array(&mut out, "credit_stalls", r.iter().map(|r| r.credit_stalls));
        let util = self.link_utilization(period);
        array(&mut out, "link_util", util.into_iter().map(fmt_f64));
        out.push('}');
        out
    }
}

/// The sampler: cumulative hot-path counters plus the bounded sample
/// series. Owned by [`crate::SimCore`].
#[derive(Clone, Debug)]
pub struct Telemetry {
    period: u64,
    capacity: usize,
    /// Cumulative flits serialized per link (all time).
    link_flits: Vec<u64>,
    /// Cumulative credit stalls per router (all time).
    credit_stalls: Vec<u64>,
    /// Cumulative values at the previous sample boundary (for deltas).
    prev_link_flits: Vec<u64>,
    prev_credit_stalls: Vec<u64>,
    samples: VecDeque<TelemetrySample>,
    taken: u64,
    dropped: u64,
    /// Recycled per-router scratch vectors: samples evicted from the
    /// bounded series donate their `routers` allocation back here so
    /// steady-state sampling allocates nothing.
    router_pool: Vec<Vec<RouterTelemetry>>,
}

impl Telemetry {
    /// Builds a sampler for a network with the given link and router
    /// counts. A zero `telemetry_period` leaves it inactive (no hot-path
    /// counting, no samples).
    pub fn new(config: &TraceConfig, num_links: usize, num_routers: usize) -> Self {
        let active = config.telemetry_period > 0;
        let links = if active { num_links } else { 0 };
        let routers = if active { num_routers } else { 0 };
        Telemetry {
            period: config.telemetry_period,
            capacity: config.telemetry_capacity.max(1),
            link_flits: vec![0; links],
            credit_stalls: vec![0; routers],
            prev_link_flits: vec![0; links],
            prev_credit_stalls: vec![0; routers],
            samples: VecDeque::new(),
            taken: 0,
            dropped: 0,
            router_pool: Vec::new(),
        }
    }

    /// Whether sampling is on. Hot paths must count only behind this.
    #[inline(always)]
    pub fn active(&self) -> bool {
        self.period > 0
    }

    /// The sampling period in cycles (0 = inactive).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Charges `flits` serialized on `link` to the current window.
    #[inline]
    pub(crate) fn note_link_flits(&mut self, link: usize, flits: u64) {
        self.link_flits[link] += flits;
    }

    /// Charges one credit stall to `router` in the current window.
    #[inline]
    pub(crate) fn note_credit_stalls(&mut self, router: usize, n: u64) {
        self.credit_stalls[router] += n;
    }

    /// Hands out a zeroed per-router scratch vector of length `n`,
    /// reusing an allocation recycled from an evicted sample when one is
    /// available. Pass it back via [`Telemetry::push_sample`].
    pub(crate) fn checkout_routers(&mut self, n: usize) -> Vec<RouterTelemetry> {
        let mut v = self.router_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(n, RouterTelemetry::default());
        v
    }

    /// Closes the current window: computes per-link / per-router deltas
    /// since the previous boundary and appends a sample assembled from
    /// them plus the caller-provided occupancy/queue sweeps.
    pub(crate) fn push_sample(
        &mut self,
        cycle: u64,
        mut routers: Vec<RouterTelemetry>,
    ) -> &TelemetrySample {
        self.taken += 1;
        let link_flits: Vec<u64> = self
            .link_flits
            .iter()
            .zip(&self.prev_link_flits)
            .map(|(&now, &prev)| now - prev)
            .collect();
        self.prev_link_flits.copy_from_slice(&self.link_flits);
        for (r, (&now, &prev)) in routers
            .iter_mut()
            .zip(self.credit_stalls.iter().zip(&self.prev_credit_stalls))
        {
            r.credit_stalls = now - prev;
        }
        self.prev_credit_stalls.copy_from_slice(&self.credit_stalls);
        if self.samples.len() == self.capacity {
            if let Some(evicted) = self.samples.pop_front() {
                self.router_pool.push(evicted.routers);
            }
            self.dropped += 1;
        }
        self.samples.push_back(TelemetrySample {
            cycle,
            window: self.taken,
            routers,
            link_flits,
        });
        self.samples.back().expect("just pushed")
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TelemetrySample> {
        self.samples.iter()
    }

    /// Takes the retained samples, leaving the series empty (counters and
    /// delta baselines are kept, so sampling continues seamlessly).
    pub fn take_samples(&mut self) -> Vec<TelemetrySample> {
        self.samples.drain(..).collect()
    }

    /// Total samples taken (including any dropped from the bounded series).
    pub fn samples_taken(&self) -> u64 {
        self.taken
    }

    /// Samples dropped due to the capacity bound.
    pub fn samples_dropped(&self) -> u64 {
        self.dropped
    }

    /// Cumulative credit stalls charged to `router` (all time).
    pub fn total_credit_stalls(&self, router: usize) -> u64 {
        self.credit_stalls.get(router).copied().unwrap_or(0)
    }

    /// Cumulative flits serialized on `link` (all time).
    pub fn total_link_flits(&self, link: usize) -> u64 {
        self.link_flits.get(link).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(period: u64, capacity: usize) -> TraceConfig {
        TraceConfig {
            telemetry_period: period,
            telemetry_capacity: capacity,
            ..TraceConfig::default()
        }
    }

    fn empty_routers(n: usize) -> Vec<RouterTelemetry> {
        (0..n)
            .map(|_| RouterTelemetry {
                occupied_vcs: 0,
                inj_depth: 0,
                ej_depth: 0,
                credit_stalls: 0,
            })
            .collect()
    }

    #[test]
    fn inactive_by_default() {
        let t = Telemetry::new(&TraceConfig::default(), 8, 4);
        assert!(!t.active());
        assert_eq!(t.samples().count(), 0);
    }

    #[test]
    fn deltas_reset_each_window() {
        let mut t = Telemetry::new(&config(10, 16), 2, 2);
        t.note_link_flits(0, 5);
        t.note_credit_stalls(1, 3);
        let s1 = t.push_sample(9, empty_routers(2)).clone();
        assert_eq!(s1.link_flits, vec![5, 0]);
        assert_eq!(s1.routers[1].credit_stalls, 3);
        t.note_link_flits(0, 2);
        t.note_link_flits(1, 7);
        let s2 = t.push_sample(19, empty_routers(2)).clone();
        assert_eq!(s2.link_flits, vec![2, 7], "second window sees only its own flits");
        assert_eq!(s2.routers[1].credit_stalls, 0);
        assert_eq!(s2.window, 2);
        assert_eq!(t.total_link_flits(0), 7);
    }

    #[test]
    fn series_is_bounded() {
        let mut t = Telemetry::new(&config(1, 3), 1, 1);
        for c in 0..10 {
            t.push_sample(c, empty_routers(1));
        }
        assert_eq!(t.samples().count(), 3);
        assert_eq!(t.samples_taken(), 10);
        assert_eq!(t.samples_dropped(), 7);
        let first = t.samples().next().unwrap();
        assert_eq!(first.cycle, 7, "oldest samples dropped first");
    }

    #[test]
    fn utilization_normalizes_by_period() {
        let mut t = Telemetry::new(&config(10, 4), 2, 1);
        t.note_link_flits(0, 5);
        let s = t.push_sample(9, empty_routers(1)).clone();
        let u = s.link_utilization(10);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert_eq!(u[1], 0.0);
        assert_eq!(s.total_flits(), 5);
    }

    #[test]
    fn jsonl_line_carries_every_field_in_order() {
        let mut t = Telemetry::new(&config(8, 4), 3, 2);
        t.note_link_flits(0, 4);
        t.note_link_flits(2, 1);
        t.note_credit_stalls(1, 2);
        let mut routers = empty_routers(2);
        routers[0].occupied_vcs = 3;
        routers[1].inj_depth = 5;
        routers[1].ej_depth = 1;
        let line = t.push_sample(7, routers).to_jsonl(8);
        assert_eq!(
            line,
            "{\"kind\":\"telemetry\",\"cycle\":7,\"window\":1,\"total_flits\":5,\
             \"occupied_vcs\":[3,0],\"inj_depth\":[0,5],\"ej_depth\":[0,1],\
             \"credit_stalls\":[0,2],\"link_util\":[0.5,0,0.125]}",
            "kind first, then every field; link_util is flits / period"
        );
    }
}
