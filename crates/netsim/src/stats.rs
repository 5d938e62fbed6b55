//! Simulation statistics: latency (mean and tails), throughput, mechanism
//! event counters.

use crate::metrics::{HistogramSnapshot, HIST_BUCKETS};

/// Bucketed latency histogram: exact up to `EXACT` cycles, then power-of-two
/// buckets — enough resolution for the paper's mean and 99th-percentile
/// latency plots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    exact: Vec<u64>,
    coarse: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

const EXACT: usize = 2048;
const COARSE_BUCKETS: usize = 32;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            exact: vec![0; EXACT],
            coarse: vec![0; COARSE_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
        if (latency as usize) < EXACT {
            self.exact[latency as usize] += 1;
        } else {
            // Bucket b covers [2^b, 2^(b+1) - 1].
            let b = (63 - latency.leading_zeros() as usize).min(COARSE_BUCKETS - 1);
            self.coarse[b] += 1;
        }
    }

    /// Merges another histogram's samples into this one (per-router
    /// histograms aggregate into network-wide ones).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`): exact below 2048 cycles,
    /// bucket upper bound above.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // `p = 0` means the minimum sample, so at least one sample must be
        // accumulated before the scan stops.
        let target = (((self.count as f64) * p).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (lat, &n) in self.exact.iter().enumerate() {
            acc += n;
            if acc >= target {
                return lat as u64;
            }
        }
        for (b, &n) in self.coarse.iter().enumerate() {
            acc += n;
            if acc >= target {
                // The bucket's upper bound, clamped to the observed max
                // (the bucket cannot contain anything larger).
                return ((1u64 << (b + 1)) - 1).min(self.max);
            }
        }
        self.max
    }

    /// 99th-percentile latency (paper Fig 15).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Digests the histogram into a fixed-size [`HistogramSnapshot`]
    /// (cumulative counts at power-of-two bounds). One pass over the
    /// bucket arrays into a stack array — cheap enough to call on the
    /// metrics sampling cadence without cloning the 2048-entry exact
    /// array per scrape.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            le: [0; HIST_BUCKETS],
        };
        // Exact value v satisfies `v <= 2^k - 1` iff bit_length(v) <= k,
        // so its first (non-cumulative) bin is bit_length(v) ∈ 0..=11.
        for (v, &n) in self.exact.iter().enumerate() {
            let bin = (u64::BITS - (v as u64).leading_zeros()) as usize;
            snap.le[bin] += n;
        }
        // Coarse bucket b covers [2^b, 2^(b+1) - 1]: everything in it is
        // `<= 2^(b+1) - 1`, i.e. first bin b + 1 (the last bucket's bin
        // lands on +Inf).
        for (b, &n) in self.coarse.iter().enumerate() {
            snap.le[(b + 1).min(HIST_BUCKETS - 1)] += n;
        }
        // Prefix-sum the non-cumulative bins into cumulative `le` counts.
        for k in 1..HIST_BUCKETS {
            snap.le[k] += snap.le[k - 1];
        }
        snap
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.exact.iter_mut().for_each(|x| *x = 0);
        self.coarse.iter_mut().for_each(|x| *x = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }
}

/// Wake-driven Phase A scheduler accounting (see `SimCore` and DESIGN.md
/// §8). Deliberately *not* part of [`Stats`]: `Stats` is compared exactly
/// in the wake differential tests (against a run that re-routes every
/// head every cycle), and these counters are the one thing that
/// legitimately differs between the two runs (the `check_sweeps`
/// precedent in `Sim`). Counted since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WakeCounters {
    /// Heads parked after a routing pass produced no feasible move (VC
    /// and injection-queue heads).
    pub parks: u64,
    /// Parked-head visits skipped (no ctx build / routing / feasibility).
    pub skips: u64,
    /// The injection-queue heads among `parks`.
    pub injection_parks: u64,
    /// The injection-queue visits among `skips`.
    pub injection_skips: u64,
    /// Subscription wake deliveries: entries consumed by slot-vacate
    /// fires (every subscriber of the freed slot's (link, VN, escape /
    /// non-escape) list wakes, exactness demands it).
    pub wakes: u64,
    /// Wakes whose next routing pass immediately re-parked the head
    /// (spurious: the wake event did not actually unblock it).
    pub spurious_wakes: u64,
    /// Conservative wake-alls (mechanism-forced cycles etc.).
    pub wake_alls: u64,
    /// Blocked VC-head visits that routed to nothing but did not park (a
    /// closed gate, or a wake deadline of `now + 1` that could not skip
    /// anything). While the gate is closed every blocked VC visit lands
    /// here.
    pub stalls: u64,
}

/// What the Phase A sweep did, in units the host clock cannot bend
/// (surfaced as `drain_kernel_work_total{unit}`). Like [`WakeCounters`]
/// it is outside [`Stats`]: the wake scheduler changes the work, never
/// the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Heads the sweep looked at: occupied VC slots and non-empty
    /// injection queues, ready or not, parked or not.
    pub heads_visited: u64,
    /// Output ports whose link and target slots a routed head's mask walk
    /// tested.
    pub ports_probed: u64,
}

/// Aggregated statistics for one simulation.
///
/// `PartialEq` compares every counter and histogram exactly — the
/// wake-scheduler differential tests rely on it to prove bit-identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Packets created by endpoints.
    pub generated: u64,
    /// Packets that entered the network (won injection allocation).
    pub injected: u64,
    /// Packets delivered to an ejection queue.
    pub ejected: u64,
    /// Network latency histogram (injection → ejection, tail-inclusive).
    pub net_latency: LatencyHistogram,
    /// Total latency histogram (creation → ejection, includes source
    /// queueing).
    pub total_latency: LatencyHistogram,
    /// Sum of hops over ejected packets.
    pub hops: u64,
    /// Hops that did not reduce distance to the destination.
    pub misroutes: u64,
    /// Hops forced by drains or spins.
    pub forced_hops: u64,
    /// Flit-link traversals (for dynamic power).
    pub flit_hops: u64,
    /// Drain windows executed.
    pub drains: u64,
    /// Full drains executed.
    pub full_drains: u64,
    /// Spin moves executed (SPIN baseline).
    pub spins: u64,
    /// Probe messages hops sent (SPIN baseline).
    pub probe_hops: u64,
    /// Structural deadlocks detected by the oracle.
    pub deadlocks_detected: u64,
    /// First cycle a deadlock was detected at (`u64::MAX` = never).
    pub first_deadlock_cycle: u64,
    /// Deadlocks resolved by the ideal oracle mechanism.
    pub oracle_resolutions: u64,
    /// Cycle of the last packet movement (watchdog input).
    pub last_progress_cycle: u64,
    /// Whether the watchdog tripped.
    pub watchdog_deadlock: bool,
    /// Measurement-window bookkeeping for throughput.
    pub window_start_cycle: u64,
    /// Packets ejected since the measurement window opened.
    pub window_ejected: u64,
}

impl Stats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Stats {
            first_deadlock_cycle: u64::MAX,
            ..Default::default()
        }
    }

    /// Opens a measurement window at `cycle`: latency histograms and the
    /// window ejection counter restart, cumulative counters are kept.
    pub fn open_window(&mut self, cycle: u64) {
        self.window_start_cycle = cycle;
        self.window_ejected = 0;
        self.net_latency.reset();
        self.total_latency.reset();
    }

    /// Received throughput in packets/node/cycle over the open window.
    pub fn throughput(&self, now: u64, num_nodes: usize) -> f64 {
        let cycles = now.saturating_sub(self.window_start_cycle);
        if cycles == 0 || num_nodes == 0 {
            return 0.0;
        }
        self.window_ejected as f64 / cycles as f64 / num_nodes as f64
    }

    /// Average hops per ejected packet.
    pub fn avg_hops(&self) -> f64 {
        if self.ejected == 0 {
            0.0
        } else {
            self.hops as f64 / self.ejected as f64
        }
    }

    /// Whether any deadlock was observed (oracle or watchdog).
    pub fn deadlocked(&self) -> bool {
        self.deadlocks_detected > 0 || self.watchdog_deadlock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for lat in 1..=100u64 {
            h.record(lat);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn histogram_coarse_range() {
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        h.record(5);
        assert_eq!(h.count(), 2);
        assert!(h.p99() >= 8192, "large sample lands in a coarse bucket");
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_reset() {
        let mut h = LatencyHistogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn throughput_window() {
        let mut s = Stats::new();
        s.open_window(100);
        s.window_ejected = 640;
        assert!((s.throughput(200, 64) - 0.1).abs() < 1e-12);
        assert_eq!(s.throughput(100, 64), 0.0);
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn quantile_zero_is_min_sample() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        h.record(1000);
        assert_eq!(h.quantile(0.0), 42);
        let mut coarse = LatencyHistogram::new();
        coarse.record(5000);
        assert!(coarse.quantile(0.0) >= 4096, "min falls in its coarse bucket");
    }

    #[test]
    fn coarse_quantile_reports_bucket_upper_bound() {
        let mut h = LatencyHistogram::new();
        h.record(3000); // bucket [2048, 4095]
        h.record(3000);
        h.record(100_000);
        // Median sits in the [2048, 4095] bucket; its upper bound is 4095.
        assert_eq!(h.quantile(0.5), 4095);
        // The top quantile is clamped to the observed max, not 2^k - 1.
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn snapshot_matches_direct_recording() {
        let mut h = LatencyHistogram::new();
        let mut direct = HistogramSnapshot::default();
        for v in [0u64, 1, 2, 3, 7, 100, 2047, 2048, 5000, 100_000] {
            h.record(v);
            direct.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, direct.count);
        assert_eq!(snap.sum, direct.sum);
        assert_eq!(snap.max, direct.max);
        // Exact samples land in identical bins; coarse samples may shift
        // up by at most one bucket (the coarse array only knows the
        // power-of-two range). For the values above they agree exactly.
        assert_eq!(snap.le, direct.le);
        assert_eq!(snap.le[HIST_BUCKETS - 1], snap.count);
        // Cumulative monotonicity.
        for k in 1..HIST_BUCKETS {
            assert!(snap.le[k] >= snap.le[k - 1]);
        }
    }

    #[test]
    fn merge_aggregates_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for lat in 1..=50u64 {
            a.record(lat);
        }
        for lat in 51..=100u64 {
            b.record(lat);
        }
        b.record(10_000);
        a.merge(&b);
        let mut reference = LatencyHistogram::new();
        for lat in 1..=100u64 {
            reference.record(lat);
        }
        reference.record(10_000);
        assert_eq!(a.count(), reference.count());
        assert!((a.mean() - reference.mean()).abs() < 1e-9);
        assert_eq!(a.max(), reference.max());
        assert_eq!(a.quantile(0.5), reference.quantile(0.5));
        assert_eq!(a.p99(), reference.p99());
    }
}
