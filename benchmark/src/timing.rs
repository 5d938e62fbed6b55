//! Repetition timings and the floor-sum.
//!
//! On this host medians drift by tens of percent between windows while
//! the best-of-N floor of one fixed piece of work repeats within a few
//! percent (README "Why a floor-sum"), so every gated host-time value is
//! a floor; median, max and n are printed beside it and never gated.

/// The timings (seconds) of one piece of work over the repetitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Fastest repetition (0 when nothing was timed).
    pub fn floor(&self) -> f64 {
        self.0.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }

    /// Middle repetition; the mean of the two middle ones for an even n.
    pub fn median(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// `floor (median M, max X, n N)` for the printed table.
    pub fn describe(&self) -> String {
        format!(
            "{:.6} (median {:.6}, max {:.6}, n {})",
            self.floor(),
            self.median(),
            self.max(),
            self.n()
        )
    }
}

/// Σ over the points of a workload of each point's fastest repetition.
pub fn floor_sum<'a>(points: impl IntoIterator<Item = &'a Samples>) -> f64 {
    points.into_iter().map(Samples::floor).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(xs: &[f64]) -> Samples {
        Samples(xs.to_vec())
    }

    #[test]
    fn floor_median_max() {
        let s = samples(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!(s.floor(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.n(), 4);
        assert_eq!(samples(&[3.0, 1.0, 2.0]).median(), 2.0);
    }

    #[test]
    fn empty_samples_read_zero() {
        let s = Samples::default();
        assert_eq!((s.floor(), s.median(), s.max(), s.n()), (0.0, 0.0, 0.0, 0));
    }

    #[test]
    fn floor_sum_takes_each_points_own_minimum() {
        // The repetition that is fastest for one point need not be the
        // fastest for another: 1.0 (rep 0) + 4.0 (rep 1), not min of sums.
        let a = samples(&[1.0, 2.0]);
        let b = samples(&[9.0, 4.0]);
        assert_eq!(floor_sum([&a, &b]), 5.0);
    }
}
