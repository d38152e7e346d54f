//! Online statistics for the measurement phase.

use crate::{SimDuration, SimTime};
use std::fmt;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use drt_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); 0 when fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the normal-approximation 95% confidence interval for
    /// the mean (`1.96 · s/√n`); 0 when fewer than 2 samples.
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} ±{:.4} (sd {:.4})",
            self.count,
            self.mean(),
            self.ci95_halfwidth(),
            self.stddev()
        )
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. "number of
/// active DR-connections"), the estimator behind the paper's capacity
/// overhead measurements.
///
/// # Example
///
/// ```
/// use drt_sim::stats::TimeWeighted;
/// use drt_sim::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from_secs(10), 4.0); // value was 0 for 10 s
/// tw.update(SimTime::from_secs(30), 0.0); // value was 4 for 20 s
/// assert!((tw.average(SimTime::from_secs(40)) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the initial value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics when `now` precedes the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        let dt = (now - self.last_time).as_secs_f64();
        self.weighted_sum += self.last_value * dt;
        self.last_time = now;
        self.last_value = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Time-weighted average from the start instant to `now`.
    pub fn average(&self, now: SimTime) -> f64 {
        let tail = now.saturating_since(self.last_time).as_secs_f64();
        let total = now.saturating_since(self.start).as_secs_f64();
        // Exact-zero elapsed time (no step taken yet) would divide by
        // zero below; any nonzero duration is fine.
        if total == 0.0 {
            self.last_value
        } else {
            (self.weighted_sum + self.last_value * tail) / total
        }
    }

    /// Forgets history before `now` (used to discard the warm-up phase).
    pub fn reset(&mut self, now: SimTime) {
        let value = self.last_value;
        *self = TimeWeighted::new(now, value);
    }
}

/// Mean holding-time helper: converts a count of arrivals and a total
/// observation window into an offered-load figure `λ · E[t]` (Erlangs).
pub fn offered_load_erlangs(arrivals: u64, window: SimDuration, mean_holding: SimDuration) -> f64 {
    if window.is_zero() {
        return 0.0;
    }
    let lambda = arrivals as f64 / window.as_secs_f64();
    lambda * mean_holding.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_textbook_example() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(s.ci95_halfwidth() > 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.ci95_halfwidth(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        xs.iter().for_each(|&x| all.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - all.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let b = OnlineStats::new();
        let mut c = a;
        c.merge(&b);
        assert_eq!(c, a);
        let mut d = OnlineStats::new();
        d.merge(&a);
        assert_eq!(d.mean(), 1.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_secs(10), 3.0);
        // signal: 1.0 for [0,10), 3.0 for [10,20)
        assert!((tw.average(SimTime::from_secs(20)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.current(), 3.0);
    }

    #[test]
    fn time_weighted_reset_discards_warmup() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 100.0);
        tw.update(SimTime::from_secs(50), 2.0);
        tw.reset(SimTime::from_secs(50));
        tw.update(SimTime::from_secs(60), 4.0);
        // After reset only [50,70) counts: 2.0 for 10 s, 4.0 for 10 s.
        assert!((tw.average(SimTime::from_secs(70)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_window() {
        let tw = TimeWeighted::new(SimTime::from_secs(5), 7.0);
        assert_eq!(tw.average(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    fn offered_load() {
        // 0.5 arrivals/s with 40-minute mean holding = 1200 Erlangs.
        let load = offered_load_erlangs(
            1800,
            SimDuration::from_hours(1),
            SimDuration::from_minutes(40),
        );
        assert!((load - 1200.0).abs() < 1e-9);
        assert_eq!(
            offered_load_erlangs(10, SimDuration::ZERO, SimDuration::from_secs(1)),
            0.0
        );
    }
}
