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
        // zero below; any nonzero duration is fine. lint:allow(float-eq)
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

/// Streaming quantile estimator (the P² algorithm of Jain & Chlamtac,
/// 1985): estimates one fixed quantile in `O(1)` memory without storing
/// observations.
///
/// Used for latency-distribution tails, where no fixed range of bins
/// fits. Exact for the first five observations; thereafter the five
/// P² markers track the quantile with piecewise-parabolic interpolation.
///
/// # Example
///
/// ```
/// use drt_sim::stats::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// for i in 1..=1001 {
///     q.push(i as f64);
/// }
/// let median = q.estimate().unwrap();
/// assert!((median - 501.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (sorted estimates).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` (clamped into `(0, 1)`).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(1e-9, 1.0 - 1e-9);
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;

        // Find the cell containing x and clamp the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is between the extremes")
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = new_h;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate; `None` before any observation.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut sorted = self.heights[..n].to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let rank = (self.q * (n - 1) as f64).round() as usize;
                Some(sorted[rank])
            }
            _ => Some(self.heights[2]),
        }
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
    fn p2_median_on_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        let mut rng_state = 88172645463325252u64;
        let mut xorshift = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 10_000) as f64 / 10_000.0
        };
        for _ in 0..50_000 {
            q.push(xorshift());
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
        assert_eq!(q.count(), 50_000);
        assert_eq!(q.quantile(), 0.5);
    }

    #[test]
    fn p2_p99_on_skewed_stream() {
        let mut q = P2Quantile::new(0.99);
        // Exponential-ish data via inverse CDF over a deterministic grid.
        let n = 100_000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            q.push(-(1.0 - u).ln());
        }
        // True p99 of Exp(1) is -ln(0.01) ≈ 4.605.
        let est = q.estimate().unwrap();
        assert!((est - 4.605).abs() < 0.25, "p99 estimate {est}");
    }

    #[test]
    fn p2_small_samples_are_exact_order_statistics() {
        let mut q = P2Quantile::new(0.5);
        q.push(10.0);
        assert_eq!(q.estimate(), Some(10.0));
        q.push(2.0);
        q.push(7.0);
        // Sorted: [2, 7, 10]; median = 7.
        assert_eq!(q.estimate(), Some(7.0));
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
