//! First-class telemetry: counters, gauges, and log₂ histograms shared
//! by every experiment driver, campaign, and chaos harness.
//!
//! The module is deliberately integer-only. Counter values, gauge values
//! and histogram buckets are all `u64`/`i64`, so a [`Telemetry::snapshot`]
//! renders identically on every platform and under every `--jobs` count —
//! the byte-identity contract of the experiment drivers extends to their
//! instrumentation for free. Ratios that would naturally be floats (e.g.
//! `P_act-bk`) are stored in parts-per-million.
//!
//! Ownership follows the rest of the crate: each [`crate::DrtpManager`]
//! and each [`crate::orchestrator::RecoveryOrchestrator`] carries its own
//! `Telemetry`, and a driver that wants one report [`Telemetry::merge`]s
//! them. Merging is commutative and associative over disjoint or shared
//! keys (counters add, histograms add bucket-wise, gauges last-write),
//! so parallel workers can be combined in canonical order.

use std::collections::BTreeMap;

use crate::failure::FailureSweep;

/// Number of log₂ buckets a [`Histogram`] holds. Bucket `i ≥ 1` covers
/// values in `[2^(i-1), 2^i - 1]`; bucket 0 holds exact zeros; the last
/// bucket absorbs everything at or above `2^(NUM_BUCKETS-2)`.
pub const NUM_BUCKETS: usize = 40;

/// A fixed-size log₂ histogram of `u64` samples (microseconds, counts —
/// any nonnegative integer quantity).
///
/// The bucket layout trades resolution for determinism and mergeability:
/// `observe` is two instructions of bucketing plus four integer adds, the
/// struct is `Copy`-free but allocation-free, and two histograms merge by
/// bucket-wise addition regardless of what either saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `pct`-th percentile (0–100), reported as the upper bound of
    /// the bucket holding that rank and clamped to the observed maximum.
    /// Resolution is a factor of two — enough to tell 100 µs recoveries
    /// from 10 ms ones, which is what the degradation tables need.
    pub fn percentile(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = u64::from(pct.min(100));
        // Rank of the requested percentile, 1-based, rounding up.
        let rank = (self.count * pct).div_ceil(100);
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// The single instrumentation source: named counters, gauges, and
/// histograms with deterministic (sorted, integer-only) snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing has been recorded — the fast path callers
    /// check before formatting a snapshot.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (last write wins, also across merge).
    pub fn set_gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Current value of gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Records a duration sample (microseconds) into histogram `name`.
    pub fn observe_duration(&mut self, name: &'static str, d: drt_sim::SimDuration) {
        self.observe(name, d.as_micros());
    }

    /// The histogram called `name`, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise, gauges take `other`'s value.
    pub fn merge(&mut self, other: &Telemetry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k, *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// Records the aggregate of a completed single-failure sweep: trial
    /// counters plus the `P_act-bk` estimator as a parts-per-million
    /// gauge (integer, so snapshots stay byte-identical).
    pub fn record_sweep(&mut self, sweep: &FailureSweep) {
        let a = &sweep.aggregate;
        self.add("sweep.trials", a.trials);
        self.add("sweep.affected", a.affected);
        self.add("sweep.activated", a.activated);
        self.add("sweep.degraded", a.degraded);
        if let Some(ppm) = a
            .activated
            .saturating_mul(1_000_000)
            .checked_div(a.affected)
        {
            self.set_gauge("sweep.p_act_bk_ppm", ppm as i64);
        }
    }

    /// A deterministic plain-text snapshot: one sorted line per metric,
    /// integers only. Byte-identical across platforms and `--jobs`
    /// counts for the same recorded history.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, h) in &self.hists {
            out.push_str(&format!(
                "hist {k} count={} sum={} mean={} p50={} p95={} max={}\n",
                h.count(),
                h.sum(),
                h.mean(),
                h.percentile(50),
                h.percentile(95),
                h.max()
            ));
        }
        out
    }

    /// The snapshot as a single JSON object (sorted keys, integers only).
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        parts.push(format!("\"counters\": {{{}}}", counters.join(", ")));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        parts.push(format!("\"gauges\": {{{}}}", gauges.join(", ")));
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{k}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}}",
                    h.count(),
                    h.mean(),
                    h.percentile(50),
                    h.percentile(95),
                    h.max()
                )
            })
            .collect();
        parts.push(format!("\"histograms\": {{{}}}", hists.join(", ")));
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.sum(), 1_000_110);
        // p100 is clamped to the true max, not the bucket bound.
        assert_eq!(h.percentile(100), 1_000_000);
        assert_eq!(h.percentile(0), 0);
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(100); // bucket [64, 127]
        }
        for _ in 0..10 {
            h.observe(10_000); // bucket [8192, 16383]
        }
        assert_eq!(h.percentile(50), 127);
        assert_eq!(h.percentile(90), 127);
        assert_eq!(h.percentile(95), 10_000); // clamped to max
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        a.observe(5);
        let mut b = Histogram::new();
        b.observe(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        assert_eq!(a.sum(), 505);
    }

    #[test]
    fn telemetry_counters_gauges_hists() {
        let mut t = Telemetry::new();
        assert!(t.is_empty());
        t.incr("a");
        t.add("a", 4);
        t.set_gauge("g", -3);
        t.observe("h", 7);
        assert_eq!(t.counter("a"), 5);
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.gauge("g"), -3);
        assert_eq!(t.hist("h").map(Histogram::count), Some(1));
        assert!(!t.is_empty());
    }

    #[test]
    fn merge_adds_counters_and_keeps_other_gauges() {
        let mut a = Telemetry::new();
        a.add("c", 2);
        a.set_gauge("g", 1);
        a.observe("h", 10);
        let mut b = Telemetry::new();
        b.add("c", 3);
        b.set_gauge("g", 9);
        b.observe("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), 9);
        assert_eq!(a.hist("h").map(Histogram::count), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut t = Telemetry::new();
        t.add("z.last", 1);
        t.add("a.first", 2);
        t.observe("m.hist", 50);
        let s = t.snapshot();
        let a = s.find("a.first").expect("present");
        let z = s.find("z.last").expect("present");
        assert!(a < z, "counters render in sorted key order");
        assert_eq!(s, t.clone().snapshot(), "snapshot is a pure function");
        let json = t.to_json();
        assert!(json.contains("\"a.first\": 2"));
        assert!(json.contains("\"p95\""));
    }
}
