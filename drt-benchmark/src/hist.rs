//! Fixed-size log-bucket histogram of nanosecond latencies.
//!
//! Per-call sample vectors of the traced sites would grow with the run;
//! this histogram is 18 KiB whatever it records. Values below 128 ns get a
//! bucket each; above, every octave is cut into 64 buckets, so a bucket
//! is at most 1/64 of its lower bound wide and a percentile read from it
//! is within 1 % of the exact one.

const LINEAR: usize = 128;
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Highest octave kept (2^41 ns ≈ 37 min); larger values clamp into it.
const TOP_OCTAVE: u32 = 40;
const BUCKETS: usize = LINEAR + (TOP_OCTAVE as usize - 6) * SUB;

/// A latency histogram with a fixed memory footprint.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    // Values past the top octave land in its last bucket.
    let v = v.min((1 << (TOP_OCTAVE + 1)) - 1);
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    LINEAR + (octave as usize - 7) * SUB + sub
}

/// `[lo, hi)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < LINEAR {
        return (i as f64, i as f64 + 1.0);
    }
    let octave = (i - LINEAR) / SUB + 7;
    let sub = (i - LINEAR) % SUB;
    let width = (1u64 << (octave as u32 - SUB_BITS)) as f64;
    let lo = (1u64 << octave) as f64 + sub as f64 * width;
    (lo, lo + width)
}

impl Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value `other` recorded.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q ≤ 1`, nearest rank), interpolated inside
    /// its bucket by rank so that two runs whose percentile falls into
    /// one bucket still read differently. Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = bounds(i);
                return lo + (hi - lo) * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank ≤ total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile of a sorted vector: the oracle.
    fn oracle(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn percentiles_match_sorted_vector_within_one_percent() {
        let mut s = 42u64;
        // Three shapes: narrow, heavy-tailed over six decades, tiny values.
        let shapes: [Box<dyn Fn(u64) -> u64>; 3] = [
            Box::new(|r| 10_000 + r % 3_000),
            Box::new(|r| 50 + (r % 1_000) * (1 + (r >> 20) % 1_000) * (1 + (r >> 40) % 50)),
            Box::new(|r| r % 200),
        ];
        for shape in shapes {
            let mut h = Hist::default();
            let mut v = Vec::new();
            for _ in 0..20_000 {
                let x = shape(xorshift(&mut s));
                h.record(x);
                v.push(x);
            }
            v.sort_unstable();
            assert_eq!(h.count(), v.len() as u64);
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let (got, want) = (h.quantile(q), oracle(&v, q));
                assert!(
                    (got - want).abs() <= 0.01 * want.max(1.0) + 1.0,
                    "q={q}: histogram {got} vs oracle {want}"
                );
            }
        }
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut prev_hi = 0.0;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i}");
            assert_eq!(bucket_of(lo as u64), i);
            assert_eq!(bucket_of(hi as u64 - 1), i);
            prev_hi = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_reads_zero_and_merge_adds() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(7);
        assert!((h.quantile(0.5) - 7.5).abs() < 1e-9);
        let mut both = Hist::default();
        both.record(1_000);
        both.merge(&h);
        assert_eq!(both.count(), 2);
        assert!(both.quantile(1.0) > 990.0);
    }
}
