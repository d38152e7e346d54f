//! The paper's two traffic patterns.
//!
//! Section 6.1: "The simulation study uses two traffic patterns. One,
//! called UT, is uniform random selection of source and destination nodes.
//! The other, NT, is random pre-selection of 10 nodes as destinations for
//! 50% of DR-connections."

use drt_net::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How source/destination pairs of DR-connection requests are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// `UT`: source and destination drawn uniformly (distinct).
    Uniform,
    /// `NT`: with probability `fraction` the destination is drawn from the
    /// pre-selected `hot` set; the source (and the remaining destinations)
    /// are uniform.
    HotDestinations {
        /// The pre-selected hot destination nodes.
        hot: Vec<NodeId>,
        /// Fraction of requests directed at a hot node (0..=1).
        fraction: f64,
    },
    /// `FC`: a flash crowd — a skew well past the paper's NT pattern,
    /// where a *single* destination draws most of the offered load (think
    /// a breaking-news origin server). The hostile-workload campaigns use
    /// it to concentrate backup contention onto one region.
    FlashCrowd {
        /// The node the crowd converges on.
        target: NodeId,
        /// Fraction of requests directed at the target (0..=1).
        fraction: f64,
    },
}

impl TrafficPattern {
    /// The paper's `UT` pattern.
    pub fn ut() -> Self {
        TrafficPattern::Uniform
    }

    /// The paper's `NT` pattern: `count` distinct random nodes (out of
    /// `num_nodes`) receive `fraction` of all connections.
    ///
    /// # Panics
    ///
    /// Panics when `count > num_nodes`, when `num_nodes == 0`, or when
    /// `fraction` is outside `[0, 1]`.
    pub fn nt(num_nodes: usize, count: usize, fraction: f64, rng: &mut StdRng) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(count <= num_nodes, "more hot nodes than nodes");
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut ids: Vec<NodeId> = (0..num_nodes as u32).map(NodeId::new).collect();
        ids.shuffle(rng);
        ids.truncate(count);
        ids.sort();
        TrafficPattern::HotDestinations { hot: ids, fraction }
    }

    /// The paper's exact NT parameters: 10 hot nodes, 50% of connections.
    pub fn nt_paper(num_nodes: usize, rng: &mut StdRng) -> Self {
        Self::nt(num_nodes, 10.min(num_nodes), 0.5, rng)
    }

    /// A flash crowd converging on one random node with the given
    /// traffic fraction.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes == 0` or `fraction` is outside `[0, 1]`.
    pub fn flash_crowd(num_nodes: usize, fraction: f64, rng: &mut StdRng) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let target = NodeId::new(rng.gen_range(0..num_nodes as u32));
        TrafficPattern::FlashCrowd { target, fraction }
    }

    /// Short name used in reports ("UT" / "NT" / "FC").
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "UT",
            TrafficPattern::HotDestinations { .. } => "NT",
            TrafficPattern::FlashCrowd { .. } => "FC",
        }
    }

    /// Draws a `(source, destination)` pair with `source != destination`
    /// from a network of `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes < 2`.
    pub fn sample_pair(&self, num_nodes: usize, rng: &mut StdRng) -> (NodeId, NodeId) {
        assert!(num_nodes >= 2, "need at least two nodes to form a pair");
        let n = num_nodes as u32;
        let dst = match self {
            TrafficPattern::Uniform => NodeId::new(rng.gen_range(0..n)),
            TrafficPattern::HotDestinations { hot, fraction } => {
                if !hot.is_empty() && rng.gen::<f64>() < *fraction {
                    *hot.choose(rng).expect("hot set nonempty")
                } else {
                    NodeId::new(rng.gen_range(0..n))
                }
            }
            TrafficPattern::FlashCrowd { target, fraction } => {
                if rng.gen::<f64>() < *fraction {
                    *target
                } else {
                    NodeId::new(rng.gen_range(0..n))
                }
            }
        };
        // Uniform source distinct from the destination.
        let mut src = NodeId::new(rng.gen_range(0..n - 1));
        if src.index() >= dst.index() {
            src = NodeId::new(src.as_u32() + 1);
        }
        (src, dst)
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::Uniform => write!(f, "UT (uniform)"),
            TrafficPattern::HotDestinations { hot, fraction } => write!(
                f,
                "NT ({} hot destinations, {:.0}% of traffic)",
                hot.len(),
                fraction * 100.0
            ),
            TrafficPattern::FlashCrowd { target, fraction } => write!(
                f,
                "FC (flash crowd on node {target}, {:.0}% of traffic)",
                fraction * 100.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let p = TrafficPattern::ut();
        let mut r = rng::stream(1, "traffic");
        for _ in 0..5_000 {
            let (s, d) = p.sample_pair(60, &mut r);
            assert_ne!(s, d);
            assert!(s.index() < 60);
            assert!(d.index() < 60);
        }
    }

    #[test]
    fn uniform_covers_all_nodes() {
        let p = TrafficPattern::ut();
        let mut r = rng::stream(2, "traffic");
        let mut seen_src = [false; 10];
        let mut seen_dst = [false; 10];
        for _ in 0..2_000 {
            let (s, d) = p.sample_pair(10, &mut r);
            seen_src[s.index()] = true;
            seen_dst[d.index()] = true;
        }
        assert!(seen_src.iter().all(|&b| b));
        assert!(seen_dst.iter().all(|&b| b));
    }

    #[test]
    fn nt_concentrates_half_the_traffic() {
        let mut setup = rng::stream(3, "hotset");
        let p = TrafficPattern::nt_paper(60, &mut setup);
        let TrafficPattern::HotDestinations { ref hot, fraction } = p else {
            panic!("expected NT");
        };
        assert_eq!(hot.len(), 10);
        assert_eq!(fraction, 0.5);

        let mut r = rng::stream(3, "traffic");
        let n = 20_000;
        let mut hot_hits = 0;
        for _ in 0..n {
            let (_, d) = p.sample_pair(60, &mut r);
            if hot.contains(&d) {
                hot_hits += 1;
            }
        }
        // 50% targeted + 10/60 of the uniform remainder ≈ 58.3%.
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - (0.5 + 0.5 * 10.0 / 60.0)).abs() < 0.02, "{frac}");
    }

    #[test]
    fn nt_hot_nodes_are_distinct() {
        let mut r = rng::stream(4, "hotset");
        let p = TrafficPattern::nt(20, 10, 0.5, &mut r);
        let TrafficPattern::HotDestinations { hot, .. } = p else {
            panic!()
        };
        let set: std::collections::BTreeSet<_> = hot.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn labels() {
        let mut r = rng::stream(5, "hotset");
        assert_eq!(TrafficPattern::ut().label(), "UT");
        assert_eq!(TrafficPattern::nt_paper(60, &mut r).label(), "NT");
    }

    #[test]
    fn flash_crowd_concentrates_on_one_target() {
        let mut setup = rng::stream(9, "crowd");
        let p = TrafficPattern::flash_crowd(60, 0.8, &mut setup);
        let TrafficPattern::FlashCrowd { target, fraction } = p else {
            panic!("expected FC");
        };
        assert_eq!(fraction, 0.8);
        assert_eq!(p.label(), "FC");

        let mut r = rng::stream(9, "traffic");
        let n = 20_000;
        let mut hits = 0;
        for _ in 0..n {
            let (s, d) = p.sample_pair(60, &mut r);
            assert_ne!(s, d);
            if d == target {
                hits += 1;
            }
        }
        // 80% targeted + 1/60 of the uniform remainder ≈ 80.3%.
        let frac = hits as f64 / n as f64;
        assert!((frac - (0.8 + 0.2 / 60.0)).abs() < 0.02, "{frac}");
    }

    #[test]
    #[should_panic(expected = "more hot nodes than nodes")]
    fn nt_rejects_oversized_hot_set() {
        let mut r = rng::stream(6, "hotset");
        let _ = TrafficPattern::nt(5, 6, 0.5, &mut r);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn sample_needs_two_nodes() {
        let mut r = rng::stream(7, "traffic");
        let _ = TrafficPattern::ut().sample_pair(1, &mut r);
    }

    #[test]
    fn zero_fraction_nt_behaves_like_ut() {
        let mut setup = rng::stream(8, "hotset");
        let p = TrafficPattern::nt(30, 5, 0.0, &mut setup);
        let mut r = rng::stream(8, "traffic");
        // Just verify it samples without bias crashes; distribution checks
        // are covered by the uniform tests.
        for _ in 0..100 {
            let (s, d) = p.sample_pair(30, &mut r);
            assert_ne!(s, d);
        }
    }
}
