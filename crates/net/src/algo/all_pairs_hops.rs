//! All-pairs hop counts: the global view of the bounded-flooding
//! scheme's distances.
//!
//! Section 4.1 of the paper has every node keep a distance table of
//! `D^j_{i,k}`, the minimum hop count from `i` to `j` via neighbour `k`,
//! "updated only upon change of the network topology". `D^j_{i,k}` is
//! `1 + hops(k, j)`, so one matrix of hop counts holds every node's table;
//! a flood reads one column of it, which [`crate::algo::bfs_hops_to`]
//! measures on demand.

use crate::{LinkId, Network, NodeId};

/// Precomputed minimum hop counts between every ordered node pair.
///
/// Nothing maintains one: O(N²) memory is paid by whoever computes it —
/// tests holding [`crate::algo::bfs_hops_to`] to it, and topology reports
/// — while route selection measures the one column a request needs.
#[derive(Debug, Clone)]
pub struct AllPairsHops {
    n: usize,
    // dist[src][dst], u32::MAX = unreachable
    dist: Vec<u32>,
}

const UNREACHABLE: u32 = u32::MAX;

impl AllPairsHops {
    /// Computes hop counts with one BFS per node (`O(n · (n + N))`).
    pub fn compute(net: &Network) -> Self {
        Self::compute_filtered(net, |_| true)
    }

    /// [`AllPairsHops::compute`] restricted to links for which `usable`
    /// returns `true` (e.g. masking failed links, as the paper's distance
    /// tables are "updated only upon change of the network topology").
    pub fn compute_filtered(net: &Network, mut usable: impl FnMut(LinkId) -> bool) -> Self {
        let n = net.num_nodes();
        let mut dist = vec![UNREACHABLE; n * n];
        for src in net.nodes() {
            let row = crate::algo::bfs_hops_filtered(net, src, &mut usable);
            for (j, d) in row.into_iter().enumerate() {
                if let Some(d) = d {
                    dist[src.index() * n + j] = d;
                }
            }
        }
        AllPairsHops { n, dist }
    }

    /// Minimum hop count from `src` to `dst`, or `None` when unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.dist[src.index() * self.n + dst.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// The average hop count over all ordered reachable pairs with
    /// `src != dst` (useful for calibrating hop-count limits).
    pub fn average_hops(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                let d = self.dist[i * self.n + j];
                if d != UNREACHABLE {
                    total += u64::from(d);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// The largest finite hop count (network diameter); 0 for empty or
    /// fully disconnected networks.
    pub fn diameter(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn hops_match_manhattan_distance_on_mesh() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        // corner to opposite corner
        assert_eq!(hops.hops(NodeId::new(0), NodeId::new(8)), Some(4));
        assert_eq!(hops.hops(NodeId::new(0), NodeId::new(0)), Some(0));
        assert_eq!(hops.diameter(), 4);
    }

    #[test]
    fn average_hops_positive_on_connected_net() {
        let net = topology::ring(8, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        assert!(hops.average_hops() > 1.0);
        assert_eq!(hops.diameter(), 4);
    }
}
