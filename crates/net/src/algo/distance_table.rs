//! All-pairs hop counts and the per-node distance tables of the
//! bounded-flooding scheme.
//!
//! Section 4.1 of the paper: "Each network node maintains a distance table
//! (DT). … The distance table at node `i` is a 2-dimensional matrix
//! containing, for each destination `j` and for each neighbor `k ∈ NB_i`,
//! the minimum hop count from `i` to `j` via `k`, denoted `D^j_{i,k}`. So
//! the minimum distance from node `i` to destination `j` is
//! `D^j_i = min_{k∈NB_i} D^j_{i,k} + 1` … updated only upon change of the
//! network topology."

use crate::{LinkId, Network, NodeId};

/// Precomputed minimum hop counts between every ordered node pair.
///
/// This is the global view from which every node's [`DistanceTable`] is
/// derived. Nothing maintains one: O(N²) memory is paid by whoever
/// computes it — tests holding [`crate::algo::bfs_hops_to`] to it, and
/// topology reports — while route selection measures the one column a
/// request needs.
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

/// Node `i`'s distance table: for each outgoing link (neighbor `k`) and
/// destination `j`, the minimum hop count of a route `i -> k -> … -> j`.
///
/// Built from a shared [`AllPairsHops`]; entries satisfy
/// `via(k, j) = 1 + hops(k, j)`.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    node: NodeId,
    /// Outgoing links of `node`, in adjacency order.
    links: Vec<LinkId>,
    /// `rows[a][j]` = hops from `node` to `j` via `links[a]`; `UNREACHABLE`
    /// when `j` cannot be reached through that neighbor.
    rows: Vec<Vec<u32>>,
}

impl DistanceTable {
    /// Builds node `i`'s table from the global hop counts.
    pub fn for_node(net: &Network, hops: &AllPairsHops, node: NodeId) -> Self {
        let links: Vec<LinkId> = net.out_links(node).to_vec();
        let n = net.num_nodes();
        let rows = links
            .iter()
            .map(|&lid| {
                let k = net.link(lid).dst();
                (0..n)
                    .map(|j| {
                        hops.hops(k, NodeId::new(j as u32))
                            .map_or(UNREACHABLE, |d| d + 1)
                    })
                    .collect()
            })
            .collect();
        DistanceTable { node, links, rows }
    }

    /// The node this table belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Minimum hop count from this node to `dest` when the first hop is
    /// `via` (an outgoing link of this node); `None` when `via` is not an
    /// outgoing link or `dest` is unreachable through it.
    ///
    /// This is the `D^j_{i,k}` the bounded-flooding distance test consults.
    pub fn via(&self, via: LinkId, dest: NodeId) -> Option<u32> {
        let row = self.links.iter().position(|&l| l == via)?;
        let d = self.rows[row][dest.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Minimum hop count from this node to `dest` over all neighbors
    /// (`D^j_i` in the paper), or `None` when unreachable.
    pub fn min_dist(&self, dest: NodeId) -> Option<u32> {
        self.rows
            .iter()
            .map(|row| row[dest.index()])
            .filter(|&d| d != UNREACHABLE)
            .min()
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
    fn table_via_equals_one_plus_neighbor_distance() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        let center = NodeId::new(4);
        let table = DistanceTable::for_node(&net, &hops, center);
        assert_eq!(table.node(), center);
        for &lid in net.out_links(center) {
            let k = net.link(lid).dst();
            for dest in net.nodes() {
                let expected = hops.hops(k, dest).map(|d| d + 1);
                assert_eq!(table.via(lid, dest), expected);
            }
        }
    }

    #[test]
    fn min_dist_matches_global_hops() {
        let net = topology::mesh(3, 4, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        for node in net.nodes() {
            let table = DistanceTable::for_node(&net, &hops, node);
            for dest in net.nodes() {
                if dest == node {
                    continue;
                }
                assert_eq!(
                    table.min_dist(dest),
                    hops.hops(node, dest),
                    "node {node} dest {dest}"
                );
            }
        }
    }

    #[test]
    fn via_unknown_link_is_none() {
        let net = topology::mesh(2, 2, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        let table = DistanceTable::for_node(&net, &hops, NodeId::new(0));
        // A link not incident to node 0:
        let foreign = net.find_link(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(table.via(foreign, NodeId::new(3)), None);
    }

    #[test]
    fn average_hops_positive_on_connected_net() {
        let net = topology::ring(8, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        assert!(hops.average_hops() > 1.0);
        assert_eq!(hops.diameter(), 4);
    }
}
