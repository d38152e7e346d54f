//! Bellman–Ford single-source shortest paths.
//!
//! The paper notes that the bounded-flooding distance tables "can be
//! calculated using the Dijkstra's algorithm or the Bellman–Ford
//! distance-vector algorithm"; this module provides the latter, and the
//! test-suite cross-checks the two implementations against each other.
//! Costs are unsigned integers, as in Dijkstra, so the two agree exactly
//! and no cycle can be negative.

use crate::{LinkId, Network, NodeId, Route};

/// Result of a [`bellman_ford`] run.
#[derive(Debug, Clone)]
pub struct BellmanFordOutcome {
    source: NodeId,
    dist: Vec<Option<u128>>,
    parent_link: Vec<Option<LinkId>>,
}

impl BellmanFordOutcome {
    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u128> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Reconstructs the cheapest route to `dest` (see
    /// [`crate::algo::ShortestPathTree::route_to`] for semantics).
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.distance(dest)?;
        super::dijkstra::walk_back(net, self.source, dest, |i| self.parent_link[i])
    }
}

/// Runs Bellman–Ford from `src`, relaxing every link until no label
/// falls. A label falls only on a strictly cheaper route, so the parent
/// links form a tree.
///
/// Links for which `cost` returns `None` are excluded.
pub fn bellman_ford(
    net: &Network,
    src: NodeId,
    mut cost: impl FnMut(LinkId) -> Option<u128>,
) -> BellmanFordOutcome {
    let n = net.num_nodes();
    let mut dist: Vec<Option<u128>> = vec![None; n];
    let mut parent_link: Vec<Option<LinkId>> = vec![None; n];
    if src.index() < n {
        dist[src.index()] = Some(0);
    }

    // Pre-resolve costs once: the closure may be stateful, and Bellman–Ford
    // relaxes each link many times.
    let costs: Vec<Option<u128>> = net.links().map(|l| cost(l.id())).collect();

    let mut changed = true;
    while changed {
        changed = false;
        for link in net.links() {
            let Some(c) = costs[link.id().index()] else {
                continue;
            };
            let Some(du) = dist[link.src().index()] else {
                continue;
            };
            let cand = du + c;
            if dist[link.dst().index()].is_none_or(|cur| cand < cur) {
                dist[link.dst().index()] = Some(cand);
                parent_link[link.dst().index()] = Some(link.id());
                changed = true;
            }
        }
    }

    BellmanFordOutcome {
        source: src,
        dist,
        parent_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::shortest_path_tree;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn agrees_with_dijkstra_on_unit_costs() {
        let net = topology::mesh(4, 5, CAP).unwrap();
        let bf = bellman_ford(&net, NodeId::new(0), |_| Some(1));
        let dj = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
        for node in net.nodes() {
            assert_eq!(bf.distance(node), dj.distance(node), "node {node}");
        }
    }

    #[test]
    fn route_reconstruction() {
        let net = topology::ring(5, CAP).unwrap();
        let bf = bellman_ford(&net, NodeId::new(0), |_| Some(1));
        let r = bf.route_to(&net, NodeId::new(2)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.dest(), NodeId::new(2));
        assert!(bf.route_to(&net, NodeId::new(0)).is_none());
    }

    #[test]
    fn excluded_links_unreachable() {
        let net = topology::ring(4, CAP).unwrap();
        let bf = bellman_ford(&net, NodeId::new(0), |_| None);
        for node in net.nodes().skip(1) {
            assert_eq!(bf.distance(node), None);
        }
    }
}
