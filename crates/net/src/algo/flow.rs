//! Maximum flow and edge connectivity.
//!
//! The number of link-disjoint paths between two nodes (their *edge
//! connectivity*, by Menger's theorem the max flow under unit capacities)
//! is the hard ceiling on how many disjoint channels — one primary plus
//! `k` backups — a DR-connection between them can ever have. The
//! evaluation uses it to separate topology-imposed fault-tolerance limits
//! from routing-scheme behaviour.

use crate::{LinkId, Network, NodeId};
use std::collections::VecDeque;

/// Result of a [`max_flow`] computation.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    /// The maximum flow value (= number of link-disjoint paths under unit
    /// capacities).
    pub value: u64,
    /// Links carrying one unit of flow in the solution.
    pub saturated: Vec<LinkId>,
}

/// Computes the maximum `src → dst` flow with *unit* capacity per directed
/// link (Edmonds–Karp: BFS augmenting paths), restricted to links for
/// which `usable` returns `true`.
///
/// By Menger's theorem the value equals the maximum number of pairwise
/// link-disjoint directed paths. Runs in `O(V · E²)` worst case; trivial
/// at this crate's network sizes.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::mesh(3, 3, Bandwidth::from_mbps(10))?;
/// // The corner node 0 has degree 2, so at most 2 disjoint paths exist.
/// let flow = algo::max_flow(&net, NodeId::new(0), NodeId::new(8), |_| true);
/// assert_eq!(flow.value, 2);
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn max_flow(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    mut usable: impl FnMut(LinkId) -> bool,
) -> MaxFlow {
    let m = net.num_links();
    if src == dst || src.index() >= net.num_nodes() || dst.index() >= net.num_nodes() {
        return MaxFlow {
            value: 0,
            saturated: Vec::new(),
        };
    }
    // flow[l] ∈ {0, 1} on each directed link.
    let mut flow = vec![0u8; m];
    let enabled: Vec<bool> = net.links().map(|l| usable(l.id())).collect();
    let mut value = 0;

    loop {
        // BFS over the residual graph: forward through unused enabled
        // links, backward through used ones.
        #[derive(Clone, Copy)]
        enum Step {
            Forward(LinkId),
            Backward(LinkId),
        }
        let mut pred: Vec<Option<(NodeId, Step)>> = vec![None; net.num_nodes()];
        let mut queue = VecDeque::from([src]);
        'bfs: while let Some(u) = queue.pop_front() {
            for &l in net.out_links(u) {
                let v = net.link(l).dst();
                if enabled[l.index()]
                    && flow[l.index()] == 0
                    && pred[v.index()].is_none()
                    && v != src
                {
                    pred[v.index()] = Some((u, Step::Forward(l)));
                    if v == dst {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
            for &l in net.in_links(u) {
                let v = net.link(l).src();
                if flow[l.index()] == 1 && pred[v.index()].is_none() && v != src {
                    pred[v.index()] = Some((u, Step::Backward(l)));
                    if v == dst {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if pred[dst.index()].is_none() {
            break;
        }
        // Augment along the found path.
        let mut cur = dst;
        while cur != src {
            let (prev, step) = pred[cur.index()].expect("path exists");
            match step {
                Step::Forward(l) => flow[l.index()] = 1,
                Step::Backward(l) => flow[l.index()] = 0,
            }
            cur = prev;
        }
        value += 1;
    }

    MaxFlow {
        value,
        saturated: (0..m)
            .filter(|&i| flow[i] == 1)
            .map(|i| LinkId::new(i as u32))
            .collect(),
    }
}

/// The maximum number of pairwise link-disjoint directed paths from `src`
/// to `dst` (0 when equal or unreachable).
pub fn edge_connectivity(net: &Network, src: NodeId, dst: NodeId) -> u64 {
    max_flow(net, src, dst, |_| true).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth, NetworkBuilder};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn ring_has_two_disjoint_paths() {
        let net = topology::ring(6, CAP).unwrap();
        assert_eq!(edge_connectivity(&net, NodeId::new(0), NodeId::new(3)), 2);
    }

    #[test]
    fn path_graph_has_one() {
        let mut b = NetworkBuilder::with_nodes(3);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(1), NodeId::new(2), CAP)
            .unwrap();
        let net = b.build();
        assert_eq!(edge_connectivity(&net, NodeId::new(0), NodeId::new(2)), 1);
    }

    #[test]
    fn complete_graph_connectivity_is_degree() {
        let net = topology::complete(5, CAP).unwrap();
        assert_eq!(edge_connectivity(&net, NodeId::new(0), NodeId::new(4)), 4);
    }

    #[test]
    fn mesh_interior_has_more_paths_than_corners() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        // corner (deg 2) to corner: 2; edge-middle (deg 3) to edge-middle: 3.
        assert_eq!(edge_connectivity(&net, NodeId::new(0), NodeId::new(8)), 2);
        assert_eq!(edge_connectivity(&net, NodeId::new(3), NodeId::new(5)), 3);
    }

    #[test]
    fn flow_respects_link_filter() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let flow = max_flow(&net, NodeId::new(0), NodeId::new(1), |l| l != l01);
        assert_eq!(flow.value, 1, "only the long way remains");
        assert_eq!(flow.saturated.len(), 3);
    }

    #[test]
    fn degenerate_cases() {
        let net = topology::ring(4, CAP).unwrap();
        assert_eq!(edge_connectivity(&net, NodeId::new(1), NodeId::new(1)), 0);
        let mut b = NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        let net = b.build();
        assert_eq!(edge_connectivity(&net, NodeId::new(0), NodeId::new(3)), 0);
    }

    #[test]
    fn saturated_links_form_disjoint_paths() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let flow = max_flow(&net, NodeId::new(5), NodeId::new(10), |_| true);
        assert_eq!(flow.value, 4); // interior degree
                                   // Saturated links decompose into `value` link-disjoint paths: walk
                                   // them off.
        let mut pool: std::collections::BTreeSet<LinkId> = flow.saturated.iter().copied().collect();
        for _ in 0..flow.value {
            let mut cur = NodeId::new(5);
            let mut hops = 0;
            while cur != NodeId::new(10) {
                let l = net
                    .out_links(cur)
                    .iter()
                    .copied()
                    .find(|l| pool.contains(l))
                    .expect("flow decomposes into paths");
                pool.remove(&l);
                cur = net.link(l).dst();
                hops += 1;
                assert!(hops <= net.num_links(), "walk must terminate");
            }
        }
    }

    #[test]
    fn agrees_with_suurballe_feasibility() {
        // Wherever edge connectivity >= 2, Suurballe must find a pair, and
        // vice versa.
        for seed in 0..3 {
            let net = topology::random_connected(12, 18, CAP, seed).unwrap();
            for s in 0..4u32 {
                for d in 8..12u32 {
                    let k = edge_connectivity(&net, NodeId::new(s), NodeId::new(d));
                    let pair =
                        crate::algo::suurballe(&net, NodeId::new(s), NodeId::new(d), |_| Some(1));
                    assert_eq!(k >= 2, pair.is_some(), "seed {seed} {s}->{d} k={k}");
                }
            }
        }
    }
}
