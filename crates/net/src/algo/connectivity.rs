//! Reachability and connectivity utilities.

use crate::{Network, NodeId};
use std::collections::VecDeque;

/// Breadth-first hop counts from `src` along directed links; `None` for
/// unreachable nodes.
pub fn bfs_hops(net: &Network, src: NodeId) -> Vec<Option<u32>> {
    bfs_hops_filtered(net, src, |_| true)
}

/// [`bfs_hops`] restricted to links for which `usable` returns `true`
/// (e.g. masking failed links).
pub fn bfs_hops_filtered(
    net: &Network,
    src: NodeId,
    mut usable: impl FnMut(crate::LinkId) -> bool,
) -> Vec<Option<u32>> {
    let mut dist = vec![None; net.num_nodes()];
    if src.index() >= net.num_nodes() {
        return dist;
    }
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        let d = dist[node.index()].expect("queued nodes have distances");
        for &lid in net.out_links(node) {
            if !usable(lid) {
                continue;
            }
            let next = net.link(lid).dst();
            if dist[next.index()].is_none() {
                dist[next.index()] = Some(d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Breadth-first hop counts **to** `dst` — entry `i` is the length of the
/// shortest directed route `i → dst` over links for which `usable`
/// returns `true`, `None` when there is none. The mirror image of
/// [`bfs_hops_filtered`], searching backwards over [`Network::in_links`]:
/// the two differ as soon as one direction of a duplex pair is masked.
/// One column of the paper's distance tables (§4.1), which is all a
/// bounded flood towards `dst` reads. A fresh-buffer shorthand for
/// [`bfs_hops_to_in`].
pub fn bfs_hops_to(
    net: &Network,
    dst: NodeId,
    usable: impl FnMut(crate::LinkId) -> bool,
) -> Vec<Option<u32>> {
    let mut dist = Vec::new();
    bfs_hops_to_in(net, dst, usable, &mut dist, &mut Vec::new());
    dist
}

/// [`bfs_hops_to`] into caller-owned buffers: `dist` is overwritten with
/// the column (one entry per node) and `queue` is scratch. A caller that
/// keeps both across searches allocates nothing once they have grown to
/// the network's size.
pub fn bfs_hops_to_in(
    net: &Network,
    dst: NodeId,
    mut usable: impl FnMut(crate::LinkId) -> bool,
    dist: &mut Vec<Option<u32>>,
    queue: &mut Vec<NodeId>,
) {
    dist.clear();
    dist.resize(net.num_nodes(), None);
    if dst.index() >= net.num_nodes() {
        return;
    }
    dist[dst.index()] = Some(0);
    // Every node is queued at most once, so a vector read from `head`
    // is the whole queue.
    queue.clear();
    queue.push(dst);
    let mut head = 0;
    while let Some(&node) = queue.get(head) {
        head += 1;
        let d = dist[node.index()].expect("queued nodes have distances");
        for &lid in net.in_links(node) {
            if !usable(lid) {
                continue;
            }
            let prev = net.link(lid).src();
            if dist[prev.index()].is_none() {
                dist[prev.index()] = Some(d + 1);
                queue.push(prev);
            }
        }
    }
}

/// The set of nodes reachable from `src` along directed links (including
/// `src` itself), as a boolean mask indexed by node.
pub fn reachable_from(net: &Network, src: NodeId) -> Vec<bool> {
    bfs_hops(net, src)
        .into_iter()
        .map(|d| d.is_some())
        .collect()
}

/// Returns `true` when every node can reach every other node along directed
/// links.
///
/// Uses the standard double-BFS check (forward from node 0, then along
/// reversed links), which is exact for strong connectivity.
pub fn is_strongly_connected(net: &Network) -> bool {
    let n = net.num_nodes();
    if n <= 1 {
        return true;
    }
    let start = NodeId::new(0);
    if reachable_from(net, start).iter().any(|r| !r) {
        return false;
    }
    // Reverse reachability via in-links.
    bfs_hops_to(net, start, |_| true)
        .iter()
        .all(Option::is_some)
}

/// Finds all bridges of the network's *undirected view* (each unordered
/// node pair with at least one link in either direction counts as one
/// edge). Returns the bridge endpoints as `(lower, higher)` node-id pairs,
/// sorted.
///
/// A bridge is an edge whose removal disconnects its component. For DRTP,
/// bridges mark exactly the links for which *no* connection crossing them
/// can ever have a link-disjoint backup — a structural cap on fault
/// tolerance that the topology generators therefore avoid.
pub fn bridges(net: &Network) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes();
    // Undirected simple adjacency. The builder refuses a second `a → b`
    // link, so a node pair carries at most a duplex pair — one undirected
    // edge, added from its lower-id direction — and never a parallel edge.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for link in net.links() {
        let (a, b) = (link.src().index(), link.dst().index());
        if a < b || net.reverse_link(link.id()).is_none() {
            adj[a].push(b);
            adj[b].push(a);
        }
    }

    let mut disc = vec![0usize; n];
    let mut low = vec![0usize; n];
    let mut visited = vec![false; n];
    let mut out = Vec::new();
    let mut timer = 1usize;

    // Iterative DFS to keep stack depth independent of graph size.
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // (node, parent, next child index)
        let mut stack: Vec<(usize, usize, usize)> = vec![(start, usize::MAX, 0)];
        visited[start] = true;
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        while let Some(frame) = stack.last_mut() {
            let (u, parent) = (frame.0, frame.1);
            if frame.2 < adj[u].len() {
                let v = adj[u][frame.2];
                frame.2 += 1;
                if !visited[v] {
                    visited[v] = true;
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, u, 0));
                } else if v != parent {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(pframe) = stack.last_mut() {
                    let p = pframe.0;
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        out.push((NodeId::new(p.min(u) as u32), NodeId::new(p.max(u) as u32)));
                    }
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth, NetworkBuilder};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn bfs_on_ring() {
        let net = topology::ring(6, CAP).unwrap();
        let d = bfs_hops(&net, NodeId::new(0));
        assert_eq!(d[0], Some(0));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], Some(2));
    }

    #[test]
    fn hops_to_follows_link_direction() {
        let net = topology::ring(6, CAP).unwrap();
        let (src, dst) = (NodeId::new(1), NodeId::new(0));
        // Unmasked, a duplex ring is symmetric.
        assert_eq!(bfs_hops_to(&net, dst, |_| true), bfs_hops(&net, dst));
        // Mask 1 -> 0 only: node 1 now goes the long way round to reach
        // 0, while 0 still reaches 1 in one hop.
        let down = net.find_link(src, dst).unwrap();
        let to = bfs_hops_to(&net, dst, |l| l != down);
        let from = bfs_hops_filtered(&net, dst, |l| l != down);
        assert_eq!(to[src.index()], Some(5));
        assert_eq!(from[src.index()], Some(1));
        // Each entry is the forward search from that node, read at `dst`.
        for node in net.nodes() {
            let forward = bfs_hops_filtered(&net, node, |l| l != down);
            assert_eq!(to[node.index()], forward[dst.index()], "from {node}");
        }
    }

    #[test]
    fn hops_to_in_overwrites_reused_buffers() {
        let big = topology::mesh(4, 4, CAP).unwrap();
        let ring = topology::ring(6, CAP).unwrap();
        let (mut dist, mut queue) = (Vec::new(), Vec::new());
        bfs_hops_to_in(&big, NodeId::new(15), |_| true, &mut dist, &mut queue);
        assert_eq!(dist.len(), 16);
        for dst in ring.nodes() {
            bfs_hops_to_in(&ring, dst, |_| true, &mut dist, &mut queue);
            assert_eq!(dist, bfs_hops(&ring, dst), "to {dst}");
        }
        bfs_hops_to_in(&ring, NodeId::new(9), |_| true, &mut dist, &mut queue);
        assert_eq!(dist, vec![None; 6]);
    }

    #[test]
    fn hops_to_unreachable_and_out_of_range() {
        // 0 -> 1 -> 2 one way, node 3 isolated.
        let mut b = NetworkBuilder::with_nodes(4);
        b.add_link(NodeId::new(0), NodeId::new(1), CAP).unwrap();
        b.add_link(NodeId::new(1), NodeId::new(2), CAP).unwrap();
        let net = b.build();
        assert_eq!(
            bfs_hops_to(&net, NodeId::new(2), |_| true),
            vec![Some(2), Some(1), Some(0), None]
        );
        // Nothing reaches 0 but 0 itself.
        assert_eq!(
            bfs_hops_to(&net, NodeId::new(0), |_| true),
            vec![Some(0), None, None, None]
        );
        assert_eq!(bfs_hops_to(&net, NodeId::new(9), |_| true), vec![None; 4]);
    }

    #[test]
    fn disconnected_components_detected() {
        let mut b = NetworkBuilder::with_nodes(5);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), CAP)
            .unwrap();
        let net = b.build();
        assert!(!is_strongly_connected(&net));
    }

    #[test]
    fn one_way_link_breaks_strong_connectivity() {
        let mut b = NetworkBuilder::with_nodes(2);
        b.add_link(NodeId::new(0), NodeId::new(1), CAP).unwrap();
        let net = b.build();
        assert!(!is_strongly_connected(&net));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(is_strongly_connected(&NetworkBuilder::new().build()));
        assert!(is_strongly_connected(
            &NetworkBuilder::with_nodes(1).build()
        ));
    }

    #[test]
    fn bridges_on_path_graph() {
        let mut b = NetworkBuilder::with_nodes(4);
        for i in 0..3u32 {
            b.add_duplex_link(NodeId::new(i), NodeId::new(i + 1), CAP)
                .unwrap();
        }
        let net = b.build();
        assert_eq!(
            bridges(&net),
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(3)),
            ]
        );
    }

    #[test]
    fn ring_has_no_bridges() {
        let net = topology::ring(6, CAP).unwrap();
        assert!(bridges(&net).is_empty());
    }

    #[test]
    fn barbell_bridge() {
        // Two triangles joined by one edge: exactly that edge is a bridge.
        let mut b = NetworkBuilder::with_nodes(6);
        for (x, y) in [(0u32, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_duplex_link(NodeId::new(x), NodeId::new(y), CAP)
                .unwrap();
        }
        let net = b.build();
        assert_eq!(bridges(&net), vec![(NodeId::new(2), NodeId::new(3))]);
    }

    #[test]
    fn bridges_across_disconnected_components() {
        let mut b = NetworkBuilder::with_nodes(5);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(3), NodeId::new(4), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(4), NodeId::new(2), CAP)
            .unwrap();
        let net = b.build();
        assert_eq!(bridges(&net), vec![(NodeId::new(0), NodeId::new(1))]);
    }

    #[test]
    fn mesh_has_no_bridges() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        assert!(bridges(&net).is_empty());
    }

    #[test]
    fn reachable_mask() {
        let mut b = NetworkBuilder::with_nodes(3);
        b.add_link(NodeId::new(0), NodeId::new(1), CAP).unwrap();
        let net = b.build();
        let mask = reachable_from(&net, NodeId::new(0));
        assert_eq!(mask, vec![true, true, false]);
    }
}
