//! Minimum-hop routes by a level-synchronous breadth-first search.
//!
//! A unit-step Dijkstra pops the nodes of one distance level in ascending
//! id (its heap key is the label above the node id), walks each popped
//! node's out-links in order, and labels a node once: the first link to
//! reach it stays its parent, because no later unit step can lower a label
//! already at `d + 1`. This search makes the same choices without a heap:
//! the frontier is a node bitset scanned in ascending id, out-links are
//! walked in order, and a node's first discoverer is its parent. It stops
//! when the destination is discovered, whose parent chain is final then.

use super::dijkstra::walk_back;
use crate::{LinkId, Network, NodeId, Route};
use std::cell::RefCell;

/// Reusable scratch of [`min_hop_route`]: three node bitsets (`⌈N/64⌉`
/// words each, cleared per search) and one parent link per node, valid
/// where `seen` is set.
#[derive(Debug, Default)]
struct HopScratch {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    parent: Vec<LinkId>,
}

fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

impl HopScratch {
    fn route(
        &mut self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        mut usable: impl FnMut(LinkId) -> bool,
    ) -> Option<Route> {
        let n = net.num_nodes();
        if src.index() >= n || dst.index() >= n || src == dst {
            return None;
        }
        let words = n.div_ceil(64);
        for set in [&mut self.seen, &mut self.frontier, &mut self.next] {
            set.clear();
            set.resize(words, 0);
        }
        if self.parent.len() < n {
            self.parent.resize(n, LinkId::new(0));
        }
        insert(&mut self.seen, src.index());
        insert(&mut self.frontier, src.index());
        loop {
            let mut grew = false;
            for w in 0..words {
                let mut word = self.frontier[w];
                while word != 0 {
                    let u = NodeId::new((w * 64) as u32 + word.trailing_zeros());
                    word &= word - 1;
                    for &lid in net.out_links(u) {
                        let v = net.link(lid).dst().index();
                        if has(&self.seen, v) || !usable(lid) {
                            continue;
                        }
                        insert(&mut self.seen, v);
                        self.parent[v] = lid;
                        if v == dst.index() {
                            return walk_back(net, src, dst, |i| Some(self.parent[i]));
                        }
                        insert(&mut self.next, v);
                        grew = true;
                    }
                }
            }
            if !grew {
                return None;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.fill(0);
        }
    }
}

thread_local! {
    /// Per-thread scratch of [`min_hop_route`], so a warmed search
    /// allocates only the route it returns.
    static SCRATCH: RefCell<HopScratch> = RefCell::new(HopScratch::default());
}

/// A minimum-hop route from `src` to `dst` over the links for which
/// `usable` returns `true`, or `None` when there is none, when
/// `src == dst`, or when either id is out of range.
///
/// The route is the one the one-directional [`super::shortest_path_in`]
/// returns for unit steps (`Some(1)` where `usable`, `None` elsewhere,
/// floor `1`), tie-breaks included (see the module docs). `usable` is
/// asked only about links into nodes not yet reached, as the Dijkstra
/// loop prices only those.
pub fn min_hop_route(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    usable: impl FnMut(LinkId) -> bool,
) -> Option<Route> {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => scratch.route(net, src, dst, usable),
        // Re-entrant search (a `usable` closure searching itself): a
        // one-shot scratch rather than aliasing the thread's.
        Err(_) => HopScratch::default().route(net, src, dst, usable),
    })
}

/// Finds a minimum-hop route from `src` to `dst` over every link, or
/// `None` when unreachable or `src == dst` ([`min_hop_route`] unmasked).
pub fn shortest_path_hops(net: &Network, src: NodeId, dst: NodeId) -> Option<Route> {
    min_hop_route(net, src, dst, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth, NetworkBuilder};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn route_reconstruction_is_contiguous() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let route = shortest_path_hops(&net, NodeId::new(0), NodeId::new(15)).unwrap();
        assert_eq!(route.len(), 6); // manhattan distance in a 4x4 mesh
        assert_eq!(route.source(), NodeId::new(0));
        assert_eq!(route.dest(), NodeId::new(15));
        assert!(route.is_simple(&net));
    }

    #[test]
    fn unreachable_returns_none() {
        // Two disconnected duplex pairs.
        let mut b = NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), CAP)
            .unwrap();
        let net = b.build();
        assert!(shortest_path_hops(&net, NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn src_equals_dst_returns_none() {
        let net = topology::ring(4, CAP).unwrap();
        assert!(shortest_path_hops(&net, NodeId::new(1), NodeId::new(1)).is_none());
    }

    #[test]
    fn out_of_range_ids_return_none() {
        let net = topology::ring(4, CAP).unwrap();
        let n = NodeId::new;
        for (src, dst) in [(0, 4), (9, 1), (9, 9)] {
            assert!(
                shortest_path_hops(&net, n(src), n(dst)).is_none(),
                "{src} -> {dst}"
            );
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let a = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        let b = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn masked_links_are_avoided() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let route = min_hop_route(&net, NodeId::new(0), NodeId::new(1), |l| l != l01).unwrap();
        assert_eq!(route.len(), 3);
        assert!(!route.contains_link(l01));
    }

    #[test]
    fn ties_go_to_the_lower_node_id_like_unit_dijkstra() {
        // 0 -> 8 on a 3 x 3 mesh: six minimum-hop routes; both searches
        // take the one through the lowest ids at every level.
        let net = topology::mesh(3, 3, CAP).unwrap();
        let (src, dst) = (NodeId::new(0), NodeId::new(8));
        let bfs = shortest_path_hops(&net, src, dst).unwrap();
        let mut ws = super::super::SpfWorkspace::new();
        let dijkstra = super::super::shortest_path_in(&mut ws, &net, src, dst, 1, |_| Some(1));
        assert_eq!(Some(&bfs), dijkstra.as_ref().map(|(_, r)| r));
        let ids: Vec<u32> = bfs.nodes(&net).iter().map(|v| v.as_u32()).collect();
        assert_eq!(ids, [0, 1, 2, 5, 8]);
    }

    #[test]
    fn usable_is_asked_only_about_links_into_unreached_nodes() {
        // From one end of a 4-node duplex path: three links lead outward,
        // and the links back into reached nodes are never asked about.
        let net = topology::mesh(1, 4, CAP).unwrap();
        let mut asked = 0;
        min_hop_route(&net, NodeId::new(0), NodeId::new(3), |_| {
            asked += 1;
            true
        })
        .unwrap();
        assert_eq!(asked, 3);
    }

    #[test]
    fn scratch_reuse_across_network_sizes() {
        // A big search, then a small one, then the big one again through
        // the same thread's scratch: every answer is a fresh search's.
        let big = topology::mesh(12, 12, CAP).unwrap();
        let small = topology::ring(5, CAP).unwrap();
        for (net, dst) in [(&big, 143), (&small, 3), (&big, 77)] {
            let (src, dst) = (NodeId::new(0), NodeId::new(dst));
            let got = shortest_path_hops(net, src, dst);
            let fresh = HopScratch::default().route(net, src, dst, |_| true);
            assert_eq!(got, fresh);
            assert!(got.is_some());
        }
    }
}
