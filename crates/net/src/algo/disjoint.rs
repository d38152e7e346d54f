//! Link-disjoint path pairs.
//!
//! The dedicated-backup baseline ("equipping each DR-connection even with a
//! single backup disjoint from its primary reduces the network capacity by
//! at least 50%") needs a disjoint primary/backup pair. Two algorithms are
//! provided:
//!
//! * [`two_step_disjoint_pair`] — shortest path, remove its links, shortest
//!   path again. Fast and simple but fails on *trap* topologies where the
//!   greedy first path blocks every second path.
//! * [`suurballe`] — Suurballe/Bhandari's algorithm for the minimum-total-
//!   cost pair of link-disjoint paths. Succeeds whenever two link-disjoint
//!   paths exist at all.

use crate::algo::{shortest_path_in, SpfWorkspace};
use crate::{LinkId, Network, NodeId, Route};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// A pair of link-disjoint routes with the same endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DisjointPair {
    /// The (typically shorter) route intended as the primary channel.
    pub primary: Route,
    /// The link-disjoint route intended as the backup channel.
    pub backup: Route,
    /// Sum of both routes' costs under the cost function used to find them.
    pub total_cost: f64,
}

/// Finds a link-disjoint pair greedily: shortest route, then the shortest
/// route avoiding the first one's links. Returns `None` when either search
/// fails.
pub fn two_step_disjoint_pair(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl Fn(LinkId) -> Option<f64>,
) -> Option<DisjointPair> {
    // Both searches share one workspace: the second bumps the generation
    // and reuses the first's arrays and heap.
    let mut ws = SpfWorkspace::new();
    let (c1, primary) = shortest_path_in(&mut ws, net, src, dst, 0.0, &cost)?;
    let (c2, backup) = shortest_path_in(&mut ws, net, src, dst, 0.0, |l| {
        if primary.contains_link(l) {
            None
        } else {
            cost(l)
        }
    })?;
    Some(DisjointPair {
        primary,
        backup,
        total_cost: c1 + c2,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ModEdge {
    /// An original link, traversed forward at its reduced cost.
    Orig(LinkId),
    /// A link of the first path, traversed *backward* at zero cost.
    RevP1(LinkId),
}

#[derive(Debug, PartialEq)]
struct ModHeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for ModHeapEntry {}
impl Ord for ModHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}
impl PartialOrd for ModHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Finds the minimum-total-cost pair of link-disjoint routes from `src` to
/// `dst` (Suurballe's algorithm with Bhandari's edge reversal). Returns
/// `None` when no two link-disjoint routes exist.
///
/// Costs must be non-negative (as produced by all the paper's schemes);
/// negative values are clamped to zero.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::ring(6, Bandwidth::from_mbps(10))?;
/// let pair = algo::suurballe(&net, NodeId::new(0), NodeId::new(3), |_| Some(1.0)).unwrap();
/// assert!(pair.primary.is_link_disjoint(&pair.backup));
/// assert_eq!(pair.total_cost, 6.0); // 3 hops each way around the ring
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn suurballe(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl Fn(LinkId) -> Option<f64>,
) -> Option<DisjointPair> {
    if src == dst {
        return None;
    }
    // Pass 1: ordinary shortest-path search for potentials and P1, run in
    // a workspace whose distances serve as the reduced-cost potentials of
    // pass 2 (borrowed immutably there — no owned-tree copy needed).
    let mut ws = SpfWorkspace::new();
    ws.run(net, src, |l| cost(l).map(|c| c.max(0.0)));
    ws.distance(dst)?;
    let p1 = ws.route_to(net, dst)?;
    let p1_links: BTreeSet<LinkId> = p1.links().iter().copied().collect();

    // Pass 2: Dijkstra on the modified graph — original links (minus P1's)
    // at reduced cost, P1's links reversed at zero cost. The modified-edge
    // parent type doesn't fit SpfWorkspace, and dedicated-baseline setup is
    // not a steady-state hot path, so this pass keeps its own scratch.
    let n = net.num_nodes();
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut parent: Vec<Option<(ModEdge, NodeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = Some(0.0);
    heap.push(ModHeapEntry {
        cost: 0.0,
        node: src,
    });

    let reduced = |l: LinkId| -> Option<f64> {
        let c = cost(l)?.max(0.0);
        let link = net.link(l);
        let du = ws.distance(link.src())?;
        let dv = ws.distance(link.dst())?;
        Some((c + du - dv).max(0.0))
    };

    while let Some(ModHeapEntry { cost: d, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if node == dst {
            break;
        }
        // Forward edges at reduced cost, skipping P1's links.
        for &lid in net.out_links(node) {
            if p1_links.contains(&lid) {
                continue;
            }
            let Some(step) = reduced(lid) else { continue };
            let next = net.link(lid).dst();
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                &done,
                node,
                next,
                d + step,
                ModEdge::Orig(lid),
            );
        }
        // Reversed P1 edges at zero cost: a P1 link (u -> v) is traversable
        // here as (v -> u).
        for &lid in net.in_links(node) {
            if !p1_links.contains(&lid) {
                continue;
            }
            let prev = net.link(lid).src();
            relax(
                &mut dist,
                &mut parent,
                &mut heap,
                &done,
                node,
                prev,
                d,
                ModEdge::RevP1(lid),
            );
        }
    }

    dist[dst.index()]?;

    // Collect P2's modified edges.
    let mut p2_edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (edge, prev) = parent[cur.index()]?;
        p2_edges.push(edge);
        cur = prev;
    }

    // Union-minus-cancellation: P1 links survive unless P2 reversed them;
    // P2's forward links are added.
    let mut final_links: BTreeSet<LinkId> = p1_links.clone();
    for edge in &p2_edges {
        match edge {
            ModEdge::Orig(l) => {
                final_links.insert(*l);
            }
            ModEdge::RevP1(l) => {
                final_links.remove(l);
            }
        }
    }

    // The surviving links form exactly two link-disjoint src -> dst paths;
    // peel them off by walking out-edges.
    let mut pool = final_links;
    let first = walk_off(net, &mut pool, src, dst)?;
    let second = walk_off(net, &mut pool, src, dst)?;
    // In degenerate zero-cost-tie cases the union may additionally contain
    // cost-zero cycles; they are simply not part of either returned route.

    let route_cost = |r: &Route| -> f64 {
        r.links()
            .iter()
            .map(|&l| cost(l).unwrap_or(0.0).max(0.0))
            .sum()
    };
    let (ca, cb) = (route_cost(&first), route_cost(&second));
    let (primary, backup, total) = if ca <= cb {
        (first, second, ca + cb)
    } else {
        (second, first, ca + cb)
    };
    Some(DisjointPair {
        primary,
        backup,
        total_cost: total,
    })
}

#[allow(clippy::too_many_arguments)]
fn relax(
    dist: &mut [Option<f64>],
    parent: &mut [Option<(ModEdge, NodeId)>],
    heap: &mut BinaryHeap<ModHeapEntry>,
    done: &[bool],
    from: NodeId,
    to: NodeId,
    cand: f64,
    edge: ModEdge,
) {
    if done[to.index()] {
        return;
    }
    let better = match dist[to.index()] {
        None => true,
        Some(cur) => cand < cur,
    };
    if better {
        dist[to.index()] = Some(cand);
        parent[to.index()] = Some((edge, from));
        heap.push(ModHeapEntry {
            cost: cand,
            node: to,
        });
    }
}

/// Extracts one src -> dst path from `pool`, removing its links.
fn walk_off(net: &Network, pool: &mut BTreeSet<LinkId>, src: NodeId, dst: NodeId) -> Option<Route> {
    let mut links = Vec::new();
    let mut cur = src;
    while cur != dst {
        let next_link = net
            .out_links(cur)
            .iter()
            .copied()
            .find(|l| pool.contains(l))?;
        pool.remove(&next_link);
        links.push(next_link);
        cur = net.link(next_link).dst();
        if links.len() > net.num_links() {
            return None; // defensive: malformed pool
        }
    }
    Route::new(net, links).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth, NetworkBuilder};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn ring_pair_goes_both_ways() {
        let net = topology::ring(6, CAP).unwrap();
        for f in [two_step_disjoint_pair, suurballe] {
            let pair = f(&net, NodeId::new(0), NodeId::new(2), &|_| Some(1.0)).unwrap();
            assert!(pair.primary.is_link_disjoint(&pair.backup));
            assert_eq!(pair.primary.len() + pair.backup.len(), 6);
            assert_eq!(pair.total_cost, 6.0);
        }
    }

    /// The classic trap graph where greedy two-step fails but Suurballe
    /// succeeds:
    ///
    /// ```text
    ///   s -> a -> b -> t     (cost 3, the unique shortest path)
    ///   s -> c ------> b     a -> d -> t
    ///        c -> d (bridge used by the greedy path's complement)
    /// ```
    #[test]
    fn suurballe_beats_two_step_on_trap_graph() {
        let mut b = NetworkBuilder::with_nodes(6);
        let s = NodeId::new(0);
        let a = NodeId::new(1);
        let bb = NodeId::new(2);
        let t = NodeId::new(3);
        let c = NodeId::new(4);
        let d = NodeId::new(5);
        // Directed links only (costs via closure below).
        let sa = b.add_link(s, a, CAP).unwrap();
        let ab = b.add_link(a, bb, CAP).unwrap();
        let bt = b.add_link(bb, t, CAP).unwrap();
        let sc = b.add_link(s, c, CAP).unwrap();
        let cb = b.add_link(c, bb, CAP).unwrap();
        let ad = b.add_link(a, d, CAP).unwrap();
        let dt = b.add_link(d, t, CAP).unwrap();
        let net = b.build();
        let costs = move |l: LinkId| -> Option<f64> {
            Some(match l {
                x if x == sa => 1.0,
                x if x == ab => 1.0,
                x if x == bt => 1.0,
                x if x == sc => 2.0,
                x if x == cb => 2.0,
                x if x == ad => 2.0,
                x if x == dt => 2.0,
                _ => 1.0,
            })
        };
        // Greedy takes s-a-b-t, leaving no second path through a or b's
        // used links... in this construction a second path still exists
        // (s-c-b is blocked at b-t). Verify two-step fails:
        assert!(two_step_disjoint_pair(&net, s, t, costs).is_none());
        // ...while Suurballe reroutes: s-a-d-t and s-c-b-t.
        let pair = suurballe(&net, s, t, costs).unwrap();
        assert!(pair.primary.is_link_disjoint(&pair.backup));
        assert_eq!(pair.total_cost, 10.0);
        let mut all: Vec<LinkId> = pair
            .primary
            .links()
            .iter()
            .chain(pair.backup.links())
            .copied()
            .collect();
        all.sort();
        let mut expected = vec![sa, ad, dt, sc, cb, bt];
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn no_pair_on_bridge_graph() {
        // s - x - t as a path graph: the bridge x kills disjointness.
        let mut b = NetworkBuilder::with_nodes(3);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(1), NodeId::new(2), CAP)
            .unwrap();
        let net = b.build();
        assert!(suurballe(&net, NodeId::new(0), NodeId::new(2), |_| Some(1.0)).is_none());
        assert!(
            two_step_disjoint_pair(&net, NodeId::new(0), NodeId::new(2), |_| Some(1.0)).is_none()
        );
    }

    #[test]
    fn suurballe_total_cost_is_minimal_on_mesh() {
        // On a mesh, compare against brute force via Yen enumeration.
        let net = topology::mesh(3, 3, CAP).unwrap();
        let src = NodeId::new(0);
        let dst = NodeId::new(8);
        let pair = suurballe(&net, src, dst, |_| Some(1.0)).unwrap();
        let routes = crate::algo::k_shortest_paths(&net, src, dst, 50, |_| Some(1.0));
        let mut best = f64::INFINITY;
        for (ci, ri) in &routes {
            for (cj, rj) in &routes {
                if ri.is_link_disjoint(rj) && ri.links() != rj.links() {
                    best = best.min(ci + cj);
                }
            }
        }
        assert_eq!(pair.total_cost, best);
    }

    #[test]
    fn same_endpoints_rejected() {
        let net = topology::ring(4, CAP).unwrap();
        assert!(suurballe(&net, NodeId::new(1), NodeId::new(1), |_| Some(1.0)).is_none());
    }
}
