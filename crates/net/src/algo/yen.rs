//! Yen's algorithm for k shortest loopless paths.

use crate::algo::{shortest_path_in, SpfWorkspace};
use crate::{LinkId, Network, NodeId, Route};
use std::collections::BTreeSet;

/// Finds up to `k` cheapest *simple* routes from `src` to `dst` under
/// `cost`, in nondecreasing cost order.
///
/// Links for which `cost` returns `None` are excluded. Returns fewer than
/// `k` routes when the graph does not contain that many simple paths.
///
/// No routing scheme calls this: it is kept as the brute-force candidate
/// enumeration tests check [`crate::algo::suurballe`]'s minimal total
/// cost against.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::ring(5, Bandwidth::from_mbps(10))?;
/// let routes = algo::k_shortest_paths(&net, NodeId::new(0), NodeId::new(2), 2, |_| Some(1));
/// assert_eq!(routes.len(), 2);
/// assert_eq!(routes[0].1.len(), 2); // clockwise
/// assert_eq!(routes[1].1.len(), 3); // counter-clockwise
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn k_shortest_paths(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    k: usize,
    cost: impl Fn(LinkId) -> Option<u128>,
) -> Vec<(u128, Route)> {
    let mut accepted: Vec<(u128, Route)> = Vec::new();
    if k == 0 || src == dst {
        return accepted;
    }
    // One workspace for the whole enumeration: the initial search plus
    // every spur search reuse the same stamped arrays and heap.
    let mut ws = SpfWorkspace::new();
    let Some(first) = shortest_path_in(&mut ws, net, src, dst, 0, &cost) else {
        return accepted;
    };
    accepted.push(first);

    // Candidate pool of (cost, route), deduplicated by link sequence.
    let mut candidates: Vec<(u128, Route)> = Vec::new();
    let mut seen: BTreeSet<Vec<LinkId>> = BTreeSet::new();
    seen.insert(accepted[0].1.links().to_vec());

    while accepted.len() < k {
        let (_, prev) = accepted.last().expect("accepted is nonempty").clone();
        let prev_nodes = prev.nodes(net);

        for i in 0..prev.len() {
            let spur_node = prev_nodes[i];
            let root_links = &prev.links()[..i];

            // Links to exclude: the i-th link of every accepted/candidate
            // route sharing this root.
            let mut banned_links: BTreeSet<LinkId> = BTreeSet::new();
            for (_, r) in accepted.iter().chain(candidates.iter()) {
                if r.len() > i && &r.links()[..i] == root_links {
                    banned_links.insert(r.links()[i]);
                }
            }
            // Nodes of the root path (except the spur node) are banned to
            // keep paths simple.
            let banned_nodes: BTreeSet<NodeId> = prev_nodes[..i].iter().copied().collect();

            let spur = shortest_path_in(&mut ws, net, spur_node, dst, 0, |l| {
                if banned_links.contains(&l) {
                    return None;
                }
                let link = net.link(l);
                if banned_nodes.contains(&link.src()) || banned_nodes.contains(&link.dst()) {
                    return None;
                }
                cost(l)
            });
            let Some((_, spur_route)) = spur else {
                continue;
            };

            let mut links = root_links.to_vec();
            links.extend_from_slice(spur_route.links());
            if !seen.insert(links.clone()) {
                continue;
            }
            let Ok(route) = Route::new(net, links) else {
                continue;
            };
            // Every link of the route passed `cost`: the root's as links of
            // an accepted route, the spur's in its search.
            let total = route.links().iter().filter_map(|&l| cost(l)).sum();
            candidates.push((total, route));
        }

        if candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate (stable tie-break on link ids).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| a.1.links().cmp(b.1.links())))
            .map(|(i, _)| i)
            .expect("candidates is nonempty");
        accepted.push(candidates.swap_remove(best));
    }

    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn ring_has_exactly_two_simple_paths() {
        let net = topology::ring(6, CAP).unwrap();
        let routes = k_shortest_paths(&net, NodeId::new(0), NodeId::new(2), 10, |_| Some(1));
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].1.len(), 2);
        assert_eq!(routes[1].1.len(), 4);
        assert!(routes[0].1.is_link_disjoint(&routes[1].1));
    }

    #[test]
    fn costs_are_nondecreasing() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let routes = k_shortest_paths(&net, NodeId::new(0), NodeId::new(8), 8, |_| Some(1));
        assert!(routes.len() >= 6); // many monotone staircase paths exist
        for w in routes.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn all_paths_simple_and_distinct() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let routes = k_shortest_paths(&net, NodeId::new(0), NodeId::new(8), 12, |_| Some(1));
        let mut seen = BTreeSet::new();
        for (_, r) in &routes {
            assert!(r.is_simple(&net), "{r}");
            assert!(seen.insert(r.links().to_vec()), "duplicate {r}");
            assert_eq!(r.source(), NodeId::new(0));
            assert_eq!(r.dest(), NodeId::new(8));
        }
    }

    #[test]
    fn k_zero_and_same_endpoints() {
        let net = topology::ring(4, CAP).unwrap();
        assert!(k_shortest_paths(&net, NodeId::new(0), NodeId::new(1), 0, |_| Some(1)).is_empty());
        assert!(k_shortest_paths(&net, NodeId::new(1), NodeId::new(1), 3, |_| Some(1)).is_empty());
    }

    #[test]
    fn respects_link_exclusion() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let routes = k_shortest_paths(&net, NodeId::new(0), NodeId::new(1), 5, |l| {
            (l != l01).then_some(1)
        });
        assert_eq!(routes.len(), 1);
        assert!(!routes[0].1.contains_link(l01));
    }
}
