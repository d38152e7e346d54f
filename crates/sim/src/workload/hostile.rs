//! Hostile and skewed workload geometry: regional failure storms and
//! rolling maintenance waves.
//!
//! The paper's fault model is a single random link or node failure. The
//! adversarial campaigns go past it in two directions the scheme
//! comparison must survive:
//!
//! * **regional storms** — every link inside a hop-radius ball around an
//!   epicenter fails at once, the geographically-correlated SRLG the
//!   paper's independent-failure assumption rules out;
//! * **maintenance waves** — the node population is partitioned into
//!   rolling waves taken down (and brought back) in sequence, a planned
//!   whole-network disturbance instead of a random one.
//!
//! Both are pure geometry over the network graph — which links, which
//! nodes — so the failure-injection machinery (`FailureEvent` batches in
//! `drt-core`) decides *what to do* with them, and the experiment
//! drivers decide *when*.

use drt_net::{LinkId, Network, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::VecDeque;

/// Every link whose *both* endpoints lie within `radius` hops of
/// `epicenter`: the shared-risk group of a geographically-bounded
/// disaster. Radius 0 is just the epicenter (no links); radius 1 takes
/// out the links among the epicenter's immediate neighborhood; the
/// network diameter takes out everything. Links are returned in id order
/// so downstream injection is deterministic.
pub fn regional_storm(net: &Network, epicenter: NodeId, radius: usize) -> Vec<LinkId> {
    let mut dist = vec![usize::MAX; net.num_nodes()];
    dist[epicenter.index()] = 0;
    let mut queue = VecDeque::from([epicenter]);
    while let Some(n) = queue.pop_front() {
        let d = dist[n.index()];
        if d == radius {
            continue;
        }
        for next in net.neighbors(n) {
            if dist[next.index()] == usize::MAX {
                dist[next.index()] = d + 1;
                queue.push_back(next);
            }
        }
    }
    net.links()
        .filter(|l| dist[l.src().index()] <= radius && dist[l.dst().index()] <= radius)
        .map(|l| l.id())
        .collect()
}

/// Partitions all nodes into `waves` rolling maintenance groups of
/// near-equal size (difference at most one), in a random order drawn
/// from `rng`. Every node appears in exactly one wave; waves are
/// non-empty when `waves <= num_nodes`.
///
/// # Panics
///
/// Panics when `waves == 0`.
pub fn maintenance_waves(net: &Network, waves: usize, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
    assert!(waves > 0, "need at least one wave");
    let mut ids: Vec<NodeId> = net.nodes().collect();
    ids.shuffle(rng);
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); waves];
    for (i, n) in ids.into_iter().enumerate() {
        out[i % waves].push(n);
    }
    for wave in &mut out {
        wave.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use drt_net::{topology, Bandwidth};

    fn mesh() -> Network {
        topology::mesh(4, 4, Bandwidth::from_mbps(10)).unwrap()
    }

    #[test]
    fn storm_radius_zero_is_empty_and_diameter_is_everything() {
        let net = mesh();
        assert!(regional_storm(&net, NodeId::new(5), 0).is_empty());
        let all = regional_storm(&net, NodeId::new(5), 6);
        assert_eq!(all.len(), net.num_links());
    }

    #[test]
    fn storm_links_stay_inside_the_ball() {
        let net = mesh();
        // Mesh node ids are row-major: node 5 = (1,1); its radius-1 ball
        // is {5, 1, 4, 6, 9}. Links inside the ball all touch node 5
        // (the other four are pairwise non-adjacent): 4 neighbors × 2
        // directions = 8 links.
        let hit = regional_storm(&net, NodeId::new(5), 1);
        assert_eq!(hit.len(), 8);
        for l in hit {
            let link = net.link(l);
            assert!(
                link.src() == NodeId::new(5) || link.dst() == NodeId::new(5),
                "radius-1 storm link {l} must touch the epicenter"
            );
        }
    }

    #[test]
    fn storm_is_deterministic_and_sorted() {
        let net = mesh();
        let a = regional_storm(&net, NodeId::new(10), 2);
        let b = regional_storm(&net, NodeId::new(10), 2);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "id order");
    }

    #[test]
    fn waves_partition_every_node_once() {
        let net = mesh();
        let mut r = rng::stream(11, "maintenance");
        let waves = maintenance_waves(&net, 3, &mut r);
        assert_eq!(waves.len(), 3);
        let mut seen: Vec<NodeId> = waves.iter().flatten().copied().collect();
        seen.sort();
        let all: Vec<NodeId> = net.nodes().collect();
        assert_eq!(seen, all);
        // Near-equal sizes: 16 nodes over 3 waves = 6/5/5.
        let mut sizes: Vec<usize> = waves.iter().map(|w| w.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![5, 5, 6]);
    }

    #[test]
    fn waves_are_seed_deterministic() {
        let net = mesh();
        let run = |seed| {
            let mut r = rng::stream(seed, "maintenance");
            maintenance_waves(&net, 4, &mut r)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    #[should_panic(expected = "at least one wave")]
    fn zero_waves_rejected() {
        let net = mesh();
        let mut r = rng::stream(12, "maintenance");
        let _ = maintenance_waves(&net, 0, &mut r);
    }
}
