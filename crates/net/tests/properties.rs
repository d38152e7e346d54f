//! Property-based tests for the network substrate.

use drt_net::algo::{
    bellman_ford, k_shortest_paths, min_hop_route, shortest_path_hops, shortest_path_in,
    shortest_path_tree, shortest_path_with_floor, suurballe, AllPairsHops, DynamicSpt,
    SpfWorkspace,
};
use drt_net::{topology, Bandwidth, LinkId, NetworkBuilder, NodeId, Route};
use proptest::prelude::*;

const CAP: Bandwidth = Bandwidth::from_mbps(100);

fn arb_connected_net() -> impl Strategy<Value = drt_net::Network> {
    // n in 4..=20, extra pairs 0..=n, arbitrary seed.
    (4usize..=20, 0usize..=20, any::<u64>()).prop_map(|(n, extra, seed)| {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        topology::random_connected(n, m, CAP, seed).expect("feasible by construction")
    })
}

/// Random duplex pairs over a fixed node set: sparse draws leave several
/// components (and isolated nodes), dense ones connect everything.
fn arb_any_net() -> impl Strategy<Value = drt_net::Network> {
    (
        2usize..=14,
        prop::collection::vec((0u32..14, 0u32..14), 0..=30),
    )
        .prop_map(|(n, pairs)| {
            let mut b = NetworkBuilder::with_nodes(n);
            for (a, z) in pairs {
                let (a, z) = (NodeId::new(a % n as u32), NodeId::new(z % n as u32));
                if a != z && !b.has_link(a, z) {
                    b.add_duplex_link(a, z, CAP)
                        .expect("fresh distinct endpoints");
                }
            }
            b.build()
        })
}

/// Random one-way links over a fixed node set, each direction of a pair
/// drawn on its own: duplex pairs, lone one-way links, nodes only reachable
/// one way, and isolated nodes. (Two links in one direction between the
/// same pair are refused by the builder, so a pair's two directions are
/// the parallel links a network can have.)
fn arb_directed_net() -> impl Strategy<Value = drt_net::Network> {
    (
        1usize..=14,
        prop::collection::vec((0u32..14, 0u32..14), 0..=50),
    )
        .prop_map(|(n, pairs)| {
            let mut b = NetworkBuilder::with_nodes(n);
            for (a, z) in pairs {
                let (a, z) = (NodeId::new(a % n as u32), NodeId::new(z % n as u32));
                if a != z && !b.has_link(a, z) {
                    b.add_link(a, z, CAP).expect("fresh distinct endpoints");
                }
            }
            b.build()
        })
}

/// One cost class per link, cycled over the link ids, every step at or
/// above `floor`: excluded, the floor itself (free under floor 0.0), small
/// multiples of it (of 0.5 under floor 0.0) that tie often, Q-scale
/// penalties, and 2^53, where a step of 0.5 or 1.0 is below one ulp of the
/// sum and `d + floor` rounds back to `d`.
fn cost_of(classes: &[u8], floor: f64, l: LinkId) -> Option<f64> {
    match classes[l.index() % classes.len()] {
        0 => None,
        1 | 2 => Some(floor),
        3 => Some(1e9),
        4 => Some(1e9 + 1.0),
        5 => Some(9_007_199_254_740_992.0),
        c => Some(f64::from(c % 4 + 1) * floor.max(0.5)),
    }
}

/// One SPT delta: fail, restore, or reweight a single link.
#[derive(Debug, Clone)]
enum Delta {
    Fail(u32),
    Restore(u32),
    Reweight(u32, u8),
}

fn arb_delta(links: u32) -> impl Strategy<Value = Delta> {
    prop_oneof![
        2 => (0..links).prop_map(Delta::Fail),
        2 => (0..links).prop_map(Delta::Restore),
        1 => (0..links, 1u8..=8).prop_map(|(l, w)| Delta::Reweight(l, w)),
    ]
}

/// `text` cut at the char boundary at or below `cut_per_mille` of its
/// length, then each `(position, byte)` edit overwriting one byte with
/// an ASCII byte (positions wrap). ASCII over ASCII stays UTF-8.
fn mangled(text: &str, cut_per_mille: usize, edits: &[(u64, u8)]) -> String {
    let mut cut = text.len() * cut_per_mille / 1000;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let mut bytes = text.as_bytes()[..cut].to_vec();
    if !bytes.is_empty() {
        for &(at, b) in edits {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = b;
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of ASCII text")
}

// The default case count (64), so that the nightly Miri job's
// `PROPTEST_CASES` can cut it.
proptest! {
    #[test]
    fn targeted_search_equals_full_search(
        connected in arb_connected_net(),
        any_net in arb_any_net(),
        classes in prop::collection::vec(0u8..12, 1..=40),
    ) {
        // One workspace serves every targeted and full search of the case.
        let mut ws = SpfWorkspace::new();
        for floor in [0.0, 0.5, 1.0] {
            let cost = |l| cost_of(&classes, floor, l);
            for net in [&connected, &any_net] {
                for src in net.nodes() {
                    let full = shortest_path_tree(net, src, cost);
                    for dst in net.nodes() {
                        let got = shortest_path_in(&mut ws, net, src, dst, floor, cost);
                        let want = full.distance(dst).zip(full.route_to(net, dst));
                        prop_assert_eq!(
                            got.as_ref().map(|(c, r)| (c.to_bits(), r.links())),
                            want.as_ref().map(|(c, r)| (c.to_bits(), r.links())),
                            "floor {} {} -> {}", floor, src, dst
                        );
                        // Whatever the floor stop left settled is final —
                        // `dst` itself included when it was never popped.
                        for node in net.nodes() {
                            if let Some(d) = ws.distance(node) {
                                prop_assert_eq!(Some(d.to_bits()), full.distance(node).map(f64::to_bits));
                                prop_assert_eq!(ws.route_to(net, node), full.route_to(net, node));
                            }
                        }
                        // The scratch-workspace entry point is the same search.
                        prop_assert_eq!(shortest_path_with_floor(net, src, dst, floor, cost), got);
                    }
                    ws.run(net, src, cost);
                    for node in net.nodes() {
                        prop_assert_eq!(ws.distance(node), full.distance(node));
                        prop_assert_eq!(ws.route_to(net, node), full.route_to(net, node));
                    }
                }
            }
        }
    }

    /// The breadth-first minimum-hop route is the unit-step Dijkstra route
    /// link for link, under random usable masks, for every ordered pair —
    /// `src == dst`, unreachable pairs and ids past the last node included,
    /// which both answer `None` without panicking.
    #[test]
    fn min_hop_route_equals_unit_dijkstra(
        directed in arb_directed_net(),
        any_net in arb_any_net(),
        // One class in five is masked out.
        mask in prop::collection::vec(0u8..5, 1..=40),
    ) {
        for net in [&directed, &any_net] {
            let usable = |l: LinkId| mask[l.index() % mask.len()] > 0;
            let ids = (0..net.num_nodes() as u32 + 2).map(NodeId::new);
            for src in ids.clone() {
                for dst in ids.clone() {
                    let bfs = min_hop_route(net, src, dst, usable);
                    let dijkstra =
                        shortest_path_with_floor(net, src, dst, 1.0, |l| usable(l).then_some(1.0));
                    prop_assert_eq!(
                        bfs.as_ref().map(Route::links),
                        dijkstra.as_ref().map(|(_, r)| r.links()),
                        "{} -> {}", src, dst
                    );
                    if let Some((hops, route)) = &dijkstra {
                        prop_assert_eq!(*hops, route.len() as f64);
                    }
                }
            }
        }
    }

    #[test]
    fn generated_networks_are_connected(net in arb_connected_net()) {
        prop_assert!(net.is_connected());
    }

    #[test]
    fn dijkstra_and_bellman_ford_agree(net in arb_connected_net(), src in 0u32..4) {
        let src = NodeId::new(src);
        let dj = shortest_path_tree(&net, src, |_| Some(1.0));
        let bf = bellman_ford(&net, src, |_| Some(1.0));
        prop_assert!(!bf.has_negative_cycle());
        for node in net.nodes() {
            prop_assert_eq!(dj.distance(node), bf.distance(node));
        }
    }

    #[test]
    fn dijkstra_agrees_with_bfs_hops(net in arb_connected_net(), src in 0u32..4) {
        let src = NodeId::new(src);
        let hops = AllPairsHops::compute(&net);
        let dj = shortest_path_tree(&net, src, |_| Some(1.0));
        for node in net.nodes() {
            let a = dj.distance(node).map(|d| d as u32);
            prop_assert_eq!(a, hops.hops(src, node));
        }
    }

    #[test]
    fn routes_are_valid_and_minimal(net in arb_connected_net()) {
        let src = NodeId::new(0);
        let hops = AllPairsHops::compute(&net);
        for dst in net.nodes().skip(1) {
            let route = shortest_path_hops(&net, src, dst).expect("connected");
            prop_assert_eq!(route.source(), src);
            prop_assert_eq!(route.dest(), dst);
            prop_assert!(route.is_simple(&net));
            prop_assert_eq!(route.len() as u32, hops.hops(src, dst).unwrap());
        }
    }

    #[test]
    fn yen_paths_sorted_simple_distinct(net in arb_connected_net(), k in 1usize..6) {
        let src = NodeId::new(0);
        let dst = NodeId::new((net.num_nodes() - 1) as u32);
        let routes = k_shortest_paths(&net, src, dst, k, |_| Some(1.0));
        prop_assert!(!routes.is_empty());
        prop_assert!(routes.len() <= k);
        let mut seen = std::collections::BTreeSet::new();
        for w in routes.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 + 1e-9);
        }
        for (c, r) in &routes {
            prop_assert!(r.is_simple(&net));
            prop_assert_eq!(*c, r.len() as f64);
            prop_assert!(seen.insert(r.links().to_vec()));
        }
    }

    #[test]
    fn suurballe_pair_is_disjoint_when_found(net in arb_connected_net()) {
        let src = NodeId::new(0);
        let dst = NodeId::new((net.num_nodes() - 1) as u32);
        if let Some(pair) = suurballe(&net, src, dst, |_| Some(1.0)) {
            prop_assert!(pair.primary.is_link_disjoint(&pair.backup));
            prop_assert_eq!(pair.primary.source(), src);
            prop_assert_eq!(pair.backup.source(), src);
            prop_assert_eq!(pair.primary.dest(), dst);
            prop_assert_eq!(pair.backup.dest(), dst);
            // Primary never longer than backup under unit costs.
            prop_assert!(pair.primary.len() <= pair.backup.len());
            // Total never better than twice the single shortest path.
            let single = shortest_path_hops(&net, src, dst).unwrap().len() as f64;
            prop_assert!(pair.total_cost >= 2.0 * single - 1e-9);
        }
    }

    #[test]
    fn max_flow_bounds_and_oracles(net in arb_connected_net()) {
        use drt_net::algo::{edge_connectivity, bridges};
        let src = NodeId::new(0);
        let dst = NodeId::new((net.num_nodes() - 1) as u32);
        let k = edge_connectivity(&net, src, dst);
        // Bounded by the endpoint degrees.
        let out_deg = net.out_links(src).len() as u64;
        let in_deg = net.in_links(dst).len() as u64;
        prop_assert!(k >= 1, "connected graphs have a path");
        prop_assert!(k <= out_deg.min(in_deg));
        // Suurballe feasibility coincides with k >= 2.
        let pair = suurballe(&net, src, dst, |_| Some(1.0));
        prop_assert_eq!(k >= 2, pair.is_some());
        // A bridge-free graph (should the generator produce one) gives
        // k >= 2 for every pair — spot-check with node 1.
        if bridges(&net).is_empty() && net.num_nodes() > 2 {
            let mid = NodeId::new(1);
            prop_assert!(edge_connectivity(&net, src, mid) >= 2);
        }
    }

    #[test]
    fn average_degree_matches_request(
        n in 6usize..=30,
        extra in 0usize..=10,
        seed in any::<u64>(),
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let net = topology::random_connected(n, m, CAP, seed).unwrap();
        let expect = 2.0 * m as f64 / n as f64;
        prop_assert!((net.average_node_degree() - expect).abs() < 1e-9);
    }

    /// The dynamic SPT repaired over a random fail/restore/reweight
    /// delta trace is bit-for-bit the from-scratch rebuild after every
    /// delta, and its parent structure always certifies the stored
    /// distances (the nightly miri job runs this trace under
    /// `PROPTEST_CASES=4`).
    #[test]
    fn dynamic_spt_repair_matches_scratch_rebuild(
        seed in any::<u64>(),
        src in 0u32..12,
        deltas in prop::collection::vec(arb_delta(34), 1..40),
    ) {
        let net = topology::random_connected(12, 17, CAP, seed).unwrap();
        let n = net.num_links();
        let mut weight = vec![1.0f64; n];
        let mut alive = vec![true; n];
        let mut spt = DynamicSpt::build(&net, NodeId::new(src), |l: LinkId| {
            alive[l.index()].then_some(weight[l.index()])
        });
        for d in deltas {
            let l = match d {
                Delta::Fail(l) | Delta::Restore(l) | Delta::Reweight(l, _) => {
                    LinkId::new(l % n as u32)
                }
            };
            match d {
                Delta::Fail(_) => alive[l.index()] = false,
                Delta::Restore(_) => alive[l.index()] = true,
                Delta::Reweight(_, w) => weight[l.index()] = f64::from(w),
            }
            let cost = |l: LinkId| alive[l.index()].then_some(weight[l.index()]);
            spt.update_links(&net, &[l], cost);
            let mut fresh = spt.clone();
            fresh.rebuild_baseline(&net, cost);
            prop_assert_eq!(spt.first_divergence(&fresh), None, "delta {:?}", d);
            prop_assert!(spt.certify(&net, cost).is_none(), "delta {:?}", d);
        }
    }

    /// A topology file torn at any point and overwritten with arbitrary
    /// ASCII is external input: `from_text` answers `Ok` or a typed
    /// error, and never panics.
    #[test]
    fn mangled_topology_text_never_panics(
        n in 4usize..=10,
        seed in any::<u64>(),
        cut in 0usize..=1000,
        edits in prop::collection::vec((any::<u64>(), 0u8..128), 0..8),
    ) {
        let base = topology::WaxmanConfig::new(n, 3.0).seed(seed).build().unwrap();
        let links: Vec<LinkId> = base.links().map(|l| l.id()).collect();
        let groups: Vec<Vec<LinkId>> = links.chunks(3).map(<[LinkId]>::to_vec).collect();
        let text = base.with_srlgs(&groups).unwrap().to_text();
        let input = mangled(&text, cut, &edits);
        let parsed = std::panic::catch_unwind(|| drt_net::Network::from_text(&input));
        prop_assert!(parsed.is_ok(), "from_text panicked on {:?}", input);
    }
}
