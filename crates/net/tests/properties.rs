//! Property-based tests for the network substrate.

use drt_net::algo::{
    bellman_ford, bfs_hops_filtered, k_shortest_paths, shortest_path, shortest_path_in,
    shortest_path_tree, shortest_path_with_floor, suurballe, AllPairsHops, DynamicSpt,
    SpfWorkspace,
};
use drt_net::{topology, Bandwidth, LinkId, NetworkBuilder, NodeId};
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

/// Networks of 2–140 nodes, so a row of `AllPairsHops`' target sets spans
/// one, two or three 64-bit words: a connected random graph, or up to `n`
/// random duplex pairs, which leave several components and isolated nodes.
fn arb_wide_net() -> impl Strategy<Value = drt_net::Network> {
    (
        2usize..=140,
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec((0u32..140, 0u32..140), 0..=140),
    )
        .prop_map(|(n, connected, seed, pairs)| {
            if connected {
                let extra = (seed % n as u64) as usize;
                let m = (n - 1 + extra).min(n * (n - 1) / 2);
                return topology::random_connected(n, m, CAP, seed)
                    .expect("feasible by construction");
            }
            let mut b = NetworkBuilder::with_nodes(n);
            for (a, z) in pairs.into_iter().take(n) {
                let (a, z) = (NodeId::new(a % n as u32), NodeId::new(z % n as u32));
                if a != z && !b.has_link(a, z) {
                    b.add_duplex_link(a, z, CAP)
                        .expect("fresh distinct endpoints");
                }
            }
            b.build()
        })
}

/// SplitMix64's finaliser: a per-link coin that needs no RNG state.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A step in the top field of a packed lexicographic key, as the LSR
/// backup key puts its `Q`-links at bit 84.
const TOP: u128 = 1 << 84;

/// One cost class per link, cycled over the link ids, every step at or
/// above `floor`: excluded, the floor itself (free under floor 0), small
/// multiples of it (of 1 under floor 0) that tie often, top-field steps
/// alone and with a low-field step beside them, and steps near `2^90`,
/// whose sums over a 20-node route carry through every field below the
/// top and stay within the searches' bound of `2^96`.
fn cost_of(classes: &[u8], floor: u128, l: LinkId) -> Option<u128> {
    match classes[l.index() % classes.len()] {
        0 => None,
        1 | 2 => Some(floor),
        3 => Some(TOP),
        4 => Some(TOP + floor.max(1)),
        5 => Some((1 << 90) - 1),
        c => Some(u128::from(c % 4 + 1) * floor.max(1)),
    }
}

/// The floors the searches are run at: none, a unit hop, and one hop of a
/// packed key whose tie field sits below bit 36.
const FLOORS: [u128; 3] = [0, 1, 1 << 36];

/// The classes of [`cost_of`] at a hop of `1 << 36`, with a fixed tie
/// field below the hop as the LSR backup key has: the top 36 bits of
/// [`mix`] of the link index. Routes that tie on the classes differ in
/// it, so the cheapest route is unique unless two tie sums collide.
/// Every step is at least one hop, so each of [`FLOORS`] is a floor.
fn keyed_cost(classes: &[u8], l: LinkId) -> Option<u128> {
    let tie = u128::from(mix(l.index() as u64) >> 28);
    cost_of(classes, 1 << 36, l).map(|step| step + tie)
}

/// The number of cheapest routes from the source of `full`, a finished
/// search under `cost`, to each node, capped at 2. Steps are positive, so
/// the links that are tight under `full`'s distances form a DAG in
/// distance order.
fn cheapest_route_counts(
    net: &drt_net::Network,
    full: &SpfWorkspace,
    cost: impl Fn(LinkId) -> Option<u128>,
) -> Vec<u8> {
    let mut counts = vec![0u8; net.num_nodes()];
    counts[full.source().index()] = 1;
    let mut order: Vec<NodeId> = net
        .nodes()
        .filter(|&v| full.distance(v).is_some())
        .collect();
    order.sort_by_key(|&v| full.distance(v));
    for v in order {
        for &l in net.in_links(v) {
            let u = net.link(l).src();
            let tight = full.distance(u).zip(cost(l)).map(|(d, c)| d + c);
            if tight.is_some() && tight == full.distance(v) {
                counts[v.index()] = (counts[v.index()] + counts[u.index()]).min(2);
            }
        }
    }
    counts
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
        // The full search of every source, in a workspace of its own.
        let mut full = SpfWorkspace::new();
        for floor in FLOORS {
            let cost = |l| cost_of(&classes, floor, l);
            for net in [&connected, &any_net] {
                for src in net.nodes() {
                    full.run(net, src, cost);
                    for dst in net.nodes() {
                        let got = shortest_path_in(&mut ws, net, src, dst, floor, cost);
                        let want = full.distance(dst).zip(full.route_to(net, dst));
                        prop_assert_eq!(&got, &want, "floor {} {} -> {}", floor, src, dst);
                        // Whatever the floor stop left settled is final —
                        // `dst` itself included when it was never popped.
                        for node in net.nodes() {
                            if let Some(d) = ws.distance(node) {
                                prop_assert_eq!(Some(d), full.distance(node));
                                prop_assert_eq!(ws.route_to(net, node), full.route_to(net, node));
                            }
                        }
                        // The bidirectional search: the same least cost, and
                        // a simple route of that cost. (Which of several
                        // cheapest routes it returns is its own;
                        // `bidirectional_search_returns_the_unique_least_route`
                        // holds the route where there is one.)
                        let both = shortest_path_with_floor(net, src, dst, floor, cost);
                        prop_assert_eq!(
                            both.as_ref().map(|(c, _)| *c),
                            got.as_ref().map(|(c, _)| *c),
                            "floor {} {} -> {}", floor, src, dst
                        );
                        if let Some((c, route)) = &both {
                            prop_assert_eq!((route.source(), route.dest()), (src, dst));
                            prop_assert!(route.is_simple(net), "{:?}", route);
                            let sum = route.links().iter().map(|&l| cost(l)).sum();
                            prop_assert_eq!(Some(*c), sum);
                        }
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

    /// Where the cheapest route is unique, the bidirectional search
    /// returns it, link for link the one-directional search's route, at
    /// every floor: on one-way links, duplex pairs, several components,
    /// and steps whose sums carry through every field.
    #[test]
    fn bidirectional_search_returns_the_unique_least_route(
        directed in arb_directed_net(),
        any_net in arb_any_net(),
        connected in arb_connected_net(),
        classes in prop::collection::vec(0u8..12, 1..=40),
    ) {
        let cost = |l| keyed_cost(&classes, l);
        let mut ws = SpfWorkspace::new();
        let mut full = SpfWorkspace::new();
        for net in [&directed, &any_net, &connected] {
            for src in net.nodes() {
                full.run(net, src, cost);
                let counts = cheapest_route_counts(net, &full, cost);
                for dst in net.nodes() {
                    prop_assert!(counts[dst.index()] < 2, "tie sums collide: {} -> {}", src, dst);
                    let want = shortest_path_in(&mut ws, net, src, dst, 0, cost);
                    for floor in FLOORS {
                        let got = shortest_path_with_floor(net, src, dst, floor, cost);
                        prop_assert_eq!(&got, &want, "floor {} {} -> {}", floor, src, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn generated_networks_are_connected(net in arb_connected_net()) {
        prop_assert!(net.is_connected());
    }

    /// Exactly, on the cost classes of `targeted_search_equals_full_search`:
    /// the same distance everywhere, and a route of that cost.
    #[test]
    fn dijkstra_and_bellman_ford_agree(
        net in arb_any_net(),
        src in 0u32..4,
        classes in prop::collection::vec(0u8..12, 1..=40),
    ) {
        let src = NodeId::new(src % net.num_nodes() as u32);
        for floor in FLOORS {
            let cost = |l| cost_of(&classes, floor, l);
            let mut dj = SpfWorkspace::new();
            dj.run(&net, src, cost);
            let bf = bellman_ford(&net, src, cost);
            for node in net.nodes() {
                prop_assert_eq!(dj.distance(node), bf.distance(node));
                if let Some(route) = bf.route_to(&net, node) {
                    let sum: u128 = route.links().iter().filter_map(|&l| cost(l)).sum();
                    prop_assert_eq!(Some(sum), dj.distance(node));
                }
            }
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

    /// The bit-parallel sweep against one queue BFS per source. The mask
    /// drops each link on its own coin (none at `keep` 10), so it cuts
    /// single directions of duplex pairs.
    #[test]
    fn all_pairs_hops_equal_bfs_row_by_row(
        net in arb_wide_net(),
        keep in 6u64..=10,
        salt in any::<u64>(),
    ) {
        let usable = |l: LinkId| mix(salt ^ l.index() as u64) % 10 < keep;
        let hops = AllPairsHops::compute_filtered(&net, usable);
        let (mut total, mut pairs, mut diameter) = (0u64, 0u64, 0u32);
        for src in net.nodes() {
            let row = bfs_hops_filtered(&net, src, usable);
            for dst in net.nodes() {
                let want = row[dst.index()];
                prop_assert_eq!(hops.hops(src, dst), want, "{} -> {}", src, dst);
                if let Some(d) = want {
                    diameter = diameter.max(d);
                    if src != dst {
                        total += u64::from(d);
                        pairs += 1;
                    }
                }
            }
        }
        prop_assert_eq!(hops.diameter(), diameter);
        let mean = if pairs == 0 { 0.0 } else { total as f64 / pairs as f64 };
        prop_assert_eq!(hops.average_hops().to_bits(), mean.to_bits());
    }

    #[test]
    fn routes_are_valid_and_minimal(net in arb_connected_net()) {
        let src = NodeId::new(0);
        let hops = AllPairsHops::compute(&net);
        for dst in net.nodes().skip(1) {
            let (_, route) = shortest_path(&net, src, dst, |_| Some(1)).expect("connected");
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
        let routes = k_shortest_paths(&net, src, dst, k, |_| Some(1));
        prop_assert!(!routes.is_empty());
        prop_assert!(routes.len() <= k);
        let mut seen = std::collections::BTreeSet::new();
        for w in routes.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        for (c, r) in &routes {
            prop_assert!(r.is_simple(&net));
            prop_assert_eq!(*c, r.len() as u128);
            prop_assert!(seen.insert(r.links().to_vec()));
        }
    }

    #[test]
    fn suurballe_pair_is_disjoint_when_found(net in arb_connected_net()) {
        let src = NodeId::new(0);
        let dst = NodeId::new((net.num_nodes() - 1) as u32);
        if let Some(pair) = suurballe(&net, src, dst, |_| Some(1)) {
            prop_assert!(pair.primary.is_link_disjoint(&pair.backup));
            prop_assert_eq!(pair.primary.source(), src);
            prop_assert_eq!(pair.backup.source(), src);
            prop_assert_eq!(pair.primary.dest(), dst);
            prop_assert_eq!(pair.backup.dest(), dst);
            // Primary never longer than backup under unit costs.
            prop_assert!(pair.primary.len() <= pair.backup.len());
            // Total never better than twice the single shortest path.
            let (single, _) = shortest_path(&net, src, dst, |_| Some(1)).unwrap();
            prop_assert!(pair.total_cost >= 2 * single);
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
        let pair = suurballe(&net, src, dst, |_| Some(1));
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
