//! The paper's worked examples (Figures 1–3), encoded as integration
//! tests over the full public API.

use drt_core::routing::{DLsr, RouteRequest, Scripted};
use drt_core::{ConnectionId, DrtpManager};
use drt_net::{topology, Bandwidth, Network, NodeId, Route};
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

fn req(id: u64, src: u32, dst: u32) -> drt_core::routing::RouteRequest {
    RouteRequest::new(
        ConnectionId::new(id),
        NodeId::new(src),
        NodeId::new(dst),
        BW,
    )
}

fn route(net: &Network, nodes: &[u32]) -> Route {
    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
    Route::from_nodes(net, &ids).expect("mesh routes")
}

/// The mesh of Figure 1 (nodes row-major):
/// ```text
///   0 - 1 - 2
///   |   |   |
///   3 - 4 - 5
///   |   |   |
///   6 - 7 - 8
/// ```
fn fig1_mesh() -> Arc<Network> {
    Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).expect("3x3 mesh"))
}

/// Figure 1, L9: "Because the primary channels P1 and P2 do not overlap,
/// any single link failure can cause at most one of these primaries to be
/// switched to its backup. Thus, B1 and B2 will never contend for the
/// reserved resources […] backup multiplexing successfully reduces the
/// resource overhead without affecting the fault-tolerance capability."
#[test]
fn figure1_safe_multiplexing() {
    let net = fig1_mesh();
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    script.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 4, 5, 2])));
    script.push(route(&net, &[6, 7, 8]), Some(route(&net, &[6, 3, 4, 5, 8])));
    mgr.request_connection(&mut script, req(1, 0, 2)).unwrap();
    mgr.request_connection(&mut script, req(2, 6, 8)).unwrap();

    // The backups share the middle-row links, yet one connection's worth
    // of spare suffices everywhere.
    let shared = net.find_link(NodeId::new(3), NodeId::new(4)).unwrap();
    assert_eq!(mgr.aplv(shared).max_count(), 1);
    assert_eq!(mgr.link_resources(shared).spare(), BW);

    // Every single link failure is fully recoverable.
    let sample = mgr.sweep_single_failures(7);
    assert_eq!(sample.p_act_bk(), Some(1.0));
    mgr.assert_invariants();
}

/// Figure 1, L7: conflicting backups (primaries overlap) multiplexed over
/// too little spare lose a connection when the shared primary link fails.
/// Section 5 grows the spare pool so both survive; when free bandwidth
/// runs short it still multiplexes, and one of them is lost.
#[test]
fn figure1_conflicting_multiplexing() {
    let net = fig1_mesh();
    let overlap_link = net.find_link(NodeId::new(1), NodeId::new(2)).unwrap();
    let contested = net.find_link(NodeId::new(4), NodeId::new(5)).unwrap();
    let mut rng = drt_sim::rng::stream(3, "fig1");

    // `load` primary-only connections on L(4->5) first, then D1 and D3.
    let build = |load: u64| {
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut script = Scripted::new();
        for id in 0..load {
            script.push(route(&net, &[4, 5]), None);
            mgr.request_connection(&mut script, req(10 + id, 4, 5))
                .unwrap();
        }
        // D1: top row; backup through the middle row.
        script.push(route(&net, &[0, 1, 2]), Some(route(&net, &[0, 3, 4, 5, 2])));
        // D3: overlaps P1 on L(1->2); backup shares B1's tail.
        script.push(route(&net, &[1, 2]), Some(route(&net, &[1, 4, 5, 2])));
        mgr.request_connection(&mut script, req(1, 0, 2)).unwrap();
        mgr.request_connection(&mut script, req(3, 1, 2)).unwrap();
        mgr
    };

    // Free bandwidth to spare: the conflict is detected and the spare
    // pool doubles.
    let mgr = build(0);
    assert_eq!(mgr.aplv(contested).count(overlap_link), 2);
    assert_eq!(mgr.link_resources(contested).spare(), BW * 2);
    assert_eq!(mgr.spare_deficit_links(), 0);
    let probe = mgr.probe_single_failure(overlap_link, &mut rng);
    assert_eq!((probe.affected(), probe.activated()), (2, 2));

    // Two primaries hold 6 of L(4->5)'s 10 Mb/s: the pool grows to 4 Mb/s
    // against a requirement of 6 and the backups stay multiplexed on it —
    // the shortage case of Section 5, which costs exactly what the paper
    // warns about.
    let short = build(2);
    assert_eq!(short.aplv(contested).required_spare(), BW * 2);
    assert_eq!(
        short.link_resources(contested).spare(),
        Bandwidth::from_kbps(4_000)
    );
    assert_eq!(short.spare_deficit_links(), 1);
    let probe = short.probe_single_failure(overlap_link, &mut rng);
    assert_eq!((probe.affected(), probe.activated()), (2, 1));
    mgr.assert_invariants();
    short.assert_invariants();
}

/// Figure 2: the conflict vector a link advertises is exactly the support
/// of its APLV, and D-LSR's cost term — read from the manager's conflict
/// columns, one per link of the primary — counts the overlap with a
/// primary's LSET.
#[test]
fn figure2_conflict_vector() {
    let net = fig1_mesh();
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    let p1 = route(&net, &[0, 1, 2]);
    let b1 = route(&net, &[0, 3, 4, 5, 2]);
    let p2 = route(&net, &[6, 7, 8]);
    let b2 = route(&net, &[6, 3, 4, 5, 8]);
    script.push(p1.clone(), Some(b1));
    script.push(p2.clone(), Some(b2));
    mgr.request_connection(&mut script, req(1, 0, 2)).unwrap();
    mgr.request_connection(&mut script, req(2, 6, 8)).unwrap();

    // L(3->4) carries both backups: its CV must be the union of both
    // primaries' link sets, bit for bit.
    let shared = net.find_link(NodeId::new(3), NodeId::new(4)).unwrap();
    let cv = mgr.aplv(shared).conflict_vector(net.num_links());
    for link in net.links() {
        let expected = p1.contains_link(link.id()) || p2.contains_link(link.id());
        assert_eq!(cv.get(link.id()), expected, "bit {}", link.id());
    }
    assert_eq!(cv.ones() as usize, p1.len() + p2.len());
    // D-LSR's cost of using this link for a backup whose primary is P1:
    let mut counts = Vec::new();
    mgr.view().conflict_counts(p1.links(), &mut counts);
    assert_eq!(counts[shared.index()], p1.len() as u32);
    mgr.assert_invariants();
}

/// Figure 3: "(L9, L4, L2, L5) is selected as the backup channel route
/// B3' […] if L13 fails, both connections fail simultaneously. However,
/// since the backup routes are disjoint, both connections can recover.
/// B3' offers better fault-tolerance than B3, although it has a longer
/// distance."
#[test]
fn figure3_dlsr_detours_around_conflict() {
    let net = fig1_mesh();
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = Scripted::new();
    let b1 = route(&net, &[0, 3, 4, 5, 2]);
    script.push(route(&net, &[0, 1, 2]), Some(b1.clone()));
    mgr.request_connection(&mut script, req(1, 0, 2)).unwrap();

    // D3's primary overlaps P1 on L(1->2). The naive backup (1-4-5-2, two
    // conflicts with B1) is shorter; D-LSR must pay hops to shed
    // conflicts.
    let mut dlsr = DLsr::new();
    let rep = mgr.request_connection(&mut dlsr, req(3, 1, 2)).unwrap();
    let b3 = rep.backup().unwrap();
    let naive = route(&net, &[1, 4, 5, 2]);
    assert!(b3.len() > naive.len(), "the detour is longer: {b3}");
    assert!(
        b3.overlap(&b1) < naive.overlap(&b1),
        "and has strictly fewer conflicts"
    );

    // The payoff: when the shared primary link fails, both connections
    // recover.
    let overlap_link = net.find_link(NodeId::new(1), NodeId::new(2)).unwrap();
    let mut rng = drt_sim::rng::stream(5, "fig3");
    let probe = mgr.probe_single_failure(overlap_link, &mut rng);
    assert_eq!((probe.affected(), probe.activated()), (2, 2));
    mgr.assert_invariants();
}

/// The paper's Section 2 cost statement: "equipping each DR-connection
/// even with a single backup disjoint from its primary reduces the network
/// capacity by at least 50%" — dedicated backups must at least double the
/// per-connection footprint that multiplexed backups avoid.
#[test]
fn dedicated_costs_at_least_double() {
    let net = fig1_mesh();
    let mut ded = DrtpManager::new(Arc::clone(&net));
    let mut mux = DrtpManager::new(Arc::clone(&net));
    let mut dedicated = drt_core::routing::DedicatedDisjoint::new();
    let mut dlsr = DLsr::new();

    ded.request_connection(&mut dedicated, req(0, 3, 5))
        .unwrap();
    mux.request_connection(&mut dlsr, req(0, 3, 5)).unwrap();

    let hard_ded = ded.total_prime();
    let hard_mux = mux.total_prime();
    let spare_mux = mux.total_spare();
    assert!(hard_ded >= hard_mux * 2, "{hard_ded} vs {hard_mux}");
    // Multiplexed spare for a single connection equals the backup length
    // but is *shared* — subsequent disjoint-primary connections ride free
    // (figure1_safe_multiplexing above).
    assert!(spare_mux > Bandwidth::ZERO);
    ded.assert_invariants();
    mux.assert_invariants();
}
