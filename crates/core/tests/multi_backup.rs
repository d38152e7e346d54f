//! Tests of the multi-backup extension (DRTP's "one primary and one or
//! more backup channels").

use drt_core::routing::{BoundedFlooding, DLsr, PLsr, RouteRequest, RoutingScheme, SpfBackup};
use drt_core::{ConnectionId, ConnectionState, DrtpManager};
use drt_net::{topology, Bandwidth, NodeId};
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

fn req_k(id: u64, src: u32, dst: u32, k: u32) -> RouteRequest {
    RouteRequest::new(
        ConnectionId::new(id),
        NodeId::new(src),
        NodeId::new(dst),
        BW,
    )
    .with_backups(k)
}

#[test]
fn two_backups_are_mutually_disjoint_when_possible() {
    // 4x4 mesh between edge-middle nodes: three fully disjoint routes
    // exist (through rows 0, the primary's own row pair, and row 3).
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    for scheme in &mut [
        Box::new(DLsr::new()) as Box<dyn RoutingScheme>,
        Box::new(PLsr::new()),
        Box::new(SpfBackup::new()),
        Box::new(BoundedFlooding::new()),
    ] {
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let rep = mgr
            .request_connection(scheme.as_mut(), req_k(0, 4, 7, 2))
            .unwrap();
        assert_eq!(rep.backups.len(), 2, "{}", scheme.name());
        let b0 = &rep.backups[0];
        let b1 = &rep.backups[1];
        assert_eq!(b0.overlap(&rep.primary), 0, "{}", scheme.name());
        assert_eq!(b1.overlap(&rep.primary), 0, "{}", scheme.name());
        assert_eq!(b0.overlap(b1), 0, "{}: {b0} vs {b1}", scheme.name());
        mgr.assert_invariants();
        mgr.release(ConnectionId::new(0)).unwrap();
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO, "{}", scheme.name());
    }
}

#[test]
fn requesting_more_backups_than_routes_exist_caps_gracefully() {
    // A ring has exactly two link-disjoint routes; asking for 4 backups
    // yields at most ... the reverse route plus Q-penalised rehashes, but
    // never duplicates.
    let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(net);
    let rep = mgr
        .request_connection(&mut DLsr::new(), req_k(0, 0, 3, 4))
        .unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for b in &rep.backups {
        assert!(seen.insert(b.links().to_vec()), "duplicate backup {b}");
    }
    assert!(!rep.backups.is_empty());
    mgr.assert_invariants();
}

#[test]
fn second_backup_rescues_when_first_is_hit() {
    // Construct: primary and first backup share fate (the failure hits
    // both), second backup survives. Force routes via the mesh geometry:
    // fail a link that lies on the FIRST backup; then fail the primary —
    // wait, single failure only. Instead: fail a link on the primary that
    // ALSO lies on... a single link cannot be on both (they are disjoint).
    // The real scenario: first backup crosses a PREVIOUSLY failed link.
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let rep = mgr
        .request_connection(&mut scheme, req_k(0, 4, 7, 2))
        .unwrap();
    let mut rng = drt_sim::rng::stream(3, "multi");

    // First failure knocks out backup #0 (not the primary): the
    // connection stays protected thanks to backup #1.
    let b0_link = rep.backups[0].links()[1];
    let report = mgr.inject_failure(b0_link, &mut rng).unwrap();
    assert!(report.switched.is_empty());
    assert!(
        report.unprotected.is_empty(),
        "second backup keeps the connection protected"
    );
    let conn = mgr.connection(ConnectionId::new(0)).unwrap();
    assert_eq!(conn.state(), ConnectionState::Protected);
    assert_eq!(conn.backups().len(), 1);
    mgr.assert_invariants();

    // Second failure hits the primary: the remaining backup activates.
    let p_link = rep.primary.links()[1];
    let report = mgr.inject_failure(p_link, &mut rng).unwrap();
    assert_eq!(report.switched, vec![ConnectionId::new(0)]);
    assert_eq!(
        mgr.connection(ConnectionId::new(0)).unwrap().state(),
        ConnectionState::Recovered
    );
    mgr.assert_invariants();
}

#[test]
fn probe_reports_which_backup_would_activate() {
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let rep = mgr
        .request_connection(&mut scheme, req_k(0, 4, 7, 2))
        .unwrap();
    let mut rng = drt_sim::rng::stream(5, "probe");
    let out = mgr.probe_single_failure(rep.primary.links()[0], &mut rng);
    assert_eq!(out.details, vec![(ConnectionId::new(0), Some(0))]);

    // Take the first backup's link down for real; the probe then reports
    // activation via the second backup... except the failure handler
    // already dropped the dead backup, so index 0 is the survivor.
    mgr.inject_failure(rep.backups[0].links()[0], &mut rng)
        .unwrap();
    let out = mgr.probe_single_failure(rep.primary.links()[0], &mut rng);
    assert_eq!(out.details, vec![(ConnectionId::new(0), Some(0))]);
    assert_eq!(
        mgr.connection(ConnectionId::new(0))
            .unwrap()
            .backups()
            .len(),
        1
    );
}

#[test]
fn extra_backups_cost_extra_spare() {
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    let mut one = DrtpManager::new(Arc::clone(&net));
    let mut two = DrtpManager::new(Arc::clone(&net));
    one.request_connection(&mut DLsr::new(), req_k(0, 4, 7, 1))
        .unwrap();
    two.request_connection(&mut DLsr::new(), req_k(0, 4, 7, 2))
        .unwrap();
    assert!(
        two.total_spare() > one.total_spare(),
        "{} vs {}",
        two.total_spare(),
        one.total_spare()
    );
    one.assert_invariants();
    two.assert_invariants();
}

#[test]
fn reestablish_tops_up_protected_connection() {
    // A protected connection can acquire an additional backup via
    // reconfiguration (multi-backup top-up).
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    mgr.request_connection(&mut scheme, req_k(0, 4, 7, 1))
        .unwrap();
    assert_eq!(
        mgr.connection(ConnectionId::new(0))
            .unwrap()
            .backups()
            .len(),
        1
    );
    mgr.reestablish_backup(&mut scheme, ConnectionId::new(0))
        .unwrap();
    let conn = mgr.connection(ConnectionId::new(0)).unwrap();
    assert_eq!(conn.backups().len(), 2);
    // The top-up avoided the existing backup's links.
    assert_eq!(conn.backups()[0].overlap(&conn.backups()[1]), 0);
    mgr.assert_invariants();
}
