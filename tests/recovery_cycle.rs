//! Integration tests of the full DRTP lifecycle: establish → fail →
//! switch → re-protect → repair → release, across schemes, single
//! directed-link failures and physical cuts of both directions.

use drt_core::failure::FailureEvent;
use drt_core::routing::{BoundedFlooding, DLsr, PLsr, RouteRequest, RoutingScheme};
use drt_core::{ConnectionId, ConnectionState, DrtpManager};
use drt_net::{topology, Bandwidth, LinkId, Network};
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

/// A physical cut: `link` and its reverse fail in one event.
fn cut(net: &Network, link: LinkId) -> (FailureEvent, LinkId) {
    let rev = net.reverse_link(link).expect("duplex link");
    let event = FailureEvent::Batch(vec![FailureEvent::Link(link), FailureEvent::Link(rev)]);
    (event, rev)
}

fn establish_some(
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    n: u64,
    seed: u64,
) -> Vec<ConnectionId> {
    let mut rng = drt_sim::rng::stream(seed, "recovery-pairs");
    let pattern = drt_sim::workload::TrafficPattern::ut();
    let nodes = mgr.net().num_nodes();
    let mut out = Vec::new();
    for i in 0..n {
        let (src, dst) = pattern.sample_pair(nodes, &mut rng);
        if mgr
            .request_connection(
                scheme,
                RouteRequest::new(ConnectionId::new(i), src, dst, BW),
            )
            .is_ok()
        {
            out.push(ConnectionId::new(i));
        }
    }
    out
}

#[test]
fn full_cycle_under_every_scheme() {
    let net = Arc::new(
        topology::WaxmanConfig::new(40, 4.0)
            .capacity(Bandwidth::from_mbps(100))
            .seed(21)
            .build()
            .unwrap(),
    );
    let schemes: Vec<Box<dyn RoutingScheme>> = vec![
        Box::new(DLsr::new()),
        Box::new(PLsr::new()),
        Box::new(BoundedFlooding::new()),
    ];
    for mut scheme in schemes {
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let live = establish_some(&mut mgr, scheme.as_mut(), 40, 1);
        assert!(!live.is_empty());
        let mut rng = drt_sim::rng::stream(2, "cycle");

        // Fail three random links, recovering after each.
        for link_idx in [0u32, 33, 71] {
            let link = LinkId::new(link_idx);
            if mgr.is_failed(link) {
                continue;
            }
            let report = mgr.inject_failure(link, &mut rng).unwrap();
            for id in report.switched.iter().chain(&report.unprotected) {
                let _ = mgr.reestablish_backup(scheme.as_mut(), *id);
            }
            mgr.assert_invariants();
        }
        // Repair everything.
        for link_idx in [0u32, 33, 71] {
            let _ = mgr.repair_link(LinkId::new(link_idx));
        }
        // Release everything; books must be empty.
        for id in live {
            mgr.release(id).unwrap();
        }
        mgr.assert_invariants();
        assert_eq!(
            mgr.total_prime(),
            Bandwidth::ZERO,
            "{} left resources behind",
            scheme.name()
        );
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
    }
}

#[test]
fn recovered_connection_survives_second_failure_after_reprotection() {
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let rep = mgr
        .request_connection(
            &mut scheme,
            RouteRequest::new(
                ConnectionId::new(0),
                drt_net::NodeId::new(4),
                drt_net::NodeId::new(7),
                BW,
            ),
        )
        .unwrap();
    let mut rng = drt_sim::rng::stream(9, "double");

    // First failure: switch to backup, then re-protect.
    let l1 = rep.primary.links()[0];
    let report = mgr.inject_failure(l1, &mut rng).unwrap();
    assert_eq!(report.switched, vec![ConnectionId::new(0)]);
    mgr.reestablish_backup(&mut scheme, ConnectionId::new(0))
        .unwrap();
    assert_eq!(
        mgr.connection(ConnectionId::new(0)).unwrap().state(),
        ConnectionState::Protected
    );

    // Second failure on the *new* primary: recover again.
    let new_primary_link = mgr
        .connection(ConnectionId::new(0))
        .unwrap()
        .primary()
        .links()[0];
    let report = mgr.inject_failure(new_primary_link, &mut rng).unwrap();
    assert_eq!(
        report.switched,
        vec![ConnectionId::new(0)],
        "re-established protection must cover the second failure"
    );
    mgr.assert_invariants();
}

#[test]
fn duplex_pair_failure_kills_both_directions_of_traffic() {
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();

    // Two opposite-direction connections across the same physical pair.
    let a = drt_net::NodeId::new(3);
    let b = drt_net::NodeId::new(5);
    mgr.request_connection(
        &mut scheme,
        RouteRequest::new(ConnectionId::new(0), a, b, BW),
    )
    .unwrap();
    mgr.request_connection(
        &mut scheme,
        RouteRequest::new(ConnectionId::new(1), b, a, BW),
    )
    .unwrap();

    // Cut a physical link both primaries traverse (in opposite
    // directions): both are affected.
    let fwd = mgr
        .connection(ConnectionId::new(0))
        .unwrap()
        .primary()
        .links()[0];
    let (event, rev) = cut(&net, fwd);
    let mut rng = drt_sim::rng::stream(4, "duplex");
    let probe = mgr.probe_event(&event, &mut rng);
    assert_eq!(
        probe.affected(),
        2,
        "physical cut affects both directions: {probe:?}"
    );
    assert_eq!(probe.activated(), 2);
    mgr.assert_invariants();

    // Injected, the cut switches both; each direction is repaired on its own.
    let report = mgr.inject_event(&event, &mut rng).unwrap();
    assert_eq!(report.failed_links.len(), 2);
    assert_eq!(report.switched.len(), 2, "{report:?}");
    mgr.repair_link(fwd).unwrap();
    assert!(
        mgr.is_failed(rev),
        "repairing one direction leaves the other down"
    );
    mgr.repair_link(rev).unwrap();
    assert!(!mgr.is_failed(fwd) && !mgr.is_failed(rev));
    mgr.assert_invariants();
}

#[test]
fn repair_restores_routability() {
    let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(10)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let mut rng = drt_sim::rng::stream(6, "repair");

    // Cut the ring twice: some pairs become unreachable.
    mgr.inject_failure(LinkId::new(0), &mut rng).unwrap();
    let l_far = net
        .find_link(drt_net::NodeId::new(3), drt_net::NodeId::new(4))
        .unwrap();
    mgr.inject_failure(l_far, &mut rng).unwrap();

    let req = RouteRequest::new(
        ConnectionId::new(0),
        drt_net::NodeId::new(0),
        drt_net::NodeId::new(4),
        BW,
    );
    // With two cuts the ring is split; 0 can still reach 4 one way at
    // most — and with both cuts between them, not at all. Establish must
    // fail or come back unprotected; after repair it succeeds protected.
    let before = mgr.request_connection(&mut scheme, req);
    mgr.repair_link(LinkId::new(0)).unwrap();
    mgr.repair_link(l_far).unwrap();
    let req2 = RouteRequest::new(
        ConnectionId::new(1),
        drt_net::NodeId::new(0),
        drt_net::NodeId::new(4),
        BW,
    );
    let after = mgr.request_connection(&mut scheme, req2).unwrap();
    assert!(after.backup().is_some(), "repaired ring offers both routes");
    // `before` may have failed or been unprotected; either way the books
    // stay consistent.
    let _ = before;
    mgr.assert_invariants();
}

#[test]
fn reestablish_backup_under_contention_is_best_effort_until_it_clears() {
    // Capacity exactly one connection per link: after a failure consumes
    // the shared spare pool, re-protection still succeeds — spare pools
    // grow only toward what is free — but the under-provisioned backup
    // cannot activate until the contention clears (the paper's P_act-bk
    // shortfall, repaired by reconfiguration).
    let net = Arc::new(topology::mesh(3, 3, BW).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut script = drt_core::routing::Scripted::new();
    let r = |nodes: &[u32]| {
        let ids: Vec<drt_net::NodeId> = nodes.iter().map(|&n| drt_net::NodeId::new(n)).collect();
        drt_net::Route::from_nodes(&net, &ids).unwrap()
    };
    // Disjoint primaries share one connection's worth of spare on the
    // middle row (figure 1's safe multiplexing).
    script.push(r(&[0, 1, 2]), Some(r(&[0, 3, 4, 5, 2])));
    script.push(r(&[6, 7, 8]), Some(r(&[6, 3, 4, 5, 8])));
    mgr.request_connection(
        &mut script,
        RouteRequest::new(
            ConnectionId::new(0),
            drt_net::NodeId::new(0),
            drt_net::NodeId::new(2),
            BW,
        ),
    )
    .unwrap();
    mgr.request_connection(
        &mut script,
        RouteRequest::new(
            ConnectionId::new(1),
            drt_net::NodeId::new(6),
            drt_net::NodeId::new(8),
            BW,
        ),
    )
    .unwrap();

    // Fail connection 0's primary: it switches onto the middle row,
    // converting the shared spare into its own prime reservation.
    let cut = net
        .find_link(drt_net::NodeId::new(1), drt_net::NodeId::new(2))
        .unwrap();
    let mut rng = drt_sim::rng::stream(11, "contention");
    let report = mgr.inject_failure(cut, &mut rng).unwrap();
    assert_eq!(report.switched, vec![ConnectionId::new(0)]);
    mgr.assert_invariants();

    // Every detour for connection 1 crosses links now fully held by
    // connection 0's promoted route: re-protection is accepted, but the
    // spare pool there cannot grow (no free capacity), so the new backup
    // is unactivatable — nominal protection, zero real fault tolerance.
    mgr.drop_backups(ConnectionId::new(1)).unwrap();
    let mut dlsr = DLsr::new();
    mgr.reestablish_backup(&mut dlsr, ConnectionId::new(1))
        .unwrap();
    assert_eq!(
        mgr.connection(ConnectionId::new(1)).unwrap().state(),
        ConnectionState::Protected
    );
    let contended = mgr
        .connection(ConnectionId::new(1))
        .unwrap()
        .backup()
        .cloned()
        .unwrap();
    assert!(
        contended
            .links()
            .iter()
            .any(|&l| mgr.link_resources(l).spare() == Bandwidth::ZERO
                && mgr.link_resources(l).free() == Bandwidth::ZERO),
        "the detour must cross a saturated link: {contended}"
    );
    let p1_link = mgr
        .connection(ConnectionId::new(1))
        .unwrap()
        .primary()
        .links()[0];
    let probe = mgr.probe_single_failure(p1_link, &mut rng);
    assert_eq!(
        (probe.affected(), probe.activated()),
        (1, 0),
        "under-provisioned spare cannot activate"
    );
    mgr.assert_invariants();

    // Releasing the contender frees the middle row; reconfiguration
    // (drop + re-establish) reprovisions the spare pool and protection
    // becomes real again, even though the original cut is unrepaired.
    mgr.release(ConnectionId::new(0)).unwrap();
    mgr.drop_backups(ConnectionId::new(1)).unwrap();
    mgr.reestablish_backup(&mut dlsr, ConnectionId::new(1))
        .unwrap();
    let backup = mgr
        .connection(ConnectionId::new(1))
        .unwrap()
        .backup()
        .cloned()
        .unwrap();
    assert!(
        backup
            .links()
            .iter()
            .all(|&l| mgr.link_resources(l).spare() >= BW),
        "spare pools must be fully provisioned after reconfiguration"
    );
    let probe = mgr.probe_single_failure(p1_link, &mut rng);
    assert_eq!((probe.affected(), probe.activated()), (1, 1));
    mgr.assert_invariants();
}

#[test]
fn reestablish_backup_after_duplex_pair_failure() {
    // One physical cut downs both directions; re-protection must bring
    // both switched connections back to Protected.
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();

    let a = drt_net::NodeId::new(3);
    let b = drt_net::NodeId::new(5);
    mgr.request_connection(
        &mut scheme,
        RouteRequest::new(ConnectionId::new(0), a, b, BW),
    )
    .unwrap();
    mgr.request_connection(
        &mut scheme,
        RouteRequest::new(ConnectionId::new(1), b, a, BW),
    )
    .unwrap();

    let fwd = mgr
        .connection(ConnectionId::new(0))
        .unwrap()
        .primary()
        .links()[0];
    let (event, rev) = cut(&net, fwd);
    let mut rng = drt_sim::rng::stream(12, "duplex-reprotect");
    let report = mgr.inject_event(&event, &mut rng).unwrap();
    assert_eq!(
        report.switched.len() + report.unprotected.len() + report.lost.len(),
        2,
        "the physical cut must affect both directions: {report:?}"
    );

    for id in report.switched.iter().chain(&report.unprotected) {
        mgr.reestablish_backup(&mut scheme, *id).unwrap();
        assert_eq!(
            mgr.connection(*id).unwrap().state(),
            ConnectionState::Protected,
            "{id} must be re-protected after the duplex cut"
        );
    }
    assert!(report.lost.is_empty(), "capacity is ample: {report:?}");
    mgr.assert_invariants();

    // The re-established protection is real: cut one of the new
    // primaries (both directions again) and the affected side still
    // recovers.
    let second = mgr
        .connection(ConnectionId::new(0))
        .unwrap()
        .primary()
        .links()[0];
    let (event, second_rev) = cut(&net, second);
    let report = mgr.inject_event(&event, &mut rng).unwrap();
    assert!(
        report.lost.is_empty(),
        "re-protection covered the repeat cut"
    );
    mgr.assert_invariants();

    // Both cuts heal one direction at a time.
    for l in [fwd, rev, second, second_rev] {
        mgr.repair_link(l).unwrap();
    }
    assert!(net.links().all(|l| !mgr.is_failed(l.id())));
    mgr.assert_invariants();
}
