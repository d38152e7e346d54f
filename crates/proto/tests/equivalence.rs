//! The distributed protocol and the centralized manager must agree.
//!
//! [`drt_core::DrtpManager`] claims to be "the union of all per-router
//! state". This suite proves it: after any establish/release command
//! sequence reaches quiescence, every link's `prime`, `spare`, and APLV in
//! the message-level simulation equal the centralized manager's for the
//! same routes.

use drt_core::routing::{RoutePair, RouteRequest, RoutingOverhead};
use drt_core::{ConnectionId, DrtpManager};
use drt_net::{topology, Bandwidth, Network, NodeId, Route};
use drt_proto::{ConnOutcome, ProtocolConfig, ProtocolSim};
use proptest::prelude::*;
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

/// Pushes the same routes through both models and asserts link-state
/// equality. Commands run to quiescence before the next is issued, so
/// the distributed side is race-free (race behaviour is tested
/// separately).
fn assert_equivalent(net: &Arc<Network>, ops: &[(u64, Route, Option<Route>, bool)]) {
    let mut mgr = DrtpManager::new(Arc::clone(net));
    let mut sim = ProtocolSim::new(Arc::clone(net), ProtocolConfig::default());
    let mut live: Vec<ConnectionId> = Vec::new();

    for (id, primary, backup, release_one) in ops {
        let conn = ConnectionId::new(*id);
        // Centralized.
        let req = RouteRequest::new(conn, primary.source(), primary.dest(), BW);
        let pair = RoutePair {
            primary: primary.clone(),
            backup: backup.clone(),
            dedicated_backup: false,
            overhead: RoutingOverhead::ZERO,
        };
        let central = mgr.admit_routes(&req, pair);

        // Distributed.
        sim.establish(conn, BW, primary.clone(), backup.clone());
        sim.run_to_quiescence();
        let distributed = sim.outcome(conn).expect("submitted");

        assert_eq!(
            central.is_ok(),
            distributed.is_established(),
            "admission disagreement for {conn}: {central:?} vs {distributed:?}"
        );
        if central.is_ok() {
            live.push(conn);
        }

        if *release_one && !live.is_empty() {
            let victim = live.remove(0);
            mgr.release(victim).unwrap();
            assert!(sim.release(victim));
            sim.run_to_quiescence();
        }

        // Link-state equality after every command.
        for link in net.links() {
            let l = link.id();
            assert_eq!(
                mgr.link_resources(l).prime(),
                sim.link_resources(l).prime(),
                "prime mismatch on {l}"
            );
            assert_eq!(
                mgr.link_resources(l).spare(),
                sim.link_resources(l).spare(),
                "spare mismatch on {l}"
            );
            assert_eq!(mgr.aplv(l), sim.aplv(l), "aplv mismatch on {l}");
        }
    }
}

#[test]
fn simple_establish_release_matches() {
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let ops = vec![
        (0, r(&[0, 1, 2]), Some(r(&[0, 3, 4, 5, 2])), false),
        (1, r(&[6, 7, 8]), Some(r(&[6, 3, 4, 5, 8])), false),
        (2, r(&[1, 2]), Some(r(&[1, 4, 5, 2])), true),
        // Two connections on one primary, backed up either side of it.
        (3, r(&[3, 4, 5]), Some(r(&[3, 0, 1, 2, 5])), true),
        (4, r(&[3, 4, 5]), Some(r(&[3, 6, 7, 8, 5])), true),
    ];
    assert_equivalent(&net, &ops);
}

#[test]
fn saturating_setups_reject_identically() {
    // Tiny capacity: both models must reject the same requests when the
    // commands are sequential.
    let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(7_000)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let ops: Vec<(u64, Route, Option<Route>, bool)> = (0..5)
        .map(|i| (i, r(&[0, 1]), Some(r(&[0, 3, 2, 1])), false))
        .collect();
    assert_equivalent(&net, &ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random route sets over random graphs, sequential commands: the two
    /// models stay bit-identical on every link.
    #[test]
    fn random_sequences_match(seed in any::<u64>(), n_ops in 1usize..14) {
        let net = Arc::new(
            topology::random_connected(10, 16, Bandwidth::from_mbps(15), seed).unwrap()
        );
        let mut rng = drt_sim::rng::stream(seed, "equiv");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        let mut ops = Vec::new();
        for i in 0..n_ops {
            use rand::Rng;
            let (src, dst) = pattern.sample_pair(10, &mut rng);
            // Route via shortest path; backup via exclusion (may fail on
            // sparse graphs — skip those pairs).
            let Some(primary) = drt_net::algo::shortest_path_hops(&net, src, dst) else {
                continue;
            };
            let backup = drt_net::algo::shortest_path(&net, src, dst, |l| {
                if primary.contains_link(l) { None } else { Some(1.0) }
            }).map(|(_, r)| r);
            let release = rng.gen_bool(0.3);
            ops.push((i as u64, primary, backup, release));
        }
        assert_equivalent(&net, &ops);
    }
}

#[test]
fn failure_switchover_matches_manager_semantics() {
    // One protected connection; fail a primary link; both models end with
    // the backup promoted and all spare gone.
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let primary = r(&[0, 1, 2]);
    let backup = r(&[0, 3, 4, 5, 2]);
    let conn = ConnectionId::new(0);

    // Distributed.
    let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
    sim.establish(conn, BW, primary.clone(), Some(backup.clone()));
    sim.run_to_quiescence();
    let failed_link = primary.links()[1];
    sim.fail_link(failed_link);
    sim.run_to_quiescence();
    assert_eq!(sim.outcome(conn), Some(ConnOutcome::Switched));

    // Centralized.
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let req = RouteRequest::new(conn, primary.source(), primary.dest(), BW);
    mgr.admit_routes(
        &req,
        RoutePair {
            primary: primary.clone(),
            backup: Some(backup.clone()),
            dedicated_backup: false,
            overhead: RoutingOverhead::ZERO,
        },
    )
    .unwrap();
    let mut rng = drt_sim::rng::stream(1, "switch");
    let report = mgr.inject_failure(failed_link, &mut rng).unwrap();
    assert_eq!(report.switched, vec![conn]);

    // Same end state on every link except the failed one's ledger
    // bookkeeping (the centralized model releases the failed link's
    // reservation immediately; the distributed detector does too via the
    // release walk) — so simply compare all links.
    for link in net.links() {
        let l = link.id();
        assert_eq!(
            mgr.link_resources(l).prime(),
            sim.link_resources(l).prime(),
            "prime mismatch on {l}"
        );
        assert_eq!(
            mgr.link_resources(l).spare(),
            sim.link_resources(l).spare(),
            "spare mismatch on {l}"
        );
        assert_eq!(mgr.aplv(l), sim.aplv(l), "aplv mismatch on {l}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved establishes, releases and failures *without waiting for
    /// quiescence*: packets race freely. Exact state equality is not
    /// defined mid-flight, but after final quiescence no link may be
    /// over-reserved and every ledger must balance.
    #[test]
    fn racing_commands_preserve_resource_invariants(
        seed in any::<u64>(),
        n_conns in 2usize..10,
        fail_idx in 0u32..16,
    ) {
        let net = Arc::new(
            topology::random_connected(8, 14, Bandwidth::from_mbps(9), seed).unwrap()
        );
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let mut rng = drt_sim::rng::stream(seed, "race");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        // Burst all establishes at t=0 — maximal contention.
        let mut submitted = Vec::new();
        for i in 0..n_conns {
            use rand::Rng;
            let (src, dst) = pattern.sample_pair(8, &mut rng);
            let Some(primary) = drt_net::algo::shortest_path_hops(&net, src, dst) else {
                continue;
            };
            let backup = drt_net::algo::shortest_path(&net, src, dst, |l| {
                if primary.contains_link(l) { None } else { Some(1.0) }
            }).map(|(_, r)| r);
            let conn = ConnectionId::new(i as u64);
            sim.establish(conn, BW, primary, backup);
            submitted.push(conn);
            let _ = rng.gen::<u8>();
        }
        // A failure lands while setups may still be in flight.
        sim.fail_link(drt_net::LinkId::new(fail_idx % net.num_links() as u32));
        sim.run_to_quiescence();
        // Release everything still standing.
        for &conn in &submitted {
            sim.release(conn);
        }
        sim.run_to_quiescence();

        for link in net.links() {
            let lr = sim.link_resources(link.id());
            prop_assert!(
                lr.prime() + lr.spare() <= lr.capacity(),
                "{} over-reserved: {lr}",
                link.id()
            );
        }
        // Released/lost/rejected connections hold nothing: the only prime
        // reservations left belong to connections still Established or
        // Switched (there are none — all released — except those whose
        // release was refused because they were Pending/Lost/Rejected,
        // which hold no end-to-end channel; their partial state must have
        // been torn down by the walks).
        let live: usize = submitted
            .iter()
            .filter(|c| sim.outcome(**c).expect("submitted").is_established())
            .count();
        prop_assert_eq!(live, 0, "all releasable connections were released");
    }
}

#[test]
fn second_failure_downs_a_switched_connection() {
    // Regression: a failure hitting the *promoted* route used to be
    // silently ignored, leaking reservations on the dead path.
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let primary = r(&[0, 1, 2]);
    let backup = r(&[0, 3, 4, 5, 2]);
    let conn = ConnectionId::new(0);
    let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
    sim.establish(conn, BW, primary.clone(), Some(backup.clone()));
    sim.run_to_quiescence();
    sim.fail_link(primary.links()[0]);
    sim.run_to_quiescence();
    assert_eq!(sim.outcome(conn), Some(ConnOutcome::Switched));
    sim.fail_link(backup.links()[2]);
    sim.run_to_quiescence();
    assert_eq!(sim.outcome(conn), Some(ConnOutcome::Lost));
    // Every reservation on the dead promoted route was released.
    for link in net.links() {
        let lr = sim.link_resources(link.id());
        assert_eq!(lr.prime(), Bandwidth::ZERO, "{} leaked", link.id());
        assert_eq!(lr.spare(), Bandwidth::ZERO, "{} leaked spare", link.id());
    }
}

#[test]
fn racing_setups_never_over_reserve() {
    // Two setups contending for the last bandwidth are issued
    // *simultaneously* (no quiescence in between): at most one wins and
    // no link is ever over-reserved.
    let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(3_000)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
    // Same direct link 0->1 from both sides of the walk order.
    sim.establish(ConnectionId::new(0), BW, r(&[0, 1]), None);
    sim.establish(ConnectionId::new(1), BW, r(&[3, 0, 1]), None);
    sim.run_to_quiescence();
    let ok0 = sim.outcome(ConnectionId::new(0)).unwrap().is_established();
    let ok1 = sim.outcome(ConnectionId::new(1)).unwrap().is_established();
    assert!(
        ok0 ^ ok1,
        "exactly one of the contenders must win: {ok0} {ok1}"
    );
    for link in net.links() {
        let lr = sim.link_resources(link.id());
        assert!(lr.prime() + lr.spare() <= lr.capacity());
    }
}

/// Drives `ops` through a *chaotic* protocol sim (drop/dup/jitter) with a
/// generous retry budget, then mirrors whatever survived into a lossless
/// centralized manager. Chaos may legitimately reject or
/// degrade a connection (retries are bounded), but the quiescent ledger
/// of the survivors must be bit-identical to a clean admission of exactly
/// those routes: retransmission, duplication and reordering must never
/// leave partial reservations behind.
fn assert_chaotic_equivalent(
    net: &Arc<Network>,
    ops: &[(u64, Route, Option<Route>)],
    chaos: drt_proto::ChaosConfig,
) {
    let retry = drt_proto::RetryConfig {
        max_attempts: 16,
        ..drt_proto::RetryConfig::default()
    };
    let mut sim = ProtocolSim::with_chaos(Arc::clone(net), ProtocolConfig::default(), retry, chaos);
    for (id, primary, backup) in ops {
        sim.establish(ConnectionId::new(*id), BW, primary.clone(), backup.clone());
        sim.run_to_quiescence();
    }

    let mut mgr = DrtpManager::new(Arc::clone(net));
    for (id, primary, _) in ops {
        let conn = ConnectionId::new(*id);
        let outcome = sim.outcome(conn).expect("submitted");
        assert_ne!(outcome, ConnOutcome::Pending, "{conn} wedged");
        if !outcome.is_established() {
            continue;
        }
        let req = RouteRequest::new(conn, primary.source(), primary.dest(), BW);
        let pair = RoutePair {
            primary: primary.clone(),
            // A degraded connection's backup registration did not
            // survive; mirror exactly what did.
            backup: sim.registered_backups(conn).pop(),
            dedicated_backup: false,
            overhead: RoutingOverhead::ZERO,
        };
        mgr.admit_routes(&req, pair)
            .expect("the chaotic sim admitted this; the mirror must too");
    }

    for link in net.links() {
        let l = link.id();
        assert_eq!(
            mgr.link_resources(l).prime(),
            sim.link_resources(l).prime(),
            "prime mismatch on {l}"
        );
        assert_eq!(
            mgr.link_resources(l).spare(),
            sim.link_resources(l).spare(),
            "spare mismatch on {l}"
        );
        assert_eq!(mgr.aplv(l), sim.aplv(l), "aplv mismatch on {l}");
    }
    mgr.assert_invariants();
}

#[test]
fn chaotic_establishes_converge_to_the_lossless_ledger() {
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
    let r = |nodes: &[u32]| {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(&net, &ids).unwrap()
    };
    let ops = vec![
        (0, r(&[0, 1, 2]), Some(r(&[0, 3, 4, 5, 2]))),
        (1, r(&[6, 7, 8]), Some(r(&[6, 3, 4, 5, 8]))),
        (2, r(&[1, 2]), Some(r(&[1, 4, 5, 2]))),
        // Two connections on one primary, backed up either side of it.
        (3, r(&[3, 4, 5]), Some(r(&[3, 0, 1, 2, 5]))),
        (4, r(&[3, 4, 5]), Some(r(&[3, 6, 7, 8, 5]))),
    ];
    let chaos = drt_proto::ChaosConfig {
        dup_prob: 0.03,
        max_jitter: drt_sim::SimDuration::from_micros(150),
        ..drt_proto::ChaosConfig::lossy(0.10, 42)
    };
    assert_chaotic_equivalent(&net, &ops, chaos);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random routes over random graphs through a randomly-seeded chaotic
    /// plane: the surviving ledger still matches a lossless admission.
    #[test]
    fn chaotic_random_sequences_match(seed in any::<u64>(), drop_pm in 0u32..150) {
        let net = Arc::new(
            topology::random_connected(10, 16, Bandwidth::from_mbps(15), seed).unwrap()
        );
        let mut rng = drt_sim::rng::stream(seed, "chaotic-equiv");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        let mut ops = Vec::new();
        for i in 0..8u64 {
            let (src, dst) = pattern.sample_pair(10, &mut rng);
            let Some(primary) = drt_net::algo::shortest_path_hops(&net, src, dst) else {
                continue;
            };
            let backup = drt_net::algo::shortest_path(&net, src, dst, |l| {
                if primary.contains_link(l) { None } else { Some(1.0) }
            }).map(|(_, r)| r);
            ops.push((i, primary, backup));
        }
        let chaos = drt_proto::ChaosConfig {
            dup_prob: 0.02,
            max_jitter: drt_sim::SimDuration::from_micros(200),
            ..drt_proto::ChaosConfig::lossy(f64::from(drop_pm) / 1000.0, seed ^ 0x5eed)
        };
        assert_chaotic_equivalent(&net, &ops, chaos);
    }
}
