//! Full recovery-cycle integration test: correlated failure events
//! landing on an orchestrator that already has retries in flight.
//!
//! The unit tests in `orchestrator.rs` pin individual mechanisms (backoff
//! arithmetic, flap damping, orphan bookkeeping). This test drives the
//! whole cycle the multi-failure experiments rely on — establish a
//! population, fail a link, re-protect, then land a correlated burst and
//! a router crash while the retry queue is non-empty — and checks the
//! global accounting that no single mechanism can guarantee alone.

use drt_core::failure::FailureEvent;
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::routing::{BoundedFlooding, DLsr, RouteRequest, Scripted};
use drt_core::{ConnectionId, DrtpError, DrtpManager};
use drt_net::{topology, Bandwidth, NetworkBuilder, NodeId, Route};
use drt_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);

/// Corner-to-corner pairs on the 4x4 mesh so every primary is multi-hop
/// and distinct pairs stress distinct regions of the topology.
const PAIRS: [(u32, u32); 8] = [
    (0, 15),
    (3, 12),
    (1, 14),
    (2, 13),
    (4, 11),
    (7, 8),
    (5, 10),
    (6, 9),
];

fn establish(mgr: &mut DrtpManager, scheme: &mut DLsr) -> Vec<ConnectionId> {
    PAIRS
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let req = RouteRequest::new(
                ConnectionId::new(i as u64),
                NodeId::new(src),
                NodeId::new(dst),
                BW,
            );
            mgr.request_connection(scheme, req).expect("establish").id
        })
        .collect()
}

#[test]
fn node_crash_during_pending_batch_retries_reaches_closed_quiescence() {
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(10)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let conns = establish(&mut mgr, &mut scheme);
    let mut orch = RecoveryOrchestrator::new(net.num_links(), RetryPolicy::default());
    let mut rng = drt_sim::rng::stream(23, "recovery-cycle");

    // Phase A: a single link failure, recovered to quiescence. This is
    // the baseline the later overlap must not corrupt.
    let first_link = mgr.connection(conns[0]).unwrap().primary().links()[0];
    let report = mgr
        .inject_event(&FailureEvent::Link(first_link), &mut rng)
        .unwrap();
    assert_eq!(report.contention_passes, 1);
    orch.observe_failure(SimTime::ZERO, &report);
    let t1 =
        orch.run_to_quiescence(SimTime::ZERO, &mut mgr, &mut scheme) + SimDuration::from_secs(30);
    assert_eq!(orch.pending(), 0);
    mgr.assert_invariants();
    let baseline_completions = orch.completions().len();

    // Phase B: a correlated burst — two live primaries severed in ONE
    // event, resolved in one contention pass.
    let burst: Vec<FailureEvent> = [conns[1], conns[2]]
        .iter()
        .map(|&c| FailureEvent::Link(*mgr.connection(c).unwrap().primary().links().last().unwrap()))
        .collect();
    let burst = mgr
        .inject_event(&FailureEvent::Batch(burst), &mut rng)
        .unwrap();
    assert_eq!(
        burst.contention_passes, 1,
        "a batch must resolve in a single activation pass"
    );
    orch.observe_failure(t1, &burst);
    assert!(orch.pending() > 0, "burst leaves retries in flight");

    // Phase C: before any retry fires, a router crashes. Pick an interior
    // router of a *pending* connection's current primary so the crash
    // lands on exactly the state the retry queue is about to touch.
    let victim = burst
        .switched
        .iter()
        .chain(burst.unprotected.iter())
        .find_map(|&c| {
            let nodes = mgr.connection(c).unwrap().primary().nodes(&net);
            nodes.get(1).copied().filter(|_| nodes.len() > 2)
        })
        .expect("a pending connection with an interior router");
    let crash = mgr
        .inject_event(&FailureEvent::Node(victim), &mut rng)
        .unwrap();
    assert_eq!(
        crash.contention_passes, 1,
        "crash with several incident primaries still uses one pass"
    );
    orch.observe_failure(t1, &crash);

    let end = orch.run_to_quiescence(t1, &mut mgr, &mut scheme);
    assert!(end >= t1);
    assert_eq!(orch.pending(), 0, "queue drains despite the overlap");
    mgr.assert_invariants();

    // Closed accounting: every connection that lost protection in phases
    // B/C is now re-protected, orphaned, or no longer carrying traffic —
    // nothing falls between the ledgers.
    let enqueued: BTreeSet<ConnectionId> = burst
        .switched
        .iter()
        .chain(burst.unprotected.iter())
        .chain(crash.switched.iter())
        .chain(crash.unprotected.iter())
        .copied()
        .collect();
    for &c in &enqueued {
        let conn = mgr.connection(c).unwrap();
        if !conn.state().is_carrying_traffic() {
            continue; // destroyed by the crash — accounted in `lost`
        }
        let reprotected = conn.backup().is_some();
        let orphaned = orch.orphaned().contains(&c);
        assert!(
            reprotected || orphaned,
            "{c} lost protection but is in neither ledger"
        );
    }
    // And the converse: no surviving connection is silently unprotected.
    for conn in mgr.connections() {
        if conn.state().is_carrying_traffic() && conn.backup().is_none() {
            assert!(
                orch.orphaned().contains(&conn.id()),
                "unprotected survivor {} missing from the orphan ledger",
                conn.id()
            );
        }
    }

    // Re-protection is real protection: no surviving backup crosses a
    // failed link, and recovery latency respects the backoff floor.
    for conn in mgr.connections() {
        if let Some(b) = conn.backup() {
            for &l in b.links() {
                assert!(!mgr.is_failed(l), "{} backup crosses dead {l}", conn.id());
            }
        }
    }
    let policy = RetryPolicy::default();
    for comp in &orch.completions()[baseline_completions..] {
        assert!(
            comp.latency >= policy.backoff(1),
            "{}: latency {:?} below the first-retry floor",
            comp.conn,
            comp.latency
        );
        assert!(comp.attempts >= 1);
    }
}

/// Quarantine expiry end to end: a flap-damped link is re-admitted into
/// new backup routes once its quarantine elapses, and a retry that was
/// pending across the expiry drains to quiescence *through* the
/// re-admitted link.
///
/// Ring of 4, connection 0→1: primary is the direct link, the only
/// backup is the long way round (0→3→2→1). The scripted scheme returns
/// exactly that backup, so while `0→3` is quarantined every retry fails
/// (the selection crosses the avoided link) and the pending entry backs
/// off across the expiry boundary; afterwards the same selection is
/// accepted.
/// Figure 3's lesson applied to DRTP's reconfiguration step: a backup
/// found by `reestablish_backup` is costed against the backups already
/// registered, exactly as at admission, so two connections sharing a
/// primary are never multiplexed onto the same backup links while a
/// conflict-free detour exists.
#[test]
fn reprotection_avoids_conflicts_like_admission() {
    let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(100)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let req = |id| RouteRequest::new(ConnectionId::new(id), NodeId::new(3), NodeId::new(5), BW);
    mgr.request_connection(&mut scheme, req(0)).unwrap();
    mgr.drop_backups(ConnectionId::new(0)).unwrap();
    mgr.request_connection(&mut scheme, req(1)).unwrap();
    mgr.reestablish_backup(&mut scheme, ConnectionId::new(0))
        .unwrap();

    let backup_of = |id| {
        let conn = mgr.connection(ConnectionId::new(id)).unwrap();
        conn.backup().expect("protected").clone()
    };
    let (b0, b1) = (backup_of(0), backup_of(1));
    assert_eq!(b0.overlap(&b1), 0, "re-established {b0} overlaps {b1}");
    for link in net.links() {
        assert!(
            mgr.aplv(link.id()).max_count() <= 1,
            "deterministic conflict on {}",
            link.id()
        );
    }
    mgr.assert_invariants();
}

/// Bounded flooding sizes its flood from the distance `D(src, dst)` over
/// the manager's **own** failed mask — a quarantined (`avoid`) link still
/// shortens `D` although no CDP may cross it, exactly as when the
/// distances came from the maintained hop table, which never saw `avoid`.
///
/// Nodes 0 and 1 are joined by a direct link (quarantined), the two-hop
/// primary 0-2-1, and one detour of `detour` hops. With `D(0,1) = 1` the
/// bound is `hc_limit = 1 + 3 = 4`: a four-hop detour is found, a
/// five-hop one is not. Measuring distances over the widened mask instead
/// (`D = 2`, `hc_limit = 5`) finds the five-hop detour and fails this
/// test. That alternative is arguably what a router would do and is not
/// neutral: on `campaign --regime byzantine-lsa` it moved the defended BF
/// rows from 6 to 2 and 10 to 6 orphans and `P_act-bk` 0.8056 -> 0.8485
/// and 0.7793 -> 0.8380 at strengths 2 / 4. Collapse the two masks on
/// purpose, with those numbers re-measured, or not at all.
#[test]
fn bounded_flooding_measures_distance_through_quarantined_links() {
    let reprotect = |detour: u32| {
        let n = |i| NodeId::new(i);
        let mut b = NetworkBuilder::with_nodes(3 + detour as usize - 1);
        let cap = Bandwidth::from_mbps(10);
        b.add_duplex_link(n(0), n(1), cap).unwrap();
        b.add_duplex_link(n(0), n(2), cap).unwrap();
        b.add_duplex_link(n(2), n(1), cap).unwrap();
        // 0 - 3 - 4 - … - 1, `detour` links long.
        let mut trail = vec![n(0)];
        trail.extend((3..3 + detour - 1).map(n));
        trail.push(n(1));
        for hop in trail.windows(2) {
            b.add_duplex_link(hop[0], hop[1], cap).unwrap();
        }
        let net = Arc::new(b.build());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let primary = Route::from_nodes(&net, &[n(0), n(2), n(1)]).unwrap();
        let req = RouteRequest::new(ConnectionId::new(0), n(0), n(1), BW);
        mgr.request_connection(Scripted::new().push(primary, None), req)
            .unwrap();
        let quarantined = net.find_link(n(0), n(1)).unwrap();
        let out = mgr.reestablish_backup_avoiding(
            &mut BoundedFlooding::new(),
            ConnectionId::new(0),
            &[quarantined],
        );
        mgr.assert_invariants();
        let backup = mgr.connection(ConnectionId::new(0)).unwrap().backup();
        (
            out.map(|_| ()),
            backup.cloned(),
            Route::from_nodes(&net, &trail).unwrap(),
        )
    };

    let (out, backup, detour) = reprotect(4);
    assert_eq!(out, Ok(()));
    assert_eq!(backup, Some(detour));

    let (out, backup, _) = reprotect(5);
    assert_eq!(out, Err(DrtpError::NoBackupRoute(ConnectionId::new(0))));
    assert_eq!(backup, None);
}

#[test]
fn quarantine_expiry_readmits_link_and_drains_pending_retry() {
    let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
    let primary = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
    let long_way = Route::from_nodes(
        &net,
        &[
            NodeId::new(0),
            NodeId::new(3),
            NodeId::new(2),
            NodeId::new(1),
        ],
    )
    .unwrap();
    let flappy = long_way.links()[0]; // 0→3, first hop of the only backup
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = Scripted::new();
    scheme.push(primary.clone(), Some(long_way.clone()));
    let req = RouteRequest::new(ConnectionId::new(0), NodeId::new(0), NodeId::new(1), BW);
    mgr.request_connection(&mut scheme, req).unwrap();

    // Short quarantine, generous retry budget: the backoff sequence
    // 0.1 + 0.2 + 0.4 + 0.8 + 1.6 + 3.2 s crosses the expiry with
    // attempts to spare.
    let policy = RetryPolicy {
        max_attempts: 10,
        flap_threshold: 3,
        quarantine: SimDuration::from_secs(3),
        ..RetryPolicy::default()
    };
    let mut orch = RecoveryOrchestrator::new(net.num_links(), policy);
    let mut rng = drt_sim::rng::stream(31, "quarantine-expiry");

    // Flap the backup's first link three times: the first failure drops
    // the backup (enqueueing a re-protection), the third trips damping.
    let mut now = SimTime::ZERO;
    let mut quarantined_from = now;
    for _ in 0..3 {
        let report = mgr
            .inject_event(&FailureEvent::Link(flappy), &mut rng)
            .unwrap();
        orch.observe_failure(now, &report);
        mgr.repair_link(flappy).unwrap();
        orch.observe_repair(now, flappy);
        quarantined_from = now;
        now += SimDuration::from_secs(1);
    }
    assert!(orch.is_quarantined(flappy, now), "damping engaged");
    assert_eq!(orch.pending(), 1, "re-protection is pending");

    // Every retry during the quarantine must fail: the scripted backup
    // crosses the avoided link. Afterwards the same selection succeeds.
    for _ in 0..8 {
        scheme.push(primary.clone(), Some(long_way.clone()));
    }
    let end = orch.run_to_quiescence(now, &mut mgr, &mut scheme);

    let expiry = quarantined_from + policy.quarantine;
    assert!(
        end >= expiry,
        "queue must stay pending across the expiry ({end:?} < {expiry:?})"
    );
    assert!(!orch.is_quarantined(flappy, end), "quarantine lifted");
    assert_eq!(orch.pending(), 0, "pending retry drained to quiescence");
    assert!(orch.orphaned().is_empty(), "re-admission beat orphaning");

    let comps = orch.completions();
    assert_eq!(comps.len(), 1);
    assert!(
        comps[0].attempts > 1,
        "at least one attempt must have failed inside the quarantine"
    );
    let backup = mgr
        .connection(ConnectionId::new(0))
        .unwrap()
        .backup()
        .expect("re-protected")
        .clone();
    assert!(
        backup.contains_link(flappy),
        "the re-admitted link carries the new backup"
    );
    assert!(orch.telemetry().counter("recovery.retries") >= 1);
    assert_eq!(orch.telemetry().counter("recovery.reprotected"), 1);
    mgr.assert_invariants();
}

/// Regression: a failure landing in the very tick a quarantine expires
/// must re-quarantine the link. `is_quarantined(now)` is already false
/// at `now == until`, and with quarantine longer than the flap window
/// the strike history has aged out — so the old code let a link that
/// failed at the exact moment of re-admission walk straight back into
/// new backup routes with a clean slate, needing a full fresh threshold
/// of strikes before damping re-engaged.
#[test]
fn flap_at_quarantine_expiry_requarantines_the_link() {
    let policy = RetryPolicy {
        flap_threshold: 3,
        flap_window: SimDuration::from_secs(60),
        quarantine: SimDuration::from_secs(300),
        ..RetryPolicy::default()
    };
    let mut orch = RecoveryOrchestrator::new(4, policy);
    let l = drt_net::LinkId::new(1);

    // Three strikes engage damping.
    let mut now = SimTime::ZERO;
    let mut quarantined_from = now;
    for _ in 0..3 {
        orch.observe_churn(now, l);
        quarantined_from = now;
        now += SimDuration::from_secs(1);
    }
    let expiry = quarantined_from + policy.quarantine;
    assert!(orch.is_quarantined(l, now));
    assert!(
        !orch.is_quarantined(l, expiry),
        "the expiry tick itself is outside the quarantine"
    );

    // The link fails again in the expiry tick — long after the 60 s flap
    // window, so its strike history is empty. Damping must re-engage
    // immediately, not wait for three fresh strikes.
    orch.observe_churn(expiry, l);
    assert!(
        orch.is_quarantined(l, expiry + SimDuration::from_secs(1)),
        "a flap in the expiry tick must re-quarantine the link"
    );
    assert!(orch.is_quarantined(l, expiry + SimDuration::from_secs(299)));
    assert!(!orch.is_quarantined(l, expiry + policy.quarantine));
    assert_eq!(orch.telemetry().counter("quarantine.links_entered"), 1);
    assert_eq!(
        orch.telemetry().counter("quarantine.links_requarantined"),
        1
    );

    // A failure *after* a clean expiry tick is an ordinary first strike:
    // re-quarantine is an expiry-edge rule, not a permanent stigma.
    let later = expiry + policy.quarantine + SimDuration::from_secs(7);
    orch.observe_churn(later, l);
    assert!(!orch.is_quarantined(l, later + SimDuration::from_secs(1)));
    assert_eq!(
        orch.telemetry().counter("quarantine.links_requarantined"),
        1
    );
}

#[test]
fn crash_of_a_connection_endpoint_drops_it_without_enqueueing() {
    let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(10)).unwrap());
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let mut scheme = DLsr::new();
    let conns = establish(&mut mgr, &mut scheme);
    let mut orch = RecoveryOrchestrator::new(net.num_links(), RetryPolicy::default());
    let mut rng = drt_sim::rng::stream(29, "recovery-cycle-endpoint");

    // Crash node 15 — the *destination* of connection 0. That connection
    // cannot be re-protected (its endpoint is gone); it must land in
    // `lost`, never in the retry queue.
    let crash = mgr
        .inject_event(&FailureEvent::Node(NodeId::new(15)), &mut rng)
        .unwrap();
    assert!(
        crash.lost.contains(&conns[0]),
        "endpoint crash must tear the connection down, got {crash:?}"
    );
    orch.observe_failure(SimTime::ZERO, &crash);
    orch.run_to_quiescence(SimTime::ZERO, &mut mgr, &mut scheme);

    assert_eq!(orch.pending(), 0);
    assert!(
        !mgr.connection(conns[0])
            .unwrap()
            .state()
            .is_carrying_traffic(),
        "torn-down connection must not keep carrying traffic"
    );
    assert!(
        !orch.orphaned().contains(&conns[0]),
        "a dead connection is lost, not orphaned"
    );
    mgr.assert_invariants();
}
