//! Property-based tests of the DRTP state machine: establish/release/fail
//! sequences under every scheme must preserve all bookkeeping invariants.

use drt_core::failure::FailureEvent;
use drt_core::multiplex::{ActivationPool, FailureModel, MultiplexConfig, SparePolicy};
use drt_core::routing::{BoundedFlooding, DLsr, PLsr, RouteRequest, RoutingScheme, SpfBackup};
use drt_core::{Aplv, ConnectionId, DrtpManager};
use drt_net::algo::bfs_hops_filtered;
use drt_net::{topology, Bandwidth, LinkId, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

fn scheme_by_index(i: usize) -> Box<dyn RoutingScheme> {
    match i % 4 {
        0 => Box::new(DLsr::new()),
        1 => Box::new(PLsr::new()),
        2 => Box::new(BoundedFlooding::new()),
        _ => Box::new(SpfBackup::new()),
    }
}

/// An operation in a random protocol trace.
#[derive(Debug, Clone)]
enum Op {
    /// `reuse_id` asks for the id of a released connection instead of a
    /// fresh one (only the traces that recycle ids read it).
    Establish {
        src: u32,
        dst: u32,
        mbps: u64,
        reuse_id: bool,
    },
    Release {
        victim: usize,
    },
    Fail {
        link: u32,
    },
    Crash {
        node: u32,
    },
    Batch {
        a: u32,
        b: u32,
    },
    Repair {
        link: u32,
    },
    Reestablish {
        victim: usize,
    },
}

fn arb_op(nodes: u32, links: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..nodes, 0..nodes, 1u64..=3, any::<bool>())
            .prop_map(|(src, dst, mbps, reuse_id)| Op::Establish { src, dst, mbps, reuse_id }),
        2 => (0usize..64).prop_map(|victim| Op::Release { victim }),
        1 => (0..links).prop_map(|link| Op::Fail { link }),
        1 => (0..nodes).prop_map(|node| Op::Crash { node }),
        1 => (0..links, 0..links).prop_map(|(a, b)| Op::Batch { a, b }),
        1 => (0..links).prop_map(|link| Op::Repair { link }),
        1 => (0usize..64).prop_map(|victim| Op::Reestablish { victim }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random traces over a random connected network with every scheme:
    /// after every operation the manager's invariants hold, and after
    /// releasing everything all resources return to zero.
    #[test]
    fn protocol_trace_preserves_invariants(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        ops in prop::collection::vec(arb_op(12, 34), 1..60),
    ) {
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(12), seed).unwrap()
        );
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = scheme_by_index(scheme_idx);
        let mut rng = drt_sim::rng::stream(seed, "trace");
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();

        for op in ops {
            match op {
                Op::Establish { src, dst, mbps, .. } => {
                    if src == dst { continue; }
                    let req = RouteRequest::new(
                        ConnectionId::new(next_id), NodeId::new(src), NodeId::new(dst),
                        Bandwidth::from_mbps(mbps),
                    );
                    if mgr.request_connection(scheme.as_mut(), req).is_ok() {
                        live.push(ConnectionId::new(next_id));
                    }
                    next_id += 1;
                }
                Op::Release { victim } => {
                    if live.is_empty() { continue; }
                    let id = live.remove(victim % live.len());
                    mgr.release(id).unwrap();
                }
                Op::Fail { link } => {
                    let l = LinkId::new(link % net.num_links() as u32);
                    let _ = mgr.inject_failure(l, &mut rng);
                }
                Op::Crash { node } => {
                    let n = NodeId::new(node % net.num_nodes() as u32);
                    let _ = mgr.inject_event(&FailureEvent::Node(n), &mut rng);
                }
                Op::Batch { a, b } => {
                    let ev = FailureEvent::Batch(vec![
                        FailureEvent::Link(LinkId::new(a % net.num_links() as u32)),
                        FailureEvent::Link(LinkId::new(b % net.num_links() as u32)),
                    ]);
                    let _ = mgr.inject_event(&ev, &mut rng);
                }
                Op::Repair { link } => {
                    let l = LinkId::new(link % net.num_links() as u32);
                    let _ = mgr.repair_link(l);
                }
                Op::Reestablish { victim } => {
                    if live.is_empty() { continue; }
                    let id = live[victim % live.len()];
                    let _ = mgr.reestablish_backup(scheme.as_mut(), id);
                }
            }
            mgr.assert_invariants();
        }

        // Drain everything: all resources must return to zero.
        for id in live {
            mgr.release(id).unwrap();
        }
        mgr.assert_invariants();
        prop_assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
        prop_assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
    }

    /// The fold's own property: over random register / unregister traces
    /// on a three-word id space with 1 / 2 / 3 Mb/s registrations, after
    /// every step bit `j` says `count(j) > 0` for every `j`, the bit-test
    /// cost term equals the count-derived sum on arbitrary link sets (ids
    /// beyond anything registered included), and the live vector equals
    /// the one rebuilt by re-registering the surviving set — whether its
    /// bits were pre-sized (the manager's) or grew on demand (proto's).
    #[test]
    fn conflict_bits_track_counts(
        presized in any::<bool>(),
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0u32..140, 1..6), 1u64..=3, 0usize..64),
            1..50,
        ),
        probes in prop::collection::vec(prop::collection::vec(0u32..400, 0..8), 1..6),
    ) {
        const N: usize = 140;
        let mut aplv = if presized { Aplv::with_num_links(N) } else { Aplv::new() };
        let mut live: Vec<(Vec<LinkId>, Bandwidth)> = Vec::new();
        for (release, ids, mbps, victim) in ops {
            if release && !live.is_empty() {
                let (lset, bw) = live.remove(victim % live.len());
                aplv.unregister(&lset, bw);
            } else {
                let mut lset: Vec<LinkId> = ids.into_iter().map(LinkId::new).collect();
                lset.sort_unstable();
                lset.dedup();
                let bw = Bandwidth::from_mbps(mbps);
                aplv.register(&lset, bw);
                live.push((lset, bw));
            }

            let cv = aplv.conflict_vector(N);
            for j in (0..N as u32 + 64).map(LinkId::new) {
                let set = aplv.count(j) > 0;
                prop_assert_eq!(cv.get(j), set, "copied bit {}", j);
                prop_assert_eq!(aplv.conflicts_with(&[j]), u32::from(set), "live bit {}", j);
            }
            for probe in &probes {
                let lset: Vec<LinkId> = probe.iter().copied().map(LinkId::new).collect();
                let by_count = lset.iter().filter(|j| aplv.count(**j) > 0).count() as u32;
                prop_assert_eq!(aplv.conflicts_with(&lset), by_count, "{:?}", lset);
            }
            let mut rebuilt = Aplv::new();
            for (lset, bw) in &live {
                rebuilt.register(lset, *bw);
            }
            prop_assert_eq!(&aplv, &rebuilt);
        }
    }

    /// The conflict bits D-LSR routes on never drift from the counts:
    /// after every operation of a random establish/release/fail/repair
    /// trace the invariant audit passes (it rebuilds every APLV, bits
    /// included, from the connection table) and, through the routing
    /// view, `conflict_count(l, [j]) == 1 ⇔ aplv(l).count(j) > 0` for
    /// every pair of links.
    #[test]
    fn conflict_bits_match_counts_along_traces(
        seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(12, 34), 1..40),
    ) {
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(12), seed).unwrap()
        );
        let n = net.num_links();
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = DLsr::new();
        let mut rng = drt_sim::rng::stream(seed, "dense-trace");
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();

        for op in ops {
            match op {
                Op::Establish { src, dst, mbps, .. } => {
                    if src == dst { continue; }
                    let req = RouteRequest::new(
                        ConnectionId::new(next_id), NodeId::new(src), NodeId::new(dst),
                        Bandwidth::from_mbps(mbps),
                    );
                    if mgr.request_connection(&mut scheme, req).is_ok() {
                        live.push(ConnectionId::new(next_id));
                    }
                    next_id += 1;
                }
                Op::Release { victim } => {
                    if live.is_empty() { continue; }
                    let id = live.remove(victim % live.len());
                    mgr.release(id).unwrap();
                }
                Op::Fail { link } => {
                    let _ = mgr.inject_failure(LinkId::new(link % n as u32), &mut rng);
                }
                Op::Repair { link } => {
                    let _ = mgr.repair_link(LinkId::new(link % n as u32));
                }
                Op::Reestablish { victim } => {
                    if live.is_empty() { continue; }
                    let id = live[victim % live.len()];
                    let _ = mgr.reestablish_backup(&mut scheme, id);
                }
                // Other event kinds are covered by the trace property
                // above; this one focuses on the conflict bits.
                _ => continue,
            }

            mgr.assert_invariants();
            let view = mgr.view();
            for l in (0..n as u32).map(LinkId::new) {
                for j in (0..n as u32).map(LinkId::new) {
                    prop_assert_eq!(
                        view.conflict_count(l, &[j]) == 1,
                        view.aplv(l).count(j) > 0,
                        "CV bit ({}, {}) diverged", l, j
                    );
                }
            }
        }
    }

    /// The fault-tolerance probe never mutates state and always yields a
    /// probability in [0, 1].
    #[test]
    fn probe_is_pure_and_bounded(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        mbps in prop::collection::vec(1u64..=3, 1..20),
    ) {
        let net = Arc::new(
            topology::random_connected(15, 24, Bandwidth::from_mbps(30), seed).unwrap()
        );
        let mut mgr = DrtpManager::new(net);
        let mut scheme = scheme_by_index(scheme_idx);
        let mut pair_rng = drt_sim::rng::stream(seed, "pairs");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        for (i, &m) in mbps.iter().enumerate() {
            let (src, dst) = pattern.sample_pair(15, &mut pair_rng);
            let _ = mgr.request_connection(
                scheme.as_mut(),
                RouteRequest::new(ConnectionId::new(i as u64), src, dst, Bandwidth::from_mbps(m)),
            );
        }
        // Full-state digest: any mutation anywhere (a ledger, an APLV, a
        // failure flag, a connection record, the incidence index) changes it.
        let fp_before = mgr.fingerprint();

        let sweep = mgr.sweep_single_failures(seed);
        if let Some(p) = sweep.p_act_bk() {
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(sweep.aggregate.activated <= sweep.aggregate.affected);
        }
        for li in &sweep.per_link {
            prop_assert!(li.activated <= li.affected);
        }
        // Per-unit probes are individually pure too.
        for li in sweep.worst_links(3) {
            let mut probe_rng = drt_sim::rng::stream(seed, "purity-probe");
            let _ = mgr.probe_single_failure(li.link, &mut probe_rng);
            prop_assert_eq!(mgr.fingerprint(), fp_before);
        }
        // Determinism and purity of the whole sweep.
        prop_assert_eq!(mgr.sweep_single_failures(seed), sweep);
        prop_assert_eq!(mgr.fingerprint(), fp_before);
        mgr.assert_invariants();
    }

    /// Dedicated-backup admission is never less fault tolerant than
    /// multiplexed admission on the same workload (it pays ≥ the capacity,
    /// it must get ≥ the protection).
    #[test]
    fn dedicated_is_perfectly_tolerant(
        seed in any::<u64>(),
        mbps in prop::collection::vec(1u64..=3, 1..10),
    ) {
        let net = Arc::new(
            topology::random_connected(12, 22, Bandwidth::from_mbps(30), seed).unwrap()
        );
        let mut mgr = DrtpManager::new(net);
        let mut scheme = drt_core::routing::DedicatedDisjoint::new();
        let mut pair_rng = drt_sim::rng::stream(seed, "pairs");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        let mut any = false;
        for (i, &m) in mbps.iter().enumerate() {
            let (src, dst) = pattern.sample_pair(12, &mut pair_rng);
            any |= mgr
                .request_connection(
                    &mut scheme,
                    RouteRequest::new(ConnectionId::new(i as u64), src, dst, Bandwidth::from_mbps(m)),
                )
                .is_ok();
        }
        mgr.assert_invariants();
        if any {
            let sample = mgr.sweep_single_failures(seed);
            if let Some(p) = sample.p_act_bk() {
                prop_assert_eq!(p, 1.0, "dedicated backups always activate");
            }
        }
    }

    /// The incidence-indexed failure engine is bit-for-bit equivalent to
    /// the full-scan baseline: after every step of a random
    /// establish/release/fail/repair/promote/reestablish trace, the
    /// indexed sweep, the per-unit probes, a correlated-event probe, and
    /// the vulnerability report all equal their `naive_baseline()`
    /// derivations exactly (same RNG consumption, same decisions).
    ///
    /// Released ids come back: an establish may re-request under the id
    /// of a released connection — a `Failed` one included, whose record
    /// held its slot until that release — so table slots are vacated and
    /// refilled throughout, by fresh and by re-used ids alike, and the
    /// slots the index hands the engine are audited after every step.
    #[test]
    fn indexed_failure_engine_matches_naive_baseline(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        duplex in any::<bool>(),
        ops in prop::collection::vec(arb_op(12, 34), 1..35),
    ) {
        let cfg = MultiplexConfig {
            failure_model: if duplex { FailureModel::DuplexPair } else { FailureModel::DirectedLink },
            ..MultiplexConfig::paper()
        };
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(12), seed).unwrap()
        );
        let n = net.num_links();
        let mut mgr = DrtpManager::with_config(Arc::clone(&net), cfg);
        let mut scheme = scheme_by_index(scheme_idx);
        let mut rng = drt_sim::rng::stream(seed, "indexed-trace");
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();
        let mut released: Vec<ConnectionId> = Vec::new();

        for op in ops {
            match op {
                Op::Establish { src, dst, mbps, reuse_id } => {
                    if src == dst { continue; }
                    let recycled = if reuse_id { released.pop() } else { None };
                    let id = recycled.unwrap_or_else(|| {
                        next_id += 1;
                        ConnectionId::new(next_id - 1)
                    });
                    let req = RouteRequest::new(
                        id, NodeId::new(src), NodeId::new(dst), Bandwidth::from_mbps(mbps),
                    );
                    match mgr.request_connection(scheme.as_mut(), req) {
                        Ok(_) => live.push(id),
                        // A refused id was never admitted: it stays free.
                        Err(_) => released.push(id),
                    }
                }
                Op::Release { victim } => {
                    if live.is_empty() { continue; }
                    let id = live.remove(victim % live.len());
                    mgr.release(id).unwrap();
                    prop_assert!(mgr.connection(id).is_none());
                    released.push(id);
                }
                Op::Fail { link } => {
                    let _ = mgr.inject_failure(LinkId::new(link % n as u32), &mut rng);
                }
                Op::Crash { node } => {
                    let ev = FailureEvent::Node(NodeId::new(node % net.num_nodes() as u32));
                    let _ = mgr.inject_event(&ev, &mut rng);
                }
                Op::Batch { a, b } => {
                    let ev = FailureEvent::Batch(vec![
                        FailureEvent::Link(LinkId::new(a % n as u32)),
                        FailureEvent::Link(LinkId::new(b % n as u32)),
                    ]);
                    let _ = mgr.inject_event(&ev, &mut rng);
                }
                Op::Repair { link } => {
                    let _ = mgr.repair_link(LinkId::new(link % n as u32));
                }
                Op::Reestablish { victim } => {
                    if live.is_empty() { continue; }
                    let id = live[victim % live.len()];
                    let _ = mgr.reestablish_backup(scheme.as_mut(), id);
                }
            }
            // assert_invariants rebuilds the incidence index from the
            // connection table and panics on the first divergence.
            mgr.assert_invariants();

            // The whole sweep — every loaded unit probed under the same
            // per-unit RNG streams — must agree decision for decision.
            let naive = mgr.naive_baseline();
            prop_assert_eq!(
                mgr.sweep_single_failures(seed),
                naive.sweep_single_failures(seed)
            );
        }

        // Closing cross-checks on the final state: per-unit probes, a
        // correlated-event probe, and the vulnerability report.
        let naive = mgr.naive_baseline();
        for link in mgr.failure_units() {
            let mut a = drt_sim::rng::stream(seed, "probe-eq");
            let mut b = drt_sim::rng::stream(seed, "probe-eq");
            prop_assert_eq!(
                mgr.probe_single_failure(link, &mut a),
                naive.probe_single_failure(link, &mut b)
            );
        }
        let event = FailureEvent::Node(NodeId::new(0));
        let mut a = drt_sim::rng::stream(seed, "event-eq");
        let mut b = drt_sim::rng::stream(seed, "event-eq");
        prop_assert_eq!(mgr.probe_event(&event, &mut a), naive.probe_event(&event, &mut b));

        let indexed = drt_core::analysis::vulnerability(&mgr, seed);
        let scanned = drt_core::analysis::vulnerability_naive(&mgr, seed);
        prop_assert_eq!(indexed.trials(), scanned.trials());
        prop_assert_eq!(
            indexed.vulnerable().collect::<Vec<_>>(),
            scanned.vulnerable().collect::<Vec<_>>()
        );
    }

    /// After every operation of a random trace, under every scheme and
    /// both failure models, the manager's invariants hold and the
    /// distances bounded flooding measures for itself
    /// ([`drt_core::ManagerView::hops_to`], a backward search per
    /// destination) are what a forward search from every source finds
    /// over the alive links — the rows of the all-pairs reference table.
    /// `DirectedLink` failures take one direction of a pair down, so the
    /// two searches only agree if each follows link direction. Requests
    /// draw 1, 2 or 3 Mb/s, so a link's spare requirement is a maximum
    /// over unequal bandwidths — every release that lowers it is audited
    /// against the registering-only rebuild — and the ledger rules (spare
    /// within the APLV requirement, `prime + spare + free == capacity`)
    /// are checked under mixed demands.
    #[test]
    fn mixed_demand_traces_keep_invariants_and_hop_parity(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        duplex in any::<bool>(),
        ops in prop::collection::vec(arb_op(12, 34), 1..30),
    ) {
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(12), seed).unwrap()
        );
        let n = net.num_links();
        let cfg = MultiplexConfig {
            failure_model: if duplex { FailureModel::DuplexPair } else { FailureModel::DirectedLink },
            ..MultiplexConfig::paper()
        };
        let mut mgr = DrtpManager::with_config(Arc::clone(&net), cfg);
        let mut scheme = scheme_by_index(scheme_idx);
        let mut rng = drt_sim::rng::stream(seed, "maint-trace");
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();

        for op in ops {
            match op {
                Op::Establish { src, dst, mbps, .. } => {
                    if src == dst { continue; }
                    let req = RouteRequest::new(
                        ConnectionId::new(next_id),
                        NodeId::new(src),
                        NodeId::new(dst),
                        Bandwidth::from_mbps(mbps),
                    );
                    if mgr.request_connection(scheme.as_mut(), req).is_ok() {
                        live.push(ConnectionId::new(next_id));
                    }
                    next_id += 1;
                }
                Op::Release { victim } => {
                    if live.is_empty() { continue; }
                    let id = live.remove(victim % live.len());
                    mgr.release(id).unwrap();
                }
                Op::Fail { link } => {
                    let _ = mgr.inject_failure(LinkId::new(link % n as u32), &mut rng);
                }
                Op::Crash { node } => {
                    let ev = FailureEvent::Node(NodeId::new(node % net.num_nodes() as u32));
                    let _ = mgr.inject_event(&ev, &mut rng);
                }
                Op::Batch { a, b } => {
                    let ev = FailureEvent::Batch(vec![
                        FailureEvent::Link(LinkId::new(a % n as u32)),
                        FailureEvent::Link(LinkId::new(b % n as u32)),
                    ]);
                    let _ = mgr.inject_event(&ev, &mut rng);
                }
                Op::Repair { link } => {
                    let _ = mgr.repair_link(LinkId::new(link % n as u32));
                }
                Op::Reestablish { victim } => {
                    if live.is_empty() { continue; }
                    let id = live[victim % live.len()];
                    let _ = mgr.reestablish_backup(scheme.as_mut(), id);
                }
            }
            // Includes the per-link ledger rules (`free` is what `prime`
            // and `spare` leave of the capacity, so conservation is the
            // capacity rule).
            mgr.assert_invariants();
            let to: Vec<_> = net.nodes().map(|dst| mgr.view().hops_to(dst)).collect();
            for src in net.nodes() {
                let from = bfs_hops_filtered(&net, src, |l| !mgr.is_failed(l));
                for dst in net.nodes() {
                    prop_assert_eq!(
                        to[dst.index()][src.index()], from[dst.index()],
                        "{} -> {}", src, dst
                    );
                }
            }
        }
    }

    /// All four multiplex configurations keep the ledgers consistent, with
    /// requests drawing 1, 2 or 3 Mb/s (so spare requirements are maxima
    /// over unequal bandwidths).
    #[test]
    fn config_matrix_traces(
        seed in any::<u64>(),
        spare_grow in any::<bool>(),
        spare_and_free in any::<bool>(),
        duplex in any::<bool>(),
        mbps in prop::collection::vec(1u64..=3, 12),
    ) {
        let cfg = MultiplexConfig {
            spare: if spare_grow { SparePolicy::GrowToRequirement } else { SparePolicy::NeverGrow },
            activation: if spare_and_free { ActivationPool::SpareAndFree } else { ActivationPool::SpareOnly },
            failure_model: if duplex { FailureModel::DuplexPair } else { FailureModel::DirectedLink },
            require_backup: true,
        };
        let net = Arc::new(
            topology::random_connected(10, 16, Bandwidth::from_mbps(20), seed).unwrap()
        );
        let mut mgr = DrtpManager::with_config(net, cfg);
        let mut scheme = DLsr::new();
        let mut rng = drt_sim::rng::stream(seed, "cfgtrace");
        let mut pair_rng = drt_sim::rng::stream(seed, "pairs");
        let pattern = drt_sim::workload::TrafficPattern::ut();
        let mut live = Vec::new();
        for (i, &m) in mbps.iter().enumerate() {
            let id = ConnectionId::new(i as u64);
            let (src, dst) = pattern.sample_pair(10, &mut pair_rng);
            let req = RouteRequest::new(id, src, dst, Bandwidth::from_mbps(m));
            if mgr.request_connection(&mut scheme, req).is_ok() {
                live.push(id);
            }
            mgr.assert_invariants();
        }
        let _ = mgr.inject_failure(LinkId::new(0), &mut rng);
        mgr.assert_invariants();
        for id in live {
            mgr.release(id).unwrap();
            mgr.assert_invariants();
        }
        prop_assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
    }
}
