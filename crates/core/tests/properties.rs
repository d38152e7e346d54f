//! Property-based tests of the DRTP state machine: establish/release/fail
//! sequences under every scheme must preserve all bookkeeping invariants.

use drt_core::failure::FailureEvent;
use drt_core::routing::flooding::flood;
use drt_core::routing::{
    BoundedFlooding, DLsr, FloodingParams, PLsr, PrimaryOnly, RouteRequest, RoutingScheme,
    SpfBackup,
};
use drt_core::{Aplv, ConflictVector, ConnectionId, DrtpError, DrtpManager, ViewDistortion};
use drt_net::algo::bfs_hops_filtered;
use drt_net::{topology, Bandwidth, LinkId, Network, NodeId, Route, SrlgId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

mod oracle;

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
    /// A physical cut: the link and its reverse fail together.
    Cut {
        link: u32,
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
        1 => (0..links).prop_map(|link| Op::Cut { link }),
        1 => (0..links).prop_map(|link| Op::Repair { link }),
        1 => (0usize..64).prop_map(|victim| Op::Reestablish { victim }),
    ]
}

/// The cut of `link`'s duplex pair: both directions in one event.
fn cut(net: &Network, link: u32) -> FailureEvent {
    let l = LinkId::new(link % net.num_links() as u32);
    let mut pair = vec![FailureEvent::Link(l)];
    pair.extend(net.reverse_link(l).map(FailureEvent::Link));
    FailureEvent::Batch(pair)
}

/// Applies one operation of a random trace to `mgr`, routing under
/// `scheme`: fresh connections take ids from `next_id`, and `live` holds
/// those admitted and not yet released.
fn apply_op(
    mgr: &mut DrtpManager,
    scheme: &mut dyn RoutingScheme,
    rng: &mut rand::rngs::StdRng,
    op: Op,
    next_id: &mut u64,
    live: &mut Vec<ConnectionId>,
) {
    let (nodes, links) = (mgr.net().num_nodes() as u32, mgr.net().num_links() as u32);
    match op {
        Op::Establish { src, dst, mbps, .. } => {
            if src == dst {
                return;
            }
            let req = RouteRequest::new(
                ConnectionId::new(*next_id),
                NodeId::new(src),
                NodeId::new(dst),
                Bandwidth::from_mbps(mbps),
            );
            if mgr.request_connection(scheme, req).is_ok() {
                live.push(ConnectionId::new(*next_id));
            }
            *next_id += 1;
        }
        Op::Release { victim } => {
            if live.is_empty() {
                return;
            }
            let id = live.remove(victim % live.len());
            mgr.release(id).unwrap();
        }
        Op::Fail { link } => {
            let _ = mgr.inject_failure(LinkId::new(link % links), rng);
        }
        Op::Crash { node } => {
            let _ = mgr.inject_event(&FailureEvent::Node(NodeId::new(node % nodes)), rng);
        }
        Op::Batch { a, b } => {
            let ev = FailureEvent::Batch(vec![
                FailureEvent::Link(LinkId::new(a % links)),
                FailureEvent::Link(LinkId::new(b % links)),
            ]);
            let _ = mgr.inject_event(&ev, rng);
        }
        Op::Cut { link } => {
            let ev = cut(mgr.net(), link);
            let _ = mgr.inject_event(&ev, rng);
        }
        Op::Repair { link } => {
            let _ = mgr.repair_link(LinkId::new(link % links));
        }
        Op::Reestablish { victim } => {
            if live.is_empty() {
                return;
            }
            let id = live[victim % live.len()];
            let _ = mgr.reestablish_backup(scheme, id);
        }
    }
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
            apply_op(&mut mgr, scheme.as_mut(), &mut rng, op, &mut next_id, &mut live);
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

    /// The transitions an APLV reports are enough to keep a bit vector:
    /// over random register / unregister traces on a three-word id space
    /// with 1 / 2 / 3 Mb/s registrations, a vector that sets bit `j` where
    /// `register_with` reports `j` opened and clears it where
    /// `unregister_with` reports it closed — what the manager does to its
    /// columns — says `count(j) > 0` for every `j` after every step,
    /// equals the advertised `conflict_vector`, gives the count-derived
    /// cost term on arbitrary link sets (ids beyond the vector included),
    /// and the live APLV equals the one rebuilt by re-registering the
    /// surviving set.
    #[test]
    fn conflict_bits_track_counts(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(0u32..140, 1..6), 1u64..=3, 0usize..64),
            1..50,
        ),
        probes in prop::collection::vec(prop::collection::vec(0u32..400, 0..8), 1..6),
    ) {
        const N: usize = 140;
        let mut aplv = Aplv::new();
        let mut bits = ConflictVector::zeros(N);
        let mut live: Vec<(Vec<LinkId>, Bandwidth)> = Vec::new();
        for (release, ids, mbps, victim) in ops {
            if release && !live.is_empty() {
                let (lset, bw) = live.remove(victim % live.len());
                aplv.unregister_with(&lset, bw, |j| bits.clear(j));
            } else {
                let mut lset: Vec<LinkId> = ids.into_iter().map(LinkId::new).collect();
                lset.sort_unstable();
                lset.dedup();
                let bw = Bandwidth::from_mbps(mbps);
                aplv.register_with(&lset, bw, |j| bits.set(j));
                live.push((lset, bw));
            }

            prop_assert_eq!(&aplv.conflict_vector(N), &bits);
            for j in (0..N as u32 + 64).map(LinkId::new) {
                prop_assert_eq!(bits.get(j), j.index() < N && aplv.count(j) > 0, "bit {}", j);
            }
            for probe in &probes {
                let lset: Vec<LinkId> = probe.iter().copied().map(LinkId::new).collect();
                let by_count = lset
                    .iter()
                    .filter(|j| j.index() < N && aplv.count(**j) > 0)
                    .count() as u32;
                prop_assert_eq!(bits.overlap(&lset), by_count, "{:?}", lset);
            }
            let mut rebuilt = Aplv::new();
            for (lset, bw) in &live {
                rebuilt.register(lset, *bw);
            }
            prop_assert_eq!(&aplv, &rebuilt);
        }
    }

    /// The conflict columns D-LSR routes on never drift from the counts:
    /// after every operation of a random establish/release/fail/repair
    /// trace the invariant audit passes (it rebuilds every APLV from the
    /// connection table and compares the columns with their support);
    /// through the routing view the counts against `[j]` read
    /// `counts[l] == 1 ⇔ aplv(l).count(j) > 0` for every pair of links;
    /// and the dense per-request counts of random link sets are
    /// `Σ_j [aplv(l).count(j) > 0]` for every link `l` — on the live view,
    /// on a snapshot's view (whose columns were cloned with it), and,
    /// under a byzantine distortion, 0 exactly on the links it lies about.
    #[test]
    fn conflict_bits_match_counts_along_traces(
        seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(12, 34), 1..40),
        lsets in prop::collection::vec(prop::collection::vec(0u32..34, 0..6), 1..4),
        byzantine in prop::collection::vec(0u32..12, 1..3),
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
            let mut counts = Vec::new();
            for j in (0..n as u32).map(LinkId::new) {
                view.conflict_counts(&[j], &mut counts);
                for l in (0..n as u32).map(LinkId::new) {
                    prop_assert_eq!(
                        counts[l.index()] == 1,
                        view.aplv(l).count(j) > 0,
                        "CV bit ({}, {}) diverged", l, j
                    );
                }
            }

            let snapshot = mgr.snapshot();
            for ids in &lsets {
                let lset: Vec<LinkId> = ids.iter().map(|&j| LinkId::new(j % n as u32)).collect();
                let by_count: Vec<u32> = net
                    .links()
                    .map(|link| {
                        let aplv = mgr.aplv(link.id());
                        lset.iter().filter(|&&j| aplv.count(j) > 0).count() as u32
                    })
                    .collect();
                for v in [mgr.view(), snapshot.view()] {
                    v.conflict_counts(&lset, &mut counts);
                    prop_assert_eq!(&counts, &by_count, "against {:?}", lset);
                }
                let byz: Vec<NodeId> = byzantine.iter().copied().map(NodeId::new).collect();
                let lies = ViewDistortion::for_nodes(net.num_nodes(), &byz);
                mgr.set_view_distortion(Some(lies.clone()));
                mgr.view().conflict_counts(&lset, &mut counts);
                for l in net.links().map(|link| link.id()) {
                    let want = if lies.lies_about(&net, l) { 0 } else { by_count[l.index()] };
                    prop_assert_eq!(counts[l.index()], want, "{} under lies", l);
                }
                mgr.set_view_distortion(None);
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

    /// After every operation of a random trace, under every scheme, the
    /// manager's invariants hold and the distances bounded flooding
    /// measures for itself ([`drt_core::ManagerView::hops_to`], a backward
    /// search per destination) are what a forward search from every
    /// source finds over the alive links — the rows of the all-pairs
    /// reference table. A single failure takes one direction of a pair
    /// down, so the two searches only agree if each follows link
    /// direction; a cut takes both. Requests draw 1, 2 or 3 Mb/s, so a
    /// link's spare requirement is a maximum over unequal bandwidths —
    /// every release that lowers it is audited against the
    /// registering-only rebuild — and the ledger rules (spare within the
    /// APLV requirement, `prime + spare + free == capacity`) are checked
    /// under mixed demands. Releasing every connection at the end leaves
    /// no primary reservation anywhere.
    #[test]
    fn mixed_demand_traces_keep_invariants_and_hop_parity(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        ops in prop::collection::vec(arb_op(12, 34), 1..30),
    ) {
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(12), seed).unwrap()
        );
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = scheme_by_index(scheme_idx);
        let mut rng = drt_sim::rng::stream(seed, "maint-trace");
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();

        for op in ops {
            apply_op(&mut mgr, scheme.as_mut(), &mut rng, op, &mut next_id, &mut live);
            // Includes the per-link ledger rules (`free` is what `prime`
            // and `spare` leave of the capacity, so conservation is the
            // capacity rule).
            mgr.assert_invariants();
            // One pair of buffers for every column: each search starts
            // from the previous one's leftovers.
            let (mut column, mut queue) = (Vec::new(), Vec::new());
            let to: Vec<_> = net
                .nodes()
                .map(|dst| {
                    mgr.view().hops_to(dst, &mut column, &mut queue);
                    column.clone()
                })
                .collect();
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
        for id in live {
            mgr.release(id).unwrap();
            mgr.assert_invariants();
        }
        prop_assert_eq!(mgr.total_prime(), Bandwidth::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The failure engine computes what the paper defines. After every
    /// step of a random establish / release / fail / crash / batch / cut
    /// / repair / re-establish trace, under every scheme, the naive oracle
    /// of `oracle/mod.rs` — written from PAPER.md
    /// §1 over the manager's public reads — agrees with the manager on
    /// the single-failure sweep, decision for decision; on every
    /// `a_{i,j}` and every link's spare need `max_j`; and, on each
    /// admission, on whether a new backup conflicts with a backup
    /// registered before it. The trace closes with a probe of every link,
    /// of a node crash, of each of the network's two SRLGs
    /// and of a batch of a crash and a link, and with the whole
    /// single-failure report under the `"vulnerability"` stream. The
    /// oracle draws each contention order the way `probe_single_failure`
    /// documents it: the affected connections in id order, shuffled once
    /// by the caller's RNG.
    ///
    /// Links carry 6 Mb/s against 1–3 Mb/s demands, so spare pools fall
    /// short of their requirement, activation pools (spare + free) run
    /// dry and the order decides who activates: a contention pass that
    /// took a winner's bandwidth from the wrong links fails here.
    ///
    /// Released ids come back: an establish may re-request under the id
    /// of a released connection — a `Failed` one included, whose record
    /// held its slot until that release — so table slots are vacated and
    /// refilled throughout, by fresh and by re-used ids alike, and the
    /// slots the index hands the engine are audited after every step.
    #[test]
    fn failure_engine_matches_paper_oracle(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        ops in prop::collection::vec(arb_op(12, 34), 1..35),
        srlgs in prop::collection::vec(prop::collection::vec(0u32..34, 1..4), 2),
        crash in 0u32..12,
        cut_link in 0u32..34,
    ) {
        let net = topology::random_connected(12, 17, Bandwidth::from_mbps(6), seed).unwrap();
        let n = net.num_links();
        let groups: Vec<Vec<LinkId>> = srlgs
            .iter()
            .map(|g| g.iter().map(|&l| LinkId::new(l % n as u32)).collect())
            .collect();
        let net = Arc::new(net.with_srlgs(&groups).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
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
                    let before = oracle::registrations(&mgr);
                    match mgr.request_connection(scheme.as_mut(), req) {
                        Ok(report) => {
                            let conflicted = !report.dedicated_backup
                                && report.backups.iter().any(|b| {
                                    oracle::conflicts(&before, report.primary.links(), b.links())
                                });
                            prop_assert_eq!(report.conflicted, conflicted, "admitting {}", id);
                            live.push(id);
                        }
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
                Op::Cut { link } => {
                    let _ = mgr.inject_event(&cut(&net, link), &mut rng);
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

            // The whole sweep — every loaded link probed under the same
            // per-link RNG streams — must agree decision for decision.
            prop_assert_eq!(
                mgr.sweep_single_failures(seed),
                oracle::sweep(&mgr, seed, "failure-probe")
            );

            let table = oracle::aplv_table(&oracle::registrations(&mgr), n);
            for i in net.links().map(|l| l.id()) {
                let aplv = mgr.aplv(i);
                let row = &table[i.index()];
                prop_assert_eq!(aplv.required_spare(), oracle::spare_need(row), "spare need of {}", i);
                for j in net.links().map(|l| l.id()) {
                    let count = row.get(&j).map_or(0, |&(count, _)| count);
                    prop_assert_eq!(aplv.count(j), count, "a({}, {})", i, j);
                }
            }
        }

        // Closing cross-checks on the final state: per-link probes,
        // correlated-event probes, and the report on the vulnerability
        // stream.
        for link in net.links().map(|l| l.id()) {
            let mut a = drt_sim::rng::stream(seed, "probe-eq");
            let mut b = drt_sim::rng::stream(seed, "probe-eq");
            prop_assert_eq!(
                mgr.probe_single_failure(link, &mut a),
                oracle::probe_links(&mgr, vec![link], &mut b)
            );
        }
        let crash = FailureEvent::Node(NodeId::new(crash));
        let events = [
            crash.clone(),
            FailureEvent::Srlg(SrlgId::new(0)),
            FailureEvent::Srlg(SrlgId::new(1)),
            FailureEvent::Batch(vec![crash, FailureEvent::Link(LinkId::new(cut_link % n as u32))]),
        ];
        for event in &events {
            let mut a = drt_sim::rng::stream(seed, "event-eq");
            let mut b = drt_sim::rng::stream(seed, "event-eq");
            prop_assert_eq!(
                mgr.probe_event(event, &mut a),
                oracle::probe_event(&mgr, event, &mut b),
                "{}", event
            );
        }

        prop_assert_eq!(
            drt_core::analysis::vulnerability(&mgr, seed),
            oracle::sweep(&mgr, seed, "vulnerability")
        );
    }
}

/// Bounded flooding against the literal flood of `oracle/flooding.rs` on
/// the manager's current view: the candidate-route table (routes, flags,
/// hops, in arrival order), messages, bytes and `truncated` of
/// [`flood`] at the drawn parameters; and, at the paper's, the pair
/// `select_routes` picks for each probe and the backup `select_backup`
/// picks for the oracle's primary and for up to four live connections.
fn flooding_agrees(
    mgr: &DrtpManager,
    probes: &[(u32, u32, u64)],
    params: FloodingParams,
) -> Result<(), TestCaseError> {
    let view = mgr.view();
    let mut bf = BoundedFlooding::new();
    let paper = FloodingParams::paper();
    for (i, &(src, dst, mbps)) in probes.iter().enumerate() {
        let req = RouteRequest::new(
            ConnectionId::new(1 << 40 | i as u64),
            NodeId::new(src),
            NodeId::new(dst),
            Bandwidth::from_mbps(mbps),
        );
        let got = flood(&view, &req, params);
        let want = oracle::flooding::flood(mgr, &req, params);
        let crt: Vec<oracle::flooding::Entry> = got
            .candidates
            .iter()
            .map(|c| (c.route.clone(), c.primary_flag, c.hops))
            .collect();
        prop_assert_eq!(
            &crt,
            &want.crt,
            "CRT of {:?} under {:?}: {:?} vs {:?}",
            req,
            params,
            crt,
            want.crt
        );
        prop_assert_eq!(
            (got.overhead.messages, got.overhead.bytes, got.truncated),
            (want.messages, want.bytes, want.truncated),
            "cost of {:?} under {:?}",
            req,
            params
        );

        let want = oracle::flooding::flood(mgr, &req, paper);
        let want_primary = oracle::flooding::primary(&want.crt);
        match (bf.select_routes(&view, &req), &want_primary) {
            (Ok(pair), Some(primary)) => {
                prop_assert_eq!(&pair.primary, primary, "primary of {:?}", req);
                let backup = oracle::flooding::backup(&want.crt, primary);
                prop_assert_eq!(&pair.backup, &backup, "backup of {:?}", req);
                prop_assert!(!pair.dedicated_backup);
                prop_assert_eq!(
                    (pair.overhead.messages, pair.overhead.bytes),
                    (want.messages, want.bytes)
                );
                let got = bf.select_backup(&view, &req, primary).ok().map(|b| b.0);
                prop_assert_eq!(got, backup, "select_backup of {:?}", req);
            }
            (Err(e), None) => {
                prop_assert_eq!(e, DrtpError::NoPrimaryRoute(req.src, req.dst));
            }
            (got, want) => {
                prop_assert!(false, "{:?}: scheme {:?}, oracle {:?}", req, got, want);
            }
        }
    }
    for c in mgr.connections().take(4) {
        let primary = c.primary();
        let req = RouteRequest::new(c.id(), primary.source(), primary.dest(), c.qos().bandwidth);
        let want = oracle::flooding::flood(mgr, &req, paper);
        let want = oracle::flooding::backup(&want.crt, primary);
        let got = bf.select_backup(&view, &req, primary);
        match (got, want) {
            (Ok((got, dedicated, _)), Some(want)) => {
                prop_assert_eq!(got, want, "backup for {}", c.id());
                prop_assert!(!dedicated);
            }
            (Err(e), None) => prop_assert_eq!(e, DrtpError::NoBackupRoute(c.id())),
            (got, want) => {
                prop_assert!(
                    false,
                    "backup for {}: scheme {:?}, oracle {:?}",
                    c.id(),
                    got,
                    want
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bounded flooding floods and selects what the paper's §4 defines.
    /// After every step of a random establish / release / fail / crash /
    /// batch / cut / repair / re-establish trace (the operations of
    /// `protocol_trace_preserves_invariants`), under every scheme, the
    /// engine agrees with the literal flood of `oracle/flooding.rs` —
    /// one owned trail per copy, a `VecDeque`, selection over owned
    /// routes — on a few probe requests and live connections
    /// ([`flooding_agrees`]), on the true view and again under a
    /// byzantine distortion of up to two routers.
    ///
    /// Links carry 6 Mb/s against 1–3 Mb/s demands, so the bandwidth test
    /// prunes links and the primary flag clears on links whose free pool
    /// a spare reservation has taken. The flood's own parameters are
    /// drawn too: the detour slack `β` and bound offset `ρ₀`, and the
    /// message and candidate caps either at the paper's values or low
    /// enough to cut floods short.
    #[test]
    fn bounded_flooding_matches_paper_oracle(
        seed in any::<u64>(),
        scheme_idx in 0usize..4,
        ops in prop::collection::vec(arb_op(12, 34), 1..30),
        probes in prop::collection::vec((0u32..12, 0u32..12, 1u64..=3), 1..4),
        byzantine in prop::collection::vec(0u32..12, 1..3),
        beta in 0u32..3,
        rho_offset in 0u32..4,
        message_cap in 0u64..80,
        candidate_cap in 1usize..10,
    ) {
        let net = Arc::new(
            topology::random_connected(12, 17, Bandwidth::from_mbps(6), seed).unwrap()
        );
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = scheme_by_index(scheme_idx);
        let mut rng = drt_sim::rng::stream(seed, "flood-trace");
        // Half the draws keep each cap at the paper's value; the other
        // half set it low enough to bind.
        let paper = FloodingParams::paper();
        let params = FloodingParams {
            beta,
            rho_offset,
            max_messages: if message_cap < 40 { message_cap } else { paper.max_messages },
            max_candidates: if candidate_cap < 5 { candidate_cap } else { paper.max_candidates },
            ..paper
        };
        let byz: Vec<NodeId> = byzantine.iter().copied().map(NodeId::new).collect();
        let lies = ViewDistortion::for_nodes(net.num_nodes(), &byz);
        let mut next_id = 0u64;
        let mut live: Vec<ConnectionId> = Vec::new();

        for op in ops {
            apply_op(&mut mgr, scheme.as_mut(), &mut rng, op, &mut next_id, &mut live);
            flooding_agrees(&mgr, &probes, params)?;
            mgr.set_view_distortion(Some(lies.clone()));
            flooding_agrees(&mgr, &probes, params)?;
            mgr.set_view_distortion(None);
        }
    }
}

/// The primary a scheme picked for a request of `bw` between `ends`
/// (`None` when it found none), against the route oracle of
/// `oracle/routes.rs` on the state before the request: for D-LSR, P-LSR,
/// SPF and primary-only admission the oracle's cheapest primary (fewest
/// hops, then the least tie sum, over the links whose free pool admits
/// `bw`), or, where another route has the same whole key (a collision,
/// counted in `collisions`), that key. Bounded flooding's primary is the
/// flood's own and is checked by `bounded_flooding_matches_paper_oracle`.
fn primary_matches_oracle(
    mgr: &DrtpManager,
    before: &oracle::routes::RouteOracle,
    scheme: &str,
    (ends, bw): ((NodeId, NodeId), Bandwidth),
    primary: Option<&Route>,
    collisions: &mut u64,
) -> Result<(), TestCaseError> {
    if scheme == "BF" {
        return Ok(());
    }
    let best = before.best_primary(mgr.net(), bw, ends);
    let (Some(primary), Some(best)) = (primary, &best) else {
        prop_assert_eq!(
            primary.is_some(),
            best.is_some(),
            "{} primary {:?} against the oracle's {:?}",
            scheme,
            primary.map(ToString::to_string),
            best.as_ref().map(|b| b.route.to_string())
        );
        return Ok(());
    };
    prop_assert_eq!(
        before.primary_route_key(bw, primary),
        Some(best.key),
        "{} primary {} against the oracle's {}",
        scheme,
        primary,
        best.route
    );
    if best.routes == 1 {
        prop_assert_eq!(primary, &best.route, "{} primary", scheme);
    } else {
        *collisions += 1;
    }
    Ok(())
}

/// A backup the manager installed, against the route oracle of
/// `oracle/routes.rs` on the state before the request: for D-LSR, P-LSR
/// and SPF the oracle's cheapest route, or, where another route has the
/// same whole key (a collision, counted in `collisions`), that key; for
/// bounded flooding, a route the oracle finds feasible within the flood's
/// hop bound.
fn backup_matches_oracle(
    mgr: &DrtpManager,
    before: &oracle::routes::RouteOracle,
    scheme: &str,
    primary: &Route,
    backup: &Route,
    bw: Bandwidth,
    collisions: &mut u64,
) -> Result<(), TestCaseError> {
    use oracle::routes::Conflict;
    let ends = (primary.source(), primary.dest());
    let conflict = match scheme {
        "D-LSR" => Conflict::Vector,
        "P-LSR" => Conflict::Norm,
        "SPF" => Conflict::Blind,
        _ => {
            let paper = FloodingParams::paper();
            let d = bfs_hops_filtered(mgr.net(), ends.0, |l| !before.fails(l))[ends.1.index()];
            let d = d.expect("a flood found a route");
            let hc_limit = (paper.rho * f64::from(d)).ceil() as usize + paper.rho_offset as usize;
            prop_assert!(
                backup.len() <= hc_limit,
                "{} hops over a bound of {}",
                backup.len(),
                hc_limit
            );
            prop_assert!(
                backup.links().iter().all(|&l| before.fits(l, bw)),
                "{}",
                backup
            );
            return Ok(());
        }
    };
    let best = before
        .best(mgr.net(), conflict, primary, bw, ends)
        .expect("the oracle reaches what the scheme reached");
    let got = before.route_key(conflict, primary, bw, backup);
    prop_assert_eq!(
        got,
        Some(best.key),
        "{} backup {} against the oracle's {}",
        scheme,
        backup,
        best.route
    );
    if best.routes == 1 {
        prop_assert_eq!(backup, &best.route, "{} with primary {}", scheme, primary);
    } else {
        *collisions += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The link-state schemes choose the primary and the backup PAPER.md
    /// §3 defines. Over the random establish / release / fail / crash /
    /// batch / cut / repair / re-establish traces of
    /// `protocol_trace_preserves_invariants`, every request's primary (or
    /// its refusal for want of one) is the one [`primary_matches_oracle`]
    /// expects, and every backup installed at admission and at
    /// re-protection the one [`backup_matches_oracle`] expects, under
    /// every scheme and primary-only admission; and so is the backup the
    /// re-protection search (`select_backup`) picks for every live
    /// connection after every step.
    ///
    /// Links carry 6 or 12 Mb/s against 1–3 Mb/s demands, so free pools
    /// and backup headroom run short, primaries detour and `Q` prices
    /// links off the primary too.
    #[test]
    fn lsr_routes_match_route_oracle(
        seed in any::<u64>(),
        scheme_idx in 0usize..5,
        ops in prop::collection::vec(arb_op(12, 34), 1..60),
        cap in 0usize..2,
    ) {
        let cap = Bandwidth::from_mbps([6, 12][cap]);
        let net = Arc::new(topology::random_connected(12, 17, cap, seed).unwrap());
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = match scheme_idx {
            4 => Box::new(PrimaryOnly::new()),
            i => scheme_by_index(i),
        };
        let name = scheme.name();
        let mut rng = drt_sim::rng::stream(seed, "route-trace");
        let (mut next_id, mut live, mut collisions) = (0u64, Vec::new(), 0u64);
        // The state every search of a step reads: taken before the step,
        // and again after it for the live connections.
        let mut before = oracle::routes::RouteOracle::new(&mgr);

        for op in ops {
            match op {
                Op::Establish { src, dst, mbps, .. } if src != dst => {
                    let id = ConnectionId::new(next_id);
                    next_id += 1;
                    let bw = Bandwidth::from_mbps(mbps);
                    let ends = (NodeId::new(src), NodeId::new(dst));
                    let req = RouteRequest::new(id, ends.0, ends.1, bw);
                    let outcome = mgr.request_connection(scheme.as_mut(), req);
                    let primary = match &outcome {
                        Ok(report) => Some(Some(&report.primary)),
                        Err(DrtpError::NoPrimaryRoute(..)) => Some(None),
                        Err(_) => None,
                    };
                    if let Some(primary) = primary {
                        primary_matches_oracle(&mgr, &before, name, (ends, bw), primary, &mut collisions)?;
                    }
                    if let Ok(report) = outcome {
                        live.push(id);
                        // Bounded flooding admits a connection unprotected
                        // when its flood finds no second route.
                        if let Some(backup) = report.backup() {
                            backup_matches_oracle(&mgr, &before, name, &report.primary, backup, bw, &mut collisions)?;
                        }
                    }
                }
                Op::Reestablish { victim } if !live.is_empty() => {
                    let id = live[victim % live.len()];
                    if mgr.reestablish_backup(scheme.as_mut(), id).is_ok() {
                        let conn = mgr.connection(id).expect("live");
                        let backup = conn.backup().expect("re-protected");
                        let bw = conn.qos().bandwidth;
                        backup_matches_oracle(&mgr, &before, name, conn.primary(), backup, bw, &mut collisions)?;
                    }
                }
                op => apply_op(&mut mgr, scheme.as_mut(), &mut rng, op, &mut next_id, &mut live),
            }
            // The re-protection search itself, for every live connection,
            // on the state the step left.
            before = oracle::routes::RouteOracle::new(&mgr);
            for &id in &live {
                let conn = mgr.connection(id).expect("live");
                let (primary, bw) = (conn.primary(), conn.qos().bandwidth);
                let req = RouteRequest::new(id, primary.source(), primary.dest(), bw);
                if let Ok((backup, _, _)) = scheme.select_backup(&mgr.view(), &req, primary) {
                    backup_matches_oracle(&mgr, &before, name, primary, &backup, bw, &mut collisions)?;
                }
            }
        }
        // 24-bit tie weights make a whole-key collision rare, not
        // impossible; each is checked by its key and counted here.
        prop_assert!(collisions <= 1, "{} full-key collisions in one trace", collisions);
    }
}

/// Which id a hostile call names: one of the network's (or a live
/// connection), one past its end, a failed link (a `Failed` connection,
/// a node on a failed link), or a link once failed and repaired (a
/// released connection).
#[derive(Debug, Clone, Copy)]
enum Hostile {
    InRange,
    OutOfRange,
    Failed,
    Released,
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    let kinds = [
        Hostile::InRange,
        Hostile::OutOfRange,
        Hostile::Failed,
        Hostile::Released,
    ];
    (0usize..4).prop_map(move |k| kinds[k])
}

/// An index at or past `len`: just past it, far past it, or the largest.
fn past(len: usize, raw: u32) -> u32 {
    match raw % 3 {
        0 => len as u32,
        1 => len as u32 + raw % 1_000,
        _ => u32::MAX,
    }
}

/// The ids of each kind a manager state offers, resolved per call.
struct HostileIds {
    failed_links: Vec<LinkId>,
    repaired: Vec<LinkId>,
    failed_conns: Vec<ConnectionId>,
    released: Vec<ConnectionId>,
    live: Vec<ConnectionId>,
}

impl HostileIds {
    fn of(mgr: &DrtpManager, repaired: &[LinkId], released: &[ConnectionId]) -> Self {
        let net = mgr.net();
        let failed = |c: &&drt_core::DrConnection| c.state() == drt_core::ConnectionState::Failed;
        HostileIds {
            failed_links: net
                .links()
                .map(|l| l.id())
                .filter(|&l| mgr.is_failed(l))
                .collect(),
            repaired: repaired
                .iter()
                .copied()
                .filter(|&l| !mgr.is_failed(l))
                .collect(),
            failed_conns: mgr.connections().filter(failed).map(|c| c.id()).collect(),
            released: released
                .iter()
                .copied()
                .filter(|&c| mgr.connection(c).is_none())
                .collect(),
            live: mgr
                .connections()
                .filter(|c| !failed(c))
                .map(|c| c.id())
                .collect(),
        }
    }

    fn pick<T: Copy>(from: &[T], raw: u32) -> Option<T> {
        (!from.is_empty()).then(|| from[raw as usize % from.len()])
    }

    fn link(&self, net: &Network, kind: Hostile, raw: u32) -> LinkId {
        let n = net.num_links() as u32;
        let in_range = LinkId::new(raw % n);
        match kind {
            Hostile::InRange => in_range,
            Hostile::OutOfRange => LinkId::new(past(net.num_links(), raw)),
            Hostile::Failed => Self::pick(&self.failed_links, raw).unwrap_or(in_range),
            Hostile::Released => Self::pick(&self.repaired, raw).unwrap_or(in_range),
        }
    }

    fn node(&self, net: &Network, kind: Hostile, raw: u32) -> NodeId {
        match kind {
            Hostile::OutOfRange => NodeId::new(past(net.num_nodes(), raw)),
            Hostile::InRange | Hostile::Failed | Hostile::Released => {
                net.link(self.link(net, kind, raw)).src()
            }
        }
    }

    fn srlg(&self, net: &Network, kind: Hostile, raw: u32) -> SrlgId {
        match kind {
            Hostile::OutOfRange => SrlgId::new(past(net.num_srlgs(), raw)),
            _ => SrlgId::new(raw % net.num_srlgs() as u32),
        }
    }

    fn conn(&self, kind: Hostile, raw: u32) -> ConnectionId {
        let never = ConnectionId::new(1_000_000 + u64::from(raw));
        let from = match kind {
            Hostile::InRange => &self.live,
            Hostile::OutOfRange => return never,
            Hostile::Failed => &self.failed_conns,
            Hostile::Released => &self.released,
        };
        Self::pick(from, raw).unwrap_or(never)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every public `DrtpManager` method that takes a `LinkId`, `NodeId`,
    /// `SrlgId` or `ConnectionId`, called with ids inside and outside the
    /// network, failed ones and released ones, on a loaded manager with
    /// failed links, failed connections and released ids: each call
    /// returns a value or a typed `Err` — a panic fails the test — and
    /// the invariants hold after it.
    #[test]
    fn hostile_ids_get_a_value_or_a_typed_error(
        seed in any::<u64>(),
        setup in prop::collection::vec(arb_op(12, 34), 10..40),
        calls in prop::collection::vec((0u32..23, arb_hostile(), any::<u32>(), arb_hostile()), 1..40),
    ) {
        use drt_core::failure::RestartMode;
        let net = topology::random_connected(12, 17, Bandwidth::from_mbps(6), seed).unwrap();
        let groups = vec![vec![LinkId::new(0), LinkId::new(3)], vec![LinkId::new(5)]];
        let net = Arc::new(net.with_srlgs(&groups).unwrap());
        let n = net.num_links() as u32;
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = DLsr::new();
        let mut rng = drt_sim::rng::stream(seed, "hostile-ids");
        let (mut repaired, mut released) = (Vec::new(), Vec::new());
        let mut next_id = 0u64;
        for op in setup {
            match op {
                Op::Establish { src, dst, mbps, .. } if src != dst => {
                    let id = ConnectionId::new(next_id);
                    next_id += 1;
                    let req = RouteRequest::new(
                        id, NodeId::new(src), NodeId::new(dst), Bandwidth::from_mbps(mbps),
                    );
                    let _ = mgr.request_connection(&mut scheme, req);
                }
                Op::Release { victim } if next_id > 0 => {
                    let id = ConnectionId::new(victim as u64 % next_id);
                    if mgr.release(id).is_ok() {
                        released.push(id);
                    }
                }
                Op::Fail { link } | Op::Cut { link } => {
                    let _ = mgr.inject_failure(LinkId::new(link % n), &mut rng);
                }
                Op::Repair { link } => {
                    let link = LinkId::new(link % n);
                    if mgr.repair_link(link).is_ok() {
                        repaired.push(link);
                    }
                }
                _ => {}
            }
        }
        mgr.assert_invariants();

        for (call, kind, raw, other) in calls {
            let ids = HostileIds::of(&mgr, &repaired, &released);
            let l = ids.link(&net, kind, raw);
            let v = ids.node(&net, kind, raw);
            let g = ids.srlg(&net, kind, raw);
            let c = ids.conn(kind, raw);
            let w = ids.node(&net, other, raw.rotate_left(16));
            let bw = Bandwidth::from_mbps(1);
            match call {
                0 => {
                    let lr = mgr.link_resources(l);
                    prop_assert!(lr.prime() + lr.spare() <= lr.capacity());
                }
                1 => prop_assert_eq!(mgr.aplv(l).is_empty(), mgr.aplv(l).l1_norm() == 0),
                2 => prop_assert_eq!(mgr.is_failed(l), ids.failed_links.contains(&l)),
                3 => {
                    let out = mgr.probe_single_failure(l, &mut rng);
                    prop_assert!(out.activated() <= out.affected());
                }
                4 => {
                    let _ = mgr.inject_failure(l, &mut rng);
                }
                5 => {
                    let _ = mgr.inject_false_report(l, &mut rng);
                }
                6 => {
                    if mgr.repair_link(l).is_ok() {
                        repaired.push(l);
                    }
                }
                7 => {
                    let avoid = [l, LinkId::new(u32::MAX)];
                    let _ = mgr.reestablish_backup_avoiding(&mut scheme, c, &avoid);
                }
                8 => {
                    let _ = mgr.probe_event(&FailureEvent::Link(l), &mut rng);
                    let _ = mgr.probe_event(&FailureEvent::Node(v), &mut rng);
                    let _ = mgr.probe_event(&FailureEvent::Srlg(g), &mut rng);
                }
                9 => {
                    let _ = mgr.inject_event(&FailureEvent::Link(l), &mut rng);
                }
                10 => {
                    let _ = mgr.inject_event(&FailureEvent::Node(v), &mut rng);
                }
                11 => {
                    let _ = mgr.inject_event(&FailureEvent::Srlg(g), &mut rng);
                }
                12 => {
                    let _ = mgr.crash_restart_router(v, RestartMode::Journaled, &mut rng);
                }
                13 => {
                    let _ = mgr.crash_restart_router(v, RestartMode::Amnesia, &mut rng);
                }
                14 => {
                    let _ = mgr.connection(c);
                }
                15 => {
                    if mgr.release(c).is_ok() {
                        released.push(c);
                    }
                }
                16 => {
                    let _ = mgr.drop_backups(c);
                }
                17 => {
                    let _ = mgr.reestablish_backup(&mut scheme, c);
                }
                18 => {
                    // The connection's own primary: a route of this network
                    // between its endpoints, wherever it runs.
                    let route = ids
                        .live
                        .first()
                        .and_then(|&id| mgr.connection(id))
                        .map(|conn| conn.primary().clone());
                    if let Some(route) = route {
                        let _ = mgr.install_backup_route(c, route);
                    }
                }
                19 => {
                    let _ = mgr.request_connection(&mut scheme, RouteRequest::new(c, v, w, bw));
                }
                20 => {
                    let req = RouteRequest::new(c, v, w, bw);
                    let pair = ids.live.first().and_then(|&id| mgr.connection(id)).map(|conn| {
                        drt_core::routing::RoutePair {
                            primary: conn.primary().clone(),
                            backup: conn.backup().cloned(),
                            dedicated_backup: false,
                            overhead: Default::default(),
                        }
                    });
                    if let Some(pair) = pair {
                        let _ = mgr.admit_routes(&req, pair);
                    }
                }
                21 => {
                    let _ = mgr.sweep_single_failures(u64::from(raw));
                }
                _ => {
                    let _ = mgr.inject_event(
                        &FailureEvent::Batch(vec![FailureEvent::Link(l), FailureEvent::Node(v)]),
                        &mut rng,
                    );
                }
            }
            mgr.assert_invariants();
        }
    }
}
