//! Hostile ids at every `ProtocolSim` command: a link or router id one of
//! the network's, past its end, failed (or crashed) or on a released
//! connection's route (or restarted), and connection ids live, unknown,
//! lost or released — re-submitted to `establish` too — plus
//! establishments whose backup joins other endpoints, and establishments
//! and added backups whose routes run over links outside the network.
//! Each command either acts or refuses; none panics, at the call or later
//! inside the event loop, and the engine's audit stays clean at
//! quiescence after every call.

use drt_core::failure::RestartMode;
use drt_core::ConnectionId;
use drt_net::algo::shortest_path;
use drt_net::{topology, Bandwidth, LinkId, Network, NodeId, Route};
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::SimDuration;
use proptest::prelude::*;
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(2_000);

/// Which id a hostile call names (see the module docs).
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

/// `list[raw % len]`, or `fallback` when `list` is empty.
fn pick<T: Copy>(list: &[T], raw: u32, fallback: T) -> T {
    if list.is_empty() {
        fallback
    } else {
        list[raw as usize % list.len()]
    }
}

/// What the test knows of the run: every connection submitted with its
/// routes, and the ids each kind resolves to.
#[derive(Default)]
struct Ids {
    conns: Vec<(ConnectionId, Route, Route)>,
    failed_links: Vec<LinkId>,
    crashed: Vec<NodeId>,
    restarted: Vec<NodeId>,
}

impl Ids {
    fn link(&self, sim: &ProtocolSim, num_links: usize, kind: Hostile, raw: u32) -> LinkId {
        let in_range = LinkId::new(raw % num_links as u32);
        match kind {
            Hostile::InRange => in_range,
            Hostile::OutOfRange => LinkId::new(past(num_links, raw)),
            Hostile::Failed => pick(&self.failed_links, raw, in_range),
            Hostile::Released => {
                let on_released: Vec<LinkId> = self
                    .conns
                    .iter()
                    .filter(|(c, ..)| sim.outcome(*c) == Some(ConnOutcome::Released))
                    .flat_map(|(_, p, _)| p.links().iter().copied())
                    .collect();
                pick(&on_released, raw, in_range)
            }
        }
    }

    fn node(&self, num_nodes: usize, kind: Hostile, raw: u32) -> NodeId {
        let in_range = NodeId::new(raw % num_nodes as u32);
        match kind {
            Hostile::InRange => in_range,
            Hostile::OutOfRange => NodeId::new(past(num_nodes, raw)),
            Hostile::Failed => pick(&self.crashed, raw, in_range),
            Hostile::Released => pick(&self.restarted, raw, in_range),
        }
    }

    fn conn(&self, sim: &ProtocolSim, kind: Hostile, raw: u32) -> ConnectionId {
        let ids = |keep: fn(Option<ConnOutcome>) -> bool| -> Vec<ConnectionId> {
            self.conns
                .iter()
                .map(|(c, ..)| *c)
                .filter(|&c| keep(sim.outcome(c)))
                .collect()
        };
        let unknown = ConnectionId::new(self.conns.len() as u64 + u64::from(raw % 1_000));
        match kind {
            Hostile::InRange => pick(
                &ids(|o| o.is_some_and(ConnOutcome::is_established)),
                raw,
                unknown,
            ),
            Hostile::OutOfRange => unknown,
            Hostile::Failed => pick(&ids(|o| o == Some(ConnOutcome::Lost)), raw, unknown),
            Hostile::Released => pick(&ids(|o| o == Some(ConnOutcome::Released)), raw, unknown),
        }
    }

    /// The backup `conn` was submitted with.
    fn backup(&self, conn: ConnectionId) -> Option<Route> {
        let (.., backup) = self.conns.iter().find(|(c, ..)| *c == conn)?;
        Some(backup.clone())
    }
}

/// The first link id [`outside`] may name.
const OUTSIDE_FROM: usize = 60;

/// A route over links 60 to 77 of a 40-node ring, past the end of the
/// test network's links.
fn outside(raw: u32) -> Route {
    let ring = topology::ring(40, Bandwidth::from_mbps(10)).unwrap();
    let from = 30 + raw % 9;
    let nodes = [from, from + 1].map(NodeId::new);
    Route::from_nodes(&ring, &nodes).unwrap()
}

/// Routes `establish` must refuse on a fresh id: a backup that joins
/// other endpoints than its primary, a primary over links outside the
/// network (with a backup or without), or such a backup.
fn refusable(net: &Network, raw: u32) -> Option<(Route, Option<Route>)> {
    let pair = |raw: u32| {
        route_pair(
            net,
            NodeId::new(raw % 10),
            NodeId::new(raw.rotate_left(16) % 10),
        )
    };
    let (primary, backup) = pair(raw)?;
    match raw % 3 {
        0 => {
            let (other, _) = pair(raw.rotate_left(8))?;
            let ends = |r: &Route| (r.source(), r.dest());
            (ends(&other) != ends(&primary)).then_some((primary, Some(other)))
        }
        1 => Some((outside(raw), Some(backup).filter(|_| raw.is_multiple_of(2)))),
        _ => Some((primary, Some(outside(raw)))),
    }
}

/// A unit-step primary from `src` to `dst` and a backup avoiding its
/// links, when there are both.
fn route_pair(net: &Network, src: NodeId, dst: NodeId) -> Option<(Route, Route)> {
    let (_, primary) = shortest_path(net, src, dst, |_| Some(1))?;
    let (_, backup) = shortest_path(net, src, dst, |l| (!primary.contains_link(l)).then_some(1))?;
    Some((primary, backup))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_ids_are_refused_or_handled(
        seed in any::<u64>(),
        pairs in prop::collection::vec((0u32..10, 0u32..10), 4..12),
        calls in prop::collection::vec((0u32..10, arb_hostile(), any::<u32>(), arb_hostile()), 1..30),
    ) {
        let net = Arc::new(topology::random_connected(10, 14, Bandwidth::from_mbps(10), seed).unwrap());
        let (num_nodes, num_links) = (net.num_nodes(), net.num_links());
        prop_assert!(num_links <= OUTSIDE_FROM);
        // Journaled restarts: an amnesia restart loses primaries by design,
        // and the audit says so.
        let chaos = ChaosConfig { restart_mode: RestartMode::Journaled, ..ChaosConfig::default() };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net), ProtocolConfig::default(), RetryConfig::default(), chaos,
        );
        let mut ids = Ids::default();
        let establish = |sim: &mut ProtocolSim, ids: &mut Ids, (src, dst): (u32, u32)| {
            let Some((primary, backup)) = route_pair(&net, NodeId::new(src), NodeId::new(dst)) else {
                return;
            };
            let conn = ConnectionId::new(ids.conns.len() as u64);
            sim.establish(conn, BW, primary.clone(), Some(backup.clone()));
            ids.conns.push((conn, primary, backup));
        };
        for &pair in &pairs {
            establish(&mut sim, &mut ids, pair);
        }
        sim.run_to_quiescence();

        let mut refused = 0;
        for (call, kind, raw, other) in calls {
            let l = ids.link(&sim, num_links, kind, raw);
            let v = ids.node(num_nodes, other, raw.rotate_left(16));
            let c = ids.conn(&sim, kind, raw);
            let outside_ids = l.index() >= num_links || v.index() >= num_nodes;
            // Readers answer an empty ledger for a link outside the network.
            if l.index() >= num_links {
                prop_assert_eq!(sim.link_resources(l).capacity(), Bandwidth::ZERO);
                prop_assert!(sim.aplv(l).is_empty());
            }
            match call {
                0 => {
                    sim.fail_link(l);
                    refused += u64::from(l.index() >= num_links);
                    if l.index() < num_links {
                        ids.failed_links.push(l);
                    }
                }
                1 => {
                    sim.crash_router(v);
                    refused += u64::from(v.index() >= num_nodes);
                    if v.index() < num_nodes {
                        ids.crashed.push(v);
                    }
                }
                2 => {
                    sim.restart_router(v, SimDuration::from_millis(u64::from(raw % 50)));
                    refused += u64::from(v.index() >= num_nodes);
                    if v.index() < num_nodes {
                        ids.restarted.push(v);
                    }
                }
                3 => {
                    let spoofed = sim.spoof_failure_report(v, l);
                    refused += u64::from(outside_ids);
                    prop_assert!(!(spoofed && outside_ids));
                }
                4 => {
                    let _ = sim.release(c);
                }
                5 => {
                    if raw.is_multiple_of(4) {
                        prop_assert!(!sim.add_backup(c, outside(raw)));
                    } else if let Some(backup) = ids.backup(c) {
                        let _ = sim.add_backup(c, backup);
                    }
                }
                6 => {
                    prop_assert!(sim.retire_backups_crossing(c, l) <= 1);
                }
                7 => establish(&mut sim, &mut ids, (raw % 10, raw.rotate_left(16) % 10)),
                8 => {
                    // Re-submit a live, lost or released id: refused, and
                    // the connection it names is untouched.
                    let Some((_, primary, backup)) = ids.conns.iter().find(|(k, ..)| *k == c)
                    else {
                        continue;
                    };
                    let (before, queued) = (sim.outcome(c), sim.pending());
                    sim.establish(c, BW, primary.clone(), Some(backup.clone()));
                    refused += 1;
                    prop_assert_eq!(sim.outcome(c), before);
                    prop_assert_eq!(sim.pending(), queued);
                }
                _ => {
                    let Some((primary, backup)) = refusable(&net, raw) else {
                        continue;
                    };
                    let fresh = ConnectionId::new(ids.conns.len() as u64);
                    let queued = sim.pending();
                    sim.establish(fresh, BW, primary, backup);
                    refused += 1;
                    prop_assert_eq!(sim.outcome(fresh), None);
                    prop_assert_eq!(sim.pending(), queued);
                }
            }
            sim.run_to_quiescence();
            prop_assert!(sim.is_quiescent());
            if let Err(v) = sim.check_invariants() {
                prop_assert!(false, "call {} on {:?} / {:?}: {:?}", call, kind, other, v);
            }
        }
        prop_assert_eq!(sim.refused_commands(), refused);
    }
}
