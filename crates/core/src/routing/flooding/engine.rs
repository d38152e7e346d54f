//! The flooding engine: simulates one CDP flood at message granularity.
//!
//! A flood runs in the calling thread's [`FloodWorkspace`]. Every copy it
//! sends is one fixed-size [`Cdp`] record appended to an arena, whose
//! [`Cdp::parent`] links it to the copy it was forwarded from; the FIFO
//! message queue is a cursor over that arena (copies are delivered in the
//! order they were sent), the loop-freedom test walks a copy's parent
//! chain, and the destination's candidate-route table holds arena
//! indices. Only the routes a caller keeps are built, so a warmed flood
//! allocates nothing.

use crate::routing::flooding::{Candidate, Cdp, FloodingParams};
use crate::routing::{RouteRequest, RoutingOverhead};
use crate::ManagerView;
use drt_net::{LinkId, Network, NodeId, Route};
use std::cell::RefCell;
use std::cmp::Ordering;

/// Result of one bounded flood.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The destination's candidate-route table (CRT), in arrival order.
    pub candidates: Vec<Candidate>,
    /// Messages and bytes the flood transmitted.
    pub overhead: RoutingOverhead,
    /// `true` when the defensive message cap cut the flood short.
    pub truncated: bool,
}

/// Simulates the bounded flood of one channel-discovery packet and returns
/// the destination's candidate routes plus the message cost.
///
/// Mechanics follow Section 4 exactly:
///
/// * the source bounds the flood at `hc_limit = ⌈ρ·D(src,dst)⌉ + ρ₀`;
/// * every forward from node `i` to neighbor `k` must pass the
///   **distance test** (`hc_curr + D_{dst,k} + 1 ≤ hc_limit`, reading
///   the distance-table column of `dst`, which [`ManagerView::hops_to`]
///   measures once per flood), the
///   **loop-freedom test** (`k` is not on the copy's trail), and the
///   **bandwidth test** (`bw_req ≤ total − prime` on the link taken);
/// * a node that has already seen a copy of this connection's CDP applies
///   the **valid-detour test** `hc_curr ≤ α·min_dist + β` to incoming
///   copies first (its pending-connection-table entry holds `min_dist`);
/// * the destination records every arriving copy in its CRT (capped at
///   [`FloodingParams::max_candidates`]);
/// * a copy that passes every test but would be message number
///   [`FloodingParams::max_messages`]` + 1` is not sent: the flood stops
///   there, copies still in flight included, and is `truncated`.
///
/// Messages are processed in FIFO order, which makes the flood — and thus
/// the whole scheme — deterministic. Every candidate's route is built
/// here; [`crate::routing::BoundedFlooding`] runs the same flood and
/// builds only the routes it picks.
pub fn flood(view: &ManagerView<'_>, req: &RouteRequest, params: FloodingParams) -> FloodOutcome {
    with_flood_scratch(|ws| {
        let (overhead, truncated) = ws.flood(view, req, params);
        let candidates = ws
            .crt
            .iter()
            .filter_map(|&at| {
                let copy = ws.copies[at as usize];
                Some(Candidate {
                    route: ws.route(view.net(), at)?,
                    primary_flag: copy.primary_flag,
                    hops: copy.hc_curr,
                })
            })
            .collect();
        FloodOutcome {
            candidates,
            overhead,
            truncated,
        }
    })
}

/// Reusable scratch state of one flood: the distance column, the
/// pending-connection table, the copy arena and the candidate-route
/// table. Every buffer is overwritten when a flood starts and keeps its
/// capacity, so a warmed flood allocates nothing.
///
/// Every flood runs in the calling thread's instance
/// ([`with_flood_scratch`]).
#[derive(Debug, Default)]
pub(super) struct FloodWorkspace {
    /// `D(·, dst)` of the flood's destination.
    to_dst: Vec<Option<u32>>,
    /// The backward search's queue.
    bfs_queue: Vec<NodeId>,
    /// Pending-connection table: `min_dist` per node that has seen a copy.
    pct: Vec<Option<u32>>,
    /// Every copy sent, in send order.
    copies: Vec<Cdp>,
    /// The candidate-route table: arena indices of the copies the
    /// destination recorded, in arrival order.
    crt: Vec<u32>,
}

/// What one flood holds fixed while it runs.
struct Request<'v, 'a> {
    view: &'v ManagerView<'a>,
    src: NodeId,
    hc_limit: u32,
    bw: drt_net::Bandwidth,
    max_messages: u64,
}

impl FloodWorkspace {
    /// Floods `req` and fills the candidate-route table; returns the
    /// messages and bytes sent and whether the message cap cut the flood
    /// short.
    pub(super) fn flood(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
        params: FloodingParams,
    ) -> (RoutingOverhead, bool) {
        self.copies.clear();
        self.crt.clear();
        let mut overhead = RoutingOverhead::ZERO;
        if req.src == req.dst {
            return (overhead, false);
        }
        view.hops_to(req.dst, &mut self.to_dst, &mut self.bfs_queue);
        let Some(min_dist) = self.to_dst[req.src.index()] else {
            return (overhead, false); // destination unreachable
        };
        let flood = Request {
            view,
            src: req.src,
            hc_limit: (params.rho * min_dist as f64).ceil() as u32 + params.rho_offset,
            bw: req.bandwidth(),
            max_messages: params.max_messages,
        };
        self.pct.clear();
        self.pct.resize(view.net().num_nodes(), None);

        // Source action (Section 4.2).
        if !self.forward(&flood, req.src, None, &mut overhead) {
            return (overhead, true);
        }
        self.pct[req.src.index()] = Some(0);

        // Message loop: the queue is the arena from `next` on.
        let mut next = 0;
        while let Some(&m) = self.copies.get(next) {
            let at = next as u32;
            next += 1;
            if m.node == req.dst {
                // Destination action (Section 4.4): fill the CRT.
                if self.crt.len() < params.max_candidates {
                    self.crt.push(at);
                }
                continue;
            }
            // Valid-detour test (Section 4.3) against this node's PCT entry.
            let entry = &mut self.pct[m.node.index()];
            if let Some(best) = *entry {
                if m.hc_curr as f64 > params.alpha * best as f64 + params.beta as f64 {
                    continue;
                }
                *entry = Some(best.min(m.hc_curr));
            } else {
                *entry = Some(m.hc_curr);
            }
            if !self.forward(&flood, m.node, Some(at), &mut overhead) {
                return (overhead, true);
            }
        }
        (overhead, false)
    }

    /// Sends every admissible copy out of `holder`, which holds the copy
    /// at arena index `from` (`None`: the source's own packet). Returns
    /// `false` when the message cap stopped it.
    fn forward(
        &mut self,
        flood: &Request<'_, '_>,
        holder: NodeId,
        from: Option<u32>,
        overhead: &mut RoutingOverhead,
    ) -> bool {
        let view = flood.view;
        let net = view.net();
        let (hc_curr, primary_flag) = match from {
            Some(at) => {
                let m = self.copies[at as usize];
                (m.hc_curr, m.primary_flag)
            }
            None => (0, true),
        };
        for &lid in net.out_links(holder) {
            let k = net.link(lid).dst();
            // Distance test: can the CDP still reach the destination
            // within the limit after taking this hop?
            let Some(rest) = self.to_dst[k.index()] else {
                continue;
            };
            if hc_curr + 1 + rest > flood.hc_limit {
                continue;
            }
            // Bandwidth test (includes liveness): the link must offer
            // backup headroom.
            if !view.usable_for_backup(lid, flood.bw) {
                continue;
            }
            // Loop-freedom test.
            if k == flood.src || self.on_trail(from, k) {
                continue;
            }
            if overhead.messages >= flood.max_messages {
                return false;
            }
            let copy = Cdp {
                node: k,
                parent: from,
                link: lid,
                hc_curr: hc_curr + 1,
                primary_flag: primary_flag & (flood.bw <= view.free(lid)),
            };
            overhead.messages += 1;
            overhead.bytes += copy.wire_bytes();
            self.copies.push(copy);
        }
        true
    }

    /// Whether the copy at `at` or one of its ancestors was sent to
    /// `node`: the trail of the copy, past the source.
    fn on_trail(&self, mut at: Option<u32>, node: NodeId) -> bool {
        while let Some(i) = at {
            let c = &self.copies[i as usize];
            if c.node == node {
                return true;
            }
            at = c.parent;
        }
        false
    }

    /// The links of the copy at `at`'s trail, last hop first.
    fn trail(&self, mut at: Option<u32>) -> impl Iterator<Item = LinkId> + '_ {
        std::iter::from_fn(move || {
            let c = &self.copies[at? as usize];
            at = c.parent;
            Some(c.link)
        })
    }

    /// The route the copy at `at` took.
    pub(super) fn route(&self, net: &Network, at: u32) -> Option<Route> {
        let mut links: Vec<LinkId> = Vec::with_capacity(self.copies[at as usize].hc_curr as usize);
        links.extend(self.trail(Some(at)));
        links.reverse();
        Route::new(net, links).ok()
    }

    /// Compares the routes of two copies with equal hop counts
    /// lexicographically by link id. Every copy's trail is a distinct
    /// route (a holder forwards each copy once, over distinct links), so
    /// two trails agree up to their nearest common ancestor copy and
    /// first differ in the links the two copies below it took.
    fn cmp_routes(&self, a: u32, b: u32) -> Ordering {
        let (mut a, mut b) = (&self.copies[a as usize], &self.copies[b as usize]);
        debug_assert_eq!(a.hc_curr, b.hc_curr);
        loop {
            match (a.parent, b.parent) {
                (Some(p), Some(q)) if p != q => {
                    a = &self.copies[p as usize];
                    b = &self.copies[q as usize];
                }
                _ => return a.link.cmp(&b.link),
            }
        }
    }

    /// The CRT entry with the least `key` (entries it maps to `None` are
    /// ineligible), ties broken by the lexicographically least route: the
    /// destination's selection rule of both kinds of channel.
    fn least<K: Ord>(&self, key: impl Fn(u32, &Cdp) -> Option<K>) -> Option<u32> {
        let mut best: Option<(K, u32)> = None;
        for &at in &self.crt {
            let Some(k) = key(at, &self.copies[at as usize]) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((bk, b)) => match k.cmp(bk) {
                    Ordering::Less => true,
                    Ordering::Equal => self.cmp_routes(at, *b) == Ordering::Less,
                    Ordering::Greater => false,
                },
            };
            if better {
                best = Some((k, at));
            }
        }
        best.map(|(_, at)| at)
    }

    /// The shortest candidate whose `primary_flag` is set.
    pub(super) fn shortest_primary(&self) -> Option<u32> {
        self.least(|_, c| c.primary_flag.then_some(c.hc_curr))
    }

    /// The candidate sharing the fewest links with `primary`, then the
    /// shortest; a candidate over `primary`'s own links is ineligible.
    pub(super) fn least_overlapping(&self, primary: &[LinkId]) -> Option<u32> {
        self.least(|at, c| {
            let hops = c.hc_curr as usize;
            let same_route =
                hops == primary.len() && self.trail(Some(at)).eq(primary.iter().rev().copied());
            if same_route {
                return None;
            }
            let overlap = self.trail(Some(at)).filter(|l| primary.contains(l)).count();
            Some((overlap, c.hc_curr))
        })
    }
}

thread_local! {
    /// Per-thread flood scratch: parallel campaign workers each get their
    /// own workspace.
    static SCRATCH: RefCell<FloodWorkspace> = RefCell::new(FloodWorkspace::default());
}

/// Runs `f` with the thread-local [`FloodWorkspace`]. Falls back to a
/// fresh workspace under re-entrancy instead of panicking on the RefCell.
pub(super) fn with_flood_scratch<R>(f: impl FnOnce(&mut FloodWorkspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut FloodWorkspace::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectionId, DrtpManager};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn request(src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(ConnectionId::new(0), NodeId::new(src), NodeId::new(dst), BW)
    }

    fn mesh_manager(rows: usize, cols: usize) -> DrtpManager {
        DrtpManager::new(Arc::new(
            topology::mesh(rows, cols, Bandwidth::from_mbps(10)).unwrap(),
        ))
    }

    #[test]
    fn all_candidates_respect_the_bound() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 8), FloodingParams::paper());
        assert!(!out.candidates.is_empty());
        assert!(!out.truncated);
        // D(0,8) = 4, limit = 6.
        for c in &out.candidates {
            assert!(c.hops <= 6, "{} exceeds hc_limit", c.route);
            assert_eq!(c.route.source(), NodeId::new(0));
            assert_eq!(c.route.dest(), NodeId::new(8));
            assert!(c.route.is_simple(mgr.net()), "loop-freedom violated");
            assert_eq!(c.hops as usize, c.route.len());
        }
    }

    #[test]
    fn shortest_candidate_is_min_hop() {
        let mgr = mesh_manager(4, 4);
        let out = flood(&mgr.view(), &request(0, 15), FloodingParams::paper());
        let best = out.candidates.iter().map(|c| c.hops).min().unwrap();
        assert_eq!(best, 6);
    }

    #[test]
    fn bandwidth_test_prunes_saturated_links() {
        let mut mgr = mesh_manager(3, 3);
        // Saturate the direct top-row links with primaries so the flood
        // cannot use them at all (prime == capacity).
        let mut scheme = crate::routing::PrimaryOnly::new();
        let per_conn = Bandwidth::from_mbps(10); // fills a link completely
        let r = RouteRequest::new(
            ConnectionId::new(9),
            NodeId::new(0),
            NodeId::new(1),
            per_conn,
        );
        mgr.request_connection(&mut scheme, r).unwrap();

        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        let direct = mgr.net().find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        for c in &out.candidates {
            assert!(
                !c.route.contains_link(direct),
                "flood crossed a saturated link"
            );
        }
    }

    #[test]
    fn primary_flag_reflects_free_bandwidth() {
        let mgr = mesh_manager(3, 3);
        let out = flood(&mgr.view(), &request(0, 2), FloodingParams::paper());
        // Empty network: every candidate can be a primary.
        assert!(out.candidates.iter().all(|c| c.primary_flag));
    }

    #[test]
    fn unreachable_destination_yields_nothing() {
        let mut b = drt_net::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(1))
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), Bandwidth::from_mbps(1))
            .unwrap();
        let mgr = DrtpManager::new(Arc::new(b.build()));
        let out = flood(&mgr.view(), &request(0, 3), FloodingParams::paper());
        assert!(out.candidates.is_empty());
        assert_eq!(out.overhead.messages, 0);
    }

    #[test]
    fn message_cap_truncates() {
        let mgr = mesh_manager(5, 5);
        let capped = |max_messages| {
            let params = FloodingParams {
                max_messages,
                ..FloodingParams::paper()
            };
            flood(&mgr.view(), &request(0, 24), params)
        };
        // The cap holds from the source's first forward on: node 0 has two
        // neighbours, and a cap of 1 sends one copy.
        for cap in [0, 1, 10] {
            let out = capped(cap);
            assert!(out.truncated, "cap {cap}");
            assert_eq!(out.overhead.messages, cap);
        }
        // A flood that needs exactly the cap is not cut short.
        let full = capped(FloodingParams::paper().max_messages);
        assert!(!full.truncated);
        let exact = capped(full.overhead.messages);
        assert!(!exact.truncated);
        assert_eq!(exact.overhead, full.overhead);
        assert_eq!(exact.candidates, full.candidates);
        let short = capped(full.overhead.messages - 1);
        assert!(short.truncated);
        assert_eq!(short.overhead.messages, full.overhead.messages - 1);
    }

    #[test]
    fn wider_detour_slack_floods_more() {
        let mgr = mesh_manager(4, 4);
        let strict = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 0,
                ..FloodingParams::paper()
            },
        );
        let loose = flood(
            &mgr.view(),
            &request(0, 5),
            FloodingParams {
                beta: 2,
                ..FloodingParams::paper()
            },
        );
        assert!(loose.overhead.messages >= strict.overhead.messages);
    }

    #[test]
    fn candidate_cap_respected() {
        let mgr = mesh_manager(4, 4);
        let out = flood(
            &mgr.view(),
            &request(0, 15),
            FloodingParams {
                max_candidates: 3,
                ..FloodingParams::paper()
            },
        );
        assert_eq!(out.candidates.len(), 3);
    }
}
