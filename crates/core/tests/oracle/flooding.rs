//! A literal bounded flood, written from the paper's §4 as PAPER.md
//! summarises it (§1, item 3) and nothing else:
//!
//! - the source bounds the flood at `hc_limit = ⌈ρ·D(s,d)⌉ + ρ₀`, where
//!   `D` counts hops over the links that are not failed;
//! - every copy of the channel-discovery packet carries its own node
//!   `list` and link `path`; a node forwards a copy over an outgoing link
//!   only when the link has backup headroom for `bw_req` (bandwidth
//!   test), the neighbour is not on the copy's `list` (loop-freedom), and
//!   the copy can still reach the destination within `hc_limit`
//!   (distance test); the forwarded copy's `primary_flag` stays set only
//!   while every link taken had `bw_req` of free bandwidth;
//! - a node that already holds a pending-connection entry drops a copy
//!   with `hc_curr > α·min_dist + β` (valid-detour test) and otherwise
//!   lowers `min_dist`;
//! - the destination records every arriving copy in its candidate-route
//!   table (CRT), and picks as primary the shortest candidate with
//!   `primary_flag` set and as backup the candidate overlapping the
//!   primary least, then shortest — both then by link ids, for
//!   determinism, and never the primary's own route;
//! - copies travel in one FIFO queue, and each sent copy costs a message
//!   of 28 header bytes plus 4 per `list` entry. The flood sends at most
//!   `max_messages` copies: the first copy past the cap is not sent, and
//!   the flood ends there, undelivered copies included (`truncated`). The
//!   CRT keeps at most `max_candidates` entries.
//!
//! It keeps every copy's trail in owned `Vec`s, measures `D` by relaxing
//! every link until nothing changes, and selects over owned [`Route`]s. It
//! reads the manager only through `net`, `is_failed` and the view's
//! `usable_for_backup` and `free` (which apply a byzantine distortion).

use drt_core::routing::{FloodingParams, RouteRequest};
use drt_core::DrtpManager;
use drt_net::{LinkId, NodeId, Route};
use std::collections::{BTreeMap, VecDeque};

/// One copy of the channel-discovery packet.
#[derive(Debug, Clone)]
struct Cdp {
    list: Vec<NodeId>,
    path: Vec<LinkId>,
    hc_curr: u32,
    primary_flag: bool,
}

/// One CRT entry: the route, its `primary_flag` and its hop count.
pub type Entry = (Route, bool, u32);

/// What one flood found and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Flood {
    /// The destination's candidate-route table, in arrival order.
    pub crt: Vec<Entry>,
    /// Copies sent.
    pub messages: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Whether the message cap ended the flood.
    pub truncated: bool,
}

/// `D(k, dst)` for every node `k`, over the links that are not failed.
fn distances_to(mgr: &DrtpManager, dst: NodeId) -> Vec<Option<u32>> {
    let net = mgr.net();
    let mut d = vec![None; net.num_nodes()];
    d[dst.index()] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for link in net.links().filter(|l| !mgr.is_failed(l.id())) {
            let Some(far) = d[link.dst().index()] else {
                continue;
            };
            let near = &mut d[link.src().index()];
            if near.is_none_or(|h| far + 1 < h) {
                *near = Some(far + 1);
                changed = true;
            }
        }
    }
    d
}

/// Floods `req` over the manager's current view.
pub fn flood(mgr: &DrtpManager, req: &RouteRequest, params: FloodingParams) -> Flood {
    let (net, view) = (mgr.net(), mgr.view());
    let mut out = Flood {
        crt: Vec::new(),
        messages: 0,
        bytes: 0,
        truncated: false,
    };
    if req.src == req.dst {
        return out;
    }
    let d = distances_to(mgr, req.dst);
    let Some(shortest) = d[req.src.index()] else {
        return out;
    };
    let hc_limit = (params.rho * f64::from(shortest)).ceil() as u32 + params.rho_offset;
    let bw = req.bandwidth();
    let mut queue: VecDeque<(NodeId, Cdp)> = VecDeque::new();
    let mut pct: BTreeMap<NodeId, u32> = BTreeMap::new();

    // Sends every copy `holder` may forward; `false` once the cap is hit.
    let mut send = |holder: NodeId, copy: &Cdp, queue: &mut VecDeque<(NodeId, Cdp)>| {
        let mut list = copy.list.clone();
        list.push(holder);
        for &l in net.out_links(holder) {
            let k = net.link(l).dst();
            let bandwidth = view.usable_for_backup(l, bw);
            let loop_free = !list.contains(&k);
            let distance = d[k.index()].is_some_and(|rest| copy.hc_curr + 1 + rest <= hc_limit);
            if !(bandwidth && loop_free && distance) {
                continue;
            }
            if out.messages == params.max_messages {
                out.truncated = true;
                return false;
            }
            let mut path = copy.path.clone();
            path.push(l);
            let next = Cdp {
                list: list.clone(),
                path,
                hc_curr: copy.hc_curr + 1,
                primary_flag: copy.primary_flag && bw <= view.free(l),
            };
            out.messages += 1;
            out.bytes += 28 + 4 * next.list.len() as u64;
            queue.push_back((k, next));
        }
        true
    };

    let first = Cdp {
        list: Vec::new(),
        path: Vec::new(),
        hc_curr: 0,
        primary_flag: true,
    };
    let mut going = send(req.src, &first, &mut queue);
    pct.insert(req.src, 0);
    let mut crt = Vec::new();
    while going {
        let Some((node, copy)) = queue.pop_front() else {
            break;
        };
        if node == req.dst {
            if crt.len() < params.max_candidates {
                let route = Route::new(net, copy.path).expect("a CDP's path is a walk");
                crt.push((route, copy.primary_flag, copy.hc_curr));
            }
            continue;
        }
        if let Some(min_dist) = pct.get_mut(&node) {
            if f64::from(copy.hc_curr)
                > params.alpha * f64::from(*min_dist) + f64::from(params.beta)
            {
                continue;
            }
            *min_dist = (*min_dist).min(copy.hc_curr);
        } else {
            pct.insert(node, copy.hc_curr);
        }
        going = send(node, &copy, &mut queue);
    }
    out.crt = crt;
    out
}

/// The destination's primary: the shortest candidate with `primary_flag`.
pub fn primary(crt: &[Entry]) -> Option<Route> {
    crt.iter()
        .filter(|(_, flag, _)| *flag)
        .min_by_key(|(route, _, hops)| (*hops, route.links().to_vec()))
        .map(|(route, _, _)| route.clone())
}

/// The destination's backup for `primary`: least overlap, then shortest.
pub fn backup(crt: &[Entry], primary: &Route) -> Option<Route> {
    crt.iter()
        .filter(|(route, _, _)| route.links() != primary.links())
        .min_by_key(|(route, _, hops)| (route.overlap(primary), *hops, route.links().to_vec()))
        .map(|(route, _, _)| route.clone())
}
