//! A reference for the link-state schemes' routes, written from PAPER.md
//! §3 and the reproduction's stated tie rule (DESIGN.md §5) and nothing
//! else:
//!
//! - the primary is the minimum-hop route over the links whose free pool
//!   (capacity minus primary and spare reservations) admits `bw_req`; a
//!   failed link is not used at all. The reproduction orders the routes
//!   that tie on hops by the sum of the per-link weights
//!   `splitmix64(link index) >> 40`;
//! - P-LSR prices a backup's link `C_i = Q_i + ‖APLV_i‖₁ + ε`, and D-LSR
//!   `C_i = Q_i + Σ_{L_j ∈ LSET_P} c_{i,j} + ε`, where `c_{i,j} = 1` iff
//!   `a_{i,j} > 0` and `LSET_P` is the new connection's primary;
//! - `Q_i` is charged where `L_i` lies on that primary or offers less
//!   backup headroom (capacity minus primary reservations) than `bw_req`;
//!   a failed link is not used at all;
//! - `Q` exceeds every conflict sum and `ε < 1`, so backups order by
//!   (`Q`-links, conflict, hops), then by the same tie sum;
//! - the conflict-blind SPF backup is the same with a conflict of 0.
//!
//! Keys are plain tuples `(q, conflict, hops, tie)`, summed field by field
//! and compared as tuples; a primary's are `(0, 0, hops, tie)`. The
//! shortest-path reference is [`bellman_ford`], run on a mixed-radix
//! number of the tuple whose radices are this state's own largest field
//! sums plus one, and read back. It reads the manager through
//! `registrations` and `aplv_table` (`c_{i,j}` and `‖APLV_i‖₁`),
//! `link_resources` and `is_failed`.

use super::{aplv_table, registrations};
use drt_core::DrtpManager;
use drt_net::algo::bellman_ford;
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};

/// A backup cost: `Q`-links, conflict, hops, tie weight.
pub type Key = (u128, u128, u128, u128);

/// The conflict term of the scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// D-LSR: `Σ_{L_j ∈ LSET_P} c_{i,j}`.
    Vector,
    /// P-LSR: `‖APLV_i‖₁`.
    Norm,
    /// SPF: none.
    Blind,
}

/// The cheapest route and how many routes share its key.
#[derive(Debug, Clone)]
pub struct Best {
    pub route: Route,
    pub key: Key,
    /// Routes whose whole key equals `key`: 1 unless the tie weights
    /// collide.
    pub routes: u64,
}

/// The state a route search reads, taken before the request.
pub struct RouteOracle {
    /// `a_{i,j}` for every link `i`, as `(j, a_{i,j})`.
    aplv: Vec<Vec<(LinkId, u32)>>,
    /// Capacity minus primary reservations, per link.
    headroom: Vec<Bandwidth>,
    /// Capacity minus primary and spare reservations, per link.
    free: Vec<Bandwidth>,
    failed: Vec<bool>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn add(a: Key, b: Key) -> Key {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
}

/// The tie weight of link index `i`.
fn tie(i: usize) -> u128 {
    u128::from(splitmix64(i as u64) >> 40)
}

/// The sum of `key` over `route`'s links, `None` if one is excluded.
fn route_sum(route: &Route, key: impl Fn(LinkId) -> Option<Key>) -> Option<Key> {
    route
        .links()
        .iter()
        .try_fold((0, 0, 0, 0), |acc, &l| Some(add(acc, key(l)?)))
}

impl RouteOracle {
    pub fn new(mgr: &DrtpManager) -> Self {
        let links = mgr.net().num_links();
        let aplv = aplv_table(&registrations(mgr), links)
            .into_iter()
            .map(|row| row.into_iter().map(|(j, (a, _))| (j, a)).collect())
            .collect();
        let all = (0..links as u32).map(LinkId::new);
        let pools = |f: fn(&drt_core::LinkResources) -> Bandwidth| {
            all.clone().map(|l| f(mgr.link_resources(l))).collect()
        };
        RouteOracle {
            aplv,
            headroom: pools(|r| r.capacity() - r.prime()),
            free: pools(|r| r.capacity() - r.prime() - r.spare()),
            failed: all.clone().map(|l| mgr.is_failed(l)).collect(),
        }
    }

    /// Whether `l` was failed.
    pub fn fails(&self, l: LinkId) -> bool {
        self.failed[l.index()]
    }

    /// Whether a backup of `bw` may cross `l`: not failed, with the
    /// headroom.
    pub fn fits(&self, l: LinkId, bw: Bandwidth) -> bool {
        !self.failed[l.index()] && self.headroom[l.index()] >= bw
    }

    /// The key of link `l` for a backup of `bw` protecting `primary`, or
    /// `None` for a failed link.
    pub fn link_key(
        &self,
        conflict: Conflict,
        primary: &Route,
        bw: Bandwidth,
        l: LinkId,
    ) -> Option<Key> {
        let i = l.index();
        if self.failed[i] {
            return None;
        }
        let q = primary.links().contains(&l) || !self.fits(l, bw);
        let row = &self.aplv[i];
        let c = match conflict {
            Conflict::Vector => row
                .iter()
                .filter(|(j, a)| *a > 0 && primary.links().contains(j))
                .count() as u128,
            Conflict::Norm => row.iter().map(|&(_, a)| u128::from(a)).sum(),
            Conflict::Blind => 0,
        };
        Some((u128::from(q), c, 1, tie(i)))
    }

    /// The key of link `l` for a primary of `bw`, or `None` where `l` is
    /// failed or its free pool is short of `bw`.
    pub fn primary_link_key(&self, bw: Bandwidth, l: LinkId) -> Option<Key> {
        let i = l.index();
        (!self.failed[i] && self.free[i] >= bw).then(|| (0, 0, 1, tie(i)))
    }

    /// The key of a whole primary route, `None` if it crosses a link a
    /// primary of `bw` may not use.
    pub fn primary_route_key(&self, bw: Bandwidth, route: &Route) -> Option<Key> {
        route_sum(route, |l| self.primary_link_key(bw, l))
    }

    /// The cheapest primary of `bw` from `src` to `dst`, or `None` when
    /// `dst` is unreachable over the links it may use.
    pub fn best_primary(
        &self,
        net: &Network,
        bw: Bandwidth,
        ends: (NodeId, NodeId),
    ) -> Option<Best> {
        let keys = net
            .links()
            .map(|l| self.primary_link_key(bw, l.id()))
            .collect();
        least(net, keys, ends)
    }

    /// The key of a whole route, `None` if it crosses a failed link.
    pub fn route_key(
        &self,
        conflict: Conflict,
        primary: &Route,
        bw: Bandwidth,
        route: &Route,
    ) -> Option<Key> {
        route_sum(route, |l| self.link_key(conflict, primary, bw, l))
    }

    /// The cheapest backup from `src` to `dst`, or `None` when `dst` is
    /// unreachable over links that are not failed.
    pub fn best(
        &self,
        net: &Network,
        conflict: Conflict,
        primary: &Route,
        bw: Bandwidth,
        (src, dst): (NodeId, NodeId),
    ) -> Option<Best> {
        let keys = net
            .links()
            .map(|l| self.link_key(conflict, primary, bw, l.id()))
            .collect();
        least(net, keys, (src, dst))
    }
}

/// The cheapest route under per-link `keys` (`None` excludes a link) from
/// `src` to `dst`, and how many routes share its key.
fn least(net: &Network, keys: Vec<Option<Key>>, (src, dst): (NodeId, NodeId)) -> Option<Best> {
    // A simple route has at most n − 1 links, so a field's sum stays
    // below n − 1 times its largest link value, plus one.
    let longest = net.num_nodes() as u128 - 1;
    let radix = |f: fn(&Key) -> u128| keys.iter().flatten().map(f).max().unwrap_or(0) * longest + 1;
    let radices = [radix(|k| k.1), radix(|k| k.2), radix(|k| k.3)];
    let encode = |k: Key| ((k.0 * radices[0] + k.1) * radices[1] + k.2) * radices[2] + k.3;
    let decode = |mut d: u128| {
        let tie = d % radices[2];
        d /= radices[2];
        let hops = d % radices[1];
        d /= radices[1];
        (d / radices[0], d % radices[0], hops, tie)
    };
    let cost = |l: LinkId| keys[l.index()].map(encode);
    let tree = bellman_ford(net, src, cost);
    let route = tree.route_to(net, dst)?;
    let key = decode(tree.distance(dst)?);
    assert_eq!(
        route_sum(&route, |l| keys[l.index()]),
        Some(key),
        "decoded sum"
    );

    // Routes of the least cost: paths over the links that keep their
    // head at its distance. Every link costs at least one hop, so
    // these links climb in distance, and counting in distance order
    // counts each path once.
    let dist = |v: NodeId| tree.distance(v);
    let mut order: Vec<NodeId> = net.nodes().filter(|&v| dist(v).is_some()).collect();
    order.sort_by_key(|&v| dist(v));
    let mut paths = vec![0u64; net.num_nodes()];
    paths[src.index()] = 1;
    for v in order {
        for &l in net.in_links(v) {
            let u = net.link(l).src();
            if let (Some(du), Some(c)) = (dist(u), cost(l)) {
                if Some(du + c) == dist(v) {
                    paths[v.index()] += paths[u.index()];
                }
            }
        }
    }
    Some(Best {
        route,
        key,
        routes: paths[dst.index()],
    })
}
