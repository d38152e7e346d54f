//! A reference for the link-state schemes' backup routes, written from
//! PAPER.md §3 and the reproduction's stated tie rule (DESIGN.md §5) and
//! nothing else:
//!
//! - P-LSR prices a link `C_i = Q_i + ‖APLV_i‖₁ + ε`, and D-LSR
//!   `C_i = Q_i + Σ_{L_j ∈ LSET_P} c_{i,j} + ε`, where `c_{i,j} = 1` iff
//!   `a_{i,j} > 0` and `LSET_P` is the new connection's primary;
//! - `Q_i` is charged where `L_i` lies on that primary or offers less
//!   backup headroom (capacity minus primary reservations) than `bw_req`;
//!   a failed link is not used at all;
//! - `Q` exceeds every conflict sum and `ε < 1`, so routes order by
//!   (`Q`-links, conflict, hops). The reproduction orders the routes that
//!   tie there by a fourth field: the sum of the per-link weights
//!   `splitmix64(link index) >> 40`;
//! - the conflict-blind SPF backup is the same with a conflict of 0.
//!
//! Keys are plain tuples `(q, conflict, hops, tie)`, summed field by field
//! and compared as tuples. The shortest-path reference is
//! [`bellman_ford`], run on a mixed-radix number of the tuple whose radices
//! are this state's own largest field sums plus one, and read back. It
//! reads the manager through `registrations` and `aplv_table` (`c_{i,j}`
//! and `‖APLV_i‖₁`), `link_resources` and `is_failed`.

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

/// The cheapest backup and how many routes share its key.
#[derive(Debug, Clone)]
pub struct Best {
    pub route: Route,
    pub key: Key,
    /// Routes whose whole key equals `key`: 1 unless the tie weights
    /// collide.
    pub routes: u64,
}

/// The state a backup search reads, taken before the request.
pub struct RouteOracle {
    /// `a_{i,j}` for every link `i`, as `(j, a_{i,j})`.
    aplv: Vec<Vec<(LinkId, u32)>>,
    /// Capacity minus primary reservations, per link.
    headroom: Vec<Bandwidth>,
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

impl RouteOracle {
    pub fn new(mgr: &DrtpManager) -> Self {
        let links = mgr.net().num_links();
        let aplv = aplv_table(&registrations(mgr), links)
            .into_iter()
            .map(|row| row.into_iter().map(|(j, (a, _))| (j, a)).collect())
            .collect();
        let all = (0..links as u32).map(LinkId::new);
        RouteOracle {
            aplv,
            headroom: all
                .clone()
                .map(|l| {
                    let r = mgr.link_resources(l);
                    r.capacity() - r.prime()
                })
                .collect(),
            failed: all.map(|l| mgr.is_failed(l)).collect(),
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
        let tie = splitmix64(i as u64) >> 40;
        Some((u128::from(q), c, 1, u128::from(tie)))
    }

    /// The key of a whole route, `None` if it crosses a failed link.
    pub fn route_key(
        &self,
        conflict: Conflict,
        primary: &Route,
        bw: Bandwidth,
        route: &Route,
    ) -> Option<Key> {
        route.links().iter().try_fold((0, 0, 0, 0), |sum, &l| {
            Some(add(sum, self.link_key(conflict, primary, bw, l)?))
        })
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
        let keys: Vec<Option<Key>> = net
            .links()
            .map(|l| self.link_key(conflict, primary, bw, l.id()))
            .collect();
        // A simple route has at most n − 1 links, so a field's sum stays
        // below n − 1 times its largest link value, plus one.
        let longest = net.num_nodes() as u128 - 1;
        let radix =
            |f: fn(&Key) -> u128| keys.iter().flatten().map(f).max().unwrap_or(0) * longest + 1;
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
            self.route_key(conflict, primary, bw, &route),
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
}
