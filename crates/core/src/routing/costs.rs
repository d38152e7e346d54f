//! Shared cost machinery of the link-state schemes.
//!
//! Both P-LSR and D-LSR assign each link the cost
//! `C_i = Q_i + conflict_term_i + ε` and run Dijkstra (Sections 3.1–3.2):
//!
//! * `Q` — "a very large constant (> max(APLV_i))" charged when the link
//!   lies on the new connection's primary route or lacks the bandwidth the
//!   QoS requires. It is a *soft* penalty: such links are taken only when
//!   no alternative exists at all.
//! * `ε` — "a small positive constant (< 1), used to select the shortest
//!   route … if there are several candidate routes with the same degree of
//!   channel overlapping".
//!
//! With `Q` above any conflict sum and `ε` below one conflict, the cost
//! orders routes lexicographically: fewest `Q`-links, then the least
//! conflict, then the fewest hops. [`link_key`] builds that order as one
//! exact integer per link, with a fourth, last field that the paper leaves
//! open: a fixed per-link tie weight, so that equally short routes are
//! told apart by a rule rather than by the search's visiting order.
//!
//! The primary is "the minimum-hop route" (Section 3), priced by the same
//! key with no `Q` and no conflict: fewest hops, then the least tie sum.
//! One search serves both channels.

use crate::routing::RoutingOverhead;
use crate::{BackupFit, DrtpError, ManagerView};
use drt_net::algo::shortest_path_with_floor;
use drt_net::{LinkId, Route};

/// One hop in [`link_key`]: the least step any link costs, so the
/// search's floor.
const HOP: u128 = 1 << 36;

/// The route searches' step cost of link `l`, as the integer
/// `q << 84 | conflict << 48 | 1 << 36 | tie(l)`, fields high to low:
///
/// | bits   | field         | per link    |
/// |--------|---------------|-------------|
/// | 84..96 | `Q`-links     | `q`: 0 or 1 |
/// | 48..84 | conflict term | `< 2^24`    |
/// | 36..48 | hops          | 1           |
/// | 0..36  | tie weight    | `< 2^24`    |
///
/// A route's cost is the sum of its links' keys. On a route of fewer than
/// `2^12` links each field's sum stays below its width, so the sum is the
/// four field sums side by side, below the `2^96` the search allows, and
/// comparing two sums compares (`Q`-links, conflict, hops, tie)
/// lexicographically. A simple route in a network of at most 4 096 nodes
/// has fewer links than that, so the order is exact there. A conflict
/// term above `2^24 − 1` counts as `2^24 − 1`.
///
/// The tie weight is SplitMix64's finaliser of the link index, top 24
/// bits: fixed per link, with no seed. Two routes that tie on the first
/// three fields differ in it unless their weights sum to the same value,
/// so the cheapest route is a function of the state, whichever exact
/// search finds it. A primary's key is `link_key(false, 0, l)`.
fn link_key(q: bool, conflict: u64, l: LinkId) -> u128 {
    let mut x = l.index() as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let tie = (x ^ (x >> 31)) >> 40;
    u128::from(q) << 84 | u128::from(conflict.min((1 << 24) - 1)) << 48 | HOP | u128::from(tie)
}

/// Selects the minimum-hop primary route among links that are alive and
/// can admit `bw` from their free pool, by Dijkstra over [`link_key`]
/// with no `Q` and no conflict: of the routes with the fewest hops, the
/// one with the least tie sum.
pub(crate) fn min_hop_primary(
    view: &ManagerView<'_>,
    src: drt_net::NodeId,
    dst: drt_net::NodeId,
    bw: drt_net::Bandwidth,
) -> Result<Route, DrtpError> {
    shortest_path_with_floor(view.net(), src, dst, HOP, |l| {
        view.usable_for_primary(l, bw)
            .then(|| link_key(false, 0, l))
    })
    .map(|(_, r)| r)
    .ok_or(DrtpError::NoPrimaryRoute(src, dst))
}

/// Selects a backup route by Dijkstra over [`link_key`]: failed links
/// are excluded outright; links on the primary or with insufficient
/// backup headroom are `Q`-links; `conflict_term(l)` is the scheme's
/// conflict field.
pub(crate) fn lsr_backup(
    view: &ManagerView<'_>,
    req: &crate::routing::RouteRequest,
    primary: &Route,
    conflict_term: impl Fn(LinkId) -> u64,
) -> Result<Route, DrtpError> {
    let bw = req.bandwidth();
    shortest_path_with_floor(view.net(), req.src, req.dst, HOP, |l| {
        let q = match view.backup_fit(l, bw) {
            BackupFit::Dead => return None,
            BackupFit::Fits => primary.contains_link(l),
            BackupFit::Short => true,
        };
        Some(link_key(q, conflict_term(l), l))
    })
    .map(|(_, r)| r)
    .ok_or(DrtpError::NoBackupRoute(req.id))
}

/// Size, in bytes, of a link-state advertisement header (sequence number,
/// originating router, checksum — OSPF-like).
pub(crate) const LSA_HEADER_BYTES: u64 = 16;

/// Models the dissemination cost of the link-state schemes: every link
/// whose advertised state changed floods one LSA across all `num_links`
/// directed links of the network.
pub(crate) fn lsa_overhead(
    num_links: usize,
    changed_links: usize,
    entry_bytes: u64,
) -> RoutingOverhead {
    let messages = changed_links as u64 * num_links as u64;
    RoutingOverhead {
        messages,
        bytes: messages * (LSA_HEADER_BYTES + entry_bytes),
    }
}

/// The set of links whose advertised state an establishment changed: the
/// primary's links (available bandwidth moved) plus the backup's links
/// (APLV/CV and spare moved).
pub(crate) fn changed_links(primary: &Route, backup: Option<&Route>) -> usize {
    // Routes are a handful of links: a link counts unless it appeared
    // earlier in its own route or in the primary.
    let routes = || std::iter::once(primary).chain(backup);
    routes()
        .enumerate()
        .map(|(k, route)| {
            let links = route.links();
            (0..links.len())
                .filter(|&i| {
                    !links[..i].contains(&links[i])
                        && !routes().take(k).any(|r| r.contains_link(links[i]))
                })
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four fields of a key or of a sum of keys, high to low.
    fn fields(key: u128) -> [u128; 4] {
        let field = |shift: u32, bits: u32| key >> shift & ((1 << bits) - 1);
        [key >> 84, field(48, 36), field(36, 12), field(0, 36)]
    }

    #[test]
    fn key_sums_are_field_sums_in_lexicographic_order() {
        // Routes of up to 2^12 − 1 links (a simple route in a network of
        // 4 096 nodes): every field's sum stays in its field, and the
        // whole sum within the search's bound.
        let longest = (1u128 << 12) - 1;
        let top = link_key(true, (1 << 24) - 1, LinkId::new(7));
        assert_eq!(fields(top), [1, (1 << 24) - 1, 1, fields(top)[3]]);
        assert_eq!(fields(top * longest), fields(top).map(|f| f * longest));
        assert!(top * longest <= drt_net::algo::MAX_ROUTE_COST);
        // A conflict term past the field's per-link width saturates.
        assert_eq!(link_key(false, u64::MAX, LinkId::new(7)), top - (1 << 84));

        // Random routes of mixed links: a sum of keys is the field-wise
        // sum, and sums order as their field tuples do.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut routes: Vec<(u128, [u128; 4])> = Vec::new();
        for len in [1u64, 2, 3, 5, 8, 64, 4_095] {
            for _ in 0..8 {
                let (mut sum, mut want) = (0u128, [0u128; 4]);
                for _ in 0..len {
                    let (q, conflict) = (draw(4) == 0, draw(3) * draw(1 << 24));
                    let key = link_key(q, conflict, LinkId::new(draw(1 << 20) as u32));
                    sum += key;
                    for (w, f) in want.iter_mut().zip(fields(key)) {
                        *w += f;
                    }
                }
                assert_eq!(fields(sum), want);
                routes.push((sum, want));
            }
        }
        for (a, fa) in &routes {
            for (b, fb) in &routes {
                assert_eq!(a.cmp(b), fa.cmp(fb));
            }
        }
    }

    #[test]
    fn tie_weights_are_fixed_and_below_one_hop() {
        let tie = |i| fields(link_key(false, 0, LinkId::new(i)))[3];
        let ties: Vec<u128> = (0..1000).map(tie).collect();
        assert!(ties.iter().all(|&t| t < 1 << 24));
        // SplitMix64's finaliser of indices 0 and 1, top 24 bits.
        assert_eq!(ties[..2], [0, 0x56_9216]);
        let distinct: std::collections::BTreeSet<_> = ties.iter().collect();
        assert!(distinct.len() > 990, "{} distinct", distinct.len());
    }

    #[test]
    fn lsa_cost_scales_with_changes_and_size() {
        let o = lsa_overhead(180, 7, 12);
        assert_eq!(o.messages, 7 * 180);
        assert_eq!(o.bytes, 7 * 180 * (16 + 12));
    }

    #[test]
    fn changed_links_counts_a_shared_link_once() {
        use drt_net::{topology, Bandwidth, NodeId};
        let net = topology::mesh(2, 3, Bandwidth::from_mbps(10)).unwrap();
        let route = |nodes: &[u32]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId::new).collect();
            Route::from_nodes(&net, &nodes).unwrap()
        };
        // 0 1 2
        // 3 4 5
        let primary = route(&[0, 1, 2]);
        let disjoint = route(&[0, 3, 4, 5, 2]);
        assert_eq!(changed_links(&primary, None), 2);
        assert_eq!(changed_links(&primary, Some(&disjoint)), 6);
        // A backup forced over the primary's 0 -> 1 link (a `Q`-link taken
        // for want of another way).
        let overlapping = route(&[0, 1, 4, 5, 2]);
        assert_eq!(changed_links(&primary, Some(&overlapping)), 5);
    }
}
