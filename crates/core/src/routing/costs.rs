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
//!   channel overlapping". We use `ε = 1/(N+1)` so that even a full-length
//!   path accumulates less than one unit of ε-cost: hop count can break
//!   ties but can never outweigh a single conflict.

use crate::routing::RoutingOverhead;
use crate::{BackupFit, DrtpError, ManagerView};
use drt_net::algo::shortest_path_with_floor;
use drt_net::{LinkId, Route};

/// The paper's "very large constant" `Q`. Any path containing a `Q`-link
/// costs more than any path free of them (`Q` exceeds the largest possible
/// conflict sum by many orders of magnitude).
pub const Q: f64 = 1e9;

/// The tie-breaking constant `ε` for a network with `num_links` links.
pub fn epsilon(num_links: usize) -> f64 {
    1.0 / (num_links as f64 + 1.0)
}

/// Selects the minimum-hop primary route among links that are alive and
/// can admit `bw` from their free pool.
pub(crate) fn min_hop_primary(
    view: &ManagerView<'_>,
    src: drt_net::NodeId,
    dst: drt_net::NodeId,
    bw: drt_net::Bandwidth,
) -> Result<Route, DrtpError> {
    shortest_path_with_floor(view.net(), src, dst, 1.0, |l| {
        view.usable_for_primary(l, bw).then_some(1.0)
    })
    .map(|(_, r)| r)
    .ok_or(DrtpError::NoPrimaryRoute(src, dst))
}

/// Selects a backup route by Dijkstra under the LSR cost model:
/// failed links are excluded outright; links on the primary, on any
/// already-selected backup of the same connection (`avoid`), or with
/// insufficient backup headroom cost `Q`; every link additionally costs
/// `conflict_term(l) + ε`.
pub(crate) fn lsr_backup(
    view: &ManagerView<'_>,
    req: &crate::routing::RouteRequest,
    primary: &Route,
    avoid: &[Route],
    conflict_term: impl Fn(LinkId) -> f64,
) -> Result<Route, DrtpError> {
    let eps = epsilon(view.net().num_links());
    let bw = req.bandwidth();
    // The Q-links are a couple of routes: scanning their slices beats
    // building a set per call.
    let on_own_route = |l| primary.contains_link(l) || avoid.iter().any(|r| r.contains_link(l));
    // `q` and the conflict term are non-negative, so every step is ≥ ε.
    shortest_path_with_floor(view.net(), req.src, req.dst, eps, |l| {
        let q = match view.backup_fit(l, bw) {
            BackupFit::Dead => return None,
            BackupFit::Fits if !on_own_route(l) => 0.0,
            BackupFit::Fits | BackupFit::Short => Q,
        };
        Some(q + conflict_term(l) + eps)
    })
    .map(|(_, r)| r)
    .ok_or(DrtpError::NoBackupRoute(req.id))
}

/// Selects up to `req.num_backups` backups sequentially under the LSR cost
/// model, each avoiding the primary and all previously selected backups.
/// Stops early when a new selection would duplicate an earlier one (the
/// graph has run out of meaningfully distinct routes).
pub(crate) fn lsr_backups(
    view: &ManagerView<'_>,
    req: &crate::routing::RouteRequest,
    primary: &Route,
    conflict_term: impl Fn(LinkId) -> f64,
) -> Result<Vec<Route>, DrtpError> {
    let mut backups: Vec<Route> = Vec::new();
    for k in 0..req.num_backups {
        match lsr_backup(view, req, primary, &backups, &conflict_term) {
            Ok(route) => {
                if backups.contains(&route) {
                    break; // no further distinct route exists
                }
                backups.push(route);
            }
            Err(e) if k == 0 => return Err(e),
            Err(_) => break,
        }
    }
    Ok(backups)
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
/// primary's links (available bandwidth moved) plus every backup's links
/// (APLV/CV and spare moved).
pub(crate) fn changed_links(primary: &Route, backups: &[Route]) -> usize {
    // Routes are a handful of links: a link counts unless it appeared
    // earlier in its own route or in an earlier route.
    let routes = || std::iter::once(primary).chain(backups);
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

    #[test]
    fn epsilon_never_outweighs_a_conflict() {
        for n in [1usize, 10, 180, 240, 10_000] {
            // Even a path using every link accumulates < 1 of ε-cost.
            assert!(epsilon(n) * (n as f64) < 1.0);
        }
    }

    #[test]
    fn q_dominates_conflicts() {
        // The largest plausible conflict sum (every connection conflicting
        // on every link) stays far below Q.
        let worst_conflict_sum = 1e6;
        assert!(Q > worst_conflict_sum * 100.0);
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
        assert_eq!(changed_links(&primary, &[]), 2);
        assert_eq!(changed_links(&primary, std::slice::from_ref(&disjoint)), 6);
        // A backup forced over the primary's 0 -> 1 link (a `Q`-link taken
        // for want of another way) and a second one sharing links with both.
        let overlapping = route(&[0, 1, 4, 5, 2]);
        assert_eq!(
            changed_links(&primary, std::slice::from_ref(&overlapping)),
            5
        );
        assert_eq!(changed_links(&primary, &[overlapping, disjoint]), 7);
    }
}
