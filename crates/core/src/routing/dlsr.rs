//! D-LSR: deterministic avoidance of backup conflicts (Section 3.2).

use crate::routing::costs::{
    changed_links, lsa_overhead, lsr_backup, lsr_backups, min_hop_primary,
};
use crate::routing::{RoutePair, RouteRequest, RoutingOverhead, RoutingScheme};
use crate::{DrtpError, ManagerView};
use drt_net::{LinkId, Route};

/// The deterministic link-state routing scheme.
///
/// Every link advertises its *Conflict Vector* `CV_i` — an `N`-bit vector
/// whose bit `j` is set iff at least one primary through `L_j` has its
/// backup on `L_i`. After the new connection's primary `P_x` is fixed, the
/// cost of using `L_i` for the backup is the number of `P_x`'s links that
/// would deterministically conflict there:
///
/// `C_i = Q_i + Σ_{L_j ∈ LSET_{P_x}} c_{i,j} + ε`.
///
/// Compared with P-LSR's scalar norm, the conflict vector tells the router
/// *where* the conflicts lie, so two equally-loaded links can be told apart
/// — the paper's Figure 3 example, where D-LSR detours `B₃` along a longer
/// but conflict-free route that survives the shared failure of `L₁₃`.
///
/// The price is a larger link-state database: `⌈N/8⌉` bytes per link
/// instead of one integer (modelled by this scheme's
/// [`RoutingOverhead`]).
///
/// The cost term is evaluated on the conflict bits each link's
/// [`crate::Aplv`] keeps next to its counts: every relaxed link pays one
/// bit test of `CV_i` per link of the primary — O(|LSET_P|), independent
/// of the network's size.
#[derive(Debug, Clone, Copy, Default)]
pub struct DLsr;

impl DLsr {
    /// Creates the scheme.
    pub fn new() -> Self {
        DLsr
    }

    /// Bytes of one D-LSR link-state entry for a network of `num_links`
    /// links: link id (4) + available bandwidth (4) + the conflict vector.
    fn entry_bytes(num_links: usize) -> u64 {
        8 + num_links.div_ceil(8) as u64
    }

    /// `Σ_{L_j ∈ LSET_P} c_{l,j}` for one candidate backup link `l`.
    fn conflict_term(view: &ManagerView<'_>, l: LinkId, lset: &[LinkId]) -> f64 {
        f64::from(view.conflict_count(l, lset))
    }
}

impl RoutingScheme for DLsr {
    fn name(&self) -> &'static str {
        "D-LSR"
    }

    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        let primary = min_hop_primary(view, req.src, req.dst, req.bandwidth())?;
        let backups = lsr_backups(view, req, &primary, |l| {
            Self::conflict_term(view, l, primary.links())
        })?;
        let overhead = lsa_overhead(
            view.net().num_links(),
            changed_links(&primary, &backups),
            Self::entry_bytes(view.net().num_links()),
        );
        Ok(RoutePair {
            primary,
            backups,
            dedicated_backup: false,
            overhead,
        })
    }

    fn select_backup(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
        primary: &Route,
        existing: &[Route],
    ) -> Result<(Route, RoutingOverhead), DrtpError> {
        let backup = lsr_backup(view, req, primary, existing, |l| {
            Self::conflict_term(view, l, primary.links())
        })?;
        let overhead = lsa_overhead(
            view.net().num_links(),
            backup.len(),
            Self::entry_bytes(view.net().num_links()),
        );
        Ok((backup, overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectionId, DrtpManager};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn req(id: u64, src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(
            ConnectionId::new(id),
            NodeId::new(src),
            NodeId::new(dst),
            BW,
        )
    }

    #[test]
    fn avoids_deterministic_conflicts() {
        // 4x4 mesh, connections between the edge-middle nodes 4 and 7
        // (degree 3 each, so two fully disjoint detours exist around the
        // min-hop primary row 4-5-6-7). Two identical requests: their
        // primaries overlap completely, so D-LSR must route their backups
        // link-disjointly (one above the row, one below).
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let r0 = mgr.request_connection(&mut scheme, req(0, 4, 7)).unwrap();
        let r1 = mgr.request_connection(&mut scheme, req(1, 4, 7)).unwrap();
        let b0 = r0.backup().unwrap();
        let b1 = r1.backup().unwrap();
        assert_eq!(r0.primary.overlap(&r1.primary), 3);
        assert_eq!(
            b0.overlap(b1),
            0,
            "D-LSR must separate the backups of overlapping primaries: {b0} vs {b1}"
        );
        assert!(!r1.conflicted);
        mgr.assert_invariants();
    }

    #[test]
    fn detour_preferred_over_conflict() {
        // Paper Figure 3's lesson: a longer conflict-free backup beats a
        // shorter conflicting one. On a 3x3 mesh between the edge-middle
        // nodes 3 and 5, D0 takes one detour; D1 (same endpoints, fully
        // overlapping primary) must take the other detour even though the
        // conflicting route is equally short.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(100)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let r0 = mgr.request_connection(&mut scheme, req(0, 3, 5)).unwrap();
        let r1 = mgr.request_connection(&mut scheme, req(1, 3, 5)).unwrap();
        let b1 = r1.backup().unwrap();
        assert_eq!(b1.overlap(r0.backup().unwrap()), 0);
        assert!(b1.len() >= 2);
        // No single link failure can activate two contending backups.
        for link in mgr.net().links() {
            assert!(mgr.aplv(link.id()).max_count() <= 1);
        }
    }

    #[test]
    fn forced_overlap_at_low_degree_endpoints_is_tolerated() {
        // Corner-to-corner on a mesh: node 0 has only two exits, one taken
        // by the primary, so *every* backup must share the other exit.
        // D-LSR accepts the unavoidable conflict (Q is a soft penalty)
        // rather than rejecting the connection.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(100)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let r0 = mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();
        let r1 = mgr.request_connection(&mut scheme, req(1, 0, 2)).unwrap();
        assert!(r1.conflicted, "corner exits force a conflict");
        let b0 = r0.backup().unwrap();
        let b1 = r1.backup().unwrap();
        // Overlap is confined to the two forced corner links.
        assert!(b0.overlap(b1) <= 2, "{b0} vs {b1}");
        mgr.assert_invariants();
    }

    #[test]
    fn entry_grows_with_network() {
        assert_eq!(DLsr::entry_bytes(8), 9);
        assert_eq!(DLsr::entry_bytes(180), 8 + 23);
        assert_eq!(DLsr::entry_bytes(240), 8 + 30);
    }

    #[test]
    fn name() {
        assert_eq!(DLsr::new().name(), "D-LSR");
    }
}
