//! P-LSR: probabilistic avoidance of backup conflicts (Section 3.1).

use crate::routing::costs::{changed_links, lsa_overhead, lsr_backup, min_hop_primary};
use crate::routing::{RoutePair, RouteRequest, RoutingOverhead, RoutingScheme};
use crate::{DrtpError, ManagerView};
use drt_net::Route;

/// The probabilistic link-state routing scheme.
///
/// Every link advertises the single scalar `‖APLV_i‖₁` (plus its available
/// bandwidth) in its link-state entry. The paper shows that maximising the
/// probability of successful backup activation,
/// `Φ_B = Π_i q_{B,i}` with
/// `q_{B,i} = M^{‖APLV_i‖₁}`, `M = (N − |LSET_P|)/N < 1`,
/// is equivalent to finding the route minimising `Σ_i ‖APLV_i‖₁` — a plain
/// shortest-path problem with `‖APLV_i‖₁` as the link cost. The full link
/// cost is `C_i = Q_i + ‖APLV_i‖₁ + ε`, built as an exact integer key whose
/// conflict field is `‖APLV_i‖₁` (see `routing/costs.rs`).
///
/// P-LSR needs the least link-state of the conflict-aware schemes — one
/// integer per link — but cannot tell *where* the conflicts of two
/// same-norm links lie, which is exactly the gap D-LSR closes (and why the
/// paper finds the D-LSR/P-LSR gap widens under hotspot traffic).
///
/// # Example
///
/// ```
/// use drt_core::routing::{PLsr, RouteRequest, RoutingScheme};
/// use drt_core::{ConnectionId, DrtpManager};
/// use drt_net::{topology, Bandwidth, NodeId};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10))?);
/// let mut mgr = DrtpManager::new(net);
/// let report = mgr.request_connection(
///     &mut PLsr::new(),
///     RouteRequest::new(ConnectionId::new(0), NodeId::new(0), NodeId::new(8),
///                       Bandwidth::from_kbps(3_000)),
/// )?;
/// let backup = report.backup().expect("mesh has disjoint routes");
/// assert_eq!(backup.overlap(&report.primary), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PLsr {
    _private: (),
}

/// Bytes of one P-LSR link-state entry: link id (4) + `‖APLV‖₁` (4) +
/// available bandwidth (4).
const PLSR_ENTRY_BYTES: u64 = 12;

impl PLsr {
    /// Creates the scheme.
    pub fn new() -> Self {
        PLsr::default()
    }
}

impl RoutingScheme for PLsr {
    fn name(&self) -> &'static str {
        "P-LSR"
    }

    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        let primary = min_hop_primary(view, req.src, req.dst, req.bandwidth())?;
        let backup = lsr_backup(view, req, &primary, |l| view.l1_norm(l))?;
        let overhead = lsa_overhead(
            view.net().num_links(),
            changed_links(&primary, Some(&backup)),
            PLSR_ENTRY_BYTES,
        );
        Ok(RoutePair {
            primary,
            backup: Some(backup),
            dedicated_backup: false,
            overhead,
        })
    }

    fn select_backup(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
        primary: &Route,
    ) -> Result<(Route, bool, RoutingOverhead), DrtpError> {
        let backup = lsr_backup(view, req, primary, |l| view.l1_norm(l))?;
        let overhead = lsa_overhead(view.net().num_links(), backup.len(), PLSR_ENTRY_BYTES);
        Ok((backup, false, overhead))
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
    fn backup_avoids_primary_when_possible() {
        let net = Arc::new(topology::mesh(4, 4, Bandwidth::from_mbps(100)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let rep = mgr
            .request_connection(&mut PLsr::new(), req(0, 0, 15))
            .unwrap();
        let b = rep.backup().unwrap();
        assert_eq!(b.overlap(&rep.primary), 0);
        assert!(rep.overhead.messages > 0);
    }

    #[test]
    fn prefers_low_norm_links() {
        // Ring of 6: establish 0->3 (primary one way, backup the other).
        // A second 0->3 connection's backup must take the side with less
        // accumulated conflict mass — symmetric here, so just verify the
        // cost model avoids the primary's side.
        let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(100)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let rep = mgr
            .request_connection(&mut PLsr::new(), req(0, 0, 3))
            .unwrap();
        let b = rep.backup().unwrap();
        assert_eq!(b.overlap(&rep.primary), 0);
        assert_eq!(rep.primary.len() + b.len(), 6);
    }

    #[test]
    fn no_route_errors() {
        // Disconnect by exhausting bandwidth: capacity below the request.
        let net = Arc::new(topology::ring(4, Bandwidth::from_kbps(1)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let err = mgr
            .request_connection(&mut PLsr::new(), req(0, 0, 2))
            .unwrap_err();
        assert!(matches!(err, DrtpError::NoPrimaryRoute(_, _)));
    }

    #[test]
    fn name() {
        assert_eq!(PLsr::new().name(), "P-LSR");
    }
}
