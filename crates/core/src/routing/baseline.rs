//! Baseline schemes the evaluation compares against.

use crate::routing::costs::{lsa_overhead, min_hop_primary, Q};
use crate::routing::{RoutePair, RouteRequest, RoutingOverhead, RoutingScheme};
use crate::{BackupFit, DrtpError, ManagerView};
use drt_net::algo::{shortest_path, suurballe};
use drt_net::Route;

/// Primary-only admission: no backup at all.
///
/// This is the calibration baseline of the paper's Figure 5 — "we define
/// the difference between the number of D-connections without backups and
/// that of each routing scheme as capacity overhead". The manager admits
/// its backup-less requests unprotected ([`crate::multiplex`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimaryOnly {
    _private: (),
}

impl PrimaryOnly {
    /// Creates the scheme.
    pub fn new() -> Self {
        PrimaryOnly::default()
    }
}

impl RoutingScheme for PrimaryOnly {
    fn name(&self) -> &'static str {
        "NoBackup"
    }

    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        let primary = min_hop_primary(view, req.src, req.dst, req.bandwidth())?;
        // Plain QoS routing still advertises the changed available
        // bandwidths of the primary's links.
        let overhead = lsa_overhead(view.net().num_links(), primary.len(), 8);
        Ok(RoutePair {
            primary,
            backup: None,
            dedicated_backup: false,
            overhead,
        })
    }

    fn select_backup(
        &mut self,
        _view: &ManagerView<'_>,
        req: &RouteRequest,
        _primary: &Route,
    ) -> Result<(Route, RoutingOverhead), DrtpError> {
        Err(DrtpError::NoBackupRoute(req.id))
    }
}

/// Conflict-oblivious backup routing: the backup is simply the shortest
/// bandwidth-feasible route that avoids the primary's links. No APLV, no
/// conflict vectors.
///
/// This isolates the value of conflict awareness: the scheme reserves
/// multiplexed spare exactly like P-LSR/D-LSR but routes blindly, so the
/// fault-tolerance gap between `SpfBackup` and the LSR schemes is the
/// paper's contribution measured directly (the "more sophisticated routing
/// algorithm is necessary" conclusion).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpfBackup {
    _private: (),
}

impl SpfBackup {
    /// Creates the scheme.
    pub fn new() -> Self {
        SpfBackup::default()
    }

    fn backup_route(
        view: &ManagerView<'_>,
        req: &RouteRequest,
        primary: &Route,
    ) -> Result<Route, DrtpError> {
        let bw = req.bandwidth();
        shortest_path(view.net(), req.src, req.dst, |l| {
            let q = match view.backup_fit(l, bw) {
                BackupFit::Dead => return None,
                BackupFit::Fits if !primary.contains_link(l) => 0.0,
                BackupFit::Fits | BackupFit::Short => Q,
            };
            Some(q + 1.0)
        })
        .map(|(_, r)| r)
        .ok_or(DrtpError::NoBackupRoute(req.id))
    }
}

impl RoutingScheme for SpfBackup {
    fn name(&self) -> &'static str {
        "SPF"
    }

    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        let primary = min_hop_primary(view, req.src, req.dst, req.bandwidth())?;
        let backup = Self::backup_route(view, req, &primary)?;
        // Available-bandwidth-only link state (8-byte entries).
        let overhead = lsa_overhead(
            view.net().num_links(),
            crate::routing::costs::changed_links(&primary, Some(&backup)),
            8,
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
    ) -> Result<(Route, RoutingOverhead), DrtpError> {
        let backup = Self::backup_route(view, req, primary)?;
        let overhead = lsa_overhead(view.net().num_links(), backup.len(), 8);
        Ok((backup, overhead))
    }
}

/// Dedicated disjoint backups: the ≥50 %-overhead strawman.
///
/// "equipping each DR-connection even with a single backup disjoint from
/// its primary reduces the network capacity by at least 50 %, which is too
/// expensive to be practically useful" — this scheme reproduces that
/// statement. It reserves the backup's bandwidth *exclusively* (no
/// multiplexing) along the second route of the minimum-total-cost
/// link-disjoint pair (Suurballe's algorithm), so activation never fails,
/// at maximal cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct DedicatedDisjoint {
    _private: (),
}

impl DedicatedDisjoint {
    /// Creates the scheme.
    pub fn new() -> Self {
        DedicatedDisjoint::default()
    }
}

impl RoutingScheme for DedicatedDisjoint {
    fn name(&self) -> &'static str {
        "Dedicated"
    }

    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        let bw = req.bandwidth();
        // Both routes hold hard reservations, so both need free bandwidth.
        let pair = suurballe(view.net(), req.src, req.dst, |l| {
            view.usable_for_primary(l, bw).then_some(1.0)
        });
        let Some(pair) = pair else {
            // Distinguish "no route at all" from "no disjoint pair".
            return match min_hop_primary(view, req.src, req.dst, bw) {
                Ok(_) => Err(DrtpError::NoBackupRoute(req.id)),
                Err(e) => Err(e),
            };
        };
        let overhead = lsa_overhead(
            view.net().num_links(),
            pair.primary.len() + pair.backup.len(),
            8,
        );
        Ok(RoutePair {
            primary: pair.primary,
            backup: Some(pair.backup),
            dedicated_backup: true,
            overhead,
        })
    }

    fn select_backup(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
        primary: &Route,
    ) -> Result<(Route, RoutingOverhead), DrtpError> {
        let bw = req.bandwidth();
        let backup = shortest_path(view.net(), req.src, req.dst, |l| {
            (view.usable_for_primary(l, bw) && !primary.contains_link(l)).then_some(1.0)
        })
        .map(|(_, r)| r)
        .ok_or(DrtpError::NoBackupRoute(req.id))?;
        let overhead = lsa_overhead(view.net().num_links(), backup.len(), 8);
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
    fn primary_only_reserves_no_spare() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let rep = mgr
            .request_connection(&mut PrimaryOnly::new(), req(0, 0, 8))
            .unwrap();
        assert!(rep.backup().is_none());
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
        assert_eq!(mgr.total_prime(), BW.times(rep.primary.len() as u64));
    }

    #[test]
    fn spf_backup_is_disjoint_but_conflict_blind() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = SpfBackup::new();
        let r0 = mgr.request_connection(&mut scheme, req(0, 0, 2)).unwrap();
        let b0 = r0.backup().unwrap();
        assert_eq!(b0.overlap(&r0.primary), 0);
        // A second identical request: SPF picks the same shortest backup,
        // creating a conflict D-LSR would have avoided.
        let r1 = mgr.request_connection(&mut scheme, req(1, 0, 2)).unwrap();
        assert!(r1.conflicted, "SPF is expected to collide");
        mgr.assert_invariants();
    }

    #[test]
    fn dedicated_reserves_both_routes() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let rep = mgr
            .request_connection(&mut DedicatedDisjoint::new(), req(0, 0, 8))
            .unwrap();
        let backup = rep.backup().unwrap();
        assert!(rep.dedicated_backup);
        assert_eq!(backup.overlap(&rep.primary), 0);
        assert_eq!(
            mgr.total_prime(),
            BW.times((rep.primary.len() + backup.len()) as u64),
            "backup holds hard reservations"
        );
        assert_eq!(mgr.total_spare(), Bandwidth::ZERO);
        mgr.assert_invariants();
    }

    #[test]
    fn dedicated_fails_without_disjoint_pair() {
        // A path graph has no disjoint pair.
        let mut b = drt_net::NetworkBuilder::with_nodes(3);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(10))
            .unwrap();
        b.add_duplex_link(NodeId::new(1), NodeId::new(2), Bandwidth::from_mbps(10))
            .unwrap();
        let net = Arc::new(b.build());
        let mut mgr = DrtpManager::new(net);
        let err = mgr
            .request_connection(&mut DedicatedDisjoint::new(), req(0, 0, 2))
            .unwrap_err();
        assert_eq!(err, DrtpError::NoBackupRoute(ConnectionId::new(0)));
    }

    #[test]
    fn names() {
        assert_eq!(PrimaryOnly::new().name(), "NoBackup");
        assert_eq!(SpfBackup::new().name(), "SPF");
        assert_eq!(DedicatedDisjoint::new().name(), "Dedicated");
    }
}
