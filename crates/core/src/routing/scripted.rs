//! A scheme that returns caller-supplied routes, for tests and worked
//! examples.

use crate::routing::{RoutePair, RouteRequest, RoutingOverhead, RoutingScheme};
use crate::{DrtpError, ManagerView};
use drt_net::Route;
use std::collections::VecDeque;

/// Returns pre-scripted route pairs in FIFO order.
///
/// This exists so that the exact channel layouts of the paper's worked
/// examples (Figures 1–3) — and any regression scenario — can be pushed
/// through the full admission/multiplexing/recovery machinery without
/// depending on what a real scheme would pick.
///
/// # Example
///
/// ```
/// use drt_core::routing::{Scripted, RouteRequest, RoutingScheme};
/// use drt_core::{ConnectionId, DrtpManager};
/// use drt_net::{topology, Bandwidth, NodeId, Route};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10))?);
/// let primary = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)])?;
/// let backup = Route::from_nodes(
///     &net,
///     &[NodeId::new(0), NodeId::new(3), NodeId::new(2), NodeId::new(1)],
/// )?;
/// let mut scheme = Scripted::new();
/// scheme.push(primary.clone(), Some(backup));
///
/// let mut mgr = DrtpManager::new(net);
/// let rep = mgr.request_connection(
///     &mut scheme,
///     RouteRequest::new(ConnectionId::new(0), NodeId::new(0), NodeId::new(1),
///                       Bandwidth::from_kbps(3_000)),
/// )?;
/// assert_eq!(rep.primary, primary);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scripted {
    pairs: VecDeque<RoutePair>,
}

impl Scripted {
    /// Creates an empty script.
    pub fn new() -> Self {
        Scripted::default()
    }

    /// Appends a primary/backup pair to the script (multiplexed backup).
    pub fn push(&mut self, primary: Route, backup: Option<Route>) -> &mut Self {
        self.pairs.push_back(RoutePair {
            primary,
            backup,
            dedicated_backup: false,
            overhead: RoutingOverhead::ZERO,
        });
        self
    }

    /// Number of scripted pairs not yet consumed.
    pub fn remaining(&self) -> usize {
        self.pairs.len()
    }
}

impl RoutingScheme for Scripted {
    fn name(&self) -> &'static str {
        "Scripted"
    }

    fn select_routes(
        &mut self,
        _view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError> {
        self.pairs
            .pop_front()
            .ok_or_else(|| DrtpError::InvalidSelection(format!("script exhausted at {}", req.id)))
    }

    fn select_backup(
        &mut self,
        _view: &ManagerView<'_>,
        req: &RouteRequest,
        _primary: &Route,
    ) -> Result<(Route, RoutingOverhead), DrtpError> {
        let pair = self.pairs.pop_front().ok_or_else(|| {
            DrtpError::InvalidSelection(format!("script exhausted at {}", req.id))
        })?;
        pair.backup
            .map(|b| (b, pair.overhead))
            .ok_or(DrtpError::NoBackupRoute(req.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectionId, DrtpManager};
    use drt_net::{topology, Bandwidth, NodeId};
    use std::sync::Arc;

    #[test]
    fn serves_pairs_in_order_then_errors() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let r01 = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let r12 = Route::from_nodes(&net, &[NodeId::new(1), NodeId::new(2)]).unwrap();
        let mut s = Scripted::new();
        s.push(r01.clone(), None).push(r12.clone(), None);
        assert_eq!(s.remaining(), 2);

        let mut mgr = DrtpManager::new(net);
        let req = |id: u64, a: u32, b: u32| {
            crate::routing::RouteRequest::new(
                ConnectionId::new(id),
                NodeId::new(a),
                NodeId::new(b),
                Bandwidth::from_kbps(100),
            )
        };
        assert_eq!(
            mgr.request_connection(&mut s, req(0, 0, 1))
                .unwrap()
                .primary,
            r01
        );
        assert_eq!(
            mgr.request_connection(&mut s, req(1, 1, 2))
                .unwrap()
                .primary,
            r12
        );
        assert!(matches!(
            mgr.request_connection(&mut s, req(2, 2, 3)),
            Err(DrtpError::InvalidSelection(_))
        ));
    }

    #[test]
    fn endpoint_mismatch_is_caught_by_manager() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let r01 = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let mut s = Scripted::new();
        s.push(r01, None);
        let mut mgr = DrtpManager::new(net);
        let req = crate::routing::RouteRequest::new(
            ConnectionId::new(0),
            NodeId::new(2),
            NodeId::new(3),
            Bandwidth::from_kbps(100),
        );
        assert!(matches!(
            mgr.request_connection(&mut s, req),
            Err(DrtpError::InvalidSelection(_))
        ));
    }
}
