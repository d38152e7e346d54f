//! Route selection schemes for primary and backup channels.
//!
//! All schemes implement [`RoutingScheme`]: given a read-only
//! [`crate::ManagerView`] of the network state and a [`RouteRequest`], they
//! propose a [`RoutePair`]. The schemes of the paper:
//!
//! * [`PLsr`] — Section 3.1, probabilistic conflict avoidance via
//!   `‖APLV‖₁` link costs;
//! * [`DLsr`] — Section 3.2, deterministic conflict avoidance via
//!   Conflict Vectors;
//! * [`BoundedFlooding`] — Section 4, on-demand discovery by bounded
//!   flooding of channel-discovery packets.
//!
//! Baselines used by the evaluation:
//!
//! * [`PrimaryOnly`] — no backup at all (calibrates capacity overhead);
//! * [`SpfBackup`] — conflict-oblivious shortest disjoint backup;
//! * [`DedicatedDisjoint`] — Suurballe pair with *dedicated* (non-
//!   multiplexed) backup reservations, the ≥50%-overhead strawman the
//!   paper cites.

mod baseline;
mod costs;
mod dlsr;
pub mod flooding;
mod plsr;
mod scripted;

pub use baseline::{DedicatedDisjoint, PrimaryOnly, SpfBackup};
pub use costs::{epsilon, Q};
pub use dlsr::DLsr;
pub use flooding::{BoundedFlooding, FloodingParams};
pub use plsr::PLsr;
pub use scripted::Scripted;

use crate::{ConnectionId, DrtpError, ManagerView, QosRequirement};
use drt_net::{Bandwidth, NodeId, Route};
use std::fmt;
use std::ops::AddAssign;

/// A request to establish one DR-connection: one primary and one backup
/// channel (PAPER.md §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Caller-chosen identifier for the new connection.
    pub id: ConnectionId,
    /// Source (server) node.
    pub src: NodeId,
    /// Destination (client) node.
    pub dst: NodeId,
    /// QoS contract (bandwidth, optional hop cap).
    pub qos: QosRequirement,
}

impl RouteRequest {
    /// A bandwidth-only request.
    pub fn new(id: ConnectionId, src: NodeId, dst: NodeId, bandwidth: Bandwidth) -> Self {
        RouteRequest {
            id,
            src,
            dst,
            qos: QosRequirement::bandwidth_only(bandwidth),
        }
    }

    /// The request unchanged: a connection holds one backup, so there is
    /// no count to set. Kept only while `drt-benchmark` still calls it.
    pub fn with_backups(self, _: OneBackup) -> Self {
        self
    }

    /// The requested bandwidth (`bw_req`).
    pub fn bandwidth(&self) -> Bandwidth {
        self.qos.bandwidth
    }
}

/// The one backup count there is, as a type with a single value: a
/// DR-connection holds one backup (PAPER.md §1). It exists only for the
/// `with_backups(cfg.backups_per_connection)` calls of `drt-benchmark`,
/// and goes with them; `()` would do, but clippy's `unit_arg` refuses a
/// `()` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OneBackup;

/// The routes a scheme proposes for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePair {
    /// The primary channel route.
    pub primary: Route,
    /// The backup channel route, if the scheme found one.
    pub backup: Option<Route>,
    /// `true` when the backup must hold a dedicated (non-multiplexed)
    /// reservation instead of joining the spare pools.
    pub dedicated_backup: bool,
    /// Control-plane cost of discovering these routes.
    pub overhead: RoutingOverhead,
}

/// Control-plane cost of route discovery, for the overhead experiment.
///
/// For the link-state schemes this models the link-state advertisements
/// triggered by the establishment (each changed link floods one LSA to
/// every directed link of the network); for bounded flooding it counts the
/// CDP forwards of the discovery flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingOverhead {
    /// Number of control messages transmitted (link traversals).
    pub messages: u64,
    /// Total control bytes transmitted.
    pub bytes: u64,
}

impl RoutingOverhead {
    /// No overhead.
    pub const ZERO: RoutingOverhead = RoutingOverhead {
        messages: 0,
        bytes: 0,
    };

    /// Creates an overhead record.
    pub fn new(messages: u64, bytes: u64) -> Self {
        RoutingOverhead { messages, bytes }
    }
}

impl AddAssign for RoutingOverhead {
    fn add_assign(&mut self, rhs: RoutingOverhead) {
        self.messages += rhs.messages;
        self.bytes += rhs.bytes;
    }
}

impl fmt::Display for RoutingOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} msgs / {} B", self.messages, self.bytes)
    }
}

/// A primary/backup route selection scheme.
///
/// Implementations must return structurally valid routes: correct
/// endpoints, alive links only. Soft constraints (conflict avoidance,
/// bandwidth headroom of backups) follow each scheme's own rules.
pub trait RoutingScheme {
    /// Short name used in reports ("P-LSR", "D-LSR", "BF", …).
    fn name(&self) -> &'static str;

    /// Selects primary and backup routes for `req`.
    ///
    /// # Errors
    ///
    /// [`DrtpError::NoPrimaryRoute`] when no bandwidth-feasible primary
    /// exists, [`DrtpError::NoBackupRoute`] when the scheme requires a
    /// backup and cannot find one.
    fn select_routes(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
    ) -> Result<RoutePair, DrtpError>;

    /// Selects a backup for an existing primary whose connection holds
    /// none — resource reconfiguration after a recovery or a lost backup
    /// (step 4 of DRTP).
    ///
    /// # Errors
    ///
    /// [`DrtpError::NoBackupRoute`] when no admissible backup exists.
    fn select_backup(
        &mut self,
        view: &ManagerView<'_>,
        req: &RouteRequest,
        primary: &Route,
    ) -> Result<(Route, RoutingOverhead), DrtpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_helpers() {
        let r = RouteRequest::new(
            ConnectionId::new(1),
            NodeId::new(0),
            NodeId::new(5),
            Bandwidth::from_kbps(3000),
        );
        assert_eq!(r.bandwidth(), Bandwidth::from_kbps(3000));
        assert_eq!(r.qos.max_hops, None);
    }

    #[test]
    fn overhead_accumulates() {
        let mut o = RoutingOverhead::ZERO;
        o += RoutingOverhead::new(3, 120);
        o += RoutingOverhead::new(2, 80);
        assert_eq!(o, RoutingOverhead::new(5, 200));
        assert_eq!(o.to_string(), "5 msgs / 200 B");
    }
}
