//! DR-connection records.

use crate::{ConnectionId, QosRequirement};
use drt_net::Route;
use std::fmt;

/// Lifecycle state of a DR-connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionState {
    /// Primary carries traffic; at least one backup is registered.
    Protected,
    /// Primary carries traffic; no backup is currently registered (either
    /// none was found, or the backups were consumed/invalidated and not
    /// yet re-established).
    Unprotected,
    /// The primary failed and the connection switched to a (promoted)
    /// backup; remaining backups were released pending reconfiguration.
    Recovered,
    /// The primary failed and no backup could be activated; service is
    /// down.
    Failed,
}

impl ConnectionState {
    /// Returns `true` while the connection is carrying traffic.
    pub fn is_carrying_traffic(self) -> bool {
        !matches!(self, ConnectionState::Failed)
    }
}

impl fmt::Display for ConnectionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionState::Protected => "protected",
            ConnectionState::Unprotected => "unprotected",
            ConnectionState::Recovered => "recovered",
            ConnectionState::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// One dependable real-time connection: a primary channel, zero or more
/// backup channels in activation-priority order, and its QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct DrConnection {
    id: ConnectionId,
    qos: QosRequirement,
    primary: Route,
    backups: Vec<Route>,
    /// `true` when the backups hold hard (non-multiplexed) reservations —
    /// the dedicated-backup baseline.
    dedicated_backup: bool,
    state: ConnectionState,
}

impl DrConnection {
    /// Creates a connection record; state derives from whether any backup
    /// is present. Used by the manager at admission time.
    pub(crate) fn new(
        id: ConnectionId,
        qos: QosRequirement,
        primary: Route,
        backups: Vec<Route>,
        dedicated_backup: bool,
    ) -> Self {
        let state = if backups.is_empty() {
            ConnectionState::Unprotected
        } else {
            ConnectionState::Protected
        };
        DrConnection {
            id,
            qos,
            primary,
            backups,
            dedicated_backup,
            state,
        }
    }

    /// The connection's identifier.
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// The QoS contract.
    pub fn qos(&self) -> QosRequirement {
        self.qos
    }

    /// The route currently carrying (or contracted to carry) traffic.
    pub fn primary(&self) -> &Route {
        &self.primary
    }

    /// The highest-priority registered backup route, if any.
    pub fn backup(&self) -> Option<&Route> {
        self.backups.first()
    }

    /// All registered backup routes in activation-priority order.
    pub fn backups(&self) -> &[Route] {
        &self.backups
    }

    /// Whether the backups hold dedicated (non-multiplexed) reservations.
    pub fn backup_is_dedicated(&self) -> bool {
        self.dedicated_backup
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnectionState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: ConnectionState) {
        self.state = state;
    }

    /// Promotes the backup at `index` to primary (after a successful
    /// activation), removing *all* backups from the record; the manager
    /// releases the others' resources and may later re-protect via
    /// reconfiguration. The connection becomes
    /// [`ConnectionState::Recovered`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub(crate) fn promote_backup(&mut self, index: usize) -> Vec<Route> {
        assert!(index < self.backups.len(), "promote of unknown backup");
        let mut rest = std::mem::take(&mut self.backups);
        let promoted = rest.remove(index);
        self.primary = promoted;
        self.dedicated_backup = false;
        self.state = ConnectionState::Recovered;
        rest
    }

    /// Installs an additional backup route (appended at lowest priority),
    /// returning the connection to [`ConnectionState::Protected`].
    pub(crate) fn install_backup(&mut self, backup: Route, dedicated: bool) {
        self.backups.push(backup);
        self.dedicated_backup = dedicated;
        self.state = ConnectionState::Protected;
    }

    /// Removes all backup registrations from the record (resources are
    /// handled by the manager), marking the connection unprotected.
    pub(crate) fn clear_backups(&mut self) -> Vec<Route> {
        let out = std::mem::take(&mut self.backups);
        if self.state == ConnectionState::Protected {
            self.state = ConnectionState::Unprotected;
        }
        out
    }

    /// Removes the backup at `index` only (e.g. invalidated by a failure
    /// on its route), updating the state if none remain.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub(crate) fn remove_backup(&mut self, index: usize) -> Route {
        let r = self.backups.remove(index);
        if self.backups.is_empty() && self.state == ConnectionState::Protected {
            self.state = ConnectionState::Unprotected;
        }
        r
    }
}

impl fmt::Display for DrConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] primary {} hops, {} backup(s)",
            self.id,
            self.state,
            self.primary.len(),
            self.backups.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::{topology, Bandwidth, NodeId};

    fn sample() -> (drt_net::Network, DrConnection) {
        let net = topology::ring(5, Bandwidth::from_mbps(10)).unwrap();
        let primary =
            Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
        let backup = Route::from_nodes(
            &net,
            &[
                NodeId::new(0),
                NodeId::new(4),
                NodeId::new(3),
                NodeId::new(2),
            ],
        )
        .unwrap();
        let conn = DrConnection::new(
            ConnectionId::new(1),
            QosRequirement::bandwidth_only(Bandwidth::from_kbps(3000)),
            primary,
            vec![backup],
            false,
        );
        (net, conn)
    }

    #[test]
    fn protected_lifecycle() {
        let (_, mut c) = sample();
        assert_eq!(c.state(), ConnectionState::Protected);
        assert!(c.state().is_carrying_traffic());
        assert_eq!(c.primary().len(), 2);
        assert_eq!(c.backup().unwrap().len(), 3);
        assert_eq!(c.backups().len(), 1);
        let rest = c.promote_backup(0);
        assert!(rest.is_empty());
        assert_eq!(c.state(), ConnectionState::Recovered);
        assert_eq!(c.primary().len(), 3);
        assert!(c.backup().is_none());
    }

    #[test]
    fn unprotected_when_no_backup() {
        let (_, c) = sample();
        let u = DrConnection::new(
            ConnectionId::new(2),
            c.qos(),
            c.primary().clone(),
            Vec::new(),
            false,
        );
        assert_eq!(u.state(), ConnectionState::Unprotected);
    }

    #[test]
    fn clear_and_reinstall_backup() {
        let (_, mut c) = sample();
        let removed = c.clear_backups();
        assert_eq!(removed.len(), 1);
        assert_eq!(c.state(), ConnectionState::Unprotected);
        c.install_backup(removed.into_iter().next().unwrap(), true);
        assert_eq!(c.state(), ConnectionState::Protected);
        assert!(c.backup_is_dedicated());
    }

    #[test]
    fn multiple_backups_priority_order() {
        let (net, mut c) = sample();
        let second =
            Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
        c.install_backup(second.clone(), false);
        assert_eq!(c.backups().len(), 2);
        assert_ne!(c.backup().unwrap(), &second, "first backup keeps priority");

        // Promoting the SECOND backup returns the first as released rest.
        let rest = c.promote_backup(1);
        assert_eq!(rest.len(), 1);
        assert_eq!(c.primary(), &second);
        assert_eq!(c.state(), ConnectionState::Recovered);
    }

    #[test]
    fn remove_single_backup_unprotects() {
        let (_, mut c) = sample();
        let _ = c.remove_backup(0);
        assert_eq!(c.state(), ConnectionState::Unprotected);
        assert!(c.backups().is_empty());
    }

    #[test]
    #[should_panic(expected = "promote of unknown backup")]
    fn promote_without_backup_panics() {
        let (_, mut c) = sample();
        c.clear_backups();
        c.promote_backup(0);
    }

    #[test]
    fn failed_state_not_carrying() {
        assert!(!ConnectionState::Failed.is_carrying_traffic());
        assert_eq!(ConnectionState::Failed.to_string(), "failed");
    }

    #[test]
    fn display() {
        let (_, c) = sample();
        assert!(c.to_string().contains("D1 [protected]"));
        assert!(c.to_string().contains("1 backup(s)"));
    }
}
