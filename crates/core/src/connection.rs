//! DR-connection records.

use crate::{ConnectionId, QosRequirement};
use drt_net::Route;
use std::fmt;

/// Lifecycle state of a DR-connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionState {
    /// Primary carries traffic; its backup is registered.
    Protected,
    /// Primary carries traffic; no backup is currently registered (either
    /// none was found, or the backup was consumed/invalidated and not yet
    /// re-established).
    Unprotected,
    /// The primary failed and the connection switched to its (promoted)
    /// backup; it runs unprotected pending reconfiguration.
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

/// One dependable real-time connection: a primary channel, at most one
/// backup channel (PAPER.md §1), and its QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct DrConnection {
    id: ConnectionId,
    qos: QosRequirement,
    primary: Route,
    backup: Option<Route>,
    /// `true` when the backup holds hard (non-multiplexed) reservations —
    /// the dedicated-backup baseline.
    dedicated_backup: bool,
    state: ConnectionState,
}

impl DrConnection {
    /// Creates a connection record; state derives from whether a backup
    /// is present. Used by the manager at admission time.
    pub(crate) fn new(
        id: ConnectionId,
        qos: QosRequirement,
        primary: Route,
        backup: Option<Route>,
        dedicated_backup: bool,
    ) -> Self {
        let state = if backup.is_some() {
            ConnectionState::Protected
        } else {
            ConnectionState::Unprotected
        };
        DrConnection {
            id,
            qos,
            primary,
            backup,
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

    /// The registered backup route, if any.
    pub fn backup(&self) -> Option<&Route> {
        self.backup.as_ref()
    }

    /// The backup as a slice of zero or one route. Kept only while
    /// `drt-benchmark` still reads it.
    pub fn backups(&self) -> &[Route] {
        self.backup.as_slice()
    }

    /// Whether the backup holds a dedicated (non-multiplexed) reservation.
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

    /// Promotes the backup to primary (after a successful activation),
    /// leaving the connection [`ConnectionState::Recovered`] and without
    /// a backup until reconfiguration installs a new one.
    ///
    /// # Panics
    ///
    /// Panics when the connection holds no backup.
    pub(crate) fn promote_backup(&mut self) {
        self.primary = self.backup.take().expect("promote without a backup");
        self.dedicated_backup = false;
        self.state = ConnectionState::Recovered;
    }

    /// Installs the backup route of an unprotected connection, returning
    /// it to [`ConnectionState::Protected`].
    pub(crate) fn install_backup(&mut self, backup: Route, dedicated: bool) {
        debug_assert!(self.backup.is_none(), "a connection holds one backup");
        self.backup = Some(backup);
        self.dedicated_backup = dedicated;
        self.state = ConnectionState::Protected;
    }

    /// Removes the backup registration from the record (resources are
    /// handled by the manager), marking a protected connection
    /// unprotected.
    pub(crate) fn take_backup(&mut self) -> Option<Route> {
        if self.state == ConnectionState::Protected {
            self.state = ConnectionState::Unprotected;
        }
        self.backup.take()
    }
}

impl fmt::Display for DrConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] primary {} hops, ",
            self.id,
            self.state,
            self.primary.len(),
        )?;
        match &self.backup {
            Some(b) => write!(f, "backup {} hops", b.len()),
            None => f.write_str("no backup"),
        }
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
            Some(backup),
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
        c.promote_backup();
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
            None,
            false,
        );
        assert_eq!(u.state(), ConnectionState::Unprotected);
    }

    #[test]
    fn clear_and_reinstall_backup() {
        let (_, mut c) = sample();
        let removed = c.take_backup().unwrap();
        assert_eq!(c.state(), ConnectionState::Unprotected);
        assert!(c.backup().is_none() && c.backups().is_empty());
        c.install_backup(removed, true);
        assert_eq!(c.state(), ConnectionState::Protected);
        assert!(c.backup_is_dedicated());
    }

    #[test]
    #[should_panic(expected = "promote without a backup")]
    fn promote_without_backup_panics() {
        let (_, mut c) = sample();
        c.take_backup();
        c.promote_backup();
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
        assert!(c.to_string().contains("backup 3 hops"));
    }
}
