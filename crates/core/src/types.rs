//! Core identifier and QoS types.

use drt_net::Bandwidth;
use std::fmt;

/// Identifier of a DR-connection (the paper's `D_i` / `conn-id`).
///
/// Connection ids are chosen by the caller (the experiment harness uses the
/// scenario's dense request indices) and must be unique among *currently
/// known* connections of one [`crate::DrtpManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(u64);

impl ConnectionId {
    /// Creates a connection id.
    pub const fn new(raw: u64) -> Self {
        ConnectionId(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl From<u64> for ConnectionId {
    fn from(raw: u64) -> Self {
        ConnectionId(raw)
    }
}

/// Quality-of-service requirement of a DR-connection.
///
/// The paper's evaluation uses a constant bandwidth per connection and
/// treats end-to-end delay qualitatively ("if D₃'s QoS requirement (e.g.,
/// end-to-end delay) is too tight to use the longer path…"); `max_hops`
/// makes that delay bound concrete as a hop-count cap on both channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosRequirement {
    /// Bandwidth that must be reserved on every link of the primary (and
    /// guaranteed-on-activation for the backup).
    pub bandwidth: Bandwidth,
    /// Optional hop-count cap acting as the delay bound; `None` = no cap.
    pub max_hops: Option<u32>,
}

impl QosRequirement {
    /// A bandwidth-only requirement (no delay bound).
    pub const fn bandwidth_only(bandwidth: Bandwidth) -> Self {
        QosRequirement {
            bandwidth,
            max_hops: None,
        }
    }

    /// Adds a hop-count (delay) cap.
    pub const fn with_max_hops(mut self, hops: u32) -> Self {
        self.max_hops = Some(hops);
        self
    }

    /// Returns `true` when a route of `hops` hops satisfies the delay cap.
    pub fn accepts_hops(&self, hops: usize) -> bool {
        match self.max_hops {
            Some(cap) => hops <= cap as usize,
            None => true,
        }
    }
}

impl fmt::Display for QosRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_hops {
            Some(h) => write!(f, "{} (≤{h} hops)", self.bandwidth),
            None => write!(f, "{}", self.bandwidth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_id_roundtrip() {
        let id = ConnectionId::new(7);
        assert_eq!(id.as_u64(), 7);
        assert_eq!(ConnectionId::from(7u64), id);
        assert_eq!(id.to_string(), "D7");
    }

    #[test]
    fn qos_hop_cap() {
        let q = QosRequirement::bandwidth_only(Bandwidth::from_kbps(3000));
        assert!(q.accepts_hops(1_000));
        let q = q.with_max_hops(4);
        assert!(q.accepts_hops(4));
        assert!(!q.accepts_hops(5));
        assert_eq!(q.to_string(), "3 Mb/s (≤4 hops)");
    }
}
