//! What the engine counts but never acts on: per-kind control traffic,
//! recovery episodes, and the crash-recovery tally. None of it feeds
//! `ProtocolSim::fingerprint`.

use crate::message::Packet;
use drt_core::ConnectionId;
use drt_net::LinkId;
use drt_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Per-kind traffic totals, split into first transmissions and retries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KindTraffic {
    /// Messages transmitted (including retransmissions).
    msgs: u64,
    /// Bytes transmitted (including retransmissions).
    bytes: u64,
    /// Messages that were retransmissions.
    retry_msgs: u64,
    /// Bytes that were retransmissions.
    retry_bytes: u64,
}

/// Control-traffic accounting, per packet kind. Counts *transmissions*
/// at the sender: packets later dropped or duplicated by the chaotic
/// network still cost their wire bytes exactly once here.
#[derive(Debug, Clone, Default)]
pub struct TrafficCounters {
    by_kind: BTreeMap<&'static str, KindTraffic>,
}

impl TrafficCounters {
    pub(super) fn record(&mut self, pkt: &Packet, retry: bool) {
        let bytes = pkt.wire_bytes();
        let e = self.by_kind.entry(pkt.kind()).or_default();
        e.msgs += 1;
        e.bytes += bytes;
        if retry {
            e.retry_msgs += 1;
            e.retry_bytes += bytes;
        }
    }

    /// `(messages, bytes)` transmitted for one packet kind, including
    /// retransmissions.
    pub fn kind(&self, kind: &str) -> (u64, u64) {
        let t = self.kind_traffic(kind);
        (t.msgs, t.bytes)
    }

    /// Full split counters for one packet kind.
    fn kind_traffic(&self, kind: &str) -> KindTraffic {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// Total `(messages, bytes)` across all kinds.
    pub fn total(&self) -> (u64, u64) {
        self.by_kind
            .values()
            .fold((0, 0), |(m, b), t| (m + t.msgs, b + t.bytes))
    }

    /// Total `(messages, bytes)` that were retransmissions.
    pub fn retransmitted(&self) -> (u64, u64) {
        self.by_kind
            .values()
            .fold((0, 0), |(m, b), t| (m + t.retry_msgs, b + t.retry_bytes))
    }

    /// Iterates `(kind, messages, bytes)` in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.by_kind.iter().map(|(&k, t)| (k, t.msgs, t.bytes))
    }
}

impl fmt::Display for TrafficCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, b) = self.total();
        let (rm, _) = self.retransmitted();
        write!(f, "{m} control messages, {b} bytes")?;
        if rm > 0 {
            write!(f, " ({rm} retransmissions)")?;
        }
        Ok(())
    }
}

/// One recovery episode at a connection's source: from accepting the
/// failure report to reaching [`crate::ConnOutcome::Switched`] or
/// [`crate::ConnOutcome::Lost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The affected connection.
    pub conn: ConnectionId,
    /// The reported link.
    pub link: LinkId,
    /// When the source accepted the report.
    pub reported_at: SimTime,
    /// When switching concluded (either way).
    pub resolved_at: SimTime,
    /// `true` when a backup was activated end-to-end.
    pub recovered: bool,
}

impl RecoveryRecord {
    /// Source-side recovery latency (report accepted → resolution).
    pub fn latency(&self) -> SimDuration {
        self.resolved_at.saturating_since(self.reported_at)
    }
}

/// Crash-recovery observability: restart counts, journal replay volume
/// and degraded rejoins. Returned by
/// [`crate::ProtocolSim::journal_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Routers that completed a restart (either [`crate::RestartMode`]).
    pub restarts: u64,
    /// Journal tail records replayed across all journaled restarts.
    pub replayed_records: u64,
    /// Journaled rejoins that fell back to the crashed-router detection
    /// path because their replay hit a corrupted journal.
    pub degraded_rejoins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{r, walk};
    use crate::message::WalkOp;
    use drt_net::{topology, Bandwidth};

    #[test]
    fn counters_split_retransmissions() {
        let mut c = TrafficCounters::default();
        let net = topology::ring(4, Bandwidth::from_mbps(10)).unwrap();
        let pkt = Packet::Walk(walk(WalkOp::PrimarySetup, r(&net, &[0, 1]), 0, 1, 1));
        c.record(&pkt, false);
        c.record(&pkt, true);
        let t = c.kind_traffic("primary-setup");
        assert_eq!(t.msgs, 2);
        assert_eq!(t.retry_msgs, 1);
        assert_eq!(t.bytes, 2 * pkt.wire_bytes());
        assert_eq!(t.retry_bytes, pkt.wire_bytes());
        assert_eq!(c.kind("primary-setup"), (2, 2 * pkt.wire_bytes()));
        assert_eq!(c.retransmitted(), (1, pkt.wire_bytes()));
        assert!(c.to_string().contains("(1 retransmissions)"));
    }
}
