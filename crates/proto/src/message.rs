//! The control packets of DRTP.

use drt_core::ConnectionId;
use drt_net::{Bandwidth, LinkId, NodeId, Route};
use std::fmt;

/// What a walk packet does at each hop of its route — the only thing
/// that distinguishes the five path-walking operations of DRTP.
///
/// | op | applies at each hop | can nack | answered by |
/// |----|---------------------|----------|-------------|
/// | `PrimarySetup` | reserve primary bandwidth | yes (pool short, link dead) | `setup-result` |
/// | `BackupRegister` | register the backup, update the APLV from the LSET | no | `setup-result` |
/// | `PrimaryRelease` | release this route's primary entry and reservation | no | `release-result` |
/// | `BackupRelease` | unregister this route's backup entry | no | `release-result` |
/// | `ChannelSwitch` | activate the backup: spare/free → primary | yes (pools short, link dead) | `switch-result` |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOp {
    /// Reserve primary bandwidth hop by hop.
    PrimarySetup,
    /// The paper's backup-path register packet (carries the LSET).
    BackupRegister,
    /// Release the primary reservation at termination.
    PrimaryRelease,
    /// The paper's backup-path release packet (carries the LSET).
    BackupRelease,
    /// Activate a backup hop by hop: each router converts activation
    /// bandwidth (spare, then free) into a primary reservation.
    ChannelSwitch,
}

impl WalkOp {
    /// Label of the walk packet, for traces and counters.
    pub fn kind(self) -> &'static str {
        match self {
            WalkOp::PrimarySetup => "primary-setup",
            WalkOp::BackupRegister => "backup-register",
            WalkOp::PrimaryRelease => "primary-release",
            WalkOp::BackupRelease => "backup-release",
            WalkOp::ChannelSwitch => "channel-switch",
        }
    }

    /// Label of the result packet that answers the walk.
    fn result_kind(self) -> &'static str {
        match self {
            WalkOp::PrimarySetup | WalkOp::BackupRegister => "setup-result",
            WalkOp::PrimaryRelease | WalkOp::BackupRelease => "release-result",
            WalkOp::ChannelSwitch => "switch-result",
        }
    }

    /// Whether the walk carries the primary's `LSET` ("it includes the
    /// LSET of the corresponding primary route in a backup-path register
    /// packet and a backup-path release packet").
    pub fn carries_lset(self) -> bool {
        matches!(self, WalkOp::BackupRegister | WalkOp::BackupRelease)
    }

    /// Whether a hop can refuse the op (it claims bandwidth that may be
    /// gone); the others are idempotent no-ops where nothing is held.
    pub fn can_nack(self) -> bool {
        matches!(self, WalkOp::PrimarySetup | WalkOp::ChannelSwitch)
    }
}

/// A path-walking packet: *source-routed*, it carries its route and the
/// index of the hop being processed, exactly like the paper's register
/// packets ("the router forwards the request to the next router in the
/// backup path").
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    /// What each hop applies.
    pub op: WalkOp,
    /// The connection the walk acts for.
    pub conn: ConnectionId,
    /// Per-link bandwidth of the connection.
    pub bw: Bandwidth,
    /// The route being walked.
    pub route: Route,
    /// The primary route's link set (`LSET`); empty unless
    /// [`WalkOp::carries_lset`].
    pub primary_lset: Vec<LinkId>,
    /// Index of the link being processed.
    pub hop: usize,
    /// Transaction sequence number (unique per source operation).
    pub seq: u64,
    /// Retransmission attempt (1 = first transmission).
    pub attempt: u32,
}

/// A DRTP control packet in flight.
///
/// Report/ack/result packets travel back to an endpoint in one delivery
/// whose latency accounts for the hops crossed.
///
/// The control plane may be lossy (see [`crate::ChaosConfig`]), so every
/// source-initiated operation is a *transaction*: walks carry a `seq`
/// unique per source operation plus an `attempt` counter bumped on each
/// retransmission, results and acks echo the `seq`, and routers keep a
/// per-`(conn, seq)` dedup record so replayed walks never double-apply
/// (see [`crate::JournalRecord::GateWalk`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// One hop of a path walk.
    Walk(Walk),
    /// Walk outcome delivered to the source by the last router (or, with
    /// `ok: false`, by the hop that refused), so the source can stop
    /// retransmitting; the `seq` says which transaction.
    WalkResult {
        /// The op of the walk being answered.
        op: WalkOp,
        /// The connection the result is for.
        conn: ConnectionId,
        /// `true` when the walk completed end to end.
        ok: bool,
        /// Sequence of the transaction being answered.
        seq: u64,
    },
    /// Failure report from the detecting router to a connection's source
    /// (step 3 of DRTP: "failure reporting and channel switching").
    /// Retransmitted by the detector until a [`Packet::ReportAck`] returns.
    FailureReport {
        /// The affected connection.
        conn: ConnectionId,
        /// The failed link.
        link: LinkId,
        /// The detecting router. Usually the link's source endpoint, but
        /// after a router crash the *surviving* endpoint of each incident
        /// link reports — the ack must return to whoever detected.
        reporter: NodeId,
        /// Detector-side transaction sequence number.
        seq: u64,
        /// Retransmission attempt (1 = first transmission).
        attempt: u32,
    },
    /// Source-to-detector ack stopping failure-report retransmission.
    ReportAck {
        /// The affected connection.
        conn: ConnectionId,
        /// Sequence of the report being acknowledged.
        seq: u64,
    },
}

impl Packet {
    /// The connection this packet concerns.
    pub fn conn(&self) -> ConnectionId {
        match self {
            Packet::Walk(Walk { conn, .. })
            | Packet::WalkResult { conn, .. }
            | Packet::FailureReport { conn, .. }
            | Packet::ReportAck { conn, .. } => *conn,
        }
    }

    /// The transaction sequence number this packet carries.
    pub fn seq(&self) -> u64 {
        match self {
            Packet::Walk(Walk { seq, .. })
            | Packet::WalkResult { seq, .. }
            | Packet::FailureReport { seq, .. }
            | Packet::ReportAck { seq, .. } => *seq,
        }
    }

    /// Stamps a retransmission attempt onto a walk/report packet. No-op
    /// for results and acks (they are regenerated, not retransmitted).
    pub fn set_attempt(&mut self, a: u32) {
        match self {
            Packet::Walk(Walk { attempt, .. }) | Packet::FailureReport { attempt, .. } => {
                *attempt = a
            }
            Packet::WalkResult { .. } | Packet::ReportAck { .. } => {}
        }
    }

    /// Approximate wire size in bytes (fixed header — which carries the
    /// sequence/attempt stamps — plus 4 bytes per carried link id), for
    /// control-traffic accounting.
    pub fn wire_bytes(&self) -> u64 {
        const HEADER: u64 = 24;
        match self {
            Packet::Walk(w) => HEADER + 4 * (w.route.len() + w.primary_lset.len()) as u64,
            _ => HEADER,
        }
    }

    /// Short label for traces and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Packet::Walk(w) => w.op.kind(),
            Packet::WalkResult { op, .. } => op.result_kind(),
            Packet::FailureReport { .. } => "failure-report",
            Packet::ReportAck { .. } => "report-ack",
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} #{}]", self.kind(), self.conn(), self.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_net::{topology, NodeId};

    fn walk(op: WalkOp, route: Route, primary_lset: Vec<LinkId>) -> Packet {
        Packet::Walk(Walk {
            op,
            conn: ConnectionId::new(1),
            bw: Bandwidth::from_kbps(100),
            route,
            primary_lset,
            hop: 0,
            seq: 1,
            attempt: 1,
        })
    }

    #[test]
    fn kinds_and_wire_bytes_are_pinned() {
        let net = topology::ring(5, Bandwidth::from_mbps(10)).unwrap();
        let route =
            Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
        // (op, LSET links carried, walk kind, walk bytes, result kind):
        // 24-byte header + 4 per carried link id, route and LSET alike.
        let table = [
            (WalkOp::PrimarySetup, 0, "primary-setup", 32, "setup-result"),
            (
                WalkOp::BackupRegister,
                2,
                "backup-register",
                40,
                "setup-result",
            ),
            (
                WalkOp::PrimaryRelease,
                0,
                "primary-release",
                32,
                "release-result",
            ),
            (
                WalkOp::BackupRelease,
                3,
                "backup-release",
                44,
                "release-result",
            ),
            (
                WalkOp::ChannelSwitch,
                0,
                "channel-switch",
                32,
                "switch-result",
            ),
        ];
        for (op, lset_len, kind, bytes, result_kind) in table {
            assert_eq!(op.carries_lset(), lset_len > 0, "{op:?}");
            let lset = (0..lset_len).map(LinkId::new).collect();
            let pkt = walk(op, route.clone(), lset);
            assert_eq!((pkt.kind(), pkt.wire_bytes()), (kind, bytes), "{op:?}");
            let result = Packet::WalkResult {
                op,
                conn: ConnectionId::new(1),
                ok: true,
                seq: 1,
            };
            assert_eq!((result.kind(), result.wire_bytes()), (result_kind, 24));
        }
        let ack = Packet::ReportAck {
            conn: ConnectionId::new(1),
            seq: 3,
        };
        assert_eq!(ack.wire_bytes(), 24);
    }

    #[test]
    fn labels_and_conn() {
        let p = Packet::FailureReport {
            conn: ConnectionId::new(7),
            link: LinkId::new(3),
            reporter: NodeId::new(1),
            seq: 9,
            attempt: 2,
        };
        assert_eq!(p.kind(), "failure-report");
        assert_eq!(p.conn(), ConnectionId::new(7));
        assert_eq!(p.seq(), 9);
        assert_eq!(p.to_string(), "failure-report[D7 #9]");
    }

    #[test]
    fn attempt_stamping_skips_results() {
        let net = topology::ring(4, Bandwidth::from_mbps(10)).unwrap();
        let route = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let mut pkt = walk(WalkOp::PrimarySetup, route, Vec::new());
        pkt.set_attempt(3);
        assert!(matches!(pkt, Packet::Walk(Walk { attempt: 3, .. })));
        let mut res = Packet::WalkResult {
            op: WalkOp::ChannelSwitch,
            conn: ConnectionId::new(1),
            ok: true,
            seq: 1,
        };
        let before = res.clone();
        res.set_attempt(9);
        assert_eq!(res, before);
    }
}
