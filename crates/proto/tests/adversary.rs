//! Byzantine-adversary behavior at the message level, and the report
//! verification countermeasure the engine always runs.
//!
//! A lie about a healthy link is `ProtocolSim::spoof_failure_report`;
//! interception and suppression are [`Byzantine`], a fate source that
//! drops the packets a hostile router would swallow.
//!
//! Geometry shared by every test: ring of 4, connection 0→2 with the
//! two-hop primary 0→1→2 and the backup 0→3→2. Node 1 is a transit
//! router of the primary: it holds a channel-table entry for the route
//! and is the honest detector for link 1→2 — which makes it the natural
//! byzantine liar, and makes its silence (suppression) or quarantine
//! actually cost the connection something.

use drt_core::orchestrator::SUSPICION_THRESHOLD;
use drt_core::ConnectionId;
use drt_net::{topology, Bandwidth, LinkId, Network, NodeId, Route};
use drt_proto::{
    ChaosConfig, ConnOutcome, DeliveryFate, FateSource, Packet, ProtocolConfig, ProtocolSim,
    RetryConfig, SeededBug,
};
use std::sync::Arc;

const BW: Bandwidth = Bandwidth::from_kbps(3_000);
const CONN: ConnectionId = ConnectionId::new(0);

/// A hostile control plane: drops what a byzantine router swallows, and
/// delivers everything else once, on time.
#[derive(Debug, Default)]
struct Byzantine {
    /// Every delivery of this packet kind is intercepted.
    intercepts: Option<&'static str>,
    /// Every failure report this router sources is suppressed.
    suppresses: Option<NodeId>,
}

impl FateSource for Byzantine {
    fn decide(&mut self, pkt: &Packet, _hops: u64) -> DeliveryFate {
        let suppressed = matches!(pkt, Packet::FailureReport { reporter, .. }
            if Some(*reporter) == self.suppresses);
        if suppressed || self.intercepts == Some(pkt.kind()) {
            DeliveryFate::dropped()
        } else {
            DeliveryFate::clean()
        }
    }
}

fn sim_with(net: &Arc<Network>, byzantine: Byzantine) -> ProtocolSim {
    ProtocolSim::with_fates(
        Arc::clone(net),
        ProtocolConfig::default(),
        RetryConfig::default(),
        ChaosConfig::default(),
        Box::new(byzantine),
    )
}

struct Ring {
    sim: ProtocolSim,
    /// 0→1: detected by honest node 0 on real failure.
    first_hop: LinkId,
    /// 1→2: detected by (possibly byzantine) node 1 on real failure.
    second_hop: LinkId,
}

fn ring_with(byzantine: Byzantine) -> Ring {
    let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
    let primary =
        Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
    let backup =
        Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(3), NodeId::new(2)]).unwrap();
    let first_hop = primary.links()[0];
    let second_hop = primary.links()[1];
    let mut sim = sim_with(&net, byzantine);
    sim.establish(CONN, BW, primary, vec![backup]);
    sim.run_to_quiescence();
    assert_eq!(sim.outcome(CONN), Some(ConnOutcome::Established));
    Ring {
        sim,
        first_hop,
        second_hop,
    }
}

/// Undefended ([`SeededBug::TrustReports`]), a fabricated failure report
/// is indistinguishable from an honest one: the source performs a full
/// (spurious) switchover off a perfectly healthy primary.
#[test]
fn false_report_forces_spurious_switchover_when_undefended() {
    let mut ring = ring_with(Byzantine::default());
    ring.sim.seed_bug(SeededBug::TrustReports);
    assert!(ring
        .sim
        .spoof_failure_report(NodeId::new(1), ring.second_hop));
    ring.sim.run_to_quiescence();
    assert_eq!(
        ring.sim.outcome(CONN),
        Some(ConnOutcome::Switched),
        "the lie must trigger a real switchover"
    );
    assert_eq!(ring.sim.recovery_log().len(), 1);
    assert!(ring.sim.recovery_log()[0].recovered);
}

/// The engine verifies reports, so the same lie is rejected — the
/// failed-link mask does not corroborate it — and only raises the
/// reporter's suspicion score.
#[test]
fn false_report_is_rejected_when_defended() {
    let mut ring = ring_with(Byzantine::default());
    ring.sim
        .spoof_failure_report(NodeId::new(1), ring.second_hop);
    ring.sim.run_to_quiescence();
    assert_eq!(
        ring.sim.outcome(CONN),
        Some(ConnOutcome::Established),
        "a vetted lie must not move the connection"
    );
    assert!(ring.sim.recovery_log().is_empty());
    assert_eq!(ring.sim.suspicion_of(NodeId::new(1)), 1);
    assert_eq!(ring.sim.suspicion_of(NodeId::new(0)), 0);
}

/// A reporter past the suspicion threshold is quarantined: even its
/// *truthful* report is ignored, stranding the source on a dead primary.
/// The cost of crying wolf is borne by the victim — exactly the
/// degradation the adversarial campaigns measure. An honest report from
/// an unquarantined router still goes through.
#[test]
fn quarantined_reporter_is_ignored_even_when_truthful() {
    let mut ring = ring_with(Byzantine::default());
    for _ in 0..SUSPICION_THRESHOLD {
        ring.sim
            .spoof_failure_report(NodeId::new(1), ring.second_hop);
        ring.sim.run_to_quiescence();
    }
    assert_eq!(ring.sim.suspicion_of(NodeId::new(1)), SUSPICION_THRESHOLD);

    // Now link 1→2 really fails. Its only detector is node 1 — which is
    // quarantined, so the truthful report dies at the source and the
    // connection never learns its primary is gone.
    ring.sim.fail_link(ring.second_hop);
    ring.sim.run_to_quiescence();
    assert_eq!(
        ring.sim.outcome(CONN),
        Some(ConnOutcome::Established),
        "a quarantined truth-teller cannot trigger the switchover"
    );
    // Quarantine short-circuits before scoring: suspicion stays put.
    assert_eq!(ring.sim.suspicion_of(NodeId::new(1)), SUSPICION_THRESHOLD);

    // The unquarantined detector (node 0, for link 0→1) still gets its
    // honest report through: the connection finally switches.
    ring.sim.fail_link(ring.first_hop);
    ring.sim.run_to_quiescence();
    assert_eq!(
        ring.sim.outcome(CONN),
        Some(ConnOutcome::Switched),
        "an honest, unquarantined report must still recover"
    );
}

/// A link that has already failed cannot be lied about: the spoof is
/// refused and nothing is scheduled — a script that fails a link and
/// then spoofs it (each step drained first) runs on instead of panicking.
#[test]
fn spoofing_a_failed_link_is_refused() {
    let mut ring = ring_with(Byzantine::default());
    ring.sim.fail_link(ring.second_hop);
    ring.sim.run_to_quiescence();
    assert_eq!(ring.sim.outcome(CONN), Some(ConnOutcome::Switched));
    assert!(!ring
        .sim
        .spoof_failure_report(NodeId::new(1), ring.second_hop));
    assert_eq!(ring.sim.pending(), 0, "a refused spoof schedules nothing");
    ring.sim.run_to_quiescence();
    assert_eq!(ring.sim.recovery_log().len(), 1);
}

/// A byzantine detector suppresses its report of a real failure: link
/// 1→2's only detector is byzantine node 1, so the source never learns
/// its primary died. A failure whose detector is honest (link 0→1,
/// detected by node 0) still recovers.
#[test]
fn suppression_strands_the_source_when_the_detector_is_byzantine() {
    let byzantine = || Byzantine {
        suppresses: Some(NodeId::new(1)),
        ..Byzantine::default()
    };
    let mut ring = ring_with(byzantine());
    ring.sim.fail_link(ring.second_hop);
    ring.sim.run_to_quiescence();
    assert_eq!(
        ring.sim.outcome(CONN),
        Some(ConnOutcome::Established),
        "the suppressed report strands the source on a dead primary"
    );

    let mut honest = ring_with(byzantine());
    honest.sim.fail_link(honest.first_hop);
    honest.sim.run_to_quiescence();
    assert_eq!(
        honest.sim.outcome(CONN),
        Some(ConnOutcome::Switched),
        "an honestly-detected failure still recovers"
    );
}

/// Intercepting every backup-register delivery severs the register walk
/// where it leaves the source: the backup can never register, so the
/// connection degrades (primary up, no protection) instead of
/// establishing — and the engine reaches quiescence rather than wedging.
#[test]
fn total_interception_degrades_instead_of_wedging() {
    let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
    let primary =
        Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
    let backup =
        Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(3), NodeId::new(2)]).unwrap();
    let byzantine = Byzantine {
        intercepts: Some("backup-register"),
        ..Byzantine::default()
    };
    let mut sim = sim_with(&net, byzantine);
    sim.establish(CONN, BW, primary, vec![backup]);
    sim.run_to_quiescence();
    assert_eq!(
        sim.outcome(CONN),
        Some(ConnOutcome::Degraded),
        "register walk through the victim can never complete"
    );
    assert!(
        sim.exhausted().any(|(_, n)| n >= 1),
        "the register transaction must exhaust its retries"
    );
}
