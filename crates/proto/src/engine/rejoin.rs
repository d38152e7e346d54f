//! Router crashes and what comes back afterwards: state loss, journal
//! replay, and the resync handshake that reconciles a restarted router
//! with its neighbours.

use super::{Event, State, TxnKind};
use crate::message::{Packet, ResyncEntry};
use crate::router::Router;
use drt_core::failure::RestartMode;
use drt_net::{LinkId, NodeId};
use drt_sim::Scheduler;
use std::cmp::Ordering;
use std::collections::BTreeSet;

impl State {
    /// A router fails permanently: state wiped, every incident link dead,
    /// surviving neighbours detect after the detection delay.
    pub(super) fn on_node_fails(&mut self, sched: &mut Scheduler<'_, Event>, node: NodeId) {
        // A router down for a restart fails for good all the same.
        if self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = true;
        self.down[node.index()] = true;
        self.node_crashed = true;
        // State loss, as with an amnesia restart — but permanent: the
        // durable journal dies with the hardware too.
        self.routers[node.index()] = Router::new(&self.net, node);
        self.journals.reset(node);
        // Every incident link dies with the router. The surviving
        // endpoint of each detects independently; the dedup in
        // `on_failure_report` absorbs the resulting report fan-in.
        let incident: Vec<LinkId> = self.net.incident_links(node).collect();
        for link in incident {
            if let Some(survivor) = self.net.link(link).opposite(node) {
                self.link_fails(sched, link, survivor);
            }
        }
    }

    pub(super) fn on_router_crash(&mut self, node: NodeId) {
        if self.down[node.index()] {
            return;
        }
        // In-memory state is always lost: channel tables, ledgers, APLVs,
        // and dedup records all gone. Whether anything survives is the
        // journal's business.
        self.down[node.index()] = true;
        self.routers[node.index()] = Router::new(&self.net, node);
        match self.chaos.restart_mode {
            RestartMode::Amnesia => {
                // Historical model: durable state dies too, and the
                // eventual restart-from-scratch forfeits the quiescent
                // exact-equality claims.
                self.node_crashed = true;
                self.journals.reset(node);
            }
            RestartMode::Journaled => {
                // The journal survives — minus whatever the configured
                // storage fault tears off.
                self.journals.corrupt(node, self.chaos.journal_fault);
            }
        }
    }

    pub(super) fn on_router_restart(&mut self, sched: &mut Scheduler<'_, Event>, node: NodeId) {
        if !self.down[node.index()] || self.dead[node.index()] {
            return;
        }
        self.down[node.index()] = false;
        self.restarted = true;
        self.stats.restarts += 1;
        if self.chaos.restart_mode != RestartMode::Journaled {
            return;
        }
        let (router, replayed, corrupt) = self.journals.replay(node);
        self.routers[node.index()] = router;
        self.stats.replayed_records += replayed;
        if corrupt {
            self.stats.corrupt_replays += 1;
            self.degrade_rejoin();
        }
        // Resync with every neighbour, in node order: a `ResyncRequest`
        // retransmitted until the neighbour's digest returns. Peers
        // currently down drop the request; retransmission rides out short
        // outages, exhaustion degrades the rejoin.
        let peers: BTreeSet<NodeId> = self
            .net
            .incident_links(node)
            .filter_map(|l| self.net.link(l).opposite(node))
            .collect();
        for peer in peers {
            let template = Packet::ResyncRequest {
                node,
                seq: self.alloc_seq(),
                attempt: 1,
            };
            let kind = TxnKind::Resync { peer };
            let delay = self.hop_delay(1);
            self.start_txn(sched, kind, template, peer, delay, 1);
        }
    }

    /// Neighbour `to` answers restarted `node`'s resync request.
    pub(super) fn on_resync_request(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        to: NodeId,
        node: NodeId,
        seq: u64,
    ) {
        // Answer unconditionally: the digest regenerates from current
        // state, so duplicates and retransmissions are harmless — the
        // requester's transaction table absorbs late copies.
        let digest = Packet::ResyncDigest {
            node: to,
            entries: self.routers[to.index()].resync_entries(),
            seq,
        };
        let delay = self.hop_delay(1);
        self.send(sched, node, digest, delay, false);
    }

    /// Restarted `to` receives `peer`'s digest and reconciles against it.
    pub(super) fn on_resync_digest(
        &mut self,
        to: NodeId,
        peer: NodeId,
        entries: &[ResyncEntry],
        seq: u64,
    ) {
        let Some(TxnKind::Resync { peer: asked }) = self.txns.get(&seq).map(|t| t.kind) else {
            return; // duplicate or stale digest
        };
        debug_assert_eq!(asked, peer);
        self.txns.remove(&seq);
        // A quarantined peer's digest is untrusted evidence: rejoining on
        // it would let a byzantine neighbour plant state — degrade to the
        // detection path instead.
        if self.quarantined(peer) {
            self.stats.quarantined_peers += 1;
            self.degrade_rejoin();
            return;
        }
        for e in entries {
            self.reconcile(to, e);
        }
    }

    /// The rejoin falls back to the crashed-router detection path: the
    /// surviving machinery (failure detection, source-driven teardown)
    /// mops up, and the quiescent exact-equality claims are forfeited
    /// exactly as for an amnesia crash.
    pub(super) fn degrade_rejoin(&mut self) {
        if !self.rejoin_degraded {
            self.rejoin_degraded = true;
            self.stats.degraded_rejoins += 1;
        }
        self.node_crashed = true;
    }

    /// Reconciles one digest entry against restarted `node`'s replayed
    /// state. Sequence numbers are allocated monotonically at one
    /// source per connection, so version order is causal order.
    fn reconcile(&mut self, node: NodeId, e: &ResyncEntry) {
        let router = &self.routers[node.index()];
        let Some(local) = router.conn_version(e.conn) else {
            // The peer holds state for a connection this router never
            // gated — some other path's business, nothing of ours to
            // reconcile.
            return;
        };
        match local.cmp(&e.version) {
            Ordering::Equal => self.stats.resync_consistent += 1,
            // The journal preserved walks the peer never saw (e.g. it was
            // crashed itself): our state is ahead, the peer catches up
            // through normal retransmission.
            Ordering::Greater => self.stats.resync_local_newer += 1,
            Ordering::Less if !e.has_primary && e.backup_entries == 0 => {
                // The peer watched the connection conclude while we were
                // down: release whatever stale state replay resurrected
                // (through the choke point, so a later crash replays the
                // repair too).
                let repairs = router.release_records(e.conn);
                if repairs.is_empty() {
                    self.stats.resync_consistent += 1;
                } else {
                    self.stats.resync_repaired += 1;
                }
                for rec in repairs {
                    self.journals.commit(&mut self.routers, node, rec);
                }
            }
            Ordering::Less => {
                // The peer is ahead *and* still holds state we have no
                // record of — irreconcilable from here; degrade to the
                // detection path rather than guess.
                self.stats.resync_conflicts += 1;
                self.degrade_rejoin();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::chaos::{ChaosConfig, JournalFault};
    use crate::engine::testkit::{r, BW};
    use crate::engine::{ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
    use drt_core::failure::RestartMode;
    use drt_core::ConnectionId;
    use drt_net::{topology, Bandwidth, NodeId, Route};
    use drt_sim::SimDuration;
    use std::sync::Arc;

    /// Establishes connection 0 along `nodes` of a 4-ring under `chaos`,
    /// then crashes `node` and restarts it a second later, draining both.
    fn restart_after_setup(chaos: ChaosConfig, nodes: &[u32], node: u32) -> (ProtocolSim, Route) {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let primary = r(&net, nodes);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), None);
        sim.run_to_quiescence();
        let crashed_at = sim.now();
        sim.restart_router(NodeId::new(node), SimDuration::from_secs(1));
        sim.run_to_quiescence();
        assert!(sim.now() >= crashed_at + SimDuration::from_secs(1));
        (sim, primary)
    }

    #[test]
    fn a_router_failed_for_good_stays_down() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let (conn, node) = (ConnectionId::new(0), NodeId::new(1));
        sim.establish(conn, BW, r(&net, &[0, 1, 2]), Some(r(&net, &[0, 3, 2])));
        sim.run_to_quiescence();
        // Failed for good while down for a restart: the restart does not
        // bring it back, and the primary through it switches over.
        sim.restart_router(node, SimDuration::from_secs(1));
        sim.crash_router(node);
        sim.run_to_quiescence();
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Switched));
        // Nor does a later restart.
        sim.restart_router(node, SimDuration::from_secs(1));
        sim.run_to_quiescence();
        assert_eq!(sim.journal_stats().restarts, 0);
    }

    #[test]
    fn crashed_router_loses_state_and_drops_packets() {
        // Setup completes within milliseconds, then the amnesia restart
        // wipes router 1's ledger for good.
        let (sim, primary) = restart_after_setup(ChaosConfig::default(), &[1, 2], 1);
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established)
        );
        assert_eq!(
            sim.link_resources(primary.links()[0]).prime(),
            Bandwidth::ZERO
        );
    }

    #[test]
    fn journaled_restart_replays_state_and_resyncs_cleanly() {
        // Same outage as the amnesia test above, but journaled: the
        // restarted router replays its journal, resyncs with both
        // neighbours, and hands back the primary entry — the quiescent
        // exact-equality invariants (no longer forfeited) prove it.
        let chaos = ChaosConfig {
            restart_mode: RestartMode::Journaled,
            ..ChaosConfig::default()
        };
        let (sim, primary) = restart_after_setup(chaos, &[1, 2, 3], 2);
        sim.check_invariants().unwrap();
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established)
        );
        // Router 2's reservation on its outgoing hop survived the crash.
        assert_eq!(sim.link_resources(primary.links()[1]).prime(), BW);
        let stats = sim.journal_stats();
        assert_eq!(stats.restarts, 1);
        assert!(stats.replayed_records >= 3, "gate + reserve + applied");
        assert_eq!(stats.degraded_rejoins, 0);
        assert_eq!(stats.resync_conflicts, 0);
        assert_eq!(
            stats.resync_consistent, 1,
            "the upstream neighbour's digest confirms the connection"
        );
    }

    #[test]
    fn torn_journal_degrades_the_rejoin() {
        // The crash tears the whole tail off: replay comes back
        // corrupted, the rejoin degrades to the crashed-router detection
        // path, and the state is gone exactly as under amnesia.
        let chaos = ChaosConfig {
            restart_mode: RestartMode::Journaled,
            journal_fault: JournalFault::TornTail(64),
            ..ChaosConfig::default()
        };
        let (sim, primary) = restart_after_setup(chaos, &[1, 2, 3], 2);
        sim.check_invariants().unwrap(); // degraded rejoin forfeits exactness
        assert_eq!(
            sim.link_resources(primary.links()[1]).prime(),
            Bandwidth::ZERO
        );
        let stats = sim.journal_stats();
        assert_eq!(stats.corrupt_replays, 1);
        assert_eq!(stats.degraded_rejoins, 1);
    }
}
