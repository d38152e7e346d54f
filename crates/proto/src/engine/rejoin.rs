//! Router crashes and what comes back afterwards: state loss and journal
//! replay. A journaled router rejoins on its replayed journal alone; a
//! walk dropped while it was down reaches it again by the source's
//! retransmission, gated and served by the replayed tables.

use super::{Event, State};
use crate::router::Router;
use drt_core::failure::RestartMode;
use drt_net::{LinkId, NodeId};
use drt_sim::Scheduler;

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

    pub(super) fn on_router_restart(&mut self, node: NodeId) {
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
            // The rejoin falls back to the crashed-router detection path:
            // the surviving machinery (failure detection, source-driven
            // teardown) mops up, and the quiescent exact-equality claims
            // are forfeited exactly as for an amnesia crash.
            self.stats.degraded_rejoins += 1;
            self.node_crashed = true;
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
    use drt_net::{topology, Bandwidth, Network, NetworkBuilder, NodeId, Route};
    use drt_sim::SimDuration;
    use std::sync::Arc;

    /// Establishes connection 0 along `nodes` of a 4-ring under `chaos`,
    /// then crashes `node` and restarts it a second later, draining both.
    fn restart_after_setup(
        chaos: ChaosConfig,
        nodes: &[u32],
        node: u32,
    ) -> (ProtocolSim, Arc<Network>, Route) {
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
        (sim, net, primary)
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
        let (sim, _, primary) = restart_after_setup(ChaosConfig::default(), &[1, 2], 1);
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
    fn journaled_restart_replays_state_and_serves_the_release() {
        // Same outage as the amnesia test above, but journaled: the
        // restarted router rejoins on its replayed journal alone and hands
        // back the primary entry — the quiescent exact-equality invariants
        // (no longer forfeited) prove it. A release then walks through
        // the restarted router and leaves every ledger empty.
        let chaos = ChaosConfig {
            restart_mode: RestartMode::Journaled,
            ..ChaosConfig::default()
        };
        let (mut sim, net, primary) = restart_after_setup(chaos, &[1, 2, 3], 2);
        sim.check_invariants().unwrap();
        let conn = ConnectionId::new(0);
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Established));
        // Router 2's reservation on its outgoing hop survived the crash.
        assert_eq!(sim.link_resources(primary.links()[1]).prime(), BW);
        let stats = sim.journal_stats();
        assert_eq!(stats.restarts, 1);
        assert!(stats.replayed_records >= 3, "gate + reserve + applied");
        assert_eq!(stats.degraded_rejoins, 0);

        assert!(sim.release(conn));
        sim.run_to_quiescence();
        sim.check_invariants().unwrap();
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Released));
        for link in net.links() {
            let ledger = sim.link_resources(link.id());
            assert_eq!(
                (ledger.prime(), ledger.spare()),
                (Bandwidth::ZERO, Bandwidth::ZERO)
            );
        }
    }

    #[test]
    fn a_neighbour_that_retired_a_backup_leaves_the_primary_alone() {
        // Primary 0→1→2→4, backup 0→3→4, and an unused link 2–3 that
        // makes router 3 a neighbour of router 2. Retiring the backup
        // leaves router 3 having gated a newer walk of the connection than
        // router 2 ever saw, and holding nothing for it. That is no sign
        // the connection concluded: the live primary's hop at router 2
        // must survive router 2's journaled restart.
        let mut b = NetworkBuilder::with_nodes(5);
        for (x, y) in [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (2, 3)] {
            b.add_duplex_link(NodeId::new(x), NodeId::new(y), Bandwidth::from_mbps(10))
                .unwrap();
        }
        let net = Arc::new(b.build());
        let chaos = ChaosConfig {
            restart_mode: RestartMode::Journaled,
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let conn = ConnectionId::new(0);
        let (primary, backup) = (r(&net, &[0, 1, 2, 4]), r(&net, &[0, 3, 4]));
        sim.establish(conn, BW, primary.clone(), Some(backup.clone()));
        sim.run_to_quiescence();
        assert_eq!(sim.retire_backups_crossing(conn, backup.links()[1]), 1);
        sim.run_to_quiescence();

        sim.restart_router(NodeId::new(2), SimDuration::from_millis(50));
        sim.run_to_quiescence();
        sim.check_invariants().unwrap();
        let hop = primary.links()[2];
        assert!(sim
            .router(NodeId::new(2))
            .primary_entries(conn)
            .any(|e| e.out_link == hop && e.route == primary));
        assert_eq!(sim.link_resources(hop).prime(), BW);
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Degraded));
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
        let (sim, _, primary) = restart_after_setup(chaos, &[1, 2, 3], 2);
        sim.check_invariants().unwrap(); // degraded rejoin forfeits exactness
        assert_eq!(
            sim.link_resources(primary.links()[1]).prime(),
            Bandwidth::ZERO
        );
        let stats = sim.journal_stats();
        assert_eq!(stats.degraded_rejoins, 1);
    }
}
