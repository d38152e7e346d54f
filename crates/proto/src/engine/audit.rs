//! What must hold of the protocol state, the centralized manager it
//! projects to, and the digest the model checker tells states apart by.
//! Read-only: nothing here mutates the simulation.

use super::{ConnOutcome, ProtocolSim};
use drt_core::failure::FailureEvent;
use drt_core::invariants::{self, Violation};
use drt_core::routing::{RoutePair, RouteRequest, RoutingOverhead};
use drt_core::{ConnectionId, DrtpManager, Telemetry};
use drt_net::{Bandwidth, LinkId};
use std::collections::BTreeMap;
use std::sync::Arc;

impl ProtocolSim {
    /// The [`DrtpManager`] this state is the distributed form of: the
    /// failed links fail, then every live connection is admitted in id
    /// order through [`DrtpManager::admit_routes`] with its primary and its
    /// *registered* backup. Returns it, telemetry empty, with the live
    /// connections it refused. At quiescence, with none refused, `prime`
    /// and APLV equal the routers' on every link; `spare` is a fresh
    /// admission's, which a promotion can leave the routers' below.
    pub fn project(&self) -> (DrtpManager, Vec<ConnectionId>) {
        let (net, failed) = (&self.state.net, &self.state.failed);
        let mut mgr = DrtpManager::new(Arc::clone(net));
        let dead = net.links().map(|l| l.id()).filter(|l| failed[l.index()]);
        let event = FailureEvent::Batch(dead.map(FailureEvent::Link).collect());
        // Infallible; nothing is admitted yet to contend, so nothing draws.
        let _ = mgr.inject_event(&event, &mut drt_sim::rng::stream(0, "projection"));
        *mgr.telemetry_mut() = Telemetry::new();
        let live = self.state.conns.iter().filter(|(_, m)| m.phase.is_live());
        let refused = live.filter_map(|(&conn, m)| {
            let req = RouteRequest::new(conn, m.primary.source(), m.primary.dest(), m.bw);
            let pair = RoutePair {
                primary: m.primary.clone(),
                backup: m.backup.clone().filter(|_| m.registered),
                dedicated_backup: false,
                overhead: RoutingOverhead::ZERO,
            };
            mgr.admit_routes(&req, pair).is_err().then_some(conn)
        });
        let refused = refused.collect();
        (mgr, refused)
    }

    /// Checks every machine-checkable protocol invariant against the
    /// current state, returning the first violation found.
    ///
    /// Two tiers:
    ///
    /// * **always-on** — hold in every reachable state, even mid-walk:
    ///   per-link ledger conservation (`prime + spare ≤ capacity`), spare
    ///   bounded by the APLV requirement, APLV ↔ backup-channel-table
    ///   consistency, and ledger `prime` ↔ primary-channel-table
    ///   consistency;
    /// * **quiescent** — additionally hold once [`Self::is_quiescent`]:
    ///   no connection still `Pending`, no registration surviving a
    ///   concluded connection, and — when no router crash lost state and
    ///   no transaction exhausted its retries — every router ledger and
    ///   APLV *exactly* equals what the source-side connection table
    ///   implies.
    pub fn check_invariants(&self) -> Result<(), Violation> {
        self.check_always()?;
        if self.is_quiescent() {
            self.check_quiescent()?;
        }
        Ok(())
    }

    fn check_always(&self) -> Result<(), Violation> {
        // Reports only originate from actual failures, so a connection
        // can never have recorded a report for a live link — catches
        // ledger corruption where overlapping failures cross-contaminate
        // each other's metadata.
        for (conn, meta) in &self.state.conns {
            if let Some(&l) = meta.reported.iter().find(|l| !self.state.failed[l.index()]) {
                return Err(Violation {
                    rule: "phantom-report",
                    detail: format!("connection {conn} recorded a report for live link {l}"),
                });
            }
        }
        for router in &self.state.routers {
            for (l, ledger, aplv) in router.out_link_state() {
                if !invariants::ledger_within_capacity(ledger) {
                    return Err(Violation {
                        rule: "capacity",
                        detail: format!("router {}, link {l}: {ledger}", router.id()),
                    });
                }
                if !invariants::spare_within_requirement(ledger, aplv) {
                    return Err(Violation {
                        rule: "spare-overshoot",
                        detail: format!(
                            "router {}, link {l}: spare {} > required {}",
                            router.id(),
                            ledger.spare(),
                            aplv.required_spare()
                        ),
                    });
                }
                let expected = invariants::expected_aplv(
                    router
                        .backups()
                        .filter(|(_, e)| e.out_link == l)
                        .map(|(_, e)| (e.primary_lset.as_slice(), e.bw)),
                );
                if !invariants::aplv_matches(aplv, &expected) {
                    return Err(Violation {
                        rule: "aplv-table-divergence",
                        detail: format!(
                            "router {}, link {l}: aplv {aplv:?} != channel table {expected:?}",
                            router.id()
                        ),
                    });
                }
                let expected_prime = router
                    .primaries()
                    .filter(|(_, e)| e.out_link == l)
                    .fold(Bandwidth::ZERO, |acc, (_, e)| acc + e.bw);
                if !invariants::prime_matches(ledger, expected_prime) {
                    return Err(Violation {
                        rule: "prime-table-divergence",
                        detail: format!(
                            "router {}, link {l}: prime {} != channel table {}",
                            router.id(),
                            ledger.prime(),
                            expected_prime
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn check_quiescent(&self) -> Result<(), Violation> {
        for (conn, meta) in &self.state.conns {
            if meta.phase.outcome() == ConnOutcome::Pending {
                return Err(Violation {
                    rule: "quiescent-pending",
                    detail: format!("connection {conn} still pending with nothing in flight"),
                });
            }
            if !meta.phase.is_live() && meta.registered {
                return Err(Violation {
                    rule: "stale-registration",
                    detail: format!("concluded connection {conn} still marks a backup registered"),
                });
            }
        }
        // A non-degraded journaled rejoin must hand back every surviving
        // connection's primary state: at quiescence, each live
        // connection's primary hops (on routers that are back up) hold an
        // entry. An amnesia restart violates this with zero additional
        // faults — the minimal counterexample the verify suite exhibits.
        if self.state.restarted && self.state.stats.degraded_rejoins == 0 {
            for (conn, meta) in &self.state.conns {
                if !meta.phase.is_live() {
                    continue;
                }
                for &l in meta.primary.links() {
                    let at = self.state.net.link(l).src();
                    if self.state.down[at.index()] {
                        continue;
                    }
                    if !self.state.routers[at.index()]
                        .primary_entries(*conn)
                        .any(|e| e.out_link == l && e.route == meta.primary)
                    {
                        return Err(Violation {
                            rule: "rejoin-restores-primaries",
                            detail: format!(
                                "router {at} lost {conn}'s primary entry across a restart"
                            ),
                        });
                    }
                }
            }
        }
        // Amnesia crashes lose state wholesale and exhausted transactions
        // leave bounded, counted leaks: exact ledger equality is only
        // claimable without either. A journaled restart is *not* a
        // forfeit — replay is expected to restore exactness.
        if self.state.node_crashed || !self.state.exhausted.is_empty() {
            return Ok(());
        }
        // Every failure is eventually reported and acted on, so at
        // quiescence no live connection may still be routed over a dead
        // link — the key safety property under overlapping failures.
        for (conn, meta) in &self.state.conns {
            if meta.phase.is_live() {
                if let Some(&l) = meta
                    .primary
                    .links()
                    .iter()
                    .find(|l| self.state.failed[l.index()])
                {
                    return Err(Violation {
                        rule: "dead-primary",
                        detail: format!("live connection {conn} still routed over failed link {l}"),
                    });
                }
            }
        }
        if let Some((conn, _)) = self.state.pending_recovery.iter().next() {
            return Err(Violation {
                rule: "unresolved-recovery",
                detail: format!("recovery of {conn} never resolved"),
            });
        }
        let mut expected_prime: BTreeMap<LinkId, Bandwidth> = BTreeMap::new();
        let mut expected_regs: BTreeMap<LinkId, Vec<(&[LinkId], Bandwidth)>> = BTreeMap::new();
        for meta in self.state.conns.values() {
            if !meta.phase.is_live() {
                continue;
            }
            for &l in meta.primary.links() {
                *expected_prime.entry(l).or_insert(Bandwidth::ZERO) += meta.bw;
            }
            if let Some(b) = meta.backup.as_ref().filter(|_| meta.registered) {
                for &l in b.links() {
                    expected_regs
                        .entry(l)
                        .or_default()
                        .push((meta.primary.links(), meta.bw));
                }
            }
        }
        for router in &self.state.routers {
            for (l, ledger, aplv) in router.out_link_state() {
                let ep = expected_prime.get(&l).copied().unwrap_or(Bandwidth::ZERO);
                if !invariants::prime_matches(ledger, ep) {
                    return Err(Violation {
                        rule: "quiescent-prime",
                        detail: format!(
                            "router {}, link {l}: prime {} != source view {ep}",
                            router.id(),
                            ledger.prime()
                        ),
                    });
                }
                let expected = invariants::expected_aplv(
                    expected_regs
                        .get(&l)
                        .into_iter()
                        .flatten()
                        .map(|&(lset, bw)| (lset, bw)),
                );
                if !invariants::aplv_matches(aplv, &expected) {
                    return Err(Violation {
                        rule: "quiescent-aplv",
                        detail: format!(
                            "router {}, link {l}: aplv {aplv:?} != source view {expected:?}",
                            router.id()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// A deterministic digest of the protocol-relevant state: routers
    /// (ledgers, APLVs, channel tables, dedup records), link/router
    /// failure state, connection metadata, outstanding transactions, and
    /// the pending event queue with *time-translated* timestamps (deltas
    /// from now), so states differing only by an absolute time shift
    /// collide — exactly what the model checker's pruning wants.
    /// Observational state (traffic counters, recovery log) is excluded.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        use std::hash::{Hash, Hasher};
        // `Debug` renderings stream into the hasher: the model checker
        // fingerprints every state it explores.
        let mut sink = drt_core::HashSink::default();
        let now = self.sim.now();
        let state = &self.state;
        let _ = write!(
            sink,
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            state.routers,
            state.conns,
            state.txns,
            state.exhausted,
            state.suspicion,
            state.journals,
        );
        for (conn, (link, _reported_at)) in &state.pending_recovery {
            let _ = write!(sink, "{conn}:{link},");
        }
        let h = &mut sink.0;
        state.failed.hash(h);
        state.down.hash(h);
        state.dead.hash(h);
        state.next_seq.hash(h);
        state.restarted.hash(h);
        (state.stats.degraded_rejoins > 0).hash(h);
        let mut pending: Vec<String> = self
            .sim
            .pending_events()
            .map(|(at, ev)| format!("{:?}+{ev:?}", at.saturating_since(now)))
            .collect();
        pending.sort();
        pending.hash(h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::testkit::{r, BW};
    use crate::engine::{ConnOutcome, ProtocolConfig, ProtocolSim};
    use drt_core::ConnectionId;
    use drt_net::{topology, Bandwidth};
    use std::sync::Arc;

    #[test]
    fn invariants_hold_at_every_step_of_a_clean_run() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), Some(backup));
        while sim.step() {
            sim.check_invariants().unwrap();
        }
        assert!(sim.is_quiescent());
        sim.fail_link(primary.links()[0]);
        while sim.step() {
            sim.check_invariants().unwrap();
        }
        assert!(sim.is_quiescent());
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Switched)
        );
    }

    #[test]
    fn fingerprints_agree_for_identical_runs_and_differ_across_states() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let drive = |fail: bool| {
            let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
            let primary = r(&net, &[0, 1]);
            sim.establish(ConnectionId::new(0), BW, primary.clone(), None);
            sim.run_to_quiescence();
            if fail {
                sim.fail_link(primary.links()[0]);
                sim.run_to_quiescence();
            }
            sim.fingerprint()
        };
        assert_eq!(drive(false), drive(false));
        assert_ne!(drive(false), drive(true));
    }
}
