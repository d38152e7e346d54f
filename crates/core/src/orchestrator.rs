//! Recovery orchestration under overlapping failures.
//!
//! DRTP's switchover is instantaneous (the backup is pre-established), but
//! *re-protection* — finding a fresh backup for a connection that switched
//! or lost its backup — is a routing operation that can fail transiently:
//! the topology just lost links, spare pools are in flux, and another
//! failure may land mid-recovery. [`RecoveryOrchestrator`] turns
//! re-protection into a managed process:
//!
//! * a **retry queue** with exponential backoff — a connection whose
//!   re-establishment fails waits `BASE_DELAY · 2^(attempt-1)` before
//!   the next try, so a cluster of failures does not hammer the route
//!   selector while the network is still degraded;
//! * **flap damping** — a link that fails repeatedly within a window is
//!   quarantined: still usable by established traffic, but excluded from
//!   *new* backup routes (via
//!   [`DrtpManager::reestablish_backup_avoiding`]) until the quarantine
//!   expires, because a backup over a flapping link is protection in name
//!   only;
//! * **graceful degradation accounting** — a connection that exhausts its
//!   retries is *orphaned*: it keeps carrying traffic unprotected, stops
//!   consuming retry work, and is reported so experiments can quantify how
//!   much protection each failure regime permanently destroys;
//! * **repair-time re-optimisation** — after a repair,
//!   [`RecoveryOrchestrator::reoptimize`] replaces every backup that was
//!   forced to overlap its own primary, and keeps the old one when the
//!   scheme finds nothing better.
//!
//! The orchestrator holds no reference to the manager; every interaction
//! happens through explicit calls. Every driver runs it against the
//! centralized [`DrtpManager`]. The one sweep that signals through the
//! distributed engine (`control-loss`) re-protects inside its own
//! round instead, and its orchestrator stays idle.
//!
//! It runs one policy, the module constants below; no driver varies it.
//!
//! See DESIGN.md §10 for the state machine.

use crate::failure::RecoveryReport;
use crate::routing::RoutingScheme;
use crate::{ConnectionId, ConnectionState, DrtpManager, Telemetry};
use drt_net::{LinkId, NodeId};
use drt_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Uncorroborated failure reports from one router before that router is
/// quarantined (its reports ignored): the strike count of
/// [`RecoveryOrchestrator::vet_report`] and of the message-level engine's
/// report verification alike.
pub const SUSPICION_THRESHOLD: u32 = 3;

/// Re-establishment attempts per connection before it is orphaned.
const MAX_ATTEMPTS: u32 = 5;

/// Delay before the first attempt; doubles per failed attempt.
const BASE_DELAY: SimDuration = SimDuration::from_millis(100);

/// Failures of one link within `FLAP_WINDOW` (60 s) that quarantine it
/// for [`QUARANTINE`].
pub const FLAP_THRESHOLD: u32 = 3;

/// Sliding window over which link failures are counted.
const FLAP_WINDOW: SimDuration = SimDuration::from_secs(60);

/// How long a flapping link stays quarantined from new backup routes.
pub const QUARANTINE: SimDuration = SimDuration::from_minutes(5);

/// The backoff delay before attempt number `attempt` (1-based):
/// [`BASE_DELAY`] doubled per earlier failure. At most 1.6 s, since
/// `attempt` never exceeds [`MAX_ATTEMPTS`].
fn backoff(attempt: u32) -> SimDuration {
    BASE_DELAY.times(1 << (attempt - 1))
}

/// One connection waiting in the retry queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRetry {
    /// When the protection was lost (for recovery-latency accounting).
    lost_at: SimTime,
    /// When the next attempt is due.
    due: SimTime,
    /// 1-based number of the next attempt.
    attempt: u32,
}

/// Drives re-establishment of lost protection as a retry queue with
/// exponential backoff, flap damping, and orphan accounting. See the
/// module docs for the model.
#[derive(Debug, Clone)]
pub struct RecoveryOrchestrator {
    queue: BTreeMap<ConnectionId, PendingRetry>,
    /// Recent failure instants per link, pruned to the flap window.
    fail_history: Vec<Vec<SimTime>>,
    quarantined_until: Vec<Option<SimTime>>,
    orphaned: BTreeSet<ConnectionId>,
    /// Uncorroborated-report count per router (byzantine suspicion).
    suspicion: BTreeMap<NodeId, u32>,
    /// Routers whose suspicion crossed the threshold; their reports are
    /// rejected outright.
    router_quarantine: BTreeSet<NodeId>,
    telemetry: Telemetry,
}

/// The orchestrator's judgement on one incoming failure report. See
/// [`RecoveryOrchestrator::vet_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportVerdict {
    /// The report matches surviving-neighbour evidence; act on it.
    Accepted,
    /// No corroborating evidence — the link looks healthy. The report is
    /// dropped and the reporter's suspicion score rises.
    Rejected,
    /// The reporter is quarantined; the report is dropped unexamined.
    RejectedQuarantined,
}

impl RecoveryOrchestrator {
    /// Creates an orchestrator for a network with `num_links` links.
    pub fn new(num_links: usize) -> Self {
        RecoveryOrchestrator {
            queue: BTreeMap::new(),
            fail_history: vec![Vec::new(); num_links],
            quarantined_until: vec![None; num_links],
            orphaned: BTreeSet::new(),
            suspicion: BTreeMap::new(),
            router_quarantine: BTreeSet::new(),
            telemetry: Telemetry::default(),
        }
    }

    /// Feeds the outcome of a failure injection into the orchestrator:
    /// records per-link flap history (quarantining links that crossed the
    /// threshold) and enqueues every connection that lost protection —
    /// switched connections run on their promoted backup unprotected, and
    /// `unprotected` ones lost their only backup. Lost connections are
    /// beyond recovery and are not queued.
    pub fn observe_failure(&mut self, now: SimTime, report: &RecoveryReport) {
        for &l in &report.failed_links {
            self.record_link_failure(now, l);
        }
        for &id in report.switched.iter().chain(&report.unprotected) {
            self.enqueue(now, id);
        }
    }

    /// Records a link repair. Repairing does not lift an active
    /// quarantine: a link that flapped recently must prove itself stable
    /// for the full quarantine before new backups trust it again.
    pub fn observe_repair(&mut self, now: SimTime, link: LinkId) {
        self.fail_history[link.index()].retain(|&t| now.saturating_since(t) <= FLAP_WINDOW);
    }

    /// Queues `conn` for re-protection if it is not already queued or
    /// orphaned. The first attempt is due after one base delay (modelling
    /// the signalling round that discovers the loss of protection).
    pub fn enqueue(&mut self, now: SimTime, conn: ConnectionId) {
        if self.orphaned.contains(&conn) {
            return;
        }
        self.queue.entry(conn).or_insert(PendingRetry {
            lost_at: now,
            due: now + BASE_DELAY,
            attempt: 1,
        });
    }

    fn record_link_failure(&mut self, now: SimTime, link: LinkId) {
        let hist = &mut self.fail_history[link.index()];
        hist.push(now);
        hist.retain(|&t| now.saturating_since(t) <= FLAP_WINDOW);
        // Expiry edge: a failure landing in the very tick the quarantine
        // lapses (`is_quarantined` is already false, and the flap history
        // has aged out of the window, which is shorter than the quarantine) is the link
        // flapping at the exact moment new backups would start trusting
        // it again. It has proved the opposite of stability — re-enter
        // quarantine immediately instead of demanding a fresh threshold
        // of strikes.
        if self.quarantined_until[link.index()] == Some(now) {
            self.quarantined_until[link.index()] = Some(now + QUARANTINE);
            self.telemetry.incr("quarantine.links_requarantined");
            return;
        }
        if hist.len() as u32 >= FLAP_THRESHOLD {
            let until = now + QUARANTINE;
            let slot = &mut self.quarantined_until[link.index()];
            if slot.is_none() {
                self.telemetry.incr("quarantine.links_entered");
            }
            *slot = Some(match *slot {
                Some(prev) => prev.max(until),
                None => until,
            });
        }
    }

    /// Feeds one link-state *advertisement* transition (up→down or
    /// down→up) into the flap-damping history — the countermeasure
    /// against byzantine advertisement churn. A router toggling a link's
    /// advertised state lands it in quarantine exactly as fast as a link
    /// that genuinely flaps, so churned links are kept out of new backup
    /// routes whether the oscillation is physical or fabricated.
    pub fn observe_churn(&mut self, now: SimTime, link: LinkId) {
        self.telemetry.incr("churn.advertisements");
        self.record_link_failure(now, link);
    }

    /// Cross-checks an incoming failure report from `reporter` before the
    /// manager acts on it. `corroborated` is the caller's evidence bit:
    /// whether the reported link's surviving endpoint (or the ground-truth
    /// failure mask, in the centralized simulation) agrees it is down.
    ///
    /// * A report from a quarantined router is rejected unexamined.
    /// * A corroborated report is accepted.
    /// * An uncorroborated report is rejected and bumps the reporter's
    ///   suspicion score; at [`SUSPICION_THRESHOLD`] the
    ///   router is quarantined and all its later reports are ignored —
    ///   so a byzantine router gets a bounded number of lies before it
    ///   loses its voice entirely.
    pub fn vet_report(&mut self, reporter: NodeId, corroborated: bool) -> ReportVerdict {
        if self.router_quarantine.contains(&reporter) {
            self.telemetry.incr("reports.rejected_quarantined");
            return ReportVerdict::RejectedQuarantined;
        }
        if corroborated {
            self.telemetry.incr("reports.accepted");
            return ReportVerdict::Accepted;
        }
        let score = self.suspicion.entry(reporter).or_insert(0);
        *score += 1;
        self.telemetry.incr("reports.rejected");
        if *score >= SUSPICION_THRESHOLD && self.router_quarantine.insert(reporter) {
            self.telemetry.incr("quarantine.routers_entered");
        }
        ReportVerdict::Rejected
    }

    /// The orchestrator's telemetry: recovery-latency and orphan-duration
    /// histograms, retry/orphan counters, quarantine and report-vetting
    /// counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry registry.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Returns `true` while `link` is quarantined from new backup routes.
    pub fn is_quarantined(&self, link: LinkId, now: SimTime) -> bool {
        matches!(self.quarantined_until[link.index()], Some(until) if now < until)
    }

    /// All links currently quarantined, in id order.
    pub fn quarantined_links(&self, now: SimTime) -> Vec<LinkId> {
        (0..self.quarantined_until.len())
            .map(|i| LinkId::new(i as u32))
            .filter(|&l| self.is_quarantined(l, now))
            .collect()
    }

    /// Connections waiting in the retry queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The earliest due time in the queue, if any.
    fn next_due(&self) -> Option<SimTime> {
        self.queue.values().map(|p| p.due).min()
    }

    /// Connections that exhausted their retries and now run permanently
    /// unprotected (until an operator intervenes).
    pub fn orphaned(&self) -> &BTreeSet<ConnectionId> {
        &self.orphaned
    }

    /// Runs every attempt due at or before `now`. Connections released or
    /// torn down since they were queued, and connections that regained a
    /// backup by other means, leave the queue and are recorded nowhere;
    /// the rest go through [`DrtpManager::reestablish_backup_avoiding`]
    /// with the currently quarantined links excluded. A success counts as
    /// `recovery.reprotected`, with its time since the loss of protection
    /// in `recovery.latency_us`; a failure backs off as `recovery.retries`,
    /// or, at [`MAX_ATTEMPTS`], orphans the connection as
    /// `recovery.orphaned`, its wait in `recovery.orphan_wait_us`.
    fn tick(&mut self, now: SimTime, mgr: &mut DrtpManager, scheme: &mut dyn RoutingScheme) {
        let due: Vec<ConnectionId> = self
            .queue
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(&id, _)| id)
            .collect();
        let avoid = self.quarantined_links(now);
        for id in due {
            let entry = self.queue[&id];
            let eligible = match mgr.connection(id) {
                Some(c) if c.state() == ConnectionState::Failed => false,
                Some(c) => {
                    if c.backup().is_some() {
                        // Protection restored out-of-band; nothing to do.
                        self.queue.remove(&id);
                        continue;
                    }
                    true
                }
                None => false,
            };
            if !eligible {
                self.queue.remove(&id);
                continue;
            }
            match mgr.reestablish_backup_avoiding(scheme, id, &avoid) {
                Ok(_) => {
                    self.queue.remove(&id);
                    self.telemetry.incr("recovery.reprotected");
                    self.telemetry.observe_duration(
                        "recovery.latency_us",
                        now.saturating_since(entry.lost_at),
                    );
                }
                Err(_) => {
                    if entry.attempt >= MAX_ATTEMPTS {
                        self.queue.remove(&id);
                        self.orphaned.insert(id);
                        self.telemetry.incr("recovery.orphaned");
                        self.telemetry.observe_duration(
                            "recovery.orphan_wait_us",
                            now.saturating_since(entry.lost_at),
                        );
                    } else {
                        let next = entry.attempt + 1;
                        self.queue.insert(
                            id,
                            PendingRetry {
                                lost_at: entry.lost_at,
                                due: now + backoff(next),
                                attempt: next,
                            },
                        );
                        self.telemetry.incr("recovery.retries");
                    }
                }
            }
        }
    }

    /// Advances virtual time through the retry queue until it drains:
    /// every queued connection either re-protects or orphans. Returns the
    /// time at which the queue became empty (= `now` when it already was).
    pub fn run_to_quiescence(
        &mut self,
        mut now: SimTime,
        mgr: &mut DrtpManager,
        scheme: &mut dyn RoutingScheme,
    ) -> SimTime {
        while let Some(due) = self.next_due() {
            now = now.max(due);
            self.tick(now, mgr, scheme);
        }
        now
    }

    /// Re-optimises the backups chosen under duress, once a repair gives
    /// them better alternatives: every carrying connection whose backup
    /// overlaps its own primary drops it and re-establishes one through
    /// [`DrtpManager::reestablish_backup_avoiding`], the quarantined links
    /// excluded as in its retry attempts.
    /// It never downgrades: when the scheme finds nothing, the old backup
    /// is reinstalled. Outcomes count as `recovery.reoptimized` and
    /// `recovery.reoptimize_failed`.
    pub fn reoptimize(
        &mut self,
        now: SimTime,
        mgr: &mut DrtpManager,
        scheme: &mut dyn RoutingScheme,
    ) {
        let degraded: Vec<ConnectionId> = mgr
            .connections()
            .filter(|c| {
                c.state().is_carrying_traffic()
                    && c.backup().is_some_and(|b| b.overlap(c.primary()) > 0)
            })
            .map(|c| c.id())
            .collect();
        let avoid = self.quarantined_links(now);
        for id in degraded {
            let old = mgr
                .drop_backups(id)
                .expect("a carrying connection drops its backup")
                .expect("a degraded connection holds a backup");
            if mgr.reestablish_backup_avoiding(scheme, id, &avoid).is_ok() {
                self.telemetry.incr("recovery.reoptimized");
                continue;
            }
            // Never downgrade: reinstall the old (degraded but real) backup.
            mgr.install_backup_route(id, old)
                .expect("a backup just dropped fits again");
            self.telemetry.incr("recovery.reoptimize_failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureEvent;
    use crate::routing::{DLsr, RouteRequest, Scripted};
    use drt_net::{topology, Bandwidth, NodeId, Route};
    use std::sync::Arc;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn req(id: u64, src: u32, dst: u32) -> RouteRequest {
        RouteRequest::new(
            ConnectionId::new(id),
            NodeId::new(src),
            NodeId::new(dst),
            BW,
        )
    }

    fn rng() -> rand::rngs::StdRng {
        drt_sim::rng::stream(11, "orchestrator-tests")
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let ladder: Vec<u64> = (1..=MAX_ATTEMPTS)
            .map(|a| backoff(a).as_micros() / 1_000)
            .collect();
        assert_eq!(ladder, [100, 200, 400, 800, 1_600]);
    }

    #[test]
    fn switchover_is_reprotected_via_retry_queue() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());

        let failure = mgr
            .inject_failure(rep.primary.links()[0], &mut rng())
            .unwrap();
        orch.observe_failure(SimTime::ZERO, &failure);
        assert_eq!(orch.pending(), 1);

        let end = orch.run_to_quiescence(SimTime::ZERO, &mut mgr, &mut scheme);
        assert_eq!(orch.pending(), 0);
        assert!(orch.orphaned().is_empty());
        let t = orch.telemetry();
        assert_eq!(t.counter("recovery.reprotected"), 1);
        assert_eq!(t.counter("recovery.retries"), 0, "first attempt");
        assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().state(),
            ConnectionState::Protected
        );
        mgr.assert_invariants();
    }

    #[test]
    fn exhausted_retries_orphan_the_connection() {
        // A scripted scheme with an exhausted script models a routing
        // scheme that cannot find any new backup (the LSR schemes treat
        // primary overlap as a soft penalty, so on a live connection they
        // always degenerate to *some* route — use the script to force the
        // paper's "re-establishment fails" branch deterministically).
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let primary = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let long_way = Route::from_nodes(
            &net,
            &[
                NodeId::new(0),
                NodeId::new(3),
                NodeId::new(2),
                NodeId::new(1),
            ],
        )
        .unwrap();
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = Scripted::new();
        scheme.push(primary, Some(long_way));
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 1)).unwrap();
        assert_eq!(scheme.remaining(), 0, "every retry will now fail");
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());

        let failure = mgr
            .inject_failure(rep.primary.links()[0], &mut rng())
            .unwrap();
        orch.observe_failure(SimTime::ZERO, &failure);
        let end = orch.run_to_quiescence(SimTime::ZERO, &mut mgr, &mut scheme);

        assert_eq!(orch.pending(), 0);
        // Orphaned at the fifth attempt, after the whole 3.1 s ladder.
        assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(3_100));
        let t = orch.telemetry();
        assert_eq!(t.counter("recovery.retries"), u64::from(MAX_ATTEMPTS - 1));
        assert_eq!(t.counter("recovery.orphaned"), 1);
        assert_eq!(
            orch.orphaned().iter().copied().collect::<Vec<_>>(),
            vec![ConnectionId::new(0)]
        );
        // Orphaned connections are not re-queued.
        orch.enqueue(SimTime::ZERO, ConnectionId::new(0));
        assert_eq!(orch.pending(), 0);
        // Still carrying traffic, just unprotected — graceful degradation.
        assert!(mgr
            .connection(ConnectionId::new(0))
            .unwrap()
            .state()
            .is_carrying_traffic());
        mgr.assert_invariants();
    }

    #[test]
    fn flapping_link_is_quarantined_from_new_backups() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        let backup_link = rep.backup().unwrap().links()[0];
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());

        // Fail/repair the backup's first link three times in rapid
        // succession: flap damping must quarantine it.
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            let report = mgr.inject_failure(backup_link, &mut rng()).unwrap();
            orch.observe_failure(now, &report);
            mgr.repair_link(backup_link).unwrap();
            orch.observe_repair(now, backup_link);
            now += SimDuration::from_secs(1);
        }
        assert!(orch.is_quarantined(backup_link, now));
        assert!(orch.quarantined_links(now).contains(&backup_link));

        // The queued re-protection must avoid the quarantined link even
        // though it is repaired and technically usable.
        let end = orch.run_to_quiescence(now, &mut mgr, &mut scheme);
        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        if let Some(b) = conn.backup() {
            assert!(
                !b.contains_link(backup_link),
                "new backup must not cross the quarantined link"
            );
        }
        // Quarantine expires eventually.
        assert!(!orch.is_quarantined(backup_link, end + QUARANTINE));
        mgr.assert_invariants();
    }

    #[test]
    fn uncorroborated_reports_quarantine_the_reporter() {
        let mut orch = RecoveryOrchestrator::new(8);
        let liar = NodeId::new(2);
        let honest = NodeId::new(5);

        // Corroborated reports are accepted and carry no suspicion.
        assert_eq!(orch.vet_report(honest, true), ReportVerdict::Accepted);
        assert_eq!(orch.suspicion.get(&honest), None);

        // Three lies and the liar loses its voice.
        for expect in 1..=SUSPICION_THRESHOLD {
            assert_eq!(orch.vet_report(liar, false), ReportVerdict::Rejected);
            assert_eq!(orch.suspicion[&liar], expect);
        }
        assert!(orch.router_quarantine.contains(&liar));
        assert_eq!(
            orch.vet_report(liar, false),
            ReportVerdict::RejectedQuarantined
        );
        // Even a truthful report from a quarantined router is ignored:
        // the cross-check evidence will arrive from the honest endpoint.
        assert_eq!(
            orch.vet_report(liar, true),
            ReportVerdict::RejectedQuarantined
        );
        assert_eq!(orch.telemetry().counter("reports.rejected"), 3);
        assert_eq!(orch.telemetry().counter("reports.rejected_quarantined"), 2);
        assert_eq!(orch.telemetry().counter("quarantine.routers_entered"), 1);
    }

    #[test]
    fn advertisement_churn_quarantines_the_link() {
        let mut orch = RecoveryOrchestrator::new(4);
        let l = LinkId::new(1);
        let mut now = SimTime::ZERO;
        // A byzantine router toggling the advertised state of a healthy
        // link trips the same damping as a physically flapping link.
        for _ in 0..FLAP_THRESHOLD {
            orch.observe_churn(now, l);
            now += SimDuration::from_secs(1);
        }
        assert!(orch.is_quarantined(l, now));
        assert_eq!(orch.telemetry().counter("churn.advertisements"), 3);
        assert_eq!(orch.telemetry().counter("quarantine.links_entered"), 1);
    }

    #[test]
    fn node_crash_during_pending_retries_is_absorbed() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        mgr.request_connection(&mut scheme, req(1, 6, 2)).unwrap();
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());

        let first = mgr
            .inject_failure(rep.primary.links()[0], &mut rng())
            .unwrap();
        orch.observe_failure(SimTime::ZERO, &first);
        assert!(orch.pending() > 0, "retries are pending");

        // A router crash lands before the first retry fires.
        let crash = mgr
            .inject_event(&FailureEvent::Node(NodeId::new(4)), &mut rng())
            .unwrap();
        orch.observe_failure(SimTime::ZERO, &crash);

        orch.run_to_quiescence(SimTime::ZERO, &mut mgr, &mut scheme);
        assert_eq!(orch.pending(), 0, "queue drains despite the overlap");
        // Every surviving connection is either re-protected or accounted
        // for as orphaned — nothing is silently dropped.
        for c in mgr.connections() {
            if c.state().is_carrying_traffic() && c.backup().is_none() {
                assert!(
                    orch.orphaned().contains(&c.id()),
                    "unprotected survivor {} must be in the orphan ledger",
                    c.id()
                );
            }
        }
        mgr.assert_invariants();
    }

    /// Connection 0 → 2 on the 3×3 mesh with a backup sharing its
    /// primary's first link, as one chosen while a link was down would.
    /// Returns the manager, the primary and that backup.
    fn degraded_connection() -> (DrtpManager, Route, Route) {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let path = |ids: &[u32]| {
            let nodes: Vec<NodeId> = ids.iter().map(|&n| NodeId::new(n)).collect();
            Route::from_nodes(&net, &nodes).unwrap()
        };
        let (primary, duress) = (path(&[0, 1, 2]), path(&[0, 1, 4, 5, 2]));
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut script = Scripted::new();
        script.push(primary.clone(), Some(duress.clone()));
        mgr.request_connection(&mut script, req(0, 0, 2)).unwrap();
        (mgr, primary, duress)
    }

    #[test]
    fn repair_replaces_a_backup_that_overlaps_its_primary() {
        let (mut mgr, primary, _) = degraded_connection();
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());
        // The way around the primary was down when the backup was chosen.
        let detour = mgr.net().find_link(NodeId::new(0), NodeId::new(3)).unwrap();
        mgr.inject_failure(detour, &mut rng()).unwrap();
        mgr.repair_link(detour).unwrap();
        orch.observe_repair(SimTime::ZERO, detour);

        orch.reoptimize(SimTime::ZERO, &mut mgr, &mut DLsr::new());
        let conn = mgr.connection(ConnectionId::new(0)).unwrap();
        assert_eq!(conn.primary(), &primary);
        assert_eq!(conn.backup().unwrap().overlap(&primary), 0, "replaced");
        assert_eq!(orch.telemetry().counter("recovery.reoptimized"), 1);
        assert_eq!(orch.telemetry().counter("recovery.reoptimize_failed"), 0);
        mgr.assert_invariants();
    }

    #[test]
    fn reoptimization_that_finds_nothing_keeps_the_old_backup() {
        let (mut mgr, _, duress) = degraded_connection();
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());
        orch.reoptimize(SimTime::ZERO, &mut mgr, &mut Scripted::new());
        assert_eq!(
            mgr.connection(ConnectionId::new(0)).unwrap().backup(),
            Some(&duress),
            "never downgrade to no backup"
        );
        assert_eq!(orch.telemetry().counter("recovery.reoptimize_failed"), 1);
        assert_eq!(orch.telemetry().counter("recovery.reoptimized"), 0);
        mgr.assert_invariants();
    }

    #[test]
    fn reoptimization_leaves_disjoint_backups_alone() {
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut mgr = DrtpManager::new(net);
        let mut scheme = DLsr::new();
        let rep = mgr.request_connection(&mut scheme, req(0, 0, 8)).unwrap();
        assert_eq!(rep.backup().unwrap().overlap(&rep.primary), 0);
        let before = mgr.fingerprint();
        let mut orch = RecoveryOrchestrator::new(mgr.net().num_links());
        orch.reoptimize(SimTime::ZERO, &mut mgr, &mut scheme);
        assert_eq!(mgr.fingerprint(), before);
        assert!(orch.telemetry().is_empty());
    }
}
