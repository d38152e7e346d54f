//! Failure handling, step 3 of DRTP ("failure reporting and channel
//! switching"): detection, the report to each affected source, report
//! verification, and the source-side switchover state machine.

use super::{ConnMeta, Event, Phase, RecoveryRecord, State, TxnKind};
use crate::message::{Packet, WalkOp};
use drt_core::ConnectionId;
use drt_net::{LinkId, NodeId, Route};
use drt_sim::{Scheduler, SimTime};

impl ConnMeta {
    /// Claims the first registered backup that avoids *every* link
    /// reported dead so far — its registration is consumed by activation —
    /// and moves to [`Phase::Switching`]; with none left the connection is
    /// [`Phase::Lost`].
    fn next_switch(&mut self) -> Option<(usize, Route)> {
        let found = (0..self.backups.len()).find(|&i| {
            self.registered[i]
                && !self
                    .reported
                    .iter()
                    .any(|&l| self.backups[i].contains_link(l))
        });
        match found {
            Some(i) => {
                self.phase = Phase::Switching { chosen: i };
                self.registered[i] = false;
            }
            None => self.phase = Phase::Lost,
        }
        found.map(|i| (i, self.backups[i].clone()))
    }
}

impl State {
    /// `link` dies (once); `detector` notices after the detection delay.
    pub(super) fn link_fails(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        link: LinkId,
        detector: NodeId,
    ) {
        if self.failed[link.index()] {
            return;
        }
        self.failed[link.index()] = true;
        sched.schedule_in(
            self.cfg.detection_delay,
            Event::Detected { at: detector, link },
        );
    }

    /// Router `at` detected (or, byzantine, claims) the failure of `link`:
    /// it reports to each affected connection's source.
    pub(super) fn on_detected(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        at: NodeId,
        link: LinkId,
    ) {
        // A crashed detector cannot observe the failure — and has no
        // channel table left to consult after restarting.
        if self.down[at.index()] {
            return;
        }
        // A byzantine detector suppresses its report of a *real* failure;
        // fabricated detections (healthy link) still go out — that's the
        // whole point of the lie.
        if self.adversary.suppress_reports
            && self.adversary.is_byzantine(at)
            && self.failed[link.index()]
        {
            return;
        }
        // The report travels upstream along the primary. The detector may
        // be either endpoint (after a router crash the survivor reports),
        // so affected connections are found by route membership, not
        // ledger ownership.
        for conn in self.routers[at.index()].primaries_crossing(link) {
            let Some(entry) = self.routers[at.index()].primary_entry(conn) else {
                continue;
            };
            let src = entry.route.source();
            let pos = entry
                .route
                .links()
                .iter()
                .position(|&l| l == link)
                .unwrap_or(entry.route.len());
            let hops = self.report_hops(link, at, pos).max(1);
            let template = Packet::FailureReport {
                conn,
                link,
                reporter: at,
                seq: self.alloc_seq(),
                attempt: 1,
            };
            let delay = self.hop_delay(hops);
            self.start_txn(sched, TxnKind::FailureReport, template, src, delay, hops);
        }
    }

    /// Hops between a source and the endpoint of `link` (its `pos`-th
    /// primary link) that reported: one further when the downstream
    /// endpoint detected.
    fn report_hops(&self, link: LinkId, reporter: NodeId, pos: usize) -> usize {
        if reporter == self.net.link(link).dst() {
            pos + 1
        } else {
            pos
        }
    }

    fn begin_recovery(&mut self, conn: ConnectionId, link: LinkId, now: SimTime) {
        self.pending_recovery.entry(conn).or_insert((link, now));
    }

    fn resolve_recovery(&mut self, conn: ConnectionId, now: SimTime, recovered: bool) {
        if let Some((link, reported_at)) = self.pending_recovery.remove(&conn) {
            self.recovery_log.push(RecoveryRecord {
                conn,
                link,
                reported_at,
                resolved_at: now,
                recovered,
            });
        }
    }

    /// Release walks over a dead or abandoned primary and the backups
    /// taken with it.
    fn release_all(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        primary: Route,
        backups: Vec<Route>,
    ) {
        self.start_walk(sched, conn, WalkOp::PrimaryRelease, 0, primary);
        for b in backups {
            self.start_walk(sched, conn, WalkOp::BackupRelease, 0, b);
        }
    }

    pub(super) fn on_failure_report(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        link: LinkId,
        reporter: NodeId,
        seq: u64,
    ) {
        // Ack unconditionally — even stale or duplicate reports — so the
        // detector stops retransmitting. The ack returns to the reporting
        // endpoint (after a crash that is the link's *surviving* side).
        let ack_hops = self
            .conns
            .get(&conn)
            .and_then(|m| m.primary.links().iter().position(|&l| l == link))
            .map_or(0, |pos| self.report_hops(link, reporter, pos))
            .max(1);
        let ack_delay = self.hop_delay(ack_hops);
        let ack = Packet::ReportAck { conn, seq };
        self.send(sched, reporter, ack, ack_delay, false);

        // Report verification (countermeasure to byzantine false
        // reports): a source only acts on a report it can corroborate
        // from its own link-state evidence. An uncorroborated report —
        // the named link is not actually dead — is dropped and scores a
        // strike against the reporter; a reporter past the suspicion
        // threshold is quarantined outright, even for truthful reports.
        // The ack above still goes out: vetting is silent, so a byzantine
        // reporter cannot probe the defense through its retransmissions.
        if self.cfg.report_verification {
            if self.quarantined(reporter) {
                return;
            }
            if !self.failed[link.index()] {
                // Uncorroborated: record the witness and a strike.
                self.witnesses.entry(link).or_default().insert(reporter);
                *self.suspicion.entry(reporter).or_insert(0) += 1;
                // Corroboration quorum: enough *distinct* reporters of the
                // same link may override the local evidence (it could be
                // stale). Counting only quarantine-clean witnesses closes
                // the sybil hole: every forged identity burns suspicion
                // with each lie, so a single adversary can never assemble
                // a clean quorum by itself.
                if self.cfg.corroboration_quorum == 0 {
                    return;
                }
                let counted = self.witnesses[&link]
                    .iter()
                    .filter(|&&w| !self.cfg.quorum_requires_clean || !self.quarantined(w))
                    .count();
                if counted < self.cfg.corroboration_quorum as usize {
                    return;
                }
                self.stats.quorum_overrides += 1;
                // Fall through: act on the (apparently) corroborated report.
            }
        }

        let now = sched.now();
        let Some(meta) = self.conns.get_mut(&conn) else {
            return;
        };
        // Setting up, lost, or done: the report has nothing to act on and
        // leaves no trace. A duplicate: this link's failure is already
        // handled.
        let deaf = matches!(
            meta.phase,
            Phase::SettingUpPrimary | Phase::Lost | Phase::Rejected | Phase::Released
        );
        if deaf || !meta.reported.insert(link) {
            return;
        }
        match meta.phase {
            Phase::Established | Phase::Degraded => {
                let old_primary = meta.primary.clone();
                // Switch to the first registered backup clear of every
                // reported link; release the others.
                let next = meta.next_switch();
                let others = meta.take_registered(|_| true);
                self.begin_recovery(conn, link, now);
                self.release_all(sched, conn, old_primary, others);
                self.launch_switch(sched, conn, next);
            }
            // A switched connection has no backups left — but only a
            // failure on its *current* (promoted) primary downs it. A
            // report for some other link (e.g. the old primary's second
            // link after a node crash) is recorded and absorbed.
            Phase::Switched => {
                if !meta.primary.contains_link(link) {
                    return; // benign: not on the promoted route
                }
                meta.phase = Phase::Lost;
                let route = meta.primary.clone();
                self.begin_recovery(conn, link, now);
                self.resolve_recovery(conn, now, false);
                self.start_walk(sched, conn, WalkOp::PrimaryRelease, 0, route);
            }
            // The primary died while a register walk is outstanding:
            // defer teardown until that transaction concludes, so release
            // walks cannot overtake register packets under jitter.
            Phase::RegisteringBackup(_) => {
                meta.phase = Phase::FailingDuringSetup;
                self.begin_recovery(conn, link, now);
            }
            // Recovery already in flight (switching, or failing during
            // setup): the additional dead link is remembered, so the
            // pending switch (or its retry after a nack) steers around
            // every known failure when its result handler re-reads the set.
            _ => {}
        }
    }

    /// Whether `reporter` has reached the suspicion threshold.
    pub(super) fn quarantined(&self, reporter: NodeId) -> bool {
        self.suspicion.get(&reporter).copied().unwrap_or(0) >= self.cfg.suspicion_threshold
    }

    /// Launches the activation [`ConnMeta::next_switch`] chose, or — it
    /// chose none — records the connection as lost.
    fn launch_switch(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        next: Option<(usize, Route)>,
    ) {
        match next {
            Some((i, route)) => self.start_walk(sched, conn, WalkOp::ChannelSwitch, i, route),
            None => self.resolve_recovery(conn, sched.now(), false),
        }
    }

    /// Picks the next registered backup avoiding the reported links and
    /// launches its activation, or declares the connection lost.
    fn try_next_switch(&mut self, sched: &mut Scheduler<'_, Event>, conn: ConnectionId) {
        let Some(meta) = self.conns.get_mut(&conn) else {
            debug_assert!(false, "switching a never-submitted connection {conn}");
            return;
        };
        let next = meta.next_switch();
        self.launch_switch(sched, conn, next);
    }

    pub(super) fn on_switch_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        index: usize,
        ok: bool,
    ) {
        let now = sched.now();
        let Some(meta) = self.conns.get_mut(&conn) else {
            return;
        };
        if meta.phase != (Phase::Switching { chosen: index }) {
            return;
        }
        let route = meta.backups[index].clone();
        if ok {
            meta.primary = route;
            meta.phase = Phase::Switched;
            self.resolve_recovery(conn, now, true);
        } else {
            // Activation lost the race mid-route.
            self.abandon_switch(sched, conn, index, route);
        }
    }

    /// Activation of backup `index` was nacked or exhausted its retries:
    /// reliably scrub the partial activation and the leftover
    /// registrations along `route`, then — if the connection is still
    /// waiting on it — try the next candidate.
    pub(super) fn abandon_switch(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        index: usize,
        route: Route,
    ) {
        self.release_all(sched, conn, route.clone(), vec![route]);
        let waiting = Phase::Switching { chosen: index };
        if self.conns.get(&conn).map(|m| m.phase) == Some(waiting) {
            self.try_next_switch(sched, conn);
        }
    }

    /// Concludes a connection whose primary failed while a register walk
    /// was outstanding: tear everything down, now that no register packet
    /// can be overtaken by a release walk.
    pub(super) fn resolve_failing_setup(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
    ) {
        let Some(meta) = self.conns.get_mut(&conn) else {
            debug_assert!(false, "resolving a never-submitted connection {conn}");
            return;
        };
        meta.phase = Phase::Lost;
        let primary = meta.primary.clone();
        let backups = meta.take_registered(|_| true);
        self.resolve_recovery(conn, sched.now(), false);
        self.release_all(sched, conn, primary, backups);
    }
}

#[cfg(test)]
mod tests {
    use crate::chaos::ChaosConfig;
    use crate::engine::testkit::{r, BW};
    use crate::engine::{ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
    use crate::fate::{Fate, ScriptedFates};
    use drt_core::ConnectionId;
    use drt_net::{topology, Bandwidth, NodeId};
    use drt_sim::SimDuration;
    use std::sync::Arc;

    #[test]
    fn node_crash_is_detected_by_surviving_neighbours() {
        // Primary 3 -> 4 -> 5 -> 8 transits router 4; the backup avoids
        // it entirely. Crashing router 4 kills both primary links at
        // once: link 3->4 is detected by its source (router 3), link
        // 4->5 by its *destination* (router 5) — the crashed router
        // itself can detect nothing. Both report to the source; the
        // second report must be absorbed without a second switch.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[3, 4, 5, 8]);
        let backup = r(&net, &[3, 6, 7, 8]);
        sim.establish(ConnectionId::new(0), BW, primary, vec![backup.clone()]);
        sim.run_to_quiescence();
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established)
        );

        sim.crash_router(NodeId::new(4));
        while sim.step() {
            sim.check_invariants().unwrap();
        }
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Switched)
        );
        // Exactly one recovery episode despite two incident-link reports.
        assert_eq!(sim.recovery_log().len(), 1);
        assert!(sim.recovery_log()[0].recovered);
        assert_eq!(sim.link_resources(backup.links()[0]).prime(), BW);
        // The old primary's release walk dies at the crashed router (a
        // bounded, counted leak) — but every report must have been acked.
        assert!(
            sim.exhausted().all(|(k, _)| k != "failure-report"),
            "acks reach the surviving reporters"
        );
    }

    #[test]
    fn duplicated_failure_reports_are_absorbed() {
        // Chaos duplicates every multi-hop delivery, so the source sees
        // each failure report (at least) twice: the duplicate must hit
        // the per-connection reported-set dedup and change nothing.
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let fates = ScriptedFates::new(vec![Fate::Duplicate; 64], SimDuration::ZERO);
        let mut sim = ProtocolSim::with_fates(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            ChaosConfig::default(),
            Box::new(fates),
        );
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![backup]);
        sim.run_to_quiescence();
        sim.fail_link(primary.links()[0]);
        while sim.step() {
            sim.check_invariants().unwrap();
        }
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Switched)
        );
        assert_eq!(sim.recovery_log().len(), 1, "one episode, not one per copy");
    }

    #[test]
    fn overlapping_failure_during_recovery_keeps_ledgers_clean() {
        // A second link fails while the channel switch for the first
        // failure is still walking: the activation nacks at the dead hop,
        // the partial activation is scrubbed, and the connection resolves
        // without corrupting any router ledger (the post-run quiescent
        // checks compare every ledger against the source's view exactly).
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[3, 4, 5]);
        let b1 = r(&net, &[3, 0, 1, 2, 5]);
        let b2 = r(&net, &[3, 6, 7, 8, 5]);
        sim.establish(
            ConnectionId::new(0),
            BW,
            primary.clone(),
            vec![b1.clone(), b2],
        );
        sim.run_to_quiescence();

        sim.fail_link(primary.links()[0]);
        // Step until the source accepted the report and began switching.
        while sim.outcome(ConnectionId::new(0)) != Some(ConnOutcome::Pending) {
            assert!(sim.step(), "source never began switching");
            sim.check_invariants().unwrap();
        }
        // Now kill a later hop of the backup being activated.
        sim.fail_link(b1.links()[1]);
        while sim.step() {
            sim.check_invariants().unwrap();
        }
        // DRTP releases the other backups when switching starts, so with
        // the chosen backup dead the connection is lost — but cleanly:
        // the quiescent invariants above verified every ledger is exact.
        assert_eq!(sim.outcome(ConnectionId::new(0)), Some(ConnOutcome::Lost));
        assert_eq!(sim.recovery_log().len(), 1);
        assert!(!sim.recovery_log()[0].recovered);
        assert_eq!(
            sim.link_resources(b1.links()[0]).prime(),
            Bandwidth::ZERO,
            "partial activation scrubbed"
        );
    }

    #[test]
    fn sybil_reporters_defeat_a_raw_corroboration_quorum() {
        // One adversary forges three reporter identities, each staying
        // under the suspicion threshold. With the quorum counting *raw*
        // distinct reporters, the third lie is "corroborated" and the
        // source acts on a healthy link — the phantom-report invariant
        // catches the spurious switchover.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let cfg = ProtocolConfig {
            report_verification: true,
            suspicion_threshold: 4,
            corroboration_quorum: 3,
            quorum_requires_clean: false,
            ..ProtocolConfig::default()
        };
        let mut sim = ProtocolSim::new(Arc::clone(&net), cfg);
        let primary = r(&net, &[3, 4, 5, 8]);
        let backup = r(&net, &[3, 6, 7, 8]);
        let spoofed = primary.links()[1]; // 4 -> 5, perfectly healthy
        sim.establish(ConnectionId::new(0), BW, primary, vec![backup]);
        sim.run_to_quiescence();
        for reporter in [3u32, 4, 5] {
            sim.spoof_failure_report(NodeId::new(reporter), spoofed);
            sim.run_to_quiescence();
        }
        assert_eq!(sim.journal_stats().quorum_overrides, 1);
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Switched),
            "the sybil quorum moved the connection off a healthy primary"
        );
        let violation = sim.check_invariants().unwrap_err();
        assert_eq!(violation.rule, "phantom-report");
    }

    #[test]
    fn clean_quorum_blocks_sybil_reporters() {
        // Countermeasure: only quarantine-clean reporters count. Every
        // forged identity burns a suspicion strike with its own lie, so
        // with a threshold of 1 no forged witness is ever clean and the
        // quorum is unreachable for a single adversary.
        let net = Arc::new(topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap());
        let cfg = ProtocolConfig {
            report_verification: true,
            suspicion_threshold: 1,
            corroboration_quorum: 3,
            quorum_requires_clean: true,
            ..ProtocolConfig::default()
        };
        let mut sim = ProtocolSim::new(Arc::clone(&net), cfg);
        let primary = r(&net, &[3, 4, 5, 8]);
        let backup = r(&net, &[3, 6, 7, 8]);
        let spoofed = primary.links()[1];
        sim.establish(ConnectionId::new(0), BW, primary, vec![backup]);
        sim.run_to_quiescence();
        for reporter in [3u32, 4, 5] {
            sim.spoof_failure_report(NodeId::new(reporter), spoofed);
            sim.run_to_quiescence();
        }
        sim.check_invariants().unwrap();
        assert_eq!(sim.journal_stats().quorum_overrides, 0);
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established),
            "no amount of sybil identities assembles a clean quorum"
        );
        for reporter in [3u32, 4, 5] {
            assert_eq!(sim.suspicion_of(NodeId::new(reporter)), 1);
        }
    }
}
