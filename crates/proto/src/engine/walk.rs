//! The one walk and the one transaction: how a packet crosses the
//! network hop by hop, and how its initiator keeps retransmitting until
//! the answer returns.
//!
//! Every source-initiated operation is a [`Walk`] whose [`WalkOp`] names
//! the only per-hop difference (`State::apply_walk`); gating, journaling,
//! forwarding and replying are shared (`State::on_walk`). Every reliable
//! exchange — walk or failure report — is a [`Txn`] started by
//! `State::start_txn` and driven by `State::on_retry_timer`.
//!
//! # Reliability under a lossy control plane
//!
//! Every source-initiated operation (primary setup, backup register,
//! releases, channel switch) and every detector-initiated failure report
//! is a *transaction*: the initiator assigns a sequence number, arms a
//! retransmission timer with exponential backoff, and retransmits the
//! packet until the matching result/ack returns or
//! [`crate::RetryConfig::max_attempts`] is exhausted. Routers gate every walk
//! packet through a per-`(conn, seq)` dedup ledger
//! ([`crate::JournalRecord::GateWalk`]), so retransmissions and chaos
//! duplicates never double-reserve, double-register, or double-release.
//!
//! The retransmission timeout for a walk over `h` hops is
//! `(per_hop + max_jitter) * (2h + 2) + rto_margin`, which upper-
//! bounds the worst-case round trip. Consequence: when a timer fires, no
//! packet of the timed-out attempt is still in flight, so a retry (or the
//! exhaustion cleanup) never races its own predecessor.
//!
//! Cleanup after a failed walk is also source-driven and reliable: a
//! nacked setup or switch makes the source launch release transactions
//! over the full route (each hop's handler is an idempotent no-op where
//! nothing was applied), instead of trusting an unacknowledged backward
//! teardown walk.

use super::{Event, Phase, State};
use crate::message::{Packet, Walk, WalkOp};
use crate::router::WalkGate;
use crate::JournalRecord;
use drt_core::ConnectionId;
use drt_net::{NodeId, Route};
use drt_sim::{Scheduler, SimDuration};
use std::collections::btree_map::Entry;

/// An outstanding reliable operation awaiting its result/ack.
#[derive(Debug, Clone)]
pub(super) struct Txn {
    /// The packet to retransmit (attempt re-stamped per retry): a walk
    /// or a failure report, which also says what the transaction is for.
    pub(super) template: Packet,
    /// First delivery target.
    pub(super) to: NodeId,
    /// Delivery delay of each (re)transmission: zero for walks (local
    /// handoff to the source's own router), multi-hop for reports.
    pub(super) delay: SimDuration,
    pub(super) attempt: u32,
    /// Current retransmission timeout (grows by the backoff factor).
    pub(super) timeout: SimDuration,
}

/// A deliberately wrong engine variant, used to validate the `verify`
/// model checker (mutation-testing style): the checker must find a
/// schedule exposing each seeded bug, and the reported counterexample
/// must replay to the same violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeededBug {
    /// The correct engine.
    #[default]
    None,
    /// A duplicate backup-register delivery re-applies the registration,
    /// double-counting the backup in the APLV and channel table.
    DoubleRegister,
    /// A source acts on every failure report unverified: a lie about a
    /// healthy link moves the connection off it, and no reporter is ever
    /// scored or quarantined.
    TrustReports,
}

impl SeededBug {
    /// Whether this variant re-applies `op` on a duplicate delivery
    /// instead of respecting the dedup gate.
    fn reapplies(self, op: WalkOp) -> bool {
        self == SeededBug::DoubleRegister && op == WalkOp::BackupRegister
    }
}

impl State {
    /// Transmits `pkt` towards `to`. The configured [`crate::FateSource`]
    /// alone then decides the delivery's fate: which copies arrive, and
    /// how late. Zero-delay sends are local handoffs to the node's own
    /// router and bypass the fate source entirely.
    pub(super) fn send(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        to: NodeId,
        pkt: Packet,
        delay: SimDuration,
        retry: bool,
    ) {
        self.counters.record(&pkt, retry);
        if delay.is_zero() {
            sched.schedule_in(delay, Event::Deliver { to, pkt });
            return;
        }
        let hops = (delay.as_micros() / self.timing.per_hop.as_micros().max(1)).max(1);
        let fate = self.fates.decide(&pkt, hops);
        // The packet itself rides the last copy; only a duplicate clones.
        let Some((&last, earlier)) = fate.copies.split_last() else {
            return;
        };
        for &jitter in earlier {
            sched.schedule_in(
                delay + jitter,
                Event::Deliver {
                    to,
                    pkt: pkt.clone(),
                },
            );
        }
        sched.schedule_in(delay + last, Event::Deliver { to, pkt });
    }

    pub(super) fn hop_delay(&self, hops: usize) -> SimDuration {
        self.timing.per_hop.times(hops as u64)
    }

    /// Retransmission timeout bounding the round trip of a transaction
    /// spanning `hops` hops: forward walk + returning result, each hop
    /// delayed by at most `per_hop + max_jitter`, plus slack for
    /// the zero-delay local handoffs and the configured margin.
    fn rto(&self, hops: usize) -> SimDuration {
        let per_hop = self.timing.per_hop + self.chaos.max_jitter;
        per_hop.times(2 * hops as u64 + 2) + self.retry.rto_margin
    }

    pub(super) fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Starts a reliable transaction: `template` (already stamped with
    /// its sequence number and attempt 1) goes to `to` after `delay` —
    /// zero for walks (local handoff to the source's own router),
    /// multi-hop for reports — and is retransmitted until the
    /// matching answer concludes the transaction or it exhausts. `hops`
    /// sizes the retransmission timeout.
    pub(super) fn start_txn(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        template: Packet,
        to: NodeId,
        delay: SimDuration,
        hops: usize,
    ) {
        let seq = template.seq();
        let timeout = self.rto(hops);
        self.txns.insert(
            seq,
            Txn {
                template: template.clone(),
                to,
                delay,
                attempt: 1,
                timeout,
            },
        );
        self.send(sched, to, template, delay, false);
        sched.schedule_in(timeout, Event::RetryTimer { seq, attempt: 1 });
    }

    /// Starts the reliable `op` walk for `conn` along `route`.
    pub(super) fn start_walk(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        op: WalkOp,
        route: Route,
    ) {
        let Some(meta) = self.conns.get(&conn) else {
            debug_assert!(false, "walk started for unsubmitted connection {conn}");
            return;
        };
        let bw = meta.bw;
        let primary_lset = if op.carries_lset() {
            meta.primary.links().to_vec()
        } else {
            Vec::new()
        };
        let (to, hops) = (route.source(), route.len());
        let template = Packet::Walk(Walk {
            op,
            conn,
            bw,
            route,
            primary_lset,
            hop: 0,
            seq: self.alloc_seq(),
            attempt: 1,
        });
        self.start_txn(sched, template, to, SimDuration::ZERO, hops);
    }

    /// One hop of a walk, whatever its op: gate once, apply, then forward
    /// to the next router or — at the last hop, or where the hop refused
    /// — reply to the source.
    pub(super) fn on_walk(&mut self, sched: &mut Scheduler<'_, Event>, to: NodeId, mut w: Walk) {
        debug_assert_eq!(self.net.link(w.route.links()[w.hop]).src(), to);
        match self
            .journals
            .gate(&mut self.routers, to, w.conn, w.seq, w.attempt)
        {
            WalkGate::Stale => return,
            WalkGate::AlreadyApplied => {
                if self.bug.reapplies(w.op) {
                    // Seeded fault: ignore the dedup verdict and re-apply.
                    // Journaled too, so replay reproduces the bug.
                    self.apply_walk(to, &w);
                }
            }
            WalkGate::Fresh => {
                if !self.apply_walk(to, &w) {
                    // Nack; the source will launch reliable cleanup over
                    // the full route.
                    let (conn, seq, attempt) = (w.conn, w.seq, w.attempt);
                    let poison = JournalRecord::PoisonWalk { conn, seq, attempt };
                    self.journals.commit(&mut self.routers, to, poison);
                    self.reply(sched, &w, false, w.hop.max(1));
                    return;
                }
                let applied = JournalRecord::MarkApplied {
                    conn: w.conn,
                    seq: w.seq,
                };
                self.journals.commit(&mut self.routers, to, applied);
            }
        }
        if w.hop + 1 < w.route.len() {
            let next = self.net.link(w.route.links()[w.hop + 1]).src();
            w.hop += 1;
            self.send(sched, next, Packet::Walk(w), self.timing.per_hop, false);
        } else {
            // Walked end to end: confirm to the source.
            self.reply(sched, &w, true, w.route.len());
        }
    }

    /// The only per-op code of a walk: the state change one hop makes at
    /// its router, committed through the journal. `false` is a refusal —
    /// only the ops that claim bandwidth can refuse, and a dead link
    /// refuses them before anything is journaled.
    fn apply_walk(&mut self, to: NodeId, w: &Walk) -> bool {
        let (conn, bw, out_link) = (w.conn, w.bw, w.route.links()[w.hop]);
        if w.op.can_nack() && self.failed[out_link.index()] {
            return false;
        }
        let rec = match w.op {
            WalkOp::PrimarySetup => JournalRecord::ReservePrimary {
                conn,
                route: w.route.clone(),
                out_link,
                bw,
            },
            WalkOp::BackupRegister => JournalRecord::RegisterBackup {
                conn,
                route: w.route.clone(),
                out_link,
                primary_lset: w.primary_lset.clone(),
                bw,
            },
            WalkOp::PrimaryRelease => JournalRecord::ReleasePrimary {
                conn,
                route: w.route.clone(),
                out_link,
            },
            WalkOp::BackupRelease => JournalRecord::UnregisterBackup {
                conn,
                route: w.route.clone(),
                out_link,
            },
            WalkOp::ChannelSwitch => JournalRecord::ActivateBackup {
                conn,
                route: w.route.clone(),
                out_link,
                bw,
            },
        };
        self.journals.commit(&mut self.routers, to, rec)
    }

    /// Answers walk `w` to its source, `hops` hops upstream.
    fn reply(&mut self, sched: &mut Scheduler<'_, Event>, w: &Walk, ok: bool, hops: usize) {
        let result = Packet::WalkResult {
            op: w.op,
            conn: w.conn,
            ok,
            seq: w.seq,
        };
        let delay = self.hop_delay(hops);
        self.send(sched, w.route.source(), result, delay, false);
    }

    /// A result concludes the transaction it answers — same `seq`, same
    /// op — and nothing else: a duplicate, stale or misdirected result
    /// leaves whatever transaction holds that `seq` to its retry timer.
    pub(super) fn on_walk_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        op: WalkOp,
        conn: ConnectionId,
        ok: bool,
        seq: u64,
    ) {
        let Entry::Occupied(txn) = self.txns.entry(seq) else {
            return;
        };
        if !matches!(&txn.get().template, Packet::Walk(w) if w.op == op) {
            return;
        }
        debug_assert_eq!(txn.get().template.conn(), conn);
        let Packet::Walk(w) = txn.remove().template else {
            return;
        };
        match op {
            WalkOp::PrimarySetup => self.on_primary_result(sched, conn, ok),
            WalkOp::BackupRegister => self.on_register_result(sched, conn, w.route),
            WalkOp::ChannelSwitch => self.on_switch_result(sched, conn, w.route, ok),
            WalkOp::PrimaryRelease | WalkOp::BackupRelease => {}
        }
    }

    fn on_primary_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        ok: bool,
    ) {
        let Some(meta) = self.conns.get_mut(&conn) else {
            return;
        };
        if meta.phase != Phase::SettingUpPrimary {
            return;
        }
        if !ok {
            meta.phase = Phase::Rejected;
            let route = meta.primary.clone();
            // Reliable cleanup of the hops the walk did reserve.
            self.start_walk(sched, conn, WalkOp::PrimaryRelease, route);
        } else if let Some(route) = meta.backup.clone() {
            meta.phase = Phase::RegisteringBackup;
            self.start_walk(sched, conn, WalkOp::BackupRegister, route);
        } else {
            meta.phase = Phase::Established;
        }
    }

    /// The backup `route` is registered end to end.
    fn on_register_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        route: Route,
    ) {
        let Some(meta) = self.conns.get_mut(&conn) else {
            return;
        };
        match meta.phase {
            Phase::FailingDuringSetup => {
                meta.registered = true;
                self.resolve_failing_setup(sched, conn);
            }
            // The setup's register, or a reconfiguration register
            // ([`crate::ProtocolSim::add_backup`]) on a live connection:
            // protected (again).
            Phase::RegisteringBackup | Phase::Established | Phase::Degraded | Phase::Switched => {
                meta.registered = true;
                meta.phase = Phase::Established;
            }
            Phase::SettingUpPrimary => {}
            // The connection moved on (switching, lost, released,
            // rejected) while this late registration completed end to
            // end: scrub it reliably.
            _ => self.start_walk(sched, conn, WalkOp::BackupRelease, route),
        }
    }

    pub(super) fn on_retry_timer(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        seq: u64,
        attempt: u32,
    ) {
        let Some(txn) = self.txns.get_mut(&seq) else {
            return; // concluded — stale timer
        };
        if txn.attempt != attempt {
            return; // superseded by a newer retry's timer
        }
        if txn.attempt >= self.retry.max_attempts {
            if let Some(txn) = self.txns.remove(&seq) {
                self.on_txn_exhausted(sched, txn);
            }
            return;
        }
        txn.attempt += 1;
        txn.timeout = txn.timeout.times(self.retry.backoff as u64);
        let mut pkt = txn.template.clone();
        pkt.set_attempt(txn.attempt);
        let (to, delay, timeout, attempt) = (txn.to, txn.delay, txn.timeout, txn.attempt);
        self.send(sched, to, pkt, delay, true);
        sched.schedule_in(timeout, Event::RetryTimer { seq, attempt });
    }

    /// A transaction ran out of attempts. By the RTO bound nothing of it
    /// is still in flight, so compensating transactions see stable state.
    fn on_txn_exhausted(&mut self, sched: &mut Scheduler<'_, Event>, txn: Txn) {
        *self.exhausted.entry(txn.template.kind()).or_insert(0) += 1;
        let conn = txn.template.conn();
        // A report nobody acked: give up, as for the releases below.
        let Packet::Walk(Walk { op, route, .. }) = txn.template else {
            return;
        };
        match op {
            WalkOp::PrimarySetup => {
                if let Some(meta) = self.conns.get_mut(&conn) {
                    if meta.phase == Phase::SettingUpPrimary {
                        meta.phase = Phase::Rejected;
                    }
                }
                // Scrub whatever hops the abandoned walk reserved.
                self.start_walk(sched, conn, WalkOp::PrimaryRelease, route);
            }
            WalkOp::BackupRegister => {
                self.start_walk(sched, conn, WalkOp::BackupRelease, route);
                let Some(meta) = self.conns.get_mut(&conn) else {
                    return;
                };
                // Give up on protection, keep the live channel.
                meta.backup = None;
                match meta.phase {
                    Phase::RegisteringBackup => meta.phase = Phase::Degraded,
                    Phase::FailingDuringSetup => self.resolve_failing_setup(sched, conn),
                    _ => {}
                }
            }
            WalkOp::ChannelSwitch => self.abandon_switch(sched, conn, route),
            // Give up: the leak (if any) is bounded and counted in
            // `exhausted` — under total partition nothing more can be
            // done from here.
            WalkOp::PrimaryRelease | WalkOp::BackupRelease => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::engine::testkit::{deliver, r, walk, BW};
    use crate::engine::{ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
    use crate::fate::{Fate, ScriptedFates};
    use drt_net::{topology, Bandwidth};
    use std::sync::Arc;

    /// The `(prime, backup-table length)` of `node`'s first route link.
    fn held(sim: &ProtocolSim, node: u32, route: &Route) -> (Bandwidth, usize) {
        let router = sim.router(NodeId::new(node));
        let link = route.links()[node as usize];
        (router.link(link).prime(), router.backup_table_len())
    }

    #[test]
    fn one_walk_handler_serves_every_op() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let route = r(&net, &[0, 1, 2]);
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let none = Bandwidth::ZERO;
        // (op, the walk that sets its stage, what hop 0 holds once applied)
        let table = [
            (WalkOp::PrimarySetup, None, (BW, 0)),
            (WalkOp::BackupRegister, None, (none, 1)),
            (
                WalkOp::PrimaryRelease,
                Some(WalkOp::PrimarySetup),
                (none, 0),
            ),
            (
                WalkOp::BackupRelease,
                Some(WalkOp::BackupRegister),
                (none, 0),
            ),
            (WalkOp::ChannelSwitch, Some(WalkOp::BackupRegister), (BW, 0)),
        ];
        for (op, stage, applied) in table {
            let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
            let hop = sim.state.timing.per_hop;
            let result = |ok, seq| Packet::WalkResult {
                op,
                conn: ConnectionId::new(0),
                ok,
                seq,
            };
            if let Some(stage) = stage {
                deliver(
                    &mut sim,
                    n0,
                    Packet::Walk(walk(stage, route.clone(), 0, 1, 1)),
                );
            }
            // Fresh: applied here, forwarded to the next router.
            let first = Packet::Walk(walk(op, route.clone(), 0, 2, 1));
            let onward = vec![(hop, n1, Packet::Walk(walk(op, route.clone(), 1, 2, 1)))];
            assert_eq!(deliver(&mut sim, n0, first.clone()), onward, "{op:?}");
            assert_eq!(held(&sim, 0, &route), applied, "{op:?}");
            let tail = sim.journal(n0).tail();
            assert!(
                matches!(
                    tail[tail.len() - 1],
                    JournalRecord::MarkApplied { seq: 2, .. }
                ),
                "{op:?}: {tail:?}"
            );
            // Duplicate: forwarded again, the router untouched.
            let before = format!("{:?}", sim.router(n0));
            assert_eq!(deliver(&mut sim, n0, first.clone()), onward, "{op:?}");
            assert_eq!(format!("{:?}", sim.router(n0)), before, "{op:?}");
            // Stale: once a retry was seen, the old attempt is dropped.
            let mut retry = first.clone();
            retry.set_attempt(2);
            assert_eq!(deliver(&mut sim, n0, retry).len(), 1, "{op:?}");
            assert_eq!(deliver(&mut sim, n0, first), vec![], "{op:?}");
            // Last hop: the result returns over the whole route.
            let last = Packet::Walk(walk(op, route.clone(), 1, 2, 1));
            let confirmed = vec![(hop.times(2), n0, result(true, 2))];
            assert_eq!(deliver(&mut sim, n1, last), confirmed, "{op:?}");
            if !op.can_nack() {
                continue;
            }
            // A full link refuses at hop 0 (the nack still takes one hop)…
            let mut greedy = walk(op, route.clone(), 0, 3, 1);
            greedy.bw = Bandwidth::from_mbps(10);
            let refused = vec![(hop, n0, result(false, 3))];
            assert_eq!(
                deliver(&mut sim, n0, Packet::Walk(greedy)),
                refused,
                "{op:?}"
            );
            let poison = JournalRecord::PoisonWalk {
                conn: ConnectionId::new(0),
                seq: 3,
                attempt: 1,
            };
            assert_eq!(sim.journal(n0).tail().last(), Some(&poison), "{op:?}");
            assert_eq!(
                held(&sim, 0, &route),
                applied,
                "{op:?}: refusal left residue"
            );
            // …and a dead one at hop 1, before anything but the gate and
            // the poison is journaled.
            sim.state.failed[route.links()[1].index()] = true;
            let lsn = sim.journal(n1).lsn();
            let doomed = Packet::Walk(walk(op, route.clone(), 1, 3, 1));
            assert_eq!(deliver(&mut sim, n1, doomed), refused, "{op:?}");
            assert_eq!(sim.journal(n1).lsn(), lsn + 2, "{op:?}");
        }
    }

    #[test]
    fn a_result_for_another_op_leaves_the_transaction_alone() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let conn = ConnectionId::new(0);
        sim.establish(conn, BW, r(&net, &[0, 1]), None);
        assert!(sim.step(), "the launch starts transaction 1");
        let result = |op| Packet::WalkResult {
            op,
            conn,
            ok: true,
            seq: 1,
        };
        // Forged: right sequence number, wrong op.
        deliver(&mut sim, NodeId::new(0), result(WalkOp::PrimaryRelease));
        assert!(sim.state.txns.contains_key(&1));
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Pending));
        deliver(&mut sim, NodeId::new(0), result(WalkOp::PrimarySetup));
        assert!(sim.state.txns.is_empty());
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Established));
    }

    #[test]
    fn add_backup_refuses_a_connection_that_holds_one() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let conn = ConnectionId::new(0);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(conn, BW, r(&net, &[0, 1]), Some(backup.clone()));
        sim.run_to_quiescence();
        let before = sim.fingerprint();
        assert!(!sim.add_backup(conn, backup.clone()));
        assert_eq!(sim.fingerprint(), before, "a refusal changes nothing");
        assert_eq!(sim.registered_backup(conn), Some(&backup));
        // Once the backup is retired, the connection takes one again.
        assert_eq!(sim.retire_backups_crossing(conn, backup.links()[1]), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Degraded));
        assert!(sim.add_backup(conn, backup.clone()));
        sim.run_to_quiescence();
        assert_eq!(sim.outcome(conn), Some(ConnOutcome::Established));
        assert_eq!(sim.link_resources(backup.links()[0]).spare(), BW);
        sim.check_invariants().unwrap();
    }

    #[test]
    fn rto_covers_lossless_round_trip() {
        let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(10)).unwrap());
        let sim = ProtocolSim::new(net, ProtocolConfig::default());
        // Forward walk of h hops + result delivery of h hops, all at
        // per_hop_delay: the RTO must exceed it.
        for hops in 1..6usize {
            let rtt = sim.state.timing.per_hop.times(2 * hops as u64);
            assert!(sim.state.rto(hops) > rtt, "rto too tight for {hops} hops");
        }
    }

    #[test]
    fn quiet_chaos_run_is_lossless() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary, Some(backup));
        sim.run_to_quiescence();
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established)
        );
        assert_eq!(sim.counters().retransmitted(), (0, 0));
        assert_eq!(sim.exhausted().count(), 0);
    }

    #[test]
    fn lossy_establishment_retransmits_until_success() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let chaos = ChaosConfig::lossy(0.3, 11);
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig {
                max_attempts: 16,
                ..RetryConfig::default()
            },
            chaos,
        );
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), Some(backup));
        sim.run_to_quiescence();
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Established)
        );
        // The reservation is in place exactly once despite duplicates.
        assert_eq!(sim.link_resources(primary.links()[0]).prime(), BW);
    }

    #[test]
    fn total_loss_degrades_instead_of_wedging() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        // Every multi-hop delivery is dropped: setup can never confirm.
        let chaos = ChaosConfig::lossy(1.0, 3);
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig {
                max_attempts: 3,
                ..RetryConfig::default()
            },
            chaos,
        );
        let primary = r(&net, &[0, 1]);
        sim.establish(ConnectionId::new(0), BW, primary, None);
        sim.run_to_quiescence();
        // Not Pending: the transaction exhausted and the conn resolved.
        assert_eq!(
            sim.outcome(ConnectionId::new(0)),
            Some(ConnOutcome::Rejected)
        );
        let exhausted: Vec<_> = sim.exhausted().collect();
        assert!(exhausted.iter().any(|(k, _)| *k == "primary-setup"));
    }

    #[test]
    fn seeded_double_register_breaks_an_invariant_under_duplication() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let fates = ScriptedFates::new(vec![Fate::Duplicate; 8], SimDuration::ZERO);
        let mut sim = ProtocolSim::with_fates(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            ChaosConfig::default(),
            Box::new(fates),
        );
        sim.seed_bug(SeededBug::DoubleRegister);
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary, Some(backup));
        let mut violated = false;
        while sim.step() {
            if sim.check_invariants().is_err() {
                violated = true;
                break;
            }
        }
        assert!(violated, "double registration must trip an invariant");
    }
}
