//! The protocol simulation engine: packet delivery, per-router handling,
//! and the source-side connection state machines.
//!
//! One file per handler family, all `impl State` behind the `Journals`
//! choke point: `walk` (the hop-by-hop packet walk, transactions, retry,
//! exhaustion), `recovery` (failure report, switchover), `rejoin` (crash,
//! restart, resync), `audit` (invariants, fingerprint) and `counters`.
//! This file holds the configuration, the connection state, the public
//! [`ProtocolSim`] API and the event dispatch.

mod audit;
mod counters;
mod recovery;
mod rejoin;
mod walk;

pub use counters::{JournalStats, RecoveryRecord, TrafficCounters};
pub use walk::SeededBug;

use walk::{Txn, TxnKind};

use crate::chaos::ChaosConfig;
use crate::fate::{ChaosFates, FateSource};
use crate::message::{Packet, WalkOp};
use crate::router::journal::{Journal, Journals};
use crate::router::Router;
use drt_core::failure::RecoveryLatencyModel;
use drt_core::{Aplv, ConnectionId, LinkResources};
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};
use drt_sim::{Scheduler, SimDuration, SimTime, Simulator};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The signalling plane's configuration. It has no settable value: the
/// engine's timing is [`RecoveryLatencyModel`]'s default (10 ms
/// detection, 1 ms per hop) and report verification is always on. The
/// type stays so that every [`ProtocolSim`] constructor keeps its
/// signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolConfig {
    _private: (),
}

/// Retransmission policy for signalling transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total transmission attempts per transaction (first + retries)
    /// before the source gives up and degrades.
    pub max_attempts: u32,
    /// Timeout multiplier applied on each retry (exponential backoff).
    pub backoff: u32,
    /// Safety margin added to the computed round-trip bound.
    pub rto_margin: SimDuration,
}

impl Default for RetryConfig {
    /// 8 attempts, doubling timeout, 1 ms margin.
    fn default() -> Self {
        RetryConfig {
            max_attempts: 8,
            backoff: 2,
            rto_margin: SimDuration::from_millis(1),
        }
    }
}

/// Lifecycle of a connection as seen by its source router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnOutcome {
    /// Signalling in progress.
    Pending,
    /// Primary reserved and every backup registered.
    Established,
    /// Primary reserved but a backup registration exhausted its retries:
    /// the connection carries traffic without (full) protection.
    Degraded,
    /// Primary setup failed (bandwidth taken while signalling, or the
    /// setup transaction exhausted its retries).
    Rejected,
    /// A failure occurred and a backup was activated end-to-end.
    Switched,
    /// A failure occurred and no backup could be activated.
    Lost,
    /// Terminated; resources released.
    Released,
}

impl ConnOutcome {
    /// `true` when the connection holds a live end-to-end channel:
    /// [`ConnOutcome::Established`], the unprotected
    /// [`ConnOutcome::Degraded`], or the post-recovery
    /// [`ConnOutcome::Switched`].
    pub fn is_established(self) -> bool {
        matches!(
            self,
            ConnOutcome::Established | ConnOutcome::Degraded | ConnOutcome::Switched
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SettingUpPrimary,
    RegisteringBackup(usize),
    Established,
    /// A backup-register transaction exhausted its retries: live but not
    /// (fully) protected.
    Degraded,
    /// A failure report arrived while a register walk was outstanding;
    /// teardown waits for that transaction to conclude so release walks
    /// cannot overtake it.
    FailingDuringSetup,
    Switching {
        chosen: usize,
    },
    Switched,
    Lost,
    Rejected,
    Released,
}

impl Phase {
    fn outcome(self) -> ConnOutcome {
        match self {
            Phase::SettingUpPrimary
            | Phase::RegisteringBackup(_)
            | Phase::FailingDuringSetup
            | Phase::Switching { .. } => ConnOutcome::Pending,
            Phase::Established => ConnOutcome::Established,
            Phase::Degraded => ConnOutcome::Degraded,
            Phase::Rejected => ConnOutcome::Rejected,
            Phase::Switched => ConnOutcome::Switched,
            Phase::Lost => ConnOutcome::Lost,
            Phase::Released => ConnOutcome::Released,
        }
    }

    /// Whether the connection holds a live end-to-end channel
    /// (established, degraded, or switched).
    fn is_live(self) -> bool {
        self.outcome().is_established()
    }
}

#[derive(Debug, Clone)]
struct ConnMeta {
    bw: Bandwidth,
    primary: Route,
    backups: Vec<Route>,
    /// Which backups currently hold registrations along their full route.
    registered: Vec<bool>,
    /// Every link reported failed for this connection so far. Under
    /// correlated failures (node crashes, SRLGs) several incident links
    /// fail together and both endpoints may report: the set dedups
    /// repeats and lets switching avoid *all* known-dead links.
    reported: BTreeSet<LinkId>,
    phase: Phase,
}

impl ConnMeta {
    /// Unmarks every registered backup `pred` selects and returns their
    /// routes, in index order — the release walks the caller now owes.
    fn take_registered(&mut self, mut pred: impl FnMut(&Route) -> bool) -> Vec<Route> {
        let mut taken = Vec::new();
        for (b, reg) in self.backups.iter().zip(&mut self.registered) {
            if *reg && pred(b) {
                *reg = false;
                taken.push(b.clone());
            }
        }
        taken
    }
}

#[derive(Debug)]
enum Event {
    Deliver {
        to: NodeId,
        pkt: Packet,
    },
    LinkFails {
        link: LinkId,
    },
    /// A router fails permanently: state wiped, every incident link dead,
    /// surviving neighbours detect after the detection delay.
    NodeFails {
        node: NodeId,
    },
    Detected {
        at: NodeId,
        link: LinkId,
    },
    /// Deferred walk start (lets `establish`/`release` enqueue work
    /// without a scheduler in hand).
    Launch {
        conn: ConnectionId,
        op: WalkOp,
        index: usize,
        route: Route,
    },
    RetryTimer {
        seq: u64,
        attempt: u32,
    },
    RouterCrash {
        node: NodeId,
    },
    RouterRestart {
        node: NodeId,
    },
}

#[derive(Debug)]
struct State {
    net: Arc<Network>,
    /// Detection delay and per-hop delay of every control packet.
    timing: RecoveryLatencyModel,
    retry: RetryConfig,
    chaos: ChaosConfig,
    /// Per-reporter uncorroborated-report counts. Only a report for a
    /// link that has not failed scores, so honest runs leave it empty.
    suspicion: BTreeMap<NodeId, u32>,
    fates: Box<dyn FateSource>,
    bug: SeededBug,
    routers: Vec<Router>,
    /// Per-node write-ahead journals: the `commit` choke point every
    /// state-mutating handler goes through (append-before-act).
    journals: Journals,
    failed: Vec<bool>,
    /// Routers currently crashed (deliveries to them are dropped).
    down: Vec<bool>,
    /// Whether any router ever lost state for good (an amnesia restart,
    /// a degraded rejoin or a permanent [`Event::NodeFails`]) — state
    /// loss forfeits the quiescent exact-equality claims.
    node_crashed: bool,
    /// Whether any router ever completed a restart (either mode) — arms
    /// the `rejoin-restores-primaries` quiescent check.
    restarted: bool,
    /// A journaled rejoin fell back to the crashed-router detection path
    /// (corruption, conflict, exhaustion, or quarantined peer).
    rejoin_degraded: bool,
    /// Crash-recovery counters (see [`JournalStats`]).
    stats: JournalStats,
    conns: BTreeMap<ConnectionId, ConnMeta>,
    counters: TrafficCounters,
    /// Outstanding transactions by sequence number.
    txns: BTreeMap<u64, Txn>,
    next_seq: u64,
    /// Transactions that exhausted their retries, by packet kind.
    exhausted: BTreeMap<&'static str, u64>,
    recovery_log: Vec<RecoveryRecord>,
    pending_recovery: BTreeMap<ConnectionId, (LinkId, SimTime)>,
}

/// The distributed DRTP signalling simulation.
///
/// Queue commands ([`ProtocolSim::establish`], [`ProtocolSim::release`],
/// [`ProtocolSim::fail_link`]), then [`ProtocolSim::run_to_quiescence`];
/// interleave freely — virtual time advances monotonically across calls.
/// See the crate docs for an example.
///
/// Faults come in through two seams only. Every multi-hop delivery's
/// fate is decided by the [`FateSource`] — with a non-quiet
/// [`ChaosConfig`] (via [`ProtocolSim::with_chaos`]) the control plane
/// drops, duplicates and jitters deliveries, and the retransmission
/// machinery keeps the protocol live. Every other fault is a command:
/// [`ProtocolSim::fail_link`], [`ProtocolSim::crash_router`],
/// [`ProtocolSim::restart_router`] and
/// [`ProtocolSim::spoof_failure_report`].
///
/// There is one engine. Its timing is
/// [`drt_core::failure::RecoveryLatencyModel`]'s default, and a source
/// always verifies a failure report against the failed-link mask before
/// acting on it. A detector reports only a link that has failed, so an
/// honest run never meets a report it rejects.
#[derive(Debug)]
pub struct ProtocolSim {
    sim: Simulator<Event>,
    state: State,
}

impl ProtocolSim {
    /// Creates the simulation with one router per network node and a
    /// quiet (lossless) control plane.
    pub fn new(net: Arc<Network>, cfg: ProtocolConfig) -> Self {
        Self::with_chaos(net, cfg, RetryConfig::default(), ChaosConfig::default())
    }

    /// Creates the simulation with explicit retransmission policy and a
    /// chaotic control plane. Panics where [`ChaosFates::new`] does.
    pub fn with_chaos(
        net: Arc<Network>,
        cfg: ProtocolConfig,
        retry: RetryConfig,
        chaos: ChaosConfig,
    ) -> Self {
        let fates = Box::new(ChaosFates::new(chaos.clone()));
        Self::with_fates(net, cfg, retry, chaos, fates)
    }

    /// Creates the simulation with an explicit [`FateSource`] deciding
    /// every multi-hop delivery's fate — the seam the `verify` model
    /// checker drives with scripted fate vectors. `chaos` still supplies
    /// the `max_jitter` bound the retransmission timeout accounts for and
    /// what a restart recovers; its probabilistic fields are ignored (the
    /// fate source owns those decisions).
    pub fn with_fates(
        net: Arc<Network>,
        _cfg: ProtocolConfig,
        retry: RetryConfig,
        chaos: ChaosConfig,
        fates: Box<dyn FateSource>,
    ) -> Self {
        assert!(retry.max_attempts >= 1, "need at least one attempt");
        assert!(retry.backoff >= 1, "backoff multiplier must be >= 1");
        let routers = net.nodes().map(|n| Router::new(&net, n)).collect();
        let journals = Journals::new(Arc::clone(&net));
        let failed = vec![false; net.num_links()];
        let down = vec![false; net.num_nodes()];
        ProtocolSim {
            sim: Simulator::new(),
            state: State {
                net,
                timing: RecoveryLatencyModel::default(),
                retry,
                chaos,
                suspicion: BTreeMap::new(),
                fates,
                bug: SeededBug::None,
                routers,
                journals,
                failed,
                down,
                node_crashed: false,
                restarted: false,
                rejoin_degraded: false,
                stats: JournalStats::default(),
                conns: BTreeMap::new(),
                counters: TrafficCounters::default(),
                txns: BTreeMap::new(),
                next_seq: 1,
                exhausted: BTreeMap::new(),
                recovery_log: Vec::new(),
                pending_recovery: BTreeMap::new(),
            },
        }
    }

    /// Queues the start of an `op` walk for `conn` along `route` at the
    /// current instant (see [`Event::Launch`]).
    fn launch(&mut self, conn: ConnectionId, op: WalkOp, index: usize, route: Route) {
        let launch = Event::Launch {
            conn,
            op,
            index,
            route,
        };
        self.sim.schedule_at(self.sim.now(), launch);
    }

    /// The metadata of `conn` while it holds a live channel.
    fn live_mut(&mut self, conn: ConnectionId) -> Option<&mut ConnMeta> {
        self.state
            .conns
            .get_mut(&conn)
            .filter(|m| m.phase.is_live())
    }

    /// Begins establishing a DR-connection — one primary and, when given,
    /// one backup: the source starts the primary setup walk; the backup
    /// register walk follows on success.
    ///
    /// # Panics
    ///
    /// As [`ProtocolSim::establish_stacked`].
    pub fn establish(
        &mut self,
        conn: ConnectionId,
        bw: Bandwidth,
        primary: Route,
        backup: Option<Route>,
    ) {
        self.establish_stacked(conn, bw, primary, backup.into_iter().collect());
    }

    /// [`ProtocolSim::establish`] with any number of backups, registered
    /// one after another in the given order once the primary is set up.
    /// The routers keep one table entry per registration, so backups may
    /// stack on a shared link; the model checker's stacked-backup
    /// scenarios exercise exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `conn` was already submitted, or a route's endpoints
    /// disagree with the primary's.
    pub fn establish_stacked(
        &mut self,
        conn: ConnectionId,
        bw: Bandwidth,
        primary: Route,
        backups: Vec<Route>,
    ) {
        assert!(
            !self.state.conns.contains_key(&conn),
            "connection {conn} already submitted"
        );
        for b in &backups {
            assert_eq!(b.source(), primary.source(), "backup source mismatch");
            assert_eq!(b.dest(), primary.dest(), "backup dest mismatch");
        }
        let registered = vec![false; backups.len()];
        self.state.conns.insert(
            conn,
            ConnMeta {
                bw,
                primary: primary.clone(),
                backups,
                registered,
                reported: BTreeSet::new(),
                phase: Phase::SettingUpPrimary,
            },
        );
        self.launch(conn, WalkOp::PrimarySetup, 0, primary);
    }

    /// Registers an additional backup on a live connection — DRTP's
    /// resource-reconfiguration step (re-protect after a switchover or a
    /// degraded establishment). On success the connection returns to
    /// [`ConnOutcome::Established`]; if the registration exhausts its
    /// retries the connection keeps its current outcome.
    ///
    /// Returns `false` when the connection is not live or the route's
    /// endpoints do not match the primary's.
    pub fn add_backup(&mut self, conn: ConnectionId, backup: Route) -> bool {
        let Some(meta) = self.live_mut(conn) else {
            return false;
        };
        if backup.source() != meta.primary.source() || backup.dest() != meta.primary.dest() {
            return false;
        }
        meta.backups.push(backup.clone());
        meta.registered.push(false);
        let index = meta.backups.len() - 1;
        self.launch(conn, WalkOp::BackupRegister, index, backup);
        true
    }

    /// Retires every *registered* backup of a live connection that
    /// crosses `link`, sending reliable release walks — the source
    /// learned (e.g. from the routing plane) that those backups can never
    /// activate. A connection left with no registered backup degrades.
    /// Returns how many backups were retired.
    pub fn retire_backups_crossing(&mut self, conn: ConnectionId, link: LinkId) -> usize {
        let Some(meta) = self.live_mut(conn) else {
            return 0;
        };
        let retired = meta.take_registered(|b| b.contains_link(link));
        if !retired.is_empty()
            && meta.phase == Phase::Established
            && meta.registered.iter().all(|r| !r)
        {
            meta.phase = Phase::Degraded;
        }
        let n = retired.len();
        for b in retired {
            self.launch(conn, WalkOp::BackupRelease, 0, b);
        }
        n
    }

    /// Terminates a live connection (established, degraded, or switched):
    /// release transactions are launched along the current primary and
    /// every registered backup. Returns `false` when the connection is
    /// not in a releasable state.
    pub fn release(&mut self, conn: ConnectionId) -> bool {
        let Some(meta) = self.live_mut(conn) else {
            return false;
        };
        meta.phase = Phase::Released;
        let primary = meta.primary.clone();
        let backups = meta.take_registered(|_| true);
        self.launch(conn, WalkOp::PrimaryRelease, 0, primary);
        for b in backups {
            self.launch(conn, WalkOp::BackupRelease, 0, b);
        }
        true
    }

    /// Fails a unidirectional link; the adjacent router detects it after
    /// the detection delay and reports to every affected source.
    pub fn fail_link(&mut self, link: LinkId) {
        self.sim
            .schedule_at(self.sim.now(), Event::LinkFails { link });
    }

    /// Crashes a router permanently: its state is wiped, deliveries to it
    /// are dropped, and every incident link fails. The dead router cannot
    /// detect or report anything — the *surviving* endpoint of each
    /// incident link detects after the detection delay and reports
    /// upstream, so one crash fans out into failure reports for all
    /// incident links at once.
    pub fn crash_router(&mut self, node: NodeId) {
        self.sim
            .schedule_at(self.sim.now(), Event::NodeFails { node });
    }

    /// Crashes `node` now and restarts it after `down_for`: in-memory
    /// state is lost and deliveries to it are dropped while it is down.
    /// What the restart recovers follows [`ChaosConfig::restart_mode`];
    /// under [`crate::RestartMode::Journaled`] the rejoin replays the
    /// journal and resyncs with every neighbour.
    pub fn restart_router(&mut self, node: NodeId, down_for: SimDuration) {
        let now = self.sim.now();
        self.sim.schedule_at(now, Event::RouterCrash { node });
        self.sim
            .schedule_at(now + down_for, Event::RouterRestart { node });
    }

    /// Runs the event loop until no packets or timers remain in flight.
    pub fn run_to_quiescence(&mut self) {
        let state = &mut self.state;
        self.sim.run(|sched, ev| state.handle(sched, ev));
    }

    /// Advances the simulation by exactly one event; returns `false` when
    /// the queue is empty. The model checker's unit of progress — state
    /// can be fingerprinted and invariant-checked between steps.
    pub fn step(&mut self) -> bool {
        let state = &mut self.state;
        self.sim.step(|sched, ev| state.handle(sched, ev))
    }

    /// Number of events still pending in the queue.
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// `true` when nothing remains in flight: no pending events and no
    /// outstanding transactions.
    pub fn is_quiescent(&self) -> bool {
        self.sim.pending() == 0 && self.state.txns.is_empty()
    }

    /// Arms a deliberately buggy engine variant (see [`SeededBug`]).
    /// Exists so the `verify` checker can be validated against known-bad
    /// engines; production code never calls this.
    pub fn seed_bug(&mut self, bug: SeededBug) {
        self.state.bug = bug;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The source-side outcome of a submitted connection.
    pub fn outcome(&self, conn: ConnectionId) -> Option<ConnOutcome> {
        self.state.conns.get(&conn).map(|m| m.phase.outcome())
    }

    /// The router at `node`.
    pub fn router(&self, node: NodeId) -> &Router {
        &self.state.routers[node.index()]
    }

    /// The resource ledger of `link`, held by its source router.
    pub fn link_resources(&self, link: LinkId) -> &LinkResources {
        let owner = self.state.net.link(link).src();
        self.state.routers[owner.index()].link(link)
    }

    /// The APLV of `link`, held by its source router.
    pub fn aplv(&self, link: LinkId) -> &Aplv {
        let owner = self.state.net.link(link).src();
        self.state.routers[owner.index()].aplv(link)
    }

    /// Control-traffic counters.
    pub fn counters(&self) -> &TrafficCounters {
        &self.state.counters
    }

    /// The backups of `conn` whose registrations are currently in place
    /// end to end (source-side view). Empty for unknown connections.
    pub fn registered_backups(&self, conn: ConnectionId) -> Vec<Route> {
        self.state
            .conns
            .get(&conn)
            .map(|m| {
                m.backups
                    .iter()
                    .zip(&m.registered)
                    .filter(|&(_, &reg)| reg)
                    .map(|(r, _)| r.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Completed recovery episodes, in resolution order.
    pub fn recovery_log(&self) -> &[RecoveryRecord] {
        &self.state.recovery_log
    }

    /// Transactions that exhausted their retries, as
    /// `(packet kind, count)` in kind order.
    pub fn exhausted(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.state.exhausted.iter().map(|(&k, &n)| (k, n))
    }

    /// The suspicion score accumulated against `reporter`: the number of
    /// uncorroborated failure reports it sourced before reaching
    /// [`drt_core::orchestrator::SUSPICION_THRESHOLD`]. Always zero in an
    /// honest run.
    pub fn suspicion_of(&self, reporter: NodeId) -> u32 {
        self.state.suspicion.get(&reporter).copied().unwrap_or(0)
    }

    /// Crash-recovery statistics: restarts, journal replay volume, and
    /// the resync verdict tally.
    pub fn journal_stats(&self) -> JournalStats {
        self.state.stats
    }

    /// The write-ahead journal of `node`'s router.
    pub fn journal(&self, node: NodeId) -> &Journal {
        self.state.journals.journal(node)
    }

    /// Fires one fabricated failure report immediately: `reporter`
    /// "detects" the failure of the perfectly healthy `link` and reports
    /// it to every affected source, exactly as an honest detector would.
    /// The queued detection is processed by the next run call; a lie
    /// scheduled for later is this call made at that time.
    ///
    /// Returns `false`, scheduling nothing, when `link` has already
    /// failed: a report of a real failure is no lie.
    pub fn spoof_failure_report(&mut self, reporter: NodeId, link: LinkId) -> bool {
        if self.state.failed[link.index()] {
            return false;
        }
        self.sim
            .schedule_at(self.sim.now(), Event::Detected { at: reporter, link });
        true
    }
}

impl State {
    fn handle(&mut self, sched: &mut Scheduler<'_, Event>, ev: Event) {
        match ev {
            Event::LinkFails { link } => {
                let detector = self.net.link(link).src();
                self.link_fails(sched, link, detector);
            }
            Event::Detected { at, link } => self.on_detected(sched, at, link),
            Event::NodeFails { node } => self.on_node_fails(sched, node),
            Event::Launch {
                conn,
                op,
                index,
                route,
            } => {
                if self.conns.contains_key(&conn) {
                    self.start_walk(sched, conn, op, index, route);
                }
            }
            Event::RetryTimer { seq, attempt } => self.on_retry_timer(sched, seq, attempt),
            Event::RouterCrash { node } => self.on_router_crash(node),
            Event::RouterRestart { node } => self.on_router_restart(sched, node),
            Event::Deliver { to, pkt } => self.deliver(sched, to, pkt),
        }
    }

    fn deliver(&mut self, sched: &mut Scheduler<'_, Event>, to: NodeId, pkt: Packet) {
        if self.down[to.index()] {
            return; // crashed routers drop everything addressed to them
        }
        match pkt {
            Packet::Walk(w) => self.on_walk(sched, to, w),
            Packet::WalkResult { op, conn, ok, seq } => {
                self.on_walk_result(sched, op, conn, ok, seq);
            }
            Packet::FailureReport {
                conn,
                link,
                reporter,
                seq,
                attempt: _,
            } => self.on_failure_report(sched, conn, link, reporter, seq),
            Packet::ReportAck { conn: _, seq } => {
                self.txns.remove(&seq);
            }
            Packet::ResyncRequest {
                node,
                seq,
                attempt: _,
            } => self.on_resync_request(sched, to, node, seq),
            Packet::ResyncDigest { node, entries, seq } => {
                self.on_resync_digest(to, node, &entries, seq);
            }
        }
    }
}

/// Fixtures shared by the handler families' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use super::{Event, ProtocolSim};
    use crate::message::{Packet, Walk, WalkOp};
    use drt_core::ConnectionId;
    use drt_net::{Bandwidth, Network, NodeId, Route};
    use drt_sim::{SimDuration, SimTime, Simulator};

    pub(crate) const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    /// The route through `nodes`.
    pub(crate) fn r(net: &Network, nodes: &[u32]) -> Route {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(net, &ids).unwrap()
    }

    /// A walk packet of connection 0 (LSET empty) at `hop` of `route`.
    pub(crate) fn walk(op: WalkOp, route: Route, hop: usize, seq: u64, attempt: u32) -> Walk {
        Walk {
            op,
            conn: ConnectionId::new(0),
            bw: BW,
            route,
            primary_lset: Vec::new(),
            hop,
            seq,
            attempt,
        }
    }

    /// Delivers `pkt` to `to` on an otherwise idle control plane and
    /// returns what the handler sent: `(delay, addressee, packet)`.
    pub(crate) fn deliver(
        sim: &mut ProtocolSim,
        to: NodeId,
        pkt: Packet,
    ) -> Vec<(SimDuration, NodeId, Packet)> {
        sim.sim = Simulator::new();
        sim.sim
            .schedule_at(SimTime::ZERO, Event::Deliver { to, pkt });
        sim.step();
        let sent = sim.sim.pending_events().filter_map(|(at, ev)| match ev {
            Event::Deliver { to, pkt } => {
                Some((at.saturating_since(SimTime::ZERO), *to, pkt.clone()))
            }
            _ => None,
        });
        sent.collect()
    }
}
