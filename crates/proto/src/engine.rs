//! The protocol simulation engine: packet delivery, per-router handling,
//! and the source-side connection state machines.
//!
//! # Reliability under a lossy control plane
//!
//! Every source-initiated operation (primary setup, backup register,
//! releases, channel switch) and every detector-initiated failure report
//! is a *transaction*: the initiator assigns a sequence number, arms a
//! retransmission timer with exponential backoff, and retransmits the
//! packet until the matching result/ack returns or
//! [`RetryConfig::max_attempts`] is exhausted. Routers gate every walk
//! packet through a per-`(conn, seq)` dedup ledger
//! ([`crate::Router::gate_walk`]), so retransmissions and chaos
//! duplicates never double-reserve, double-register, or double-release.
//!
//! The retransmission timeout for a walk over `h` hops is
//! `(per_hop_delay + max_jitter) * (2h + 2) + rto_margin`, which upper-
//! bounds the worst-case round trip. Consequence: when a timer fires, no
//! packet of the timed-out attempt is still in flight, so a retry (or the
//! exhaustion cleanup) never races its own predecessor.
//!
//! Cleanup after a failed walk is also source-driven and reliable: a
//! nacked setup or switch makes the source launch release transactions
//! over the full route (each hop's handler is an idempotent no-op where
//! nothing was applied), instead of trusting an unacknowledged backward
//! teardown walk.

use crate::adversary::AdversaryConfig;
use crate::chaos::{ChaosConfig, RestartMode};
use crate::fate::{ChaosFates, FateSource};
use crate::journal::{Journal, Journals};
use crate::message::{Packet, ResyncEntry, RESYNC_CONN};
use crate::router::{Router, WalkGate};
use drt_core::invariants::{self, Violation};
use drt_core::{Aplv, ConnectionId, LinkResources};
use drt_net::{Bandwidth, LinkId, Network, NodeId, Route};
use drt_sim::{Scheduler, SimDuration, SimTime, Simulator};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Timing parameters of the signalling plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Propagation + processing delay per control-packet hop.
    pub per_hop_delay: SimDuration,
    /// Time for a link-adjacent router to detect a failure.
    pub detection_delay: SimDuration,
    /// When set, a source cross-checks every incoming failure report
    /// against its link-state evidence before acting: reports for links
    /// it has no reason to believe dead are rejected and raise the
    /// reporter's suspicion score — the countermeasure against byzantine
    /// false reports ([`crate::AdversaryConfig`]). Off by default: the
    /// honest engine trusts its detectors, exactly as the paper does.
    pub report_verification: bool,
    /// Uncorroborated reports from one router before that router is
    /// quarantined (all its subsequent reports ignored). Only consulted
    /// when [`ProtocolConfig::report_verification`] is set.
    pub suspicion_threshold: u32,
    /// Distinct reporters of the same uncorroborated link failure needed
    /// before the source overrides its own (possibly stale) link-state
    /// evidence and acts anyway. `0` (the default) disables the quorum:
    /// uncorroborated reports are never acted on. Only consulted when
    /// [`ProtocolConfig::report_verification`] is set.
    pub corroboration_quorum: u32,
    /// When set (the default), only *quarantine-clean* reporters — those
    /// still under [`ProtocolConfig::suspicion_threshold`] — count toward
    /// the corroboration quorum. Turning this off re-opens the sybil
    /// hole: one adversary forging several reporter identities reaches
    /// the quorum alone.
    pub quorum_requires_clean: bool,
}

impl Default for ProtocolConfig {
    /// 1 ms per hop, 10 ms detection — matching
    /// [`drt_core::failure::RecoveryLatencyModel`]'s defaults — and no
    /// report verification (3 strikes once enabled).
    fn default() -> Self {
        ProtocolConfig {
            per_hop_delay: SimDuration::from_millis(1),
            detection_delay: SimDuration::from_millis(10),
            report_verification: false,
            suspicion_threshold: 3,
            corroboration_quorum: 0,
            quorum_requires_clean: true,
        }
    }
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

/// Per-kind traffic totals, split into first transmissions and retries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTraffic {
    /// Messages transmitted (including retransmissions).
    pub msgs: u64,
    /// Bytes transmitted (including retransmissions).
    pub bytes: u64,
    /// Messages that were retransmissions.
    pub retry_msgs: u64,
    /// Bytes that were retransmissions.
    pub retry_bytes: u64,
}

/// Control-traffic accounting, per packet kind. Counts *transmissions*
/// at the sender: packets later dropped or duplicated by the chaotic
/// network still cost their wire bytes exactly once here.
#[derive(Debug, Clone, Default)]
pub struct TrafficCounters {
    by_kind: BTreeMap<&'static str, KindTraffic>,
}

impl TrafficCounters {
    fn record(&mut self, pkt: &Packet, retry: bool) {
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
    pub fn kind_traffic(&self, kind: &str) -> KindTraffic {
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

    /// Iterates the full split counters in kind order.
    pub fn iter_traffic(&self) -> impl Iterator<Item = (&'static str, KindTraffic)> + '_ {
        self.by_kind.iter().map(|(&k, &t)| (k, t))
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
/// failure report to reaching [`ConnOutcome::Switched`] or
/// [`ConnOutcome::Lost`].
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

/// Crash-recovery observability: restart counts, journal replay volume,
/// and the resync verdict tally. Returned by
/// [`ProtocolSim::journal_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Routers that completed a restart (either [`RestartMode`]).
    pub restarts: u64,
    /// Journal tail records replayed across all journaled restarts.
    pub replayed_records: u64,
    /// Journaled restarts whose replay hit a corrupted journal.
    pub corrupt_replays: u64,
    /// Resync entries whose local and peer versions agreed.
    pub resync_consistent: u64,
    /// Resync entries where the replayed local state was *newer* than
    /// the peer's view (the peer catches up through normal operation).
    pub resync_local_newer: u64,
    /// Resync entries repaired locally: the peer's newer digest showed
    /// the connection concluded, so stale local state was released.
    pub resync_repaired: u64,
    /// Resync entries with an unreconcilable version conflict (the peer
    /// is newer *and* still holds state) — degrades the rejoin.
    pub resync_conflicts: u64,
    /// Rejoins that fell back to the crashed-router detection path
    /// (corrupted journal, resync exhaustion, conflict, or quarantined
    /// peer).
    pub degraded_rejoins: u64,
    /// Resync handshakes abandoned because the answering peer was
    /// quarantined under report verification.
    pub quarantined_peers: u64,
    /// Failure reports accepted by corroboration quorum despite missing
    /// local link-state evidence.
    pub quorum_overrides: u64,
}

/// What a source-side transaction was trying to accomplish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnKind {
    PrimarySetup,
    BackupRegister {
        index: usize,
    },
    PrimaryRelease,
    BackupRelease,
    ChannelSwitch {
        index: usize,
    },
    FailureReport,
    /// Post-restart state reconciliation with one neighbour.
    Resync {
        peer: NodeId,
    },
}

/// An outstanding reliable operation awaiting its result/ack.
#[derive(Debug, Clone)]
struct Txn {
    conn: ConnectionId,
    kind: TxnKind,
    /// The packet to retransmit (attempt re-stamped per retry).
    template: Packet,
    /// First delivery target.
    to: NodeId,
    /// Delivery delay of each (re)transmission: zero for walks (local
    /// handoff to the source's own router), multi-hop for reports.
    delay: SimDuration,
    attempt: u32,
    /// Current retransmission timeout (grows by the backoff factor).
    timeout: SimDuration,
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
    /// Deferred transaction start (lets `establish`/`release` enqueue
    /// work without a scheduler in hand).
    Launch {
        conn: ConnectionId,
        kind: TxnKind,
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

/// A deliberately wrong engine variant, used to validate the `verify`
/// model checker (mutation-testing style): the checker must find a
/// schedule exposing each seeded bug, and the reported counterexample
/// must replay to the same violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeededBug {
    /// The correct engine.
    #[default]
    None,
    /// A duplicate backup-release delivery re-applies the release instead
    /// of respecting the dedup gate — with two backups stacked on one
    /// link, the second release pops the *other* backup's registration.
    DoubleRelease,
    /// A duplicate backup-register delivery re-applies the registration,
    /// double-counting the backup in the APLV and channel table.
    DoubleRegister,
}

#[derive(Debug)]
struct State {
    net: Arc<Network>,
    cfg: ProtocolConfig,
    retry: RetryConfig,
    chaos: ChaosConfig,
    adversary: AdversaryConfig,
    /// RNG of the adversary's interception substream; `None` while the
    /// adversary is quiet (no draws, so enabling chaos alone leaves
    /// every other stream untouched).
    adversary_rng: Option<rand::rngs::StdRng>,
    /// Per-reporter uncorroborated-report counts (only grows while
    /// [`ProtocolConfig::report_verification`] is on).
    suspicion: BTreeMap<NodeId, u32>,
    fates: Box<dyn FateSource>,
    bug: SeededBug,
    routers: Vec<Router>,
    /// Per-node write-ahead journals plus the choke-point wrappers every
    /// state-mutating handler goes through (append-before-act).
    journals: Journals,
    failed: Vec<bool>,
    /// Routers currently crashed (deliveries to them are dropped).
    down: Vec<bool>,
    /// Whether any router ever crashed (chaos window or permanent
    /// [`Event::NodeFails`]) — state loss forfeits the quiescent
    /// exact-equality claims.
    node_crashed: bool,
    /// Whether any router ever completed a restart (either mode) — arms
    /// the `rejoin-restores-primaries` quiescent check.
    restarted: bool,
    /// A journaled rejoin fell back to the crashed-router detection path
    /// (corruption, conflict, exhaustion, or quarantined peer).
    rejoin_degraded: bool,
    /// Crash-recovery counters (see [`JournalStats`]).
    stats: JournalStats,
    /// Distinct reporters per link of uncorroborated failure reports —
    /// the corroboration-quorum evidence base.
    witnesses: BTreeMap<LinkId, BTreeSet<NodeId>>,
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
/// With a non-quiet [`ChaosConfig`] (via [`ProtocolSim::with_chaos`]),
/// the control plane drops, duplicates, jitters, and crash-partitions
/// deliveries; the retransmission machinery keeps the protocol live.
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
    /// chaotic control plane. Scheduled router crashes are armed here.
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
    /// the scheduled crashes and the `max_jitter` bound the
    /// retransmission timeout accounts for; its probabilistic fields are
    /// ignored (the fate source owns those decisions).
    pub fn with_fates(
        net: Arc<Network>,
        cfg: ProtocolConfig,
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
        let mut sim = Simulator::new();
        for w in &chaos.crashes {
            sim.schedule_at(w.at, Event::RouterCrash { node: w.node });
            sim.schedule_at(w.at + w.down_for, Event::RouterRestart { node: w.node });
        }
        ProtocolSim {
            sim,
            state: State {
                net,
                cfg,
                retry,
                chaos,
                adversary: AdversaryConfig::default(),
                adversary_rng: None,
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
                witnesses: BTreeMap::new(),
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

    /// Creates the simulation with a byzantine adversary on top of a
    /// chaotic control plane. Scheduled [`crate::FalseReport`]s are armed
    /// here, exactly as chaos crash windows are: each fires as a
    /// fabricated detection at its reporter, indistinguishable to the
    /// sources from an honest one.
    pub fn with_adversary(
        net: Arc<Network>,
        cfg: ProtocolConfig,
        retry: RetryConfig,
        chaos: ChaosConfig,
        adversary: AdversaryConfig,
    ) -> Self {
        let mut sim = Self::with_chaos(net, cfg, retry, chaos);
        for fr in &adversary.false_reports {
            sim.sim.schedule_at(
                fr.at,
                Event::Detected {
                    at: fr.reporter,
                    link: fr.link,
                },
            );
        }
        if !adversary.is_quiet() {
            sim.state.adversary_rng = Some(adversary.rng());
        }
        sim.state.adversary = adversary;
        sim
    }

    /// Begins establishing a connection: the source starts the primary
    /// setup walk; backup register walks follow on success.
    ///
    /// # Panics
    ///
    /// Panics if `conn` was already submitted, or a route's endpoints
    /// disagree with the primary's.
    pub fn establish(
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
        self.sim.schedule_at(
            self.sim.now(),
            Event::Launch {
                conn,
                kind: TxnKind::PrimarySetup,
                route: primary,
            },
        );
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
        let now = self.sim.now();
        let Some(meta) = self.state.conns.get_mut(&conn) else {
            return false;
        };
        if !matches!(
            meta.phase,
            Phase::Established | Phase::Degraded | Phase::Switched
        ) {
            return false;
        }
        if backup.source() != meta.primary.source() || backup.dest() != meta.primary.dest() {
            return false;
        }
        meta.backups.push(backup.clone());
        meta.registered.push(false);
        let index = meta.backups.len() - 1;
        self.sim.schedule_at(
            now,
            Event::Launch {
                conn,
                kind: TxnKind::BackupRegister { index },
                route: backup,
            },
        );
        true
    }

    /// Retires every *registered* backup of a live connection that
    /// crosses `link`, sending reliable release walks — the source
    /// learned (e.g. from the routing plane) that those backups can never
    /// activate. A connection left with no registered backup degrades.
    /// Returns how many backups were retired.
    pub fn retire_backups_crossing(&mut self, conn: ConnectionId, link: LinkId) -> usize {
        let now = self.sim.now();
        let Some(meta) = self.state.conns.get_mut(&conn) else {
            return 0;
        };
        if !matches!(
            meta.phase,
            Phase::Established | Phase::Degraded | Phase::Switched
        ) {
            return 0;
        }
        let mut walks = Vec::new();
        for (i, reg) in meta.registered.iter_mut().enumerate() {
            if *reg && meta.backups[i].contains_link(link) {
                *reg = false;
                walks.push(meta.backups[i].clone());
            }
        }
        if !walks.is_empty()
            && meta.phase == Phase::Established
            && meta.registered.iter().all(|r| !r)
        {
            meta.phase = Phase::Degraded;
        }
        let n = walks.len();
        for b in walks {
            self.sim.schedule_at(
                now,
                Event::Launch {
                    conn,
                    kind: TxnKind::BackupRelease,
                    route: b,
                },
            );
        }
        n
    }

    /// Terminates a live connection (established, degraded, or switched):
    /// release transactions are launched along the current primary and
    /// every registered backup. Returns `false` when the connection is
    /// not in a releasable state.
    pub fn release(&mut self, conn: ConnectionId) -> bool {
        let now = self.sim.now();
        let Some(meta) = self.state.conns.get_mut(&conn) else {
            return false;
        };
        if !matches!(
            meta.phase,
            Phase::Established | Phase::Degraded | Phase::Switched
        ) {
            return false;
        }
        meta.phase = Phase::Released;
        let primary = meta.primary.clone();
        let walks: Vec<Route> = meta
            .backups
            .iter()
            .zip(meta.registered.iter_mut())
            .filter_map(|(r, reg)| {
                if *reg {
                    *reg = false;
                    Some(r.clone())
                } else {
                    None
                }
            })
            .collect();
        self.sim.schedule_at(
            now,
            Event::Launch {
                conn,
                kind: TxnKind::PrimaryRelease,
                route: primary,
            },
        );
        for b in walks {
            self.sim.schedule_at(
                now,
                Event::Launch {
                    conn,
                    kind: TxnKind::BackupRelease,
                    route: b,
                },
            );
        }
        true
    }

    /// Fails a unidirectional link; the adjacent router detects it after
    /// the configured delay and reports to every affected source.
    pub fn fail_link(&mut self, link: LinkId) {
        self.sim
            .schedule_at(self.sim.now(), Event::LinkFails { link });
    }

    /// Crashes a router permanently: its state is wiped, deliveries to it
    /// are dropped, and every incident link fails. Unlike a scheduled
    /// [`ChaosConfig`] crash window, the dead router cannot detect or
    /// report anything — the *surviving* endpoint of each incident link
    /// detects after the configured delay and reports upstream, so one
    /// crash fans out into failure reports for all incident links at once.
    pub fn crash_router(&mut self, node: NodeId) {
        self.sim
            .schedule_at(self.sim.now(), Event::NodeFails { node });
    }

    /// Crashes `node` now and restarts it after `down_for` — the
    /// imperative twin of a scheduled [`crate::CrashWindow`]. What the
    /// restart recovers follows [`ChaosConfig::restart_mode`]; under
    /// [`RestartMode::Journaled`] the rejoin replays the journal and
    /// resyncs with every neighbour.
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

    /// Checks every machine-checkable protocol invariant against the
    /// current state, returning the first violation found.
    ///
    /// Two tiers:
    ///
    /// * **always-on** — hold in every reachable state, even mid-walk:
    ///   per-link ledger conservation (`prime + spare ≤ capacity`), spare
    ///   bounded by the APLV requirement, APLV ↔ backup-channel-table
    ///   consistency, ledger `prime` ↔ primary-channel-table consistency,
    ///   and the backup-entry count bounded by the backups the source
    ///   actually submitted;
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
                        .backup_entries()
                        .filter(|e| e.out_link == l)
                        .map(|e| (e.primary_lset.as_slice(), e.bw)),
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
            for (conn, l, n) in router.backup_entry_counts() {
                let bound = self.state.conns.get(&conn).map_or(0, |m| {
                    m.backups.iter().filter(|b| b.contains_link(l)).count()
                });
                if n > bound {
                    return Err(Violation {
                        rule: "backup-entry-overcount",
                        detail: format!(
                            "router {}, link {l}: {n} entries for {conn}, source submitted {bound}",
                            router.id()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn check_quiescent(&self) -> Result<(), Violation> {
        for (conn, meta) in &self.state.conns {
            let live = matches!(
                meta.phase,
                Phase::Established | Phase::Degraded | Phase::Switched
            );
            if matches!(
                meta.phase,
                Phase::SettingUpPrimary
                    | Phase::RegisteringBackup(_)
                    | Phase::FailingDuringSetup
                    | Phase::Switching { .. }
            ) {
                return Err(Violation {
                    rule: "quiescent-pending",
                    detail: format!("connection {conn} still pending with nothing in flight"),
                });
            }
            if !live && meta.registered.iter().any(|&r| r) {
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
        if self.state.restarted && !self.state.rejoin_degraded {
            for (conn, meta) in &self.state.conns {
                if !matches!(
                    meta.phase,
                    Phase::Established | Phase::Degraded | Phase::Switched
                ) {
                    continue;
                }
                for &l in meta.primary.links() {
                    let at = self.state.net.link(l).src();
                    if self.state.down[at.index()] {
                        continue;
                    }
                    if self.state.routers[at.index()]
                        .primary_entry(*conn)
                        .is_none()
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
        // claimable without either. A journaled crash window is *not* a
        // forfeit — replay plus resync is expected to restore exactness.
        let amnesia_crash = !self.state.chaos.crashes.is_empty()
            && self.state.chaos.restart_mode == RestartMode::Amnesia;
        if amnesia_crash || self.state.node_crashed || !self.state.exhausted.is_empty() {
            return Ok(());
        }
        // Every failure is eventually reported and acted on, so at
        // quiescence no live connection may still be routed over a dead
        // link — the key safety property under overlapping failures.
        for (conn, meta) in &self.state.conns {
            if matches!(
                meta.phase,
                Phase::Established | Phase::Degraded | Phase::Switched
            ) {
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
            if !matches!(
                meta.phase,
                Phase::Established | Phase::Degraded | Phase::Switched
            ) {
                continue;
            }
            for &l in meta.primary.links() {
                *expected_prime.entry(l).or_insert(Bandwidth::ZERO) += meta.bw;
            }
            for (b, &reg) in meta.backups.iter().zip(&meta.registered) {
                if reg {
                    for &l in b.links() {
                        expected_regs
                            .entry(l)
                            .or_default()
                            .push((meta.primary.links(), meta.bw));
                    }
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
            "{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
            state.routers,
            state.conns,
            state.txns,
            state.exhausted,
            state.suspicion,
            state.journals,
            state.witnesses,
        );
        for (conn, (link, _reported_at)) in &state.pending_recovery {
            let _ = write!(sink, "{conn}:{link},");
        }
        let h = &mut sink.0;
        state.failed.hash(h);
        state.down.hash(h);
        state.next_seq.hash(h);
        state.restarted.hash(h);
        state.rejoin_degraded.hash(h);
        let mut pending: Vec<String> = self
            .sim
            .pending_events()
            .map(|(at, ev)| format!("{:?}+{ev:?}", at.saturating_since(now)))
            .collect();
        pending.sort();
        pending.hash(h);
        h.finish()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The source-side outcome of a submitted connection.
    pub fn outcome(&self, conn: ConnectionId) -> Option<ConnOutcome> {
        self.state.conns.get(&conn).map(|m| match m.phase {
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
        })
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

    /// The chaos configuration driving this run.
    pub fn chaos(&self) -> &ChaosConfig {
        &self.state.chaos
    }

    /// The adversary configuration driving this run.
    pub fn adversary(&self) -> &AdversaryConfig {
        &self.state.adversary
    }

    /// The suspicion score accumulated against `reporter` (number of
    /// uncorroborated failure reports it sourced). Always zero while
    /// [`ProtocolConfig::report_verification`] is off.
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
    /// The queued detection is processed by the next run call.
    pub fn spoof_failure_report(&mut self, reporter: NodeId, link: LinkId) {
        assert!(
            !self.state.failed[link.index()],
            "spoofing a report for {link}, which is genuinely failed"
        );
        self.sim
            .schedule_at(self.sim.now(), Event::Detected { at: reporter, link });
    }
}

impl State {
    /// Transmits `pkt` towards `to`. The configured [`FateSource`] then
    /// decides the delivery's fate: drop (compounded over the hops the
    /// delivery spans), duplication, and jitter. Zero-delay sends are
    /// local handoffs to the node's own router and bypass the fate
    /// source entirely.
    fn send(
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
        // Adversarial interception sits in front of the victim, upstream
        // of the chaos plane: a dropped delivery never reaches the fate
        // source (keeping the chaos stream untouched), a delayed one
        // still suffers whatever chaos decides on top.
        let mut intercept_delay = SimDuration::ZERO;
        if let Some(rng) = self.adversary_rng.as_mut() {
            if self.adversary.intercepts(to) {
                match self.adversary.intercept(rng) {
                    None => return,
                    Some(extra) => intercept_delay = extra,
                }
            }
        }
        // Hop count (and thus the chaos fate decision) reflects the
        // honest route; the interception delay is not extra distance.
        let hops = (delay.as_micros() / self.cfg.per_hop_delay.as_micros().max(1)).max(1);
        let delay = delay + intercept_delay;
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

    fn hop_delay(&self, hops: usize) -> SimDuration {
        self.cfg.per_hop_delay.times(hops as u64)
    }

    /// Retransmission timeout bounding the round trip of a transaction
    /// spanning `hops` hops: forward walk + returning result, each hop
    /// delayed by at most `per_hop_delay + max_jitter`, plus slack for
    /// the zero-delay local handoffs and the configured margin.
    fn rto(&self, hops: usize) -> SimDuration {
        let per_hop = self.cfg.per_hop_delay + self.chaos.max_jitter;
        per_hop.times(2 * hops as u64 + 2) + self.retry.rto_margin
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Starts a reliable walk transaction for `conn` along `route`.
    fn start_walk(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        kind: TxnKind,
        route: Route,
    ) {
        let (bw, lset) = match self.conns.get(&conn) {
            Some(meta) => (meta.bw, meta.primary.links().to_vec()),
            None => {
                debug_assert!(false, "walk started for unsubmitted connection {conn}");
                return;
            }
        };
        let seq = self.alloc_seq();
        let template = match kind {
            TxnKind::PrimarySetup => Packet::PrimarySetup {
                conn,
                bw,
                route: route.clone(),
                hop: 0,
                seq,
                attempt: 1,
            },
            TxnKind::BackupRegister { .. } => Packet::BackupRegister {
                conn,
                bw,
                route: route.clone(),
                primary_lset: lset,
                hop: 0,
                seq,
                attempt: 1,
            },
            TxnKind::PrimaryRelease => Packet::PrimaryRelease {
                conn,
                hop: 0,
                route: route.clone(),
                bw,
                seq,
                attempt: 1,
            },
            TxnKind::BackupRelease => Packet::BackupRelease {
                conn,
                bw,
                route: route.clone(),
                primary_lset: lset,
                hop: 0,
                seq,
                attempt: 1,
            },
            TxnKind::ChannelSwitch { .. } => Packet::ChannelSwitch {
                conn,
                bw,
                route: route.clone(),
                hop: 0,
                seq,
                attempt: 1,
            },
            TxnKind::FailureReport => {
                debug_assert!(false, "reports use start_report");
                return;
            }
            TxnKind::Resync { .. } => {
                debug_assert!(false, "resyncs use start_resync");
                return;
            }
        };
        let to = route.source();
        let timeout = self.rto(route.len());
        self.txns.insert(
            seq,
            Txn {
                conn,
                kind,
                template: template.clone(),
                to,
                delay: SimDuration::ZERO,
                attempt: 1,
                timeout,
            },
        );
        self.send(sched, to, template, SimDuration::ZERO, false);
        sched.schedule_in(timeout, Event::RetryTimer { seq, attempt: 1 });
    }

    /// Starts the detector-side failure-report transaction.
    fn start_report(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        link: LinkId,
        reporter: NodeId,
        src: NodeId,
        hops: usize,
    ) {
        let seq = self.alloc_seq();
        let hops = hops.max(1);
        let template = Packet::FailureReport {
            conn,
            link,
            reporter,
            seq,
            attempt: 1,
        };
        let delay = self.hop_delay(hops);
        let timeout = self.rto(hops);
        self.txns.insert(
            seq,
            Txn {
                conn,
                kind: TxnKind::FailureReport,
                template: template.clone(),
                to: src,
                delay,
                attempt: 1,
                timeout,
            },
        );
        self.send(sched, src, template, delay, false);
        sched.schedule_in(timeout, Event::RetryTimer { seq, attempt: 1 });
    }

    /// Starts the reliable resync handshake of restarted `node` with one
    /// neighbour: a `ResyncRequest` retransmitted until the neighbour's
    /// digest returns (or the transaction exhausts and the rejoin
    /// degrades).
    fn start_resync(&mut self, sched: &mut Scheduler<'_, Event>, node: NodeId, peer: NodeId) {
        let seq = self.alloc_seq();
        let template = Packet::ResyncRequest {
            node,
            seq,
            attempt: 1,
        };
        let delay = self.hop_delay(1);
        let timeout = self.rto(1);
        self.txns.insert(
            seq,
            Txn {
                conn: RESYNC_CONN,
                kind: TxnKind::Resync { peer },
                template: template.clone(),
                to: peer,
                delay,
                attempt: 1,
                timeout,
            },
        );
        self.send(sched, peer, template, delay, false);
        sched.schedule_in(timeout, Event::RetryTimer { seq, attempt: 1 });
    }

    /// The rejoin falls back to the crashed-router detection path: the
    /// surviving machinery (failure detection, source-driven teardown)
    /// mops up, and the quiescent exact-equality claims are forfeited
    /// exactly as for an amnesia crash.
    fn degrade_rejoin(&mut self) {
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
        let Some(local) = self.routers[node.index()].conn_version(e.conn) else {
            // The peer holds state for a connection this router never
            // gated — some other path's business, nothing of ours to
            // reconcile.
            return;
        };
        match local.cmp(&e.version) {
            std::cmp::Ordering::Equal => self.stats.resync_consistent += 1,
            std::cmp::Ordering::Greater => {
                // The journal preserved walks the peer never saw (e.g.
                // it was crashed itself): our state is ahead, the peer
                // catches up through normal retransmission.
                self.stats.resync_local_newer += 1;
            }
            std::cmp::Ordering::Less => {
                if !e.has_primary && e.backup_entries == 0 {
                    // The peer watched the connection conclude while we
                    // were down: release whatever stale state replay
                    // resurrected (through the choke point, so a later
                    // crash replays the repair too).
                    let had_primary = self.routers[node.index()].primary_entry(e.conn).is_some();
                    let blinks = self.routers[node.index()].backup_links(e.conn);
                    let mut repaired = false;
                    if had_primary {
                        self.journals.release(&mut self.routers, node, e.conn);
                        repaired = true;
                    }
                    for (l, n) in blinks {
                        for _ in 0..n {
                            self.journals.unregister(&mut self.routers, node, e.conn, l);
                            repaired = true;
                        }
                    }
                    if repaired {
                        self.stats.resync_repaired += 1;
                    } else {
                        self.stats.resync_consistent += 1;
                    }
                } else {
                    // The peer is ahead *and* still holds state we have
                    // no record of — irreconcilable from here; degrade
                    // to the detection path rather than guess.
                    self.stats.resync_conflicts += 1;
                    self.degrade_rejoin();
                }
            }
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

    fn handle(&mut self, sched: &mut Scheduler<'_, Event>, ev: Event) {
        match ev {
            Event::LinkFails { link } => {
                if self.failed[link.index()] {
                    return;
                }
                self.failed[link.index()] = true;
                let detector = self.net.link(link).src();
                sched.schedule_in(
                    self.cfg.detection_delay,
                    Event::Detected { at: detector, link },
                );
            }
            Event::Detected { at, link } => {
                // A crashed detector cannot observe the failure — and has
                // no channel table left to consult after restarting.
                if self.down[at.index()] {
                    return;
                }
                // A byzantine detector suppresses its report of a *real*
                // failure; fabricated detections (healthy link) still go
                // out — that's the whole point of the lie.
                if self.adversary.suppress_reports
                    && self.adversary.is_byzantine(at)
                    && self.failed[link.index()]
                {
                    return;
                }
                // Step 3: the detecting router reports to each affected
                // connection's source, upstream along the primary. The
                // detector may be either endpoint (after a router crash
                // the survivor reports), so affected connections are
                // found by route membership, not ledger ownership.
                for conn in self.routers[at.index()].primaries_crossing(link) {
                    let Some(entry) = self.routers[at.index()].primary_entry(conn) else {
                        continue;
                    };
                    let entry = entry.clone();
                    let src = entry.route.source();
                    let pos = entry
                        .route
                        .links()
                        .iter()
                        .position(|&l| l == link)
                        .unwrap_or(entry.route.len());
                    // Reports travel upstream from the detector: one hop
                    // further when the downstream endpoint detected.
                    let report_hops = if at == self.net.link(link).dst() {
                        pos + 1
                    } else {
                        pos
                    };
                    self.start_report(sched, conn, link, at, src, report_hops);
                }
            }
            Event::NodeFails { node } => {
                if self.down[node.index()] {
                    return;
                }
                self.down[node.index()] = true;
                self.node_crashed = true;
                // State loss, as with a chaos crash window — but permanent:
                // the durable journal dies with the hardware too.
                self.routers[node.index()] = Router::new(&self.net, node);
                self.journals.reset(node);
                // Every incident link dies with the router. The surviving
                // endpoint of each detects independently; the dedup in
                // `on_failure_report` absorbs the resulting report fan-in.
                let incident: Vec<LinkId> = self.net.incident_links(node).collect();
                for link in incident {
                    if self.failed[link.index()] {
                        continue;
                    }
                    self.failed[link.index()] = true;
                    let ep = self.net.link(link);
                    let survivor = if ep.src() == node { ep.dst() } else { ep.src() };
                    sched.schedule_in(
                        self.cfg.detection_delay,
                        Event::Detected { at: survivor, link },
                    );
                }
            }
            Event::Launch { conn, kind, route } => {
                if self.conns.contains_key(&conn) {
                    self.start_walk(sched, conn, kind, route);
                }
            }
            Event::RetryTimer { seq, attempt } => self.on_retry_timer(sched, seq, attempt),
            Event::RouterCrash { node } => {
                if self.down[node.index()] {
                    return;
                }
                // In-memory state is always lost: channel tables, ledgers,
                // APLVs, and dedup records all gone. Whether anything
                // survives is the journal's business.
                self.down[node.index()] = true;
                self.routers[node.index()] = Router::new(&self.net, node);
                match self.chaos.restart_mode {
                    RestartMode::Amnesia => {
                        // Historical model: durable state dies too, and
                        // the eventual restart-from-scratch forfeits the
                        // quiescent exact-equality claims.
                        self.node_crashed = true;
                        self.journals.reset(node);
                    }
                    RestartMode::Journaled => {
                        // The journal survives — minus whatever the
                        // configured storage fault tears off.
                        self.journals.corrupt(node, self.chaos.journal_fault);
                    }
                }
            }
            Event::RouterRestart { node } => {
                if !self.down[node.index()] {
                    return;
                }
                self.down[node.index()] = false;
                self.restarted = true;
                self.stats.restarts += 1;
                if self.chaos.restart_mode == RestartMode::Journaled {
                    let (router, replayed, corrupt) = self.journals.replay(node);
                    self.routers[node.index()] = router;
                    self.stats.replayed_records += replayed;
                    if corrupt {
                        self.stats.corrupt_replays += 1;
                        self.degrade_rejoin();
                    }
                    // Resync with every neighbour, in node order. Peers
                    // currently down drop the request; retransmission
                    // rides out short outages, exhaustion degrades.
                    let peers: BTreeSet<NodeId> = self
                        .net
                        .incident_links(node)
                        .map(|l| {
                            let ep = self.net.link(l);
                            if ep.src() == node {
                                ep.dst()
                            } else {
                                ep.src()
                            }
                        })
                        .collect();
                    for peer in peers {
                        self.start_resync(sched, node, peer);
                    }
                }
            }
            Event::Deliver { to, pkt } => self.deliver(sched, to, pkt),
        }
    }

    fn on_retry_timer(&mut self, sched: &mut Scheduler<'_, Event>, seq: u64, attempt: u32) {
        let Some(txn) = self.txns.get(&seq) else {
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
        let Some(txn) = self.txns.get_mut(&seq) else {
            return;
        };
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
        let conn = txn.conn;
        let now = sched.now();
        let route = walk_route(&txn.template);
        match txn.kind {
            TxnKind::PrimarySetup => {
                if let Some(meta) = self.conns.get_mut(&conn) {
                    if meta.phase == Phase::SettingUpPrimary {
                        meta.phase = Phase::Rejected;
                    }
                }
                // Scrub whatever hops the abandoned walk reserved.
                if let Some(route) = route {
                    self.start_walk(sched, conn, TxnKind::PrimaryRelease, route);
                }
            }
            TxnKind::BackupRegister { index } => {
                if let Some(route) = route {
                    self.start_walk(sched, conn, TxnKind::BackupRelease, route);
                }
                match self.conns.get(&conn).map(|m| m.phase) {
                    Some(Phase::RegisteringBackup(i)) if i == index => {
                        // Give up on protection, keep the live channel
                        // (and any earlier registered backups).
                        if let Some(meta) = self.conns.get_mut(&conn) {
                            meta.phase = Phase::Degraded;
                        }
                    }
                    Some(Phase::FailingDuringSetup) => {
                        self.resolve_failing_setup(sched, conn);
                    }
                    _ => {}
                }
            }
            TxnKind::ChannelSwitch { index } => {
                // Scrub partial activation and leftover registrations of
                // the abandoned backup, then try the next candidate.
                let Some(route) = route else {
                    debug_assert!(false, "switch transactions carry a walk route");
                    return;
                };
                self.start_walk(sched, conn, TxnKind::PrimaryRelease, route.clone());
                self.start_walk(sched, conn, TxnKind::BackupRelease, route);
                let switching = matches!(
                    self.conns.get(&conn).map(|m| m.phase),
                    Some(Phase::Switching { chosen }) if chosen == index
                );
                if switching {
                    self.try_next_switch(sched, conn, now);
                }
            }
            // Give up: the leak (if any) is bounded and counted in
            // `exhausted` — under total partition nothing more can be
            // done from here.
            TxnKind::PrimaryRelease | TxnKind::BackupRelease | TxnKind::FailureReport => {}
            // The neighbour never answered: rejoin without its digest is
            // unsafe, so degrade to the detection path.
            TxnKind::Resync { .. } => self.degrade_rejoin(),
        }
    }

    /// Concludes a connection whose primary failed while a register walk
    /// was outstanding: tear everything down, now that no register packet
    /// can be overtaken by a release walk.
    fn resolve_failing_setup(&mut self, sched: &mut Scheduler<'_, Event>, conn: ConnectionId) {
        let now = sched.now();
        let (primary, walks) = {
            let Some(meta) = self.conns.get_mut(&conn) else {
                debug_assert!(false, "resolving a never-submitted connection {conn}");
                return;
            };
            meta.phase = Phase::Lost;
            let mut walks = Vec::new();
            for (i, reg) in meta.registered.iter_mut().enumerate() {
                if *reg {
                    *reg = false;
                    walks.push(meta.backups[i].clone());
                }
            }
            (meta.primary.clone(), walks)
        };
        self.resolve_recovery(conn, now, false);
        self.start_walk(sched, conn, TxnKind::PrimaryRelease, primary);
        for b in walks {
            self.start_walk(sched, conn, TxnKind::BackupRelease, b);
        }
    }

    /// Picks the next registered backup avoiding the reported link and
    /// launches its activation, or declares the connection lost.
    fn try_next_switch(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        now: SimTime,
    ) {
        let next = {
            let Some(meta) = self.conns.get_mut(&conn) else {
                debug_assert!(false, "switching a never-submitted connection {conn}");
                return;
            };
            let found = meta
                .backups
                .iter()
                .enumerate()
                .find(|(i, b)| {
                    meta.registered[*i] && !meta.reported.iter().any(|&l| b.contains_link(l))
                })
                .map(|(i, b)| (i, b.clone()));
            match found {
                Some((i, route)) => {
                    meta.phase = Phase::Switching { chosen: i };
                    meta.registered[i] = false;
                    Some((i, route))
                }
                None => {
                    meta.phase = Phase::Lost;
                    None
                }
            }
        };
        match next {
            Some((i, route)) => {
                self.start_walk(sched, conn, TxnKind::ChannelSwitch { index: i }, route);
            }
            None => self.resolve_recovery(conn, now, false),
        }
    }

    fn deliver(&mut self, sched: &mut Scheduler<'_, Event>, to: NodeId, pkt: Packet) {
        if self.down[to.index()] {
            return; // crashed routers drop everything addressed to them
        }
        match pkt {
            Packet::PrimarySetup {
                conn,
                bw,
                route,
                hop,
                seq,
                attempt,
            } => {
                let link = route.links()[hop];
                debug_assert_eq!(self.net.link(link).src(), to);
                match self
                    .journals
                    .gate(&mut self.routers, to, conn, seq, attempt)
                {
                    WalkGate::Stale => return,
                    WalkGate::AlreadyApplied => {}
                    WalkGate::Fresh => {
                        let ok = !self.failed[link.index()]
                            && self
                                .journals
                                .reserve(&mut self.routers, to, conn, &route, link, bw);
                        if !ok {
                            // Nack; the source will launch reliable
                            // cleanup over the full route.
                            self.journals
                                .poison(&mut self.routers, to, conn, seq, attempt);
                            let src = route.source();
                            let delay = self.hop_delay(hop.max(1));
                            self.send(
                                sched,
                                src,
                                Packet::SetupResult {
                                    conn,
                                    ok: false,
                                    seq,
                                },
                                delay,
                                false,
                            );
                            return;
                        }
                        self.journals.applied(&mut self.routers, to, conn, seq);
                    }
                }
                if hop + 1 < route.len() {
                    let next = self.net.link(route.links()[hop + 1]).src();
                    let pkt = Packet::PrimarySetup {
                        conn,
                        bw,
                        route,
                        hop: hop + 1,
                        seq,
                        attempt,
                    };
                    self.send(sched, next, pkt, self.cfg.per_hop_delay, false);
                } else {
                    // Fully reserved: confirm to the source.
                    let src = route.source();
                    let delay = self.hop_delay(route.len());
                    self.send(
                        sched,
                        src,
                        Packet::SetupResult {
                            conn,
                            ok: true,
                            seq,
                        },
                        delay,
                        false,
                    );
                }
            }
            Packet::BackupRegister {
                conn,
                bw,
                route,
                primary_lset,
                hop,
                seq,
                attempt,
            } => {
                let link = route.links()[hop];
                match self
                    .journals
                    .gate(&mut self.routers, to, conn, seq, attempt)
                {
                    WalkGate::Stale => return,
                    WalkGate::AlreadyApplied => {
                        if self.bug == SeededBug::DoubleRegister {
                            // Seeded fault: ignore the dedup verdict and
                            // re-apply the registration. Journaled too,
                            // so replay faithfully reproduces the bug.
                            self.journals.register(
                                &mut self.routers,
                                to,
                                conn,
                                &route,
                                link,
                                &primary_lset,
                                bw,
                            );
                        }
                    }
                    WalkGate::Fresh => {
                        self.journals.register(
                            &mut self.routers,
                            to,
                            conn,
                            &route,
                            link,
                            &primary_lset,
                            bw,
                        );
                        self.journals.applied(&mut self.routers, to, conn, seq);
                    }
                }
                if hop + 1 < route.len() {
                    let next = self.net.link(route.links()[hop + 1]).src();
                    let pkt = Packet::BackupRegister {
                        conn,
                        bw,
                        route,
                        primary_lset,
                        hop: hop + 1,
                        seq,
                        attempt,
                    };
                    self.send(sched, next, pkt, self.cfg.per_hop_delay, false);
                } else {
                    let src = route.source();
                    let delay = self.hop_delay(route.len());
                    self.send(
                        sched,
                        src,
                        Packet::SetupResult {
                            conn,
                            ok: true,
                            seq,
                        },
                        delay,
                        false,
                    );
                }
            }
            Packet::PrimaryRelease {
                conn,
                hop,
                route,
                bw,
                seq,
                attempt,
            } => {
                match self
                    .journals
                    .gate(&mut self.routers, to, conn, seq, attempt)
                {
                    WalkGate::Stale => return,
                    WalkGate::AlreadyApplied => {}
                    WalkGate::Fresh => {
                        self.journals.release(&mut self.routers, to, conn);
                        self.journals.applied(&mut self.routers, to, conn, seq);
                    }
                }
                if hop + 1 < route.len() {
                    let next = self.net.link(route.links()[hop + 1]).src();
                    let pkt = Packet::PrimaryRelease {
                        conn,
                        hop: hop + 1,
                        route,
                        bw,
                        seq,
                        attempt,
                    };
                    self.send(sched, next, pkt, self.cfg.per_hop_delay, false);
                } else {
                    let src = route.source();
                    let delay = self.hop_delay(route.len());
                    self.send(
                        sched,
                        src,
                        Packet::ReleaseResult { conn, seq },
                        delay,
                        false,
                    );
                }
            }
            Packet::BackupRelease {
                conn,
                bw,
                route,
                primary_lset,
                hop,
                seq,
                attempt,
            } => {
                let link = route.links()[hop];
                match self
                    .journals
                    .gate(&mut self.routers, to, conn, seq, attempt)
                {
                    WalkGate::Stale => return,
                    WalkGate::AlreadyApplied => {
                        if self.bug == SeededBug::DoubleRelease {
                            // Seeded fault: ignore the dedup verdict and
                            // re-apply the release — with stacked entries
                            // this pops another backup's registration.
                            self.journals.unregister(&mut self.routers, to, conn, link);
                        }
                    }
                    WalkGate::Fresh => {
                        self.journals.unregister(&mut self.routers, to, conn, link);
                        self.journals.applied(&mut self.routers, to, conn, seq);
                    }
                }
                if hop + 1 < route.len() {
                    let next = self.net.link(route.links()[hop + 1]).src();
                    let pkt = Packet::BackupRelease {
                        conn,
                        bw,
                        route,
                        primary_lset,
                        hop: hop + 1,
                        seq,
                        attempt,
                    };
                    self.send(sched, next, pkt, self.cfg.per_hop_delay, false);
                } else {
                    let src = route.source();
                    let delay = self.hop_delay(route.len());
                    self.send(
                        sched,
                        src,
                        Packet::ReleaseResult { conn, seq },
                        delay,
                        false,
                    );
                }
            }
            Packet::ChannelSwitch {
                conn,
                bw,
                route,
                hop,
                seq,
                attempt,
            } => {
                let link = route.links()[hop];
                match self
                    .journals
                    .gate(&mut self.routers, to, conn, seq, attempt)
                {
                    WalkGate::Stale => return,
                    WalkGate::AlreadyApplied => {}
                    WalkGate::Fresh => {
                        let ok = !self.failed[link.index()]
                            && self.journals.activate(
                                &mut self.routers,
                                to,
                                conn,
                                &route,
                                link,
                                bw,
                            );
                        if !ok {
                            self.journals
                                .poison(&mut self.routers, to, conn, seq, attempt);
                            let src = route.source();
                            let delay = self.hop_delay(hop.max(1));
                            self.send(
                                sched,
                                src,
                                Packet::SwitchResult {
                                    conn,
                                    ok: false,
                                    seq,
                                },
                                delay,
                                false,
                            );
                            return;
                        }
                        self.journals.applied(&mut self.routers, to, conn, seq);
                    }
                }
                if hop + 1 < route.len() {
                    let next = self.net.link(route.links()[hop + 1]).src();
                    let pkt = Packet::ChannelSwitch {
                        conn,
                        bw,
                        route,
                        hop: hop + 1,
                        seq,
                        attempt,
                    };
                    self.send(sched, next, pkt, self.cfg.per_hop_delay, false);
                } else {
                    let src = route.source();
                    let delay = self.hop_delay(route.len());
                    self.send(
                        sched,
                        src,
                        Packet::SwitchResult {
                            conn,
                            ok: true,
                            seq,
                        },
                        delay,
                        false,
                    );
                }
            }
            Packet::ResyncRequest {
                node,
                seq,
                attempt: _,
            } => {
                // Answer unconditionally: the digest regenerates from
                // current state, so duplicates and retransmissions are
                // harmless — the requester's transaction table absorbs
                // late copies.
                let entries = self.routers[to.index()].resync_entries();
                self.send(
                    sched,
                    node,
                    Packet::ResyncDigest {
                        node: to,
                        entries,
                        seq,
                    },
                    self.hop_delay(1),
                    false,
                );
            }
            Packet::ResyncDigest { node, entries, seq } => {
                let Some(txn) = self.txns.get(&seq) else {
                    return; // duplicate or stale digest
                };
                let TxnKind::Resync { peer } = txn.kind else {
                    return;
                };
                debug_assert_eq!(peer, node);
                self.txns.remove(&seq);
                // A quarantined peer's digest is untrusted evidence:
                // rejoining on it would let a byzantine neighbour plant
                // state — degrade to the detection path instead.
                if self.cfg.report_verification
                    && self.suspicion.get(&peer).copied().unwrap_or(0)
                        >= self.cfg.suspicion_threshold
                {
                    self.stats.quarantined_peers += 1;
                    self.degrade_rejoin();
                    return;
                }
                for e in &entries {
                    self.reconcile(to, e);
                }
            }
            Packet::SetupResult { conn, ok, seq } => self.on_setup_result(sched, conn, seq, ok),
            Packet::ReleaseResult { conn: _, seq } => {
                self.txns.remove(&seq);
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
            Packet::SwitchResult { conn, ok, seq } => self.on_switch_result(sched, conn, seq, ok),
        }
    }

    fn on_setup_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        seq: u64,
        ok: bool,
    ) {
        let Some(txn) = self.txns.remove(&seq) else {
            return; // duplicate or stale result
        };
        debug_assert_eq!(txn.conn, conn);
        match txn.kind {
            TxnKind::PrimarySetup => {
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
                    self.start_walk(sched, conn, TxnKind::PrimaryRelease, route);
                    return;
                }
                if meta.backups.is_empty() {
                    meta.phase = Phase::Established;
                } else {
                    meta.phase = Phase::RegisteringBackup(0);
                    let route = meta.backups[0].clone();
                    self.start_walk(sched, conn, TxnKind::BackupRegister { index: 0 }, route);
                }
            }
            TxnKind::BackupRegister { index } => {
                let Some(meta) = self.conns.get_mut(&conn) else {
                    return;
                };
                match meta.phase {
                    Phase::RegisteringBackup(i) if i == index => {
                        meta.registered[i] = true;
                        if i + 1 < meta.backups.len() {
                            meta.phase = Phase::RegisteringBackup(i + 1);
                            let route = meta.backups[i + 1].clone();
                            self.start_walk(
                                sched,
                                conn,
                                TxnKind::BackupRegister { index: i + 1 },
                                route,
                            );
                        } else {
                            meta.phase = Phase::Established;
                        }
                    }
                    Phase::FailingDuringSetup => {
                        meta.registered[index] = true;
                        self.resolve_failing_setup(sched, conn);
                    }
                    // A reconfiguration register ([`ProtocolSim::add_backup`])
                    // completed on a live connection: it is protected again.
                    Phase::Established | Phase::Degraded | Phase::Switched => {
                        meta.registered[index] = true;
                        meta.phase = Phase::Established;
                    }
                    // The connection moved on while this late registration
                    // completed end to end: scrub it reliably.
                    Phase::Switching { .. } | Phase::Lost | Phase::Released | Phase::Rejected => {
                        let route = meta.backups[index].clone();
                        self.start_walk(sched, conn, TxnKind::BackupRelease, route);
                    }
                    Phase::SettingUpPrimary | Phase::RegisteringBackup(_) => {}
                }
            }
            _ => {} // a SetupResult only answers setup/register walks
        }
    }

    fn on_failure_report(
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
            .map(|pos| {
                if reporter == self.net.link(link).dst() {
                    pos + 1
                } else {
                    pos
                }
            })
            .unwrap_or(0)
            .max(1);
        let ack_delay = self.hop_delay(ack_hops);
        self.send(
            sched,
            reporter,
            Packet::ReportAck { conn, seq },
            ack_delay,
            false,
        );

        // Report verification (countermeasure to byzantine false
        // reports): a source only acts on a report it can corroborate
        // from its own link-state evidence. An uncorroborated report —
        // the named link is not actually dead — is dropped and scores a
        // strike against the reporter; a reporter past the suspicion
        // threshold is quarantined outright, even for truthful reports.
        // The ack above still goes out: vetting is silent, so a byzantine
        // reporter cannot probe the defense through its retransmissions.
        if self.cfg.report_verification {
            if self.suspicion.get(&reporter).copied().unwrap_or(0) >= self.cfg.suspicion_threshold {
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
                    .filter(|w| {
                        !self.cfg.quorum_requires_clean
                            || self.suspicion.get(w).copied().unwrap_or(0)
                                < self.cfg.suspicion_threshold
                    })
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
        if meta.reported.contains(&link) {
            return; // duplicate: this link's failure is already handled
        }
        match meta.phase {
            Phase::Established | Phase::Degraded => {}
            // A switched connection has no backups left — but only a
            // failure on its *current* (promoted) primary downs it. A
            // report for some other link (e.g. the old primary's second
            // link after a node crash) is recorded and absorbed.
            Phase::Switched => {
                meta.reported.insert(link);
                if !meta.primary.contains_link(link) {
                    return; // benign: not on the promoted route
                }
                meta.phase = Phase::Lost;
                let route = meta.primary.clone();
                self.begin_recovery(conn, link, now);
                self.resolve_recovery(conn, now, false);
                self.start_walk(sched, conn, TxnKind::PrimaryRelease, route);
                return;
            }
            // The primary died while a register walk is outstanding:
            // defer teardown until that transaction concludes, so release
            // walks cannot overtake register packets under jitter.
            Phase::RegisteringBackup(_) => {
                meta.reported.insert(link);
                meta.phase = Phase::FailingDuringSetup;
                self.begin_recovery(conn, link, now);
                return;
            }
            // Recovery already in flight: remember the additional dead
            // link so the pending switch (or its retry after a nack)
            // steers around every known failure, then let the in-flight
            // transaction conclude — its result handler re-reads the set.
            Phase::Switching { .. } | Phase::FailingDuringSetup => {
                meta.reported.insert(link);
                return;
            }
            _ => return, // setting up, lost, or done
        }
        meta.reported.insert(link);
        let old_primary = meta.primary.clone();

        // Choose the first registered backup that avoids *every* link
        // reported dead so far; release the others. All metadata
        // mutations happen inside this one borrow, then the walks launch.
        let chosen = meta
            .backups
            .iter()
            .enumerate()
            .find(|(i, b)| {
                meta.registered[*i] && !meta.reported.iter().any(|&l| b.contains_link(l))
            })
            .map(|(i, _)| i);
        let switch = match chosen {
            Some(c) => {
                meta.phase = Phase::Switching { chosen: c };
                meta.registered[c] = false; // consumed by activation
                Some((c, meta.backups[c].clone()))
            }
            None => {
                meta.phase = Phase::Lost;
                None
            }
        };
        let others: Vec<Route> = meta
            .backups
            .iter()
            .zip(meta.registered.iter_mut())
            .filter_map(|(r, reg)| {
                if *reg {
                    *reg = false;
                    Some(r.clone())
                } else {
                    None
                }
            })
            .collect();
        self.begin_recovery(conn, link, now);
        self.start_walk(sched, conn, TxnKind::PrimaryRelease, old_primary);
        for b in others {
            self.start_walk(sched, conn, TxnKind::BackupRelease, b);
        }
        match switch {
            Some((c, backup)) => {
                self.start_walk(sched, conn, TxnKind::ChannelSwitch { index: c }, backup);
            }
            None => self.resolve_recovery(conn, now, false),
        }
    }

    fn on_switch_result(
        &mut self,
        sched: &mut Scheduler<'_, Event>,
        conn: ConnectionId,
        seq: u64,
        ok: bool,
    ) {
        let Some(txn) = self.txns.remove(&seq) else {
            return; // duplicate or stale result
        };
        let TxnKind::ChannelSwitch { index } = txn.kind else {
            return;
        };
        let now = sched.now();
        let Some(meta) = self.conns.get_mut(&conn) else {
            return;
        };
        let Phase::Switching { chosen } = meta.phase else {
            return;
        };
        if chosen != index {
            return;
        }
        if ok {
            meta.primary = meta.backups[chosen].clone();
            meta.phase = Phase::Switched;
            self.resolve_recovery(conn, now, true);
            return;
        }
        // Activation lost the race mid-route: reliably scrub the partial
        // activation and leftover registrations, then try the next
        // registered candidate that avoids the reported link.
        let route = meta.backups[chosen].clone();
        self.start_walk(sched, conn, TxnKind::PrimaryRelease, route.clone());
        self.start_walk(sched, conn, TxnKind::BackupRelease, route);
        self.try_next_switch(sched, conn, now);
    }
}

/// The route a walk-transaction template carries, if any.
fn walk_route(pkt: &Packet) -> Option<Route> {
    match pkt {
        Packet::PrimarySetup { route, .. }
        | Packet::BackupRegister { route, .. }
        | Packet::PrimaryRelease { route, .. }
        | Packet::BackupRelease { route, .. }
        | Packet::ChannelSwitch { route, .. } => Some(route.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fate::ScriptedFates;
    use drt_net::topology;

    const BW: Bandwidth = Bandwidth::from_kbps(3_000);

    fn r(net: &Network, nodes: &[u32]) -> Route {
        let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        Route::from_nodes(net, &ids).unwrap()
    }

    #[test]
    fn counters_split_retransmissions() {
        let mut c = TrafficCounters::default();
        let net = topology::ring(4, Bandwidth::from_mbps(10)).unwrap();
        let pkt = Packet::PrimarySetup {
            conn: ConnectionId::new(1),
            bw: BW,
            route: r(&net, &[0, 1]),
            hop: 0,
            seq: 1,
            attempt: 1,
        };
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

    #[test]
    fn rto_covers_lossless_round_trip() {
        let net = Arc::new(topology::ring(6, Bandwidth::from_mbps(10)).unwrap());
        let sim = ProtocolSim::new(net, ProtocolConfig::default());
        // Forward walk of h hops + result delivery of h hops, all at
        // per_hop_delay: the RTO must exceed it.
        for hops in 1..6usize {
            let rtt = sim.state.cfg.per_hop_delay.times(2 * hops as u64);
            assert!(sim.state.rto(hops) > rtt, "rto too tight for {hops} hops");
        }
    }

    #[test]
    fn quiet_chaos_run_is_lossless() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary, vec![backup]);
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
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![backup]);
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
        sim.establish(ConnectionId::new(0), BW, primary, vec![]);
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
    fn invariants_hold_at_every_step_of_a_clean_run() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let mut sim = ProtocolSim::new(Arc::clone(&net), ProtocolConfig::default());
        let primary = r(&net, &[0, 1]);
        let backup = r(&net, &[0, 3, 2, 1]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![backup]);
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
            sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![]);
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

    #[test]
    fn seeded_double_register_breaks_an_invariant_under_duplication() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let fates = ScriptedFates::new(vec![crate::fate::Fate::Duplicate; 8], SimDuration::ZERO);
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
        sim.establish(ConnectionId::new(0), BW, primary, vec![backup]);
        let mut violated = false;
        while sim.step() {
            if sim.check_invariants().is_err() {
                violated = true;
                break;
            }
        }
        assert!(violated, "double registration must trip an invariant");
    }

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
        let fates = ScriptedFates::new(vec![crate::fate::Fate::Duplicate; 64], SimDuration::ZERO);
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
    fn crashed_router_loses_state_and_drops_packets() {
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let crash = crate::chaos::CrashWindow {
            node: NodeId::new(1),
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(1),
        };
        let chaos = ChaosConfig {
            crashes: vec![crash],
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let primary = r(&net, &[1, 2]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![]);
        // The run drains the crash/restart events too: setup completes
        // within milliseconds, then the 1 s crash wipes router 1's ledger.
        sim.run_to_quiescence();
        assert!(sim.now() >= SimTime::from_secs(2));
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
        // Same crash window as the amnesia test above, but journaled:
        // the restarted router replays its journal, resyncs with both
        // neighbours, and hands back the primary entry — the quiescent
        // exact-equality invariants (no longer forfeited) prove it.
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let crash = crate::chaos::CrashWindow {
            node: NodeId::new(2),
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(1),
        };
        let chaos = ChaosConfig {
            crashes: vec![crash],
            restart_mode: RestartMode::Journaled,
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let primary = r(&net, &[1, 2, 3]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![]);
        sim.run_to_quiescence();
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
        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let crash = crate::chaos::CrashWindow {
            node: NodeId::new(2),
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(1),
        };
        let chaos = ChaosConfig {
            crashes: vec![crash],
            restart_mode: RestartMode::Journaled,
            journal_fault: crate::chaos::JournalFault::TornTail(64),
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_chaos(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
        );
        let primary = r(&net, &[1, 2, 3]);
        sim.establish(ConnectionId::new(0), BW, primary.clone(), vec![]);
        sim.run_to_quiescence();
        sim.check_invariants().unwrap(); // degraded rejoin forfeits exactness
        assert_eq!(
            sim.link_resources(primary.links()[1]).prime(),
            Bandwidth::ZERO
        );
        let stats = sim.journal_stats();
        assert_eq!(stats.corrupt_replays, 1);
        assert_eq!(stats.degraded_rejoins, 1);
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
