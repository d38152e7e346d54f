//! Scripted workloads for the model checker.
//!
//! A [`Scenario`] is a small, fully deterministic workload on a
//! hand-built topology: a sequence of source-level operations
//! (establish, retire a backup, fail links, crash or restart a router,
//! spoof a report, release), each drained to quiescence before the next
//! begins. All nondeterminism in a run comes from the fate script the
//! checker supplies, so a `(scenario, script)` pair identifies a run
//! exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use drt_core::ConnectionId;
use drt_net::{Bandwidth, LinkId, Network, NetworkBuilder, NodeId, Route};
use drt_proto::{
    ChaosConfig, Fate, FateLog, JournalFault, ProtocolConfig, ProtocolSim, RestartMode,
    RetryConfig, ScriptedFates, SeededBug,
};
use drt_sim::SimDuration;

/// One source-level operation in a scenario script.
#[derive(Debug, Clone)]
pub enum Op {
    /// Establish a connection with a primary route and at most one
    /// backup route, both given as node paths.
    Establish {
        /// Connection id.
        conn: ConnectionId,
        /// Requested bandwidth.
        bw: Bandwidth,
        /// Primary route as a node path.
        primary: Vec<NodeId>,
        /// Backup route as a node path.
        backup: Option<Vec<NodeId>>,
    },
    /// Fail a link (triggers detection, reporting, and failover).
    FailLink {
        /// The link that fails.
        link: LinkId,
    },
    /// Fail several links at the same instant — a correlated burst (an
    /// SRLG cut severing a primary and its backup at once), so
    /// their detections, reports, and the resulting recovery walks are
    /// all in flight together instead of draining one failure at a time.
    FailLinks {
        /// The links that fail together.
        links: Vec<LinkId>,
    },
    /// Crash a router permanently: every incident link fails at once and
    /// the *surviving* endpoint of each detects and reports, so one
    /// crash fans several reports for the same connection into its
    /// source while earlier ones are still being acted on.
    CrashNode {
        /// The router that crashes.
        node: NodeId,
    },
    /// A byzantine router fabricates a failure report for a perfectly
    /// healthy link and sends it upstream exactly as an honest detector
    /// would. The lie is an *operation*, not a fate: the adversary acts
    /// at the source level, and the checker then explores every
    /// delivery schedule of the lie and its consequences.
    SpoofReport {
        /// The lying router.
        reporter: NodeId,
        /// The healthy link it claims failed.
        link: LinkId,
    },
    /// Crash a router and restart it after `down_for`. What the restart
    /// recovers follows the scenario's [`Scenario::restart_mode`]:
    /// amnesia loses every channel table and dedup record, journaled
    /// mode replays the write-ahead journal and rejoins on it.
    RestartRouter {
        /// The router that crashes and restarts.
        node: NodeId,
        /// Outage duration before the restart.
        down_for: SimDuration,
    },
    /// Retire the connection's registered backup if it crosses `link`
    /// (its release walk is the source's only signalling).
    RetireBackup {
        /// Connection whose backup is retired.
        conn: ConnectionId,
        /// A link of the backup.
        link: LinkId,
    },
    /// Tear the connection down.
    Release {
        /// Connection to release.
        conn: ConnectionId,
    },
}

/// A deterministic workload: a topology plus a sequence of [`Op`]s.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name, used in reports.
    pub name: &'static str,
    /// The topology every run executes on.
    pub net: Arc<Network>,
    /// Operations applied in order, each drained to quiescence.
    pub ops: Vec<Op>,
    /// Lateness applied by [`Fate::Delay`]. The engine's retransmission
    /// timeout is told about it via [`ChaosConfig::max_jitter`].
    pub late_by: SimDuration,
    /// What an [`Op::RestartRouter`] restart recovers: amnesia (the
    /// historical model) or journal replay.
    pub restart_mode: RestartMode,
    /// Storage corruption injected into the journal at crash time (only
    /// meaningful under [`RestartMode::Journaled`]).
    pub journal_fault: JournalFault,
}

impl Scenario {
    /// Builds the protocol engine for one run of this scenario under
    /// `script`, returning the engine and a handle onto the fate log.
    pub fn spawn(&self, script: Vec<Fate>, bug: SeededBug) -> (ProtocolSim, Rc<RefCell<FateLog>>) {
        let fates = ScriptedFates::new(script, self.late_by);
        let log = fates.log();
        // Probabilistic chaos is off (the script owns every fate); the
        // jitter bound still has to cover scripted lateness so the
        // retransmission timeout never fires before a delayed copy.
        let chaos = ChaosConfig {
            max_jitter: self.late_by,
            restart_mode: self.restart_mode,
            journal_fault: self.journal_fault,
            ..ChaosConfig::default()
        };
        let mut sim = ProtocolSim::with_fates(
            Arc::clone(&self.net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            chaos,
            Box::new(fates),
        );
        sim.seed_bug(bug);
        (sim, log)
    }

    /// Applies one operation to a running engine.
    pub fn apply(&self, sim: &mut ProtocolSim, op: &Op) {
        match op {
            Op::Establish {
                conn,
                bw,
                primary,
                backup,
            } => {
                let primary = route(&self.net, primary);
                let backup = backup.as_ref().map(|b| route(&self.net, b));
                sim.establish(*conn, *bw, primary, backup);
            }
            Op::FailLink { link } => sim.fail_link(*link),
            Op::FailLinks { links } => {
                for &l in links {
                    sim.fail_link(l);
                }
            }
            Op::CrashNode { node } => sim.crash_router(*node),
            Op::RestartRouter { node, down_for } => sim.restart_router(*node, *down_for),
            Op::SpoofReport { reporter, link } => {
                sim.spoof_failure_report(*reporter, *link);
            }
            Op::RetireBackup { conn, link } => {
                sim.retire_backups_crossing(*conn, *link);
            }
            Op::Release { conn } => {
                sim.release(*conn);
            }
        }
    }
}

fn route(net: &Arc<Network>, nodes: &[NodeId]) -> Route {
    Route::from_nodes(net, nodes).expect("scenario route must exist in its own topology")
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// The smallest scenario with a real failover: primary `0 -> 1`, backup
/// `0 -> 2 -> 1`, then the primary's only link fails. Exercises setup,
/// backup registration, failure detection and reporting, primary
/// release, and channel switching.
pub fn three_node_failover() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(3);
    let l01 = b.add_link(n(0), n(1), cap).expect("0->1");
    b.add_link(n(0), n(2), cap).expect("0->2");
    b.add_link(n(2), n(1), cap).expect("2->1");
    let net = Arc::new(b.build());
    Scenario {
        name: "three-node-failover",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1)],
                backup: Some(vec![n(0), n(2), n(1)]),
            },
            Op::FailLink { link: l01 },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Amnesia,
        journal_fault: JournalFault::None,
    }
}

/// A correlated burst severing the primary *and* its backup in the same
/// instant: primary `0 -> 1`, backup `0 -> 2 -> 1`, then `0 -> 1` and
/// `2 -> 1` fail together. The source learns only of the primary's
/// failure (no primary crosses `2 -> 1`), switches onto the dead backup,
/// loses the activation mid-walk, and must scrub the partial activation
/// and lose the connection without corrupting any ledger.
pub fn overlapping_burst_switch() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(3);
    let l01 = b.add_link(n(0), n(1), cap).expect("0->1");
    b.add_link(n(0), n(2), cap).expect("0->2");
    let l21 = b.add_link(n(2), n(1), cap).expect("2->1");
    let net = Arc::new(b.build());
    Scenario {
        name: "overlapping-burst-switch",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1)],
                backup: Some(vec![n(0), n(2), n(1)]),
            },
            Op::FailLinks {
                links: vec![l01, l21],
            },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Amnesia,
        journal_fault: JournalFault::None,
    }
}

/// The smallest graph on which a backup crosses a router of its own
/// primary: primary `0 -> 1 -> 2 -> 3`, backup `0 -> 2 -> 4 -> 3`, then
/// `1 -> 2` fails. The switch walk reaches router `2` one hop before the
/// old primary's release walk does, so router `2` holds both channels'
/// reservations at once and each walk must remove only its own entry. An
/// engine that keeps one primary entry per connection lets the release
/// take the promoted entry and strands the old reservation on `2 -> 3`
/// (`prime-table-divergence`) on the *fault-free* root run.
pub fn switchover_revisits_primary_router() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(5);
    b.add_link(n(0), n(1), cap).expect("0->1");
    let l12 = b.add_link(n(1), n(2), cap).expect("1->2");
    b.add_link(n(2), n(3), cap).expect("2->3");
    b.add_link(n(0), n(2), cap).expect("0->2");
    b.add_link(n(2), n(4), cap).expect("2->4");
    b.add_link(n(4), n(3), cap).expect("4->3");
    let net = Arc::new(b.build());
    Scenario {
        name: "switchover-revisits-primary-router",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1), n(2), n(3)],
                backup: Some(vec![n(0), n(2), n(4), n(3)]),
            },
            Op::FailLink { link: l12 },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Amnesia,
        journal_fault: JournalFault::None,
    }
}

/// A router crash on the primary path with an intermediate survivor on
/// each side: primary `0 -> 1 -> 2 -> 3`, backup `0 -> 4 -> 5 -> 3`,
/// then router `1` crashes. Both `0` (for `0 -> 1`) and `2` (for
/// `1 -> 2`) detect and report the *same* connection's failure; the
/// source must deduplicate the fan-in, switch exactly once, and absorb
/// the release walk that dies at the crashed router.
pub fn node_crash_fanin() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(6);
    b.add_link(n(0), n(1), cap).expect("0->1");
    b.add_link(n(1), n(2), cap).expect("1->2");
    b.add_link(n(2), n(3), cap).expect("2->3");
    b.add_link(n(0), n(4), cap).expect("0->4");
    b.add_link(n(4), n(5), cap).expect("4->5");
    b.add_link(n(5), n(3), cap).expect("5->3");
    let net = Arc::new(b.build());
    Scenario {
        name: "node-crash-fanin",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1), n(2), n(3)],
                backup: Some(vec![n(0), n(4), n(5), n(3)]),
            },
            Op::CrashNode { node: n(1) },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Amnesia,
        journal_fault: JournalFault::None,
    }
}

/// A byzantine transit router lies about a healthy link: primary
/// `0 -> 1 -> 2`, backup `0 -> 3 -> 2`, and router `1` fabricates a
/// failure report for the live link `1 -> 2`.
///
/// The engine verifies every report, so the script checks clean: the
/// source finds the link alive in the failed-link mask, rejects the
/// report, and only the liar's suspicion rises. Under
/// [`SeededBug::TrustReports`] the engine treats the lie like any honest
/// report — the source records it and switches off a healthy primary —
/// which the checker's `phantom-report` invariant (a report recorded for
/// a live link) flags on the *fault-free* root run: the minimal
/// counterexample is the lie itself, no chaos needed.
pub fn byzantine_false_report() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(4);
    b.add_link(n(0), n(1), cap).expect("0->1");
    let l12 = b.add_link(n(1), n(2), cap).expect("1->2");
    b.add_link(n(0), n(3), cap).expect("0->3");
    b.add_link(n(3), n(2), cap).expect("3->2");
    let net = Arc::new(b.build());
    Scenario {
        name: "byzantine-report-defended",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1), n(2)],
                backup: Some(vec![n(0), n(3), n(2)]),
            },
            Op::SpoofReport {
                reporter: n(1),
                link: l12,
            },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Amnesia,
        journal_fault: JournalFault::None,
    }
}

/// A router on the primary path crashes and restarts mid-life: primary
/// `0 -> 1 -> 2`, backup `0 -> 3 -> 2`, then router `1` restarts after a
/// 50 ms outage, and the connection is released through it.
///
/// With `journaled = false` the restarted router comes back with empty
/// channel tables — the connection's primary hop at router `1` is simply
/// gone, and the `rejoin-restores-primaries` invariant is violated on
/// the *fault-free* root run: the minimal counterexample is the restart
/// itself, no chaos needed. With `journaled = true` the router replays
/// its write-ahead journal and rejoins on it, and the same script checks
/// clean at full depth: every surviving primary hop is back, no spurious
/// switchover fires, and the release walks through the replayed tables.
pub fn restart_rejoin(journaled: bool) -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(4);
    b.add_link(n(0), n(1), cap).expect("0->1");
    b.add_link(n(1), n(2), cap).expect("1->2");
    b.add_link(n(0), n(3), cap).expect("0->3");
    b.add_link(n(3), n(2), cap).expect("3->2");
    let net = Arc::new(b.build());
    Scenario {
        name: if journaled {
            "restart-rejoin-journaled"
        } else {
            "restart-rejoin-amnesia"
        },
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1), n(2)],
                backup: Some(vec![n(0), n(3), n(2)]),
            },
            Op::RestartRouter {
                node: n(1),
                down_for: SimDuration::from_millis(50),
            },
            Op::Release {
                conn: ConnectionId::new(0),
            },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: if journaled {
            RestartMode::Journaled
        } else {
            RestartMode::Amnesia
        },
        journal_fault: JournalFault::None,
    }
}

/// The journaled restart of [`restart_rejoin`] with a torn journal
/// tail: the crash truncates the last 64 records, replay detects the
/// corruption, and the router degrades its rejoin (honest
/// crashed-router detection) instead of rejoining on bad state. The
/// degraded rejoin forfeits exact quiescent checks, so the scenario is
/// clean at full depth — the graceful-degradation ladder, checked.
pub fn restart_torn_journal() -> Scenario {
    Scenario {
        name: "restart-torn-journal",
        journal_fault: JournalFault::TornTail(64),
        ..restart_rejoin(true)
    }
}

/// A journaled restart next to a router that has seen a newer walk of the
/// connection than the restarted one: primary `0 -> 1 -> 2 -> 4`, backup
/// `0 -> 3 -> 4`, an unused duplex link `2 - 3` that makes routers `2`
/// and `3` neighbours, the backup retired, then router `2` restarts after
/// a 50 ms outage. Router `3` gated the backup's release walk, which
/// router `2` never saw, and holds nothing for the connection. A rejoin
/// that inferred "the connection concluded" from a neighbour's empty
/// tables would release the live primary's hop `2 -> 4` and violate
/// `rejoin-restores-primaries` on the *fault-free* root run; a rejoin on
/// the journal alone keeps it.
pub fn retired_backup_rejoin() -> Scenario {
    let cap = Bandwidth::from_mbps(10);
    let mut b = NetworkBuilder::with_nodes(5);
    for (x, y) in [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (2, 3)] {
        b.add_duplex_link(n(x), n(y), cap).expect("duplex link");
    }
    let net = Arc::new(b.build());
    let l34 = net.find_link(n(3), n(4)).expect("3->4");
    Scenario {
        name: "retired-backup-rejoin",
        net,
        ops: vec![
            Op::Establish {
                conn: ConnectionId::new(0),
                bw: Bandwidth::from_kbps(1_000),
                primary: vec![n(0), n(1), n(2), n(4)],
                backup: Some(vec![n(0), n(3), n(4)]),
            },
            Op::RetireBackup {
                conn: ConnectionId::new(0),
                link: l34,
            },
            Op::RestartRouter {
                node: n(2),
                down_for: SimDuration::from_millis(50),
            },
        ],
        late_by: SimDuration::from_millis(2),
        restart_mode: RestartMode::Journaled,
        journal_fault: JournalFault::None,
    }
}

/// Every built-in scenario, in checking order: the eight the check
/// binary requires to be clean. The *amnesia* restart twin of
/// [`restart_rejoin`] violates an invariant by construction, so it is not
/// here; neither is a second byzantine scenario, because the engine
/// always verifies reports. The violating demonstrations live in the
/// `restart` and `byzantine` integration tests, the latter running
/// [`byzantine_false_report`] under [`SeededBug::TrustReports`].
pub fn all() -> Vec<Scenario> {
    vec![
        three_node_failover(),
        overlapping_burst_switch(),
        switchover_revisits_primary_router(),
        node_crash_fanin(),
        byzantine_false_report(),
        restart_rejoin(true),
        restart_torn_journal(),
        retired_backup_rejoin(),
    ]
}
