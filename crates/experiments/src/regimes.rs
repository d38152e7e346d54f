//! The orchestrated failure sweeps: control-plane loss, correlated
//! failures, byzantine routers and hostile workloads, router restart
//! storms, and dynamic availability — ten regimes of one driver.
//!
//! The paper measures `P_act-bk` after one independent failure on a
//! freshly admitted population. Every regime here runs the same cell
//! instead: replay a seeded workload's timeline until `connections` are
//! established, then play rounds — inject, feed the
//! [`RecoveryOrchestrator`], run it to quiescence, check the manager's
//! invariants, let 30 s pass — and close with a recorded `P_act-bk`
//! probe. The regimes differ only in what a round injects, and fall into
//! five tables ([`Table`]):
//!
//! * **control-plane loss** — `control-loss` signals every admission,
//!   failure and re-protection through the distributed engine
//!   ([`ProtocolSim`]) over a control plane that drops `strength` ‰ of
//!   the packets on every hop (plus duplication and jitter). After every
//!   quiescence the manager is the protocol's projection
//!   ([`ProtocolSim::project`]): routes are selected and `P_act-bk`
//!   probed on what the routers hold. Each round fails one loaded link
//!   on the protocol; re-protection is DRTP's own reconfiguration step,
//!   signalled hop by hop, so the orchestrator stays idle.
//! * **correlated failures** — `indep-links` fails one loaded link per
//!   event (the paper's model, as the baseline row), `srlg-bursts` one
//!   shared-risk group whole (conduits partitioned from the links by a
//!   seeded shuffle), `node-crashes` one transit router with every
//!   incident link. Backups of all simultaneously hit primaries contend
//!   in **one** activation pass ([`DrtpManager::inject_event`]);
//!   connections whose one re-protection attempt fails are orphaned —
//!   protection the regime permanently destroyed.
//! * **adversaries** — `byzantine-lsa`: `strength` routers poison the
//!   link-state view ([`ViewDistortion`]); admission still validates
//!   against ground truth, so every lie surfaces as a setup failure, and
//!   the defence damps advertisement churn
//!   ([`RecoveryOrchestrator::observe_churn`]) so the liars' links are
//!   quarantined away from new backups. `false-reports`: `strength`
//!   byzantine routers fabricate `strength` failure reports per round for
//!   healthy links, forcing spurious switchovers
//!   ([`DrtpManager::inject_false_report`]); the defence vets reports
//!   ([`RecoveryOrchestrator::vet_report`]) and quarantines repeat liars.
//!   `flash-crowd`: a fraction of all demand converges on one node
//!   ([`TrafficPattern::flash_crowd`]) before ordinary failures land.
//!   `regional-storm`: rounds alternate a hop-radius-`strength` storm
//!   ([`regional_storm`]) with a maintenance wave of routers
//!   ([`maintenance_waves`]); the storm passes (links repair) but
//!   destroyed protection stays destroyed.
//! * **restarts** — `restart-storm`: `strength` routers restart one at a
//!   time on a rolling maintenance schedule. Undefended, a restarted
//!   router forgets every table entry ([`RestartMode::Amnesia`]):
//!   spurious switchovers off a router that is back a moment later,
//!   forgotten backup registrations, connections its terminals drop.
//!   Defended, it replays its write-ahead journal
//!   ([`RestartMode::Journaled`]), so no switchover fires at all.
//! * **dynamic availability** — `availability` plays no rounds: its
//!   timeline loop replays the whole scenario, departures and a recorded
//!   link failure/repair process ([`FailureProcess`], `strength` failures
//!   per hour, MTTR 5 min) included. With reconfiguration off, failures
//!   only consume backups. With it on, every failure feeds the
//!   orchestrator, which re-protects, and every repair triggers
//!   [`RecoveryOrchestrator::reoptimize`]. The table sets the dynamic
//!   `P_act-bk` beside Figure 4's static estimator, replayed on the same
//!   scenario ([`crate::runner::replay`]).
//!
//! Regimes with a countermeasure (or reconfiguration) run an undefended
//! and a defended arm per cell ([`Regime::arms`]), comparable by
//! construction: workload substreams depend only on the seed (and the
//! strength), byzantine sets are nested prefixes of one seeded shuffle,
//! and a vetting rejection never suppresses a ground-truth injection, so
//! any delta between arms is the countermeasure's doing.
//!
//! Every number a table prints is read back from the cell's merged
//! manager + orchestrator (+ protocol) [`Telemetry`], plus the three
//! facts only the final state holds ([`Row`]). Cells derive every RNG
//! substream from the master seed and their own identity
//! ([`Cell::tag`]), so the rows are byte-identical for every `jobs`
//! count.

use crate::config::ExperimentConfig;
use crate::report::{loaded_links, pick_from, pick_loaded_link};
use crate::runner::{replay, SchemeKind};
use drt_core::failure::{FailureEvent, LinkImpact, RestartMode};
use drt_core::orchestrator::{RecoveryOrchestrator, ReportVerdict, FLAP_THRESHOLD};
use drt_core::routing::RoutingScheme;
use drt_core::{ConnectionId, DrtpManager, EstablishReport, Telemetry, ViewDistortion};
use drt_net::{Bandwidth, LinkId, Network, NodeId, SrlgId};
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::rng::{indexed_stream, stream, substream_seed};
use drt_sim::workload::{
    maintenance_waves, regional_storm, FailureProcess, TimelineEvent, TrafficPattern,
};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Links per derived shared-risk group (conduit width).
const SRLG_SIZE: usize = 3;

/// Mean time to repair of the `availability` regime's failure process.
const AVAILABILITY_MTTR: SimDuration = SimDuration::from_minutes(5);

/// Maintenance waves the restart schedule is partitioned into.
const RESTART_WAVES: usize = 4;

/// Attempts per signalling transaction on the lossy control plane.
const CONTROL_MAX_ATTEMPTS: u32 = 12;

/// The table a regime's rows render into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Control-plane loss: one D-LSR row per per-hop loss rate.
    ControlLoss,
    /// Correlated multi-failure: one D-LSR row per regime.
    Correlated,
    /// Byzantine routers and hostile workloads, per scheme and strength.
    Adversarial,
    /// Rolling router restarts, amnesia vs. journaled.
    Restart,
    /// Dynamic vs. static `P_act-bk`, reconfiguration off vs. on, per
    /// scheme and failure rate.
    Availability,
}

impl Table {
    /// Every table, in campaign order.
    pub const ALL: [Table; 5] = [
        Table::ControlLoss,
        Table::Correlated,
        Table::Adversarial,
        Table::Restart,
        Table::Availability,
    ];

    /// The regimes rendering into this table, in sweep order.
    pub fn regimes(self) -> Vec<Regime> {
        Regime::ALL
            .into_iter()
            .filter(|r| r.table() == self)
            .collect()
    }

    /// Renders `rows` — cells of this table's regimes — as measured on
    /// `net` (see [`prepare_network`]).
    pub fn render(self, net: &Network, rows: &[Row]) -> String {
        match self {
            Table::ControlLoss => render_control_loss(net, rows),
            Table::Correlated => render_correlated(net, rows),
            Table::Adversarial => render_adversarial(net, rows),
            Table::Restart => render_restart(net, rows),
            Table::Availability => render_availability(net, rows),
        }
    }
}

/// One regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Independent single-link failures signalled through the
    /// distributed engine over a lossy control plane.
    ControlLoss,
    /// Independent single-link failures — the paper's baseline model.
    IndepLinks,
    /// Shared-risk link groups cut whole: every member fails at once.
    SrlgBursts,
    /// Router crashes: every link incident to the node fails at once.
    NodeCrashes,
    /// Byzantine routers poison the link-state view route selection
    /// reads.
    ByzantineLsa,
    /// Byzantine routers fabricate failure reports for healthy links.
    FalseReports,
    /// A hostile flash-crowd workload converges on one target node.
    FlashCrowd,
    /// Regional storms and rolling maintenance waves that pass, leaving
    /// their protection damage.
    RegionalStorm,
    /// Rolling router restarts, one router down at a time.
    RestartStorm,
    /// The whole scenario replayed under its recorded link failure/repair
    /// process.
    Availability,
}

impl Regime {
    /// Every regime, in campaign order.
    pub const ALL: [Regime; 10] = [
        Regime::ControlLoss,
        Regime::IndepLinks,
        Regime::SrlgBursts,
        Regime::NodeCrashes,
        Regime::ByzantineLsa,
        Regime::FalseReports,
        Regime::FlashCrowd,
        Regime::RegionalStorm,
        Regime::RestartStorm,
        Regime::Availability,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            Regime::ControlLoss => "control-loss",
            Regime::IndepLinks => "indep-links",
            Regime::SrlgBursts => "srlg-bursts",
            Regime::NodeCrashes => "node-crashes",
            Regime::ByzantineLsa => "byzantine-lsa",
            Regime::FalseReports => "false-reports",
            Regime::FlashCrowd => "flash-crowd",
            Regime::RegionalStorm => "regional-storm",
            Regime::RestartStorm => "restart-storm",
            Regime::Availability => "availability",
        }
    }

    /// Parses a [`Regime::label`] back into a regime.
    pub fn parse(s: &str) -> Option<Regime> {
        Regime::ALL.into_iter().find(|r| r.label() == s)
    }

    /// The table this regime's rows render into.
    pub fn table(self) -> Table {
        match self {
            Regime::ControlLoss => Table::ControlLoss,
            Regime::IndepLinks | Regime::SrlgBursts | Regime::NodeCrashes => Table::Correlated,
            Regime::ByzantineLsa
            | Regime::FalseReports
            | Regime::FlashCrowd
            | Regime::RegionalStorm => Table::Adversarial,
            Regime::RestartStorm => Table::Restart,
            Regime::Availability => Table::Availability,
        }
    }

    /// What the integer strength knob means under this regime (for the
    /// table footers).
    pub fn strength_meaning(self) -> &'static str {
        match self {
            Regime::ControlLoss => "per-hop control-packet loss (per mille)",
            Regime::IndepLinks | Regime::SrlgBursts | Regime::NodeCrashes => {
                "nothing (the cell tag omits it)"
            }
            Regime::ByzantineLsa => "byzantine routers",
            Regime::FalseReports => "byzantine reporters (= lies/round)",
            Regime::FlashCrowd => "crowd intensity (fraction = 0.4 + 0.15*s)",
            Regime::RegionalStorm => "storm radius (hops)",
            Regime::RestartStorm => "routers restarted (rolling, one at a time)",
            Regime::Availability => "link failures per hour (MTTR 5 min)",
        }
    }

    /// The arms each cell runs: `false` is undefended (no vetting, no
    /// damping, amnesia, no reconfiguration), `true` defended (the
    /// countermeasure armed, journaled rejoin, or reconfiguration on).
    /// Undefended prints first.
    pub fn arms(self) -> &'static [bool] {
        match self {
            Regime::ByzantineLsa
            | Regime::FalseReports
            | Regime::RestartStorm
            | Regime::Availability => &[false, true],
            _ => &[false],
        }
    }
}

/// One cell of the sweep: regime × scheme × strength × arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The regime.
    pub regime: Regime,
    /// The routing scheme under test.
    pub scheme: SchemeKind,
    /// Regime strength (see [`Regime::strength_meaning`]).
    pub strength: u32,
    /// `true` for the defended arm (see [`Regime::arms`]).
    pub defended: bool,
}

impl Cell {
    /// The cell's identity tag, used for RNG substream derivation — two
    /// cells share a substream only if they are the same cell. Each table
    /// keeps the format its sweep was published with, since the tags name
    /// the substreams every pinned byte depends on.
    pub fn tag(&self) -> String {
        let (label, scheme, s) = (self.regime.label(), self.scheme.label(), self.strength);
        match self.regime.table() {
            // Names the chaos substream; the scheme is D-LSR throughout.
            Table::ControlLoss => format!("chaos-{s}"),
            Table::Correlated => label.to_string(),
            Table::Adversarial => {
                let arm = if self.defended { "def" } else { "und" };
                format!("{label}-{scheme}-s{s}-{arm}")
            }
            Table::Restart => {
                let arm = if self.defended { "jnl" } else { "amn" };
                format!("{label}-{scheme}-i{s}-{arm}")
            }
            Table::Availability => {
                let arm = if self.defended { "on" } else { "off" };
                format!("{label}-{scheme}-r{s}-{arm}")
            }
        }
    }

    /// The labels of the cell's pick, inject and probe substreams. The
    /// loss sweep was published with labels its cells share; only its
    /// chaos substream, named by the tag, differs per cell.
    fn substreams(&self) -> [String; 3] {
        let tag = self.tag();
        match self.regime {
            Regime::ControlLoss => ["campaign-links", "campaign-inject", "probe"].map(String::from),
            Regime::RestartStorm => ["pick", "restart", "probe"].map(|s| format!("{s}-{tag}")),
            _ => ["pick", "inject", "probe"].map(|s| format!("{s}-{tag}")),
        }
    }
}

/// Knobs of the sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Regimes to run, in order.
    pub regimes: Vec<Regime>,
    /// Routing schemes to run each regime under.
    pub schemes: Vec<SchemeKind>,
    /// Strengths to sweep (see [`Regime::strength_meaning`]).
    pub strengths: Vec<u32>,
    /// Connections to establish before the first round (`availability`
    /// replays every request of its scenario instead).
    pub connections: usize,
    /// Rounds per cell; `restart-storm` plays one round per restarted
    /// router instead, and `availability` none.
    pub events: usize,
    /// Master seed for workload, adversaries, events, and probes.
    pub seed: u64,
}

impl SweepConfig {
    /// The sweep's cells in canonical (rendered) order: regime, scheme,
    /// strength, then arm.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &regime in &self.regimes {
            for &scheme in &self.schemes {
                for &strength in &self.strengths {
                    for &defended in regime.arms() {
                        out.push(Cell {
                            regime,
                            scheme,
                            strength,
                            defended,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One row of the sweep: a whole campaign under one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The cell this row ran.
    pub cell: Cell,
    /// The cell's merged manager + orchestrator telemetry — every counter
    /// and latency the tables print.
    pub telemetry: Telemetry,
    /// Links still quarantined when the last round ended.
    pub quarantined: u64,
    /// Connections still carrying traffic after the last round.
    pub survivors: u64,
    /// The closing probe's three most fragile links, worst first.
    pub worst_links: Vec<LinkImpact>,
}

impl Row {
    /// `P_act-bk` of the closing probe in parts per million; `None` when
    /// no probe affected anything.
    pub fn p_act_bk_ppm(&self) -> Option<i64> {
        let t = &self.telemetry;
        (t.counter("sweep.affected") > 0).then(|| t.gauge("sweep.p_act_bk_ppm"))
    }

    /// Effective `P_act-bk` over the *original* established population,
    /// in ppm: the closing probe only sees survivors, and would flatter
    /// amnesia, whose destroyed connections simply vanish from it — so
    /// it is scaled by survival. `None` when there was nothing to probe.
    pub fn p_eff_ppm(&self) -> Option<i64> {
        if self.survivors == 0 {
            return Some(0);
        }
        let established = self.telemetry.counter("establish.accepted").max(1);
        self.p_act_bk_ppm()
            .map(|ppm| ppm * self.survivors as i64 / established as i64)
    }

    /// Dynamic `P_act-bk` of an `availability` cell: switchovers over the
    /// primaries its failures hit. `None` when no failure hit one.
    fn dynamic_p(&self) -> Option<f64> {
        let t = &self.telemetry;
        let switched = t.counter("inject.switched");
        ratio(switched, switched + t.counter("inject.lost"))
    }

    /// Figure 4's static estimator, replayed on an `availability` cell's
    /// scenario. `None` when no probe affected anything.
    fn static_p(&self) -> Option<f64> {
        let t = &self.telemetry;
        ratio(t.counter("static.activated"), t.counter("static.affected"))
    }
}

/// Runs the sweep on at most `jobs` worker threads, one cell per work
/// item; byte-identical for every job count.
///
/// # Panics
///
/// Panics when the experiment topology cannot be built or a manager
/// invariant breaks — both are harness bugs, not measured outcomes.
pub fn run(cfg: &ExperimentConfig, scfg: &SweepConfig, jobs: usize) -> Vec<Row> {
    let net = prepare_network(cfg, scfg.seed);
    let net = &net;
    crate::par::parallel_map(jobs, scfg.cells(), |cell| {
        run_cell(cfg, scfg, Arc::clone(net), cell)
    })
}

/// The topology the sweep runs on: the experiment network with the
/// seed-derived conduit groups registered (only `srlg-bursts` reads
/// them). Exposed so callers render against the graph the rows were
/// measured on.
pub fn prepare_network(cfg: &ExperimentConfig, seed: u64) -> Arc<Network> {
    let base = cfg.build_network().expect("experiment topology");
    let groups = derive_srlgs(&base, seed);
    Arc::new(
        base.with_srlgs(&groups)
            .expect("groups derived from this network"),
    )
}

/// Partitions the links into conduit groups of [`SRLG_SIZE`]: a seeded
/// shuffle, chunked. Every link lands in exactly one group, so an SRLG
/// burst is meaningful anywhere in the topology.
fn derive_srlgs(net: &Network, seed: u64) -> Vec<Vec<LinkId>> {
    let links = shuffled(
        net.links().map(|l| l.id()).collect(),
        seed,
        "srlg-derivation",
    );
    links.chunks(SRLG_SIZE).map(<[LinkId]>::to_vec).collect()
}

/// Fisher–Yates over substream `label`; rand's shuffle would also be
/// deterministic, but spelling it out pins the draws the published
/// tables depend on.
fn shuffled<T>(mut items: Vec<T>, seed: u64, label: &str) -> Vec<T> {
    let mut rng = stream(seed, label);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    items
}

/// The byzantine router set at `strength`: a prefix of one seeded
/// shuffle of all nodes, so stronger adversaries strictly contain
/// weaker ones and every cell of a sweep attacks the same routers.
fn pick_byzantine(net: &Network, strength: u32, seed: u64) -> Vec<NodeId> {
    let mut ids = shuffled(net.nodes().collect(), seed, "byzantine");
    ids.truncate((strength as usize).min(ids.len()));
    ids.sort();
    ids
}

/// Links advertised by a byzantine router (links whose source it is),
/// in id order.
fn owned_links(net: &Network, byzantine: &[NodeId]) -> Vec<LinkId> {
    net.links()
        .filter(|l| byzantine.contains(&l.src()))
        .map(|l| l.id())
        .collect()
}

fn crowd_fraction(strength: u32) -> f64 {
    (0.4 + 0.15 * f64::from(strength)).min(0.9)
}

fn run_cell(cfg: &ExperimentConfig, scfg: &SweepConfig, net: Arc<Network>, cell: Cell) -> Row {
    let seed = scfg.seed;
    let [pick_label, inject_label, probe_label] = cell.substreams();
    let mut scheme = cell.scheme.instantiate();
    let mut mgr = DrtpManager::new(Arc::clone(&net));
    let byzantine = pick_byzantine(&net, cell.strength, seed);
    let mut plane = (cell.regime == Regime::ControlLoss)
        .then(|| ControlPlane::new(Arc::clone(&net), &cell, seed));

    let pattern = if cell.regime == Regime::FlashCrowd {
        let mut crowd_rng = stream(seed, &format!("crowd-{}", cell.strength));
        TrafficPattern::flash_crowd(cfg.nodes, crowd_fraction(cell.strength), &mut crowd_rng)
    } else {
        TrafficPattern::ut()
    };
    if cell.regime == Regime::ByzantineLsa {
        // Poisoned before establishment, so the accept/reject counters
        // price the lies at admission time.
        mgr.set_view_distortion(Some(ViewDistortion::for_nodes(net.num_nodes(), &byzantine)));
    }

    // `availability` replays its whole scenario; every other regime stops
    // once `connections` are established, before any departure.
    let replay_all = cell.regime == Regime::Availability;
    let mut scenario_cfg = cfg.scenario_config(0.4, pattern);
    scenario_cfg.failures = (replay_all && cell.strength > 0).then(|| FailureProcess {
        failures_per_hour: f64::from(cell.strength),
        mttr: AVAILABILITY_MTTR,
    });
    let scenario = scenario_cfg.generate_with_links(cfg.nodes, net.num_links());
    let mut orch = RecoveryOrchestrator::new(net.num_links());
    let mut now = SimTime::ZERO;
    let mut replay_rng = stream(seed, &inject_label);
    let mut established = 0usize;
    for (t, ev) in scenario.timeline() {
        match ev {
            TimelineEvent::Arrive(rid) => {
                if !replay_all && established >= scfg.connections {
                    break;
                }
                let r = scenario.request(rid).expect("valid id");
                let req = drt_core::routing::RouteRequest::new(
                    ConnectionId::new(rid.index() as u64),
                    r.src,
                    r.dst,
                    scenario.bw_req(),
                );
                if let Ok(admitted) = mgr.request_connection(&mut *scheme, req) {
                    established += 1;
                    if let Some(plane) = &mut plane {
                        plane.establish(&mut mgr, admitted, scenario.bw_req());
                    }
                }
            }
            TimelineEvent::Depart(rid) => {
                if replay_all {
                    // A rejected request has nothing to release.
                    let _ = mgr.release(ConnectionId::new(rid.index() as u64));
                }
            }
            // Only `availability` records a failure process. With
            // reconfiguration off (`defended` false) nothing re-protects.
            TimelineEvent::LinkFail(link) => {
                now = now.max(t);
                let report = mgr
                    .inject_failure(link, &mut replay_rng)
                    .expect("the failure process fails only links that are up, repairs first");
                if cell.defended {
                    orch.observe_failure(now, &report);
                    now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
                }
            }
            TimelineEvent::LinkRepair(link) => {
                now = now.max(t);
                if mgr.repair_link(link).is_ok() && cell.defended {
                    orch.observe_repair(now, link);
                    orch.reoptimize(now, &mut mgr, &mut *scheme);
                }
            }
        }
    }
    if let Some(plane) = &mut plane {
        plane.audit();
    }

    let storm_waves = if cell.regime == Regime::RegionalStorm {
        let mut wave_rng = stream(seed, &format!("waves-{}", cell.strength));
        maintenance_waves(&net, 8, &mut wave_rng)
    } else {
        Vec::new()
    };
    // The rolling schedule is keyed on the seed alone, so both arms
    // restart the same routers in the same order. Restarts land wherever
    // maintenance does: a forgetful *terminal* drops its own connections,
    // which is part of what amnesia costs.
    let restarts: Vec<NodeId> = if cell.regime == Regime::RestartStorm {
        let mut wave_rng = stream(seed, "restart-waves");
        maintenance_waves(&net, RESTART_WAVES, &mut wave_rng)
            .into_iter()
            .flatten()
            .take(cell.strength as usize)
            .collect()
    } else {
        Vec::new()
    };
    let rounds = match cell.regime {
        Regime::RestartStorm => restarts.len(),
        Regime::Availability => 0,
        _ => scfg.events,
    };

    let mut pick_rng = stream(seed, &pick_label);
    for round in 0..rounds {
        let mut inject_rng = indexed_stream(seed, &inject_label, round as u64);
        match cell.regime {
            Regime::ControlLoss => {
                let Some(link) = pick_loaded_link(&mgr, &mut pick_rng) else {
                    break; // nothing loaded left to fail
                };
                let plane = plane.as_mut().expect("control-loss cells run a plane");
                plane.fail(&mut mgr, &mut *scheme, link);
            }
            Regime::IndepLinks | Regime::SrlgBursts | Regime::NodeCrashes => {
                let Some(event) = pick_event(cell.regime, &mgr, &mut pick_rng) else {
                    break; // nothing loaded left to fail
                };
                let report = mgr
                    .inject_event(&event, &mut inject_rng)
                    .expect("inject_event is infallible on resolvable events");
                orch.observe_failure(now, &report);
            }
            Regime::ByzantineLsa => {
                if cell.defended {
                    // A byzantine router's advertisements oscillate
                    // faster than the flap threshold; damping its churn
                    // quarantines every link it advertises away from
                    // the re-protection routes.
                    for l in owned_links(&net, &byzantine) {
                        for _ in 0..FLAP_THRESHOLD {
                            orch.observe_churn(now, l);
                        }
                    }
                }
                real_failure(
                    &mut mgr,
                    &mut orch,
                    now,
                    false,
                    &mut pick_rng,
                    &mut inject_rng,
                );
            }
            Regime::FalseReports => {
                for _ in 0..cell.strength {
                    let Some(link) = pick_lie_target(&mgr, &byzantine, &mut pick_rng) else {
                        break;
                    };
                    let reporter = mgr.net().link(link).src();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the false-reports regime is the one liar; its arms share substreams"
                    )]
                    if cell.defended {
                        // Vetting finds no corroborating evidence (the
                        // link is healthy): the lie is rejected and the
                        // liar's suspicion rises toward quarantine. The
                        // lie is recorded here because it never reaches
                        // the manager's own counter.
                        orch.telemetry_mut().incr("adversary.false_reports");
                        let _ = orch.vet_report(reporter, false);
                    } else if let Ok(report) = mgr.inject_false_report(link, &mut inject_rng) {
                        // Undefended, the lie is acted on: the switched
                        // connections queue for re-protection exactly as
                        // if the failure had been real.
                        orch.observe_failure(now, &report);
                    }
                }
                real_failure(
                    &mut mgr,
                    &mut orch,
                    now,
                    cell.defended,
                    &mut pick_rng,
                    &mut inject_rng,
                );
            }
            Regime::FlashCrowd => {
                real_failure(
                    &mut mgr,
                    &mut orch,
                    now,
                    false,
                    &mut pick_rng,
                    &mut inject_rng,
                );
            }
            Regime::RegionalStorm => {
                let event = if round % 2 == 0 {
                    storm_event(&mgr, cell.strength as usize, &mut pick_rng)
                } else {
                    let wave = &storm_waves[(round / 2) % storm_waves.len()];
                    Some(FailureEvent::Batch(
                        wave.iter().map(|&n| FailureEvent::Node(n)).collect(),
                    ))
                };
                if let Some(event) = event {
                    if let Ok(report) = mgr.inject_event(&event, &mut inject_rng) {
                        orch.observe_failure(now, &report);
                    }
                }
            }
            Regime::RestartStorm => {
                let mode = if cell.defended {
                    RestartMode::Journaled
                } else {
                    RestartMode::Amnesia
                };
                let report = mgr
                    .crash_restart_router(restarts[round], mode, &mut inject_rng)
                    .expect("restart injection is infallible");
                // The incident links are back up by the time the report
                // returns, so no link failure is recorded — the damage
                // is purely state.
                for &id in report.switched.iter().chain(&report.unprotected) {
                    orch.enqueue(now, id);
                }
            }
            Regime::Availability => unreachable!("availability plays its failures in the timeline"),
        }
        now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
        if cell.regime == Regime::RegionalStorm {
            // The storm passes: every downed link repairs. Lost and
            // orphaned protection stays lost — that residue is what the
            // closing probe prices.
            let downed: Vec<LinkId> = net
                .links()
                .map(|l| l.id())
                .filter(|&l| mgr.is_failed(l))
                .collect();
            for l in downed {
                if mgr.repair_link(l).is_ok() {
                    orch.observe_repair(now, l);
                }
            }
        }
        mgr.assert_invariants();
        now += SimDuration::from_secs(30);
    }

    mgr.assert_invariants();
    let sweep = mgr.sweep_single_failures_recorded(substream_seed(seed, &probe_label));
    let mut telemetry = mgr.telemetry().clone();
    telemetry.merge(orch.telemetry());
    if let Some(plane) = plane {
        telemetry.merge(&plane.finish());
    }
    if replay_all {
        // Figure 4's static estimator on the same scenario.
        let fig4 = replay(&net, &scenario, cell.scheme, cfg).fault_tolerance;
        telemetry.add("static.affected", fig4.affected);
        telemetry.add("static.activated", fig4.activated);
    }
    Row {
        cell,
        telemetry,
        quarantined: orch.quarantined_links(now).len() as u64,
        survivors: mgr
            .connections()
            .filter(|c| c.state().is_carrying_traffic())
            .count() as u64,
        worst_links: sweep.worst_links(3),
    }
}

/// The distributed engine a `control-loss` cell signals through. After
/// every quiescence the cell's manager is [`ProtocolSim::project`]'s, so
/// routes are selected on, links picked from and `P_act-bk` probed on
/// what the routers hold.
struct ControlPlane {
    sim: ProtocolSim,
    /// The protocol's outcomes (`control.*`), merged into the row.
    telemetry: Telemetry,
}

impl ControlPlane {
    fn new(net: Arc<Network>, cell: &Cell, seed: u64) -> Self {
        let chaos = ChaosConfig {
            drop_prob: f64::from(cell.strength) / 1000.0,
            dup_prob: 0.02,
            max_jitter: SimDuration::from_micros(200),
            seed: substream_seed(seed, &cell.tag()),
            ..ChaosConfig::default()
        };
        let retry = RetryConfig {
            max_attempts: CONTROL_MAX_ATTEMPTS,
            ..RetryConfig::default()
        };
        ControlPlane {
            sim: ProtocolSim::with_chaos(net, ProtocolConfig::default(), retry, chaos),
            telemetry: Telemetry::new(),
        }
    }

    /// Runs the protocol to quiescence; `mgr` becomes its projection.
    fn settle(&mut self, mgr: &mut DrtpManager) {
        self.sim.run_to_quiescence();
        *mgr = self.sim.project().0;
    }

    /// Signals a connection `mgr` just admitted and settles.
    fn establish(&mut self, mgr: &mut DrtpManager, admitted: EstablishReport, bw: Bandwidth) {
        let conn = admitted.id;
        self.sim
            .establish(conn, bw, admitted.primary, admitted.backups);
        self.settle(mgr);
        let key = match self.sim.outcome(conn).expect("submitted") {
            ConnOutcome::Established => "control.established",
            ConnOutcome::Degraded => "control.degraded",
            ConnOutcome::Rejected => "control.rejected",
            other => panic!("establishment cannot end in {other:?}"),
        };
        self.telemetry.incr(key);
    }

    /// One round: `link` fails on the protocol, which recovers on its
    /// own; backups crossing the link are retired; then survivors left
    /// unprotected re-protect through DRTP's reconfiguration step, the
    /// route chosen on the projection and registered hop by hop.
    fn fail(&mut self, mgr: &mut DrtpManager, scheme: &mut dyn RoutingScheme, link: LinkId) {
        let log_before = self.sim.recovery_log().len();
        #[expect(
            clippy::disallowed_methods,
            reason = "the control-loss regime's one failure command; the cell's manager is its projection"
        )]
        self.sim.fail_link(link);
        self.sim.run_to_quiescence();
        self.telemetry.incr("control.failures");
        for rec in &self.sim.recovery_log()[log_before..] {
            if rec.recovered {
                self.telemetry.incr("control.switched");
                self.telemetry
                    .observe_duration("control.recovery_us", rec.latency());
            } else {
                self.telemetry.incr("control.lost");
            }
        }
        // Registered backups that cross the failed link can never
        // activate: retire them on the sources that still hold them (the
        // connections `mgr`, projected before the failure, carries).
        let live: Vec<ConnectionId> = mgr.connections().map(|c| c.id()).collect();
        for &c in &live {
            self.sim.retire_backups_crossing(c, link);
        }
        self.settle(mgr);

        for c in live {
            if self.sim.registered_backup(c).is_some() || mgr.reestablish_backup(scheme, c).is_err()
            {
                continue; // protected, not projected, or no feasible backup now
            }
            let backup = mgr.connection(c).and_then(|m| m.backup()).cloned();
            assert!(
                self.sim.add_backup(c, backup.expect("reestablished")),
                "conn is live"
            );
            self.settle(mgr);
            // Unregistered when the registration exhausted its retries.
            if self.sim.registered_backup(c).is_some() {
                self.telemetry.incr("control.reprotected");
            }
        }
        self.audit();
    }

    /// Audits the quiesced protocol: its own invariants, and a projection
    /// that admits every live channel. A violation is counted, not fatal.
    fn audit(&mut self) {
        if self.sim.check_invariants().is_err() || !self.sim.project().1.is_empty() {
            self.telemetry.incr("control.invariant_violations");
        }
    }

    /// The plane's telemetry, closed with the engine's own counters.
    fn finish(mut self) -> Telemetry {
        let t = &mut self.telemetry;
        t.add(
            "control.retransmissions",
            self.sim.counters().retransmitted().0,
        );
        t.add(
            "control.exhausted",
            self.sim.exhausted().map(|(_, n)| n).sum(),
        );
        self.telemetry
    }
}

/// Picks the next correlated event: always one that hits at least one
/// live primary, so every event measures recovery rather than missing.
fn pick_event(regime: Regime, mgr: &DrtpManager, rng: &mut StdRng) -> Option<FailureEvent> {
    match regime {
        Regime::SrlgBursts => {
            let loaded = loaded_links(mgr);
            let candidates: Vec<SrlgId> = mgr
                .net()
                .srlg_ids()
                .filter(|&g| {
                    let members = mgr.net().srlg(g);
                    members.iter().any(|l| loaded.binary_search(l).is_ok())
                        && members.iter().any(|&l| !mgr.is_failed(l))
                })
                .collect();
            if candidates.is_empty() {
                return pick_loaded_link(mgr, rng).map(FailureEvent::Link);
            }
            Some(FailureEvent::Srlg(
                candidates[rng.gen_range(0..candidates.len())],
            ))
        }
        Regime::NodeCrashes => {
            // Transit routers only: interior nodes of live primaries, so
            // the crash severs connections it does not terminate.
            let mut interior: BTreeSet<NodeId> = BTreeSet::new();
            for c in mgr.connections() {
                if !c.state().is_carrying_traffic() {
                    continue;
                }
                let links = c.primary().links();
                for &l in &links[..links.len().saturating_sub(1)] {
                    interior.insert(mgr.net().link(l).dst());
                }
            }
            let candidates: Vec<NodeId> = interior.into_iter().collect();
            if candidates.is_empty() {
                return pick_loaded_link(mgr, rng).map(FailureEvent::Link);
            }
            Some(FailureEvent::Node(
                candidates[rng.gen_range(0..candidates.len())],
            ))
        }
        _ => pick_loaded_link(mgr, rng).map(FailureEvent::Link),
    }
}

/// The next lie target: a healthy link advertised by a byzantine
/// router, loaded ones preferred (a lie about an idle link moves
/// nothing).
fn pick_lie_target(mgr: &DrtpManager, byzantine: &[NodeId], rng: &mut StdRng) -> Option<LinkId> {
    let owned_loaded: Vec<LinkId> = loaded_links(mgr)
        .into_iter()
        .filter(|&l| byzantine.contains(&mgr.net().link(l).src()))
        .collect();
    if let Some(l) = pick_from(&owned_loaded, rng) {
        return Some(l);
    }
    let owned_healthy: Vec<LinkId> = owned_links(mgr.net(), byzantine)
        .into_iter()
        .filter(|&l| !mgr.is_failed(l))
        .collect();
    pick_from(&owned_healthy, rng)
}

/// Injects one *real* single-link failure on a loaded link and feeds it
/// to the orchestrator. With `vet` the report is vetted first —
/// corroborated by ground truth, so it is always acted on; the vetting
/// only exercises (and counts through) the seam the lies are rejected at.
fn real_failure(
    mgr: &mut DrtpManager,
    orch: &mut RecoveryOrchestrator,
    now: SimTime,
    vet: bool,
    pick: &mut StdRng,
    inject: &mut StdRng,
) {
    let Some(link) = pick_loaded_link(mgr, pick) else {
        return;
    };
    if vet {
        // The downstream endpoint is the detector; the surviving
        // upstream endpoint corroborates. A quarantined detector defers
        // to the other endpoint — ground truth always wins in the
        // centralized model, so both arms inject the same physical
        // failures and stay comparable.
        let (dst, src) = {
            let l = mgr.net().link(link);
            (l.dst(), l.src())
        };
        if orch.vet_report(dst, true) != ReportVerdict::Accepted {
            let _ = orch.vet_report(src, true);
        }
    }
    let report = mgr
        .inject_event(&FailureEvent::Link(link), inject)
        .expect("picked link is healthy");
    orch.observe_failure(now, &report);
}

/// A radius-`radius` storm around a random epicenter with at least one
/// healthy link inside; a handful of epicenters are tried before giving
/// up (radius 0, or a dead region, yields nothing to fail).
fn storm_event(mgr: &DrtpManager, radius: usize, rng: &mut StdRng) -> Option<FailureEvent> {
    for _ in 0..8 {
        let epicenter = NodeId::new(rng.gen_range(0..mgr.net().num_nodes() as u32));
        let links: Vec<LinkId> = regional_storm(mgr.net(), epicenter, radius)
            .into_iter()
            .filter(|&l| !mgr.is_failed(l))
            .collect();
        if !links.is_empty() {
            return Some(FailureEvent::Batch(
                links.into_iter().map(FailureEvent::Link).collect(),
            ));
        }
    }
    None
}

/// Merges every row's telemetry into one campaign-wide registry, in
/// canonical row order (merge is commutative over counters and
/// histograms; gauges take the last row's value).
pub fn merged_telemetry(rows: &[Row]) -> Telemetry {
    let mut out = Telemetry::new();
    for r in rows {
        out.merge(&r.telemetry);
    }
    out
}

fn fmt_p(p: Option<f64>) -> String {
    p.map_or_else(|| "-".into(), |p| format!("{p:.4}"))
}

/// `part / whole`, or `None` when `whole` is 0.
fn ratio(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

fn fmt_ppm(ppm: Option<i64>) -> String {
    fmt_p(ppm.map(|ppm| ppm as f64 / 1e6))
}

fn push_strength_meanings(out: &mut String, knob: &str, rows: &[Row]) {
    out.push('\n');
    for regime in Regime::ALL {
        if rows.iter().any(|r| r.cell.regime == regime) {
            out.push_str(&format!(
                "  {knob} under {:<15} = {}\n",
                regime.label(),
                regime.strength_meaning()
            ));
        }
    }
}

/// A row's closing-probe ranking, as `L61 (-2 of 2), …`.
fn ranked(worst: &[LinkImpact]) -> String {
    let ranked: Vec<String> = worst
        .iter()
        .map(|li| format!("{} (-{} of {})", li.link, li.lost(), li.affected))
        .collect();
    ranked.join(", ")
}

fn render_control_loss(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Failure campaign under control-plane loss ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:>6} {:>6} {:>6} {:>4} {:>6} {:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>4}\n",
        "loss%",
        "estab",
        "degr",
        "rej",
        "fails",
        "switch",
        "lost",
        "reprot",
        "mean-rec",
        "max-rec",
        "P_act-bk",
        "probeD",
        "retx",
        "exh",
        "inv"
    ));
    let loss_pct = |r: &Row| f64::from(r.cell.strength) / 1000.0 * 100.0;
    let ms =
        |us: Option<u64>| us.map_or_else(|| "-".into(), |us| format!("{:.1}ms", us as f64 / 1e3));
    for r in rows {
        let t = &r.telemetry;
        let rec = t.hist("control.recovery_us");
        out.push_str(&format!(
            "{:>6.1} {:>6} {:>6} {:>4} {:>6} {:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>4}\n",
            loss_pct(r),
            t.counter("control.established"),
            t.counter("control.degraded"),
            t.counter("control.rejected"),
            t.counter("control.failures"),
            t.counter("control.switched"),
            t.counter("control.lost"),
            t.counter("control.reprotected"),
            ms(rec.map(|h| h.mean())),
            ms(rec.map(|h| h.max())),
            fmt_p(ratio(t.counter("sweep.activated"), t.counter("sweep.affected"))),
            t.counter("sweep.degraded"),
            t.counter("control.retransmissions"),
            t.counter("control.exhausted"),
            t.counter("control.invariant_violations"),
        ));
    }
    for r in rows.iter().filter(|r| !r.worst_links.is_empty()) {
        out.push_str(&format!(
            "  loss {:>4.1}% worst links: {}\n",
            loss_pct(r),
            ranked(&r.worst_links)
        ));
    }
    out.push_str(
        "\nreading guide: every control packet crosses a chaotic plane that\n\
         drops each hop with probability `loss%` (plus 2% duplication and\n\
         200us jitter). Retransmission with exponential backoff keeps the\n\
         signalling live: `retx` counts retries, `exh` counts transactions\n\
         that ran out of attempts, and `degr` the connections that came up\n\
         unprotected as a result. Between failures DRTP's reconfiguration\n\
         step re-establishes backups (`reprot`); `P_act-bk` is then probed\n\
         on the post-campaign state, with `probeD` of the shortfall due to\n\
         degradation rather than activation contention. `inv` counts the\n\
         quiesced states (after establishment, after every round) that\n\
         fail the protocol engine's own invariant audit, or that hold a\n\
         live connection the projection cannot admit. The table is\n\
         deterministic per seed.\n",
    );
    out
}

fn render_correlated(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Correlated multi-failure campaign ({} nodes, {} links, {} srlgs)\n",
        net.num_nodes(),
        net.num_links(),
        net.num_srlgs()
    );
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>9}\n",
        "regime",
        "estab",
        "events",
        "links",
        "switch",
        "lost",
        "unprot",
        "reprot",
        "orphan",
        "quar",
        "P_act-bk"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>9}\n",
            r.cell.regime.label(),
            t.counter("establish.accepted"),
            t.counter("inject.events"),
            t.counter("inject.links_failed"),
            t.counter("inject.switched"),
            t.counter("inject.lost"),
            t.counter("inject.unprotected"),
            t.counter("recovery.reprotected"),
            t.counter("recovery.orphaned"),
            r.quarantined,
            fmt_p(ratio(
                t.counter("sweep.activated"),
                t.counter("sweep.affected")
            )),
        ));
    }
    for r in rows.iter().filter(|r| !r.worst_links.is_empty()) {
        out.push_str(&format!(
            "  {:<12} worst links: {}\n",
            r.cell.regime.label(),
            ranked(&r.worst_links)
        ));
    }
    out.push_str(
        "\nreading guide: each event fails its whole correlated set at once\n\
         (`links` counts the members) and all affected backups contend in\n\
         one activation pass. Survivors re-protect through the recovery\n\
         orchestrator: one attempt per loss of protection (`reprot`),\n\
         flapping links quarantined (`quar`) from new backups, and\n\
         connections whose attempt fails counted as `orphan` — protection\n\
         the regime permanently destroyed. `P_act-bk` is probed on the\n\
         final state.\n\
         Rows share the workload substream, so regimes are comparable and\n\
         the table is deterministic per seed.\n",
    );
    out
}

fn render_adversarial(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Adversarial campaign ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:<15} {:<6} {:>3} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>9}\n",
        "regime",
        "scheme",
        "str",
        "def",
        "estab",
        "rej",
        "events",
        "links",
        "switch",
        "f-rep",
        "f-rr",
        "vetoed",
        "quar",
        "orphan",
        "P_act-bk"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<15} {:<6} {:>3} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>9}\n",
            r.cell.regime.label(),
            r.cell.scheme.label(),
            r.cell.strength,
            if r.cell.defended { "yes" } else { "no" },
            t.counter("establish.accepted"),
            t.counter("establish.rejected"),
            t.counter("inject.events"),
            t.counter("inject.links_failed"),
            t.counter("inject.switched"),
            t.counter("adversary.false_reports"),
            t.counter("adversary.false_reroutes"),
            t.counter("reports.rejected") + t.counter("reports.rejected_quarantined"),
            t.counter("quarantine.routers_entered") + t.counter("quarantine.links_entered"),
            t.counter("recovery.orphaned"),
            fmt_ppm(r.p_act_bk_ppm()),
        ));
    }
    push_strength_meanings(&mut out, "strength", rows);
    out.push_str(
        "\nreading guide: byzantine regimes run one undefended and one\n\
         defended arm per cell (`def`). `f-rep` counts the lies fired,\n\
         `f-rr` the spurious switchovers they caused, `vetoed` the lies\n\
         report verification rejected, and `quar` the routers + links the\n\
         countermeasures quarantined. `orphan` counts connections whose\n\
         one re-protection attempt failed, and `P_act-bk` is probed on\n\
         the post-campaign state. Every column is a projection of the\n\
         merged telemetry below; the table is deterministic per seed\n\
         and byte-identical for every --jobs.\n",
    );
    out
}

fn render_restart(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Restart-storm campaign ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:<15} {:<6} {:>4} {:>8} {:>6} {:>5} {:>6} {:>7} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9}\n",
        "regime",
        "scheme",
        "rstr",
        "mode",
        "estab",
        "surv",
        "recov",
        "spur-sw",
        "lost",
        "reg-lst",
        "reprot",
        "orphan",
        "P_act-bk",
        "P_eff"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<15} {:<6} {:>4} {:>8} {:>6} {:>5} {:>6} {:>7} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9}\n",
            r.cell.regime.label(),
            r.cell.scheme.label(),
            t.counter("restart.events"),
            if r.cell.defended { "journal" } else { "amnesia" },
            t.counter("establish.accepted"),
            r.survivors,
            t.counter("restart.recovered_entries"),
            t.counter("restart.spurious_switchovers"),
            t.counter("restart.lost_connections"),
            t.counter("restart.registrations_lost"),
            t.counter("recovery.reprotected"),
            t.counter("recovery.orphaned"),
            fmt_ppm(r.p_act_bk_ppm()),
            fmt_ppm(r.p_eff_ppm()),
        ));
    }
    push_strength_meanings(&mut out, "rstr", rows);
    out.push_str(
        "  P_act-bk probes the storm's survivors; P_eff scales it by storm\n\
         \x20 survival, pricing the connections amnesia destroyed outright\n",
    );
    out.push_str(
        "\nreading guide: every cell runs twice — `amnesia` restarts lose\n\
         all router state (spurious switchovers `spur-sw`, forgotten\n\
         backup registrations `reg-lst`, connections dropped outright by\n\
         a restarted terminal `lost`), `journal` restarts replay the\n\
         write-ahead journal (`recov` table entries recovered, nothing\n\
         else moves). The orchestrator tries once to re-protect\n\
         whatever each restart disturbed before the next wave member\n\
         goes down (`reprot`; a failed attempt is an `orphan`).\n\
         `P_act-bk` probes the survivors; `P_eff`\n\
         scales it by storm survival, pricing destroyed connections.\n\
         The table is deterministic per seed and byte-identical for\n\
         every --jobs.\n",
    );
    out
}

fn render_availability(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Dynamic availability campaign ({} nodes, {} links, lambda 0.4, MTTR {} min)\n",
        net.num_nodes(),
        net.num_links(),
        AVAILABILITY_MTTR.as_secs_f64() / 60.0
    );
    out.push_str(&format!(
        "{:<6} {:>6} {:>8} {:>9} {:>9} {:>6} {:>7} {:>7} {:>8}\n",
        "scheme",
        "fail/h",
        "reconfig",
        "static-P",
        "dynamic-P",
        "lost",
        "reprot",
        "reopt",
        "failures"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<6} {:>6} {:>8} {:>9} {:>9} {:>6} {:>7} {:>7} {:>8}\n",
            r.cell.scheme.label(),
            r.cell.strength,
            if r.cell.defended { "on" } else { "off" },
            fmt_p(r.static_p()),
            fmt_p(r.dynamic_p()),
            t.counter("inject.lost"),
            t.counter("recovery.reprotected"),
            t.counter("recovery.reoptimized"),
            t.counter("inject.events"),
        ));
    }
    out.push_str(
        "\nreading guide: each cell replays the whole scenario under its\n\
         recorded link failure/repair process (`fail/h`). `static-P` is\n\
         Figure 4's estimator on the same scenario; `dynamic-P` is what the\n\
         live process achieves (switchovers / primaries hit). With\n\
         `reconfig` on, the orchestrator re-protects after every failure\n\
         (`reprot`) and re-optimises backups that overlap their primary\n\
         after every repair (`reopt`); off, protection decays as failures\n\
         consume backups and `lost` grows. The table is deterministic per\n\
         seed and byte-identical for every --jobs.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(
        regimes: &[Regime],
        strengths: &[u32],
        events: usize,
    ) -> (ExperimentConfig, SweepConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let scfg = SweepConfig {
            regimes: regimes.to_vec(),
            schemes: vec![SchemeKind::DLsr],
            strengths: strengths.to_vec(),
            connections: 25,
            events,
            seed: 13,
        };
        (cfg, scfg)
    }

    fn row(rows: &[Row], regime: Regime, defended: bool) -> &Row {
        rows.iter()
            .find(|r| r.cell.regime == regime && r.cell.defended == defended)
            .expect("cell ran")
    }

    /// Both arms of one `availability` cell: `scheme` at `rate` failures
    /// per hour over a 90-minute scenario on `nodes` nodes.
    fn availability(nodes: usize, scheme: SchemeKind, rate: u32) -> (Row, Row) {
        let (mut cfg, mut scfg) = small(&[Regime::Availability], &[rate], 0);
        cfg.nodes = nodes;
        cfg.duration = SimDuration::from_minutes(90);
        cfg.warmup = SimDuration::from_minutes(40);
        scfg.schemes = vec![scheme];
        let rows = run(&cfg, &scfg, 1);
        let (off, on) = (
            row(&rows, Regime::Availability, false),
            row(&rows, Regime::Availability, true),
        );
        (off.clone(), on.clone())
    }

    #[test]
    fn dynamic_activation_tracks_static_estimate_when_failures_are_rare() {
        // Rare, quickly repaired failures: with reconfiguration the
        // dynamic ratio must match the static estimator.
        let (_, on) = availability(60, SchemeKind::DLsr, 6);
        assert!(on.telemetry.counter("inject.events") >= 4);
        let dynamic = on.dynamic_p().expect("failures hit primaries");
        let static_p = on.static_p().expect("the sweep saw load");
        assert!(
            (dynamic - static_p).abs() < 0.08,
            "dynamic {dynamic} vs static {static_p}"
        );
    }

    #[test]
    fn sustained_failures_degrade_below_the_static_estimate() {
        // The static estimator assumes a pristine network; a sustained
        // failure process on a loaded network consumes backups and
        // concentrates load, so the dynamic ratio falls below it — the
        // reason Figure 4 is an upper bound on operational availability.
        let (_, on) = availability(60, SchemeKind::DLsr, 60);
        let dynamic = on.dynamic_p().expect("failures hit primaries");
        let static_p = on.static_p().expect("the sweep saw load");
        assert!(
            dynamic <= static_p + 0.01,
            "dynamic {dynamic} vs static {static_p}"
        );
    }

    #[test]
    fn reconfiguration_keeps_protection_up() {
        // Sustained failures: with reconfiguration the activation ratio
        // stays at least as high as without it.
        let (off, on) = availability(60, SchemeKind::DLsr, 120);
        assert!(on.telemetry.counter("recovery.reprotected") > 0);
        assert_eq!(off.telemetry.counter("recovery.reprotected"), 0);
        let (rw, ro) = (
            on.dynamic_p().unwrap_or(1.0),
            off.dynamic_p().unwrap_or(1.0),
        );
        assert!(rw >= ro - 0.02, "with {rw} vs without {ro}");
    }

    #[test]
    fn availability_table_shows_both_arms() {
        let (cfg, mut scfg) = small(&[Regime::Availability], &[12], 0);
        scfg.schemes = vec![SchemeKind::Bf];
        let rows = run(&cfg, &scfg, 1);
        let text = Table::Availability.render(&prepare_network(&cfg, scfg.seed), &rows);
        assert!(text.contains("BF"));
        assert!(text.contains(" off ") && text.contains(" on "));
    }

    #[test]
    fn labels_are_distinct_and_round_trip() {
        let labels: BTreeSet<&str> = Regime::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels.len(),
            Regime::ALL.len(),
            "a duplicate label would shadow a regime"
        );
        for r in Regime::ALL {
            assert_eq!(Regime::parse(r.label()), Some(r));
            assert!(r.table().regimes().contains(&r));
        }
        assert_eq!(Regime::parse("nope"), None);
        // Two arms exactly where a countermeasure (the journal, or
        // reconfiguration) exists.
        let (_, scfg) = small(&Regime::ALL, &[2], 3);
        assert_eq!(scfg.cells().len(), 1 + 3 + (2 + 2 + 1 + 1) + 2 + 2);
    }

    #[test]
    fn lossless_row_never_degrades_or_retransmits() {
        let (cfg, scfg) = small(&[Regime::ControlLoss], &[0, 100], 3);
        let rows = run(&cfg, &scfg, 1);
        assert_eq!(rows.len(), 2);
        let quiet = &rows[0].telemetry;
        assert_eq!(rows[0].cell.strength, 0);
        assert_eq!(quiet.counter("control.degraded"), 0);
        assert_eq!(quiet.counter("control.retransmissions"), 0);
        assert_eq!(quiet.counter("control.exhausted"), 0);
        assert!(quiet.counter("control.established") > 0);
        assert_eq!(quiet.counter("control.failures"), 3);
        // Recovery latency is detection + report + switch walk: > 10 ms.
        if let Some(h) = quiet.hist("control.recovery_us") {
            assert!(h.mean() > 10_000);
        }
        assert!(
            rows[1].telemetry.counter("control.retransmissions") > 0,
            "a lossy plane retransmits"
        );
    }

    /// A failure report that no source acks exhausts its retries and
    /// leaves the source established on a dead primary. The engine's
    /// audit forgives an exhausted transaction; the projection does not.
    #[test]
    fn a_dead_primary_the_projection_refuses_counts_as_a_violation() {
        use drt_core::routing::{RoutePair, RouteRequest, RoutingOverhead};
        use drt_net::{topology, Route};
        use drt_proto::{DeliveryFate, FateSource, Packet};

        #[derive(Debug)]
        struct SwallowsReports;
        impl FateSource for SwallowsReports {
            fn decide(&mut self, pkt: &Packet, _hops: u64) -> DeliveryFate {
                if matches!(pkt, Packet::FailureReport { .. }) {
                    DeliveryFate::dropped()
                } else {
                    DeliveryFate::clean()
                }
            }
        }

        let net = Arc::new(topology::ring(4, Bandwidth::from_mbps(10)).unwrap());
        let sim = ProtocolSim::with_fates(
            Arc::clone(&net),
            ProtocolConfig::default(),
            RetryConfig::default(),
            ChaosConfig::default(),
            Box::new(SwallowsReports),
        );
        let mut plane = ControlPlane {
            sim,
            telemetry: Telemetry::new(),
        };
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let route = |nodes: &[u32]| {
            let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
            Route::from_nodes(&net, &ids).unwrap()
        };
        let bw = Bandwidth::from_kbps(3_000);
        // The victim 0→1→2's primary dies at 1→2, reported by node 1; the
        // bystander 2→3→0 crosses nothing that fails.
        let channels = [([0, 1, 2], [0, 3, 2]), ([2, 3, 0], [2, 1, 0])];
        for (id, (primary, backup)) in channels.iter().enumerate() {
            let (primary, backup) = (route(primary), route(backup));
            let id = ConnectionId::new(id as u64);
            let req = RouteRequest::new(id, primary.source(), primary.dest(), bw);
            let pair = RoutePair {
                primary,
                backup: Some(backup),
                dedicated_backup: false,
                overhead: RoutingOverhead::ZERO,
            };
            let admitted = mgr.admit_routes(&req, pair).unwrap();
            plane.establish(&mut mgr, admitted, bw);
        }
        plane.audit();
        assert_eq!(plane.telemetry.counter("control.invariant_violations"), 0);

        let (victim, bystander) = (ConnectionId::new(0), ConnectionId::new(1));
        let mut scheme = SchemeKind::DLsr.instantiate();
        plane.fail(&mut mgr, &mut *scheme, route(&[1, 2]).links()[0]);
        assert_eq!(plane.sim.outcome(victim), Some(ConnOutcome::Established));
        assert!(plane
            .sim
            .exhausted()
            .any(|(kind, _)| kind == "failure-report"));
        assert!(plane.sim.check_invariants().is_ok());
        assert_eq!(plane.sim.project().1, vec![victim]);
        assert!(mgr.connection(victim).is_none());
        assert!(mgr.connection(bystander).is_some());
        assert_eq!(plane.telemetry.counter("control.invariant_violations"), 1);
        let guide = Table::ControlLoss.render(&net, &[]).replace('\n', " ");
        assert!(guide.contains("a live connection the projection cannot admit"));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, scfg) = small(&Regime::ALL, &[2], 3);
        let a = run(&cfg, &scfg, 1);
        assert_eq!(a, run(&cfg, &scfg, 1));
        let other = SweepConfig { seed: 14, ..scfg };
        assert_ne!(
            a,
            run(&cfg, &other, 1),
            "different seed must move some field"
        );
    }

    #[test]
    fn correlation_increases_per_event_damage() {
        let (cfg, scfg) = small(&Table::Correlated.regimes(), &[0], 3);
        let rows = run(&cfg, &scfg, 1);
        assert_eq!(rows.len(), 3);
        let t = |r: Regime| &row(&rows, r, false).telemetry;
        let (indep, srlg, crash) = (
            t(Regime::IndepLinks),
            t(Regime::SrlgBursts),
            t(Regime::NodeCrashes),
        );
        // Same workload in every regime.
        let established = indep.counter("establish.accepted");
        assert_eq!(srlg.counter("establish.accepted"), established);
        assert_eq!(crash.counter("establish.accepted"), established);
        for t in [indep, srlg, crash] {
            assert!(t.counter("inject.events") > 0);
        }
        // One link per independent event; strictly more per burst/crash.
        assert_eq!(
            indep.counter("inject.links_failed"),
            indep.counter("inject.events")
        );
        assert!(
            srlg.counter("inject.links_failed") > srlg.counter("inject.events"),
            "bursts fail whole groups"
        );
        assert!(
            crash.counter("inject.links_failed") > crash.counter("inject.events"),
            "crashes fail all incident links"
        );
    }

    #[test]
    fn orchestrator_accounting_is_closed() {
        let (cfg, scfg) = small(&Table::Correlated.regimes(), &[0], 3);
        for row in run(&cfg, &scfg, 1) {
            let t = &row.telemetry;
            let label = row.cell.regime.label();
            let lost_protection = t.counter("inject.switched") + t.counter("inject.unprotected");
            let outcomes = t.counter("recovery.reprotected") + t.counter("recovery.orphaned");
            // Every connection that lost protection either re-protected
            // or orphaned once the queue drained (quiescence).
            assert!(
                outcomes <= lost_protection,
                "{label}: more recoveries than losses"
            );
            if lost_protection > 0 {
                assert!(
                    outcomes > 0,
                    "{label}: lost protection but no orchestrator outcome"
                );
            }
        }
    }

    #[test]
    fn derived_srlgs_cover_every_link_once() {
        let cfg = ExperimentConfig::quick(3.0);
        let net = prepare_network(&cfg, 7);
        let mut seen = BTreeSet::new();
        for g in net.srlg_ids() {
            let members = net.srlg(g);
            assert!(!members.is_empty() && members.len() <= SRLG_SIZE);
            for &l in members {
                assert!(seen.insert(l), "{l} grouped twice");
            }
        }
        assert_eq!(seen.len(), net.num_links());
        // Deterministic per seed.
        let base = cfg.build_network().unwrap();
        assert_eq!(derive_srlgs(&base, 7), derive_srlgs(&base, 7));
        assert_ne!(derive_srlgs(&base, 7), derive_srlgs(&base, 8));
    }

    #[test]
    fn vetting_rejects_every_lie_and_saves_protection() {
        let (cfg, scfg) = small(&[Regime::FalseReports], &[3], 4);
        let rows = run(&cfg, &scfg, 1);
        assert_eq!(rows.len(), 2);
        let (undefended, defended) = (
            row(&rows, Regime::FalseReports, false),
            row(&rows, Regime::FalseReports, true),
        );
        let (u, d) = (&undefended.telemetry, &defended.telemetry);
        assert!(u.counter("adversary.false_reports") > 0);
        assert!(
            u.counter("adversary.false_reroutes") > 0,
            "unvetted lies must force spurious switchovers"
        );
        assert_eq!(
            d.counter("adversary.false_reroutes"),
            0,
            "vetting rejects every lie"
        );
        assert!(
            d.counter("reports.rejected") + d.counter("reports.rejected_quarantined")
                >= d.counter("adversary.false_reports"),
            "every lie is vetoed (plus any real report from a reporter \
             already in quarantine)"
        );
        assert!(
            d.counter("quarantine.routers_entered") > 0,
            "repeat liars end up quarantined"
        );
        // With quarantine on, D-LSR keeps measurably more of its
        // protection probability.
        let (u, d) = (
            undefended.p_act_bk_ppm().expect("probe ran"),
            defended.p_act_bk_ppm().expect("probe ran"),
        );
        assert!(
            d > u,
            "defended P_act-bk ({d} ppm) must beat undefended ({u} ppm)"
        );
    }

    #[test]
    fn byzantine_lsa_defence_quarantines_liar_links() {
        let (cfg, scfg) = small(&[Regime::ByzantineLsa], &[2], 4);
        let rows = run(&cfg, &scfg, 1);
        let defended = &row(&rows, Regime::ByzantineLsa, true).telemetry;
        let undefended = &row(&rows, Regime::ByzantineLsa, false).telemetry;
        assert!(
            defended.counter("quarantine.links_entered") > 0,
            "churn damping must quarantine the liars' links"
        );
        assert_eq!(undefended.counter("quarantine.links_entered"), 0);
        // Both arms see the same poisoned establishment phase.
        for key in ["establish.accepted", "establish.rejected"] {
            assert_eq!(defended.counter(key), undefended.counter(key));
        }
    }

    #[test]
    fn storm_rounds_repair_behind_themselves() {
        let (cfg, scfg) = small(&[Regime::RegionalStorm], &[2], 4);
        let rows = run(&cfg, &scfg, 1);
        let t = &rows[0].telemetry;
        assert!(t.counter("inject.links_failed") > 0, "storms must land");
        // The closing probe ran on a fully repaired network: every
        // probe trial found a live link to fail.
        assert!(t.counter("sweep.trials") > 0);
    }

    #[test]
    fn journaled_rejoin_is_lossless_where_amnesia_bleeds() {
        let (mut cfg, mut scfg) = small(&[Regime::RestartStorm], &[6], 0);
        // Tight capacity (4 connection slots per link instead of 33):
        // re-protection after the storm competes for scarce slots, so
        // protection the amnesia arm drops is not always recoverable.
        cfg.capacity = drt_net::Bandwidth::from_mbps(12);
        scfg.connections = 30;
        let rows = run(&cfg, &scfg, 1);
        let (amnesia, journaled) = (
            row(&rows, Regime::RestartStorm, false),
            row(&rows, Regime::RestartStorm, true),
        );
        let (a, j) = (&amnesia.telemetry, &journaled.telemetry);

        // Durable state makes rejoin invisible — every surviving
        // DR-connection keeps its tables, zero switchovers fire, nothing
        // is lost — while amnesia turns each restart into real protection
        // damage.
        assert_eq!(j.counter("restart.events"), 6);
        assert_eq!(j.counter("restart.spurious_switchovers"), 0);
        assert_eq!(j.counter("restart.lost_connections"), 0);
        assert_eq!(j.counter("restart.registrations_lost"), 0);
        assert_eq!(journaled.survivors, j.counter("establish.accepted"));
        assert!(
            j.counter("restart.recovered_entries") > 0,
            "journal replay recovered state"
        );
        assert_eq!(j.counter("restart.journaled_rejoins"), 6);

        assert!(
            a.counter("restart.spurious_switchovers") > 0,
            "amnesia restarts must switch"
        );
        assert!(
            a.counter("restart.lost_connections") > 0,
            "forgetful terminals drop their connections"
        );
        assert_eq!(a.counter("restart.recovered_entries"), 0);
        // Both arms saw the identical establishment phase and schedule.
        for key in ["establish.accepted", "restart.events"] {
            assert_eq!(a.counter(key), j.counter(key));
        }

        // The storm's residue prices out: over the original population
        // the amnesia arm ends with measurably less of its protection
        // probability.
        let (a, j) = (
            amnesia.p_eff_ppm().expect("probe ran"),
            journaled.p_eff_ppm().expect("probe ran"),
        );
        assert!(
            a < j,
            "amnesia effective P_act-bk ({a} ppm) must trail journaled ({j} ppm)"
        );
    }

    #[test]
    fn tables_render_every_regime() {
        let (cfg, scfg) = small(&Regime::ALL, &[2], 3);
        let net = prepare_network(&cfg, scfg.seed);
        let rows = run(&cfg, &scfg, 1);
        for table in Table::ALL {
            let mine: Vec<Row> = rows
                .iter()
                .filter(|r| r.cell.regime.table() == table)
                .cloned()
                .collect();
            let rendered = table.render(&net, &mine);
            if table == Table::Availability {
                // Dynamic beside static, titled by its one regime.
                assert!(rendered.contains("static-P") && rendered.contains("dynamic-P"));
            } else {
                assert!(rendered.contains("P_act-bk"));
            }
            if table == Table::ControlLoss {
                // The loss table names its one regime's rows by loss
                // rate, as it was published.
                assert!(rendered.contains("   0.2 "));
                continue;
            }
            for r in table.regimes() {
                assert!(
                    rendered.contains(r.label()),
                    "{table:?} lacks {}",
                    r.label()
                );
            }
        }
        let merged = merged_telemetry(&rows);
        assert!(merged.counter("establish.accepted") > 0);
        assert!(merged.counter("restart.events") > 0);
    }
}
