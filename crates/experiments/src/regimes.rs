//! The orchestrated failure sweeps: correlated failures, byzantine
//! routers and hostile workloads, and router restart storms — eight
//! regimes of one driver.
//!
//! The paper (and [`crate::campaign`]) measures `P_act-bk` after one
//! independent failure on a freshly admitted population. Every regime
//! here runs the same cell instead: establish a seeded workload, then
//! play rounds — inject, feed the [`RecoveryOrchestrator`], run it to
//! quiescence, check the manager's invariants, let 30 s pass — and close
//! with a recorded `P_act-bk` probe. The regimes differ only in what a
//! round injects, and fall into three tables ([`Table`]):
//!
//! * **correlated failures** — `indep-links` fails one loaded link per
//!   event (the paper's model, as the baseline row), `srlg-bursts` one
//!   shared-risk group whole (conduits partitioned from the links by a
//!   seeded shuffle), `node-crashes` one transit router with every
//!   incident link. Backups of all simultaneously hit primaries contend
//!   in **one** activation pass ([`DrtpManager::inject_event`]);
//!   connections whose re-protection exhausts its retries are orphaned —
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
//!   Defended, it replays its write-ahead journal and resyncs
//!   ([`RestartMode::Journaled`]), so no switchover fires at all.
//!
//! Regimes with a countermeasure run an undefended and a defended arm per
//! cell ([`Regime::arms`]), comparable by construction: workload
//! substreams depend only on the seed (and the strength), byzantine sets
//! are nested prefixes of one seeded shuffle, and a vetting rejection
//! never suppresses a ground-truth injection, so any delta between arms
//! is the countermeasure's doing.
//!
//! Every number a table prints is read back from the cell's merged
//! manager + orchestrator [`Telemetry`], plus the three facts only the
//! final state holds ([`Row`]). Cells derive every RNG substream from the
//! master seed and their own [`Cell::tag`], so the rows are byte-identical
//! for every `jobs` count.

use crate::config::ExperimentConfig;
use crate::report::{fmt_us, loaded_links, pick_from, pick_loaded_link};
use crate::runner::SchemeKind;
use drt_core::failure::{FailureEvent, LinkImpact, RestartMode};
use drt_core::orchestrator::{RecoveryOrchestrator, ReportVerdict, RetryPolicy};
use drt_core::{ConnectionId, DrtpManager, Telemetry, ViewDistortion};
use drt_net::{LinkId, Network, NodeId, SrlgId};
use drt_sim::rng::{indexed_stream, stream, substream_seed};
use drt_sim::workload::{maintenance_waves, regional_storm, TimelineEvent, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Links per derived shared-risk group (conduit width).
const SRLG_SIZE: usize = 3;

/// Maintenance waves the restart schedule is partitioned into.
const RESTART_WAVES: usize = 4;

/// The table a regime's rows render into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Correlated multi-failure: one D-LSR row per regime.
    Correlated,
    /// Byzantine routers and hostile workloads, per scheme and strength.
    Adversarial,
    /// Rolling router restarts, amnesia vs. journaled.
    Restart,
}

impl Table {
    /// Every table, in campaign order.
    pub const ALL: [Table; 3] = [Table::Correlated, Table::Adversarial, Table::Restart];

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
            Table::Correlated => render_correlated(net, rows),
            Table::Adversarial => render_adversarial(net, rows),
            Table::Restart => render_restart(net, rows),
        }
    }
}

/// One regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
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
}

impl Regime {
    /// Every regime, in campaign order.
    pub const ALL: [Regime; 8] = [
        Regime::IndepLinks,
        Regime::SrlgBursts,
        Regime::NodeCrashes,
        Regime::ByzantineLsa,
        Regime::FalseReports,
        Regime::FlashCrowd,
        Regime::RegionalStorm,
        Regime::RestartStorm,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            Regime::IndepLinks => "indep-links",
            Regime::SrlgBursts => "srlg-bursts",
            Regime::NodeCrashes => "node-crashes",
            Regime::ByzantineLsa => "byzantine-lsa",
            Regime::FalseReports => "false-reports",
            Regime::FlashCrowd => "flash-crowd",
            Regime::RegionalStorm => "regional-storm",
            Regime::RestartStorm => "restart-storm",
        }
    }

    /// Parses a [`Regime::label`] back into a regime.
    pub fn parse(s: &str) -> Option<Regime> {
        Regime::ALL.into_iter().find(|r| r.label() == s)
    }

    /// The table this regime's rows render into.
    pub fn table(self) -> Table {
        match self {
            Regime::IndepLinks | Regime::SrlgBursts | Regime::NodeCrashes => Table::Correlated,
            Regime::ByzantineLsa
            | Regime::FalseReports
            | Regime::FlashCrowd
            | Regime::RegionalStorm => Table::Adversarial,
            Regime::RestartStorm => Table::Restart,
        }
    }

    /// What the integer strength knob means under this regime (for the
    /// table footers).
    pub fn strength_meaning(self) -> &'static str {
        match self {
            Regime::IndepLinks | Regime::SrlgBursts | Regime::NodeCrashes => {
                "nothing (the cell tag omits it)"
            }
            Regime::ByzantineLsa => "byzantine routers",
            Regime::FalseReports => "byzantine reporters (= lies/round)",
            Regime::FlashCrowd => "crowd intensity (fraction = 0.4 + 0.15*s)",
            Regime::RegionalStorm => "storm radius (hops)",
            Regime::RestartStorm => "routers restarted (rolling, one at a time)",
        }
    }

    /// The arms each cell runs: `false` is undefended (no vetting, no
    /// damping, amnesia), `true` defended (the countermeasure armed, or
    /// journaled rejoin). Undefended prints first.
    pub fn arms(self) -> &'static [bool] {
        match self {
            Regime::ByzantineLsa | Regime::FalseReports | Regime::RestartStorm => &[false, true],
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
            Table::Correlated => label.to_string(),
            Table::Adversarial => {
                let arm = if self.defended { "def" } else { "und" };
                format!("{label}-{scheme}-s{s}-{arm}")
            }
            Table::Restart => {
                let arm = if self.defended { "jnl" } else { "amn" };
                format!("{label}-{scheme}-i{s}-{arm}")
            }
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
    /// Connections to establish before the first round.
    pub connections: usize,
    /// Rounds per cell; `restart-storm` plays one round per restarted
    /// router instead.
    pub events: usize,
    /// Retry/backoff/quarantine policy of the orchestrator.
    pub policy: RetryPolicy,
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
    /// The closing probe's three most fragile failure units, worst first.
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

    fn recovery_us(&self, pct: u32) -> u64 {
        self.telemetry
            .hist("recovery.latency_us")
            .map_or(0, |h| h.percentile(pct))
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
    crate::par::parallel_map(
        jobs,
        scfg.cells(),
        || (),
        |(), cell| run_cell(cfg, scfg, Arc::clone(net), cell),
    )
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
    let (seed, tag) = (scfg.seed, cell.tag());
    let mut scheme = cell.scheme.instantiate();
    let mut mgr = DrtpManager::with_config(Arc::clone(&net), cell.scheme.manager_config());
    let byzantine = pick_byzantine(&net, cell.strength, seed);

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

    let scenario = cfg.scenario_config(0.4, pattern).generate(cfg.nodes);
    let mut established = 0usize;
    for (_, ev) in scenario.timeline() {
        if established >= scfg.connections {
            break;
        }
        let TimelineEvent::Arrive(rid) = ev else {
            continue;
        };
        let r = scenario.request(rid).expect("valid id");
        let req = drt_core::routing::RouteRequest::new(
            ConnectionId::new(rid.index() as u64),
            r.src,
            r.dst,
            scenario.bw_req(),
        )
        .with_backups(cfg.backups_per_connection);
        if mgr.request_connection(&mut *scheme, req).is_ok() {
            established += 1;
        }
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
    let (rounds, inject_label) = if cell.regime == Regime::RestartStorm {
        (restarts.len(), format!("restart-{tag}"))
    } else {
        (scfg.events, format!("inject-{tag}"))
    };

    let mut orch = RecoveryOrchestrator::new(net.num_links(), scfg.policy);
    let mut pick_rng = stream(seed, &format!("pick-{tag}"));
    let mut now = SimTime::ZERO;
    for round in 0..rounds {
        let mut inject_rng = indexed_stream(seed, &inject_label, round as u64);
        match cell.regime {
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
                        for _ in 0..scfg.policy.flap_threshold {
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
                    if cell.defended {
                        // Vetting finds no corroborating evidence (the
                        // link is healthy): the lie is rejected and the
                        // liar's suspicion rises toward quarantine. The
                        // lie is recorded here because it never reaches
                        // the manager's own counter.
                        orch.telemetry_mut().incr("adversary.false_reports");
                        let _ = orch.vet_report(reporter, link, false);
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
    let sweep = mgr.sweep_single_failures_recorded(substream_seed(seed, &format!("probe-{tag}")));
    let mut telemetry = mgr.telemetry().clone();
    telemetry.merge(orch.telemetry());
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
        if orch.vet_report(dst, link, true) != ReportVerdict::Accepted {
            let _ = orch.vet_report(src, link, true);
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

fn render_correlated(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Correlated multi-failure campaign ({} nodes, {} links, {} srlgs)\n",
        net.num_nodes(),
        net.num_links(),
        net.num_srlgs()
    );
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>9}\n",
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
        "mean-rec",
        "max-rec",
        "P_act-bk"
    ));
    for r in rows {
        let t = &r.telemetry;
        let rec = t.hist("recovery.latency_us");
        let secs = |us: Option<u64>| {
            us.map_or_else(|| "-".into(), |us| format!("{:.2}s", us as f64 / 1e6))
        };
        let affected = t.counter("sweep.affected");
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>9}\n",
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
            secs(rec.map(|h| h.mean())),
            secs(rec.map(|h| h.max())),
            fmt_p((affected > 0).then(|| t.counter("sweep.activated") as f64 / affected as f64)),
        ));
    }
    for r in rows.iter().filter(|r| !r.worst_links.is_empty()) {
        let ranked: Vec<String> = r
            .worst_links
            .iter()
            .map(|li| format!("{} (-{} of {})", li.link, li.lost(), li.affected))
            .collect();
        out.push_str(&format!(
            "  {:<12} worst links: {}\n",
            r.cell.regime.label(),
            ranked.join(", ")
        ));
    }
    out
}

fn render_adversarial(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Adversarial campaign ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:<15} {:<6} {:>3} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}\n",
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
        "rec-p50",
        "rec-p95",
        "P_act-bk"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<15} {:<6} {:>3} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}\n",
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
            fmt_us(r.recovery_us(50)),
            fmt_us(r.recovery_us(95)),
            fmt_ppm(r.p_act_bk_ppm()),
        ));
    }
    push_strength_meanings(&mut out, "strength", rows);
    out
}

fn render_restart(net: &Network, rows: &[Row]) -> String {
    let mut out = format!(
        "Restart-storm campaign ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:<15} {:<6} {:>4} {:>8} {:>6} {:>5} {:>6} {:>7} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
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
        "rec-p50",
        "rec-p95",
        "P_act-bk",
        "P_eff"
    ));
    for r in rows {
        let t = &r.telemetry;
        out.push_str(&format!(
            "{:<15} {:<6} {:>4} {:>8} {:>6} {:>5} {:>6} {:>7} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
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
            fmt_us(r.recovery_us(50)),
            fmt_us(r.recovery_us(95)),
            fmt_ppm(r.p_act_bk_ppm()),
            fmt_ppm(r.p_eff_ppm()),
        ));
    }
    push_strength_meanings(&mut out, "rstr", rows);
    out.push_str(
        "  P_act-bk probes the storm's survivors; P_eff scales it by storm\n\
         \x20 survival, pricing the connections amnesia destroyed outright\n",
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
            policy: RetryPolicy::default(),
            seed: 13,
        };
        (cfg, scfg)
    }

    fn row(rows: &[Row], regime: Regime, defended: bool) -> &Row {
        rows.iter()
            .find(|r| r.cell.regime == regime && r.cell.defended == defended)
            .expect("cell ran")
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
        // Two arms exactly where a countermeasure (or the journal) exists.
        let (_, scfg) = small(&Regime::ALL, &[2], 3);
        assert_eq!(scfg.cells().len(), 3 + (2 + 2 + 1 + 1) + 2);
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
            // One latency sample per re-protection: the table's mean-rec
            // and max-rec are this histogram's.
            let rec = t.hist("recovery.latency_us");
            assert_eq!(
                rec.map_or(0, |h| h.count()),
                t.counter("recovery.reprotected")
            );
            if let Some(h) = rec {
                assert!(h.mean() <= h.max());
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
        // probe trial found a live failure unit to fail.
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
            "replay+resync recovered state"
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
            assert!(rendered.contains("P_act-bk"));
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
