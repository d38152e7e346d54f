//! Adversarial campaign: graceful degradation under byzantine routers
//! and hostile workloads, with and without countermeasures.
//!
//! The paper evaluates the schemes under *fail-stop* faults: a link or
//! router dies, every survivor tells the truth, and the workload is
//! indifferent. This sweep drops those assumptions one at a time. Four
//! regimes, each swept over an integer adversary *strength*:
//!
//! 1. **`byzantine-lsa`** — `strength` routers poison the link-state
//!    view ([`ViewDistortion`]): dead links advertised up, conflict
//!    load deflated, headroom inflated. Admission still validates
//!    against ground truth, so every lie surfaces as a setup failure.
//!    *Countermeasure:* advertisement-churn flap damping
//!    ([`RecoveryOrchestrator::observe_churn`]) quarantines the liars'
//!    links away from new backup routes.
//! 2. **`false-reports`** — `strength` byzantine routers fabricate
//!    `strength` failure reports per round for perfectly healthy links,
//!    forcing spurious switchovers that burn backup capacity
//!    ([`DrtpManager::inject_false_report`]). *Countermeasure:* report
//!    vetting ([`RecoveryOrchestrator::vet_report`]) — uncorroborated
//!    reports are rejected and repeat liars quarantined.
//! 3. **`flash-crowd`** — no byzantine routers; the workload itself is
//!    hostile: a fraction of all demand converges on one target node
//!    ([`TrafficPattern::flash_crowd`]), then ordinary failures land on
//!    the overloaded region. `strength` scales the crowd fraction.
//! 4. **`regional-storm`** — geographically-correlated outages: rounds
//!    alternate between a hop-radius-`strength` storm around a random
//!    epicenter ([`drt_sim::workload::regional_storm`]) and a rolling
//!    maintenance wave of routers taken down together
//!    ([`drt_sim::workload::maintenance_waves`]). The storm passes
//!    (links repair) but destroyed protection stays destroyed.
//!
//! Regimes with a countermeasure run twice — undefended and defended —
//! so the table directly prices the defence. Every row is measured
//! through the first-class [`Telemetry`] layer: the counters, the
//! recovery-latency histogram percentiles, and the `P_act-bk` gauge in
//! the table are read back from the merged manager + orchestrator
//! registries, not from ad-hoc row arithmetic. Cells derive their RNG
//! substreams from the master seed and their own identity, so the sweep
//! is byte-identical for every `--jobs` count.

use crate::config::ExperimentConfig;
use crate::report::{fmt_us, loaded_links, pick_from, pick_loaded_link};
use crate::runner::SchemeKind;
use drt_core::failure::FailureEvent;
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::{ConnectionId, DrtpManager, Telemetry, ViewDistortion};
use drt_net::{LinkId, Network, NodeId};
use drt_sim::workload::{maintenance_waves, regional_storm, TimelineEvent, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One adversarial regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialRegime {
    /// Byzantine routers poison the link-state view route selection
    /// reads ([`ViewDistortion`]).
    ByzantineLsa,
    /// Byzantine routers fabricate failure reports for healthy links.
    FalseReports,
    /// A hostile flash-crowd workload converges on one target node.
    FlashCrowd,
    /// Regional storms and rolling maintenance waves: correlated
    /// geographic outages that pass, leaving their protection damage.
    RegionalStorm,
}

impl AdversarialRegime {
    /// Every regime, in sweep order.
    pub const ALL: [AdversarialRegime; 4] = [
        AdversarialRegime::ByzantineLsa,
        AdversarialRegime::FalseReports,
        AdversarialRegime::FlashCrowd,
        AdversarialRegime::RegionalStorm,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            AdversarialRegime::ByzantineLsa => "byzantine-lsa",
            AdversarialRegime::FalseReports => "false-reports",
            AdversarialRegime::FlashCrowd => "flash-crowd",
            AdversarialRegime::RegionalStorm => "regional-storm",
        }
    }

    /// Parses a [`AdversarialRegime::label`] back into a regime.
    pub fn parse(s: &str) -> Option<AdversarialRegime> {
        AdversarialRegime::ALL.into_iter().find(|r| r.label() == s)
    }

    /// `true` for regimes with a deployable countermeasure — these run
    /// one undefended and one defended arm per cell.
    pub fn has_countermeasure(self) -> bool {
        matches!(
            self,
            AdversarialRegime::ByzantineLsa | AdversarialRegime::FalseReports
        )
    }

    /// What the integer strength knob means under this regime (for the
    /// table's reading guide).
    pub fn strength_meaning(self) -> &'static str {
        match self {
            AdversarialRegime::ByzantineLsa => "byzantine routers",
            AdversarialRegime::FalseReports => "byzantine reporters (= lies/round)",
            AdversarialRegime::FlashCrowd => "crowd intensity (fraction = 0.4 + 0.15*s)",
            AdversarialRegime::RegionalStorm => "storm radius (hops)",
        }
    }
}

impl std::fmt::Display for AdversarialRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the sweep: regime × scheme × strength × defence arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialCell {
    /// The adversarial regime.
    pub regime: AdversarialRegime,
    /// The routing scheme under attack.
    pub scheme: SchemeKind,
    /// Adversary strength (see [`AdversarialRegime::strength_meaning`]).
    pub strength: u32,
    /// `true` when the countermeasure is armed.
    pub defended: bool,
}

impl AdversarialCell {
    /// The cell's identity tag, used for RNG substream derivation — two
    /// cells share a substream only if they are the same cell.
    pub fn tag(&self) -> String {
        format!(
            "{}-{}-s{}-{}",
            self.regime.label(),
            self.scheme.label(),
            self.strength,
            if self.defended { "def" } else { "und" }
        )
    }
}

/// Knobs of the adversarial sweep.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Regimes to run, in order.
    pub regimes: Vec<AdversarialRegime>,
    /// Routing schemes to attack.
    pub schemes: Vec<SchemeKind>,
    /// Adversary strengths to sweep.
    pub strengths: Vec<u32>,
    /// Connections to establish before the hostilities start.
    pub connections: usize,
    /// Attack rounds per cell.
    pub events: usize,
    /// Retry/backoff/quarantine policy of the orchestrator.
    pub policy: RetryPolicy,
    /// Master seed for workload, adversary choice, events, and probes.
    pub seed: u64,
}

impl Default for AdversarialConfig {
    /// All four regimes, the paper's three schemes, strengths 1/2/4,
    /// 100 connections, 6 rounds.
    fn default() -> Self {
        AdversarialConfig {
            regimes: AdversarialRegime::ALL.to_vec(),
            schemes: SchemeKind::paper_schemes().to_vec(),
            strengths: vec![1, 2, 4],
            connections: 100,
            events: 6,
            policy: RetryPolicy::default(),
            seed: 7,
        }
    }
}

impl AdversarialConfig {
    /// The sweep's cells in canonical (rendered) order: regime, scheme,
    /// strength, then undefended before defended.
    pub fn cells(&self) -> Vec<AdversarialCell> {
        let mut out = Vec::new();
        for &regime in &self.regimes {
            for &scheme in &self.schemes {
                for &strength in &self.strengths {
                    let arms: &[bool] = if regime.has_countermeasure() {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &defended in arms {
                        out.push(AdversarialCell {
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

/// One row of the sweep: a whole hostile campaign under one cell. Every
/// field below is read back from [`AdversarialRow::telemetry`] — the
/// row is a projection of the telemetry registry, not a parallel
/// account.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialRow {
    /// The cell this row ran.
    pub cell: AdversarialCell,
    /// Connections established (`establish.accepted`).
    pub established: u64,
    /// Requests the scheme failed to place (`establish.rejected`) —
    /// under `byzantine-lsa` these are mostly lie-induced setup
    /// failures.
    pub rejected: u64,
    /// Real failure events injected (`inject.events`).
    pub events: u64,
    /// Links the events actually disabled (`inject.links_failed`).
    pub links_failed: u64,
    /// Primaries whose backup activated (`inject.switched`).
    pub switched: u64,
    /// Fabricated failure reports the adversary fired, whether or not
    /// they landed (`adversary.false_reports`, counted by the manager
    /// when a lie is acted on and by the vetting seam when it is not).
    pub false_reports: u64,
    /// Spurious switchovers the lies caused (`adversary.false_reroutes`
    /// — zero in a defended arm that vets every report).
    pub false_reroutes: u64,
    /// Reports the vetting countermeasure rejected (`reports.rejected`
    /// plus `reports.rejected_quarantined`).
    pub reports_rejected: u64,
    /// Routers quarantined for byzantine reporting
    /// (`quarantine.routers_entered`).
    pub routers_quarantined: u64,
    /// Links quarantined by (advertisement or physical) flap damping
    /// (`quarantine.links_entered`).
    pub links_quarantined: u64,
    /// Connections the orchestrator re-protected
    /// (`recovery.reprotected`).
    pub reprotected: u64,
    /// Connections that exhausted their retries (`recovery.orphaned`).
    pub orphaned: u64,
    /// Median re-protection latency in µs (`recovery.latency_us` p50).
    pub recovery_p50_us: u64,
    /// Tail re-protection latency in µs (`recovery.latency_us` p95).
    pub recovery_p95_us: u64,
    /// `P_act-bk` of the closing probe sweep, in parts per million
    /// (`sweep.p_act_bk_ppm`); `None` when no probe affected anything.
    pub p_act_bk_ppm: Option<i64>,
    /// The cell's merged manager + orchestrator telemetry.
    pub telemetry: Telemetry,
}

impl AdversarialRow {
    /// `P_act-bk` as a fraction, if the closing sweep measured one.
    pub fn p_act_bk(&self) -> Option<f64> {
        self.p_act_bk_ppm.map(|ppm| ppm as f64 / 1e6)
    }

    /// Projects the row fields out of a merged telemetry registry.
    fn from_telemetry(cell: AdversarialCell, telemetry: Telemetry) -> AdversarialRow {
        let t = &telemetry;
        let hist = |p| {
            t.hist("recovery.latency_us")
                .map(|h| h.percentile(p))
                .unwrap_or(0)
        };
        AdversarialRow {
            cell,
            established: t.counter("establish.accepted"),
            rejected: t.counter("establish.rejected"),
            events: t.counter("inject.events"),
            links_failed: t.counter("inject.links_failed"),
            switched: t.counter("inject.switched"),
            false_reports: t.counter("adversary.false_reports"),
            false_reroutes: t.counter("adversary.false_reroutes"),
            reports_rejected: t.counter("reports.rejected")
                + t.counter("reports.rejected_quarantined"),
            routers_quarantined: t.counter("quarantine.routers_entered"),
            links_quarantined: t.counter("quarantine.links_entered"),
            reprotected: t.counter("recovery.reprotected"),
            orphaned: t.counter("recovery.orphaned"),
            recovery_p50_us: hist(50),
            recovery_p95_us: hist(95),
            p_act_bk_ppm: (t.counter("sweep.affected") > 0).then(|| t.gauge("sweep.p_act_bk_ppm")),
            telemetry,
        }
    }
}

/// Runs the sweep serially. See [`run_adversarial_jobs`].
pub fn run_adversarial(cfg: &ExperimentConfig, acfg: &AdversarialConfig) -> Vec<AdversarialRow> {
    run_adversarial_jobs(cfg, acfg, 1)
}

/// Runs the sweep on at most `jobs` worker threads, one cell per work
/// item. Cells derive every RNG substream from the master seed and
/// their own [`AdversarialCell::tag`], so rows are byte-identical for
/// every job count.
pub fn run_adversarial_jobs(
    cfg: &ExperimentConfig,
    acfg: &AdversarialConfig,
    jobs: usize,
) -> Vec<AdversarialRow> {
    let net = Arc::new(cfg.build_network().expect("experiment topology"));
    let net = &net;
    crate::par::parallel_map(
        jobs,
        acfg.cells(),
        || (),
        |(), cell| run_cell(cfg, acfg, Arc::clone(net), cell),
    )
}

/// The byzantine router set at `strength`: a prefix of one seeded
/// shuffle of all nodes, so stronger adversaries strictly contain
/// weaker ones and every cell of a sweep attacks the same routers.
fn pick_byzantine(net: &Network, strength: u32, seed: u64) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = net.nodes().collect();
    let mut rng = drt_sim::rng::stream(seed, "byzantine");
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids.truncate((strength as usize).min(ids.len()));
    ids.sort();
    ids
}

/// Links advertised by a byzantine router (links whose source it is),
/// in id order.
fn owned_links(net: &Network, byzantine: &[NodeId]) -> Vec<LinkId> {
    let byz: BTreeSet<NodeId> = byzantine.iter().copied().collect();
    net.links()
        .filter(|l| byz.contains(&l.src()))
        .map(|l| l.id())
        .collect()
}

fn crowd_fraction(strength: u32) -> f64 {
    (0.4 + 0.15 * f64::from(strength)).min(0.9)
}

/// The next lie target: a healthy link advertised by a byzantine
/// router, loaded ones preferred (a lie about an idle link moves
/// nothing).
fn pick_lie_target(mgr: &DrtpManager, byzantine: &[NodeId], rng: &mut StdRng) -> Option<LinkId> {
    let byz: BTreeSet<NodeId> = byzantine.iter().copied().collect();
    let owned_loaded: Vec<LinkId> = loaded_links(mgr)
        .into_iter()
        .filter(|&l| byz.contains(&mgr.net().link(l).src()))
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
/// to the orchestrator. Under a defended `false-reports` arm the report
/// is vetted first — corroborated by ground truth, so it is always
/// acted on; the vetting only exercises (and counts through) the same
/// seam the lies are rejected at.
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
        // centralized model, so defended and undefended arms inject the
        // same physical failures and stay comparable.
        let (dst, src) = {
            let l = mgr.net().link(link);
            (l.dst(), l.src())
        };
        let verdict = orch.vet_report(dst, link, true);
        if verdict != drt_core::orchestrator::ReportVerdict::Accepted {
            let _ = orch.vet_report(src, link, true);
        }
    }
    let report = mgr
        .inject_event(&FailureEvent::Link(link), inject)
        .expect("picked link is healthy");
    orch.observe_failure(now, &report);
}

fn run_cell(
    cfg: &ExperimentConfig,
    acfg: &AdversarialConfig,
    net: Arc<Network>,
    cell: AdversarialCell,
) -> AdversarialRow {
    let tag = cell.tag();
    let mut scheme = cell.scheme.instantiate();
    let mut mgr = DrtpManager::with_config(Arc::clone(&net), cell.scheme.manager_config());
    let byzantine = pick_byzantine(&net, cell.strength, acfg.seed);

    // The workload: shared by every scheme and defence arm of a regime
    // (its substreams depend only on seed and strength), so cells differ
    // only in what is being attacked and whether it fights back.
    let pattern = if cell.regime == AdversarialRegime::FlashCrowd {
        let mut crowd_rng = drt_sim::rng::stream(acfg.seed, &format!("crowd-{}", cell.strength));
        TrafficPattern::flash_crowd(cfg.nodes, crowd_fraction(cell.strength), &mut crowd_rng)
    } else {
        TrafficPattern::ut()
    };
    if cell.regime == AdversarialRegime::ByzantineLsa {
        mgr.set_view_distortion(Some(ViewDistortion::for_nodes(net.num_nodes(), &byzantine)));
    }

    // Phase 1: establishment — under byzantine-lsa already poisoned, so
    // the accept/reject counters price the lies at admission time.
    let scenario = cfg.scenario_config(0.4, pattern).generate(cfg.nodes);
    let mut established = 0usize;
    for (_, ev) in scenario.timeline() {
        if established >= acfg.connections {
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

    // Phase 2: attack rounds, recovered through the orchestrator.
    let mut orch = RecoveryOrchestrator::new(net.num_links(), acfg.policy);
    let mut pick_rng = drt_sim::rng::stream(acfg.seed, &format!("pick-{tag}"));
    let waves = if cell.regime == AdversarialRegime::RegionalStorm {
        let mut wave_rng = drt_sim::rng::stream(acfg.seed, &format!("waves-{}", cell.strength));
        maintenance_waves(&net, 8, &mut wave_rng)
    } else {
        Vec::new()
    };
    let mut now = SimTime::ZERO;
    for round in 0..acfg.events {
        let mut inject_rng =
            drt_sim::rng::indexed_stream(acfg.seed, &format!("inject-{tag}"), round as u64);
        match cell.regime {
            AdversarialRegime::ByzantineLsa => {
                if cell.defended {
                    // A byzantine router's advertisements oscillate
                    // faster than the flap threshold; damping its churn
                    // quarantines every link it advertises away from
                    // the re-protection routes computed below.
                    for l in owned_links(&net, &byzantine) {
                        for _ in 0..acfg.policy.flap_threshold {
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
            AdversarialRegime::FalseReports => {
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
                        // Undefended, the lie is acted on: spurious
                        // switchovers, and the switched connections
                        // queue for re-protection exactly as if the
                        // failure had been real.
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
            AdversarialRegime::FlashCrowd => {
                real_failure(
                    &mut mgr,
                    &mut orch,
                    now,
                    false,
                    &mut pick_rng,
                    &mut inject_rng,
                );
            }
            AdversarialRegime::RegionalStorm => {
                let event = if round % 2 == 0 {
                    storm_event(&mgr, cell.strength as usize, &mut pick_rng)
                } else {
                    let wave = &waves[(round / 2) % waves.len()];
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
        }
        now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
        if cell.regime == AdversarialRegime::RegionalStorm {
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
        now += SimDuration::from_secs(30);
    }

    mgr.assert_invariants();
    let _ = mgr.sweep_single_failures_recorded(drt_sim::rng::substream_seed(
        acfg.seed,
        &format!("probe-{tag}"),
    ));

    let mut telemetry = mgr.telemetry().clone();
    telemetry.merge(orch.telemetry());
    AdversarialRow::from_telemetry(cell, telemetry)
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
pub fn merged_telemetry(rows: &[AdversarialRow]) -> Telemetry {
    let mut out = Telemetry::new();
    for r in rows {
        out.merge(&r.telemetry);
    }
    out
}

/// Renders the sweep as a table, one row per cell.
pub fn render(net: &Network, rows: &[AdversarialRow]) -> String {
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
        out.push_str(&format!(
            "{:<15} {:<6} {:>3} {:>4} {:>6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}\n",
            r.cell.regime.label(),
            r.cell.scheme.label(),
            r.cell.strength,
            if r.cell.defended { "yes" } else { "no" },
            r.established,
            r.rejected,
            r.events,
            r.links_failed,
            r.switched,
            r.false_reports,
            r.false_reroutes,
            r.reports_rejected,
            r.routers_quarantined + r.links_quarantined,
            r.orphaned,
            fmt_us(r.recovery_p50_us),
            fmt_us(r.recovery_p95_us),
            r.p_act_bk()
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out.push('\n');
    for regime in AdversarialRegime::ALL {
        if rows.iter().any(|r| r.cell.regime == regime) {
            out.push_str(&format!(
                "  strength under {:<15} = {}\n",
                regime.label(),
                regime.strength_meaning()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ExperimentConfig, AdversarialConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: AdversarialRegime::ALL.to_vec(),
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![2],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        (cfg, acfg)
    }

    #[test]
    fn labels_roundtrip_and_arms_follow_countermeasures() {
        for r in AdversarialRegime::ALL {
            assert_eq!(AdversarialRegime::parse(r.label()), Some(r));
        }
        assert_eq!(AdversarialRegime::parse("nope"), None);
        let (_, acfg) = small();
        let cells = acfg.cells();
        // byzantine-lsa and false-reports run both arms; the workload
        // regimes run one.
        assert_eq!(cells.len(), 2 + 2 + 1 + 1);
        assert!(cells
            .iter()
            .all(|c| c.defended <= c.regime.has_countermeasure()));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, acfg) = small();
        let a = run_adversarial(&cfg, &acfg);
        let b = run_adversarial(&cfg, &acfg);
        assert_eq!(a, b);
        let other = AdversarialConfig { seed: 14, ..acfg };
        let c = run_adversarial(&cfg, &other);
        assert_ne!(a, c, "different seed must move some field");
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (cfg, acfg) = small();
        let serial = run_adversarial_jobs(&cfg, &acfg, 1);
        let par = run_adversarial_jobs(&cfg, &acfg, 3);
        assert_eq!(serial, par);
    }

    #[test]
    fn rows_are_projections_of_their_telemetry() {
        let (cfg, acfg) = small();
        for row in run_adversarial(&cfg, &acfg) {
            let again = AdversarialRow::from_telemetry(row.cell, row.telemetry.clone());
            assert_eq!(row, again, "row fields must come from telemetry alone");
            assert!(row.established > 0);
        }
    }

    #[test]
    fn vetting_rejects_every_lie_and_saves_protection() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: vec![AdversarialRegime::FalseReports],
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![3],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        let rows = run_adversarial(&cfg, &acfg);
        assert_eq!(rows.len(), 2);
        let undefended = rows.iter().find(|r| !r.cell.defended).unwrap();
        let defended = rows.iter().find(|r| r.cell.defended).unwrap();
        assert!(undefended.false_reports > 0);
        assert!(
            undefended.false_reroutes > 0,
            "unvetted lies must force spurious switchovers"
        );
        assert_eq!(defended.false_reroutes, 0, "vetting rejects every lie");
        assert!(
            defended.reports_rejected >= defended.false_reports,
            "every lie is vetoed (plus any real report from a reporter \
             already in quarantine)"
        );
        assert!(
            defended.routers_quarantined > 0,
            "repeat liars end up quarantined"
        );
        // The acceptance criterion of the issue: with quarantine on,
        // D-LSR keeps measurably more of its protection probability.
        let (u, d) = (
            undefended.p_act_bk_ppm.expect("probe ran"),
            defended.p_act_bk_ppm.expect("probe ran"),
        );
        assert!(
            d > u,
            "defended P_act-bk ({d} ppm) must beat undefended ({u} ppm)"
        );
    }

    #[test]
    fn byzantine_lsa_defence_quarantines_liar_links() {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let acfg = AdversarialConfig {
            regimes: vec![AdversarialRegime::ByzantineLsa],
            schemes: vec![SchemeKind::DLsr],
            strengths: vec![2],
            connections: 25,
            events: 4,
            seed: 13,
            ..AdversarialConfig::default()
        };
        let rows = run_adversarial(&cfg, &acfg);
        let defended = rows.iter().find(|r| r.cell.defended).unwrap();
        let undefended = rows.iter().find(|r| !r.cell.defended).unwrap();
        assert!(
            defended.links_quarantined > 0,
            "churn damping must quarantine the liars' links"
        );
        assert_eq!(undefended.links_quarantined, 0);
        // Both arms see the same poisoned establishment phase.
        assert_eq!(defended.established, undefended.established);
        assert_eq!(defended.rejected, undefended.rejected);
    }

    #[test]
    fn storm_rounds_repair_behind_themselves() {
        let (cfg, mut acfg) = small();
        acfg.regimes = vec![AdversarialRegime::RegionalStorm];
        let rows = run_adversarial(&cfg, &acfg);
        let row = &rows[0];
        assert!(row.links_failed > 0, "storms must land");
        // The closing probe ran on a fully repaired network: every
        // probe trial found a live failure unit to fail.
        assert!(row.telemetry.counter("sweep.trials") > 0);
    }

    #[test]
    fn table_renders_every_cell() {
        let (cfg, acfg) = small();
        let net = cfg.build_network().unwrap();
        let rows = run_adversarial(&cfg, &acfg);
        let table = render(&net, &rows);
        assert!(table.contains("P_act-bk"));
        for r in AdversarialRegime::ALL {
            assert!(table.contains(r.label()));
        }
        let merged = merged_telemetry(&rows);
        assert!(merged.counter("establish.accepted") > 0);
        assert!(!merged.snapshot().is_empty());
    }
}
