//! Correlated multi-failure campaign: independent links, SRLG bursts,
//! and router crashes, recovered through the orchestrator.
//!
//! The paper's evaluation (and [`crate::campaign`]) injects *independent
//! single-link* failures. Real outages cluster: a cut conduit severs
//! every fibre it carries (a shared-risk link group), and a router crash
//! takes every incident link in one stroke. This harness sweeps three
//! failure *regimes* of increasing correlation over the same workload —
//!
//! 1. **`indep-links`** — one loaded link per event (the paper's model,
//!    as the baseline row);
//! 2. **`srlg-bursts`** — one shared-risk group per event, every member
//!    failing simultaneously;
//! 3. **`node-crashes`** — one transit router per event, all incident
//!    links failing simultaneously;
//!
//! — and reports, per regime, how much the correlation costs: backups of
//! all simultaneously-hit primaries contend in **one** activation pass
//! (see [`DrtpManager::inject_event`]), survivors re-protect through the
//! [`RecoveryOrchestrator`]'s retry queue with backoff and flap damping,
//! and connections whose re-protection exhausts its retries are counted
//! as *orphaned* — protection the regime permanently destroyed.
//! `P_act-bk` is then probed on the post-campaign state.
//!
//! Everything derives from one master seed (workload, SRLG derivation,
//! event choice, contention shuffles, probes), so each row is exactly
//! reproducible; regimes share the workload substream and differ only in
//! the events they inject, which is what makes the rows comparable.

use crate::config::ExperimentConfig;
use crate::report::{loaded_links, pick_loaded_link};
use crate::runner::SchemeKind;
use drt_core::failure::{FailureEvent, LinkImpact};
use drt_core::orchestrator::{RecoveryOrchestrator, RetryPolicy};
use drt_core::{ConnectionId, DrtpManager};
use drt_net::{LinkId, Network, NodeId, SrlgId};
use drt_sim::workload::{TimelineEvent, TrafficPattern};
use drt_sim::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One correlated-failure regime of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureRegime {
    /// Independent single-link failures — the paper's baseline model.
    IndependentLinks,
    /// Shared-risk link groups cut whole: every member fails at once.
    SrlgBursts,
    /// Router crashes: every link incident to the node fails at once.
    NodeCrashes,
}

impl FailureRegime {
    /// Every regime, in sweep order (increasing correlation).
    pub const ALL: [FailureRegime; 3] = [
        FailureRegime::IndependentLinks,
        FailureRegime::SrlgBursts,
        FailureRegime::NodeCrashes,
    ];

    /// The short label used in tables, substream derivation, and the
    /// campaign binary's `--regime` flag.
    pub fn label(self) -> &'static str {
        match self {
            FailureRegime::IndependentLinks => "indep-links",
            FailureRegime::SrlgBursts => "srlg-bursts",
            FailureRegime::NodeCrashes => "node-crashes",
        }
    }

    /// Parses a [`FailureRegime::label`] back into a regime.
    pub fn parse(s: &str) -> Option<FailureRegime> {
        FailureRegime::ALL.into_iter().find(|r| r.label() == s)
    }
}

impl std::fmt::Display for FailureRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs of the multi-failure sweep.
#[derive(Debug, Clone)]
pub struct MultiFailureConfig {
    /// Regimes to run, in order.
    pub regimes: Vec<FailureRegime>,
    /// Connections to establish before the failures start.
    pub connections: usize,
    /// Correlated failure events injected per regime.
    pub events: usize,
    /// Links per derived shared-risk group (conduit width).
    pub srlg_size: usize,
    /// Retry/backoff/flap-damping policy of the orchestrator.
    pub policy: RetryPolicy,
    /// Master seed for workload, SRLG derivation, events, and probes.
    pub seed: u64,
}

impl Default for MultiFailureConfig {
    /// All three regimes, 100 connections, 6 events, 3-link conduits.
    fn default() -> Self {
        MultiFailureConfig {
            regimes: FailureRegime::ALL.to_vec(),
            connections: 100,
            events: 6,
            srlg_size: 3,
            policy: RetryPolicy::default(),
            seed: 7,
        }
    }
}

/// One row of the sweep: a whole campaign under one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFailureRow {
    /// The failure regime this row ran.
    pub regime: FailureRegime,
    /// Connections established before the failures.
    pub established: u64,
    /// Correlated events injected.
    pub events: u64,
    /// Total links the events disabled.
    pub links_failed: u64,
    /// Affected primaries whose backup activated (one contention pass
    /// per event).
    pub switched: u64,
    /// Affected primaries that lost the activation contention.
    pub lost: u64,
    /// Survivors whose *backup* crossed a failed link and was dropped.
    pub unprotected: u64,
    /// Connections the orchestrator re-protected.
    pub reprotected: u64,
    /// Connections that exhausted their retries and run unprotected.
    pub orphaned: u64,
    /// Links quarantined by flap damping when the campaign ended.
    pub quarantined: u64,
    /// Mean re-protection latency over orchestrator completions.
    pub mean_recovery: Option<SimDuration>,
    /// Worst re-protection latency.
    pub max_recovery: Option<SimDuration>,
    /// `P_act-bk` probed on the post-campaign state.
    pub p_act_bk: Option<f64>,
    /// The most fragile failure units in the closing probe sweep.
    pub worst_links: Vec<LinkImpact>,
}

/// Runs the sweep: one fresh manager + workload per regime (same
/// substreams, so rows differ only by the injected events).
///
/// # Panics
///
/// Panics when the experiment topology cannot be built or a manager
/// invariant breaks — both are harness bugs, not measured outcomes.
pub fn run_multi_failure(
    cfg: &ExperimentConfig,
    mcfg: &MultiFailureConfig,
) -> Vec<MultiFailureRow> {
    run_multi_failure_jobs(cfg, mcfg, 1)
}

/// [`run_multi_failure`] on at most `jobs` worker threads, one regime per
/// cell. Regimes derive their RNG substreams from the master seed and
/// their own label, so rows are byte-identical for every job count.
pub fn run_multi_failure_jobs(
    cfg: &ExperimentConfig,
    mcfg: &MultiFailureConfig,
    jobs: usize,
) -> Vec<MultiFailureRow> {
    let net = prepare_network(cfg, mcfg);
    let net = &net;
    crate::par::parallel_map(
        jobs,
        mcfg.regimes.clone(),
        || SchemeKind::DLsr.instantiate(),
        |scheme, regime| run_regime(cfg, mcfg, Arc::clone(net), scheme.as_mut(), regime),
    )
}

/// The topology the sweep runs on: the experiment network with the
/// seed-derived conduit groups registered. Exposed so callers can
/// render against the same graph the rows were measured on.
pub fn prepare_network(cfg: &ExperimentConfig, mcfg: &MultiFailureConfig) -> Arc<Network> {
    let base = cfg.build_network().expect("experiment topology");
    let groups = derive_srlgs(&base, mcfg.srlg_size, mcfg.seed);
    Arc::new(
        base.with_srlgs(&groups)
            .expect("groups derived from this network"),
    )
}

/// Deterministically partitions the links into conduit groups of
/// `size`: a seeded shuffle, chunked. Every link lands in exactly one
/// group, so an SRLG burst is meaningful anywhere in the topology.
fn derive_srlgs(net: &Network, size: usize, seed: u64) -> Vec<Vec<LinkId>> {
    let mut links: Vec<LinkId> = net.links().map(|l| l.id()).collect();
    let mut rng = drt_sim::rng::stream(seed, "srlg-derivation");
    // Fisher–Yates with the seeded stream; rand's shuffle would also be
    // deterministic, but spelling it out keeps the derivation obvious.
    for i in (1..links.len()).rev() {
        let j = rng.gen_range(0..=i);
        links.swap(i, j);
    }
    links.chunks(size.max(1)).map(|c| c.to_vec()).collect()
}

fn run_regime(
    cfg: &ExperimentConfig,
    mcfg: &MultiFailureConfig,
    net: Arc<Network>,
    scheme: &mut dyn drt_core::routing::RoutingScheme,
    regime: FailureRegime,
) -> MultiFailureRow {
    let kind = SchemeKind::DLsr;
    let mut mgr = DrtpManager::with_config(Arc::clone(&net), kind.manager_config());

    let mut row = MultiFailureRow {
        regime,
        established: 0,
        events: 0,
        links_failed: 0,
        switched: 0,
        lost: 0,
        unprotected: 0,
        reprotected: 0,
        orphaned: 0,
        quarantined: 0,
        mean_recovery: None,
        max_recovery: None,
        p_act_bk: None,
        worst_links: Vec::new(),
    };

    // Phase 1: the shared workload (same substream for every regime).
    let scenario = cfg
        .scenario_config(0.4, TrafficPattern::ut())
        .generate(cfg.nodes);
    for (_, ev) in scenario.timeline() {
        if row.established as usize >= mcfg.connections {
            break;
        }
        let TimelineEvent::Arrive(rid) = ev else {
            continue;
        };
        let r = scenario.request(rid).expect("valid id");
        let conn = ConnectionId::new(rid.index() as u64);
        let req = drt_core::routing::RouteRequest::new(conn, r.src, r.dst, scenario.bw_req())
            .with_backups(cfg.backups_per_connection);
        if mgr.request_connection(&mut *scheme, req).is_ok() {
            row.established += 1;
        }
    }

    // Phase 2: correlated failures, recovered through the orchestrator.
    let mut orch = RecoveryOrchestrator::new(net.num_links(), mcfg.policy);
    let mut pick_rng = drt_sim::rng::stream(mcfg.seed, &format!("pick-{}", regime.label()));
    let mut now = SimTime::ZERO;
    for round in 0..mcfg.events {
        let Some(event) = pick_event(regime, &mgr, &mut pick_rng) else {
            break; // nothing loaded left to fail
        };
        let mut inject_rng = drt_sim::rng::indexed_stream(
            mcfg.seed,
            &format!("inject-{}", regime.label()),
            round as u64,
        );
        let report = mgr
            .inject_event(&event, &mut inject_rng)
            .expect("inject_event is infallible on resolvable events");
        row.events += 1;
        row.links_failed += report.failed_links.len() as u64;
        row.switched += report.switched.len() as u64;
        row.lost += report.lost.len() as u64;
        row.unprotected += report.unprotected.len() as u64;
        orch.observe_failure(now, &report);
        now = orch.run_to_quiescence(now, &mut mgr, &mut *scheme);
        // Events are spaced out: the next burst lands on a quiesced
        // network, but within each burst every failure is simultaneous.
        now += SimDuration::from_secs(30);
    }

    row.reprotected = orch.completions().len() as u64;
    row.orphaned = orch.orphaned().len() as u64;
    row.quarantined = orch.quarantined_links(now).len() as u64;
    if !orch.completions().is_empty() {
        let total: u64 = orch
            .completions()
            .iter()
            .map(|c| c.latency.as_micros())
            .sum();
        row.mean_recovery = Some(SimDuration::from_micros(
            total / orch.completions().len() as u64,
        ));
        row.max_recovery = orch.completions().iter().map(|c| c.latency).max();
    }

    mgr.assert_invariants();
    let sweep = mgr.sweep_single_failures(drt_sim::rng::substream_seed(
        mcfg.seed,
        &format!("probe-{}", regime.label()),
    ));
    row.p_act_bk = sweep.p_act_bk();
    row.worst_links = sweep.worst_links(3);
    row
}

/// Picks the next event for `regime`: always one that hits at least one
/// live primary, so every event measures recovery rather than missing.
fn pick_event(
    regime: FailureRegime,
    mgr: &DrtpManager,
    rng: &mut rand::rngs::StdRng,
) -> Option<FailureEvent> {
    match regime {
        FailureRegime::IndependentLinks => pick_loaded_link(mgr, rng).map(FailureEvent::Link),
        FailureRegime::SrlgBursts => {
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
        FailureRegime::NodeCrashes => {
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
    }
}

/// Renders the sweep as a table, one row per regime.
pub fn render(net: &Network, rows: &[MultiFailureRow]) -> String {
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
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>9}\n",
            r.regime.label(),
            r.established,
            r.events,
            r.links_failed,
            r.switched,
            r.lost,
            r.unprotected,
            r.reprotected,
            r.orphaned,
            r.quarantined,
            fmt_s(r.mean_recovery),
            fmt_s(r.max_recovery),
            r.p_act_bk
                .map(|p| format!("{p:.4}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    for r in rows {
        if r.worst_links.is_empty() {
            continue;
        }
        let ranked: Vec<String> = r
            .worst_links
            .iter()
            .map(|li| format!("{} (-{} of {})", li.link, li.lost(), li.affected))
            .collect();
        out.push_str(&format!(
            "  {:<12} worst links: {}\n",
            r.regime.label(),
            ranked.join(", ")
        ));
    }
    out
}

fn fmt_s(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.2}s", d.as_secs_f64()),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ExperimentConfig, MultiFailureConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let mcfg = MultiFailureConfig {
            connections: 25,
            events: 3,
            seed: 13,
            ..MultiFailureConfig::default()
        };
        (cfg, mcfg)
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (cfg, mcfg) = small();
        let a = run_multi_failure(&cfg, &mcfg);
        let b = run_multi_failure(&cfg, &mcfg);
        assert_eq!(a, b);
        let other = MultiFailureConfig { seed: 14, ..mcfg };
        let c = run_multi_failure(&cfg, &other);
        assert_ne!(a, c, "different seed must move some field");
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (cfg, mcfg) = small();
        let serial = run_multi_failure_jobs(&cfg, &mcfg, 1);
        let par = run_multi_failure_jobs(&cfg, &mcfg, 3);
        assert_eq!(serial, par);
    }

    #[test]
    fn correlation_increases_per_event_damage() {
        let (cfg, mcfg) = small();
        let rows = run_multi_failure(&cfg, &mcfg);
        assert_eq!(rows.len(), 3);
        let by_regime = |r: FailureRegime| rows.iter().find(|x| x.regime == r).unwrap();
        let indep = by_regime(FailureRegime::IndependentLinks);
        let srlg = by_regime(FailureRegime::SrlgBursts);
        let crash = by_regime(FailureRegime::NodeCrashes);
        // Same workload in every regime.
        assert_eq!(indep.established, srlg.established);
        assert_eq!(indep.established, crash.established);
        assert!(indep.events > 0 && srlg.events > 0 && crash.events > 0);
        // One link per independent event; strictly more per burst/crash.
        assert_eq!(indep.links_failed, indep.events);
        assert!(srlg.links_failed > srlg.events, "bursts fail whole groups");
        assert!(
            crash.links_failed > crash.events,
            "crashes fail all incident links"
        );
    }

    #[test]
    fn orchestrator_accounting_is_closed() {
        let (cfg, mcfg) = small();
        for row in run_multi_failure(&cfg, &mcfg) {
            // Every connection that lost protection either re-protected
            // or orphaned once the queue drained (quiescence).
            assert!(
                row.reprotected + row.orphaned <= row.switched + row.unprotected,
                "{}: more recoveries than losses",
                row.regime
            );
            if row.switched + row.unprotected > 0 {
                assert!(
                    row.reprotected + row.orphaned > 0,
                    "{}: lost protection but no orchestrator outcome",
                    row.regime
                );
            }
            if row.reprotected > 0 {
                assert!(row.mean_recovery.is_some() && row.max_recovery.is_some());
                assert!(row.mean_recovery <= row.max_recovery);
            }
        }
    }

    #[test]
    fn derived_srlgs_cover_every_link_once() {
        let cfg = ExperimentConfig::quick(3.0);
        let net = cfg.build_network().unwrap();
        let groups = derive_srlgs(&net, 3, 7);
        let mut seen = BTreeSet::new();
        for g in &groups {
            assert!(!g.is_empty() && g.len() <= 3);
            for &l in g {
                assert!(seen.insert(l), "{l} grouped twice");
            }
        }
        assert_eq!(seen.len(), net.num_links());
        // Deterministic per seed.
        assert_eq!(groups, derive_srlgs(&net, 3, 7));
        assert_ne!(groups, derive_srlgs(&net, 3, 8));
    }

    #[test]
    fn table_renders_every_regime() {
        let (cfg, mcfg) = small();
        let net = cfg.build_network().unwrap();
        let rows = run_multi_failure(&cfg, &mcfg);
        let table = render(&net, &rows);
        assert!(table.contains("P_act-bk"));
        for r in &rows {
            assert!(table.contains(r.regime.label()));
        }
    }
}
