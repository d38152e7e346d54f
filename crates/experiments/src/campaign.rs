//! Failure campaign under a lossy control plane: timed link failures
//! injected into the *chaotic* protocol simulation, with backup
//! re-establishment between failures.
//!
//! Where [`crate::signalling`] prices DR-connection management over a
//! perfect control plane, this harness asks the robustness question: how
//! do recovery latency, `P_act-bk`, and degradation counts move as the
//! signalling channel itself loses packets? Routes are selected by a
//! mirrored centralized [`DrtpManager`] (also the `P_act-bk` estimator);
//! establishment, switchover, and re-protection all run through
//! [`drt_proto::ProtocolSim`] under a [`ChaosConfig`], so every control
//! packet the campaign measures really crossed the lossy plane.
//!
//! Everything is driven by `drt_sim::rng` substreams of one master seed:
//! the same seed reproduces the same table, loss rate by loss rate.

use crate::config::ExperimentConfig;
use crate::report::pick_loaded_link;
use crate::runner::SchemeKind;
use drt_core::{ConnectionId, DrtpManager};
use drt_net::Network;
use drt_proto::{ChaosConfig, ConnOutcome, ProtocolConfig, ProtocolSim, RetryConfig};
use drt_sim::workload::{TimelineEvent, TrafficPattern};
use drt_sim::SimDuration;
use std::sync::Arc;

/// Knobs of the failure campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Control-plane per-hop loss rates to sweep (the paper's plane is
    /// implicitly `0.0`).
    pub loss_rates: Vec<f64>,
    /// Connections to establish before the failures start.
    pub connections: usize,
    /// Timed link failures to inject, one at a time, with backup
    /// re-establishment between them.
    pub failures: usize,
    /// Retransmission attempts per signalling transaction.
    pub max_attempts: u32,
    /// Master seed for chaos, link choice, and probes.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// The acceptance sweep: 0–20 % loss, 100 connections, 6 failures.
    fn default() -> Self {
        CampaignConfig {
            loss_rates: vec![0.0, 0.05, 0.10, 0.15, 0.20],
            connections: 100,
            failures: 6,
            max_attempts: 12,
            seed: 7,
        }
    }
}

/// One row of the sweep table: the campaign at one loss rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Per-hop control-packet loss probability.
    pub loss: f64,
    /// Connections fully established (primary + all backups).
    pub established: u64,
    /// Connections that came up unprotected (register retries exhausted).
    pub degraded_setup: u64,
    /// Connections rejected during establishment.
    pub rejected: u64,
    /// Link failures injected.
    pub failures: u64,
    /// Source-side switchovers that activated a backup end to end.
    pub switched: u64,
    /// Affected connections that could not be recovered.
    pub lost: u64,
    /// Successful backup re-establishments between failures.
    pub reprotected: u64,
    /// Mean source-side recovery latency over successful switchovers.
    pub mean_recovery: Option<SimDuration>,
    /// Worst successful switchover.
    pub max_recovery: Option<SimDuration>,
    /// `P_act-bk` estimated on the mirror after the campaign.
    pub p_act_bk: Option<f64>,
    /// Probe-affected primaries with no backup left (degradation seen by
    /// the estimator).
    pub probe_degraded: u64,
    /// Control messages that were retransmissions.
    pub retransmissions: u64,
    /// Signalling transactions that exhausted their retries.
    pub exhausted: u64,
    /// The failure units losing the most connections in the closing probe
    /// sweep (worst first) — names the fragile links behind `p_act_bk`.
    pub worst_links: Vec<drt_core::failure::LinkImpact>,
}

/// Runs the campaign at every configured loss rate.
///
/// # Panics
///
/// Panics when the experiment topology cannot be built or a connection
/// ends the establishment phase in a state other than established,
/// degraded, or rejected (the protocol's liveness guarantee).
pub fn run_campaign(cfg: &ExperimentConfig, ccfg: &CampaignConfig) -> Vec<CampaignRow> {
    run_campaign_jobs(cfg, ccfg, 1)
}

/// [`run_campaign`] on at most `jobs` worker threads, one loss rate per
/// cell. Every cell seeds its own RNG substreams from the master seed and
/// its loss rate, so the table is byte-identical for every job count.
pub fn run_campaign_jobs(
    cfg: &ExperimentConfig,
    ccfg: &CampaignConfig,
    jobs: usize,
) -> Vec<CampaignRow> {
    let mut rows = Vec::with_capacity(ccfg.loss_rates.len());
    stream_campaign(cfg, ccfg, jobs, |row| rows.push(row));
    rows
}

/// Runs the campaign and hands each [`CampaignRow`] to `emit` in canonical
/// (loss-rate) order as soon as it is ready — the streaming form the
/// `campaign` binary uses to print rows without holding the whole table.
///
/// The scheme instance is built once per worker (not once per loss rate)
/// and reused across the cells that worker processes.
pub fn stream_campaign(
    cfg: &ExperimentConfig,
    ccfg: &CampaignConfig,
    jobs: usize,
    mut emit: impl FnMut(CampaignRow),
) {
    // When the loss rates don't fill the requested workers, the closing
    // probe sweep inside each cell uses the slack; either way every row is
    // byte-identical to the serial run.
    let cell_jobs = crate::par::effective_jobs(jobs, ccfg.loss_rates.len());
    let sweep_jobs = (jobs / cell_jobs).max(1);
    crate::par::for_each_ordered(
        jobs,
        ccfg.loss_rates.clone(),
        || SchemeKind::DLsr.instantiate(),
        |scheme, loss| run_at_loss(cfg, ccfg, scheme.as_mut(), loss, sweep_jobs),
        |_, row| emit(row),
    );
}

fn run_at_loss(
    cfg: &ExperimentConfig,
    ccfg: &CampaignConfig,
    scheme: &mut dyn drt_core::routing::RoutingScheme,
    loss: f64,
    sweep_jobs: usize,
) -> CampaignRow {
    let net = Arc::new(cfg.build_network().expect("experiment topology"));
    let kind = SchemeKind::DLsr;
    let mut mirror = DrtpManager::with_config(Arc::clone(&net), kind.manager_config());

    let chaos = ChaosConfig {
        drop_prob: loss,
        dup_prob: 0.02,
        max_jitter: SimDuration::from_micros(200),
        crashes: Vec::new(),
        seed: drt_sim::rng::substream_seed(ccfg.seed, &format!("chaos-{}", per_mille(loss))),
        ..ChaosConfig::default()
    };
    let retry = RetryConfig {
        max_attempts: ccfg.max_attempts,
        ..RetryConfig::default()
    };
    let mut sim =
        ProtocolSim::with_chaos(Arc::clone(&net), ProtocolConfig::default(), retry, chaos);

    let mut row = CampaignRow {
        loss,
        established: 0,
        degraded_setup: 0,
        rejected: 0,
        failures: 0,
        switched: 0,
        lost: 0,
        reprotected: 0,
        mean_recovery: None,
        max_recovery: None,
        p_act_bk: None,
        probe_degraded: 0,
        retransmissions: 0,
        exhausted: 0,
        worst_links: Vec::new(),
    };

    // Phase 1: establish the workload through the lossy plane.
    let scenario = cfg
        .scenario_config(0.4, TrafficPattern::ut())
        .generate(cfg.nodes);
    let mut live: Vec<ConnectionId> = Vec::new();
    for (_, ev) in scenario.timeline() {
        if live.len() + row.rejected as usize >= ccfg.connections {
            break;
        }
        let TimelineEvent::Arrive(rid) = ev else {
            continue;
        };
        let r = scenario.request(rid).expect("valid id");
        let conn = ConnectionId::new(rid.index() as u64);
        let req = drt_core::routing::RouteRequest::new(conn, r.src, r.dst, scenario.bw_req())
            .with_backups(cfg.backups_per_connection);
        let Ok(rep) = mirror.request_connection(&mut *scheme, req) else {
            continue; // no feasible route — not a signalling outcome
        };
        sim.establish(conn, scenario.bw_req(), rep.primary, rep.backups);
        sim.run_to_quiescence();
        match sim.outcome(conn).expect("submitted") {
            ConnOutcome::Established => {
                row.established += 1;
                live.push(conn);
            }
            ConnOutcome::Degraded => {
                // Unprotected but live: mirror the lost protection.
                row.degraded_setup += 1;
                mirror.drop_backups(conn).expect("mirror holds the conn");
                live.push(conn);
            }
            ConnOutcome::Rejected => {
                row.rejected += 1;
                mirror.release(conn).expect("mirror holds the conn");
            }
            other => panic!("establishment cannot end in {other:?}"),
        }
    }

    // Phase 2: the failure campaign.
    let mut link_rng = drt_sim::rng::stream(ccfg.seed, "campaign-links");
    let mut recoveries: Vec<SimDuration> = Vec::new();
    for round in 0..ccfg.failures {
        let Some(link) = pick_loaded_link(&mirror, &mut link_rng) else {
            break; // nothing left to fail
        };
        row.failures += 1;
        let log_before = sim.recovery_log().len();
        // This campaign predates the orchestrator seam: it drives the
        // *distributed* engine directly and reconciles the mirror by hand
        // below, which is exactly the bookkeeping the seam would own.
        // lint:allow(raw-fail-link) — pre-seam campaign: mirror reconciled by hand below
        sim.fail_link(link);
        sim.run_to_quiescence();

        // The distributed outcome is authoritative; the mirror replays the
        // failure and is reconciled to it.
        let mut inject_rng =
            drt_sim::rng::indexed_stream(ccfg.seed, "campaign-inject", round as u64);
        let report = mirror
            .inject_failure(link, &mut inject_rng)
            .expect("link picked among live ones");
        for rec in &sim.recovery_log()[log_before..] {
            if rec.recovered {
                row.switched += 1;
                recoveries.push(rec.latency());
            } else {
                row.lost += 1;
                live.retain(|&c| c != rec.conn);
            }
        }
        for &id in report.switched.iter().chain(&report.lost) {
            let sim_says = sim.outcome(id).expect("mirror conns exist in the sim");
            let mirror_carrying = mirror
                .connection(id)
                .is_some_and(|c| c.state().is_carrying_traffic());
            if !sim_says.is_established() && mirror_carrying {
                // Chaos downed what the mirror recovered (switch retries
                // exhausted): free the mirror's promoted route too.
                mirror.release(id).expect("carrying above");
            }
        }
        // Registered backups that cross the failed link can never
        // activate: retire them on the sources that still hold them.
        for &c in &live {
            sim.retire_backups_crossing(c, link);
        }
        sim.run_to_quiescence();

        // Phase 3 (interleaved): re-protect unprotected survivors via the
        // centralized reconfiguration step.
        for &c in &live {
            if !sim.outcome(c).expect("tracked").is_established()
                || !sim.registered_backups(c).is_empty()
            {
                continue;
            }
            let mirror_bare = mirror
                .connection(c)
                .is_some_and(|m| m.state().is_carrying_traffic() && m.backups().is_empty());
            if !mirror_bare {
                continue;
            }
            if mirror.reestablish_backup(&mut *scheme, c).is_err() {
                continue; // no feasible backup right now
            }
            let backup = mirror
                .connection(c)
                .expect("just reestablished")
                .backups()
                .last()
                .expect("just installed")
                .clone();
            assert!(sim.add_backup(c, backup), "sim conn is live");
            sim.run_to_quiescence();
            if sim.outcome(c) == Some(ConnOutcome::Established) {
                row.reprotected += 1;
            } else {
                // Registration exhausted its retries under chaos.
                mirror.drop_backups(c).expect("carrying above");
            }
        }
    }

    if !recoveries.is_empty() {
        let total: u64 = recoveries.iter().map(|d| d.as_micros()).sum();
        row.mean_recovery = Some(SimDuration::from_micros(total / recoveries.len() as u64));
        row.max_recovery = recoveries.iter().copied().max();
    }
    // The mirror must stay coherent through every reconciliation above.
    mirror.assert_invariants();
    let sweep = crate::failure_analysis::sweep_single_failures_jobs(
        &mirror,
        drt_sim::rng::substream_seed(ccfg.seed, "probe"),
        sweep_jobs,
    );
    row.p_act_bk = sweep.p_act_bk();
    row.probe_degraded = sweep.aggregate.degraded;
    row.worst_links = sweep.worst_links(3);
    row.retransmissions = sim.counters().retransmitted().0;
    row.exhausted = sim.exhausted().map(|(_, n)| n).sum();
    row
}

/// Percent-scale key for substream labels (0.05 → 50).
fn per_mille(p: f64) -> u64 {
    (p * 1000.0).round() as u64
}

/// Renders the sweep as a table, one row per loss rate.
///
/// Composed from [`render_header`], [`render_row`], and
/// [`render_breakdown`], which the `campaign` binary uses directly to
/// stream rows as they complete — concatenating those pieces in canonical
/// order reproduces this output byte for byte.
pub fn render(net: &Network, rows: &[CampaignRow]) -> String {
    let mut out = render_header(net);
    for r in rows {
        out.push_str(&render_row(r));
    }
    for r in rows {
        out.push_str(&render_breakdown(r));
    }
    out
}

/// The table title and column headers (two lines).
pub fn render_header(net: &Network) -> String {
    let mut out = format!(
        "Failure campaign under control-plane loss ({} nodes, {} links)\n",
        net.num_nodes(),
        net.num_links()
    );
    out.push_str(&format!(
        "{:>6} {:>6} {:>6} {:>4} {:>6} {:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}\n",
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
        "exh"
    ));
    out
}

/// One table line for `r`.
pub fn render_row(r: &CampaignRow) -> String {
    format!(
        "{:>6.1} {:>6} {:>6} {:>4} {:>6} {:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}\n",
        r.loss * 100.0,
        r.established,
        r.degraded_setup,
        r.rejected,
        r.failures,
        r.switched,
        r.lost,
        r.reprotected,
        fmt_ms(r.mean_recovery),
        fmt_ms(r.max_recovery),
        r.p_act_bk
            .map(|p| format!("{p:.4}"))
            .unwrap_or_else(|| "-".into()),
        r.probe_degraded,
        r.retransmissions,
        r.exhausted,
    )
}

/// The trailing worst-links line for `r` (empty when it has none).
pub fn render_breakdown(r: &CampaignRow) -> String {
    if r.worst_links.is_empty() {
        return String::new();
    }
    let ranked: Vec<String> = r
        .worst_links
        .iter()
        .map(|li| format!("{} (-{} of {})", li.link, li.lost(), li.affected))
        .collect();
    format!(
        "  loss {:>4.1}% worst links: {}\n",
        r.loss * 100.0,
        ranked.join(", ")
    )
}

fn fmt_ms(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.1}ms", d.as_micros() as f64 / 1000.0),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ExperimentConfig, CampaignConfig) {
        let mut cfg = ExperimentConfig::quick(3.0);
        cfg.nodes = 20;
        let ccfg = CampaignConfig {
            loss_rates: vec![0.0, 0.10],
            connections: 25,
            failures: 3,
            max_attempts: 10,
            seed: 13,
        };
        (cfg, ccfg)
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let (cfg, ccfg) = small();
        let a = run_campaign(&cfg, &ccfg);
        let b = run_campaign(&cfg, &ccfg);
        assert_eq!(a, b);
        let other = CampaignConfig { seed: 14, ..ccfg };
        let c = run_campaign(&cfg, &other);
        // Lossless rows may coincide, but the lossy row sees different
        // chaos: at least one field must move.
        assert_ne!(a[1], c[1]);
    }

    #[test]
    fn lossless_row_never_degrades_or_retransmits() {
        let (cfg, ccfg) = small();
        let rows = run_campaign(&cfg, &ccfg);
        let quiet = &rows[0];
        assert_eq!(quiet.loss, 0.0);
        assert_eq!(quiet.degraded_setup, 0);
        assert_eq!(quiet.retransmissions, 0);
        assert_eq!(quiet.exhausted, 0);
        assert!(quiet.established > 0);
        assert_eq!(quiet.failures, 3);
        // Recovery latency is detection + report + switch walk: > 10 ms.
        if let Some(m) = quiet.mean_recovery {
            assert!(m > SimDuration::from_millis(10));
        }
    }

    #[test]
    fn table_renders_every_row() {
        let (cfg, ccfg) = small();
        let net = cfg.build_network().unwrap();
        let rows = run_campaign(&cfg, &ccfg);
        let table = render(&net, &rows);
        assert!(table.contains("P_act-bk"));
        let breakdowns = rows.iter().filter(|r| !r.worst_links.is_empty()).count();
        assert_eq!(table.lines().count(), 2 + rows.len() + breakdowns);
        assert!(breakdowns > 0, "campaign with failures names worst links");
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let (cfg, ccfg) = small();
        let net = cfg.build_network().unwrap();
        let serial = render(&net, &run_campaign_jobs(&cfg, &ccfg, 1));
        for jobs in [2, 8] {
            let par = render(&net, &run_campaign_jobs(&cfg, &ccfg, jobs));
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn streamed_render_matches_batch_render() {
        let (cfg, ccfg) = small();
        let net = cfg.build_network().unwrap();
        let batch = render(&net, &run_campaign(&cfg, &ccfg));
        let mut streamed = render_header(&net);
        let mut breakdowns = String::new();
        stream_campaign(&cfg, &ccfg, 2, |row| {
            streamed.push_str(&render_row(&row));
            breakdowns.push_str(&render_breakdown(&row));
        });
        streamed.push_str(&breakdowns);
        assert_eq!(batch, streamed);
    }
}
