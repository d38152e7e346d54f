//! Switchover-latency distributions: the "speedy service recovery" DRTP
//! exists for.
//!
//! For every loaded single-link failure, every affected connection's
//! switchover latency is detection + report hops + backup activation hops
//! (see [`drt_core::failure::RecoveryLatencyModel`]). The scheme choice
//! shows up directly: BF's hop-bounded backups switch fastest, the LSR
//! schemes pay a little latency for their conflict-avoiding detours, and
//! every scheme stays three orders of magnitude below the "several
//! seconds or longer" the paper quotes for reactive re-establishment.
//!
//! Run with: `cargo run --release --example recovery_latency`

use drt_core::failure::RecoveryLatencyModel;
use drt_core::routing::RouteRequest;
use drt_core::{ConnectionId, DrtpManager};
use drt_experiments::config::ExperimentConfig;
use drt_sim::stats::OnlineStats;
use drt_sim::workload::TrafficPattern;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = ExperimentConfig::quick(3.0);
    let net = Arc::new(cfg.build_network()?);
    let model = RecoveryLatencyModel::default();
    println!(
        "latency model: detection {}, per hop {}\n",
        model.detection, model.per_hop
    );
    println!(
        "{:<10} {:>10} {:>12} {:>11} {:>11} {:>12}",
        "scheme", "samples", "mean (ms)", "p50 (ms)", "p99 (ms)", "backup hops"
    );

    for kind in drt_experiments::runner::SchemeKind::paper_schemes() {
        // Load the network to a mid-load steady state.
        let mut mgr = DrtpManager::new(Arc::clone(&net));
        let mut scheme = kind.instantiate();
        let mut rng = drt_sim::rng::stream(23, "latency-load");
        let pattern = TrafficPattern::ut();
        for i in 0..600u64 {
            let (src, dst) = pattern.sample_pair(cfg.nodes, &mut rng);
            let _ = mgr.request_connection(
                scheme.as_mut(),
                RouteRequest::new(ConnectionId::new(i), src, dst, cfg.bw_req),
            );
        }

        // Sweep every link; collect the latency of every would-be
        // switchover.
        let mut stats = OnlineStats::new();
        let mut hops = OnlineStats::new();
        let mut samples = Vec::new();
        for (idx, link) in mgr.net().links().map(|l| l.id()).enumerate() {
            let mut prng = drt_sim::rng::indexed_stream(23, "latency-probe", idx as u64);
            let outcome = mgr.probe_single_failure(link, &mut prng);
            for &(id, won) in &outcome.details {
                if !won {
                    continue;
                }
                let conn = mgr.connection(id).expect("probed connection");
                let latency = model
                    .switchover_latency(conn, link)
                    .expect("winner implies failed on primary and a backup");
                let ms = latency.as_secs_f64() * 1e3;
                stats.push(ms);
                samples.push(ms);
                hops.push(conn.backup().expect("a winner holds its backup").len() as f64);
            }
        }
        samples.sort_by(f64::total_cmp);
        // The sample at rank round(q · (n − 1)), or 0 without samples.
        let quantile = |q: f64| {
            let rank = (q * samples.len().saturating_sub(1) as f64).round() as usize;
            samples.get(rank).copied().unwrap_or(0.0)
        };
        println!(
            "{:<10} {:>10} {:>12.2} {:>11.2} {:>11.2} {:>12.2}",
            kind.label(),
            stats.count(),
            stats.mean(),
            quantile(0.5),
            quantile(0.99),
            hops.mean(),
        );
    }

    println!(
        "\nfor contrast, the paper cites reactive re-establishment at\n\
         \"several seconds or longer, especially in heavily-loaded networks\"."
    );
    Ok(())
}
