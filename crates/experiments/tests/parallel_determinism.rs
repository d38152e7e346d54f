//! The parallel-runner determinism contract, end to end: every sweep's
//! rendered output must be byte-identical whatever the worker count.

use drt_core::orchestrator::RetryPolicy;
use drt_experiments::campaign::{
    render, render_breakdown, render_header, render_row, run_campaign_jobs, stream_campaign,
    CampaignConfig,
};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::regimes::{merged_telemetry, prepare_network, run, SweepConfig, Table};
use drt_experiments::runner::{run_matrix_jobs, SchemeKind};
use drt_sim::workload::TrafficPattern;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(3.0);
    cfg.nodes = 20;
    cfg
}

#[test]
fn campaign_table_is_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.0, 0.05, 0.10],
        connections: 25,
        failures: 3,
        max_attempts: 10,
        seed: 13,
    };
    let net = cfg.build_network().unwrap();
    let serial = render(&net, &run_campaign_jobs(&cfg, &ccfg, 1));
    for jobs in [2, 3, 8] {
        let par = render(&net, &run_campaign_jobs(&cfg, &ccfg, jobs));
        assert_eq!(serial, par, "jobs={jobs} changed the table bytes");
    }
}

/// The satellite contract for the sharded probe engine: with a single
/// loss rate, every worker the user asked for goes to the closing sweep
/// (sharded over failure units), and the table bytes still cannot move.
#[test]
fn campaign_sweep_table_is_byte_identical_for_jobs_1_and_8() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.10],
        connections: 25,
        failures: 3,
        max_attempts: 10,
        seed: 13,
    };
    let net = cfg.build_network().unwrap();
    let serial = render(&net, &run_campaign_jobs(&cfg, &ccfg, 1));
    let par = render(&net, &run_campaign_jobs(&cfg, &ccfg, 8));
    assert_eq!(serial, par, "sharded closing sweep changed the table bytes");
}

#[test]
fn streamed_output_reproduces_batch_render() {
    let cfg = small_cfg();
    let ccfg = CampaignConfig {
        loss_rates: vec![0.0, 0.10],
        connections: 20,
        failures: 2,
        max_attempts: 10,
        seed: 13,
    };
    let net = cfg.build_network().unwrap();
    let batch = render(&net, &run_campaign_jobs(&cfg, &ccfg, 1));
    // Exactly what the campaign binary does: header, rows as they
    // complete, breakdowns buffered to the end.
    let mut streamed = render_header(&net);
    let mut breakdowns = String::new();
    stream_campaign(&cfg, &ccfg, 8, |row| {
        streamed.push_str(&render_row(&row));
        breakdowns.push_str(&render_breakdown(&row));
    });
    streamed.push_str(&breakdowns);
    assert_eq!(batch, streamed);
}

/// Every orchestrated sweep's table *and* its merged telemetry snapshot
/// are part of the byte-identity contract (the campaign binary prints
/// the adversarial snapshot), so neither may depend on scheduling.
#[test]
fn regime_tables_and_telemetry_are_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    for table in Table::ALL {
        let scfg = SweepConfig {
            regimes: table.regimes(),
            schemes: vec![SchemeKind::DLsr, SchemeKind::Bf],
            strengths: vec![2, 4],
            connections: 25,
            events: 3,
            policy: RetryPolicy::default(),
            seed: 13,
        };
        let net = prepare_network(&cfg, scfg.seed);
        let output = |jobs| {
            let rows = run(&cfg, &scfg, jobs);
            (
                table.render(&net, &rows),
                merged_telemetry(&rows).snapshot(),
            )
        };
        let serial = output(1);
        for jobs in [2, 8] {
            let (rendered, telemetry) = output(jobs);
            assert_eq!(
                serial.0, rendered,
                "{table:?}: jobs={jobs} changed the table bytes"
            );
            assert_eq!(
                serial.1, telemetry,
                "{table:?}: jobs={jobs} changed the telemetry snapshot bytes"
            );
        }
    }
}

#[test]
fn replay_matrix_is_identical_across_job_counts() {
    let mut cfg = small_cfg();
    cfg.duration = drt_sim::SimDuration::from_minutes(50);
    cfg.warmup = drt_sim::SimDuration::from_minutes(25);
    cfg.snapshots = 1;
    let lambdas = [0.1, 0.2];
    let kinds = [SchemeKind::DLsr, SchemeKind::Bf];
    let patterns = [("UT", TrafficPattern::ut())];
    let serial = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, 1);
    let par = run_matrix_jobs(&cfg, &lambdas, &kinds, &patterns, 8);
    assert_eq!(format!("{serial:?}"), format!("{par:?}"));
}
