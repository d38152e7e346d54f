//! The parallel-runner determinism contract, end to end: every sweep's
//! rendered output must be byte-identical whatever the worker count.

use drt_experiments::config::ExperimentConfig;
use drt_experiments::regimes::{merged_telemetry, prepare_network, run, SweepConfig, Table};
use drt_experiments::runner::{run_matrix_jobs, SchemeKind};
use drt_sim::workload::TrafficPattern;

fn small_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(3.0);
    cfg.nodes = 20;
    cfg
}

/// Every orchestrated sweep's table *and* its merged telemetry snapshot
/// are part of the byte-identity contract (the campaign binary prints
/// the adversarial snapshot), so neither may depend on scheduling.
#[test]
fn regime_tables_and_telemetry_are_byte_identical_across_job_counts() {
    let cfg = small_cfg();
    for table in Table::ALL {
        let (schemes, strengths) = match table {
            // D-LSR over a lossless and a 10 %-loss control plane.
            Table::ControlLoss => (vec![SchemeKind::DLsr], vec![0, 100]),
            // D-LSR under a rare and a sustained failure process.
            Table::Availability => (vec![SchemeKind::DLsr], vec![6, 30]),
            _ => (vec![SchemeKind::DLsr, SchemeKind::Bf], vec![2, 4]),
        };
        let scfg = SweepConfig {
            regimes: table.regimes(),
            schemes,
            strengths,
            connections: 25,
            events: 3,
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
