//! Runs the complete evaluation: Table 1, Figures 4 and 5, and the
//! overhead comparison, sharing one measurement matrix per degree.
//!
//! Usage: `all [--quick] [--csv DIR]`
//!
//! With `--csv DIR`, the full per-cell metrics of each degree's campaign
//! are also written to `DIR/metrics_e3.csv` / `DIR/metrics_e4.csv` for
//! downstream plotting.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::{run_matrix, SchemeKind};
use drt_experiments::{capacity, fault_tolerance, overhead, report};
use drt_sim::workload::TrafficPattern;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();
    println!("{}", ExperimentConfig::paper(3.0).table1());

    for degree in [3.0, 4.0] {
        let cfg = if quick {
            ExperimentConfig::quick(degree)
        } else {
            ExperimentConfig::paper(degree)
        };
        eprintln!("running full campaign for E = {degree} ...");
        let kinds = [
            SchemeKind::DLsr,
            SchemeKind::PLsr,
            SchemeKind::Bf,
            SchemeKind::NoBackup,
        ];
        let metrics = run_matrix(
            &cfg,
            &cfg.lambda_sweep(),
            &kinds,
            &[("UT", TrafficPattern::ut()), ("NT", cfg.nt_pattern())],
        );

        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/metrics_e{}.csv", degree as u32);
            if let Err(e) = std::fs::write(&path, report::metrics_csv(&metrics)) {
                eprintln!("could not write {path}: {e}");
            } else {
                eprintln!("wrote {path}");
            }
        }
        println!("{}", fault_tolerance::render(&metrics, &cfg));
        for (claim, holds) in fault_tolerance::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
        println!("{}", capacity::render(&metrics, &cfg));
        for (claim, holds) in capacity::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
        println!("{}", overhead::render(&metrics, &cfg));
        for (claim, holds) in overhead::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
    }
}
