//! Regenerates the route-discovery overhead comparison (discussed in the
//! paper's Section 6 text and conclusion).
//!
//! Usage: `overhead [--quick]`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::SchemeKind;
use drt_experiments::{overhead, report, signalling};
use drt_sim::workload::TrafficPattern;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for degree in [3.0, 4.0] {
        let cfg = if quick {
            ExperimentConfig::quick(degree)
        } else {
            ExperimentConfig::paper(degree)
        };
        eprintln!("running overhead campaign for E = {degree} ...");
        let metrics = overhead::run(&cfg);
        println!("{}", overhead::render(&metrics, &cfg));
        for (claim, holds) in overhead::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
    }

    // Management signalling (setup/register/release walks), measured on
    // the message-level protocol at one representative load.
    eprintln!("running management-signalling replay ...");
    let mut cfg = ExperimentConfig::quick(3.0);
    cfg.duration = drt_sim::SimDuration::from_minutes(if quick { 40 } else { 90 });
    let net = Arc::new(cfg.build_network().expect("topology"));
    let scenario = cfg
        .scenario_config(0.3, TrafficPattern::ut())
        .generate(cfg.nodes);
    let reports: Vec<_> = SchemeKind::paper_schemes()
        .iter()
        .map(|&k| signalling::replay_signalling(&net, &scenario, k))
        .collect();
    println!("{}", signalling::render(&reports));
}
