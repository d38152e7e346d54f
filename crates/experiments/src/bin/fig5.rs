//! Regenerates Figure 5: capacity overhead (%) vs. λ for E = 3 and E = 4.
//!
//! Usage: `fig5 [--quick]`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::{capacity, report};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for degree in [3.0, 4.0] {
        let cfg = if quick {
            ExperimentConfig::quick(degree)
        } else {
            ExperimentConfig::paper(degree)
        };
        eprintln!("running figure 5 campaign for E = {degree} ...");
        let metrics = capacity::run(&cfg);
        println!("{}", capacity::render(&metrics, &cfg));
        for (claim, holds) in capacity::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
    }
}
