//! Regenerates Figure 4: fault tolerance `P_act-bk` vs. λ for E = 3 and
//! E = 4, under UT and NT traffic, for D-LSR, P-LSR and BF.
//!
//! Usage: `fig4 [--quick]`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::{fault_tolerance, report};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for degree in [3.0, 4.0] {
        let cfg = if quick {
            ExperimentConfig::quick(degree)
        } else {
            ExperimentConfig::paper(degree)
        };
        eprintln!("running figure 4 campaign for E = {degree} ...");
        let metrics = fault_tolerance::run(&cfg);
        println!("{}", fault_tolerance::render(&metrics, &cfg));
        for (claim, holds) in fault_tolerance::expectations(&metrics, &cfg.lambda_sweep()) {
            print!("{}", report::verdict(&claim, holds));
        }
        println!();
    }
}
