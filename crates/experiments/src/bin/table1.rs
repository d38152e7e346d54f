//! Prints Table 1 (the simulation parameters).

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::paper(3.0);
    print!("{}", cfg.table1());
    println!();
    println!(
        "Topology check: E=3 -> {}, E=4 -> {}",
        ExperimentConfig::paper(3.0).build_network().unwrap(),
        ExperimentConfig::paper(4.0).build_network().unwrap()
    );
}
