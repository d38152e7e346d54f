//! Dynamic availability under a sustained link failure/repair process —
//! the operational regime Figure 4's static estimator upper-bounds.
//!
//! Usage: `availability [--quick]`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::availability::replay_with_failures;
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::{replay, SchemeKind};
use drt_sim::workload::{FailureProcess, TrafficPattern};
use drt_sim::SimDuration;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut cfg = if quick {
        ExperimentConfig::quick(3.0)
    } else {
        ExperimentConfig::paper(3.0)
    };
    if quick {
        cfg.duration = SimDuration::from_minutes(100);
        cfg.warmup = SimDuration::from_minutes(45);
    }
    let net = Arc::new(cfg.build_network().expect("paper topology"));

    for &(rate, mttr_min) in &[(6.0, 5u64), (30.0, 5), (120.0, 5)] {
        let mut scfg = cfg.scenario_config(0.4, TrafficPattern::ut());
        scfg.failures = Some(FailureProcess {
            failures_per_hour: rate,
            mttr: SimDuration::from_minutes(mttr_min),
        });
        let scenario = scfg.generate_with_links(cfg.nodes, net.num_links());
        eprintln!("replaying λ=0.4 with {rate} failures/hour, MTTR {mttr_min} min ...");
        println!(
            "\n=== {rate} failures/hour, MTTR {mttr_min} min ({} failures recorded) ===",
            scenario.failures().count()
        );
        println!(
            "{:<10} {:>9} {:>10} {:>10} {:>8} {:>12} {:>12} {:>10}",
            "scheme",
            "reconfig",
            "static-P",
            "dynamic-P",
            "lost",
            "reprotected",
            "reoptimized",
            "failures"
        );
        for kind in SchemeKind::paper_schemes() {
            let static_p = replay(&net, &scenario, kind, &cfg).p_act_bk();
            for reconfigure in [true, false] {
                let m = replay_with_failures(&net, &scenario, kind, &cfg, reconfigure);
                println!(
                    "{:<10} {:>9} {:>10.4} {:>10.4} {:>8} {:>12} {:>12} {:>10}",
                    m.scheme,
                    if reconfigure { "on" } else { "off" },
                    static_p,
                    m.activation_ratio().unwrap_or(1.0),
                    m.lost,
                    m.reprotected,
                    m.reoptimized,
                    m.failures,
                );
            }
        }
    }
    println!(
        "\nreading guide: the static column is Figure 4's estimator; the dynamic\n\
         column is what a live failure process achieves. Reconfiguration (DRTP\n\
         step 4: re-protect after switchovers, re-optimise after repairs) is\n\
         what keeps the two close — without it protection decays as failures\n\
         consume backups."
    );
}
