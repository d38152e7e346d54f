//! Failure campaigns: the orchestrated sweeps of
//! `drt_experiments::regimes` — control-plane loss, correlated
//! multi-failure, adversarial, restart storm, and dynamic availability.
//!
//! The loss sweep signals through the distributed engine under 0–20 %
//! per-hop control-packet loss; the multi-failure sweep injects
//! correlated events (independent links → SRLG bursts → router crashes)
//! and recovers them through the orchestrator; the adversarial sweep
//! pits the schemes against byzantine routers and hostile workloads,
//! with and without countermeasures; the restart sweep rolls router
//! restarts through the network, amnesia vs. journaled rejoin; the
//! availability sweep replays a recorded link failure/repair process at
//! 6, 30 and 120 failures per hour, reconfiguration off vs. on. All
//! report recovery, `P_act-bk`, and degradation, deterministically per
//! seed.
//!
//! Usage: `campaign [--quick] [--seed N] [--regime NAME] [--jobs N]`
//!
//! * `--quick`        reduced horizon and event counts (CI);
//! * `--seed N`       master seed for every sweep (default 7);
//! * `--regime NAME`  run only that regime: `control-loss`,
//!   `indep-links`, `srlg-bursts`, `node-crashes`, `byzantine-lsa`,
//!   `false-reports`, `flash-crowd`, `regional-storm`, `restart-storm`,
//!   `availability`;
//! * `--jobs N`       worker threads for the sweeps (default 1); the
//!   output is byte-identical for every job count.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::regimes::{
    merged_telemetry, prepare_network, run, Regime, SweepConfig, Table,
};
use drt_experiments::runner::SchemeKind;

fn main() {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut regime: Option<Regime> = None;
    let mut jobs: usize = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("campaign: --seed needs an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--regime" => {
                let v = args.next().unwrap_or_default();
                regime = Some(Regime::parse(&v).unwrap_or_else(|| {
                    eprintln!(
                        "campaign: unknown regime {v:?}; known: {:?}",
                        Regime::ALL.map(Regime::label)
                    );
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("campaign: --jobs needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("campaign: unknown argument {other:?}");
                eprintln!("usage: campaign [--quick] [--seed N] [--regime NAME] [--jobs N]");
                std::process::exit(2);
            }
        }
    }

    let cfg = if quick {
        ExperimentConfig::quick(3.0)
    } else {
        ExperimentConfig::paper(3.0)
    };
    let seed = seed.unwrap_or(7);
    let net = prepare_network(&cfg, seed);

    // `--regime` focuses the run on that one regime (CI smoke runs one
    // tiny table per regime); otherwise every sweep runs.
    for table in Table::ALL {
        if regime.is_some_and(|r| r.table() != table) {
            continue;
        }
        let paper = SchemeKind::paper_schemes().to_vec();
        let (schemes, strengths) = match table {
            // D-LSR alone, at 0–20 % per-hop loss (in per mille).
            Table::ControlLoss => (vec![SchemeKind::DLsr], vec![0, 50, 100, 150, 200]),
            // D-LSR alone; correlated regimes have no strength knob.
            Table::Correlated => (vec![SchemeKind::DLsr], vec![0]),
            Table::Adversarial if quick => (paper, vec![1, 3]),
            Table::Adversarial => (paper, vec![1, 2, 4]),
            Table::Restart if quick => (paper, vec![4, 8]),
            Table::Restart => (paper, vec![4, 8, 16]),
            // Link failures per hour; the scenario sets the horizon.
            Table::Availability => (paper, vec![6, 30, 120]),
        };
        let scfg = SweepConfig {
            regimes: regime.map_or_else(|| table.regimes(), |r| vec![r]),
            schemes,
            strengths,
            connections: if quick { 40 } else { 100 },
            events: match (table, quick) {
                (_, false) => 6,
                (Table::ControlLoss, true) => 4,
                (_, true) => 3,
            },
            seed,
        };
        eprintln!(
            "{table:?}: {} connections, {} rounds/cell, regimes {:?}, strengths {:?}, seed {}, jobs {} ...",
            scfg.connections,
            scfg.events,
            scfg.regimes.iter().map(|r| r.label()).collect::<Vec<_>>(),
            scfg.strengths,
            scfg.seed,
            jobs
        );
        let rows = run(&cfg, &scfg, jobs);
        println!("{}", table.render(&net, &rows));
        if table == Table::Adversarial {
            println!("campaign telemetry (merged across cells):");
            for line in merged_telemetry(&rows).snapshot().lines() {
                println!("  {line}");
            }
        }
    }
}
