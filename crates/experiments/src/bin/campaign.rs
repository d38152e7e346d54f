//! Failure campaigns: the orchestrated sweeps of
//! `drt_experiments::regimes` — control-plane loss, correlated
//! multi-failure, adversarial, and restart storm.
//!
//! The loss sweep signals through the distributed engine under 0–20 %
//! per-hop control-packet loss; the multi-failure sweep injects
//! correlated events (independent links → SRLG bursts → router crashes)
//! and recovers them through the orchestrator; the adversarial sweep
//! pits the schemes against byzantine routers and hostile workloads,
//! with and without countermeasures; the restart sweep rolls router
//! restarts through the network, amnesia vs. journaled rejoin. All
//! report recovery latency, `P_act-bk`, and degradation,
//! deterministically per seed.
//!
//! Usage: `campaign [--quick] [--seed N] [--regime NAME] [--jobs N]`
//!
//! * `--quick`        reduced horizon and event counts (CI);
//! * `--seed N`       master seed for every sweep (default 7);
//! * `--regime NAME`  run only that regime: `control-loss`,
//!   `indep-links`, `srlg-bursts`, `node-crashes`, `byzantine-lsa`,
//!   `false-reports`, `flash-crowd`, `regional-storm`, `restart-storm`;
//! * `--jobs N`       worker threads for the sweeps (default 1); the
//!   output is byte-identical for every job count.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_core::orchestrator::RetryPolicy;
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
            policy: RetryPolicy::default(),
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
        match table {
            Table::ControlLoss => println!(
                "reading guide: every control packet crosses a chaotic plane that\n\
                 drops each hop with probability `loss%` (plus 2% duplication and\n\
                 200us jitter). Retransmission with exponential backoff keeps the\n\
                 signalling live: `retx` counts retries, `exh` counts transactions\n\
                 that ran out of attempts, and `degr` the connections that came up\n\
                 unprotected as a result. Between failures DRTP's reconfiguration\n\
                 step re-establishes backups (`reprot`); `P_act-bk` is then probed\n\
                 on the post-campaign state, with `probeD` of the shortfall due to\n\
                 degradation rather than activation contention. `inv` counts the\n\
                 quiesced states (after establishment, after every round) that\n\
                 fail the protocol engine's own invariant audit. The table is\n\
                 deterministic per seed.\n"
            ),
            Table::Correlated => println!(
                "reading guide: each event fails its whole correlated set at once\n\
                 (`links` counts the members) and all affected backups contend in\n\
                 one activation pass. Survivors re-protect through the recovery\n\
                 orchestrator: retries with exponential backoff, flapping links\n\
                 quarantined (`quar`) from new backups, and connections whose\n\
                 retries exhaust counted as `orphan` — protection the regime\n\
                 permanently destroyed. `P_act-bk` is probed on the final state.\n\
                 Rows share the workload substream, so regimes are comparable and\n\
                 the table is deterministic per seed.\n"
            ),
            Table::Adversarial => {
                println!(
                    "reading guide: byzantine regimes run one undefended and one\n\
                     defended arm per cell (`def`). `f-rep` counts the lies fired,\n\
                     `f-rr` the spurious switchovers they caused, `vetoed` the lies\n\
                     report verification rejected, and `quar` the routers + links the\n\
                     countermeasures quarantined. `orphan` counts connections whose\n\
                     re-protection exhausted its retries; `rec-p50`/`rec-p95` are\n\
                     recovery-latency percentiles from the telemetry histogram, and\n\
                     `P_act-bk` is probed on the post-campaign state. Every column is\n\
                     a projection of the merged telemetry below; the table is\n\
                     deterministic per seed and byte-identical for every --jobs.\n"
                );
                println!("campaign telemetry (merged across cells):");
                for line in merged_telemetry(&rows).snapshot().lines() {
                    println!("  {line}");
                }
            }
            Table::Restart => println!(
                "reading guide: every cell runs twice — `amnesia` restarts lose\n\
                 all router state (spurious switchovers `spur-sw`, forgotten\n\
                 backup registrations `reg-lst`, connections dropped outright by\n\
                 a restarted terminal `lost`), `journal` restarts replay the\n\
                 write-ahead journal and resync with their neighbours (`recov`\n\
                 table entries recovered, nothing else moves). The orchestrator\n\
                 re-protects whatever each restart disturbed before the next\n\
                 wave member goes down. `P_act-bk` probes the survivors; `P_eff`\n\
                 scales it by storm survival, pricing destroyed connections.\n\
                 The table is deterministic per seed and byte-identical for\n\
                 every --jobs.\n"
            ),
        }
    }
}
