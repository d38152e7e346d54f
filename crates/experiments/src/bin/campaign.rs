//! Failure campaigns: the control-plane loss sweep, the correlated
//! multi-failure sweep, and the adversarial sweep.
//!
//! The loss sweep drives the distributed engine under 0–20 % per-hop
//! control-packet loss; the multi-failure sweep injects correlated
//! events (independent links → SRLG bursts → router crashes) and
//! recovers them through the orchestrator; the adversarial sweep pits
//! the schemes against byzantine routers and hostile workloads, with
//! and without countermeasures. All report recovery latency,
//! `P_act-bk`, and degradation, deterministically per seed.
//!
//! Usage: `campaign [--quick] [--seed N] [--regime NAME] [--jobs N]`
//!
//! * `--quick`        reduced horizon and event counts (CI);
//! * `--seed N`       master seed for every sweep (default 7);
//! * `--regime NAME`  run only the sweep owning that regime: a
//!   multi-failure one (`indep-links`, `srlg-bursts`, `node-crashes`),
//!   an adversarial one (`byzantine-lsa`, `false-reports`,
//!   `flash-crowd`, `regional-storm`), or the restart one
//!   (`restart-storm`);
//! * `--jobs N`       worker threads for the sweeps (default 1); the
//!   output is byte-identical for every job count.

use drt_experiments::adversarial::{
    merged_telemetry, render as render_adversarial, run_adversarial_jobs, AdversarialConfig,
    AdversarialRegime,
};
use drt_experiments::campaign::{
    render_breakdown, render_header, render_row, stream_campaign, CampaignConfig,
};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::multi_failure::{
    prepare_network, render as render_multi, run_multi_failure_jobs, FailureRegime,
    MultiFailureConfig,
};
use drt_experiments::restart::{
    render as render_restart, run_restart_jobs, RestartConfig, RestartRegime,
};
use std::io::Write;

/// A `--regime` operand: each name belongs to exactly one sweep.
#[derive(Debug, Clone, Copy)]
enum RegimeArg {
    Failure(FailureRegime),
    Adversarial(AdversarialRegime),
    Restart(RestartRegime),
}

fn parse_regime(v: &str) -> Option<RegimeArg> {
    FailureRegime::parse(v)
        .map(RegimeArg::Failure)
        .or_else(|| AdversarialRegime::parse(v).map(RegimeArg::Adversarial))
        .or_else(|| RestartRegime::parse(v).map(RegimeArg::Restart))
}

fn known_regimes() -> Vec<&'static str> {
    FailureRegime::ALL
        .iter()
        .map(|r| r.label())
        .chain(AdversarialRegime::ALL.iter().map(|r| r.label()))
        .chain(RestartRegime::ALL.iter().map(|r| r.label()))
        .collect()
}

fn main() {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut regime: Option<RegimeArg> = None;
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
                regime = Some(parse_regime(&v).unwrap_or_else(|| {
                    eprintln!(
                        "campaign: unknown regime {v:?}; known: {:?}",
                        known_regimes()
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
    let net = cfg.build_network().expect("paper topology");

    let mut mcfg = MultiFailureConfig::default();
    if quick {
        mcfg.connections = 40;
        mcfg.events = 3;
    }
    if let Some(s) = seed {
        mcfg.seed = s;
    }
    let mut acfg = AdversarialConfig::default();
    if quick {
        acfg.connections = 40;
        acfg.events = 3;
        acfg.strengths = vec![1, 3];
    }
    if let Some(s) = seed {
        acfg.seed = s;
    }
    let mut rcfg = RestartConfig::default();
    if quick {
        rcfg.connections = 40;
        rcfg.intensities = vec![4, 8];
    }
    if let Some(s) = seed {
        rcfg.seed = s;
    }
    match regime {
        Some(RegimeArg::Failure(r)) => mcfg.regimes = vec![r],
        Some(RegimeArg::Adversarial(r)) => acfg.regimes = vec![r],
        Some(RegimeArg::Restart(_)) | None => {}
    }

    // `--regime` focuses the run on the sweep owning that regime (CI
    // smoke runs one tiny row per regime); otherwise every sweep runs.
    if regime.is_none() {
        let mut ccfg = CampaignConfig::default();
        if quick {
            ccfg.connections = 40;
            ccfg.failures = 4;
        }
        if let Some(s) = seed {
            ccfg.seed = s;
        }
        eprintln!(
            "campaign: {} connections, {} failures, loss rates {:?}, seed {}, jobs {} ...",
            ccfg.connections, ccfg.failures, ccfg.loss_rates, ccfg.seed, jobs
        );
        // Rows stream to stdout in canonical order as workers finish;
        // the worst-links breakdown buffers until the table completes.
        // Byte-identical to `render()` of the collected rows.
        print!("{}", render_header(&net));
        let mut breakdowns = String::new();
        stream_campaign(&cfg, &ccfg, jobs, |row| {
            print!("{}", render_row(&row));
            let _ = std::io::stdout().flush();
            breakdowns.push_str(&render_breakdown(&row));
        });
        print!("{breakdowns}");
        println!();
        println!(
            "reading guide: every control packet crosses a chaotic plane that\n\
             drops each hop with probability `loss%` (plus 2% duplication and\n\
             200us jitter). Retransmission with exponential backoff keeps the\n\
             signalling live: `retx` counts retries, `exh` counts transactions\n\
             that ran out of attempts, and `degr` the connections that came up\n\
             unprotected as a result. Between failures DRTP's reconfiguration\n\
             step re-establishes backups (`reprot`); `P_act-bk` is then probed\n\
             on the post-campaign state, with `probeD` of the shortfall due to\n\
             degradation rather than activation contention. The table is\n\
             deterministic per seed.\n"
        );
    }

    if matches!(regime, None | Some(RegimeArg::Failure(_))) {
        eprintln!(
            "multi-failure: {} connections, {} events/regime, regimes {:?}, seed {}, jobs {} ...",
            mcfg.connections,
            mcfg.events,
            mcfg.regimes.iter().map(|r| r.label()).collect::<Vec<_>>(),
            mcfg.seed,
            jobs
        );
        let rows = run_multi_failure_jobs(&cfg, &mcfg, jobs);
        println!("{}", render_multi(&prepare_network(&cfg, &mcfg), &rows));
        println!(
            "reading guide: each event fails its whole correlated set at once\n\
             (`links` counts the members) and all affected backups contend in\n\
             one activation pass. Survivors re-protect through the recovery\n\
             orchestrator: retries with exponential backoff, flapping links\n\
             quarantined (`quar`) from new backups, and connections whose\n\
             retries exhaust counted as `orphan` — protection the regime\n\
             permanently destroyed. `P_act-bk` is probed on the final state.\n\
             Rows share the workload substream, so regimes are comparable and\n\
             the table is deterministic per seed.\n"
        );
    }

    if matches!(regime, None | Some(RegimeArg::Adversarial(_))) {
        eprintln!(
            "adversarial: {} connections, {} rounds/cell, regimes {:?}, strengths {:?}, seed {}, jobs {} ...",
            acfg.connections,
            acfg.events,
            acfg.regimes.iter().map(|r| r.label()).collect::<Vec<_>>(),
            acfg.strengths,
            acfg.seed,
            jobs
        );
        let rows = run_adversarial_jobs(&cfg, &acfg, jobs);
        println!("{}", render_adversarial(&net, &rows));
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

    if matches!(regime, None | Some(RegimeArg::Restart(_))) {
        eprintln!(
            "restart-storm: {} connections, intensities {:?}, {} waves, seed {}, jobs {} ...",
            rcfg.connections, rcfg.intensities, rcfg.waves, rcfg.seed, jobs
        );
        let rows = run_restart_jobs(&cfg, &rcfg, jobs);
        println!("{}", render_restart(&net, &rows));
        println!(
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
        );
    }
}
