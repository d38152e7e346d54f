//! Bounded exhaustive model check of the signalling plane.
//!
//! ```text
//! cargo run --release -p verify --bin check -- [--depth N] [--max-faults N]
//!                                              [--scenario NAME] [--bug NAME]
//!                                              [--no-baseline]
//! ```
//!
//! For each scenario the checker explores every fate script (drop /
//! duplicate / delay at the first `depth` delivery decisions, at most
//! `max-faults` faults per run), asserting every engine invariant in
//! every explored state. Unless `--no-baseline` is given, the same
//! space is re-explored with partial-order reduction and fingerprint
//! pruning disabled to measure the reduction factor.
//!
//! Exits nonzero when a violation is found, or when the reduced
//! exploration saves less than 2x over the baseline.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::process::ExitCode;

use drt_proto::SeededBug;
use verify::checker::{check, CheckConfig, CheckReport};
use verify::scenario::{self, Scenario};

struct Args {
    cfg: CheckConfig,
    scenario: Option<String>,
    bug: SeededBug,
    baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: CheckConfig::default(),
        scenario: None,
        bug: SeededBug::None,
        baseline: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--depth" => {
                args.cfg.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--max-faults" => {
                args.cfg.max_faults = value("--max-faults")?
                    .parse()
                    .map_err(|e| format!("--max-faults: {e}"))?
            }
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--bug" => {
                args.bug = match value("--bug")?.as_str() {
                    "none" => SeededBug::None,
                    "double-register" => SeededBug::DoubleRegister,
                    "trust-reports" => SeededBug::TrustReports,
                    other => return Err(format!("unknown bug {other:?}")),
                }
            }
            "--no-baseline" => args.baseline = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn print_report(report: &CheckReport, label: &str) {
    let s = &report.stats;
    println!(
        "  [{label}] runs {} | events {} | distinct states {} | pruned {} | por-skips {} | max decisions {}",
        s.runs, s.steps, s.distinct_states, s.pruned, s.por_skips, s.max_decisions
    );
    if let Some(cx) = &report.counterexample {
        println!(
            "  counterexample ({} fault(s)): {:?}",
            cx.faults(),
            cx.script
        );
        println!("  violation: {}", cx.violation);
        for (i, d) in cx.decisions.iter().enumerate() {
            println!(
                "    decision {i}: {} ({} hops) -> {:?}",
                d.kind, d.hops, d.fate
            );
        }
    }
}

fn run_scenario(s: &Scenario, args: &Args) -> bool {
    println!(
        "scenario {}: depth {}, max faults {}",
        s.name, args.cfg.depth, args.cfg.max_faults
    );
    let reduced = check(s, args.bug, &args.cfg);
    print_report(&reduced, "reduced");
    let mut ok = reduced.ok();
    if let Some(cx) = &reduced.counterexample {
        match cx.replay(s, args.bug) {
            Some(v) if v.rule == cx.violation.rule => {
                println!("  replay: reproduces [{}]", v.rule)
            }
            Some(v) => println!("  replay: reaches different violation [{}]", v.rule),
            None => println!("  replay: does NOT reproduce the violation"),
        }
    }
    if args.baseline {
        let base = check(s, args.bug, &args.cfg.baseline());
        print_report(&base, "baseline");
        if base.ok() != reduced.ok() {
            println!("  MISMATCH: reductions changed the verdict");
            ok = false;
        }
        if reduced.ok() {
            let ratio = base.stats.runs as f64 / reduced.stats.runs.max(1) as f64;
            println!("  reduction: {:.2}x fewer runs than baseline", ratio);
            if ratio < 2.0 {
                println!("  FAIL: reduction below the required 2x");
                ok = false;
            }
        }
    }
    println!();
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenarios = scenario::all();
    let selected: Vec<&Scenario> = match &args.scenario {
        Some(name) => scenarios.iter().filter(|s| s.name == name).collect(),
        None => scenarios.iter().collect(),
    };
    if selected.is_empty() {
        eprintln!(
            "check: no such scenario; available: {}",
            scenarios
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }
    let mut all_ok = true;
    for s in selected {
        all_ok &= run_scenario(s, &args);
    }
    if all_ok {
        println!("check: all scenarios clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
