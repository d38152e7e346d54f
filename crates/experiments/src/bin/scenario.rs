//! Scenario-file tool: generate, inspect, and replay the recorded
//! workload files the evaluation methodology is built on.
//!
//! ```text
//! scenario generate --out FILE [--lambda 0.4] [--nodes 60] [--minutes 240]
//!                   [--pattern ut|nt] [--seed 2001] [--degree 3|4]
//!                   [--failures-per-hour R --mttr-min M]
//! scenario info FILE
//! scenario replay FILE [--scheme d-lsr|p-lsr|bf|spf|dedicated|nobackup]
//!                      [--degree 3|4]
//! scenario topology --out FILE [--nodes 60] [--degree 3] [--seed 60]
//! scenario topology-info FILE
//! ```
//!
//! Every flag takes a value, and a flag the subcommand does not know is
//! an error, never silently ignored.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::{replay, SchemeKind};
use drt_sim::stats::OnlineStats;
use drt_sim::workload::{FailureProcess, Scenario, TrafficPattern};
use drt_sim::SimDuration;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        Some("topology") => topology_gen(&args[1..]),
        Some("topology-info") => topology_info(&args[1..]),
        _ => Err(
            "usage: scenario <generate|info|replay|topology|topology-info> ... \
             (see the module docs)"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Refuses the first `--flag` in `args` that is not in `known`; each known
/// flag's value is skipped, so a value is never read as a flag.
fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            continue;
        }
        if !known.contains(&a.as_str()) {
            return Err(match known {
                [] => format!("unknown flag {a}: this subcommand takes no flags"),
                _ => format!("unknown flag {a}: expected one of {}", known.join(", ")),
            });
        }
        rest.next();
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--out",
            "--lambda",
            "--nodes",
            "--minutes",
            "--pattern",
            "--seed",
            "--degree",
            "--failures-per-hour",
            "--mttr-min",
        ],
    )?;
    let out = flag(args, "--out").ok_or("generate requires --out FILE")?;
    let lambda: f64 = parse(args, "--lambda", 0.4)?;
    let nodes: usize = parse(args, "--nodes", 60)?;
    let minutes: u64 = parse(args, "--minutes", 240)?;
    let seed: u64 = parse(args, "--seed", 2001)?;
    let rate: f64 = parse(args, "--failures-per-hour", 0.0)?;
    // The generators assert these; refuse them here with a message.
    if nodes < 2 {
        return Err(format!("--nodes must be at least 2, got {nodes}"));
    }
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(format!(
            "--lambda must be finite and positive, got {lambda}"
        ));
    }
    if !(rate.is_finite() && rate >= 0.0) {
        return Err(format!(
            "--failures-per-hour must be finite and non-negative, got {rate}"
        ));
    }
    let pattern = match flag(args, "--pattern").as_deref() {
        None | Some("ut") | Some("UT") => TrafficPattern::ut(),
        Some("nt") | Some("NT") => {
            let mut rng = drt_sim::rng::stream(seed, "hotset");
            TrafficPattern::nt_paper(nodes, &mut rng)
        }
        Some(other) => return Err(format!("unknown pattern {other}")),
    };
    let degree: f64 = parse(args, "--degree", 3.0)?;
    let mut cfg = ExperimentConfig::paper(degree);
    cfg.seed = seed;
    cfg.nodes = nodes;
    cfg.duration = SimDuration::from_minutes(minutes);
    let mut scfg = cfg.scenario_config(lambda, pattern);
    let scenario = if rate > 0.0 {
        let mttr_min: u64 = parse(args, "--mttr-min", 5)?;
        scfg.failures = Some(FailureProcess {
            failures_per_hour: rate,
            mttr: SimDuration::from_minutes(mttr_min),
        });
        let net = cfg.build_network().map_err(|e| e.to_string())?;
        scfg.generate_with_links(nodes, net.num_links())
    } else {
        scfg.generate(nodes)
    };
    std::fs::write(&out, scenario.to_text()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}: {scenario}");
    Ok(())
}

fn topology_gen(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--out", "--nodes", "--degree", "--seed"])?;
    let out = flag(args, "--out").ok_or("topology requires --out FILE")?;
    let nodes: usize = parse(args, "--nodes", 60)?;
    let degree: f64 = parse(args, "--degree", 3.0)?;
    let seed: u64 = parse(args, "--seed", 60)?;
    let net = drt_net::topology::WaxmanConfig::new(nodes, degree)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    std::fs::write(&out, net.to_text()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}: {net}");
    Ok(())
}

fn topology_info(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    let path = args.first().ok_or("topology-info requires a FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let net = drt_net::Network::from_text(&text).map_err(|e| e.to_string())?;
    println!("{net}");
    let hops = drt_net::algo::AllPairsHops::compute(&net);
    println!(
        "connected: {} | diameter: {} hops | mean distance: {:.2} hops",
        net.is_connected(),
        hops.diameter(),
        hops.average_hops()
    );
    let bridges = drt_net::algo::bridges(&net);
    println!(
        "bridges: {} | total capacity: {}",
        bridges.len(),
        net.total_capacity()
    );
    // Degree histogram.
    let mut hist = std::collections::BTreeMap::<usize, usize>::new();
    for n in net.nodes() {
        *hist.entry(net.out_links(n).len()).or_default() += 1;
    }
    print!("degree histogram:");
    for (deg, count) in hist {
        print!(" {deg}:{count}");
    }
    println!();
    Ok(())
}

fn load(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Scenario::from_text(&text)
}

fn info(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    let path = args.first().ok_or("info requires a FILE")?;
    let s = load(path)?;
    println!("{s}");
    let mut lifetimes = OnlineStats::new();
    let mut dst_hist = std::collections::BTreeMap::<u32, u64>::new();
    for r in s.requests() {
        lifetimes.push(r.lifetime().as_secs_f64() / 60.0);
        *dst_hist.entry(r.dst.as_u32()).or_default() += 1;
    }
    println!("lifetimes (minutes): {lifetimes}");
    let offered = drt_sim::stats::offered_load_erlangs(
        s.len() as u64,
        s.duration(),
        SimDuration::from_secs_f64(lifetimes.mean() * 60.0),
    );
    println!("offered load: {offered:.0} Erlangs (concurrent connections at equilibrium)");
    let n_failures = s.failures().count();
    if n_failures > 0 {
        println!("failure process: {n_failures} link failures recorded (with repairs)");
    }
    let mut dsts: Vec<_> = dst_hist.into_iter().collect();
    dsts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    print!("hottest destinations:");
    for (node, count) in dsts.iter().take(5) {
        print!(" n{node}×{count}");
    }
    println!();
    Ok(())
}

fn run_replay(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--scheme", "--degree"])?;
    let path = args.first().ok_or("replay requires a FILE")?;
    let scenario = load(path)?;
    let degree: f64 = parse(args, "--degree", 3.0)?;
    let kind = match flag(args, "--scheme")
        .as_deref()
        .map(str::to_lowercase)
        .as_deref()
    {
        None | Some("d-lsr") | Some("dlsr") => SchemeKind::DLsr,
        Some("p-lsr") | Some("plsr") => SchemeKind::PLsr,
        Some("bf") => SchemeKind::Bf,
        Some("spf") => SchemeKind::Spf,
        Some("dedicated") => SchemeKind::Dedicated,
        Some("nobackup") => SchemeKind::NoBackup,
        Some(other) => return Err(format!("unknown scheme {other}")),
    };
    let mut cfg = ExperimentConfig::paper(degree);
    cfg.duration = scenario.duration();
    // Warm up over the first quarter, capped at the config's default.
    cfg.warmup = SimDuration::from_micros(scenario.duration().as_micros() / 4).min(cfg.warmup);
    let net = Arc::new(cfg.build_network().map_err(|e| e.to_string())?);
    let m = replay(&net, &scenario, kind, &cfg);
    println!("{m}");
    println!(
        "  P_act-bk {:.4} | acceptance {:.1}% | avg active {:.1} | spare {:.1}% of capacity",
        m.p_act_bk(),
        100.0 * m.acceptance(),
        m.avg_active,
        100.0 * m.spare_fraction
    );
    println!(
        "  primary {:.2} hops | backup {:.2} hops | control {:.0} msgs ({:.1} KiB) per connection",
        m.avg_primary_hops,
        m.avg_backup_hops,
        m.msgs_per_conn,
        m.bytes_per_conn / 1024.0
    );
    Ok(())
}
