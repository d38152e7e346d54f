//! `drt-benchmark`: the repository's benchmark.
//!
//! One process runs one workload: single-threaded, closed-loop, every
//! layer driven through its public functions only. A pass is set-up plus
//! a fixed sequence of operations derived from `--seed`; passes repeat
//! the same input until `--seconds` have elapsed, and what is reported
//! is the best pass, and each operation's best latency over the passes.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` turns spans
//! on for every other pass and reports the per-layer metrics. See
//! `README.md` in this directory.

mod clock;
mod hist;
mod meter;
mod probes;
mod report;
mod workloads;

use meter::Meter;
use report::Metric;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use workloads::{Params, Pass, Workload};

/// Spans buffered for `--trace-out` (48 bytes each); later spans still
/// enter every aggregate.
const SPAN_CAPACITY: usize = 200_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
    list: bool,
}

const USAGE: &str = "usage: drt-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--trace-out <file>] [--smoke]\n       drt-benchmark --list";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2001,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        smoke: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Prints the catalogue: workloads, then every metric with its unit,
/// direction and (end to end) bound.
fn list() {
    for w in &workloads::ALL {
        println!(
            "workload {}\n  why: {}\n  latency of: {}",
            w.name, w.why, w.primary_op
        );
    }
    for m in report::end_to_end(&Meter::new(None), 0.0) {
        println!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    let empty = meter::Trace::new(0);
    for m in report::per_layer(&report::TracedRun {
        trace: &empty,
        samples: &[],
        counts: workloads::Counts::default(),
        probes: probes::Probes::default(),
        calib_ns: 0.0,
        noisy: false,
    }) {
        println!("per_layer {} {} {}", m.name, m.unit, m.better);
    }
}

/// Median of five calibration loops, nanoseconds.
fn calibration() -> f64 {
    let mut v: Vec<u64> = (0..5).map(|_| clock::calibrate()).collect();
    v.sort_unstable();
    v[2] as f64
}

fn run(w: &Workload, a: &Args) -> ExitCode {
    let p = Params {
        seed: a.seed,
        smoke: a.smoke,
    };
    let mut m = Meter::new(a.trace.then_some(SPAN_CAPACITY));
    let mut probes = probes::Probes::default();
    let calib_before = calibration();
    if a.trace {
        probes.net(if a.smoke { w.nodes.min(100) } else { w.nodes });
    }

    // Passes, all on the same input: two at least, so that the digest of
    // the first has one to agree with, then until the time is up.
    let budget_ns = (a.seconds * 1e9) as u64;
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0usize);
    let mut first: Option<Pass> = None;
    while passes < 2 || m.elapsed_ns() < budget_ns {
        m.set_tracing(passes % 2 == 1);
        match catch_unwind(AssertUnwindSafe(|| (w.pass)(&p, &mut m))) {
            Ok(pass) => {
                m.end_pass();
                attempted += pass.attempted;
                failed += pass.failed;
                let reference = first.get_or_insert(pass);
                if reference.digest != pass.digest {
                    eprintln!(
                        "drt-benchmark: pass {passes} digest {:016x} differs from pass 0's {:016x}",
                        pass.digest, reference.digest
                    );
                    failed += 1;
                }
            }
            Err(_) => {
                m.abort_pass();
                attempted += 1;
                failed += 1;
            }
        }
        passes += 1;
    }

    if a.trace {
        probes.sim();
        probes.experiments(a.smoke);
    }
    let calib_after = calibration();
    let noisy = (calib_after - calib_before).abs() > 0.10 * calib_before.min(calib_after);

    let end_to_end = report::end_to_end(&m, clock::status_mb("VmHWM"));
    let counts = first.map(|f| f.counts).unwrap_or_default();
    let per_layer = m.trace.as_ref().map(|trace| {
        report::per_layer(&report::TracedRun {
            trace,
            samples: &m.samples,
            counts,
            probes,
            calib_ns: calib_after,
            noisy,
        })
    });

    println!("workload {} seed {} passes {passes}", w.name, a.seed);
    println!("digest {:016x}", first.map_or(0, |f| f.digest));
    println!("counts {counts:?}");
    println!(
        "attempted {attempted} failed {failed} failed_share {}",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "calib_ns {calib_before} -> {calib_after} noisy {}",
        u8::from(noisy)
    );
    let print = |kind: &str, metrics: &[Metric]| {
        for x in metrics {
            println!("{kind} {} {} {}", x.name, x.value, x.unit);
        }
    };
    print("end_to_end", &end_to_end);
    if let Some(per_layer) = &per_layer {
        print("per_layer", per_layer);
    }

    if let (Some(path), Some(trace)) = (&a.trace_out, &m.trace) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        match written {
            Ok(()) => println!(
                "trace {path}: {} spans, {} more not buffered",
                trace.spans.len(),
                trace.dropped
            ),
            Err(e) => {
                eprintln!("drt-benchmark: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = failed == 0;
    let metrics = per_layer.as_deref().unwrap_or(&end_to_end);
    println!(
        "{}",
        report::result_json(correct, attempted.max(1), failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drt-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let Some(w) = workloads::ALL
        .iter()
        .find(|w| Some(w.name) == args.workload.as_deref())
    else {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!(
            "drt-benchmark: --workload must be one of {}\n{USAGE}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    run(w, &args)
}
