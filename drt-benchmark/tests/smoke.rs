//! The benchmark at `--smoke` scale: every workload, traced and untraced,
//! in seconds. Checks the contract between the binary, `BENCHMARK.json`
//! and the driver: names, units, the result line, and determinism.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_drt-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn smoke(workload: &str, seed: &str, trace: &str) -> String {
    let (ok, out) = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert!(ok, "{workload} seed {seed} trace {trace} failed:\n{out}");
    out
}

/// `(kind, fields…)` of every `--list` line that starts with `kind`.
fn listed(kind: &str) -> Vec<Vec<String>> {
    let (ok, out) = bench(&["--list"]);
    assert!(ok);
    out.lines()
        .filter_map(|l| l.strip_prefix(kind)?.strip_prefix(' '))
        .map(|l| l.split(' ').map(str::to_string).collect())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Lines of `out` that must repeat exactly for one seed.
fn exact_part(out: &str) -> Vec<&str> {
    out.lines()
        .filter(|l| l.starts_with("digest ") || l.starts_with("counts "))
        .collect()
}

#[test]
fn benchmark_json_is_the_catalogue_the_binary_lists() {
    let workloads = listed("workload");
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!((workloads.len(), end_to_end.len()), (5, 5));
    assert!((1..=128).contains(&per_layer.len()));
    for w in &workloads {
        assert!(well_formed(&w[0]));
        assert!(
            BENCHMARK_JSON.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w[0])),
            "workload {} missing from BENCHMARK.json",
            w[0]
        );
    }
    for m in &end_to_end {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m[0], m[1], m[2], m[3]
        );
        assert!(
            well_formed(&m[0]) && BENCHMARK_JSON.contains(&entry),
            "{entry}"
        );
    }
    for m in &per_layer {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m[0], m[1], m[2]
        );
        assert!(
            well_formed(&m[0]) && BENCHMARK_JSON.contains(&entry),
            "{entry}"
        );
    }
    // Nothing in the file that the binary does not list.
    assert_eq!(
        BENCHMARK_JSON.matches("\"name\": ").count(),
        workloads.len() + end_to_end.len() + per_layer.len()
    );
    assert!(BENCHMARK_JSON.contains("\"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in listed("workload") {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = smoke(&w[0], "2001", trace);
            let result = out.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": ")
                    && result.contains("\"failed\": 0, \"metrics\": {")
                    && result.ends_with("}}"),
                "{}: {result}",
                w[0]
            );
            let wanted = listed(kind);
            for m in &wanted {
                assert!(
                    result.contains(&format!("\"{}\": {{\"value\": ", m[0]))
                        && out.contains(&format!("\n{kind} {} ", m[0])),
                    "{} --trace {trace}: {} not printed",
                    w[0],
                    m[0]
                );
                let line = out
                    .lines()
                    .find(|l| l.starts_with(&format!("{kind} {} ", m[0])))
                    .unwrap();
                assert!(line.ends_with(&format!(" {}", m[1])), "unit of {line}");
            }
            assert_eq!(result.matches("\"value\": ").count(), wanted.len());
            if trace == "0" {
                // End-to-end metrics are never zero.
                for line in out.lines().filter(|l| l.starts_with("end_to_end ")) {
                    let value: f64 = line.split(' ').nth(2).unwrap().parse().unwrap();
                    assert!(value > 0.0, "{}: {line}", w[0]);
                }
            }
        }
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_does_not() {
    for w in listed("workload") {
        let a = smoke(&w[0], "7", "0");
        let b = smoke(&w[0], "7", "0");
        let traced = smoke(&w[0], "7", "1");
        let other = smoke(&w[0], "8", "0");
        assert_eq!(exact_part(&a).len(), 2);
        assert_eq!(exact_part(&a), exact_part(&b), "{}", w[0]);
        assert_eq!(
            exact_part(&a),
            exact_part(&traced),
            "{}: spans changed the outcome",
            w[0]
        );
        assert_ne!(exact_part(&a), exact_part(&other), "{}", w[0]);
    }
}

#[test]
fn trace_file_holds_nested_spans() {
    let path =
        std::env::temp_dir().join(format!("drt-benchmark-trace-{}.jsonl", std::process::id()));
    let (ok, out) = bench(&[
        "--workload",
        "signal60",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--smoke",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(text.lines().count() > 100);
    for needle in [
        "\"name\": \"pass\", \"layer\": \"bench\"",
        "\"name\": \"txn\", \"layer\": \"bench\"",
        "\"name\": \"proto.establish\", \"layer\": \"proto\"",
        "\"name\": \"core.request_dlsr\", \"layer\": \"core\"",
        "\"name\": \"net.topo_build\", \"layer\": \"net\"",
    ] {
        assert!(text.contains(needle), "{needle}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "churn60"][..],
        &["--seed"][..],
        &[][..],
    ] {
        let (ok, out) = bench(args);
        assert!(!ok && !out.contains("\"correct\""), "{args:?}");
    }
}
