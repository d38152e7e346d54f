//! Workspace semantic lint.
//!
//! ```text
//! cargo run -p verify --bin lint               # human-readable report
//! cargo run -p verify --bin lint -- --format json
//! cargo run -p verify --bin lint -- --explain nondet-taint
//! ```
//!
//! Builds the workspace code model (every `.rs` file under `crates/`,
//! test files included), runs the full engine in
//! [`verify::lint::run_full`] — legacy substring rules,
//! nondeterminism-taint propagation, RNG-substream discipline,
//! stale-waiver audit — and exits nonzero if anything fires.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use verify::lint;

fn usage() -> ExitCode {
    eprintln!("usage: lint [--format text|json] [--explain <rule>]");
    ExitCode::FAILURE
}

fn explain(rule: &str) -> ExitCode {
    match lint::RULE_DOCS.iter().find(|d| d.name == rule) {
        Some(d) => {
            println!("{}", d.name);
            println!("  scope: {}", d.scope);
            println!("  why:   {}", d.why);
            println!("  fix:   {}", d.fix);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("lint: unknown rule `{rule}`; known rules:");
            for d in &lint::RULE_DOCS {
                eprintln!("  {}", d.name);
            }
            ExitCode::FAILURE
        }
    }
}

/// Minimal JSON string escaping (the report carries no exotic content,
/// but excerpts can hold quotes and backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_json(report: &lint::Report, elapsed_ms: u128) {
    println!("{{");
    println!("  \"files\": {},", report.files);
    println!("  \"elapsed_ms\": {elapsed_ms},");
    println!("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        let detail = f
            .detail
            .iter()
            .map(|d| json_str(d))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"excerpt\": {}, \"detail\": [{}]}}{comma}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.excerpt),
            detail,
        );
    }
    println!("  ]");
    println!("}}");
}

fn print_text(report: &lint::Report, root: &std::path::Path, elapsed_ms: u128) {
    println!(
        "lint: {} files modelled under {} ({elapsed_ms} ms)",
        report.files,
        root.display()
    );
    for doc in &lint::RULE_DOCS {
        let n = report
            .findings
            .iter()
            .filter(|f| f.rule == doc.name)
            .count();
        println!("  {:<18} {} finding(s)", doc.name, n);
    }
    if report.findings.is_empty() {
        println!("lint: clean");
        return;
    }
    println!();
    for f in &report.findings {
        println!("{f}");
        for d in &f.detail {
            println!("    {d}");
        }
    }
    println!("\nlint: {} finding(s)", report.findings.len());
}

fn main() -> ExitCode {
    let mut format = "text".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                _ => return usage(),
            },
            "--explain" => {
                return match args.next() {
                    Some(rule) => explain(&rule),
                    None => usage(),
                };
            }
            _ => return usage(),
        }
    }

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    let t0 = Instant::now(); // lint:allow(nondet) — CLI wall-clock reporting, not simulation state
    let report = match lint::run_full(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = t0.elapsed().as_millis();
    match format.as_str() {
        "json" => print_json(&report, elapsed_ms),
        _ => print_text(&report, &root, elapsed_ms),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
