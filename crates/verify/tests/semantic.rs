//! Seeded-defect fixtures for the semantic engine: each test plants a
//! known defect in a miniature workspace and proves the full engine
//! ([`verify::lint::run_on`]) reports it — with the right rule, the
//! right line, and (for taint) the complete source→sink call chain.

use verify::lint::{run_on, Finding, STALE_WAIVER};
use verify::model::Workspace;

fn findings_of<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    fs.iter().filter(|f| f.rule == rule).collect()
}

/// The flagship case: routing code reaches `Instant::now` through two
/// layers of helpers in another crate. No forbidden name appears
/// anywhere near the policed code, so clippy's `disallowed-methods` is
/// blind to it; the taint pass must report it at the routing call site
/// with every hop of the chain spelled out.
#[test]
fn indirect_clock_read_two_calls_deep_reports_full_chain() {
    let ws = Workspace::from_sources(&[
        (
            "crates/net/src/metrics.rs",
            "pub fn epoch_nanos() -> u64 {\n    raw_clock()\n}\npub fn raw_clock() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
        ),
        (
            "crates/core/src/routing/pick.rs",
            "pub fn pick_route(net: &Net) -> RouteId {\n    let stamp = epoch_nanos();\n    tie_break(net, stamp)\n}\n",
        ),
    ]);
    let report = run_on(&ws);
    let taint = findings_of(&report.findings, "nondet-taint");
    assert_eq!(taint.len(), 1, "{:?}", report.findings);
    let f = taint[0];
    assert_eq!(f.path, "crates/core/src/routing/pick.rs");
    assert_eq!(f.line, 2, "reported at the call into the tainted helper");
    // The chain names every hop, ending at the ambient source.
    assert_eq!(f.detail.len(), 3, "{:?}", f.detail);
    assert!(f.detail[0].contains("pick_route") && f.detail[0].contains("epoch_nanos"));
    assert!(f.detail[1].contains("epoch_nanos") && f.detail[1].contains("raw_clock"));
    assert!(f.detail[2].contains("raw_clock") && f.detail[2].contains("Instant::now"));
}

/// A comment at the ambient source does not neutralise the chain: the
/// retired `nondet` rule is an unknown name, and the reach is still
/// reported at its frontier.
#[test]
fn retired_nondet_waiver_is_unknown_and_clears_nothing() {
    let ws = Workspace::from_sources(&[
        (
            "crates/net/src/metrics.rs",
            "pub fn epoch_nanos() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64 // lint:allow(nondet) — wall-clock telemetry, never simulation state\n}\n",
        ),
        (
            "crates/core/src/routing/pick.rs",
            "pub fn pick_route() -> u64 {\n    epoch_nanos()\n}\n",
        ),
    ]);
    let report = run_on(&ws);
    assert_eq!(findings_of(&report.findings, "nondet-taint").len(), 1);
    let stale = findings_of(&report.findings, STALE_WAIVER);
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert!(stale[0].detail[0].contains("unknown rule `nondet`"));
}

/// A frontier call site can be waived with `lint:allow(nondet-taint)`
/// where the nondeterminism is understood and accepted.
#[test]
fn frontier_call_site_waiver_suppresses_the_taint_finding() {
    let ws = Workspace::from_sources(&[
        (
            "crates/net/src/metrics.rs",
            "pub fn epoch_nanos() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
        ),
        (
            "crates/experiments/src/report.rs",
            "pub fn stamp_report() -> u64 {\n    // lint:allow(nondet-taint) — report timestamps are cosmetic\n    epoch_nanos()\n}\n",
        ),
    ]);
    let report = run_on(&ws);
    assert!(
        findings_of(&report.findings, "nondet-taint").is_empty(),
        "{:?}",
        report.findings
    );
    assert!(
        findings_of(&report.findings, STALE_WAIVER).is_empty(),
        "the frontier waiver is live, not stale: {:?}",
        report.findings
    );
}

/// An RNG captured from the enclosing scope and consumed inside a
/// parallel-driver closure is flagged at the consuming line.
#[test]
fn shared_rng_in_parallel_closure_is_flagged() {
    let ws = Workspace::from_sources(&[(
        "crates/experiments/src/sweep.rs",
        "pub fn sweep(rng: &mut StdRng, cells: Vec<Cell>) -> Vec<Row> {\n    parallel_map(8, cells, || (), |_, cell| {\n        let jitter = rng.gen_range(0..10);\n        run_cell(cell, jitter)\n    })\n}\n",
    )]);
    let report = run_on(&ws);
    let f = findings_of(&report.findings, "rng-substream");
    assert_eq!(f.len(), 1, "{:?}", report.findings);
    assert_eq!(f[0].line, 3);
    assert!(f[0].detail[0].contains("indexed_stream"));
}

/// The sanctioned pattern — deriving a per-unit keyed substream inside
/// the closure — is clean.
#[test]
fn derived_substream_closure_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/experiments/src/sweep.rs",
        "pub fn sweep(seed: u64, cells: Vec<Cell>) -> Vec<Row> {\n    parallel_map(8, cells, || (), |_, (i, cell)| {\n        let mut rng = drt_sim::rng::indexed_stream(seed, \"cell\", i);\n        run_cell(cell, rng.gen_range(0..10))\n    })\n}\n",
    )]);
    let report = run_on(&ws);
    assert!(
        findings_of(&report.findings, "rng-substream").is_empty(),
        "{:?}",
        report.findings
    );
}

/// A waiver that suppresses nothing is itself an error, reported at the
/// waiver's own line.
#[test]
fn stale_waiver_is_reported_at_its_line() {
    let ws = Workspace::from_sources(&[(
        "crates/proto/src/engine.rs",
        "pub fn handle(&mut self, m: Msg) {\n    let x = 1; // lint:allow(nondet-taint) — nothing reaches a clock here any more\n    self.apply(m, x);\n}\n",
    )]);
    let report = run_on(&ws);
    let f = findings_of(&report.findings, STALE_WAIVER);
    assert_eq!(f.len(), 1, "{:?}", report.findings);
    assert_eq!(f[0].line, 2);
    assert!(f[0].detail[0].contains("no longer suppresses"));
}
