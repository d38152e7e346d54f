//! Fixture tests for the source lint, plus the repo-wide gate: the
//! whole workspace must lint clean.

use std::path::PathBuf;

use verify::lint::{code_view, scan_source, scan_workspace};

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    scan_source(path, src).into_iter().map(|f| f.rule).collect()
}

#[test]
fn nondet_flagged_outside_rng_module() {
    let src = "fn f() { let mut r = rand::thread_rng(); }\n";
    assert_eq!(rules_fired("crates/sim/src/event.rs", src), ["nondet"]);
    assert_eq!(rules_fired("crates/proto/src/engine.rs", src), ["nondet"]);
    // The seeded-RNG module is the one place allowed to touch entropy.
    assert!(rules_fired("crates/sim/src/rng.rs", src).is_empty());
}

#[test]
fn nondet_covers_clocks_too() {
    assert_eq!(
        rules_fired("crates/core/src/lib.rs", "let t = Instant::now();\n"),
        ["nondet"]
    );
    assert_eq!(
        rules_fired("crates/core/src/lib.rs", "use std::time::SystemTime;\n"),
        ["nondet"]
    );
}

#[test]
fn patterns_in_comments_and_strings_are_ignored() {
    let src = "// thread_rng would be wrong here\nfn f() { let s = \"Instant::now\"; }\n";
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn test_modules_are_exempt() {
    let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { thread_rng(); }\n}\n";
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn waiver_suppresses_a_single_line() {
    let src =
        "let a = x.time_now(); // SystemTime\nlet b = SystemTime::now(); // lint:allow(nondet)\n";
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
    let unwaived = "let b = SystemTime::now();\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", unwaived), ["nondet"]);
    // rustfmt may push a trailing comment onto its own line above; the
    // waiver still counts from there.
    let above = "// justified here: lint:allow(nondet)\nlet b = SystemTime::now();\n";
    assert!(rules_fired("crates/core/src/lib.rs", above).is_empty());
}

#[test]
fn hash_collections_scoped_to_routing_and_proto() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(
        rules_fired("crates/core/src/routing/baseline.rs", src),
        ["hash-collections"]
    );
    assert_eq!(
        rules_fired("crates/proto/src/router.rs", src),
        ["hash-collections"]
    );
    // Elsewhere (e.g. experiment drivers) hash maps are fine.
    assert!(rules_fired("crates/experiments/src/lib.rs", src).is_empty());
}

#[test]
fn proto_panics_scoped_to_proto() {
    let src = "let v = map.get(&k).unwrap();\nlet w = map.get(&k).expect(\"present\");\n";
    let fired = rules_fired("crates/proto/src/engine.rs", src);
    assert_eq!(fired, ["proto-panics", "proto-panics"]);
    assert!(rules_fired("crates/net/src/graph.rs", src).is_empty());
    // unwrap_or and friends are not panics.
    assert!(rules_fired(
        "crates/proto/src/engine.rs",
        "let v = map.get(&k).copied().unwrap_or(0);\n"
    )
    .is_empty());
}

#[test]
fn raw_fail_link_scoped_to_experiments() {
    let src = "fn f(sim: &mut ProtocolSim, l: LinkId) { sim.fail_link(l); }\n";
    assert_eq!(
        rules_fired("crates/experiments/src/campaign.rs", src),
        ["raw-fail-link"]
    );
    // The engine itself, its tests, and the verify scenarios may fail
    // links directly — the rule polices experiment drivers only.
    assert!(rules_fired("crates/proto/src/engine.rs", src).is_empty());
    assert!(rules_fired("crates/verify/src/scenario.rs", src).is_empty());
    // The orchestrator seam waives the one justified call site.
    let waived =
        "fn seam(sim: &mut ProtocolSim, l: LinkId) {\n    // lint:allow(raw-fail-link)\n    sim.fail_link(l);\n}\n";
    assert!(rules_fired("crates/experiments/src/campaign.rs", waived).is_empty());
}

#[test]
fn raw_spoof_scoped_to_honest_experiment_drivers() {
    let src = "fn f(mgr: &mut DrtpManager, l: LinkId, rng: &mut Rng) { let _ = mgr.inject_false_report(l, rng); }\n";
    assert_eq!(
        rules_fired("crates/experiments/src/campaign.rs", src),
        ["raw-spoof"]
    );
    assert_eq!(
        rules_fired(
            "crates/experiments/src/multi_failure.rs",
            "sim.spoof_failure_report(n, l);\n"
        ),
        ["raw-spoof"]
    );
    // The adversarial sweep is the sanctioned consumer, and the seams'
    // own crates (core, proto, verify scenarios) are out of scope.
    assert!(rules_fired("crates/experiments/src/adversarial.rs", src).is_empty());
    assert!(rules_fired("crates/core/src/failure.rs", src).is_empty());
    assert!(rules_fired("crates/verify/src/scenario.rs", src).is_empty());
}

#[test]
fn journal_choke_scoped_to_proto_outside_the_choke_point() {
    let src = "fn f(r: &mut Router) {\n    r.reserve_primary(conn, &route, link, bw);\n    r.mark_applied(conn, seq);\n}\n";
    let fired = rules_fired("crates/proto/src/engine.rs", src);
    assert_eq!(fired, ["journal-choke", "journal-choke"]);
    // The choke point itself and the mutators' own module are exempt:
    // journal.rs appends-then-dispatches, router.rs composes internally.
    assert!(rules_fired("crates/proto/src/journal.rs", src).is_empty());
    assert!(rules_fired("crates/proto/src/router.rs", src).is_empty());
    // Outside the protocol crate the names mean something else entirely.
    assert!(rules_fired("crates/core/src/manager.rs", src).is_empty());
    // Choke-routed engine code names a record, not a mutator, so it
    // never matches.
    let routed =
        "self.journals.commit(&mut self.routers, to, JournalRecord::ReleasePrimary { conn });\n";
    assert!(rules_fired("crates/proto/src/engine.rs", routed).is_empty());
}

#[test]
fn spf_alloc_scoped_to_workspace_threaded_algo_files() {
    let src = "let mut heap = BinaryHeap::new();\nlet mut dist = vec![None; n];\nlet mut done = vec![false; n];\n";
    let fired = rules_fired("crates/net/src/algo/dijkstra.rs", src);
    assert_eq!(fired, ["spf-alloc", "spf-alloc", "spf-alloc"]);
    assert_eq!(rules_fired("crates/net/src/algo/yen.rs", src).len(), 3);
    // Other heap users (Bellman-Ford, the sim's event queue) are not
    // SPF-threaded: no rule.
    assert!(rules_fired("crates/net/src/algo/bellman_ford.rs", src).is_empty());
    assert!(rules_fired("crates/sim/src/event.rs", src).is_empty());
    // A justified cold path waives in place.
    let waived = "// lint:allow(spf-alloc) — cold path\nlet mut heap = BinaryHeap::new();\n";
    assert!(rules_fired("crates/net/src/algo/disjoint.rs", waived).is_empty());
}

#[test]
fn probe_alloc_scoped_to_failure_analysis_files() {
    let src = "let affected: Vec<ConnectionId> = conns.values().map(|c| c.id()).collect();\nlet mut decisions = Vec::with_capacity(affected.len());\n";
    let fired = rules_fired("crates/core/src/failure.rs", src);
    assert_eq!(fired, ["probe-alloc", "probe-alloc"]);
    assert_eq!(rules_fired("crates/core/src/analysis.rs", src).len(), 2);
    // Collecting elsewhere (manager admission, experiment drivers) is
    // not a probe: no rule.
    assert!(rules_fired("crates/core/src/manager.rs", src).is_empty());
    assert!(rules_fired("crates/experiments/src/campaign.rs", src).is_empty());
    // One-shot setup code waives in place.
    let waived =
        "// lint:allow(probe-alloc) — unit enumeration runs once per sweep\nlet units: Vec<LinkId> = net.links().map(|l| l.id()).collect();\n";
    assert!(rules_fired("crates/core/src/failure.rs", waived).is_empty());
}

#[test]
fn float_equality_flagged_everywhere() {
    assert_eq!(
        rules_fired("crates/core/src/lib.rs", "if load == 0.5 { }\n"),
        ["float-eq"]
    );
    assert_eq!(
        rules_fired("crates/net/src/graph.rs", "if 1.0 != ratio { }\n"),
        ["float-eq"]
    );
    // Integer equality, dotted paths, tuple indices, comparisons: fine.
    for ok in [
        "if count == 0 { }\n",
        "if self.cfg.drop_prob <= 0.5 { }\n",
        "if pair.0 == pair.1 { }\n",
        "let ge = x >= 2.0;\n",
    ] {
        assert!(
            rules_fired("crates/core/src/lib.rs", ok).is_empty(),
            "false positive on {ok:?}"
        );
    }
}

#[test]
fn code_view_preserves_line_numbers() {
    let src = "line1 /* c1\nc2 */ line2\n// line3\nlet s = \"x\\\"y\";\n";
    let view = code_view(src);
    assert_eq!(src.lines().count(), view.lines().count());
    assert!(view.contains("line1"));
    assert!(view.contains("line2"));
    assert!(!view.contains("c2"));
    assert!(!view.contains("x\\\"y"));
}

#[test]
fn code_view_handles_raw_strings_and_chars() {
    let src = "let r = r#\"thread_rng\"#;\nlet c = '\"';\nlet lt: &'static str = \"x\";\n";
    let view = code_view(src);
    assert!(!view.contains("thread_rng"));
    assert!(view.contains("'static"));
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// Adversarial lexer inputs: every construct here once confused a
// substring-era lint or plausibly could. The contract under test is the
// code view — comment and literal *bodies* gone, line structure intact —
// and the token stream it derives from.
// ---------------------------------------------------------------------

#[test]
fn lexer_lifetimes_are_not_char_literals() {
    // `'a` in generics/references must not open a char literal and
    // swallow the rest of the file (which would blind every rule
    // downstream of the quote).
    let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { thread_rng(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src), ["nondet"]);
    // …while real char literals, including quote and escape chars,
    // still blank their bodies.
    let chars = "let a = 'x';\nlet q = '\\'';\nlet n = '\\n';\nlet u = '\\u{41}';\nlet t = \"thread_rng\";\n";
    assert!(rules_fired("crates/core/src/lib.rs", chars).is_empty());
}

#[test]
fn lexer_byte_strings_and_byte_chars() {
    let src = "let b = b\"Instant::now\";\nlet r = br#\"SystemTime\"#;\nlet c = b'\\'';\nlet d = b'x';\nfn live() { from_entropy(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src), ["nondet"]);
}

#[test]
fn lexer_raw_identifiers() {
    // `r#fn` is an identifier, not an `r"` string opener; the quote that
    // follows later must still lex as a normal string.
    let src = "fn r#fn(r#type: u32) -> u32 { r#type }\nlet s = \"thread_rng\";\n";
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn lexer_doc_comments_are_comments() {
    let src = "//! thread_rng in module docs\n/// SystemTime in item docs\n/** Instant::now in block docs */\nfn f() {}\n";
    assert!(rules_fired("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn lexer_nested_block_comments_and_raw_string_interplay() {
    // A `/*` inside a raw string is text, not a comment opener — code
    // after the string must still be scanned…
    let src = "let s = r#\"/* not a comment\"#;\nfn live() { thread_rng(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src), ["nondet"]);
    // …and a raw-string opener inside a nested block comment is text
    // too: the comment still closes where it should.
    let src2 = "/* outer /* r#\" inner */ still comment */\nfn live() { thread_rng(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src2), ["nondet"]);
}

#[test]
fn lexer_macro_bodies_are_code() {
    // Macro bodies are token soup but still code: literals inside them
    // blank, idents inside them lint.
    let src = "macro_rules! m {\n    ($x:expr) => {\n        println!(\"thread_rng {}\", $x)\n    };\n}\nfn live() { let t = Instant::now(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src), ["nondet"]);
}

#[test]
fn lexer_escaped_newline_string_continuation_keeps_lines() {
    // `"…\` at end of line continues the literal; the line must still
    // count or every downstream line number drifts.
    let src = "let usage = \"line one \\\n    line two\";\nlet t = Instant::now();\n";
    let findings = scan_source("crates/core/src/lib.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 3);
}

#[test]
fn whole_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = scan_workspace(&root).expect("workspace must be scannable");
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings
            .iter()
            .map(|f| {
                let mut s = f.to_string();
                for d in &f.detail {
                    s.push_str("\n    ");
                    s.push_str(d);
                }
                s
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
}
