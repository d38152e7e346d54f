//! Source-level determinism and safety lint: legacy substring rules,
//! the semantic passes, and the orchestrator that runs them all.
//!
//! The legacy rules are plain substring (or, for float equality,
//! token-shape) checks against each file's *code view* — the
//! lexer-derived rendering with comments, string bodies, and char
//! bodies blanked out ([`crate::lex::code_view`]). They enforce
//! repo-wide hygiene `clippy` has no lints for:
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `nondet` | everywhere but the seeded-RNG module | `thread_rng`, `from_entropy`, `Instant::now`, `SystemTime` — ambient nondeterminism that breaks run reproducibility |
//! | `hash-collections` | routing + protocol crates | `HashMap`, `HashSet` — iteration order varies across runs and platforms |
//! | `proto-panics` | protocol crate | `.unwrap()`, `.expect(` — message handlers must degrade, not crash the router |
//! | `raw-fail-link` | experiments crate | `.fail_link(` — experiments inject failures through the recovery-orchestrator seam ([`drt_core`]'s `FailureEvent` / `inject_event`), so retries, flap damping, and orphan accounting stay consistent across regimes |
//! | `raw-spoof` | experiments crate minus the adversarial module | `.inject_false_report(`, `.spoof_failure_report(` — byzantine lies belong to the adversarial sweep, where both arms share workload substreams and every lie is counted in telemetry; a stray spoof elsewhere silently skews an honest-regime table |
//! | `journal-choke` | protocol crate minus `journal.rs` / `router.rs` | raw router-mutator calls (`.gate_walk(`, `.reserve_primary(`, …) — every state mutation must go through the `Journals` choke point so the write-ahead journal records it before it acts; a bypassed mutation silently breaks crash recovery |
//! | `spf-alloc` | SPF-threaded algo files | `BinaryHeap::new`, `vec![None;`, `vec![false;` — hot search paths must reuse the generation-stamped `SpfWorkspace` instead of allocating per call |
//! | `probe-alloc` | failure-analysis files | `.collect()`, `Vec::with_capacity` — the per-probe loop must reuse the generation-stamped `ProbeWorkspace`; one-shot setup/report code waives |
//! | `float-eq` | whole workspace | `==` / `!=` against a float literal — bandwidth accounting must not rely on exact float equality |
//!
//! On top of them, [`run_on`] adds the call-graph passes:
//!
//! | rule | engine | reports |
//! |------|--------|---------|
//! | `nondet-taint` | [`crate::taint`] | a routing/protocol/experiment function that *indirectly* reaches an ambient nondeterminism source, with the full call chain |
//! | `rng-substream` | [`crate::semantic`] | a parallel-driver closure consuming an RNG it did not derive per unit |
//! | `baseline-parity` | [`crate::semantic`] | a `*_baseline` function no test references |
//! | `stale-waiver` | [`run_on`] | a `lint:allow(…)` comment that suppresses nothing (or names an unknown rule) |
//!
//! Test code is exempt from every rule except waiver collection:
//! `tests/`, `benches/`, `examples/` directories, and everything from
//! the first `#[cfg(test)]` line of a file onward. A justified
//! exception is waived in place with a `lint:allow(rule-name)` comment
//! — in a plain `//` comment (doc comments are prose, not grants) on
//! the offending line or the line directly above it, followed by a
//! one-line rationale. The stale-waiver audit keeps the waiver set
//! honest: a waiver that stops suppressing anything becomes an error
//! itself.

use std::io;
use std::path::Path;

use crate::model::Workspace;
use crate::{semantic, taint};

pub use crate::lex::code_view;

/// One legacy lint rule: substring patterns searched in the code view
/// of every in-scope file.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Rule name, as used by `lint:allow(...)` waivers.
    pub name: &'static str,
    /// One-line rationale, shown in reports.
    pub why: &'static str,
    /// Substrings that trigger the rule.
    pub patterns: &'static [&'static str],
    /// Whether the rule applies to a (forward-slash, workspace-relative)
    /// path.
    pub in_scope: fn(&str) -> bool,
}

fn scope_nondet(path: &str) -> bool {
    !path.ends_with("crates/sim/src/rng.rs")
}

fn scope_hash(path: &str) -> bool {
    path.contains("crates/core/src/routing") || path.contains("crates/proto/src")
}

fn scope_proto(path: &str) -> bool {
    path.contains("crates/proto/src")
}

fn scope_experiments(path: &str) -> bool {
    path.contains("crates/experiments/src")
}

fn scope_honest_experiments(path: &str) -> bool {
    // The adversarial sweep is the one sanctioned consumer of the
    // byzantine seams; every other experiment driver is honest.
    scope_experiments(path) && !path.ends_with("adversarial.rs")
}

fn scope_journal_choke(path: &str) -> bool {
    // `journal.rs` *is* the choke point (`commit` appends, then runs the
    // one `apply` that replay runs too); `router.rs` owns the
    // mutators and may compose them internally. Everything else in the
    // protocol crate — the engine above all — must go through `Journals`.
    path.contains("crates/proto/src")
        && !path.ends_with("journal.rs")
        && !path.ends_with("router.rs")
}

fn scope_spf(path: &str) -> bool {
    // The files `SpfWorkspace` is threaded through (plus the dynamic
    // SPT, whose repair path is equally hot); cold paths waive.
    path.ends_with("crates/net/src/algo/dijkstra.rs")
        || path.ends_with("crates/net/src/algo/disjoint.rs")
        || path.ends_with("crates/net/src/algo/yen.rs")
        || path.ends_with("crates/net/src/algo/dynamic_spt.rs")
}

fn scope_probe(path: &str) -> bool {
    // The files `ProbeWorkspace` is threaded through; setup and report
    // code (unit enumeration, destructive injection, rankings) waives.
    path.ends_with("crates/core/src/failure.rs") || path.ends_with("crates/core/src/analysis.rs")
}

/// The legacy rule table. `float-eq` is additionally special-cased in
/// [`scan_source`] (it is a token-shape check, not a substring).
pub const RULES: [Rule; 8] = [
    Rule {
        name: "nondet",
        why: "ambient randomness / wall-clock reads break reproducibility; \
              use the seeded streams in drt-sim's rng module",
        patterns: &["thread_rng", "from_entropy", "Instant::now", "SystemTime"],
        in_scope: scope_nondet,
    },
    Rule {
        name: "hash-collections",
        why: "HashMap/HashSet iteration order is unstable across runs; \
              routing and protocol state must iterate deterministically",
        patterns: &["HashMap", "HashSet"],
        in_scope: scope_hash,
    },
    Rule {
        name: "proto-panics",
        why: "protocol message handlers must degrade gracefully on \
              unexpected input, not panic the router",
        patterns: &[".unwrap()", ".expect("],
        in_scope: scope_proto,
    },
    Rule {
        name: "raw-fail-link",
        why: "experiments must inject failures through the recovery \
              orchestrator seam (FailureEvent / inject_event), not raw \
              fail_link calls, so retries, flap damping, and orphan \
              accounting stay consistent across failure regimes",
        patterns: &[".fail_link("],
        in_scope: scope_experiments,
    },
    Rule {
        name: "raw-spoof",
        why: "byzantine lies belong to the adversarial sweep, whose arms \
              share workload substreams and count every lie in telemetry; \
              spoofing from an honest experiment driver skews its tables \
              without leaving a trace in the instrumentation",
        patterns: &[".inject_false_report(", ".spoof_failure_report("],
        in_scope: scope_honest_experiments,
    },
    Rule {
        name: "journal-choke",
        why: "router state mutations must go through the Journals choke \
              point so the write-ahead journal records them before they \
              act; a raw mutator call bypasses the journal and the \
              replayed router silently diverges from the live one after \
              a crash",
        patterns: &[
            ".gate_walk(",
            ".mark_applied(",
            ".poison_walk(",
            ".reserve_primary(",
            ".release_primary(",
            ".register_backup(",
            ".unregister_backup(",
            ".activate_backup(",
        ],
        in_scope: scope_journal_choke,
    },
    Rule {
        name: "spf-alloc",
        why: "SPF hot paths must reuse the generation-stamped SpfWorkspace \
              (one heap + stamped arrays per thread) instead of allocating \
              per search; cold paths waive with a justification",
        patterns: &["BinaryHeap::new", "vec![None;", "vec![false;"],
        in_scope: scope_spf,
    },
    Rule {
        name: "probe-alloc",
        why: "failure-probe hot paths must reuse the generation-stamped \
              ProbeWorkspace (stamped pools + scratch sets per thread) \
              instead of collecting per probe; one-shot setup and report \
              code waives with a justification",
        patterns: &[".collect()", "Vec::with_capacity"],
        in_scope: scope_probe,
    },
];

/// Name of the float-equality rule (token-shape check).
pub const FLOAT_EQ: &str = "float-eq";

/// Name of the stale-waiver audit rule.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Every rule name the engine knows (legacy + semantic). A waiver
/// naming anything else is itself a `stale-waiver` finding.
pub fn known_rules() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = RULES.iter().map(|r| r.name).collect();
    names.extend([
        FLOAT_EQ,
        taint::RULE,
        semantic::RNG_SUBSTREAM,
        semantic::BASELINE_PARITY,
        STALE_WAIVER,
    ]);
    names
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Extra diagnostic lines: the source→sink call chain for taint
    /// findings, the rationale for semantic findings. Empty for legacy
    /// substring findings.
    pub detail: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// The result of a full engine run.
#[derive(Debug)]
pub struct Report {
    /// Number of files modelled (test files included).
    pub files: usize,
    /// Surviving findings (waivers applied), sorted by path and line.
    pub findings: Vec<Finding>,
}

/// `true` when `tok` is shaped like a float literal (`0.0`, `1.5f64`):
/// starts with a digit and contains a dot. Dotted paths and tuple-index
/// chains (`self.x`, `t.0`) start with a letter, so they do not match.
fn is_float_literal(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_ascii_digit()) && tok.contains('.')
}

fn token_before(line: &str, at: usize) -> &str {
    let head = line[..at].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|p| p + 1)
        .unwrap_or(0);
    &head[start..]
}

fn token_after(line: &str, at: usize) -> &str {
    let tail = line[at..].trim_start_matches(['=', '!']).trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].trim_start_matches('-')
}

/// Lints one file's source text with the legacy rules, *ignoring*
/// waivers. `path` is the workspace-relative, forward-slash path used
/// for rule scoping.
pub fn scan_source_raw(path: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let view = code_view(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    for (idx, line) in view.lines().enumerate() {
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        // Everything from the first test module onward is test code.
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let lineno = idx + 1;
        for rule in &RULES {
            if !(rule.in_scope)(path) {
                continue;
            }
            if rule.patterns.iter().any(|p| line.contains(p)) {
                findings.push(Finding {
                    rule: rule.name,
                    path: path.to_string(),
                    line: lineno,
                    excerpt: raw.trim().to_string(),
                    detail: Vec::new(),
                });
            }
        }
        // float-eq: token-shape check around every ==/!= operator.
        let mut from = 0;
        while let Some(rel) = line[from..].find(['=', '!']) {
            let at = from + rel;
            from = at + 1;
            let op = &line[at..];
            if !(op.starts_with("==") || op.starts_with("!=")) {
                continue;
            }
            // Skip `<=`, `>=`, `!=` already handled; `===` cannot occur
            // in Rust. Check both operand shapes.
            if at > 0 && matches!(line.as_bytes()[at - 1], b'<' | b'>' | b'=' | b'!') {
                continue;
            }
            if is_float_literal(token_before(line, at)) || is_float_literal(token_after(line, at)) {
                findings.push(Finding {
                    rule: FLOAT_EQ,
                    path: path.to_string(),
                    line: lineno,
                    excerpt: raw.trim().to_string(),
                    detail: Vec::new(),
                });
                // One finding per line is enough.
                break;
            }
        }
    }
    findings
}

/// Lints one file's source text with the legacy rules, applying the
/// file's own waivers (the single-file convenience used by fixture
/// tests; the workspace run goes through [`run_on`] so waiver usage can
/// be audited).
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let ws = Workspace::from_sources(&[(path, src)]);
    let raw = scan_source_raw(path, src);
    apply_waivers(raw, &ws).0
}

/// Applies every waiver in `ws` to `findings`. Returns the surviving
/// findings and, for each waiver index, whether it suppressed anything.
fn apply_waivers(findings: Vec<Finding>, ws: &Workspace) -> (Vec<Finding>, Vec<bool>) {
    let mut used = vec![false; ws.waivers.len()];
    let kept = findings
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (wi, w) in ws.waivers.iter().enumerate() {
                // A waiver counts on the offending line or the line
                // directly above it (rustfmt may move a trailing comment
                // up).
                if w.rule == f.rule
                    && ws.files[w.file].path == f.path
                    && (w.line == f.line || w.line + 1 == f.line)
                {
                    used[wi] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    (kept, used)
}

/// Runs the full engine — legacy rules, taint, semantic rules, waiver
/// application, stale-waiver audit — on an already-built model.
pub fn run_on(ws: &Workspace) -> Report {
    let mut raw = Vec::new();
    for file in &ws.files {
        if !file.all_test {
            raw.extend(scan_source_raw(&file.path, &file.src));
        }
    }
    let taint_result = taint::scan(ws);
    raw.extend(taint_result.findings);
    raw.extend(semantic::rng_substream(ws));
    raw.extend(semantic::baseline_parity(ws));
    // Excerpts for findings produced without file access in hand.
    for f in &mut raw {
        if f.excerpt.is_empty() {
            if let Some(fi) = ws.files.iter().position(|s| s.path == f.path) {
                f.excerpt = ws.line_text(fi, f.line).to_string();
            }
        }
    }

    let (mut findings, used) = apply_waivers(raw, ws);

    // Stale-waiver audit: every waiver must either have suppressed a
    // finding or have neutralised a taint seed; and must name a rule
    // the engine knows.
    let known = known_rules();
    for (wi, w) in ws.waivers.iter().enumerate() {
        let reason = if !known.contains(&w.rule.as_str()) {
            Some(format!(
                "waiver names unknown rule `{}` (known: {})",
                w.rule,
                known.join(", ")
            ))
        } else if !used[wi] && !taint_result.used_seed_waivers.contains(&wi) {
            Some(format!(
                "waiver `lint:allow({})` no longer suppresses any finding; delete it \
                 (or re-justify it against the rule that should fire here)",
                w.rule
            ))
        } else {
            None
        };
        if let Some(reason) = reason {
            findings.push(Finding {
                rule: STALE_WAIVER,
                path: ws.files[w.file].path.clone(),
                line: w.line,
                excerpt: ws.line_text(w.file, w.line).to_string(),
                detail: vec![reason],
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Report {
        files: ws.files.len(),
        findings,
    }
}

/// Builds the model for `root` and runs the full engine.
pub fn run_full(root: &Path) -> io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(run_on(&ws))
}

/// Full-engine workspace scan; kept as the historical entry point.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    run_full(root).map(|r| r.findings)
}

/// Number of files [`run_full`] models under `root` (test files
/// included).
pub fn count_files(root: &Path) -> io::Result<usize> {
    Ok(Workspace::load(root)?.files.len())
}

/// Documentation for `--explain`: every rule, semantic ones included.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Rule name.
    pub name: &'static str,
    /// Where it applies.
    pub scope: &'static str,
    /// Why it exists.
    pub why: &'static str,
    /// How to fix or justify a finding.
    pub fix: &'static str,
}

/// The `--explain` table.
pub const RULE_DOCS: [RuleDoc; 13] = [
    RuleDoc {
        name: "nondet",
        scope: "everywhere but crates/sim/src/rng.rs",
        why: "thread_rng/from_entropy/Instant::now/SystemTime are ambient \
              nondeterminism: they break replayability and byte-identical output",
        fix: "draw from a named seeded stream (drt_sim::rng::stream / \
              indexed_stream); sim time comes from the DES clock",
    },
    RuleDoc {
        name: "hash-collections",
        scope: "crates/core/src/routing + crates/proto/src",
        why: "HashMap/HashSet iteration order varies across runs and platforms; \
              routing and protocol decisions must not depend on it",
        fix: "use BTreeMap/BTreeSet, or a Vec with an explicit sort",
    },
    RuleDoc {
        name: "proto-panics",
        scope: "crates/proto/src",
        why: "a router must degrade on unexpected input, not crash the control plane",
        fix: "return an error / drop the message instead of .unwrap()/.expect()",
    },
    RuleDoc {
        name: "raw-fail-link",
        scope: "crates/experiments/src",
        why: "raw fail_link bypasses the recovery orchestrator: retries, flap \
              damping, and orphan accounting silently diverge between regimes",
        fix: "inject through FailureEvent / inject_event (one waived seam exists)",
    },
    RuleDoc {
        name: "raw-spoof",
        scope: "crates/experiments/src minus adversarial.rs",
        why: "byzantine lies outside the adversarial sweep skew honest tables \
              without appearing in telemetry",
        fix: "move the spoof into the adversarial sweep where both arms share \
              substreams and every lie is counted",
    },
    RuleDoc {
        name: "journal-choke",
        scope: "crates/proto/src minus journal.rs and router.rs",
        why: "the crash-recovery guarantee is append-before-act: every \
              router mutation is journaled before it happens, so replaying \
              the journal reproduces the live router bit-for-bit. A raw \
              mutator call (.gate_walk(, .reserve_primary(, …) outside the \
              Journals choke point mutates state the journal never saw — \
              the divergence only surfaces as a wrong router after a crash",
        fix: "hand Journals::commit the JournalRecord that names the mutation \
              (Journals::gate for a walk's dedup verdict) instead of calling \
              the raw Router mutator; a new mutator needs a record kind and \
              an arm in journal.rs's apply",
    },
    RuleDoc {
        name: "spf-alloc",
        scope: "dijkstra.rs / disjoint.rs / yen.rs / dynamic_spt.rs",
        why: "per-search allocation on the SPF hot path defeats the \
              generation-stamped SpfWorkspace (and the dynamic SPT's \
              reusable repair scratch)",
        fix: "reuse the workspace arrays/heap; waive cold paths with a rationale",
    },
    RuleDoc {
        name: "probe-alloc",
        scope: "failure.rs / analysis.rs",
        why: "per-probe collection defeats the generation-stamped ProbeWorkspace",
        fix: "reuse the probe workspace; waive one-shot setup/report code with a \
              rationale",
    },
    RuleDoc {
        name: "float-eq",
        scope: "whole workspace",
        why: "exact float equality in bandwidth accounting is brittle",
        fix: "compare against an epsilon or restructure to integers; waive \
              literal-zero sentinels with a rationale",
    },
    RuleDoc {
        name: "nondet-taint",
        scope: "reported in crates/core, crates/proto, crates/experiments; \
                propagated workspace-wide",
        why: "a helper that wraps an ambient source (clock, OS entropy, hash \
              iteration) taints every caller: routing code calling it breaks \
              byte-identical --jobs output even though no forbidden name \
              appears at the call site. The diagnostic prints the full \
              source→sink call chain",
        fix: "push the nondeterminism out to a seeded stream or the DES clock \
              at the source; if the source line is legitimately waived for \
              `nondet`, the taint disappears with it; a frontier call site \
              can be waived with lint:allow(nondet-taint) + rationale",
    },
    RuleDoc {
        name: "rng-substream",
        scope: "closures passed to parallel_map / for_each_ordered",
        why: "an RNG shared across parallel work units is consumed in worker \
              completion order: output differs between --jobs levels. The \
              jobs-1-vs-8 integration tests catch this after the fact; the \
              rule catches it at the closure",
        fix: "derive a per-unit keyed substream inside the closure: \
              drt_sim::rng::indexed_stream(master, tag, unit_index)",
    },
    RuleDoc {
        name: "baseline-parity",
        scope: "every non-test fn named *_baseline",
        why: "baselines exist to prove the optimised path bit-for-bit \
              equivalent; an unreferenced baseline is dead code wearing a \
              safety vest",
        fix: "reference it from an equivalence proptest, or delete it",
    },
    RuleDoc {
        name: "stale-waiver",
        scope: "every lint:allow(…) comment",
        why: "a waiver that suppresses nothing misleads readers and hides \
              future regressions at the same line",
        fix: "delete the waiver, or fix the drift that made it dead; \
              stale-waiver findings cannot themselves be waived",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_waiver_flagged_live_waiver_not() {
        let ws = Workspace::from_sources(&[(
            "crates/proto/src/x.rs",
            "fn f(m: &M) {\n    let a = m.get().unwrap(); // lint:allow(proto-panics) — invariant: always present\n    let b = 1; // lint:allow(proto-panics) — stale: nothing fires here\n}\n",
        )]);
        let report = run_on(&ws);
        let stale: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == STALE_WAIVER)
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", report.findings);
        assert_eq!(stale[0].line, 3);
        // The live waiver suppressed its finding.
        assert!(!report.findings.iter().any(|f| f.rule == "proto-panics"));
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/x.rs",
            "fn f() {} // lint:allow(no-such-rule)\n",
        )]);
        let report = run_on(&ws);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, STALE_WAIVER);
        assert!(report.findings[0].detail[0].contains("unknown rule"));
    }

    #[test]
    fn nondet_waiver_used_by_seed_neutralisation_is_not_stale() {
        // In bench-style code the `nondet` legacy finding and the taint
        // seed share the waiver; it must count as used.
        let ws = Workspace::from_sources(&[(
            "crates/experiments/src/bench.rs",
            "pub fn timed() -> u64 {\n    let t0 = Instant::now(); // lint:allow(nondet) — bench harness\n    stamp(t0)\n}\n",
        )]);
        let report = run_on(&ws);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
