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
//! | `raw-fail-link` | experiments crate minus the regimes module | `.fail_link(` — protocol-plane failures belong to the `control-loss` regime of the orchestrated sweep, which replays each one on the manager mirror and reconciles the mirror to the protocol; a stray raw failure elsewhere leaves the mirror, and every number read from it, silently stale |
//! | `raw-spoof` | experiments crate minus the regimes module | `.inject_false_report(`, `.spoof_failure_report(` — byzantine lies belong to the `false-reports` arm of the orchestrated sweep, where both arms share workload substreams and every lie is counted in telemetry; a stray spoof elsewhere silently skews an honest table |
//! | `float-eq` | whole workspace | `==` / `!=` against a float literal — bandwidth accounting must not rely on exact float equality |
//!
//! On top of them, [`run_on`] adds the call-graph passes:
//!
//! | rule | engine | reports |
//! |------|--------|---------|
//! | `nondet-taint` | [`crate::taint`] | a routing/protocol/experiment function that *indirectly* reaches an ambient nondeterminism source, with the full call chain |
//! | `rng-substream` | [`crate::semantic`] | a parallel-driver closure consuming an RNG it did not derive per unit |
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
//! itself. [`RULE_DOCS`] is the one list of rule names a waiver may use.
//!
//! What the compiler or a measurement states exactly is not a rule here:
//! `drt-proto`'s journaled router mutators are private to the module
//! holding the journal's `apply`, and the root package's
//! `tests/allocation_free.rs` counts what the warmed search, probe and
//! sweep paths allocate.

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

fn scope_experiments_minus_regimes(path: &str) -> bool {
    // The orchestrated sweep is the one sanctioned consumer of the raw
    // failure and byzantine seams: its `control-loss` regime fails links
    // on the protocol and reconciles the mirror, its `false-reports`
    // regime is the one liar. Every other experiment driver is honest.
    path.contains("crates/experiments/src") && !path.ends_with("regimes.rs")
}

/// The legacy rule table. `float-eq` is additionally special-cased in
/// [`scan_source`] (it is a token-shape check, not a substring).
pub const RULES: [Rule; 5] = [
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
        why: "protocol-plane failures belong to the control-loss regime of \
              the orchestrated sweep, which replays each one on the manager \
              mirror and reconciles the mirror to the protocol; a raw \
              fail_link from any other experiment driver leaves the mirror \
              stale",
        patterns: &[".fail_link("],
        in_scope: scope_experiments_minus_regimes,
    },
    Rule {
        name: "raw-spoof",
        why: "byzantine lies belong to the false-reports regime of the \
              orchestrated sweep, whose arms share workload substreams and \
              count every lie in telemetry; spoofing from an honest \
              experiment driver skews its tables without leaving a trace in \
              the instrumentation",
        patterns: &[".inject_false_report(", ".spoof_failure_report("],
        in_scope: scope_experiments_minus_regimes,
    },
];

/// Name of the float-equality rule (token-shape check).
pub const FLOAT_EQ: &str = "float-eq";

/// Name of the stale-waiver audit rule.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Every rule name the engine knows: the names of [`RULE_DOCS`], which
/// documents every rule the engine runs. A waiver naming anything else is
/// itself a `stale-waiver` finding.
pub fn known_rules() -> Vec<&'static str> {
    RULE_DOCS.iter().map(|d| d.name).collect()
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
pub const RULE_DOCS: [RuleDoc; 9] = [
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
        scope: "crates/experiments/src minus regimes.rs",
        why: "a raw fail_link outside the control-loss regime fails a link the \
              manager mirror never hears of: the mirror, and every number \
              read from it, silently diverges from the protocol",
        fix: "fail protocol-plane links from the control-loss arm of regimes.rs, \
              which replays the failure on the mirror and reconciles it; \
              centralized failures go through FailureEvent / inject_event",
    },
    RuleDoc {
        name: "raw-spoof",
        scope: "crates/experiments/src minus regimes.rs",
        why: "byzantine lies outside the false-reports regime skew honest \
              tables without appearing in telemetry",
        fix: "inject the lie from the false-reports arm of regimes.rs, where \
              both arms share substreams and every lie is counted",
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
        scope: "closures passed to parallel_map",
        why: "an RNG shared across parallel work units is consumed in worker \
              completion order: output differs between --jobs levels. The \
              jobs-1-vs-8 integration tests catch this after the fact; the \
              rule catches it at the closure",
        fix: "derive a per-unit keyed substream inside the closure: \
              drt_sim::rng::indexed_stream(master, tag, unit_index)",
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
    fn every_rule_the_engine_runs_has_an_explain_row() {
        let known = known_rules();
        let engine = RULES.iter().map(|r| r.name).chain([
            FLOAT_EQ,
            taint::RULE,
            semantic::RNG_SUBSTREAM,
            STALE_WAIVER,
        ]);
        for name in engine {
            assert!(known.contains(&name), "`{name}` has no RULE_DOCS row");
        }
    }

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
