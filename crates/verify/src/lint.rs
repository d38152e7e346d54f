//! Source-level determinism lint: the call-graph passes and the
//! orchestrator that runs them.
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
//! What the compiler, clippy or a measurement states exactly is not a
//! rule here. Clippy, configured by the `clippy.toml` files under
//! `crates/` and the lint attributes at each crate root, bans the clocks
//! everywhere, `HashMap` / `HashSet` in `drt-core` and `drt-proto`,
//! `unwrap` / `expect` in `drt-proto`, strict float comparison in
//! non-test code, and the raw failure and byzantine seams in
//! `drt-experiments`; its exceptions are `#[expect(…, reason = "…")]`
//! attributes, which rustc reports once they go stale. `drt-proto`'s
//! journaled router mutators are private to the module holding the
//! journal's `apply`, and the root package's `tests/allocation_free.rs`
//! counts what the warmed search, probe and sweep paths allocate.

use std::io;
use std::path::Path;

use crate::model::Workspace;
use crate::{semantic, taint};

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
    /// findings, the rationale for the other rules.
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

/// Runs the full engine — taint, RNG substreams, waiver application,
/// stale-waiver audit — on an already-built model.
pub fn run_on(ws: &Workspace) -> Report {
    let mut raw = taint::scan(ws);
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

    // Stale-waiver audit: every waiver must have suppressed a finding
    // and must name a rule the engine knows.
    let known = known_rules();
    for (wi, w) in ws.waivers.iter().enumerate() {
        let reason = if !known.contains(&w.rule.as_str()) {
            Some(format!(
                "waiver names unknown rule `{}` (known: {})",
                w.rule,
                known.join(", ")
            ))
        } else if !used[wi] {
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

/// Documentation for `--explain`: one row per rule the engine runs.
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
pub const RULE_DOCS: [RuleDoc; 3] = [
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
              at the source; a frontier call site whose reach is understood \
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
        for name in [taint::RULE, semantic::RNG_SUBSTREAM, STALE_WAIVER] {
            assert!(known.contains(&name), "`{name}` has no RULE_DOCS row");
        }
    }

    #[test]
    fn stale_waiver_flagged_live_waiver_not() {
        let ws = Workspace::from_sources(&[
            (
                "crates/net/src/clock.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            (
                "crates/core/src/x.rs",
                "fn f() {\n    let a = stamp(); // lint:allow(nondet-taint) — cosmetic timestamp\n    let b = 1; // lint:allow(nondet-taint) — stale: nothing fires here\n}\n",
            ),
        ]);
        let report = run_on(&ws);
        let stale: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == STALE_WAIVER)
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", report.findings);
        assert_eq!(stale[0].line, 3);
        // The live waiver suppressed its finding.
        assert!(!report.findings.iter().any(|f| f.rule == taint::RULE));
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
}
