//! Fixpoint nondeterminism-taint propagation over the workspace call
//! graph.
//!
//! Ambient nondeterminism — OS entropy, wall-clock reads, unstable
//! hash-collection iteration — is *seeded* at the function that touches
//! it directly (see [`crate::model::SeedKind`]) and then propagated
//! caller-ward along call edges until nothing changes: any function
//! that can reach a seed through calls is *tainted*. The substring
//! `nondet` rule catches the direct touch; this pass catches the
//! indirect one — a helper two crates away that wraps `Instant::now`
//! and is called from routing — which is exactly the class of
//! regression that silently breaks byte-identical `--jobs` output.
//!
//! A finding is reported at the *frontier*: a function in a policed
//! crate (`crates/core`, `crates/proto`, `crates/experiments`) whose
//! taint arrives through a call into a function that is not itself a
//! reported policed frontier. The diagnostic carries the full
//! source→sink call chain down to the ambient source line, so the fix
//! site is always visible. Seeds whose line carries a `nondet` waiver do
//! not seed (the waiver's rationale covers the transitive uses, and the
//! orchestrator counts such a waiver as *used* so it never reads as
//! stale); a frontier call site can itself be waived with
//! `lint:allow(nondet-taint)` through the ordinary waiver mechanism.
//!
//! Call edges are resolved by name (with a one-segment `Type::`
//! qualifier when the source spells one), which over-approximates:
//! same-named functions alias. That errs toward reporting and is the
//! price of staying dependency-free; the waiver mechanism and the
//! stale-waiver audit keep the noise bounded and honest.

use std::collections::{BTreeMap, VecDeque};

use crate::lint::Finding;
use crate::model::{SeedKind, Workspace};

/// Rule name for taint findings and their waivers.
pub const RULE: &str = "nondet-taint";

/// `true` for paths the taint pass reports findings in: routing,
/// protocol, and experiment-driver code.
pub fn policed(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/proto/src")
        || path.starts_with("crates/experiments/src")
}

/// How taint reached a function.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// The function contains the seed itself.
    Seed(SeedKind, usize),
    /// Taint arrived through the call at `line` into fn `callee`.
    Call { line: usize, callee: usize },
}

/// What the taint pass produced: the frontier findings plus the indices
/// (into `Workspace::waivers`) of `nondet` waivers that neutralised a
/// seed — the orchestrator counts those as used in the stale audit.
#[derive(Debug, Default)]
pub struct TaintResult {
    /// Frontier findings, sorted by path and line.
    pub findings: Vec<Finding>,
    /// Waiver indices consumed by seed neutralisation.
    pub used_seed_waivers: Vec<usize>,
}

/// Runs the fixpoint and renders frontier findings, sorted by path and
/// line. `Finding::detail` holds the call chain, one hop per line.
pub fn scan(ws: &Workspace) -> TaintResult {
    // Seeds, minus waived ones. A `nondet` waiver (the legacy direct
    // rule) neutralises a seed on its line or the line above.
    let mut waived_seed_lines: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (wi, w) in ws.waivers.iter().enumerate() {
        if w.rule == "nondet" {
            waived_seed_lines
                .entry(w.file)
                .or_default()
                .push((w.line, wi));
        }
    }
    let mut used_seed_waivers = Vec::new();
    let mut seed_waived = |file: usize, line: usize| {
        let mut hit = false;
        if let Some(ws_lines) = waived_seed_lines.get(&file) {
            for &(l, wi) in ws_lines {
                if l == line || l + 1 == line {
                    used_seed_waivers.push(wi);
                    hit = true;
                }
            }
        }
        hit
    };

    let n = ws.fns.len();
    // Reverse adjacency: callee -> (caller, call line).
    let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ci, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for call in &f.calls {
            for target in resolve(ws, call) {
                if !ws.fns[target].is_test {
                    callers[target].push((ci, call.line));
                }
            }
        }
    }

    // BFS from seeds, caller-ward; first arrival wins, giving each
    // tainted fn a shortest chain toward a seed. Iteration over fn
    // indices is deterministic.
    let mut via: Vec<Option<Via>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        // Evaluate every seed (not just up to the first live one) so
        // each consumed waiver is recorded for the stale audit.
        let mut live: Option<&crate::model::Seed> = None;
        for s in &f.seeds {
            if !seed_waived(f.file, s.line) && live.is_none() {
                live = Some(s);
            }
        }
        if let Some(seed) = live {
            via[i] = Some(Via::Seed(seed.kind, seed.line));
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &(caller, line) in &callers[cur] {
            if via[caller].is_none() {
                via[caller] = Some(Via::Call { line, callee: cur });
                queue.push_back(caller);
            }
        }
    }

    // Frontier: policed, tainted via call, and the next hop is not
    // itself a policed fn tainted via call (those get their own finding
    // closer to the source; reporting every transitive caller is noise).
    let mut findings = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        let Some(Via::Call { line, callee }) = via[i] else {
            continue;
        };
        if f.is_test || !policed(&ws.file_of(f).path) {
            continue;
        }
        let next_is_policed_frontier = matches!(via[callee], Some(Via::Call { .. }))
            && policed(&ws.file_of(&ws.fns[callee]).path);
        if next_is_policed_frontier {
            continue;
        }
        findings.push(Finding {
            rule: RULE,
            path: ws.file_of(f).path.clone(),
            line,
            excerpt: ws.line_text(f.file, line).to_string(),
            detail: render_chain(ws, i, &via),
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.detail == b.detail);
    used_seed_waivers.sort_unstable();
    used_seed_waivers.dedup();
    TaintResult {
        findings,
        used_seed_waivers,
    }
}

/// Renders the call chain from fn `start` down to its ambient source.
fn render_chain(ws: &Workspace, start: usize, via: &[Option<Via>]) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = start;
    // The chain is acyclic by construction (BFS tree), but cap it
    // defensively anyway.
    for _ in 0..ws.fns.len() + 1 {
        let f = &ws.fns[cur];
        match via[cur] {
            Some(Via::Call { line, callee }) => {
                out.push(format!(
                    "{} ({}:{}) calls {} at line {}",
                    f.qual,
                    ws.file_of(f).path,
                    f.line,
                    ws.fns[callee].qual,
                    line,
                ));
                cur = callee;
            }
            Some(Via::Seed(kind, line)) => {
                out.push(format!(
                    "{} ({}:{}) reads ambient source: {} at line {}",
                    f.qual,
                    ws.file_of(f).path,
                    f.line,
                    kind.describe(),
                    line,
                ));
                break;
            }
            None => break,
        }
    }
    out
}

/// Resolves a call site by name, narrowed by call style:
///
/// * an explicit `Type::` qualifier narrows to matching `Type::name`
///   functions when any exist (falling back below otherwise, since the
///   qualifier may be a module path segment rather than an impl type);
/// * a dot-method call (`recv.name(…)`) can only invoke an impl-block
///   function, never a free one;
/// * a bare `name(…)` can only invoke a free function — associated
///   functions require a `Type::` path in Rust.
///
/// What remains is an over-approximation (same-named methods on
/// different types alias), which errs toward reporting; the waiver
/// mechanism and stale-waiver audit keep that honest.
fn resolve(ws: &Workspace, call: &crate::model::CallSite) -> Vec<usize> {
    let Some(all) = ws.by_name.get(&call.name) else {
        return Vec::new();
    };
    if let Some(q) = call.qual.as_deref() {
        let wanted = format!("{q}::{}", call.name);
        let narrowed: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| ws.fns[i].qual == wanted)
            .collect();
        if !narrowed.is_empty() {
            return narrowed;
        }
    }
    if call.method {
        all.iter()
            .copied()
            .filter(|&i| ws.fns[i].qual != ws.fns[i].name)
            .collect()
    } else if call.qual.is_none() {
        all.iter()
            .copied()
            .filter(|&i| ws.fns[i].qual == ws.fns[i].name)
            .collect()
    } else {
        all.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indirect_clock_read_two_calls_deep_is_reported_with_chain() {
        let ws = Workspace::from_sources(&[
            (
                "crates/net/src/helper.rs",
                "pub fn stamp() -> u64 { raw_clock() }\npub fn raw_clock() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            (
                "crates/core/src/routing/pick.rs",
                "pub fn pick_route() -> u64 { stamp() }\n",
            ),
        ]);
        let result = scan(&ws);
        assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
        let f = &result.findings[0];
        assert_eq!(f.rule, RULE);
        assert_eq!(f.path, "crates/core/src/routing/pick.rs");
        // Full chain: pick_route -> stamp -> raw_clock -> Instant::now.
        assert_eq!(f.detail.len(), 3);
        assert!(f.detail[0].contains("pick_route"));
        assert!(f.detail[2].contains("Instant::now"));
    }

    #[test]
    fn waived_seed_does_not_propagate() {
        let ws = Workspace::from_sources(&[
            (
                "crates/experiments/src/bench.rs",
                "pub fn timed() -> u64 { Instant::now().elapsed().as_nanos() as u64 } // lint:allow(nondet) — bench harness\n",
            ),
            (
                "crates/experiments/src/campaign.rs",
                "pub fn run() { let _ = timed(); }\n",
            ),
        ]);
        let result = scan(&ws);
        assert!(result.findings.is_empty(), "{:?}", result.findings);
        // The waiver was consumed by seed neutralisation.
        assert_eq!(result.used_seed_waivers.len(), 1);
    }

    #[test]
    fn unpoliced_sink_is_not_reported() {
        let ws = Workspace::from_sources(&[(
            "crates/sim/src/stats.rs",
            "pub fn wrap() -> u64 { tick() }\npub fn tick() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        )]);
        assert!(scan(&ws).findings.is_empty());
    }
}
