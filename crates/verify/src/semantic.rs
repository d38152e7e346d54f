//! Model-level semantic rules neither the compiler nor clippy can
//! express.
//!
//! * [`rng_substream`] — **RNG-substream discipline.** Closures handed
//!   to the deterministic parallel driver (`parallel_map`) may not
//!   consume an RNG they did not derive:
//!   a shared `Rng` captured from the enclosing scope (or living in the
//!   per-worker context) is consumed in *completion order*, which
//!   breaks the byte-identical `--jobs` contract. Deriving a per-unit
//!   keyed substream inside the closure (`stream`, `indexed_stream`,
//!   `substream_seed`, `seed_from_u64`, `from_seed`) is the sanctioned
//!   pattern. Before this rule, the invariant was only enforced after
//!   the fact by the jobs-1-vs-8 integration tests.
//!
//! The second semantic rule, the **stale-waiver audit**, lives in the
//! orchestrator ([`crate::lint::run_on`]) because it needs the complete
//! unwaived finding set of every other rule.

use crate::lex::{self, Token, TokenKind};
use crate::lint::Finding;
use crate::model::{matching, Workspace};

/// Rule name for the RNG-substream discipline.
pub const RNG_SUBSTREAM: &str = "rng-substream";

/// The deterministic parallel driver whose closures are policed.
const DRIVERS: [&str; 1] = ["parallel_map"];

/// RNG-consuming methods (rand idiom).
const CONSUME: [&str; 14] = [
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "sample_iter",
    "choose",
    "choose_multiple",
    "shuffle",
    "fill",
    "fill_bytes",
    "next_u32",
    "next_u64",
    "random",
];

/// Sanctioned per-unit substream derivations.
const DERIVE: [&str; 5] = [
    "stream",
    "indexed_stream",
    "substream_seed",
    "seed_from_u64",
    "from_seed",
];

/// Scans every non-test region for parallel-driver calls whose closures
/// consume an RNG without deriving a per-unit substream first.
pub fn rng_substream(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if file.all_test {
            continue;
        }
        let lexed = lex::lex(&file.src);
        let code: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        let limit = file.test_from_line.unwrap_or(usize::MAX);
        let mut k = 0;
        while k < code.len() {
            let t = code[k];
            if t.line >= limit {
                break;
            }
            if matches!(t.kind, TokenKind::Ident)
                && DRIVERS.contains(&lexed.text(t))
                && punct_at(&lexed, &code, k + 1) == b'('
            {
                let close = matching(&code, &lexed, k + 1);
                scan_driver_args(&lexed, &code, k + 2, close, &file.path, &mut findings);
                // Walk *into* the span too: a driver call nested in
                // another driver's closure gets its own pass.
            }
            k += 1;
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line);
    findings
}

/// Finds each closure literal in `[from, until)` and checks it.
fn scan_driver_args(
    lexed: &lex::Lexed<'_>,
    code: &[&Token],
    from: usize,
    until: usize,
    path: &str,
    findings: &mut Vec<Finding>,
) {
    let mut m = from;
    while m < until.min(code.len()) {
        let is_pipe = punct_at(lexed, code, m) == b'|';
        if is_pipe {
            let prev = m
                .checked_sub(1)
                .map(|p| (punct_at(lexed, code, p), lexed.name(code[p])))
                .unwrap_or((b'(', ""));
            let starts_closure = m == from
                || matches!(prev.0, b'(' | b',' | b'{' | b'=' | b';')
                || prev.1 == "move"
                || prev.1 == "return";
            if starts_closure {
                // Parameter list: `||` (empty) or `|…|`.
                let body_start = if punct_at(lexed, code, m + 1) == b'|' {
                    m + 2
                } else {
                    let mut p = m + 1;
                    while p < until {
                        let c = punct_at(lexed, code, p);
                        if c == b'(' || c == b'[' {
                            p = matching(code, lexed, p) + 1;
                            continue;
                        }
                        if c == b'|' {
                            break;
                        }
                        p += 1;
                    }
                    p + 1
                };
                // Body: a block, or one expression up to the `,` at this
                // argument level.
                let body_end = if punct_at(lexed, code, body_start) == b'{' {
                    matching(code, lexed, body_start) + 1
                } else {
                    let mut p = body_start;
                    let mut end = until;
                    while p < until {
                        let c = punct_at(lexed, code, p);
                        if c == b'(' || c == b'[' || c == b'{' {
                            p = matching(code, lexed, p) + 1;
                            continue;
                        }
                        if c == b',' {
                            end = p;
                            break;
                        }
                        p += 1;
                    }
                    end
                };
                check_closure(lexed, code, body_start, body_end.min(until), path, findings);
                m = body_start;
                continue;
            }
        }
        m += 1;
    }
}

/// Flags the first RNG consumption in a closure body that derives no
/// per-unit substream.
fn check_closure(
    lexed: &lex::Lexed<'_>,
    code: &[&Token],
    from: usize,
    until: usize,
    path: &str,
    findings: &mut Vec<Finding>,
) {
    let mut consumption: Option<(usize, &str)> = None;
    let mut derives = false;
    for k in from..until.min(code.len()) {
        let t = code[k];
        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            continue;
        }
        let name = lexed.name(t);
        if punct_at(lexed, code, k + 1) == b'(' {
            if DERIVE.contains(&name) {
                derives = true;
            }
            if CONSUME.contains(&name)
                && k.checked_sub(1)
                    .is_some_and(|p| punct_at(lexed, code, p) == b'.')
                && consumption.is_none()
            {
                consumption = Some((t.line, name));
            }
        }
    }
    if let Some((line, method)) = consumption {
        if !derives {
            findings.push(Finding {
                rule: RNG_SUBSTREAM,
                path: path.to_string(),
                line,
                excerpt: String::new(),
                detail: vec![format!(
                    "closure passed to a deterministic parallel driver consumes an RNG \
                     (`.{method}(…)`) without deriving a per-unit substream; results would \
                     depend on worker completion order — derive with \
                     drt_sim::rng::indexed_stream(seed, tag, unit_index) inside the closure"
                )],
            });
        }
    }
}

fn punct_at(lexed: &lex::Lexed<'_>, code: &[&Token], at: usize) -> u8 {
    match code.get(at) {
        Some(t) if t.kind == TokenKind::Punct => lexed.text(t).as_bytes()[0],
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_rng_in_parallel_closure_flagged() {
        let src = "fn sweep(rng: &mut StdRng) {\n    let out = parallel_map(8, cells, || (), |_, cell| {\n        let jitter = rng.gen_range(0..10);\n        run(cell, jitter)\n    });\n}\n";
        let ws = Workspace::from_sources(&[("crates/experiments/src/sweep.rs", src)]);
        let f = rng_substream(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RNG_SUBSTREAM);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn derived_substream_in_closure_is_clean() {
        let src = "fn sweep(seed: u64) {\n    let out = parallel_map(8, cells, || (), |_, (i, cell)| {\n        let mut rng = drt_sim::rng::indexed_stream(seed, \"cell\", i);\n        run(cell, rng.gen_range(0..10))\n    });\n}\n";
        let ws = Workspace::from_sources(&[("crates/experiments/src/sweep.rs", src)]);
        assert!(rng_substream(&ws).is_empty());
    }

    #[test]
    fn delegating_closure_is_clean() {
        let src = "fn sweep(cfg: &Cfg) {\n    let out = parallel_map(8, cells, || (), |(), cell| run_cell(cfg, cell));\n}\n";
        let ws = Workspace::from_sources(&[("crates/experiments/src/sweep.rs", src)]);
        assert!(rng_substream(&ws).is_empty());
    }
}
