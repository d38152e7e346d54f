//! A lightweight per-workspace code model: functions, impl contexts,
//! call sites, nondeterminism seeds, and waivers.
//!
//! Built on the token stream from [`crate::lex`], this is *not* a full
//! Rust front end — it is exactly the item structure the semantic rules
//! need:
//!
//! * every `fn` (free or in an `impl`), with its file, declaration line,
//!   and whether it lives in test code (a `tests/`, `benches/`, or
//!   `examples/` file, or at/after the first `#[cfg(test)]` of a file);
//! * every *call site* inside a body — `helper(…)`, `path::helper(…)`,
//!   `recv.method(…)` — resolved later by name (an over-approximation:
//!   same-named functions alias, which errs toward reporting; waivers
//!   resolve the rare false positive);
//! * direct *nondeterminism seeds*: `thread_rng`, `from_entropy`,
//!   `Instant::now`, `SystemTime`, and iteration over a local binding or
//!   parameter whose type mentions `HashMap`/`HashSet`;
//! * every `lint:allow(rule)` *waiver* found in a plain (non-doc)
//!   comment, for suppression and for the stale-waiver audit.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::lex::{self, Token, TokenKind};

/// The kinds of ambient nondeterminism the taint pass seeds at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// `thread_rng()` — OS-entropy RNG.
    ThreadRng,
    /// `from_entropy()` — OS-entropy RNG construction.
    FromEntropy,
    /// `Instant::now()` — wall-clock read.
    InstantNow,
    /// Any use of `SystemTime` — wall-clock read.
    SystemTime,
    /// Iteration over a `HashMap`/`HashSet` (order is unstable).
    HashIter,
}

impl SeedKind {
    /// Human-readable description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SeedKind::ThreadRng => "thread_rng() (OS entropy)",
            SeedKind::FromEntropy => "from_entropy() (OS entropy)",
            SeedKind::InstantNow => "Instant::now() (wall clock)",
            SeedKind::SystemTime => "SystemTime (wall clock)",
            SeedKind::HashIter => "HashMap/HashSet iteration (unstable order)",
        }
    }
}

/// A direct nondeterminism source inside one function body.
#[derive(Debug, Clone, Copy)]
pub struct Seed {
    /// What fired.
    pub kind: SeedKind,
    /// 1-based source line.
    pub line: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment; `r#` stripped).
    pub name: String,
    /// 1-based source line of the callee token.
    pub line: usize,
    /// `true` for dot-method calls (`recv.name(…)`). A dot-call can
    /// never invoke a free function, so resolution restricts it to
    /// impl-block functions.
    pub method: bool,
    /// Explicit one-segment path qualifier (`Type::name(…)`), if any.
    /// `Self` is resolved to the enclosing impl type during extraction.
    pub qual: Option<String>,
}

/// One function (free or method) extracted from a source file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare name.
    pub name: String,
    /// Qualified display name: `Type::name` inside an impl, else `name`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether this function is test-only code.
    pub is_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Direct nondeterminism seeds in the body.
    pub seeds: Vec<Seed>,
    /// Token range `[start, end)` of the whole item (signature + body)
    /// in its file's token stream.
    pub tokens: (usize, usize),
}

/// One `lint:allow(rule)` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the comment.
    pub line: usize,
    /// The rule name inside the parentheses.
    pub rule: String,
}

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative, forward-slash path.
    pub path: String,
    /// Source text.
    pub src: String,
    /// Whether the whole file is test code (under `tests/`, `benches/`,
    /// `examples/`).
    pub all_test: bool,
    /// First line at/after which code is `#[cfg(test)]`-gated, if any.
    pub test_from_line: Option<usize>,
}

/// The extracted workspace model.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files (non-test *and* test).
    pub files: Vec<SourceFile>,
    /// Extracted functions across all files.
    pub fns: Vec<FnInfo>,
    /// Function indices by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// All waiver comments in non-test code regions.
    pub waivers: Vec<Waiver>,
}

/// Directory names whose files are test-only code (still modelled, but
/// exempt from the rules themselves).
const TEST_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Directories never scanned at all.
const SKIP_DIRS: [&str; 3] = ["vendor", "target", ".git"];

/// Rust keywords and primitive-ish identifiers never treated as callees.
const KEYWORDS: [&str; 40] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

impl Workspace {
    /// Builds the model from in-memory `(path, source)` pairs. Paths use
    /// forward slashes and decide test scoping exactly like on-disk ones.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            waivers: Vec::new(),
        };
        for (path, src) in sources {
            ws.add_file(path, src);
        }
        ws
    }

    /// Walks `root`'s `crates/` and `src/` trees (skipping `vendor/`,
    /// `target/`, `.git/`) and builds the model from every `.rs` file,
    /// including test files.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for top in ["crates", "src"] {
            let dir = root.join(top);
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            waivers: Vec::new(),
        };
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(&file)?;
            ws.add_file(&rel, &src);
        }
        Ok(ws)
    }

    /// The [`SourceFile`] a function lives in.
    pub fn file_of(&self, f: &FnInfo) -> &SourceFile {
        &self.files[f.file]
    }

    /// The trimmed source line `line` (1-based) of file `file`.
    pub fn line_text(&self, file: usize, line: usize) -> &str {
        self.files[file]
            .src
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
            .trim()
    }

    fn add_file(&mut self, path: &str, src: &str) {
        let all_test = path.split('/').any(|seg| TEST_DIRS.contains(&seg));
        let lexed = lex::lex(src);
        let test_from_line = src
            .lines()
            .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
            .map(|idx| idx + 1);
        let file_idx = self.files.len();
        let is_test_line = |line: usize| all_test || test_from_line.is_some_and(|t| line >= t);

        // Waivers: plain comments only — doc comments are prose (they
        // *describe* waivers without granting them).
        for t in &lexed.tokens {
            if let TokenKind::Comment { doc: false } = t.kind {
                if !is_test_line(t.line) {
                    for (rule, rel_line) in waiver_rules(lexed.text(t)) {
                        self.waivers.push(Waiver {
                            file: file_idx,
                            line: t.line + rel_line,
                            rule,
                        });
                    }
                }
            }
        }

        // Code tokens only (comments out), for item parsing.
        let code: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();

        extract_fns(self, file_idx, &lexed, &code, &is_test_line);

        self.files.push(SourceFile {
            path: path.to_string(),
            src: src.to_string(),
            all_test,
            test_from_line,
        });
    }
}

/// Parses every `lint:allow(rule)` occurrence out of a comment's text.
/// Returns `(rule, line offset within the comment)` pairs; a block
/// comment can span lines, so the offset keeps waivers line-accurate.
fn waiver_rules(comment: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (rel_line, line) in comment.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                .unwrap_or(rest.len());
            if end > 0 && rest[end..].starts_with(')') {
                out.push((rest[..end].to_string(), rel_line));
            }
            rest = &rest[end..];
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the index (into `code`) of the token matching the opening
/// delimiter at `open`, honouring nesting of all three bracket kinds.
/// Returns `code.len()` when unterminated.
pub(crate) fn matching(code: &[&Token], lexed: &lex::Lexed<'_>, open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match lexed.text(t).as_bytes()[0] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    code.len()
}

fn punct(lexed: &lex::Lexed<'_>, t: &Token) -> u8 {
    if t.kind == TokenKind::Punct {
        lexed.text(t).as_bytes()[0]
    } else {
        0
    }
}

/// Extracts functions (with calls, seeds, hash bindings) from one file's
/// comment-free token stream.
fn extract_fns(
    ws: &mut Workspace,
    file_idx: usize,
    lexed: &lex::Lexed<'_>,
    code: &[&Token],
    is_test_line: &dyn Fn(usize) -> bool,
) {
    // Pass 1: impl contexts. For each token index, the innermost impl
    // type name (if any), computed with a scan + stack.
    let mut impl_ctx: Vec<Option<String>> = vec![None; code.len()];
    {
        let mut stack: Vec<(usize, Option<String>)> = Vec::new(); // (close idx of `{`, type)
        let mut k = 0;
        while k < code.len() {
            let t = code[k];
            if matches!(t.kind, TokenKind::Ident) && lexed.text(t) == "impl" {
                // Skip generics, collect the implemented type: the path
                // right before `{`/`where` (after `for` when present).
                let mut j = k + 1;
                let mut ty: Option<String> = None;
                let mut depth_angle = 0i32;
                while j < code.len() {
                    let tj = code[j];
                    let p = punct(lexed, tj);
                    if p == b'<' {
                        depth_angle += 1;
                    } else if p == b'>' {
                        depth_angle -= 1;
                    } else if depth_angle == 0 {
                        if matches!(tj.kind, TokenKind::Ident | TokenKind::RawIdent) {
                            match lexed.name(tj) {
                                "for" => ty = None,
                                "where" => {}
                                name if ty.is_none() || punct(lexed, code[j - 1]) == b':' => {
                                    // First segment, or a later `::` one.
                                    ty = Some(name.to_string());
                                }
                                _ => {}
                            }
                        } else if p == b'{' {
                            break;
                        }
                    }
                    j += 1;
                }
                if j < code.len() {
                    let close = matching(code, lexed, j);
                    stack.push((close, ty.clone()));
                    for slot in impl_ctx.iter_mut().take(close.min(code.len())).skip(j) {
                        *slot = ty.clone();
                    }
                    k = j + 1;
                    continue;
                }
            }
            k += 1;
        }
        let _ = stack;
    }

    // Pass 2: functions.
    let mut k = 0;
    while k < code.len() {
        let t = code[k];
        if !(matches!(t.kind, TokenKind::Ident) && lexed.text(t) == "fn") {
            k += 1;
            continue;
        }
        let Some(name_tok) = code.get(k + 1) else {
            break;
        };
        if !matches!(name_tok.kind, TokenKind::Ident | TokenKind::RawIdent) {
            k += 1;
            continue;
        }
        let name = lexed.name(name_tok).to_string();
        // Find the body `{` (or `;` for a bodyless trait/extern decl) at
        // bracket depth 0 relative to the signature.
        let mut j = k + 2;
        let mut body_open = None;
        while j < code.len() {
            let p = punct(lexed, code[j]);
            if p == b'(' || p == b'[' {
                j = matching(code, lexed, j) + 1;
                continue;
            }
            if p == b'{' {
                body_open = Some(j);
                break;
            }
            if p == b';' {
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            k = j + 1;
            continue;
        };
        let close = matching(code, lexed, open);
        let impl_ty = impl_ctx[k].clone();
        let qual = match &impl_ty {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };

        // Hash-typed bindings: parameters first.
        let mut hash_bound: BTreeSet<String> = BTreeSet::new();
        scan_params_for_hash(lexed, code, k + 2, open, &mut hash_bound);

        let mut calls = Vec::new();
        let mut seeds = Vec::new();
        scan_body(
            lexed,
            code,
            open + 1,
            close,
            impl_ty.as_deref(),
            &mut hash_bound,
            &mut calls,
            &mut seeds,
        );

        let fn_idx = ws.fns.len();
        ws.by_name.entry(name.clone()).or_default().push(fn_idx);
        ws.fns.push(FnInfo {
            file: file_idx,
            name,
            qual,
            line: t.line,
            is_test: is_test_line(t.line),
            calls,
            seeds,
            tokens: (k, close.min(code.len())),
        });
        // Continue *inside* the body too: nested fns get their own
        // entries (their calls are then attributed twice — to the outer
        // fn as well — which errs toward reporting; acceptable).
        k += 2;
    }
}

/// Scans a signature's parameter list for parameters whose type mentions
/// `HashMap`/`HashSet`; records their names.
fn scan_params_for_hash(
    lexed: &lex::Lexed<'_>,
    code: &[&Token],
    from: usize,
    until: usize,
    hash_bound: &mut BTreeSet<String>,
) {
    // Find the `(` of the parameter list.
    let mut j = from;
    while j < until && punct(lexed, code[j]) != b'(' {
        j += 1;
    }
    if j >= until {
        return;
    }
    let close = matching(code, lexed, j).min(until);
    let mut k = j + 1;
    while k < close {
        // `name :` at depth 1 begins a parameter.
        if matches!(code[k].kind, TokenKind::Ident | TokenKind::RawIdent)
            && k + 1 < close
            && punct(lexed, code[k + 1]) == b':'
        {
            let pname = lexed.name(code[k]).to_string();
            // Type tokens run to the `,` at this depth (or the `)`).
            let mut m = k + 2;
            let mut mentions_hash = false;
            while m < close {
                let p = punct(lexed, code[m]);
                if p == b'(' || p == b'[' || p == b'{' {
                    m = matching(code, lexed, m) + 1;
                    continue;
                }
                if p == b',' {
                    break;
                }
                if matches!(code[m].kind, TokenKind::Ident)
                    && matches!(lexed.text(code[m]), "HashMap" | "HashSet")
                {
                    mentions_hash = true;
                }
                m += 1;
            }
            if mentions_hash {
                hash_bound.insert(pname);
            }
            k = m + 1;
            continue;
        }
        k += 1;
    }
}

/// Hash-collection methods whose call means *iteration order matters*.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

#[allow(clippy::too_many_arguments)]
fn scan_body(
    lexed: &lex::Lexed<'_>,
    code: &[&Token],
    from: usize,
    until: usize,
    impl_ty: Option<&str>,
    hash_bound: &mut BTreeSet<String>,
    calls: &mut Vec<CallSite>,
    seeds: &mut Vec<Seed>,
) {
    let mut k = from;
    while k < until.min(code.len()) {
        let t = code[k];
        if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            let name = lexed.name(t);
            // `let [mut] name (: T)? = init;` — track hash bindings.
            if name == "let" {
                let mut m = k + 1;
                if m < until && lexed.name(code[m]) == "mut" {
                    m += 1;
                }
                if m < until && matches!(code[m].kind, TokenKind::Ident | TokenKind::RawIdent) {
                    let bname = lexed.name(code[m]).to_string();
                    // Scan annotation + initializer to the `;` at depth 0.
                    let mut n = m + 1;
                    let mut mentions_hash = false;
                    while n < until {
                        let p = punct(lexed, code[n]);
                        if p == b'(' || p == b'[' || p == b'{' {
                            n = matching(code, lexed, n) + 1;
                            continue;
                        }
                        if p == b';' {
                            break;
                        }
                        if matches!(code[n].kind, TokenKind::Ident)
                            && matches!(lexed.text(code[n]), "HashMap" | "HashSet")
                        {
                            mentions_hash = true;
                        }
                        n += 1;
                    }
                    if mentions_hash {
                        hash_bound.insert(bname);
                    }
                }
                k += 1;
                continue;
            }
            // Direct seeds.
            match name {
                "thread_rng" => seeds.push(Seed {
                    kind: SeedKind::ThreadRng,
                    line: t.line,
                }),
                "from_entropy" => seeds.push(Seed {
                    kind: SeedKind::FromEntropy,
                    line: t.line,
                }),
                "SystemTime" => seeds.push(Seed {
                    kind: SeedKind::SystemTime,
                    line: t.line,
                }),
                "Instant"
                    if punct_at(lexed, code, k + 1) == b':'
                        && punct_at(lexed, code, k + 2) == b':'
                        && code.get(k + 3).is_some_and(|n| lexed.name(n) == "now") =>
                {
                    seeds.push(Seed {
                        kind: SeedKind::InstantNow,
                        line: t.line,
                    });
                }
                _ => {}
            }
            // Hash iteration: `bound.iter()` & friends, or `for … in
            // [&[mut]] bound {`.
            if hash_bound.contains(name)
                && punct_at(lexed, code, k + 1) == b'.'
                && code
                    .get(k + 2)
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&lexed.name(m)))
                && punct_at(lexed, code, k + 3) == b'('
            {
                seeds.push(Seed {
                    kind: SeedKind::HashIter,
                    line: t.line,
                });
            }
            if name == "for" {
                // Header runs to the `{` at depth 0; a bare hash binding
                // inside it is an iteration.
                let mut m = k + 1;
                while m < until {
                    let p = punct(lexed, code[m]);
                    if p == b'(' || p == b'[' {
                        m = matching(code, lexed, m) + 1;
                        continue;
                    }
                    if p == b'{' {
                        break;
                    }
                    if matches!(code[m].kind, TokenKind::Ident | TokenKind::RawIdent)
                        && hash_bound.contains(lexed.name(code[m]))
                        && punct_at(lexed, code, m + 1) != b'.'
                    {
                        seeds.push(Seed {
                            kind: SeedKind::HashIter,
                            line: code[m].line,
                        });
                    }
                    m += 1;
                }
            }
            // Call site: `name (`, not a macro (`name!(`), not a keyword,
            // not the `fn` of a nested declaration (handled separately).
            if !KEYWORDS.contains(&name) && punct_at(lexed, code, k + 1) == b'(' {
                let prev = k.checked_sub(1).map(|p| punct(lexed, code[p])).unwrap_or(0);
                let prev_name = k
                    .checked_sub(1)
                    .map(|p| lexed.name(code[p]))
                    .unwrap_or_default();
                if prev_name != "fn" {
                    // One-segment qualifier, `Self` resolved to the impl
                    // type. (`a::b::name(` keeps only `b`.)
                    let qual = if prev == b':' && k >= 2 && punct(lexed, code[k - 2]) == b':' {
                        k.checked_sub(3)
                            .map(|q| lexed.name(code[q]))
                            .filter(|n| {
                                !n.is_empty()
                                    && n.chars()
                                        .next()
                                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                            })
                            .map(|n| {
                                if n == "Self" {
                                    impl_ty.unwrap_or("Self").to_string()
                                } else {
                                    n.to_string()
                                }
                            })
                    } else {
                        None
                    };
                    calls.push(CallSite {
                        name: name.to_string(),
                        line: t.line,
                        method: prev == b'.',
                        qual,
                    });
                }
            }
        }
        k += 1;
    }
}

fn punct_at(lexed: &lex::Lexed<'_>, code: &[&Token], at: usize) -> u8 {
    code.get(at).map(|t| punct(lexed, t)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_free_fns_and_methods() {
        let ws = Workspace::from_sources(&[(
            "crates/x/src/lib.rs",
            "fn free() { helper(1); }\nimpl Engine { fn step(&mut self) { self.tick(); free(); } }\n",
        )]);
        let names: Vec<&str> = ws.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, ["free", "Engine::step"]);
        let step = &ws.fns[1];
        let callees: Vec<&str> = step.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(callees, ["tick", "free"]);
    }

    #[test]
    fn seeds_detected_including_instant_path() {
        let ws = Workspace::from_sources(&[(
            "crates/x/src/lib.rs",
            "fn f() { let t = Instant::now(); let r = rand::thread_rng(); }\n",
        )]);
        let kinds: Vec<SeedKind> = ws.fns[0].seeds.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SeedKind::InstantNow, SeedKind::ThreadRng]);
    }

    #[test]
    fn hash_iteration_seeds_but_membership_does_not() {
        let iter = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); for (k, v) in m.iter() { use_it(k, v); } }\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", iter)]);
        assert!(ws.fns[0].seeds.iter().any(|s| s.kind == SeedKind::HashIter));

        let member =
            "fn g(pool: &mut HashSet<LinkId>) { if pool.contains(&x) { pool.remove(&x); } }\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", member)]);
        assert!(ws.fns[0].seeds.is_empty());
    }

    #[test]
    fn for_loop_over_hash_binding_seeds() {
        let src = "fn f(seen: &HashSet<u32>) { for x in seen { use_it(x); } }\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        assert!(ws.fns[0].seeds.iter().any(|s| s.kind == SeedKind::HashIter));
    }

    #[test]
    fn macros_are_not_calls_but_their_args_are_scanned() {
        let src = "fn f() { println!(\"{}\", helper()); }\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        let callees: Vec<&str> = ws.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(callees, ["helper"]);
    }

    #[test]
    fn cfg_test_region_marks_fns() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { prod(); }\n}\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        assert!(!ws.fns[0].is_test);
        assert!(ws.fns[1].is_test);
    }

    #[test]
    fn waivers_collected_from_plain_comments_only() {
        let src = "//! doc mentions lint:allow(nondet-taint) in prose\nfn f() {} // lint:allow(rng-substream) — why\n";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(ws.waivers.len(), 1);
        assert_eq!(ws.waivers[0].rule, "rng-substream");
        assert_eq!(ws.waivers[0].line, 2);
    }
}
