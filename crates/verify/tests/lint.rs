//! Fixture tests for the lexer-backed code model, plus the repo-wide
//! gate: the whole workspace must lint clean.

use std::path::PathBuf;

use verify::lint::run_full;
use verify::model::{SeedKind, Workspace};

/// The seeds the model extracts from `fn name` in `src`, as `(kind,
/// line)` pairs. Panics when the fixture holds no such fn: a lexer that
/// swallows the rest of the file loses the fn along with its seeds.
fn seeds_of(src: &str, name: &str) -> Vec<(SeedKind, usize)> {
    let ws = Workspace::from_sources(&[("crates/core/src/lib.rs", src)]);
    let f = ws
        .fns
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fn `{name}` extracted"));
    f.seeds.iter().map(|s| (s.kind, s.line)).collect()
}

// ---------------------------------------------------------------------
// Adversarial lexer inputs: every construct here once confused a
// substring-era lint or plausibly could. The contract under test is the
// model's seeds — nothing inside a comment or literal body seeds, code
// after it still does, and line numbers stay exact.
// ---------------------------------------------------------------------

#[test]
fn names_in_comments_and_strings_do_not_seed() {
    let src = "// thread_rng would be wrong here\nfn f() { let s = \"Instant::now\"; }\n";
    assert!(seeds_of(src, "f").is_empty());
}

#[test]
fn lexer_lifetimes_are_not_char_literals() {
    // `'a` in generics/references must not open a char literal and
    // swallow the rest of the file (which would blind every pass
    // downstream of the quote).
    let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { thread_rng(); }\n";
    assert_eq!(seeds_of(src, "g"), [(SeedKind::ThreadRng, 2)]);
    // …while real char literals, including quote and escape chars,
    // still hide their bodies.
    let chars = "fn f() {\n    let a = 'x';\n    let q = '\\'';\n    let n = '\\n';\n    let u = '\\u{41}';\n    let t = \"thread_rng\";\n}\nfn live() { thread_rng(); }\n";
    assert!(seeds_of(chars, "f").is_empty());
    assert_eq!(seeds_of(chars, "live"), [(SeedKind::ThreadRng, 8)]);
}

#[test]
fn lexer_raw_strings_chars_and_static_lifetimes() {
    let src = "fn f() {\n    let r = r#\"thread_rng\"#;\n    let c = '\"';\n    let lt: &'static str = \"x\";\n}\nfn live() { thread_rng(); }\n";
    assert!(seeds_of(src, "f").is_empty());
    assert_eq!(seeds_of(src, "live"), [(SeedKind::ThreadRng, 6)]);
}

#[test]
fn lexer_byte_strings_and_byte_chars() {
    let src = "fn f() {\n    let b = b\"Instant::now\";\n    let r = br#\"SystemTime\"#;\n    let c = b'\\'';\n    let d = b'x';\n}\nfn live() { from_entropy(); }\n";
    assert!(seeds_of(src, "f").is_empty());
    assert_eq!(seeds_of(src, "live"), [(SeedKind::FromEntropy, 7)]);
}

#[test]
fn lexer_raw_identifiers() {
    // `r#fn` is an identifier, not an `r"` string opener; the quote that
    // follows later must still lex as a normal string.
    let src = "fn r#fn(r#type: u32) -> u32 { r#type }\nfn f() { let s = \"thread_rng\"; }\n";
    assert!(seeds_of(src, "fn").is_empty());
    assert!(seeds_of(src, "f").is_empty());
}

#[test]
fn lexer_doc_comments_are_comments() {
    let src = "fn f() {\n    //! thread_rng in module docs\n    /// SystemTime in item docs\n    /** Instant::now in block docs */\n    let x = 1;\n}\n";
    assert!(seeds_of(src, "f").is_empty());
}

#[test]
fn lexer_nested_block_comments_and_raw_string_interplay() {
    // A `/*` inside a raw string is text, not a comment opener — code
    // after the string must still be modelled…
    let src = "fn f() { let s = r#\"/* not a comment\"#; }\nfn live() { thread_rng(); }\n";
    assert_eq!(seeds_of(src, "live"), [(SeedKind::ThreadRng, 2)]);
    // …and a raw-string opener inside a nested block comment is text
    // too: the comment still closes where it should.
    let src2 = "/* outer /* r#\" inner */ still comment */\nfn live() { thread_rng(); }\n";
    assert_eq!(seeds_of(src2, "live"), [(SeedKind::ThreadRng, 2)]);
}

#[test]
fn lexer_macro_bodies_are_code() {
    // Macro bodies are token soup but still code: literals inside them
    // stay opaque, idents inside them seed.
    let src = "fn f() {\n    macro_rules! m {\n        ($x:expr) => {\n            println!(\"thread_rng {}\", $x)\n        };\n    }\n    m!(Instant::now());\n}\n";
    assert_eq!(seeds_of(src, "f"), [(SeedKind::InstantNow, 7)]);
}

#[test]
fn lexer_multiline_tokens_keep_lines() {
    // A block comment across lines and a string with an escaped quote
    // must not shift the line of what follows.
    let src = "fn f() {\n    one(); /* c1\nc2 */ two();\n    // line 4\n    let s = \"x\\\"y\";\n    let t = Instant::now();\n}\n";
    assert_eq!(seeds_of(src, "f"), [(SeedKind::InstantNow, 6)]);
}

#[test]
fn lexer_escaped_newline_string_continuation_keeps_lines() {
    // `"…\` at end of line continues the literal; the line must still
    // count or every downstream line number drifts.
    let src = "fn f() {\n    let usage = \"line one \\\n    line two\";\n    let t = Instant::now();\n}\n";
    assert_eq!(seeds_of(src, "f"), [(SeedKind::InstantNow, 4)]);
}

#[test]
fn whole_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = run_full(&root)
        .expect("workspace must be scannable")
        .findings;
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
