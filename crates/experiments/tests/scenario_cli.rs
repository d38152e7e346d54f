//! `scenario generate` refuses flags its generators cannot honour with a
//! one-line `error:` and exit 1, never a panic.

use std::process::Command;

fn generate(flags: &[&str]) -> std::process::Output {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_cli.txt");
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg("generate")
        .arg("--out")
        .arg(&out)
        .args(flags)
        .output()
        .expect("scenario binary runs")
}

#[test]
fn bad_generate_flags_exit_1_without_panicking() {
    let rows: [&[&str]; 11] = [
        &["--nodes", "0"],
        &["--nodes", "1"],
        &["--lambda", "0"],
        &["--lambda", "-1"],
        &["--lambda", "nan"],
        &["--lambda", "inf"],
        &["--failures-per-hour", "inf"],
        &["--failures-per-hour", "nan"],
        &["--failures-per-hour", "-1"],
        &["--failures-per-hour", "-inf"],
        &["--nodes", "1", "--pattern", "nt"],
    ];
    for flags in rows {
        let run = generate(flags);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{flags:?}: {stderr}");
    }
}

#[test]
fn valid_generate_exits_0() {
    let run = generate(&["--minutes", "1"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
}
