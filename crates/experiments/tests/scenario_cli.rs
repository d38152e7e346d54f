//! `scenario generate` refuses flags its generators cannot honour, and
//! every subcommand refuses a flag it does not know, with a one-line
//! `error:` and exit 1, never a panic.

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

fn scenario(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("scenario binary runs")
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join("scenario_cli_flags.txt");
    let file = file.to_str().expect("utf-8 path");
    let made = scenario(&["generate", "--out", file, "--minutes", "1", "--nodes", "10"]);
    assert_eq!(made.status.code(), Some(0), "{made:?}");
    let topo = dir.join("scenario_cli_flags.topo");
    let topo = topo.to_str().expect("utf-8 path");
    let rows: [(&[&str], &str); 6] = [
        // A connection holds one backup: there is no count to set.
        (&["replay", file, "--backups", "2"], "--backups"),
        (
            &["replay", file, "--scheme", "d-lsr", "--schem", "bf"],
            "--schem",
        ),
        (&["generate", "--out", file, "--lamda", "0.4"], "--lamda"),
        (&["info", file, "--seed", "1"], "--seed"),
        (&["topology", "--out", topo, "--degre", "4"], "--degre"),
        (&["topology-info", topo, "--nodes", "9"], "--nodes"),
    ];
    for (args, named) in rows {
        let run = scenario(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {named}")),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
    // A known flag's value is not read as a flag, and known flags pass.
    let run = scenario(&["replay", file, "--scheme", "spf", "--degree", "3"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
}
