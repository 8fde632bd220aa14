//! The `trace` binary's flag handling: a bad or missing value exits 2
//! with a message naming the flag, as the shared `CommonArgs` flags do, a
//! flag another binary owns is unknown, and a good invocation still
//! renders its round.

use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("the trace binary runs")
}

/// Asserts `args` exit 2 with a one-line message containing `needle`.
fn rejects(args: &[&str], needle: &str) {
    let out = trace(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} ran a round");
}

#[test]
fn a_non_numeric_width_exits_2() {
    rejects(
        &["vi-smp-1b", "--width", "abc"],
        "invalid --width value \"abc\"",
    );
    rejects(
        &["vi-smp-1b", "--width", "1000000"],
        "at most 10000 columns",
    );
}

#[test]
fn a_misspelt_find_outcome_exits_2() {
    rejects(
        &["vi-smp-1b", "--find", "sucess"],
        "expected success or failure",
    );
}

#[test]
fn export_without_a_path_exits_2() {
    rejects(&["vi-smp-1b", "--export"], "--export needs a value");
}

#[test]
fn a_flag_is_not_a_value() {
    // `--export` must not swallow `--perfetto` as its path (and then
    // blame `x.json` as an unknown scenario).
    rejects(
        &["vi-smp", "--export", "--perfetto", "x.json"],
        "--export needs a value",
    );
    rejects(&["vi-smp", "--seed", "--jobs", "2"], "--seed needs a value");
}

#[test]
fn single_binary_flags_are_unknown_elsewhere() {
    rejects(&["vi-smp-1b", "--anatomy"], "unknown flag --anatomy");
    for args in [["--perfetto", "x"], ["--anatomy", "--cold"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--grid", "d", "--points", "1", "--rounds", "1"])
            .args(args)
            .output()
            .expect("the sweep binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("unknown flag {}", args[0])), "{err}");
    }
}

#[test]
fn a_valid_run_renders_and_exports() {
    let dir = std::env::temp_dir().join(format!("trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("round.jsonl");
    let out = trace(&[
        "vi-smp-1b",
        "--seed",
        "7",
        "--width",
        "60",
        "--export",
        jsonl.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("seed 7: "), "{stdout}");
    let header = std::fs::read_to_string(&jsonl).unwrap();
    assert!(header.starts_with("{\"type\":\"header\""), "{header}");
    std::fs::remove_dir_all(&dir).unwrap();
}
