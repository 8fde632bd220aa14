//! Smoke test of the benchmark itself: every workload at tiny sizes
//! (`--quick`), untraced and traced, at the default seed (where the
//! outcome digests are pinned) and at a held-out seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

const DEFAULT_SEED: &str = "1";
const HELD_OUT_SEED: &str = "977";

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected a string at {key}, found {other:?}"),
    }
}

fn workloads(b: &Value) -> Vec<String> {
    items(b, "workloads")
        .iter()
        .map(|w| text(w, "name").to_owned())
        .collect()
}

/// Runs the benchmark and returns its result line, parsed.
fn run(workload: &str, seed: &str, trace: &str) -> Value {
    let out_dir = format!(
        "{}/smoke-{workload}-{seed}-{trace}",
        env!("CARGO_TARGET_TMPDIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--trace", trace])
        .args(["--seconds", "0.2", "--quick", "--out", &out_dir])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn assert_clean(r: &Value, what: &str) {
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{what}: {r:?}");
    assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{what}");
    assert!(
        r.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
}

fn allowed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_checks_pass() {
    let b = declared();
    for w in workloads(&b) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = run(&w, DEFAULT_SEED, trace);
            assert_clean(&r, &format!("{w} trace {trace}"));
            let Some(Value::Object(printed)) = r.get("metrics") else {
                panic!("{w} trace {trace}: no metrics object");
            };
            let declared = items(&b, list);
            assert_eq!(printed.len(), declared.len(), "{w} trace {trace}");
            for m in declared {
                let name = text(m, "name");
                let got = printed
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: {name} not printed"));
                assert_eq!(text(got, "unit"), text(m, "unit"), "{w}: unit of {name}");
                let value = got.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w}: value of {name}");
            }
        }
    }
}

#[test]
fn every_name_uses_only_the_allowed_characters() {
    let b = declared();
    let mut names = workloads(&b);
    for list in ["end_to_end", "per_layer"] {
        names.extend(items(&b, list).iter().map(|m| text(m, "name").to_owned()));
    }
    for n in &names {
        assert!(allowed_name(n), "bad name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are used once");
}

#[test]
fn a_held_out_seed_runs_clean() {
    for w in workloads(&declared()) {
        for trace in ["0", "1"] {
            assert_clean(
                &run(&w, HELD_OUT_SEED, trace),
                &format!("{w} seed {HELD_OUT_SEED}"),
            );
        }
    }
}
