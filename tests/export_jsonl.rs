//! End-to-end contract of the JSONL trace exporter: every line parses as
//! JSON, the header's record counts match what follows, drop counters are
//! surfaced, and the final line carries the round's metrics snapshot.

use serde_json::Value;
use tocttou::experiments::export_jsonl;
use tocttou::workloads::Scenario;

fn export(scenario: &Scenario, seed: u64) -> (u64, Vec<Value>) {
    let (_, handles) = scenario.run_traced(seed);
    let mut buf = Vec::new();
    let lines = export_jsonl(&mut buf, &scenario.name, seed, &handles.kernel).unwrap();
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    let parsed = text
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).expect("every line is valid JSON"))
        .collect();
    (lines, parsed)
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("field {key}: expected string, got {other:?}"),
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("field {key} missing or not u64"))
}

#[test]
fn round_trips_as_valid_jsonl_with_consistent_header() {
    for scenario in [
        Scenario::vi_smp(100 * 1024),
        Scenario::gedit_smp(2048),
        Scenario::gedit_multicore_v2(2048),
    ] {
        let (lines, parsed) = export(&scenario, 0xBEEF);
        assert_eq!(lines as usize, parsed.len());

        let header = &parsed[0];
        assert_eq!(str_field(header, "type"), "header");
        assert_eq!(
            u64_field(header, "schema_version"),
            tocttou::experiments::SCHEMA_VERSION
        );
        assert_eq!(str_field(header, "scenario"), scenario.name);
        assert_eq!(u64_field(header, "seed"), 0xBEEF);
        assert!(
            u64_field(header, "host_cpus") > 0,
            "host parallelism recorded"
        );
        assert!(
            ["debug", "release"].contains(&str_field(header, "build")),
            "build profile recorded"
        );
        assert_eq!(u64_field(header, "events_dropped"), 0);
        assert_eq!(u64_field(header, "detections_dropped"), 0);
        assert_eq!(
            u64_field(header, "spans_dropped"),
            0,
            "spans-off rounds drop no spans"
        );

        let events = parsed
            .iter()
            .filter(|v| str_field(v, "type") == "event")
            .count() as u64;
        let detections = parsed
            .iter()
            .filter(|v| str_field(v, "type") == "detection")
            .count() as u64;
        assert_eq!(events, u64_field(header, "events"), "{}", scenario.name);
        assert_eq!(
            detections,
            u64_field(header, "detections"),
            "{}",
            scenario.name
        );
        assert!(events > 0, "{}: a traced round has events", scenario.name);
        assert_eq!(lines, 1 + events + detections + 1, "{}", scenario.name);
    }
}

#[test]
fn spans_armed_round_reports_ring_occupancy() {
    // An event-log-armed round reports the spans derived from it.
    let mut scenario = Scenario::vi_smp(1);
    scenario.machine = scenario.machine.clone().with_event_log();
    let (_, parsed) = export(&scenario, 3);
    let header = &parsed[0];
    assert_eq!(header.get("spans_enabled"), Some(&Value::Bool(true)));
    assert!(
        u64_field(header, "spans") > 0,
        "an armed round records spans"
    );
    assert_eq!(u64_field(header, "spans_dropped"), 0);
}

#[test]
fn event_lines_are_timestamped_and_kinded() {
    let (_, parsed) = export(&Scenario::vi_smp(1), 3);
    let mut last_at = 0;
    let mut kinds = std::collections::BTreeSet::new();
    for v in parsed.iter().filter(|v| str_field(v, "type") == "event") {
        let at = u64_field(v, "at_ns");
        assert!(at >= last_at, "events must be chronological");
        last_at = at;
        kinds.insert(str_field(v, "kind").to_owned());
    }
    for expected in ["spawn", "syscall_enter", "syscall_exit", "dispatch", "exit"] {
        assert!(
            kinds.contains(expected),
            "missing kind {expected}: {kinds:?}"
        );
    }
}

#[test]
fn detection_lines_carry_the_race_anatomy() {
    // vi-smp at this seed flags the stat→chown race (see the header smoke
    // test above: detections >= 1 on successful attacks).
    let (_, parsed) = export(&Scenario::vi_smp(100 * 1024), 7);
    let dets: Vec<&Value> = parsed
        .iter()
        .filter(|v| str_field(v, "type") == "detection")
        .collect();
    assert!(!dets.is_empty(), "expected at least one detection");
    for d in dets {
        assert!(!str_field(d, "check").is_empty());
        assert!(!str_field(d, "use").is_empty());
        assert!(str_field(d, "path").starts_with('/'));
        assert!(u64_field(d, "t_use_ns") >= u64_field(d, "t_check_ns"));
        // Detection latency is mutation → use (how long the race stayed
        // open before the victim consumed the swapped binding).
        assert_eq!(
            u64_field(d, "latency_ns"),
            u64_field(d, "t_use_ns").saturating_sub(u64_field(d, "t_mutation_ns"))
        );
    }
}

#[test]
fn final_line_is_the_metrics_snapshot() {
    let (_, parsed) = export(&Scenario::gedit_smp(2048), 31_003);
    let last = parsed.last().unwrap();
    assert_eq!(str_field(last, "type"), "metrics");
    let counters = last.get("counters").expect("counters object");
    assert!(u64_field(counters, "context_switches") > 0);
    assert!(u64_field(counters, "vfs_ops") > 0);
    let Some(Value::Array(hists)) = last.get("hists") else {
        panic!("hists must be an array");
    };
    assert!(!hists.is_empty(), "histograms recorded");
    for h in hists {
        assert!(!str_field(h, "key").is_empty());
        assert!(u64_field(h, "count") > 0, "snapshot keeps non-empty hists");
    }
}
