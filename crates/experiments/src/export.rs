//! JSONL export of a traced round: kernel events, detections, metrics.
//!
//! One line per record, so the output streams into any line-oriented
//! tool (`jq`, pandas, a spreadsheet importer). The layout is:
//!
//! 1. a **header** line with the export [`SCHEMA_VERSION`], the
//!    scenario/seed/machine identity, host metadata (`host_cpus`, build
//!    profile) and the record counts — including how many trace records a
//!    bounded buffer *dropped*, and the causal spans derived from the
//!    round when its forensics event log is armed, so a truncated export
//!    is always detectable;
//! 2. one **event** line per kernel trace record, oldest first;
//! 3. one **detection** line per race the passive detector observed;
//! 4. a final **metrics** line carrying the round's full
//!    [`MetricsSnapshot`](tocttou_os::metrics::MetricsSnapshot) —
//!    scheduler counters plus every latency histogram.
//!
//! Every line is a self-describing JSON object with a `"type"` field.

use serde::{Serialize, Value};
use std::io::{self, Write};
use tocttou_os::event::OsEvent;
use tocttou_os::ids::{CpuId, Pid, SemId};
use tocttou_os::kernel::Kernel;
use tocttou_os::spans::{derive, Spans};
use tocttou_sim::time::SimTime;

/// Version of the JSONL layout. Bumped whenever a header field or line
/// shape changes, so downstream consumers can dispatch instead of
/// sniffing. Version 1 was the pre-versioned layout (no `schema_version`
/// field); version 2 added host metadata and span-drop accounting.
pub const SCHEMA_VERSION: u64 = 2;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn pid(p: Pid) -> Value {
    Value::UInt(u64::from(p.0))
}

fn cpu(c: CpuId) -> Value {
    Value::UInt(u64::from(c.0))
}

fn sem(s: SemId) -> Value {
    Value::UInt(u64::from(s.0))
}

fn at(t: SimTime) -> Value {
    Value::UInt(t.as_nanos())
}

/// Flattens one kernel event into `(kind, fields)` form.
fn event_value(t: SimTime, ev: &OsEvent) -> Value {
    let mut fields: Vec<(&str, Value)> = vec![("type", Value::Str("event".into()))];
    let kind = |f: &mut Vec<(&str, Value)>, k: &str| {
        f.push(("kind", Value::Str(k.to_owned())));
    };
    fields.push(("at_ns", at(t)));
    match ev {
        OsEvent::Spawn { pid: p, name } => {
            kind(&mut fields, "spawn");
            fields.push(("pid", pid(*p)));
            fields.push(("name", Value::Str(name.to_string())));
        }
        OsEvent::SyscallEnter { pid: p, call, path } => {
            kind(&mut fields, "syscall_enter");
            fields.push(("pid", pid(*p)));
            fields.push(("call", Value::Str(call.to_string())));
            fields.push(("path", path.as_deref().serialize_value()));
        }
        OsEvent::SyscallExit { pid: p, call, ok } => {
            kind(&mut fields, "syscall_exit");
            fields.push(("pid", pid(*p)));
            fields.push(("call", Value::Str(call.to_string())));
            fields.push(("ok", Value::Bool(*ok)));
        }
        OsEvent::Commit { pid: p, call } => {
            kind(&mut fields, "commit");
            fields.push(("pid", pid(*p)));
            fields.push(("call", Value::Str(call.to_string())));
        }
        OsEvent::SemEnqueue { pid: p, sem: s } => {
            kind(&mut fields, "sem_enqueue");
            fields.push(("pid", pid(*p)));
            fields.push(("sem", sem(*s)));
        }
        OsEvent::SemAcquire { pid: p, sem: s } => {
            kind(&mut fields, "sem_acquire");
            fields.push(("pid", pid(*p)));
            fields.push(("sem", sem(*s)));
        }
        OsEvent::SemRelease { pid: p, sem: s } => {
            kind(&mut fields, "sem_release");
            fields.push(("pid", pid(*p)));
            fields.push(("sem", sem(*s)));
        }
        OsEvent::Trap { pid: p, dur } => {
            kind(&mut fields, "trap");
            fields.push(("pid", pid(*p)));
            fields.push(("dur_ns", Value::UInt(dur.as_nanos())));
        }
        OsEvent::Dispatch { pid: p, cpu: c } => {
            kind(&mut fields, "dispatch");
            fields.push(("pid", pid(*p)));
            fields.push(("cpu", cpu(*c)));
        }
        OsEvent::Preempt { pid: p, cpu: c } => {
            kind(&mut fields, "preempt");
            fields.push(("pid", pid(*p)));
            fields.push(("cpu", cpu(*c)));
        }
        OsEvent::BlockTimed { pid: p } => {
            kind(&mut fields, "block_timed");
            fields.push(("pid", pid(*p)));
        }
        OsEvent::Wake { pid: p } => {
            kind(&mut fields, "wake");
            fields.push(("pid", pid(*p)));
        }
        OsEvent::BgStart { cpu: c } => {
            kind(&mut fields, "bg_start");
            fields.push(("cpu", cpu(*c)));
        }
        OsEvent::BgEnd { cpu: c } => {
            kind(&mut fields, "bg_end");
            fields.push(("cpu", cpu(*c)));
        }
        OsEvent::DefenseDenied { pid: p, call } => {
            kind(&mut fields, "defense_denied");
            fields.push(("pid", pid(*p)));
            fields.push(("call", Value::Str(call.to_string())));
        }
        OsEvent::Marker { pid: p, label } => {
            kind(&mut fields, "marker");
            fields.push(("pid", pid(*p)));
            fields.push(("label", Value::Str((*label).to_owned())));
        }
        OsEvent::Exit { pid: p } => {
            kind(&mut fields, "exit");
            fields.push(("pid", pid(*p)));
        }
    }
    obj(fields)
}

/// The causal spans the exports show: those [`derive`] reads off the round
/// when its forensics event log is armed (exhibit runs), none otherwise.
pub(crate) fn round_spans(kernel: &Kernel) -> Spans {
    if kernel.machine().event_log {
        derive(kernel.trace(), kernel.forensics().window_log())
    } else {
        Spans::default()
    }
}

/// Writes a traced round as JSONL: header, events, detections, metrics.
///
/// Returns the number of lines written.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn export_jsonl<W: Write>(
    w: &mut W,
    scenario: &str,
    seed: u64,
    kernel: &Kernel,
) -> io::Result<u64> {
    let mut lines = 0u64;
    let mut emit = |w: &mut W, v: &Value| -> io::Result<()> {
        let text = serde_json::to_string(v).expect("JSON serialization is infallible");
        writeln!(w, "{text}")?;
        lines += 1;
        Ok(())
    };

    let trace = kernel.trace();
    let detections = kernel.detections();
    let spans = round_spans(kernel);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let header = obj(vec![
        ("type", Value::Str("header".into())),
        ("schema_version", Value::UInt(SCHEMA_VERSION)),
        ("scenario", Value::Str(scenario.to_owned())),
        ("seed", Value::UInt(seed)),
        ("machine", Value::Str(kernel.machine().name.to_owned())),
        ("cpus", Value::UInt(kernel.machine().cpus as u64)),
        ("host_cpus", Value::UInt(host_cpus)),
        ("build", Value::Str(build.into())),
        ("now_ns", at(kernel.now())),
        ("events", Value::UInt(trace.len() as u64)),
        ("events_dropped", Value::UInt(trace.dropped())),
        ("detections", Value::UInt(detections.len() as u64)),
        ("detections_dropped", Value::UInt(detections.dropped())),
        ("metrics_enabled", Value::Bool(kernel.metrics().enabled())),
        ("spans_enabled", Value::Bool(kernel.machine().event_log)),
        ("spans", Value::UInt(spans.spans.len() as u64)),
        ("spans_dropped", Value::UInt(spans.dropped)),
    ]);
    emit(w, &header)?;

    for r in trace.iter() {
        emit(w, &event_value(r.at, &r.event))?;
    }

    for r in detections.iter() {
        let e = &r.event;
        let line = obj(vec![
            ("type", Value::Str("detection".into())),
            ("at_ns", at(r.at)),
            ("check", Value::Str(e.pair.check().name().to_owned())),
            ("use", Value::Str(e.pair.use_call().name().to_owned())),
            ("victim", pid(e.victim)),
            ("attacker", pid(e.attacker)),
            ("path", Value::Str(e.path.to_string())),
            ("t_check_ns", at(e.t_check)),
            ("t_use_ns", at(e.t_use)),
            ("mutation", Value::Str(e.mutation.name().to_owned())),
            ("t_mutation_ns", at(e.t_mutation)),
            ("blocked", Value::Bool(e.blocked)),
            ("latency_ns", Value::UInt(e.latency().as_nanos())),
        ]);
        emit(w, &line)?;
    }

    let metrics = match kernel.metrics().snapshot().serialize_value() {
        Value::Object(fields) => {
            let mut all = vec![("type".to_owned(), Value::Str("metrics".into()))];
            all.extend(fields);
            Value::Object(all)
        }
        other => other,
    };
    emit(w, &metrics)?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_workloads::scenario::Scenario;

    #[test]
    fn export_covers_header_events_detections_metrics() {
        let scenario = Scenario::vi_smp(1);
        let (result, handles) = scenario.run_traced(0xE59);
        assert!(result.victim_exited);
        let mut buf = Vec::new();
        let lines = export_jsonl(&mut buf, &scenario.name, 0xE59, &handles.kernel).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str::<Value>(l).expect("every line parses"))
            .collect();
        assert_eq!(parsed.len() as u64, lines);

        let header = &parsed[0];
        assert_eq!(header.get("type"), Some(&Value::Str("header".into())));
        assert_eq!(
            header.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert!(
            header.get("host_cpus").unwrap().as_u64().is_some(),
            "host metadata present"
        );
        assert!(
            matches!(header.get("build"), Some(Value::Str(b)) if b == "debug" || b == "release"),
            "build profile recorded"
        );
        assert_eq!(
            header.get("spans_dropped").unwrap().as_u64(),
            Some(0),
            "spans-off round drops nothing"
        );
        assert_eq!(header.get("spans_enabled"), Some(&Value::Bool(false)));
        let events = header.get("events").unwrap().as_u64().unwrap();
        let detections = header.get("detections").unwrap().as_u64().unwrap();
        assert_eq!(
            header.get("events_dropped").unwrap().as_u64(),
            Some(0),
            "unbounded trace drops nothing"
        );
        assert_eq!(lines, 1 + events + detections + 1);
        assert!(events > 0, "a traced round records events");

        let last = parsed.last().unwrap();
        assert_eq!(last.get("type"), Some(&Value::Str("metrics".into())));
        assert!(last.get("counters").is_some() && last.get("hists").is_some());
    }
}
