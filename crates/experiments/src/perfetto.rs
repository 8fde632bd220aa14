//! Chrome `trace_event` / Perfetto JSON export of a traced round.
//!
//! [`export_perfetto`] renders one traced round as a JSON object in
//! the Chrome trace-event format (the JSON flavour Perfetto,
//! `chrome://tracing` and `ui.perfetto.dev` all load): an object with a
//! `traceEvents` array of `"X"` complete events (bars with `ts`/`dur`)
//! and `"i"` instant events (markers), timestamps in microseconds.
//!
//! The track layout groups the round the way the paper's figures do:
//!
//! * **`cpus`** (pid 1) — one track per logical CPU, a bar per dispatch
//!   interval named after the running process, plus `bg` bars for
//!   background kernel activity;
//! * **`semaphores`** (pid 2) — one track per kernel semaphore, a bar
//!   per hold interval (the `SemHold` spans
//!   [`derive`](tocttou_os::spans::derive()) reads off the trace);
//! * **`forensics`** (pid 3) — one track per window owner with a bar per
//!   closed check→use window, and instant markers for every classified
//!   attacker strike and every passive-detector event.
//!
//! The semaphore and forensics tracks need a kernel with the forensics
//! event log armed ([`MachineSpec::with_event_log`]), which off-by-default
//! Monte-Carlo rounds never are; without it only the CPU tracks are drawn.
//!
//! [`MachineSpec::with_event_log`]: tocttou_os::machine::MachineSpec::with_event_log

use serde::Value;
use std::io::{self, Write};
use tocttou_os::event::OsEvent;
use tocttou_os::ids::Pid;
use tocttou_os::kernel::Kernel;
use tocttou_os::spans::SpanKind;
use tocttou_sim::time::SimTime;

/// Synthetic trace-event "process" ids grouping the tracks.
const TRACK_CPUS: u64 = 1;
const TRACK_SEMS: u64 = 2;
const TRACK_FORENSICS: u64 = 3;

fn us(t: SimTime) -> Value {
    Value::Float(t.as_nanos() as f64 / 1000.0)
}

fn dur_us(start: SimTime, end: SimTime) -> Value {
    Value::Float(end.saturating_since(start).as_nanos() as f64 / 1000.0)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// An `"X"` complete event: a named bar on track `(pid, tid)`.
fn complete(name: String, track: u64, tid: u64, start: SimTime, end: SimTime) -> (SimTime, Value) {
    (
        start,
        obj(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("X".into())),
            ("ts", us(start)),
            ("dur", dur_us(start, end)),
            ("pid", Value::UInt(track)),
            ("tid", Value::UInt(tid)),
        ]),
    )
}

/// An `"i"` instant event: a marker on track `(pid, tid)`.
fn instant(name: String, track: u64, tid: u64, at: SimTime) -> (SimTime, Value) {
    (
        at,
        obj(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("i".into())),
            ("ts", us(at)),
            ("pid", Value::UInt(track)),
            ("tid", Value::UInt(tid)),
            ("s", Value::Str("t".into())),
        ]),
    )
}

/// An `"M"` metadata event naming a synthetic process or thread.
fn metadata(kind: &str, track: u64, tid: Option<u64>, name: String) -> Value {
    let mut fields = vec![
        ("name", Value::Str(kind.into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(track)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Value::UInt(tid)));
    }
    fields.push(("args", obj(vec![("name", Value::Str(name))])));
    obj(fields)
}

/// Rebuilds per-CPU occupancy bars from the kernel event trace: each
/// dispatch opens a bar on that CPU's track, closed by whatever next moves
/// the process off the CPU (preempt, block, semaphore wait, exit, or
/// another dispatch); background kernel activity gets its own `bg` bars.
fn cpu_bars(kernel: &Kernel, names: &dyn Fn(Pid) -> String, out: &mut Vec<(SimTime, Value)>) {
    let cpus = kernel.machine().cpus;
    let mut running: Vec<Option<(Pid, SimTime)>> = vec![None; cpus];
    let mut on_cpu: Vec<Option<usize>> = Vec::new();
    let mut bg: Vec<Option<SimTime>> = vec![None; cpus];
    let close = |running: &mut Vec<Option<(Pid, SimTime)>>,
                 cpu: usize,
                 at: SimTime,
                 out: &mut Vec<(SimTime, Value)>| {
        if let Some((p, start)) = running[cpu].take() {
            out.push(complete(names(p), TRACK_CPUS, cpu as u64, start, at));
        }
    };
    let cpu_of = |on_cpu: &Vec<Option<usize>>, p: Pid| -> Option<usize> {
        on_cpu.get(p.index()).copied().flatten()
    };
    for r in kernel.trace().iter() {
        match &r.event {
            OsEvent::Dispatch { pid, cpu } => {
                let c = cpu.index();
                close(&mut running, c, r.at, out);
                if on_cpu.len() <= pid.index() {
                    on_cpu.resize(pid.index() + 1, None);
                }
                on_cpu[pid.index()] = Some(c);
                running[c] = Some((*pid, r.at));
            }
            OsEvent::Preempt { pid, cpu } => {
                let c = cpu.index();
                close(&mut running, c, r.at, out);
                on_cpu[pid.index()] = None;
            }
            OsEvent::SemEnqueue { pid, .. }
            | OsEvent::BlockTimed { pid }
            | OsEvent::Exit { pid } => {
                if let Some(c) = cpu_of(&on_cpu, *pid) {
                    close(&mut running, c, r.at, out);
                    on_cpu[pid.index()] = None;
                }
            }
            OsEvent::BgStart { cpu } => bg[cpu.index()] = Some(r.at),
            OsEvent::BgEnd { cpu } => {
                if let Some(start) = bg[cpu.index()].take() {
                    out.push(complete(
                        "bg".into(),
                        TRACK_CPUS,
                        cpu.index() as u64,
                        start,
                        r.at,
                    ));
                }
            }
            _ => {}
        }
    }
    let now = kernel.now();
    for (c, slot) in bg.iter_mut().enumerate().take(cpus) {
        close(&mut running, c, now, out);
        if let Some(start) = slot.take() {
            out.push(complete("bg".into(), TRACK_CPUS, c as u64, start, now));
        }
    }
}

/// Writes the round as a Chrome trace-event JSON object and returns the
/// number of entries in `traceEvents` (metadata included).
///
/// Call [`flush`](tocttou_os::forensics::WindowForensicsMut::flush) on the
/// kernel's forensics first so leftover strikes are classified into the
/// strike log; `procs` labels the simulated processes on the CPU tracks
/// (unlisted pids fall back to `pid-N`).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn export_perfetto<W: Write>(
    w: &mut W,
    scenario: &str,
    seed: u64,
    kernel: &Kernel,
    procs: &[(Pid, &str)],
) -> io::Result<u64> {
    let names = |p: Pid| -> String {
        procs
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, n)| (*n).to_owned())
            .unwrap_or_else(|| format!("pid-{}", p.0))
    };

    // Timed events, assembled then stably sorted by timestamp so every
    // track's `ts` sequence is monotone (the CI smoke check's contract).
    let mut timed: Vec<(SimTime, Value)> = Vec::new();
    cpu_bars(kernel, &names, &mut timed);

    let spans = crate::export::round_spans(kernel);
    for span in &spans.spans {
        if span.kind == SpanKind::SemHold {
            timed.push(complete(
                format!("hold {}", names(Pid(span.pid))),
                TRACK_SEMS,
                span.aux,
                span.start,
                span.end,
            ));
        }
    }

    for wr in kernel.forensics().window_log() {
        timed.push(complete(
            format!("window {}", wr.path),
            TRACK_FORENSICS,
            u64::from(wr.owner.0),
            wr.t_check,
            wr.t_use,
        ));
    }
    for sr in kernel.forensics().strike_log() {
        timed.push(instant(
            format!("strike {} ({})", sr.path, sr.outcome),
            TRACK_FORENSICS,
            u64::from(sr.by.0),
            sr.t,
        ));
    }
    for r in kernel.detections().iter() {
        timed.push(instant(
            format!("detected {} via {}", r.event.path, r.event.mutation.name()),
            TRACK_FORENSICS,
            u64::from(r.event.victim.0),
            r.at,
        ));
    }
    timed.sort_by_key(|(at, _)| *at);

    let mut events: Vec<Value> = vec![
        metadata("process_name", TRACK_CPUS, None, "cpus".into()),
        metadata("process_name", TRACK_SEMS, None, "semaphores".into()),
        metadata("process_name", TRACK_FORENSICS, None, "forensics".into()),
    ];
    for c in 0..kernel.machine().cpus {
        events.push(metadata(
            "thread_name",
            TRACK_CPUS,
            Some(c as u64),
            format!("cpu{c}"),
        ));
    }
    events.extend(timed.into_iter().map(|(_, v)| v));
    let count = events.len() as u64;

    let root = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".into())),
        (
            "otherData",
            obj(vec![
                ("scenario", Value::Str(scenario.to_owned())),
                ("seed", Value::UInt(seed)),
                ("machine", Value::Str(kernel.machine().name.to_owned())),
                ("span_dropped", Value::UInt(spans.dropped)),
            ]),
        ),
    ]);
    let text = serde_json::to_string(&root).expect("JSON serialization is infallible");
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tocttou_workloads::scenario::Scenario;

    fn armed_round(seed: u64) -> (Scenario, tocttou_workloads::scenario::RoundHandles) {
        let mut s = Scenario::vi_smp(1);
        s.machine = s.machine.clone().with_event_log();
        let (_, mut h) = s.run_traced(seed);
        h.kernel.forensics_mut().flush();
        (s, h)
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let (s, h) = armed_round(0xE59);
        let mut buf = Vec::new();
        let n = export_perfetto(&mut buf, &s.name, 0xE59, &h.kernel, &[(h.victim, "vi")]).unwrap();
        let root: Value = serde_json::from_str(&String::from_utf8(buf).unwrap()).unwrap();
        let events = match root.get("traceEvents") {
            Some(Value::Array(a)) => a,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert_eq!(events.len() as u64, n);
        for e in events {
            let Some(Value::Str(ph)) = e.get("ph") else {
                panic!("ph present on every event");
            };
            assert!(e.get("pid").is_some(), "pid present");
            assert!(matches!(ph.as_str(), "X" | "i" | "M"), "known phase {ph}");
            if ph != "M" {
                assert!(e.get("ts").is_some(), "timed events carry ts");
                assert!(e.get("tid").is_some());
                assert!(e.get("name").is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").is_some(), "complete events carry dur");
            }
        }
    }

    #[test]
    fn tracks_cover_cpus_sems_and_windows() {
        let (s, h) = armed_round(0xE59);
        let mut buf = Vec::new();
        export_perfetto(&mut buf, &s.name, 0xE59, &h.kernel, &[(h.victim, "vi")]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"cpu0\""), "per-CPU threads named");
        assert!(text.contains("\"semaphores\""));
        assert!(text.contains("window "), "window bars exported");
        assert!(text.contains("\"vi\""), "victim labeled on CPU tracks");
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let (s, h) = armed_round(77);
        let mut buf = Vec::new();
        export_perfetto(&mut buf, &s.name, 77, &h.kernel, &[]).unwrap();
        let root: Value = serde_json::from_str(&String::from_utf8(buf).unwrap()).unwrap();
        let Some(Value::Array(events)) = root.get("traceEvents") else {
            panic!("traceEvents array");
        };
        let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
        for e in events {
            let (Some(pid), Some(tid)) = (
                e.get("pid").and_then(|v| v.as_u64()),
                e.get("tid").and_then(|v| v.as_u64()),
            ) else {
                continue;
            };
            let Some(Value::Float(ts)) = e.get("ts") else {
                continue;
            };
            let prev = last.insert((pid, tid), *ts);
            assert!(
                prev.unwrap_or(f64::NEG_INFINITY) <= *ts,
                "ts monotone per track"
            );
        }
    }

    /// The `trace` binary's export of `scenario` at seed 7, as bytes.
    fn trace_binary_export(mut s: Scenario) -> Vec<u8> {
        s.machine = s.machine.clone().with_event_log();
        let (_, mut h) = s.run_traced(7);
        h.kernel.forensics_mut().flush();
        let mut procs = vec![(h.victim, "victim")];
        let labels = ["attacker", "attacker-2"];
        for (i, pid) in h.attackers.iter().enumerate() {
            procs.push((*pid, labels.get(i).copied().unwrap_or("attacker-n")));
        }
        let mut buf = Vec::new();
        export_perfetto(&mut buf, &s.name, 7, &h.kernel, &procs).unwrap();
        buf
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn export_bytes_are_pinned() {
        // vi-smp and gedit-smp hand `i_sem` off between victim and attacker,
        // so both exercise the semaphore-hold track.
        let vi = trace_binary_export(Scenario::vi_smp(100 * 1024));
        let gedit = trace_binary_export(Scenario::gedit_smp(2048));
        for text in [&vi, &gedit] {
            assert!(String::from_utf8_lossy(text).contains("\"hold "));
        }
        assert_eq!(
            (fnv1a(&vi), fnv1a(&gedit)),
            (0xc3e2_2c2e_22da_07dd, 0x4f6a_803c_a266_3cbd),
            "Perfetto export bytes moved"
        );
    }

    #[test]
    fn spans_off_round_still_exports_cpu_tracks() {
        // Without the event log the sem/forensics tracks are empty but the
        // CPU reconstruction (pure trace) still works and the JSON is valid.
        let s = Scenario::vi_smp(1);
        let (_, h) = s.run_traced(5);
        let mut buf = Vec::new();
        let n = export_perfetto(&mut buf, &s.name, 5, &h.kernel, &[]).unwrap();
        assert!(n > 3, "metadata plus CPU bars");
        let text = String::from_utf8(buf).unwrap();
        assert!(
            !text.contains("hold "),
            "no sem spans without the event log"
        );
    }
}
