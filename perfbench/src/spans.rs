//! In-memory spans recorded by the benchmark around the public per-round
//! calls of each layer, and the self-time accounting computed from them.

use std::io::Write;
use std::time::Instant;

/// What a span measured. The layer of a span is the prefix of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One pass of rounds (the root of a traced run).
    Loop,
    /// One simulated round, covered end to end by its calls' spans.
    Round,
    /// `Scenario::build_from_checkpoint`.
    Boot,
    /// `Scenario::build_pooled`, the cold boot path.
    ColdBoot,
    /// `Scenario::finish_round`: the kernel event loop.
    Run,
    /// `Kernel::events_processed`, `detections` and the round milestones.
    Read,
    /// `monte_carlo::detection_fingerprint_of`.
    Fingerprint,
    /// `extract::observe`.
    Observe,
    /// `Kernel::recycle`.
    Recycle,
}

impl Name {
    pub const ALL: [Name; 9] = [
        Name::Loop,
        Name::Round,
        Name::Boot,
        Name::ColdBoot,
        Name::Run,
        Name::Read,
        Name::Fingerprint,
        Name::Observe,
        Name::Recycle,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Loop => "bench.loop",
            Name::Round => "bench.round",
            Name::Boot => "workloads.build_from_checkpoint",
            Name::ColdBoot => "workloads.build_pooled",
            Name::Run => "os.finish_round",
            Name::Read => "os.read_round",
            Name::Fingerprint => "experiments.detection_fingerprint_of",
            Name::Observe => "experiments.observe",
            Name::Recycle => "os.recycle",
        }
    }

    /// The layer the span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Loop | Name::Round => Layer::Bench,
            Name::Boot | Name::ColdBoot => Layer::Workloads,
            Name::Run | Name::Read | Name::Recycle => Layer::Os,
            Name::Fingerprint | Name::Observe => Layer::Experiments,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Workloads,
    Os,
    Experiments,
}

/// One span: what, which span caused it, and when (ns since the tracer's
/// epoch). `end` is 0 while the span is open.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans into memory; a disabled tracer records nothing, so the
/// same round loop serves both the traced run and the untimed checks.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// Where the next [`step`](Tracer::step) starts: the end of the
    /// previous step, or the start of the span most recently opened.
    cursor: u64,
    pub spans: Vec<Span>,
}

/// Id of an open span, or `None` from a disabled tracer.
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            cursor: 0,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: Name, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = self.now();
        self.cursor = start;
        self.spans.push(Span {
            name,
            parent,
            start,
            end: 0,
        });
        Some(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now();
            self.spans[i as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: Name, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a span that starts where the previous step ended
    /// (or where `parent` opened), so back-to-back calls cost one clock
    /// read each and the few stores between them are charged to the next
    /// call instead of falling between spans.
    pub fn step<T>(&mut self, name: Name, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let out = f();
        if self.on {
            let end = self.now();
            self.spans.push(Span {
                name,
                parent,
                start: self.cursor,
                end,
            });
            self.cursor = end;
        }
        out
    }

    /// Closes `id` where the last step ended.
    pub fn close_at_cursor(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end = self.cursor;
        }
    }

    /// Durations (ns) of every span with this name, in recording order.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time (ns) per span name: each span's duration minus the part
    /// of it its children cover. Children of one span run one after
    /// another, so the covered part is the sum of their durations.
    pub fn self_ns(&self) -> Vec<(Name, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur();
            }
        }
        Name::ALL
            .iter()
            .map(|&n| {
                let total = self
                    .spans
                    .iter()
                    .zip(&covered)
                    .filter(|(s, _)| s.name == n)
                    .map(|(s, c)| s.dur().saturating_sub(*c))
                    .sum();
                (n, total)
            })
            .collect()
    }

    /// Total duration (ns) of the root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name.label(),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 4);
        t.spans = vec![
            Span {
                name: Name::Loop,
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: Name::Round,
                parent: Some(0),
                start: 10,
                end: 90,
            },
            Span {
                name: Name::Run,
                parent: Some(1),
                start: 20,
                end: 60,
            },
            Span {
                name: Name::Boot,
                parent: Some(1),
                start: 60,
                end: 80,
            },
        ];
        let got: Vec<(Name, u64)> = t.self_ns().into_iter().filter(|(_, v)| *v > 0).collect();
        assert_eq!(
            got,
            vec![
                (Name::Loop, 20),
                (Name::Round, 20),
                (Name::Boot, 20),
                (Name::Run, 40)
            ]
        );
        assert_eq!(t.root_ns(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let id = t.open(Name::Loop, None);
        assert_eq!(t.time(Name::Run, id, || 7), 7);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
