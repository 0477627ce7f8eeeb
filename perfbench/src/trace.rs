//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer's public functions.
//!
//! A span has a name, a start and an end (nanoseconds on the benchmark
//! clock), the span that caused it, and the exchange it belongs to. A
//! disabled [`Tracer`] reads no clock and stores nothing. Spans are written
//! out once, when the run ends ([`write_json`]).

use crate::clock;
use std::fmt::Write as _;

/// Which half of an exchange a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Request → assignment.
    Request,
    /// Result → ack.
    Submit,
    /// One global step of the simulation.
    Step,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Submit => "submit",
            Kind::Step => "step",
        }
    }
}

/// The exchange a span belongs to: (worker, seq, kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExchangeId {
    /// Worker id (0 for simulation steps).
    pub worker: u32,
    /// The worker's operation number (the step for simulation steps).
    pub seq: u32,
    /// Request, submit or step.
    pub kind: Kind,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `server.handle_request`.
    pub name: &'static str,
    /// Start, ns on the benchmark clock.
    pub start_ns: u64,
    /// End, ns on the benchmark clock (0 while open).
    pub end_ns: u64,
    /// The exchange, when the span belongs to one.
    pub exchange: Option<ExchangeId>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `base` (give each thread its own
    /// range so merged ids stay unique).
    pub fn new(enabled: bool, base: u64) -> Self {
        Tracer {
            enabled,
            base,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its id (0 when disabled).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        exchange: Option<ExchangeId>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.base + self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: clock::now_ns(),
            end_ns: 0,
            exchange,
        });
        id
    }

    /// Closes the span `id` now.
    pub fn close(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let now = clock::now_ns();
        let index = (id - self.base) as usize;
        self.spans[index].end_ns = now;
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn push(&mut self, mut span: Span) -> u64 {
        if !self.enabled {
            return 0;
        }
        span.id = self.base + self.spans.len() as u64;
        let id = span.id;
        self.spans.push(span);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        exchange: Option<ExchangeId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, exchange);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(kids) = children.get_mut(&span.id) else {
                return span.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Renders spans as a JSON document (one span object per line).
pub fn render_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns\", \"spans\": ["
    );
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let exchange = span.exchange.map_or_else(
            || "null".to_string(),
            |e| {
                format!(
                    "{{\"worker\": {}, \"seq\": {}, \"kind\": \"{}\"}}",
                    e.worker,
                    e.seq,
                    e.kind.name()
                )
            },
        );
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {self_ns}, \"exchange\": {exchange}}}{}",
            span.id,
            span.name,
            span.start_ns,
            span.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    out
}

/// Writes the span file.
///
/// # Errors
///
/// Whatever writing the file reports.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    std::fs::write(path, render_json(workload, seed, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            exchange: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50 together.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A disjoint child covers 60..70.
            span(4, Some(1), 60, 70),
            // A grandchild is the child's business, not the root's.
            span(5, Some(4), 61, 69),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 2, 8]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child measured on another thread may overhang its parent.
        let spans = vec![span(1, None, 100, 200), span(2, Some(1), 90, 150)];
        assert_eq!(self_times(&spans), vec![50, 60]);
        // A child that covers everything leaves no self time.
        let spans = vec![span(1, None, 100, 200), span(2, Some(1), 50, 250)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let id = t.open("x", None, None);
        t.close(id);
        assert_eq!(t.time("y", None, None, || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut t = Tracer::new(true, 1000);
        let exchange = Some(ExchangeId {
            worker: 3,
            seq: 1,
            kind: Kind::Request,
        });
        let root = t.open("root", None, exchange);
        let child = t.time("child", Some(root), exchange, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        t.close(root);
        assert_eq!(child, 499_500);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].parent), (1000, Some(1000)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = render_json("w", 1, &spans);
        assert!(json.contains("\"kind\": \"request\""));
        assert!(json.contains("\"parent\": 1000"));
    }
}
