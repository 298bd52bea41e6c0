//! In-memory spans recorded by the harness around each call it makes into
//! a layer. Spans inside the program are a later change (ROADMAP item 2);
//! here every span is taken from outside, at a public function boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// Which clock a span's stamps are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClock {
    /// Nanoseconds of host time since the tracer was created.
    Host,
    /// Nanoseconds on the modeled platform's clock.
    Modeled,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The request the span belongs to; spans of one request share it.
    pub request: Option<u32>,
    pub clock: SpanClock,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is one branch, so
/// the untraced run that produces the end-to-end metrics pays nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A host instant taken elsewhere (a client thread) on this tracer's
    /// clock.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Hands the spans over, for appending to a run's span list.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Runs `body` inside a host-clock span whose parent is the innermost
    /// span still open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u32>,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            clock: SpanClock::Host,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Records a span whose stamps were taken elsewhere (a request's
    /// queue / prefill / decode phases, from the program's own per-request
    /// report). Returns its index so phases can name it as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: Option<u32>,
        clock: SpanClock,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            clock,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

/// Appends one tracer's spans to a run's list, keeping parent links.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let offset = all.len() as u32;
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Renders the spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |v: Option<u32>| v.map_or("null".to_owned(), |v| v.to_string());
        let clock = match s.clock {
            SpanClock::Host => "host",
            SpanClock::Modeled => "modeled",
        };
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"clock\":\"{clock}\",\"start_ns\":{},\"end_ns\":{},\
             \"self_ns\":{self_ns},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request)
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
            clock: SpanClock::Host,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 30, Some(0)), // child
            span(20, 50, Some(0)), // overlaps the first child: 10..50 covered once
            span(60, 70, Some(0)),
            span(25, 28, Some(2)),  // grandchild only reduces its own parent
            span(90, 140, Some(0)), // runs past the parent: clipped to 90..100
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 3);
        assert_eq!(selfs[4], 3);
        assert_eq!(selfs[5], 50);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", Some(7), |t| t.span("inner", None, |_| 5) + 1);
        assert_eq!(v, 6);
        assert_eq!(t.durations_us("inner").len(), 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].request, Some(7));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = to_json("w", 1, &spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", None, |_| 3), 3);
        assert_eq!(off.record("y", 0, 1, None, None, SpanClock::Modeled), None);
        assert!(off.into_spans().is_empty());
    }
}
