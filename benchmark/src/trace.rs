//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`. The spans of
//! one request are built locally and committed together into a buffer
//! allocated up front, so a request is either fully recorded or dropped
//! whole when the buffer is full, and every `parent` names a span that is
//! in the buffer. With tracing off, nothing is built or stored.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Identifier, unique in the run and never 0.
    pub id: u32,
    /// The enclosing span's id, or 0.
    pub parent: u32,
    /// The request (or repetition, or probe) the span belongs to.
    pub request: u64,
    /// Layer name, such as `select` or `service.handle`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// The run's span buffer; `Tracer::off()` records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    capacity: usize,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Spans of one request, pending commit.
#[derive(Debug)]
pub struct RequestSpans {
    request: u64,
    /// `(name, parent index + 1 or 0, start, end)`.
    spans: Vec<(&'static str, usize, Instant, Instant)>,
    enabled: bool,
}

impl RequestSpans {
    /// Adds a span under `parent` (a handle returned earlier, or 0 for a
    /// root) and returns its handle. Children may be added before their
    /// parent's end is known: spans keep the order they are added in.
    pub fn span(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push((name, parent, start, end));
        self.spans.len()
    }

    /// Changes the interval of an added span (a parent opened before its
    /// children and closed after them).
    pub fn set(&mut self, handle: usize, start: Instant, end: Instant) {
        if let Some(s) = handle.checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            s.2 = start;
            s.3 = end;
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            capacity: 0,
            spans: None,
        }
    }

    /// A tracer holding at most `capacity` spans, allocated now.
    pub fn on(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity,
            spans: Some(Mutex::new(Vec::with_capacity(capacity))),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Starts the span list of one request.
    pub fn request(&self, request: u64) -> RequestSpans {
        RequestSpans {
            request,
            spans: Vec::new(),
            enabled: self.enabled(),
        }
    }

    /// Stores a request's spans, or drops them all when they do not fit.
    pub fn commit(&self, pending: RequestSpans) {
        let Some(buffer) = &self.spans else { return };
        let mut spans = buffer
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder");
        if spans.len() + pending.spans.len() > self.capacity {
            return;
        }
        let base = spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        for (name, parent, start, end) in pending.spans {
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                id,
                parent: if parent == 0 { 0 } else { base + parent as u32 },
                request: pending.request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// A copy of the recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(buffer) => buffer
                .lock()
                .expect("span buffer lock poisoned by a panicking recorder")
                .clone(),
            None => Vec::new(),
        }
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// children cover, summed over spans, with the number of spans.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut covered = vec![Vec::new(); spans.len() + 1];
    for s in spans {
        if let Some(list) = covered.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
    for s in spans {
        let mut children = std::mem::take(&mut covered[s.id as usize]);
        children.sort_unstable();
        // Union of the children's intervals, clipped to the parent.
        let (mut cover, mut cursor) = (0u64, s.start_ns);
        for (a, b) in children {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                cover += b - a;
                cursor = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(cover);
        match totals.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(t) => {
                t.1 += own;
                t.2 += 1;
            }
            None => totals.push((s.name, own, 1)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn commit_links_parents_and_self_time_subtracts_children() {
        let tracer = Tracer::on(8);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut r = tracer.request(5);
        let root = r.span(0, "select", ms(0), ms(10));
        r.span(root, "service.handle", ms(2), ms(6));
        r.span(root, "service.handle", ms(4), ms(8));
        tracer.commit(r);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .skip(1)
            .all(|s| s.parent == spans[0].id && s.request == 5));
        let own = self_times(&spans);
        let select = own.iter().find(|t| t.0 == "select").unwrap();
        assert_eq!(
            select.1, 4_000_000,
            "10 ms minus the 6 ms union of children"
        );
    }

    #[test]
    fn a_request_that_does_not_fit_is_dropped_whole() {
        let tracer = Tracer::on(2);
        let now = Instant::now();
        let mut r = tracer.request(1);
        let root = r.span(0, "a", now, now);
        r.span(root, "b", now, now);
        r.span(root, "c", now, now);
        tracer.commit(r);
        assert!(tracer.spans().is_empty());
        let mut off = Tracer::off().request(1);
        assert_eq!(off.span(0, "a", now, now), 0);
    }
}
