//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the repository (the program itself carries no spans yet). Spans
//! stay in memory until the run ends, then go out as Chrome trace-event
//! JSON, which Perfetto and `chrome://tracing` read directly. A layer's
//! self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.builder.build_frozen`.
    pub name: &'static str,
    /// Start and end, seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Shared by every span of one unit of work (one build cycle, one
    /// batch, one simulator slice).
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans while enabled; a disabled tracer costs one branch per
/// call, so the untraced run goes through the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Switches recording on or off between units of work (never while
    /// a span is open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Sets the identifier the following spans share.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Times `f` under a span and returns its result with the seconds
    /// it took (measured whether or not the tracer records).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per name: (calls, total seconds, self seconds).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let e = out.entry(span.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += span.secs();
            e.2 += own;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, the
    /// run id as the thread lane so one unit of work reads as one row.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = match sp.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{}}}}}",
                sp.name,
                sp.run,
                sp.start * 1e6,
                sp.secs() * 1e6,
                i,
                parent
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children of one parent never
/// overlap — they close innermost first on one thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.secs();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // open [0, 10) with children store [1, 4) and placement [5, 7);
        // store has its own child read [2, 3).
        let spans = vec![
            span("open", 0.0, 10.0, None),
            span("store", 1.0, 4.0, Some(0)),
            span("read", 2.0, 3.0, Some(1)),
            span("placement", 5.0, 7.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![5.0, 2.0, 1.0, 2.0]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut tr = Tracer::new(true);
        tr.set_run(7);
        let outer = tr.begin("outer");
        for _ in 0..3 {
            let inner = tr.begin("inner");
            tr.end(inner);
        }
        tr.end(outer);
        assert_eq!(tr.spans().len(), 4);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert!(tr.spans().iter().all(|s| s.run == 7));
        let totals = tr.totals();
        assert_eq!(totals["inner"].0, 3);
        let (_, total, own) = totals["outer"];
        assert!(own <= total && own >= 0.0);
        assert!((own + totals["inner"].1 - total).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.timed("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        let _ = tr.timed("x", || ());
        assert_eq!(tr.spans().len(), 1);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let mut tr = Tracer::new(true);
        let _ = tr.timed("a.b", || ());
        let _ = tr.timed("c.d", || ());
        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(crate::json::parse(&json).is_ok());
    }
}
