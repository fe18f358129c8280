//! Host-time spans recorded by the benchmark around calls into each
//! layer's public entry points.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the time its child spans cover, so the
//! self times of every span plus the gaps between top-level spans add up
//! to the traced wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `core.path` or `cache.access`.
    pub name: &'static str,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Request the span belongs to.
    pub req: u64,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

/// An in-memory span log. A disabled log records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (see [`SpanLog::open`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed"]
pub struct Open(Option<u32>);

impl SpanLog {
    /// A log that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            base: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, req);
        let out = f();
        self.close(s);
        out
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`id,parent,req,name,start_ns,end_ns`;
    /// `parent` is empty at top level).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{parent},{},{},{},{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per span name, plus the time the top-level spans cover.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SelfTimes {
    /// Nanoseconds of self time per span name.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Nanoseconds covered by top-level spans.
    pub covered_ns: u64,
}

/// Reduces spans to self time: each span's duration, minus the durations
/// of its direct children (which are charged to the children instead).
///
/// # Panics
///
/// Panics on a span left open or a child that outlives its parent.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut out = SelfTimes::default();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        *out.by_name.entry(s.name).or_default() += dur;
        *out.calls.entry(s.name).or_default() += 1;
        if s.parent == NO_PARENT {
            out.covered_ns += dur;
        } else {
            let p = &spans[s.parent as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "span {} escapes its parent {}",
                s.name,
                p.name
            );
            let parent_self = out.by_name.get_mut(p.name).expect("parent precedes child");
            *parent_self -= dur;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100] ⊃ cache [10,30], core [40,90] ⊃ nested [50,60];
        // a second top-level span [120,130] leaves a 20 ns gap.
        let spans = [
            span("system.step", NO_PARENT, 0, 100),
            span("cache.access", 0, 10, 30),
            span("core.path", 0, 40, 90),
            span("nested", 2, 50, 60),
            span("trace.next", NO_PARENT, 120, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st.by_name["system.step"], 100 - 20 - 50);
        assert_eq!(st.by_name["cache.access"], 20);
        assert_eq!(st.by_name["core.path"], 50 - 10);
        assert_eq!(st.by_name["nested"], 10);
        assert_eq!(st.by_name["trace.next"], 10);
        assert_eq!(st.covered_ns, 110);
        // Self times partition the covered time exactly.
        assert_eq!(st.by_name.values().sum::<u64>(), st.covered_ns);
        assert_eq!(st.calls["core.path"], 1);
    }

    #[test]
    fn log_nests_and_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true);
        let outer = log.open("system.step", 7);
        let v = log.time("cache.access", 7, || 41 + 1);
        log.close(outer);
        assert_eq!(v, 42);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].req, 7);
        let st = self_times(spans);
        assert_eq!(st.by_name.values().sum::<u64>(), st.covered_ns);

        let mut off = SpanLog::new(false);
        let s = off.open("x", 0);
        off.close(s);
        assert!(off.spans().is_empty());
    }
}
