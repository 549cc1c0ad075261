//! Benchmark-side spans around calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the recorder was
//! made), the span that was open when it began, and an optional flow id
//! (the event id) shared by every span about one event. Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! recorder makes every call a single branch, so untraced runs pay
//! nothing for the calls.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    flow: Option<u64>,
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals: count, total time, and self time (total minus the
/// time covered by direct children).
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder that records.
    pub fn on() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose calls do nothing.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, flow: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            flow,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Spans::enter`] (and any left open inside
    /// it).
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, flow: Option<u64>, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, flow);
        let out = f();
        self.exit(s);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name, sorted by name.
    pub fn totals(&self) -> Vec<(&'static str, NameTotals)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, NameTotals)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end - s.start;
            let i = match out.iter().position(|(n, _)| *n == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name, NameTotals::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[i].1;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// All spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"flow\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.flow)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        let outer = s.enter("outer", None);
        s.time("inner", Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(outer);
        let totals = s.totals();
        let get = |n: &str| totals.iter().find(|(k, _)| *k == n).unwrap().1.clone();
        let (outer, inner) = (get("outer"), get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(s.to_json().contains("\"parent\": 0, \"flow\": 3"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let o = s.enter("x", None);
        s.exit(o);
        assert_eq!(s.time("y", None, || 5), 5);
        assert_eq!(s.len(), 0);
    }
}
