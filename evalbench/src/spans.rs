//! In-memory span recording for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a crate's public API, and kept in memory until the run writes them out.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `petri.explore`.
    pub name: &'static str,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: usize,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to start while open).
    pub end_ns: u64,
}

/// A single-threaded span recorder; parallel replays give each worker its
/// own and merge them with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Sets the operation id recorded on spans opened from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Records a finished top-level span after the fact.
    pub fn record(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, op, parent: None, start_ns: ns(start), end_ns: ns(end) });
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Moves another recorder's spans into this one (parents re-indexed).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Self time of one span name, seconds (0 when it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// Summed wall time of every span with this name, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Summed wall time of every top-level span, seconds.
    pub fn total_s_top(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now());
        r.span("outer", |r| {
            std::thread::sleep(Duration::from_millis(20));
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(30)));
        });
        let own = r.self_seconds();
        assert!(own["inner"] >= 0.030);
        assert!(own["outer"] >= 0.020 && own["outer"] < 0.030 + 0.015, "{own:?}");
        assert!((r.total_s("outer") - own["outer"] - own["inner"]).abs() < 1e-6);
        assert_eq!(r.spans()[1].parent, Some(0));
        let mut merged = Recorder::new(Instant::now());
        merged.span("first", |_| ());
        merged.absorb(r);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.to_json_lines().lines().count(), 3);
    }
}
