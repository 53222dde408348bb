//! In-memory spans for the traced replay.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory and written out when the run ends. A disabled tracer
//! runs the same closures without recording, which is how the untraced
//! half of the overhead comparison is timed.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Order of the untraced (`false`) and traced (`true`) passes of an
/// overhead measurement: three pairs, each pair in the opposite order of
/// the one before, so a drift in machine speed over the passes cancels.
pub const PASSES: [bool; 6] = [false, true, true, false, false, true];

/// The tracing overhead of passes timed in [`PASSES`] order: the median
/// over pairs of (traced − untraced) / untraced, and each pair's figure.
pub fn paired_overhead(secs: &[f64]) -> (f64, Vec<f64>) {
    let fracs: Vec<f64> = secs
        .chunks(2)
        .zip(PASSES.chunks(2))
        .map(|(t, order)| {
            let (on, off) = if order[0] { (t[0], t[1]) } else { (t[1], t[0]) };
            (on - off) / off
        })
        .collect();
    (crate::stats::median(&fracs), fracs)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    /// Id of the enclosing span; 0 for a root.
    pub parent: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id - 1].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent] += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    s.parent,
                    json::quote(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| ()));
        });
        let totals = t.totals();
        let root = totals["root"];
        let children = totals["a"].total_ns + totals["b"].total_ns;
        assert_eq!(root.self_ns, root.total_ns - children);
        assert_eq!(t.spans()[3].parent, 3, "c nests under b");
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn paired_overhead_pairs_each_traced_pass_with_its_neighbour() {
        // Passes in PASSES order: off, on | on, off | off, on.
        let (median, fracs) = paired_overhead(&[1.0, 1.1, 1.4, 1.0, 2.0, 2.0]);
        assert_eq!(fracs.len(), 3);
        assert!((fracs[0] - 0.1).abs() < 1e-12);
        assert!((fracs[1] - 0.4).abs() < 1e-12);
        assert_eq!(fracs[2], 0.0);
        assert!((median - 0.1).abs() < 1e-12);
    }
}
