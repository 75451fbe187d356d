//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory; aggregated per iteration; the first traced
//! iteration's raw spans are written out when the run ends.

use minion_benchmark::workloads::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

/// Count and time of all spans of one name within one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part child spans cover.
    pub self_ns: u64,
}

/// The spans of one iteration (the iteration id every span shares).
pub struct Recorder {
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(iteration: u32) -> Recorder {
        Recorder {
            origin: Instant::now(),
            iteration,
            // An iteration records tens of thousands of spans; growing the
            // vector inside one would be charged to whichever span is open.
            spans: Vec::with_capacity(1 << 17),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        assert!(self.open.is_empty(), "a span is still open");
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += duration;
            total.self_ns += duration;
        }
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let name = self.spans[parent as usize].name;
                let total = totals.get_mut(name).expect("parents were counted");
                total.self_ns -= span.end_ns - span.start_ns;
            }
        }
        totals
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{}}}",
                span.name, span.start_ns, span.end_ns, self.iteration
            )
            .expect("string write");
        }
        out
    }
}

impl Probe for Recorder {
    fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        // Read the clock last on the way in and first on the way out, so
        // the recorder's own work lands in the parent, not the span.
        self.spans[id as usize].start_ns = self.now_ns();
    }

    fn exit(&mut self) {
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(3);
        rec.enter("outer");
        rec.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit();
        rec.enter("inner");
        rec.exit();
        rec.exit();
        let totals = rec.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.total_ns, inner.self_ns, "leaves have no children");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        let dump = rec.to_jsonl();
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.lines().next().unwrap().contains("\"parent\":null"));
        assert!(dump.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(dump.contains("\"iteration\":3"));
    }
}
