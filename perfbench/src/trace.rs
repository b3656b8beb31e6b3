//! Spans the runner records around each public layer call it makes.
//!
//! A disabled tracer reads no clock and records nothing, so untraced
//! runs time the program alone. A traced run keeps every span in memory
//! and writes them out once the run ends.

use crate::host;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span wrapped around each op; every layer span of
/// that op is its child.
pub const OP_SPAN: &str = "bench.op";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op this span belongs to (0-based, in run order).
    pub op: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    /// The open op span, parent of every layer span.
    root: Option<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            root: None,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs one op under an [`OP_SPAN`] root span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let root = self.open(OP_SPAN, None);
        self.root = Some(root);
        let out = f(self);
        self.close(root);
        self.root = None;
        self.op += 1;
        out
    }

    /// Runs `f` as layer span `name`, a child of the current op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let i = self.open(name, self.root);
        let out = f();
        self.close(i);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.now_ns();
    }

    /// Per span name, the median over ops of that op's summed self time
    /// (span duration minus the time its child spans cover), seconds.
    pub fn self_time_medians(&self) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut per_op: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *per_op.entry(s.name).or_default().entry(s.op).or_default() += s.secs() - child_secs[i];
        }
        let ops = self.op;
        per_op
            .into_iter()
            .map(|(name, by_op)| {
                // An op that never entered this layer spent 0 s in it.
                let v: Vec<f64> = (0..ops)
                    .map(|op| by_op.get(&op).copied().unwrap_or(0.0))
                    .collect();
                (name, host::median(&v))
            })
            .collect()
    }

    /// Every span as one JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.op(|t| t.span("layer", || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.self_time_medians().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.op(|t| {
                t.span("a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.span("a", || ());
                t.span("b", || ());
            });
        }
        assert_eq!(t.spans().len(), 12);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t
            .spans()
            .iter()
            .filter(|s| s.name != OP_SPAN)
            .all(|s| s.parent.is_some()));
        let m = t.self_time_medians();
        assert!(m["a"] >= 0.002, "{m:?}");
        // The op's own time excludes the 2 ms its child slept.
        assert!(m[OP_SPAN] < 0.002, "{m:?}");
        assert_eq!(t.to_jsonl().lines().count(), 12);
    }
}
