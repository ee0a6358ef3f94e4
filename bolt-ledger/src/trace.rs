//! In-memory spans around the calls into each layer.
//!
//! The ledger measures every layer from outside: a span brackets one
//! public call (or a batch of identical calls when one is too short to
//! time), is pushed to a `Vec`, and is written out as JSON lines when the
//! run ends. A disabled tracer runs the same closures and records
//! nothing, so the untraced and the traced run share one code path.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time_ns;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`see.explore`, `store.put`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one request share it.
    pub op_id: u64,
    /// Identical calls the interval covers (1 unless batched).
    pub calls: u32,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    /// A tracer that records.
    pub fn recording() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// A tracer that runs the closures and records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    /// Start the next operation: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span that will have children; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            calls: 1,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.batch(name, 1, f)
    }

    /// Record `calls` identical calls made by `f` as one leaf span (for
    /// calls too short to time singly).
    pub fn batch<R>(&mut self, name: &'static str, calls: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            calls,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration of one call under `name`, in nanoseconds (0 when
    /// the name never ran: the workload does not enter that layer).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (mut total, mut calls) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.end_ns - s.start_ns;
            calls += u64::from(s.calls);
        }
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64
        }
    }

    /// Total duration of all spans under `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total self time of all spans under `name`, in nanoseconds: each
    /// span's duration minus what its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_ns(s.start_ns, s.end_ns, &children[i]))
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::recording();
        let op = t.next_op();
        t.open("op");
        t.time("leaf", || std::hint::black_box(1 + 1));
        t.batch("tiny", 100, || ());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op_id == op));
        assert_eq!(s[2].calls, 100);
        assert!(s[0].end_ns >= s[2].end_ns);
        assert_eq!(t.total_ns("leaf"), s[1].end_ns - s[1].start_ns);
        assert_eq!(t.mean_ns("absent"), 0.0);
        // The parent's self time excludes both children.
        let dur = s[0].end_ns - s[0].start_ns;
        let kids = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(t.self_ns("op"), dur - kids);
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::disabled();
        t.open("op");
        assert_eq!(t.time("leaf", || 7), 7);
        t.close();
        assert!(t.spans().is_empty());
    }
}
