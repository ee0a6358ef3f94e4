//! Structured JSONL event tracing.
//!
//! One schema for every event in the process: a line of JSON with a
//! monotonic microsecond timestamp, a sequence number, an event name, and
//! flat key/value fields:
//!
//! ```json
//! {"ts_us":1042,"seq":3,"event":"serve.conn.close","id":7,"reason":"eof"}
//! ```
//!
//! Tracing is off by default and ambient when on: setting `BOLT_TRACE=path`
//! makes [`emit`] append to `path`. When the variable is unset, [`emit`]
//! costs a single `OnceLock` load and branch — the same zero-cost-when-off
//! discipline as `bolt_fault`.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable holding the trace output path.
const TRACE_ENV: &str = "BOLT_TRACE";

/// A field value in a trace event.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// Append-only JSONL sink. Every [`TraceSink::emit`] writes (and flushes)
/// one line, so external scrapers see events as they happen.
struct TraceSink {
    out: Mutex<BufWriter<File>>,
    start: Instant,
    // Last timestamp handed out, so ts_us is non-decreasing even if two
    // threads race between reading the clock and taking the writer lock.
    last_ts: AtomicU64,
    seq: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("events", &self.events())
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// Open (appending) a sink writing to `path`.
    fn to_path(path: &Path) -> io::Result<TraceSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(TraceSink {
            out: Mutex::new(BufWriter::new(file)),
            start: Instant::now(),
            last_ts: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        })
    }

    /// Number of events emitted so far.
    fn events(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Write one event line. Field names must be plain identifiers; values
    /// are JSON-escaped. IO errors are swallowed — tracing must never take
    /// the traced system down.
    fn emit(&self, event: &str, fields: &[(&str, Value)]) {
        let now = self.start.elapsed().as_micros() as u64;
        let ts = self.last_ts.fetch_max(now, Ordering::Relaxed).max(now);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts.to_string());
        line.push_str(",\"seq\":");
        line.push_str(&seq.to_string());
        line.push_str(",\"event\":\"");
        escape_into(&mut line, event);
        line.push('"');
        for (k, v) in fields {
            line.push_str(",\"");
            escape_into(&mut line, k);
            line.push_str("\":");
            match v {
                Value::U64(n) => line.push_str(&n.to_string()),
                Value::I64(n) => line.push_str(&n.to_string()),
                Value::F64(x) if x.is_finite() => line.push_str(&format!("{x}")),
                Value::F64(_) => line.push_str("null"),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => {
                    line.push('"');
                    escape_into(&mut line, s);
                    line.push('"');
                }
            }
        }
        line.push_str("}\n");
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// The ambient sink configured by `BOLT_TRACE`, if any. Resolved once per
/// process; an unopenable path disables tracing with a single warning.
fn ambient() -> Option<&'static TraceSink> {
    static AMBIENT: OnceLock<Option<TraceSink>> = OnceLock::new();
    AMBIENT
        .get_or_init(|| {
            let path = std::env::var_os(TRACE_ENV)?;
            if path.is_empty() {
                return None;
            }
            match TraceSink::to_path(Path::new(&path)) {
                Ok(sink) => Some(sink),
                Err(err) => {
                    eprintln!("bolt-obs: cannot open {TRACE_ENV}={path:?}: {err}; tracing off");
                    None
                }
            }
        })
        .as_ref()
}

/// Emit an event to the ambient sink; a no-op (one load + branch) when
/// `BOLT_TRACE` is unset.
pub fn emit(event: &str, fields: &[(&str, Value)]) {
    if let Some(sink) = ambient() {
        sink.emit(event, fields);
    }
}

/// True when the ambient sink is active — lets callers skip building
/// expensive field values when tracing is off.
pub fn enabled() -> bool {
    ambient().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("bolt-obs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = TraceSink::to_path(&path).unwrap();
        sink.emit("unit.test", &[("n", 7u64.into()), ("ok", true.into())]);
        sink.emit(
            "unit.esc",
            &[("s", "a\"b\\c\nd".into()), ("neg", (-4i64).into())],
        );
        assert_eq!(sink.events(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].contains("\"event\":\"unit.test\""));
        assert!(lines[0].contains("\"n\":7"));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert!(lines[1].contains("\"neg\":-4"));
        // Timestamps and sequence numbers are monotone.
        let seqs: Vec<u64> = lines
            .iter()
            .map(|l| {
                let i = l.find("\"seq\":").unwrap() + 6;
                l[i..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ambient_off_by_default() {
        // The test process does not set BOLT_TRACE, so emit must be a no-op.
        if std::env::var_os(TRACE_ENV).is_none() {
            emit("unit.noop", &[]);
            assert!(!enabled());
        }
    }
}
