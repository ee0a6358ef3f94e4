//! Counters, gauges, and log2-bucketed latency histograms behind a named
//! registry.
//!
//! Everything here is lock-free on the record path: a [`Counter`] is one
//! relaxed `fetch_add`, a [`Histogram`] record is three relaxed atomic ops
//! plus a `fetch_max`. The registry mutex is only taken when minting a
//! handle or taking a snapshot, never per sample — callers on hot paths
//! mint their `Arc` handles once and hold them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one; returns the value *after* the increment.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (e.g. active connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one; returns the level *after* the increment.
    pub fn inc(&self) -> i64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` holds samples `v` with
/// `floor(log2(v)) == i` (zero lands in bucket 0), so 64 buckets cover the
/// whole `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a sample: `floor(log2(v))`, with 0 mapped to bucket 0.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

/// Inclusive upper edge of bucket `i` — the representative value reported
/// for percentiles that land in the bucket.
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Lock-free log2-bucketed histogram. Values are dimensionless `u64`s; the
/// convention throughout bolt is **nanoseconds** for latency series (names
/// render with a `_ns` suffix in Prometheus exposition).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Start an RAII span; the elapsed wall time in nanoseconds is recorded
    /// when the guard drops.
    pub fn span(self: &Arc<Self>) -> Span {
        Span {
            hist: Arc::clone(self),
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state. Not a cross-field atomic snapshot: under
    /// concurrent writers `count`/`sum` may trail the bucket array by a few
    /// in-flight samples, which is fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// RAII timer: records elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// Owned, mergeable copy of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold `other` into `self`. Merging is commutative and associative, so
    /// per-shard snapshots can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `p` in `(0, 1]`, reported as the inclusive upper
    /// edge of the bucket the rank lands in, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named home for counters, gauges, and histograms. Handles are get-or-create
/// and shared: two `counter("x")` calls return the same `Arc`.
///
/// There is no process-wide registry: each component that reports series
/// (each `ContractStore`, each serve core) owns one, so independent
/// components (two servers in one test process, say) keep isolated numbers.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(c) = inner.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(g) = inner.gauges.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.insert(name.to_string(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(h) = inner.histograms.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Name-sorted copy of every series in the registry.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`]: name-sorted series, mergeable with
/// other snapshots (sharded registries sum; see [`Snapshot::merge`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Fold `other` into `self`: counters and gauges sum, histograms merge,
    /// series missing on either side are kept. Output stays name-sorted, so
    /// the merge is associative and commutative.
    pub fn merge(&mut self, other: &Snapshot) {
        fn fold<V: Clone, F: Fn(&mut V, &V)>(
            dst: &mut Vec<(String, V)>,
            src: &[(String, V)],
            add: F,
        ) {
            for (name, v) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => add(&mut dst[i].1, v),
                    Err(i) => dst.insert(i, (name.clone(), v.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b)
        });
        fold(&mut self.gauges, &other.gauges, |a, b| {
            *a = a.saturating_add(*b)
        });
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// Render the snapshot as Prometheus text exposition (format 0.0.4).
    /// Metric names are prefixed with `bolt_` and sanitized (`.` and `-`
    /// become `_`); histograms are emitted in the native cumulative-bucket
    /// form with nanosecond `le` edges and a `_ns` unit suffix.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = promname(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = promname(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = format!("{}_ns", promname(name));
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", bucket_upper(i)));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }
}

fn promname(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("bolt_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_of(v), k, "2^{k} must open bucket {k}");
            assert_eq!(
                bucket_of(v - 1),
                k - 1,
                "2^{k}-1 must close bucket {}",
                k - 1
            );
            assert_eq!(bucket_of(v + 1), k, "2^{k}+1 stays in bucket {k}");
        }
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(3), 15);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let h = Arc::new(Histogram::new());
        let per_thread = 10_000u64;
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8 * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8 * per_thread);
        // sum of 0..80000
        assert_eq!(snap.sum, (8 * per_thread) * (8 * per_thread - 1) / 2);
        assert_eq!(snap.max, 8 * per_thread - 1);
    }

    #[test]
    fn percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 rank = 500 → value 500 lives in bucket 8 ([256, 512)), upper 511.
        assert_eq!(s.p50(), 511);
        // p99 rank = 990 → bucket 9 ([512, 1024)), upper 1023 clamped to max.
        assert_eq!(s.p99(), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[100, 200]);
        let c = mk(&[7]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count, 6);
        assert_eq!(ab_c.sum, 1 + 5 + 9 + 100 + 200 + 7);
    }

    #[test]
    fn registry_snapshot_merge_associative() {
        let mk = |pairs: &[(&str, u64)]| {
            let r = Registry::new();
            for (n, v) in pairs {
                r.counter(n).add(*v);
                r.histogram("lat").record(*v);
            }
            r.snapshot()
        };
        let a = mk(&[("x", 1), ("y", 2)]);
        let b = mk(&[("y", 10), ("z", 3)]);
        let c = mk(&[("x", 100)]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.counter("x"), Some(101));
        assert_eq!(ab_c.counter("y"), Some(12));
        assert_eq!(ab_c.histogram("lat").unwrap().count, 5);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("serve.requests");
        let b = r.counter("serve.requests");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("serve.requests"), Some(3));
        r.gauge("active").set(-4);
        assert_eq!(r.snapshot().gauge("active"), Some(-4));
        assert_eq!(r.gauge("active").inc(), -3, "inc returns the new level");
    }

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("lat");
        {
            let _s = h.span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 1_000_000, "slept 1ms, recorded {}", snap.max);
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("serve.requests").add(7);
        r.gauge("serve.active_connections").set(2);
        r.histogram("serve.req.query").record(1500);
        r.histogram("serve.req.query").record(3000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE bolt_serve_requests counter"));
        assert!(text.contains("bolt_serve_requests 7"));
        assert!(text.contains("bolt_serve_active_connections 2"));
        assert!(text.contains("# TYPE bolt_serve_req_query_ns histogram"));
        assert!(text.contains("bolt_serve_req_query_ns_bucket{le=\"2047\"} 1"));
        assert!(text.contains("bolt_serve_req_query_ns_bucket{le=\"4095\"} 2"));
        assert!(text.contains("bolt_serve_req_query_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bolt_serve_req_query_ns_sum 4500"));
        assert!(text.contains("bolt_serve_req_query_ns_count 2"));
    }
}
