//! `bolt_obs` — unified observability substrate: named metrics, log2
//! latency histograms, and structured JSONL event tracing.
//!
//! Three pieces, one discipline (zero cost when off, lock-free when on):
//!
//! * **[`Registry`]** — a named home for [`Counter`]s, [`Gauge`]s, and
//!   [`Histogram`]s. Handles are `Arc`s minted once and bumped with relaxed
//!   atomics; the registry lock is never taken on the sample path.
//!   Each component that reports series (each `ContractStore`, each serve
//!   core) owns its registry; there is no process-wide one.
//! * **[`Histogram`]** — 64 log2 buckets covering all of `u64`, recorded
//!   directly or via RAII [`Span`] guards (elapsed nanoseconds on drop).
//!   [`HistogramSnapshot`]s merge associatively and derive
//!   p50/p90/p99/max, so sharded registries sum into one view.
//! * **[`trace`]** — one JSONL event schema (`ts_us`, `seq`, `event`,
//!   flat fields) written through an ambient sink activated by
//!   `BOLT_TRACE=path`. Connection lifecycle, fault injections, store
//!   quarantine/heal, and cache evictions all land in the same file.
//!
//! [`Snapshot::to_prometheus`] renders any snapshot as Prometheus text
//! exposition for file-based scraping (`bolt serve --metrics-text`).

mod metrics;
pub mod trace;

pub use metrics::{
    bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, Span, HIST_BUCKETS,
};
pub use trace::Value;
