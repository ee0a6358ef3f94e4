//! Request handling: the store-backed query engine behind the socket
//! server and behind the CLI's local `query`/`diff`/`list`/`provenance`
//! — this module is the only renderer of those answers, so local and
//! remote output are the same bytes by construction.
//!
//! [`ServeCore`] owns the open [`ContractStore`] and the hot-contract
//! [`ContractCache`]; every protocol request maps to one method here.
//! The cost ladder a query can land on, cheapest first:
//!
//! 1. **Memo hit** — this exact (NF, level, class, metric, PCVs) was
//!    answered before: return the stored reply. Zero explorations, zero
//!    solver requests, zero record decodes.
//! 2. **Cache hit** — the contract is hot but the question is new: one
//!    `NfContract::query` pass over the in-memory contract. A wire class
//!    (a tag or unconstrained) adds no constraint, so this runs no
//!    solver and reads no disk. Zero decodes.
//! 3. **Store hit** — decode the record, rehydrate the pool, generate
//!    the contract, admit it to the cache, then as (2).
//! 4. **Miss** — explore fresh (persisting the record), then as (3).
//!
//! Every rung is counted in the core's registry (`serve.*` in the
//! `metrics` reply), which is how the protocol tests pin the "warm
//! repeat does zero work" property.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bolt_core::store::{
    level_from_name, level_from_tag, level_name, store_key, RecordKind, StoreExt,
};
use bolt_core::{
    generate, AbstractNf, ClassSpec, Exploration, InputClass, NetworkFunction, NfContract,
};
use bolt_expr::PcvAssignment;
use bolt_nfs::nat::{AllocKind, NatConfig};
use bolt_nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt_obs::{trace, Counter, Gauge, Histogram, Registry};
use bolt_solver::Solver;
use bolt_store::{ContractStore, Fingerprint};
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

use crate::cache::{CacheConfig, CacheEntry, ContractCache, MemoKey, MEMO_CAP};
use crate::protocol::{
    DiffRequest, MetricsReply, Opcode, QueryReply, QueryRequest, Request, Response,
    MAX_PIPELINE_DEPTH,
};

/// The NF dispatch vocabulary the server understands (the same names
/// `bolt_cli` accepts; `nat` is an alias for `nat-a`).
pub const NF_NAMES: [&str; 8] = [
    "bridge",
    "example_router",
    "firewall",
    "lb",
    "lpm_router",
    "nat-a",
    "nat-b",
    "static_router",
];

/// Dispatch a generic body over an NF named at runtime — the one
/// name→descriptor catalog; unknown names early-return `Err`.
macro_rules! with_nf {
    ($name:expr, $nf:ident => $body:block) => {
        match $name {
            "bridge" => {
                let $nf = Bridge::default();
                $body
            }
            "example_router" => {
                let $nf = ExampleRouter::default();
                $body
            }
            "firewall" => {
                let $nf = Firewall::default();
                $body
            }
            "lb" => {
                let $nf = LoadBalancer::default();
                $body
            }
            "lpm_router" => {
                let $nf = LpmRouter::default();
                $body
            }
            "nat" | "nat-a" => {
                let $nf = Nat::with(NatConfig::default(), AllocKind::A);
                $body
            }
            "nat-b" => {
                let $nf = Nat::with(NatConfig::default(), AllocKind::B);
                $body
            }
            "static_router" => {
                let $nf = StaticRouter::default();
                $body
            }
            other => {
                return Err(format!(
                    "unknown NF {other:?}; known: {}",
                    NF_NAMES.join(", ")
                ))
            }
        }
    };
}

/// The descriptor a catalog name denotes, behind the object-safe view:
/// for callers that need its store key or raw contract (the CLI's
/// `explore`/`evict`/`chain`) rather than a typed exploration.
pub fn nf_by_name(name: &str) -> Result<Box<dyn AbstractNf>, String> {
    with_nf!(name, nf => { Ok(Box::new(nf)) })
}

/// Parse a `NF[:LEVEL]` side spec (level defaults to full-stack).
fn parse_side(s: &str) -> Result<(&str, StackLevel), String> {
    match s.split_once(':') {
        Some((n, l)) => level_from_name(l)
            .map(|level| (n, level))
            .ok_or_else(|| format!("bad level {l:?} (nf-only | full-stack)")),
        None => Ok((s, StackLevel::FullStack)),
    }
}

fn parse_metric(tag: u8) -> Result<Metric, String> {
    Metric::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("bad metric tag {tag} (0..={})", Metric::ALL.len() - 1))
}

fn parse_level(tag: u8) -> Result<StackLevel, String> {
    level_from_tag(tag).ok_or_else(|| format!("bad level tag {tag} (0 = nf-only, 1 = full-stack)"))
}

/// The class a wire query names, as its rendered name and its spec. A
/// wire tag resolves against the tags `contract`'s paths carry, which
/// are `&'static` already, so no client string is ever interned; a tag
/// no path carries has no spec, and selects no path.
fn class_of(tag: Option<&str>, contract: &NfContract) -> (String, Option<ClassSpec>) {
    match tag {
        None => {
            let class = InputClass::unconstrained();
            (class.name, Some(class.spec))
        }
        Some(t) => (
            format!("tag:{t}"),
            contract
                .paths
                .iter()
                .flat_map(|p| p.tags.iter().copied())
                .find(|&known| known == t)
                .map(ClassSpec::Tag),
        ),
    }
}

/// Wire names of the request phases, indexed by [`Phase`] — each is a
/// `serve.phase.<name>` histogram in the core's registry.
const PHASE_NAMES: [&str; 3] = ["read", "handle", "write"];

/// Where one request's wall time went: reading the frame off the
/// socket, computing the answer, or writing the reply. Indexes
/// [`ServeCore::phase_histogram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// First byte of a frame arriving → frame complete.
    Read = 0,
    /// Frame decoded → reply computed (injected stalls included, to
    /// match the request-deadline clock).
    Handle = 1,
    /// Reply encoded → frame flushed to the socket.
    Write = 2,
}

/// Where the socket server should run one request (see
/// [`ServeCore::dispatch`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dispatch {
    /// Bounded work: run it inline on the event loop.
    Inline,
    /// Potentially blocking work: hand it to the handler pool.
    Offload,
}

/// The serve counters, said once: each line pairs the private handle
/// index with the counter's name, `serve.<name>` in the registry.
macro_rules! stats {
    ($($stat:ident => $name:literal,)*) => {
        /// Counter names, indexed by [`Stat`].
        const STAT_NAMES: &[&str] = &[$($name),*];

        /// Index of one counter in [`STAT_NAMES`] and in the core's
        /// pre-minted handle array.
        #[derive(Clone, Copy)]
        enum Stat {
            $($stat),*
        }
    };
}

stats! {
    Requests => "requests",
    Errors => "errors",
    Connections => "connections",
    ProtocolErrors => "protocol_errors",
    Queries => "queries",
    MemoHits => "memo_hits",
    MemoMisses => "memo_misses",
    CacheHits => "cache_hits",
    CacheMisses => "cache_misses",
    ContractDecodes => "contract_decodes",
    Explorations => "explorations",
    Evictions => "evictions",
    TouchesFlushed => "touches_flushed",
    BusyRejects => "busy_rejects",
    IdleClosed => "idle_closed",
    DeadlinesExceeded => "deadlines_exceeded",
}

/// The serve counters as flat (name, value) pairs: a projection of the
/// core's registry, not a second count.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StatsReply {
    /// Counter names and values.
    pub counters: Vec<(String, u64)>,
}

impl StatsReply {
    /// Look up one counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The query engine: one open store, one hot-contract cache, counters.
/// Shared across connection threads behind an `Arc`; all methods take
/// `&self`.
pub struct ServeCore {
    store: ContractStore,
    cache: ContractCache,
    /// Monotonic request/work counters, indexed by [`Stat`] — handles
    /// into the registry under `serve.<name>`, minted once so the hot
    /// path never touches the registry lock.
    counters: [Arc<Counter>; STAT_NAMES.len()],
    metrics: Arc<Registry>,
    /// Per-phase request-latency histograms, indexed by [`Phase`]
    /// (pre-minted: the request path must not take the registry lock).
    phase_hists: [Arc<Histogram>; PHASE_NAMES.len()],
    /// Per-opcode request-latency histograms, indexed `opcode as u8 - 1`
    /// (pre-minted: the request path must not take the registry lock).
    req_hists: [Arc<Histogram>; Opcode::ALL.len()],
    active_connections: Arc<Gauge>,
}

impl ServeCore {
    /// Engine over a store with default cache tuning.
    pub fn new(store: ContractStore) -> Self {
        Self::with_config(store, CacheConfig::default())
    }

    /// Engine over a store with explicit cache tuning. The core mints its
    /// own [`Registry`] and rebinds the store's series into it, so one
    /// snapshot covers the whole request path (serve counters and phase
    /// latencies, store get/put/decode, explorer/solver work) — and two
    /// cores in one process keep fully isolated numbers.
    pub fn with_config(store: ContractStore, config: CacheConfig) -> Self {
        let metrics = Arc::new(Registry::new());
        let store = store.with_metrics(Arc::clone(&metrics));
        let counters =
            std::array::from_fn(|i| metrics.counter(&format!("serve.{}", STAT_NAMES[i])));
        let phase_hists =
            std::array::from_fn(|i| metrics.histogram(&format!("serve.phase.{}", PHASE_NAMES[i])));
        let req_hists = std::array::from_fn(|i| {
            metrics.histogram(&format!("serve.req.{}", Opcode::ALL[i].name()))
        });
        let active_connections = metrics.gauge("serve.active_connections");
        ServeCore {
            store,
            cache: ContractCache::new(config),
            counters,
            metrics,
            phase_hists,
            req_hists,
            active_connections,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ContractStore {
        &self.store
    }

    /// The core's metrics registry (shared with its store).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The full observability snapshot (the `metrics` reply body).
    pub(crate) fn metrics_reply(&self) -> MetricsReply {
        MetricsReply::from_snapshot(self.metrics.snapshot())
    }

    /// The request-latency histogram for one opcode.
    pub(crate) fn request_histogram(&self, op: Opcode) -> &Arc<Histogram> {
        &self.req_hists[op.index()]
    }

    /// The latency histogram for one request phase.
    pub fn phase_histogram(&self, phase: Phase) -> &Arc<Histogram> {
        &self.phase_hists[phase as usize]
    }

    /// The live-connection gauge (owned here so it appears in the
    /// snapshot; the socket server moves it).
    pub(crate) fn connection_gauge(&self) -> &Arc<Gauge> {
        &self.active_connections
    }

    /// The serve counters for in-process callers, projected from one
    /// registry snapshot: every `serve.*` counter with its prefix
    /// dropped, `store.hits` and `store.misses` as `store_hits` and
    /// `store_misses`, and the connection gauge as `active_connections`.
    pub fn stats_reply(&self) -> StatsReply {
        let snap = self.metrics.snapshot();
        let mut counters: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let short = match name.as_str() {
                    "store.hits" => "store_hits",
                    "store.misses" => "store_misses",
                    other => other.strip_prefix("serve.")?,
                };
                Some((short.to_string(), *v))
            })
            .collect();
        let active = self.active_connections.get().max(0) as u64;
        counters.push(("active_connections".to_string(), active));
        StatsReply { counters }
    }

    fn stat(&self, s: Stat) -> &Counter {
        &self.counters[s as usize]
    }

    /// Record an accepted connection (called by the socket server);
    /// returns the connection's ordinal (1-based) for lifecycle tracing.
    pub(crate) fn note_connection(&self) -> u64 {
        self.stat(Stat::Connections).inc()
    }

    /// Record a frame/decode-level protocol violation (called by the
    /// socket server).
    pub(crate) fn note_protocol_error(&self) {
        self.stat(Stat::ProtocolErrors).inc();
    }

    /// Record a connection turned away at the connection cap (called by
    /// the socket server).
    pub(crate) fn note_busy_reject(&self) {
        self.stat(Stat::BusyRejects).inc();
    }

    /// Record a connection reaped by the idle timeout (called by the
    /// socket server).
    pub(crate) fn note_idle_close(&self) {
        self.stat(Stat::IdleClosed).inc();
    }

    /// Record a request whose handling blew the configured deadline
    /// (called by the socket server).
    pub(crate) fn note_deadline_exceeded(&self) {
        self.stat(Stat::DeadlinesExceeded).inc();
    }

    /// Write every pending cache-hit touch to the store's last-used
    /// stamps, unconditionally (the shutdown path; a running socket
    /// server flushes due batches from its event loop). Returns how many
    /// records were stamped.
    pub fn flush_touches(&self) -> u64 {
        self.flush(true)
    }

    /// Flush the pending cache-hit touch batch to the store's last-used
    /// stamps if it has reached the cache's batch size or its oldest
    /// touch is a second old — the socket server calls this from its
    /// event loop between poll wakeups, so the request path itself never
    /// pays a stamp write. Returns how many records were stamped (0 when
    /// the batch is not due).
    pub(crate) fn drain_touches(&self) -> u64 {
        self.flush(false)
    }

    fn flush(&self, force: bool) -> u64 {
        let mut stamped = 0;
        for key in self.cache.take_pending_touches(force, Instant::now()) {
            if let Ok(true) = self.store.touch(key, RecordKind::Exploration) {
                stamped += 1;
                self.stat(Stat::TouchesFlushed).inc();
            }
        }
        stamped
    }

    /// Answer one decoded request. Service failures become
    /// [`Response::Error`]; this never panics on untrusted input.
    pub fn handle(&self, req: &Request) -> Response {
        self.stat(Stat::Requests).inc();
        let result = match req {
            Request::Ping => Ok(Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
            }),
            Request::Query(q) => self.query(q).map(Response::Query),
            Request::Diff(d) => self.diff(d).map(|text| Response::Diff { text }),
            Request::List => self
                .list()
                .map(|(entries, text)| Response::List { entries, text }),
            Request::Provenance { nf, level } => self
                .provenance(nf, *level)
                .map(|text| Response::Provenance { text }),
            Request::Metrics => Ok(Response::Metrics(self.metrics_reply())),
            Request::Shutdown => Ok(Response::ShuttingDown),
            // The socket server intercepts Hello (negotiation is
            // connection state, and it knows its own depth cap); this
            // arm answers in-process callers with the protocol-level
            // defaults.
            Request::Hello { depth } => Ok(Response::HelloAck {
                depth: (*depth).clamp(1, MAX_PIPELINE_DEPTH),
            }),
        };
        result.unwrap_or_else(|message| {
            self.stat(Stat::Errors).inc();
            Response::Error { message }
        })
    }

    /// Classify one request for the socket server's event loop:
    /// [`Dispatch::Inline`] work is bounded (counter snapshots and
    /// answers from a hot contract — never the solver, never the disk)
    /// and may run on the loop itself; [`Dispatch::Offload`] work can
    /// block arbitrarily (exploration, record decode, store I/O) and must
    /// go to the handler pool so the loop keeps breathing.
    ///
    /// A query on a hot contract is inline whether or not its answer is
    /// memoised: a memo miss runs `NfContract::query` over a wire class,
    /// a tag or unconstrained, which adds no constraint, so it touches
    /// neither the solver nor the disk.
    ///
    /// This is advisory: [`ServeCore::handle`] computes the same answer
    /// either way. A race (the entry evicted between classification and
    /// handling) costs latency on one request, never correctness.
    pub fn dispatch(&self, req: &Request) -> Dispatch {
        match req {
            Request::Ping | Request::Metrics | Request::Shutdown | Request::Hello { .. } => {
                Dispatch::Inline
            }
            Request::Query(q) if self.hot(q) => Dispatch::Inline,
            Request::Query(_) | Request::Diff(_) | Request::List | Request::Provenance { .. } => {
                Dispatch::Offload
            }
        }
    }

    /// Whether a query's contract is hot and free right now: cached, and
    /// its entry lock not held. Uses [`ContractCache::peek`] so probing
    /// does not perturb recency — the eventual [`ServeCore::handle`]
    /// records the real hit.
    fn hot(&self, q: &QueryRequest) -> bool {
        let Ok(level) = parse_level(q.level) else {
            return false;
        };
        let Ok(key) = self.key_of(&q.nf, level) else {
            return false;
        };
        self.cache
            .peek(key)
            .is_some_and(|entry| entry.try_lock().is_ok())
    }

    /// Get the hot contract for (NF name, level): cache hit, store
    /// decode, or fresh exploration — admitting to the cache on the
    /// latter two.
    fn load(
        &self,
        name: &str,
        level: StackLevel,
    ) -> Result<(Fingerprint, Arc<Mutex<CacheEntry>>), String> {
        with_nf!(name, nf => {
            let key = store_key(&nf, level);
            if let Some(entry) = self.cache.lookup(key) {
                self.stat(Stat::CacheHits).inc();
                return Ok((key, entry));
            }
            self.stat(Stat::CacheMisses).inc();
            let ex = self.store.get_or_explore(&nf, level);
            if ex.cached {
                self.stat(Stat::ContractDecodes).inc();
            } else {
                self.stat(Stat::Explorations).inc();
            }
            let nf_name = NetworkFunction::name(&nf);
            let Exploration {
                reg,
                result,
                cached,
                record_bytes,
                ..
            } = ex;
            let contract = generate(&reg, result);
            // Weight = the record's on-disk bytes (header + payload), as
            // the read or write that just happened measured them: the
            // same unit `sweep --budget` ranks, so the cache budget and
            // the store budget talk about the same thing. A record the
            // store failed to persist is estimated from shape.
            let weight = record_bytes
                .unwrap_or_else(|| 1024 + 512 * contract.paths.len() as u64);
            let entry = CacheEntry {
                nf_name,
                level,
                from_store: cached,
                reg,
                contract,
                solver: Solver::default(),
                memo: Default::default(),
            };
            let (entry, evicted) = self.cache.insert(key, entry, weight);
            for victim in &evicted {
                self.stat(Stat::Evictions).inc();
                if trace::enabled() {
                    trace::emit(
                        "serve.cache.evict",
                        &[("fp", format!("{victim}").as_str().into())],
                    );
                }
            }
            Ok((key, entry))
        })
    }

    /// Answer a query; the rendered text is what `bolt_cli query`
    /// prints, locally or remotely.
    pub fn query(&self, q: &QueryRequest) -> Result<QueryReply, String> {
        let level = parse_level(q.level)?;
        let metric = parse_metric(q.metric)?;
        self.stat(Stat::Queries).inc();
        let (_, entry) = self.load(&q.nf, level)?;
        let mut pcvs = q.pcvs.clone();
        pcvs.sort_by(|a, b| a.0.cmp(&b.0));
        let memo_key: MemoKey = (q.metric, q.tag.clone(), pcvs);
        let mut e = entry.lock().expect("entry poisoned");
        if let Some(reply) = e.memo.get(&memo_key) {
            self.stat(Stat::MemoHits).inc();
            return Ok(reply.clone());
        }
        self.stat(Stat::MemoMisses).inc();
        let mut env = PcvAssignment::new();
        for (name, v) in &q.pcvs {
            match e.reg.pcvs.lookup(name) {
                Some(id) => {
                    env.set(id, *v);
                }
                None => {
                    let known: Vec<&str> = e.reg.pcvs.iter().map(|(_, n)| n).collect();
                    return Err(format!(
                        "unknown PCV {name:?}; this contract knows: {}",
                        known.join(", ")
                    ));
                }
            }
        }
        let source = if e.from_store { "warm" } else { "explored" };
        let CacheEntry {
            nf_name,
            reg,
            contract,
            solver,
            memo,
            ..
        } = &mut *e;
        let (class_name, spec) = class_of(q.tag.as_deref(), contract);
        let answer = spec.and_then(|spec| {
            let class = InputClass::new(class_name.as_str(), spec);
            contract.query(solver, &class, metric, &env)
        });
        let reply = match answer {
            None => QueryReply {
                found: false,
                path_index: 0,
                value: 0,
                text: format!("no path of {nf_name} is compatible with {class_name}\n"),
            },
            Some(r) => {
                let path = &contract.paths[r.path_index];
                let text = format!(
                    "{nf_name} @ {} ({source}), class {class_name}, metric {metric}:\n\
                     \x20 worst path : #{} tags {:?}\n\
                     \x20 expression : {}\n\
                     \x20 prediction : {} {metric}\n",
                    level_name(level),
                    r.path_index,
                    path.tags,
                    r.expr.display(&reg.pcvs),
                    r.value,
                );
                QueryReply {
                    found: true,
                    path_index: r.path_index as u64,
                    value: r.value,
                    text,
                }
            }
        };
        if memo.len() < MEMO_CAP {
            memo.insert(memo_key, reply.clone());
        }
        Ok(reply)
    }

    /// Compare two contracts (the `bolt_cli diff` rendering). A read: it
    /// may fill the store and the cache on a miss, like `query`, and
    /// writes nothing else.
    pub fn diff(&self, d: &DiffRequest) -> Result<String, String> {
        let metric = parse_metric(d.metric)?;
        let (name_a, level_a) = parse_side(&d.a)?;
        let (name_b, level_b) = parse_side(&d.b)?;
        let (ka, ea) = self.load(name_a, level_a)?;
        let (kb, eb) = self.load(name_b, level_b)?;
        let env = PcvAssignment::new();
        let measure = |e: &CacheEntry| {
            let worst = e
                .contract
                .worst(metric, &env)
                .map_or(0, |p| p.expr(metric).eval(&env));
            let tags: BTreeSet<&'static str> = e
                .contract
                .paths
                .iter()
                .flat_map(|p| p.tags.iter().copied())
                .collect();
            (e.contract.paths.len(), worst, tags)
        };
        // Same key ⇒ same entry ⇒ one lock; different keys lock in key
        // order so concurrent diffs cannot deadlock.
        let ((na, wa, ta), (nb, wb, tb)) = if ka == kb {
            let g = ea.lock().expect("entry poisoned");
            let m = measure(&g);
            (m.clone(), m)
        } else if ka < kb {
            let ga = ea.lock().expect("entry poisoned");
            let gb = eb.lock().expect("entry poisoned");
            (measure(&ga), measure(&gb))
        } else {
            let gb = eb.lock().expect("entry poisoned");
            let ga = ea.lock().expect("entry poisoned");
            (measure(&ga), measure(&gb))
        };
        let (sa, sb) = (&d.a, &d.b);
        let mut out = format!("diff {sa} vs {sb} ({metric}, PCVs all 0):\n");
        out.push_str(&format!("  paths      : {na} vs {nb}\n"));
        out.push_str(&format!(
            "  worst case : {wa} vs {wb} ({:+})\n",
            wb as i128 - wa as i128
        ));
        let only_a: Vec<&str> = ta.difference(&tb).copied().collect();
        let only_b: Vec<&str> = tb.difference(&ta).copied().collect();
        if !only_a.is_empty() {
            out.push_str(&format!("  tags only in {sa}: {only_a:?}\n"));
        }
        if !only_b.is_empty() {
            out.push_str(&format!("  tags only in {sb}: {only_b:?}\n"));
        }
        if only_a.is_empty() && only_b.is_empty() {
            out.push_str("  tag vocabularies agree\n");
        }
        Ok(out)
    }

    /// Enumerate the store — a pure header pass (no payload decodes) —
    /// as the `bolt_cli list` table.
    pub fn list(&self) -> Result<(u64, String), String> {
        let entries = self
            .store
            .list()
            .map_err(|e| format!("cannot list store: {e}"))?;
        if entries.is_empty() {
            return Ok((0, format!("store at {:?} is empty\n", self.store.dir())));
        }
        let mut out = format!(
            "{:>14} {:>10} {:>11} {:>6} {:>9}  key\n",
            "nf", "level", "kind", "paths", "bytes"
        );
        let n = entries.len() as u64;
        for e in entries {
            let kind = match e.kind {
                RecordKind::Exploration => "exploration",
                RecordKind::Composed => "composed",
                RecordKind::Plan => "plan",
            };
            out.push_str(&format!(
                "{:>14} {:>10} {kind:>11} {:>6} {:>9}  {}\n",
                e.nf_name,
                // A header tag no stack level owns still lists.
                level_from_tag(e.level).map_or("?", level_name),
                e.n_paths,
                e.payload_len,
                e.fingerprint
            ));
        }
        Ok((n, out))
    }

    /// Where an (NF, level)'s record stands: the store key, the on-disk
    /// exploration record's header metadata, and the server cache's view.
    pub fn provenance(&self, name: &str, level: u8) -> Result<String, String> {
        let level = parse_level(level)?;
        let key = self.key_of(name, level)?;
        let mut out = format!("{name} @ {}:\n", level_name(level));
        out.push_str(&format!("  key         : {key}\n"));
        match self.store.header(key, RecordKind::Exploration) {
            Some(h) => out.push_str(&format!(
                "  exploration : {} paths, {} bytes on disk, last-used stamp {}\n",
                h.n_paths,
                h.header_len + h.payload_len,
                h.last_used
            )),
            None => out.push_str("  exploration : absent\n"),
        }
        match self.cache.slot_info(key) {
            Some((weight, memo)) => out.push_str(&format!(
                "  cache       : hot ({weight} bytes, {memo} memoised answer(s))\n"
            )),
            None => out.push_str("  cache       : cold\n"),
        }
        Ok(out)
    }

    /// The store key of an (NF name, level) pair.
    fn key_of(&self, name: &str, level: StackLevel) -> Result<Fingerprint, String> {
        with_nf!(name, nf => { Ok(store_key(&nf, level)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bolt-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bridge_query(tag: Option<&str>, pcvs: &[(&str, u64)]) -> Request {
        Request::Query(QueryRequest {
            nf: "bridge".into(),
            level: 0,
            tag: tag.map(str::to_owned),
            pcvs: pcvs.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            metric: Metric::Cycles as u8,
        })
    }

    #[test]
    fn dispatch_runs_every_query_on_a_hot_contract_inline() {
        let dir = temp_dir("dispatch");
        let core = ServeCore::new(ContractStore::open(&dir).unwrap());
        let first = bridge_query(None, &[]);
        assert_eq!(core.dispatch(&first), Dispatch::Offload, "cold contract");
        core.handle(&first);
        // A fresh PCV binding misses the memo, but the contract is hot.
        let fresh = bridge_query(None, &[("e", 16)]);
        assert_eq!(core.dispatch(&fresh), Dispatch::Inline, "hot, memo miss");
        let key = core.key_of("bridge", StackLevel::NfOnly).unwrap();
        {
            let entry = core.cache.peek(key).expect("hot");
            let _held = entry.lock().unwrap();
            assert_eq!(core.dispatch(&fresh), Dispatch::Offload, "entry busy");
        }
        assert_eq!(core.dispatch(&fresh), Dispatch::Inline, "lock released");
        let others = [
            Request::Diff(DiffRequest {
                a: "bridge:nf-only".into(),
                b: "bridge:nf-only".into(),
                metric: Metric::Cycles as u8,
            }),
            Request::List,
            Request::Provenance {
                nf: "bridge".into(),
                level: 0,
            },
        ];
        for req in &others {
            assert_eq!(core.dispatch(req), Dispatch::Offload, "{req:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reply_does_not_depend_on_how_its_request_was_dispatched() {
        let dir = temp_dir("same-reply");
        ServeCore::new(ContractStore::open(&dir).unwrap()).handle(&bridge_query(None, &[]));
        // Both cores decode the stored record, so both render `warm`.
        let hot = ServeCore::new(ContractStore::open(&dir).unwrap());
        hot.handle(&bridge_query(None, &[]));
        for req in [
            bridge_query(None, &[("e", 16)]),
            bridge_query(Some("src:rehash"), &[("e", 16)]),
            bridge_query(Some("nosuch"), &[]),
        ] {
            let cold = ServeCore::new(ContractStore::open(&dir).unwrap());
            assert_eq!(hot.dispatch(&req), Dispatch::Inline);
            assert_eq!(cold.dispatch(&req), Dispatch::Offload);
            assert_eq!(hot.handle(&req), cold.handle(&req), "{req:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_tags_resolve_against_the_contract_tags() {
        let dir = temp_dir("tags");
        let core = ServeCore::new(ContractStore::open(&dir).unwrap());
        assert_eq!(
            core.handle(&bridge_query(Some("src:rehash"), &[("e", 16)])),
            Response::Query(QueryReply {
                found: true,
                path_index: 4,
                value: 214961,
                text: "bridge @ nf-only (explored), class tag:src:rehash, metric cycles:\n\
                       \x20 worst path : #4 tags [\"src:rehash\", \"dst:known\"]\n\
                       \x20 expression : 16·c + 276·e + 1747·o + 624·t + 8·e·ce + 208·e·te + 210545\n\
                       \x20 prediction : 214961 cycles\n"
                    .into(),
            })
        );
        // A tag no path carries selects no path.
        assert_eq!(
            core.handle(&bridge_query(Some("nosuch"), &[])),
            Response::Query(QueryReply {
                found: false,
                path_index: 0,
                value: 0,
                text: "no path of bridge is compatible with tag:nosuch\n".into(),
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_query_memo_stops_at_its_cap_and_answers_stay_exact() {
        let dir = temp_dir("memo-cap");
        ServeCore::new(ContractStore::open(&dir).unwrap()).handle(&bridge_query(None, &[]));
        // Both cores decode the stored record. The reference core is asked
        // each binding once, so every one of its replies is computed fresh.
        let hot = ServeCore::new(ContractStore::open(&dir).unwrap());
        let reference = ServeCore::new(ContractStore::open(&dir).unwrap());
        for e in 0..3_000u64 {
            let req = bridge_query(None, &[("e", e)]);
            let want = reference.handle(&req);
            assert_eq!(hot.handle(&req), want, "e = {e}, first ask");
            assert_eq!(hot.handle(&req), want, "e = {e}, asked again");
        }
        let key = hot.key_of("bridge", StackLevel::NfOnly).unwrap();
        let (_, memoised) = hot.cache.slot_info(key).expect("hot");
        assert_eq!(memoised, MEMO_CAP);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
