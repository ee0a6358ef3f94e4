//! `serve_warm` and `serve_churn` — a long-lived contract server over a
//! Unix socket, one event worker and one handler thread, driven in a
//! closed loop from one generator thread (contract clients wait for
//! their answers before asking again).
//!
//! * `serve_warm` is the hot path: a 16-contract store under the default
//!   64 MiB cache, uniform draws over contract × metric with empty PCV
//!   bindings, all memo hits after warm-up. Phase A: one connection at
//!   depth 1, strict round trips (the one-shot `bolt_cli --remote`
//!   shape) — the latency metric. Phase B: one connection at depth 8,
//!   eight requests submitted, then their eight replies received — the
//!   throughput metric. The protocol codec, `FrameBuffer`, the event
//!   loop, the sockets and `cache.lookup` do all the work; store, solver
//!   and explorer do none.
//! * `serve_churn` is the same server, socket and closed loop with the
//!   layers used differently: the cache budget is half the store's
//!   record bytes, so about half the lookups miss, evict and re-decode,
//!   and the mix is 80 % queries (half with a tag class, PCVs drawn from
//!   0..64 so most miss the memo), 10 % `diff`, 5 % `list`, 5 %
//!   `provenance` — all handed to the handler pool. `store.get`, record
//!   decode, `generate`, `contract.query`, rendering and cache
//!   insert/evict dominate.
//!
//! One operation is one reply. Every reply is compared with a reference
//! table built in set-up by a separate in-process `ServeCore` over the
//! same store; error frames and client errors are failures.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bolt_core::store::{level_name, level_tag, store_key, RecordKind, StoreExt};
use bolt_core::{generate, NetworkFunction};
use bolt_serve::cache::CacheEntry;
use bolt_serve::protocol::FrameBuffer;
use bolt_serve::{
    CacheConfig, Client, ContractCache, DiffRequest, Endpoint, Phase, QueryRequest, Request,
    Response, ServeCore, ServeError, Server, Session, StatsReply, Ticket,
};
use bolt_solver::Solver;
use bolt_store::{ContractStore, Fingerprint};
use bolt_trace::Metric;
use dpdk_sim::StackLevel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{Checks, EndToEnd, RunConfig, Windows, Workload};
use crate::catalog::{self, visit_nf, NfVisitor};
use crate::metrics::LayerValues;
use crate::speed::SpeedProbe;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Pipeline depth of the throughput loops.
const DEPTH: u32 = 8;
/// Distinct requests in the churn pool.
const CHURN_POOL: usize = 4096;
/// Replies per second of `--seconds` in the traced slices.
const TRACED_ROUND_TRIPS_PER_SECOND: f64 = 250.0;
const TRACED_WINDOWS_PER_SECOND: f64 = 250.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Warm,
    Churn,
}

/// What set-up learns about one stored contract.
struct ContractInfo {
    nf: &'static str,
    level: StackLevel,
    tags: Vec<&'static str>,
    pcvs: Vec<String>,
    record_bytes: u64,
}

/// Explore one (NF, level) into the store and describe it.
struct Describe<'s> {
    store: &'s ContractStore,
    level: StackLevel,
}

impl NfVisitor for Describe<'_> {
    type Out = ContractInfo;

    fn visit<N: NetworkFunction + Sync>(self, name: &'static str, nf: &N) -> ContractInfo {
        let ex = self.store.get_or_explore_threads(nf, self.level, 1);
        let tags: BTreeSet<&'static str> = ex
            .result
            .paths
            .iter()
            .flat_map(|p| p.tags.iter().copied())
            .collect();
        let record_bytes = self
            .store
            .header(store_key(nf, self.level), RecordKind::Exploration)
            .map_or(0, |h| h.header_len + h.payload_len);
        ContractInfo {
            nf: name,
            level: self.level,
            tags: tags.into_iter().collect(),
            pcvs: ex.reg.pcvs.iter().map(|(_, n)| n.to_string()).collect(),
            record_bytes,
        }
    }
}

/// Decode one stored contract into a cache entry, the way the server's
/// own load path does.
struct BuildEntry<'s> {
    store: &'s ContractStore,
    level: StackLevel,
}

impl NfVisitor for BuildEntry<'_> {
    type Out = (Fingerprint, CacheEntry);

    fn visit<N: NetworkFunction + Sync>(self, _name: &'static str, nf: &N) -> Self::Out {
        let ex = self.store.get_or_explore_threads(nf, self.level, 1);
        let from_store = ex.cached;
        let contract = generate(&ex.reg, ex.result);
        let entry = CacheEntry {
            nf_name: NetworkFunction::name(nf),
            level: self.level,
            from_store,
            reg: ex.reg,
            contract,
            solver: Solver::default(),
            memo: HashMap::new(),
        };
        (store_key(nf, self.level), entry)
    }
}

fn side(info: &ContractInfo) -> String {
    format!("{}:{}", info.nf, level_name(info.level))
}

/// Blank the parts of a provenance block that depend on when it was
/// asked (the last-used stamp) and on the asked server's cache state.
fn normalise(resp: Response) -> Response {
    match resp {
        Response::Provenance { text } => {
            let text = text
                .lines()
                .map(|line| {
                    if line.trim_start().starts_with("cache") {
                        "  cache       : *".to_string()
                    } else if let Some((head, _)) = line.split_once("last-used stamp ") {
                        format!("{head}last-used stamp *")
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            Response::Provenance { text }
        }
        other => other,
    }
}

fn seeded_query(rng: &mut SmallRng, info: &ContractInfo, bind: bool) -> QueryRequest {
    let tag = (bind && !info.tags.is_empty() && rng.gen_bool(0.5))
        .then(|| info.tags[rng.gen_range(0..info.tags.len())].to_string());
    let pcvs = if bind {
        info.pcvs
            .iter()
            .map(|n| (n.clone(), rng.gen_range(0..64u64)))
            .collect()
    } else {
        Vec::new()
    };
    QueryRequest {
        nf: info.nf.to_string(),
        level: level_tag(info.level),
        metric: rng.gen_range(0..Metric::ALL.len()) as u8,
        tag,
        pcvs,
    }
}

/// Where one closed loop's samples go.
struct Sink {
    t0: Instant,
    /// Wall clock of the last completion, nanoseconds since `t0`, less
    /// the time the reference kernel took.
    clock_ns: u64,
    kernel_total_ns: u64,
    probe: SpeedProbe,
    windows: Windows,
    keep_latencies: bool,
    /// Set when the transport failed: the loop stops, the failure counts.
    broken: bool,
}

impl Sink {
    fn new(cfg: &RunConfig, keep_latencies: bool) -> Sink {
        Sink {
            t0: Instant::now(),
            clock_ns: 0,
            kernel_total_ns: 0,
            probe: SpeedProbe::new(),
            windows: Windows::new(cfg.window_ns()),
            keep_latencies,
            broken: false,
        }
    }

    /// `n` replies received just now.
    fn complete(&mut self, n: u64) {
        let now_ns = self.t0.elapsed().as_nanos() as u64 - self.kernel_total_ns;
        let busy_ns = now_ns - self.clock_ns;
        self.clock_ns = now_ns;
        let windows = &mut self.windows;
        self.kernel_total_ns += self.probe.after(busy_ns, |ns| windows.kernel_ns(ns));
        windows.complete(now_ns, n);
    }

    /// Whether a loop bounded by `seconds` or by `count` goes on.
    fn more(&self, count: Option<usize>, seconds: f64, done: usize) -> bool {
        count.map_or(self.clock_ns < (seconds * 1e9) as u64, |n| done < n)
    }

    /// End a loop of a fixed count: what it measured is one last window.
    fn finish(mut self, fixed_count: bool) -> Windows {
        if fixed_count {
            self.windows.close(self.clock_ns);
        }
        self.windows
    }
}

/// Requests submitted and not yet answered: ticket, pool index, and when
/// it was submitted.
type Inflight = Vec<(Ticket, usize, Instant)>;

/// The state both workloads share.
struct Serve {
    rng: SmallRng,
    store_dir: PathBuf,
    infos: Vec<ContractInfo>,
    pool: Vec<Request>,
    reference: Vec<Response>,
    server: Option<Server>,
    endpoint: Endpoint,
}

impl Serve {
    fn setup(
        mode: Mode,
        cfg: &RunConfig,
        dir: &Path,
        checks: &mut Checks,
    ) -> Result<Serve, String> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let store_dir = dir.join("store");
        let open = || ContractStore::open(&store_dir).map_err(|e| format!("open store: {e}"));

        // The store: every catalog contract explored once and persisted.
        let store = open()?;
        let infos: Vec<ContractInfo> = catalog::contracts()
            .into_iter()
            .map(|(index, level)| {
                visit_nf(
                    index,
                    Describe {
                        store: &store,
                        level,
                    },
                )
            })
            .collect();
        drop(store);

        // The request pool, from the seed.
        let pool: Vec<Request> = match mode {
            Mode::Warm => infos
                .iter()
                .flat_map(|info| {
                    (0..Metric::ALL.len() as u8).map(|metric| {
                        Request::Query(QueryRequest {
                            nf: info.nf.to_string(),
                            level: level_tag(info.level),
                            metric,
                            tag: None,
                            pcvs: Vec::new(),
                        })
                    })
                })
                .collect(),
            Mode::Churn => (0..CHURN_POOL)
                .map(|_| {
                    let a = &infos[rng.gen_range(0..infos.len())];
                    match rng.gen_range(0..100u32) {
                        0..=79 => Request::Query(seeded_query(&mut rng, a, true)),
                        80..=89 => {
                            let b = &infos[rng.gen_range(0..infos.len())];
                            Request::Diff(DiffRequest {
                                a: side(a),
                                b: side(b),
                                metric: rng.gen_range(0..Metric::ALL.len()) as u8,
                            })
                        }
                        90..=94 => Request::List,
                        _ => Request::Provenance {
                            nf: a.nf.to_string(),
                            level: level_tag(a.level),
                        },
                    }
                })
                .collect(),
        };

        // Reference answers from a separate in-process core. Two passes:
        // `diff` persists contract records on first sight, which changes
        // what `list` and `provenance` render; the second pass sees the
        // store as the server will.
        let reference_core = ServeCore::new(open()?);
        for req in &pool {
            reference_core.handle(req);
        }
        let reference: Vec<Response> = pool
            .iter()
            .map(|req| normalise(reference_core.handle(req)))
            .collect();
        if let Some(Response::Error { message }) = reference
            .iter()
            .find(|r| matches!(r, Response::Error { .. }))
        {
            return Err(format!("reference core refused a pool request: {message}"));
        }
        drop(reference_core);

        // The server under test.
        let cache = match mode {
            Mode::Warm => CacheConfig::default(),
            Mode::Churn => CacheConfig {
                budget: infos.iter().map(|i| i.record_bytes).sum::<u64>() / 2,
                ..CacheConfig::default()
            },
        };
        let server = Server::builder()
            .unix(dir.join("s.sock"))
            .event_workers(1)
            .handler_threads(1)
            .start(ServeCore::with_config(open()?, cache))
            .map_err(|e| format!("start server: {e}"))?;
        let endpoint = Endpoint::Unix(
            server
                .unix_path()
                .ok_or("server has no unix path")?
                .to_path_buf(),
        );

        let mut serve = Serve {
            rng,
            store_dir,
            infos,
            pool,
            reference,
            server: Some(server),
            endpoint,
        };

        // Warm-up: every warm request once (fills the memo), or a stretch
        // of churn (fills the cache to its budget).
        match mode {
            Mode::Warm => match serve.session(1) {
                Ok(mut session) => {
                    for idx in 0..serve.pool.len() {
                        let reply = session.call(&serve.pool[idx]);
                        checks.check(serve.judge(idx, reply));
                    }
                }
                Err(e) => checks.check(Err(e)),
            },
            Mode::Churn => {
                let sink = Sink::new(cfg, false);
                serve.pipelined(Some(512), 0.0, checks, sink, &mut Tracer::disabled());
            }
        }
        Ok(serve)
    }

    fn teardown(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }

    fn session(&self, depth: u32) -> Result<Session, String> {
        Client::builder(&self.endpoint)
            .pipeline_depth(depth)
            .session()
            .map_err(|e| format!("connect: {e}"))
    }

    fn stats(&self) -> StatsReply {
        self.server
            .as_ref()
            .expect("server runs until teardown")
            .core()
            .stats_reply()
    }

    /// Compare one reply with the reference table.
    fn judge(&self, idx: usize, reply: Result<Response, ServeError>) -> Result<(), String> {
        match reply {
            Err(e) => Err(format!("{:?}: {e}", self.pool[idx])),
            Ok(resp) => {
                let resp = normalise(resp);
                if resp == self.reference[idx] {
                    Ok(())
                } else {
                    Err(format!(
                        "{:?}: reply {resp:?} differs from reference {:?}",
                        self.pool[idx], self.reference[idx]
                    ))
                }
            }
        }
    }

    /// Strict round trips on one connection at depth 1, for `seconds` or
    /// `count` replies, whichever is given.
    fn round_trips(
        &mut self,
        count: Option<usize>,
        seconds: f64,
        checks: &mut Checks,
        mut sink: Sink,
        tracer: &mut Tracer,
    ) -> Windows {
        let mut session = match self.session(1) {
            Ok(session) => session,
            Err(e) => {
                checks.check(Err(e));
                return sink.finish(false);
            }
        };
        let mut done = 0usize;
        while sink.more(count, seconds, done) && !sink.broken {
            let idx = self.rng.gen_range(0..self.pool.len());
            tracer.next_op();
            let t = Instant::now();
            let reply = tracer.time("client.call", || session.call(&self.pool[idx]));
            sink.windows.latency_ns(t.elapsed().as_nanos() as u64);
            sink.complete(1);
            sink.broken = matches!(reply, Err(ServeError::Io(_) | ServeError::Protocol(_)));
            checks.check(self.judge(idx, reply));
            done += 1;
        }
        sink.finish(count.is_some())
    }

    /// The pipelined closed loop: one connection at depth [`DEPTH`], for
    /// `seconds` or `windows` windows, whichever is given. One connection
    /// because the process runs on one CPU: a second only adds a race
    /// between the client and the server for who runs next.
    fn pipelined(
        &mut self,
        windows: Option<usize>,
        seconds: f64,
        checks: &mut Checks,
        mut sink: Sink,
        tracer: &mut Tracer,
    ) -> Windows {
        let mut session = match self.session(DEPTH) {
            Ok(session) => session,
            Err(e) => {
                checks.check(Err(e));
                return sink.finish(false);
            }
        };
        let mut inflight = Inflight::with_capacity(DEPTH as usize);
        let mut done = 0usize;
        while sink.more(windows, seconds, done) && !sink.broken {
            self.fill(&mut session, &mut inflight, checks, &mut sink, tracer);
            self.drain(&mut session, &mut inflight, checks, &mut sink, tracer);
            done += 1;
        }
        sink.finish(windows.is_some())
    }

    fn fill(
        &mut self,
        session: &mut Session,
        inflight: &mut Inflight,
        checks: &mut Checks,
        sink: &mut Sink,
        tracer: &mut Tracer,
    ) {
        tracer.next_op();
        tracer.open("client.submit_window");
        for _ in 0..DEPTH {
            let idx = self.rng.gen_range(0..self.pool.len());
            let t = Instant::now();
            match session.submit(&self.pool[idx]) {
                Ok(ticket) => inflight.push((ticket, idx, t)),
                Err(e) => {
                    checks.check(Err(format!("submit {:?}: {e}", self.pool[idx])));
                    sink.broken = true;
                    break;
                }
            }
        }
        if let Err(e) = session.flush() {
            checks.check(Err(format!("flush: {e}")));
            sink.broken = true;
        }
        tracer.close();
    }

    fn drain(
        &mut self,
        session: &mut Session,
        inflight: &mut Inflight,
        checks: &mut Checks,
        sink: &mut Sink,
        tracer: &mut Tracer,
    ) {
        tracer.open("client.recv_window");
        let n = inflight.len() as u64;
        for (ticket, idx, t) in inflight.drain(..) {
            let reply = session.recv(ticket);
            if sink.keep_latencies {
                sink.windows.latency_ns(t.elapsed().as_nanos() as u64);
            }
            sink.broken |= matches!(reply, Err(ServeError::Io(_) | ServeError::Protocol(_)));
            checks.check(self.judge(idx, reply));
        }
        sink.complete(n);
        tracer.close();
    }

    /// Ratios and counts of the server's cache over an interval of its
    /// `stats` counters.
    fn cache_counters(before: &StatsReply, after: &StatsReply, layers: &mut LayerValues) {
        let delta =
            |name: &str| (after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0)) as f64;
        let ratio = |hit: f64, miss: f64| {
            if hit + miss > 0.0 {
                hit / (hit + miss)
            } else {
                0.0
            }
        };
        layers.set(
            "cache.hit_ratio",
            ratio(delta("cache_hits"), delta("cache_misses")),
        );
        layers.set(
            "cache.memo_hit_ratio",
            ratio(delta("memo_hits"), delta("memo_misses")),
        );
        layers.set("cache.decodes", delta("contract_decodes"));
        layers.set("cache.evictions", delta("evictions"));
        layers.set("cache.explorations", delta("explorations"));
        layers.set("store.hits", delta("store_hits"));
        layers.set("store.misses", delta("store_misses"));
    }

    fn phase_p50s(&self, layers: &mut LayerValues) {
        let core = self.server.as_ref().expect("server runs").core();
        for (name, phase) in [
            ("server.phase_read_p50_ns", Phase::Read),
            ("server.phase_handle_p50_ns", Phase::Handle),
            ("server.phase_write_p50_ns", Phase::Write),
        ] {
            layers.set(name, core.phase_histogram(phase).snapshot().p50() as f64);
        }
    }

    /// A core of its own over the same store, for driving the service
    /// layer directly.
    fn probe_core(&self, cache: CacheConfig) -> Result<ServeCore, String> {
        ContractStore::open(&self.store_dir)
            .map(|s| ServeCore::with_config(s, cache))
            .map_err(|e| format!("open store: {e}"))
    }
}

/// The hot serving path.
pub struct ServeWarm(Serve);

impl Workload for ServeWarm {
    fn setup(cfg: &RunConfig, dir: &Path, checks: &mut Checks) -> Result<Self, String> {
        Serve::setup(Mode::Warm, cfg, dir, checks).map(ServeWarm)
    }

    fn measure(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd {
        let s = &mut self.0;
        let mut off = Tracer::disabled();
        let before = s.stats();
        // Phase A: latency at depth 1. Phase B: throughput at depth 8.
        let a = s.round_trips(None, seconds / 2.0, checks, Sink::new(cfg, true), &mut off);
        let b = s.pipelined(None, seconds / 2.0, checks, Sink::new(cfg, false), &mut off);
        // After warm-up the store, the solver and the explorer are idle.
        let after = s.stats();
        let idle = ["contract_decodes", "explorations", "memo_misses"]
            .iter()
            .all(|n| after.get(n) == before.get(n));
        checks.ensure(idle, || {
            format!("warm serving did cold work: before {before:?}, after {after:?}")
        });
        EndToEnd::from_phases(
            "one reply (throughput: one connection at depth 8; latency: depth-1 round trip)",
            &b,
            &a,
        )
    }

    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        let s = &mut self.0;
        let mut off = Tracer::disabled();
        let before = s.stats();

        // Untraced reference slices.
        let a = s.round_trips(
            None,
            cfg.seconds * 0.2,
            checks,
            Sink::new(cfg, true),
            &mut off,
        );
        let (sys0, ctx0) = (sys::rw_syscalls(), sys::context_switches());
        let b = s.pipelined(
            None,
            cfg.seconds * 0.2,
            checks,
            Sink::new(cfg, true),
            &mut off,
        );
        let (sys1, ctx1) = (sys::rw_syscalls(), sys::context_switches());
        let rtt_p50_us = stats::median(&a.p50_us);
        let warm_ops = stats::median(&b.rates);
        layers.set("client.op_p90_us", stats::median(&a.p90_us));
        layers.set("client.rtt_p99_us", stats::median(&a.p99_us));
        layers.set("client.warm_p99_us", stats::median(&b.p99_us));
        let replies = b.completed.max(1) as f64;
        layers.set("server.rw_syscalls_per_op", (sys1 - sys0) as f64 / replies);
        layers.set("server.ctx_switches_per_op", (ctx1 - ctx0) as f64 / replies);

        // Traced slices: the same loops, fixed counts, spans around the
        // client's calls.
        let trips = (cfg.seconds * TRACED_ROUND_TRIPS_PER_SECOND).ceil() as usize;
        let ta = s.round_trips(Some(trips), 0.0, checks, Sink::new(cfg, true), tracer);
        let windows = (cfg.seconds * TRACED_WINDOWS_PER_SECOND).ceil() as usize;
        s.pipelined(Some(windows), 0.0, checks, Sink::new(cfg, false), tracer);
        if rtt_p50_us > 0.0 {
            layers.set(
                "ledger.trace_overhead_pct",
                (stats::median(&ta.p50_us) - rtt_p50_us) / rtt_p50_us * 100.0,
            );
        }
        Serve::cache_counters(&before, &s.stats(), layers);
        s.phase_p50s(layers);

        // What the server does per warm request, driven directly: decode
        // the request frame, classify it, answer from the memo, encode
        // the reply; and what the client does: encode, decode.
        let core = match s.probe_core(CacheConfig::default()) {
            Ok(core) => core,
            Err(e) => return checks.check(Err(e)),
        };
        let replies: Vec<Response> = s.pool.iter().map(|r| core.handle(r)).collect();
        const REPS: u32 = 200;
        let n = s.pool.len() as u32 * REPS;
        let req_frames: Vec<Vec<u8>> = s
            .pool
            .iter()
            .enumerate()
            .map(|(i, r)| r.encode_v2(i as u64 + 1))
            .collect();
        let resp_frames: Vec<Vec<u8>> = replies
            .iter()
            .enumerate()
            .map(|(i, r)| r.encode_v2(i as u64 + 1))
            .collect();
        tracer.batch("protocol.req_encode", n, || {
            for _ in 0..REPS {
                for (i, r) in s.pool.iter().enumerate() {
                    black_box(r.encode_v2(i as u64 + 1));
                }
            }
        });
        tracer.batch("protocol.req_decode", n, || {
            for _ in 0..REPS {
                for f in &req_frames {
                    black_box(Request::decode_framed(f).is_ok());
                }
            }
        });
        tracer.batch("protocol.resp_encode", n, || {
            for _ in 0..REPS {
                for (i, r) in replies.iter().enumerate() {
                    black_box(r.encode_v2(i as u64 + 1));
                }
            }
        });
        tracer.batch("protocol.resp_decode", n, || {
            for _ in 0..REPS {
                for f in &resp_frames {
                    black_box(Response::decode_v2(f).is_ok());
                }
            }
        });
        let framed: Vec<Vec<u8>> = req_frames
            .iter()
            .map(|p| {
                let mut f = (p.len() as u32).to_le_bytes().to_vec();
                f.extend_from_slice(p);
                f
            })
            .collect();
        tracer.batch("protocol.framebuf", n, || {
            let mut fb = FrameBuffer::new();
            for _ in 0..REPS {
                for f in &framed {
                    fb.extend(f);
                    black_box(fb.next_frame().is_ok());
                }
            }
        });
        tracer.batch("service.dispatch", n, || {
            for _ in 0..REPS {
                for r in &s.pool {
                    black_box(core.dispatch(r));
                }
            }
        });
        tracer.batch("service.handle_memo", n, || {
            for _ in 0..REPS {
                for r in &s.pool {
                    black_box(core.handle(r));
                }
            }
        });
        let probe_stats = core.stats_reply();
        checks.ensure(
            probe_stats.get("memo_misses") == Some(s.pool.len() as u64),
            || format!("memo probe missed the memo: {probe_stats:?}"),
        );
        layers.set(
            "protocol.reply_bytes",
            resp_frames.iter().map(|f| f.len() + 4).sum::<usize>() as f64
                / resp_frames.len() as f64,
        );

        // The cache alone, driven directly over the same 16 contracts.
        let store = match ContractStore::open(&s.store_dir) {
            Ok(store) => store,
            Err(e) => return checks.check(Err(format!("open store: {e}"))),
        };
        let cache = ContractCache::new(CacheConfig::default());
        let keys: Vec<Fingerprint> = catalog::contracts()
            .into_iter()
            .map(|(index, level)| {
                let (key, entry) = visit_nf(
                    index,
                    BuildEntry {
                        store: &store,
                        level,
                    },
                );
                cache.insert(key, entry, 1024);
                key
            })
            .collect();
        tracer.batch("cache.lookup", keys.len() as u32 * 3 * REPS, || {
            for _ in 0..3 * REPS {
                for k in &keys {
                    black_box(cache.lookup(*k).is_some());
                }
            }
        });

        for (metric, span) in [
            ("protocol.req_encode_ns", "protocol.req_encode"),
            ("protocol.req_decode_ns", "protocol.req_decode"),
            ("protocol.resp_encode_ns", "protocol.resp_encode"),
            ("protocol.resp_decode_ns", "protocol.resp_decode"),
            ("protocol.framebuf_ns", "protocol.framebuf"),
            ("service.dispatch_ns", "service.dispatch"),
            ("service.handle_memo_ns", "service.handle_memo"),
            ("cache.lookup_ns", "cache.lookup"),
        ] {
            layers.set(metric, tracer.mean_ns(span));
        }
        let memo_ns = tracer.mean_ns("service.handle_memo");
        if memo_ns > 0.0 {
            layers.set("service.inproc_ops_per_s", 1e9 / memo_ns);
        }

        // What is left is the server: sockets, `poll`, wake-ups. Both
        // ends frame and unframe each message, so the frame buffer
        // counts twice.
        let layer_us = [
            "protocol.req_encode",
            "protocol.req_decode",
            "protocol.resp_encode",
            "protocol.resp_decode",
            "protocol.framebuf",
            "protocol.framebuf",
            "service.dispatch",
            "service.handle_memo",
        ]
        .iter()
        .map(|n| tracer.mean_ns(n))
        .sum::<f64>()
            / 1e3;
        layers.set("server.residual_d1_us", rtt_p50_us - layer_us);
        if warm_ops > 0.0 {
            layers.set("server.residual_d8_us", 1e6 / warm_ops - layer_us);
        }
        if layer_us > 0.0 {
            layers.set("service.predicted_ops_per_s", 1e6 / layer_us);
        }
        if rtt_p50_us > 0.0 {
            layers.set("ledger.accounted_pct", layer_us / rtt_p50_us * 100.0);
        }
        println!(
            "   depth-1 round trip p50 {rtt_p50_us:.2} us = {layer_us:.2} us in the measured layers \
             + {:.2} us in sockets, poll and wake-ups; depth-8 {warm_ops:.0} replies/s against \
             {:.0}/s if the sockets were free",
            rtt_p50_us - layer_us,
            1e6 / layer_us.max(f64::MIN_POSITIVE)
        );
    }

    fn teardown(mut self) {
        self.0.teardown();
    }
}

/// The churning serving path.
pub struct ServeChurn(Serve);

impl Workload for ServeChurn {
    fn setup(cfg: &RunConfig, dir: &Path, checks: &mut Checks) -> Result<Self, String> {
        Serve::setup(Mode::Churn, cfg, dir, checks).map(ServeChurn)
    }

    fn measure(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd {
        let windows = self.0.pipelined(
            None,
            seconds,
            checks,
            Sink::new(cfg, true),
            &mut Tracer::disabled(),
        );
        EndToEnd::from_windows(
            "one reply (one connection at depth 8; latency: submit to receive)",
            &windows,
        )
    }

    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        let s = &mut self.0;
        let before = s.stats();
        let (sys0, ctx0) = (sys::rw_syscalls(), sys::context_switches());
        let u = s.pipelined(
            None,
            cfg.seconds * 0.3,
            checks,
            Sink::new(cfg, true),
            &mut Tracer::disabled(),
        );
        let (sys1, ctx1) = (sys::rw_syscalls(), sys::context_switches());
        let after = s.stats();
        let churn_ops = stats::median(&u.rates);
        let untraced_p50_us = stats::median(&u.p50_us);
        let replies = u.completed.max(1) as f64;
        layers.set("client.op_p90_us", stats::median(&u.p90_us));
        layers.set("client.churn_p99_us", stats::median(&u.p99_us));
        layers.set("server.rw_syscalls_per_op", (sys1 - sys0) as f64 / replies);
        layers.set("server.ctx_switches_per_op", (ctx1 - ctx0) as f64 / replies);
        Serve::cache_counters(&before, &after, layers);

        let windows = (cfg.seconds * TRACED_WINDOWS_PER_SECOND / 10.0).ceil() as usize;
        let t = s.pipelined(Some(windows), 0.0, checks, Sink::new(cfg, true), tracer);
        if untraced_p50_us > 0.0 {
            layers.set(
                "ledger.trace_overhead_pct",
                (stats::median(&t.p50_us) - untraced_p50_us) / untraced_p50_us * 100.0,
            );
        }
        s.phase_p50s(layers);

        // The service layer driven directly, one request kind at a time.
        // Hot contract, fresh binding: a memo miss on a cached contract.
        let hot = match s.probe_core(CacheConfig::default()) {
            Ok(core) => core,
            Err(e) => return checks.check(Err(e)),
        };
        let stateful: Vec<usize> = (0..s.infos.len())
            .filter(|&i| !s.infos[i].pcvs.is_empty())
            .collect();
        let mut rng = s.rng.clone();
        for &i in &stateful {
            hot.handle(&Request::Query(seeded_query(&mut rng, &s.infos[i], false)));
        }
        for round in 0..40u64 {
            for &i in &stateful {
                let mut q = seeded_query(&mut rng, &s.infos[i], false);
                // Bindings no earlier request used, so the memo misses.
                q.pcvs = s.infos[i]
                    .pcvs
                    .iter()
                    .map(|n| (n.clone(), 1_000 + round))
                    .collect();
                let req = Request::Query(q);
                let resp = tracer.time("service.handle_miss", || hot.handle(&req));
                checks.ensure(matches!(resp, Response::Query(_)), || {
                    format!("{req:?}: {resp:?}")
                });
            }
        }
        // A one-byte budget keeps only the newest contract, so walking
        // the catalog makes every query load: get, decode, generate.
        let cold = match s.probe_core(CacheConfig {
            budget: 1,
            ..CacheConfig::default()
        }) {
            Ok(core) => core,
            Err(e) => return checks.check(Err(e)),
        };
        for _ in 0..10 {
            for info in &s.infos {
                let req = Request::Query(seeded_query(&mut rng, info, false));
                let resp = tracer.time("service.handle_load", || cold.handle(&req));
                checks.ensure(matches!(resp, Response::Query(_)), || {
                    format!("{req:?}: {resp:?}")
                });
            }
        }
        let cold_stats = cold.stats_reply();
        checks.ensure(cold_stats.get("cache_hits") == Some(0), || {
            format!("load probe hit the cache: {cold_stats:?}")
        });
        for (idx, req) in s.pool.iter().enumerate().take(1024) {
            let span = match req {
                Request::Diff(_) => "service.diff",
                Request::List => "service.list",
                Request::Provenance { .. } => "service.provenance",
                _ => continue,
            };
            let resp = tracer.time(span, || hot.handle(req));
            checks.ensure(normalise(resp) == s.reference[idx], || {
                format!("{req:?}: probe core disagrees with the reference")
            });
        }

        // Cache insertion under a budget that forces an eviction each
        // time, over entries decoded beforehand.
        let store = match ContractStore::open(&s.store_dir) {
            Ok(store) => store,
            Err(e) => return checks.check(Err(format!("open store: {e}"))),
        };
        let mut entries = Vec::new();
        for round in 0..4u128 {
            for (index, level) in catalog::contracts() {
                let (key, entry) = visit_nf(
                    index,
                    BuildEntry {
                        store: &store,
                        level,
                    },
                );
                entries.push((Fingerprint(key.0 ^ round), entry));
            }
        }
        let cache = ContractCache::new(CacheConfig {
            budget: 4 * 1024,
            ..CacheConfig::default()
        });
        let n = entries.len();
        let mut evicted = 0usize;
        tracer.batch("cache.insert_evict", n as u32, || {
            for (key, entry) in entries {
                evicted += cache.insert(key, entry, 1024).1.len();
            }
        });
        checks.ensure(evicted == n - 4, || {
            format!("{n} inserts under a 4-entry budget evicted {evicted}")
        });

        for (metric, span) in [
            ("service.handle_miss_us", "service.handle_miss"),
            ("service.handle_load_us", "service.handle_load"),
            ("service.diff_us", "service.diff"),
            ("service.list_us", "service.list"),
            ("service.provenance_us", "service.provenance"),
        ] {
            layers.set(metric, tracer.mean_ns(span) / 1e3);
        }
        layers.set(
            "cache.insert_evict_ns",
            tracer.mean_ns("cache.insert_evict"),
        );

        // One handler thread serialises the load path, so the rate should
        // be about one over the mix-weighted service time.
        let miss = 1.0 - layers.get("cache.hit_ratio");
        let load = layers.get("service.handle_load_us");
        let hot_query = layers.get("service.handle_miss_us");
        let per_op_us = 0.80 * (miss * load + (1.0 - miss) * hot_query)
            + 0.10 * (layers.get("service.diff_us") + 2.0 * miss * load)
            + 0.05 * layers.get("service.list_us")
            + 0.05 * layers.get("service.provenance_us");
        if per_op_us > 0.0 && churn_ops > 0.0 {
            layers.set("service.predicted_ops_per_s", 1e6 / per_op_us);
            layers.set("server.residual_d8_us", 1e6 / churn_ops - per_op_us);
            layers.set(
                "ledger.accounted_pct",
                per_op_us / (1e6 / churn_ops) * 100.0,
            );
            println!(
                "   churn: measured {churn_ops:.0} replies/s; the mix-weighted service time \
                 {per_op_us:.2} us predicts {:.0}/s (cache miss share {miss:.3})",
                1e6 / per_op_us
            );
        }
    }

    fn teardown(mut self) {
        self.0.teardown();
    }
}
