//! `bolt` — the contract store as a command-line artifact pipeline.
//!
//! Contracts are compile-once/query-forever artifacts: `explore` derives
//! and persists them, `list` inspects the store, `query` answers
//! performance questions from stored records (warm runs never touch the
//! solver), and `diff` compares two contracts (a read, like `query`).
//!
//! ```text
//! cargo run --release --example bolt_cli -- explore --all
//! cargo run --release --example bolt_cli -- list
//! cargo run --release --example bolt_cli -- query --nf bridge --pcv e=16 --pcv t=4
//! cargo run --release --example bolt_cli -- chain --nfs firewall,static_router --tag no-options
//! cargo run --release --example bolt_cli -- diff --a firewall --b static_router
//! cargo run --release --example bolt_cli -- evict --nf bridge --level nf-only
//! ```
//!
//! The store directory comes from `--store DIR`, else `BOLT_STORE_DIR`,
//! else `.bolt-store`.
//!
//! Long-lived serving: `serve` keeps the store open and contracts hot in
//! memory behind a framed socket protocol; `--remote ENDPOINT` routes
//! `query`/`diff`/`list`/`provenance`/`stats`/`shutdown` to such a
//! server instead of opening the store in-process — with byte-identical
//! output, since either way the text printed is a `bolt_serve::ServeCore`
//! reply:
//!
//! ```text
//! cargo run --release --example bolt_cli -- serve --socket /tmp/bolt.sock &
//! cargo run --release --example bolt_cli -- query --nf bridge --remote /tmp/bolt.sock
//! cargo run --release --example bolt_cli -- shutdown --remote /tmp/bolt.sock
//! ```

use std::process::exit;

use bolt::core::store::{level_from_name, level_name, level_tag, RecordKind};
use bolt::core::{ClassSpec, InputClass, Pipeline};
use bolt::expr::PcvAssignment;
use bolt::see::StackLevel;
use bolt::serve::{
    nf_by_name, CacheConfig, Client, DiffRequest, Endpoint, MetricsReply, QueryReply, QueryRequest,
    Request, Response, ServeCore, Server, NF_NAMES,
};
use bolt::trace::Metric;
use bolt::ContractStore;

fn die(msg: &str) -> ! {
    eprintln!("bolt: {msg}");
    exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: bolt_cli <command> [options]\n\
         \n\
         commands:\n\
         \x20 explore  --nf NAME | --all   [--level nf-only|full-stack|both] [--threads N] [--store DIR]\n\
         \x20 list     [--store DIR | --remote EP]\n\
         \x20 query    --nf NAME [--level L] [--metric M] [--pcv name=val]... [--tag TAG] [--store DIR | --remote EP]\n\
         \x20          [--depth N] [--repeat N]   (remote only: pipeline window, default 8; N queries on one connection)\n\
         \x20 chain    --nfs A,B[,C...] [--level L] [--metric M] [--tag TAG] [--threads N]\n\
         \x20          [--parallelize] [--plan] [--json] [--store DIR]\n\
         \x20 diff     --a NF[:LEVEL] --b NF[:LEVEL] [--metric M] [--store DIR | --remote EP]\n\
         \x20 evict    --nf NAME [--level L|both] | --budget BYTES   [--store DIR]\n\
         \x20 serve    [--socket PATH] [--tcp ADDR] [--cache-budget BYTES] [--max-conns N]\n\
         \x20          [--idle-timeout SECS] [--deadline SECS] [--metrics-text PATH] [--store DIR]\n\
         \x20 provenance --nf NAME [--level L] [--store DIR | --remote EP]\n\
         \x20 ping     --remote EP [--timeout SECS]   (exit 0 = alive, 1 = not)\n\
         \x20 stats    --remote EP [--histograms | --json]\n\
         \x20 shutdown --remote EP\n\
         \n\
         NAME   ∈ {{{}}}\n\
         LEVEL  ∈ {{nf-only, full-stack}} (default: full-stack)\n\
         M      ∈ {{instructions, mem-accesses, cycles}} (default: instructions)\n\
         EP     a unix socket path, or tcp:HOST:PORT\n\
         N      for --threads: explore/compose on N threads (default 1; output is identical at any N)\n\
         store  --store DIR, else $BOLT_STORE_DIR, else .bolt-store\n\
         remote calls honour --timeout SECS as the per-call reply deadline",
        NF_NAMES.join(", ")
    );
    exit(2);
}

fn parse_level(s: &str) -> StackLevel {
    level_from_name(s).unwrap_or_else(|| die(&format!("bad level {s:?} (nf-only | full-stack)")))
}

fn parse_metric(s: &str) -> Metric {
    match s {
        "instructions" | "ic" => Metric::Instructions,
        "mem-accesses" | "ma" => Metric::MemAccesses,
        "cycles" => Metric::Cycles,
        _ => die(&format!(
            "bad metric {s:?} (instructions | mem-accesses | cycles)"
        )),
    }
}

/// Parsed command-line options (a flat bag; each command picks what it
/// needs).
#[derive(Default)]
struct Opts {
    nf: Option<String>,
    nfs: Option<String>,
    all: bool,
    level: Option<String>,
    metric: Option<String>,
    store: Option<String>,
    pcvs: Vec<(String, u64)>,
    tag: Option<String>,
    a: Option<String>,
    b: Option<String>,
    budget: Option<u64>,
    threads: Option<usize>,
    remote: Option<String>,
    socket: Option<String>,
    tcp: Option<String>,
    cache_budget: Option<u64>,
    timeout: Option<u64>,
    depth: Option<u32>,
    repeat: Option<usize>,
    max_conns: Option<usize>,
    idle_timeout: Option<u64>,
    deadline: Option<u64>,
    histograms: bool,
    json: bool,
    metrics_text: Option<String>,
    parallelize: bool,
    plan: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--nf" => o.nf = Some(val("--nf")),
            "--nfs" => o.nfs = Some(val("--nfs")),
            "--all" => o.all = true,
            "--threads" => {
                let v = val("--threads");
                o.threads = Some(
                    v.parse::<usize>()
                        .unwrap_or_else(|_| die(&format!("bad --threads {v:?} (want a count)"))),
                );
            }
            "--level" => o.level = Some(val("--level")),
            "--metric" => o.metric = Some(val("--metric")),
            "--store" => o.store = Some(val("--store")),
            "--tag" => o.tag = Some(val("--tag")),
            "--a" => o.a = Some(val("--a")),
            "--b" => o.b = Some(val("--b")),
            "--budget" => {
                let v = val("--budget");
                o.budget = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| die(&format!("bad --budget {v:?} (want bytes)"))),
                );
            }
            "--remote" => o.remote = Some(val("--remote")),
            "--histograms" => o.histograms = true,
            "--json" => o.json = true,
            "--parallelize" => o.parallelize = true,
            "--plan" => o.plan = true,
            "--metrics-text" => o.metrics_text = Some(val("--metrics-text")),
            "--socket" => o.socket = Some(val("--socket")),
            "--tcp" => o.tcp = Some(val("--tcp")),
            "--cache-budget" => {
                let v = val("--cache-budget");
                o.cache_budget =
                    Some(v.parse::<u64>().unwrap_or_else(|_| {
                        die(&format!("bad --cache-budget {v:?} (want bytes)"))
                    }));
            }
            "--timeout" => {
                let v = val("--timeout");
                o.timeout = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| die(&format!("bad --timeout {v:?} (want seconds)"))),
                );
            }
            "--depth" => {
                let v = val("--depth");
                o.depth = Some(v.parse::<u32>().unwrap_or_else(|_| {
                    die(&format!("bad --depth {v:?} (want a pipeline window ≥ 1)"))
                }));
            }
            "--repeat" => {
                let v = val("--repeat");
                o.repeat = Some(
                    v.parse::<usize>()
                        .unwrap_or_else(|_| die(&format!("bad --repeat {v:?} (want a count)"))),
                );
            }
            "--max-conns" => {
                let v = val("--max-conns");
                o.max_conns = Some(v.parse::<usize>().unwrap_or_else(|_| {
                    die(&format!(
                        "bad --max-conns {v:?} (want a count; 0 = unlimited)"
                    ))
                }));
            }
            "--idle-timeout" => {
                let v = val("--idle-timeout");
                o.idle_timeout =
                    Some(v.parse::<u64>().unwrap_or_else(|_| {
                        die(&format!("bad --idle-timeout {v:?} (want seconds)"))
                    }));
            }
            "--deadline" => {
                let v = val("--deadline");
                o.deadline = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| die(&format!("bad --deadline {v:?} (want seconds)"))),
                );
            }
            "--pcv" => {
                let kv = val("--pcv");
                let (name, v) = kv
                    .split_once('=')
                    .unwrap_or_else(|| die(&format!("bad --pcv {kv:?} (want name=value)")));
                let v = v
                    .parse::<u64>()
                    .unwrap_or_else(|_| die(&format!("bad PCV value in {kv:?}")));
                o.pcvs.push((name.to_string(), v));
            }
            other => die(&format!("unknown option {other:?}")),
        }
    }
    o
}

fn open_store(o: &Opts) -> ContractStore {
    let dir = o
        .store
        .clone()
        .or_else(|| {
            std::env::var("BOLT_STORE_DIR")
                .ok()
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| ".bolt-store".to_string());
    ContractStore::open(&dir).unwrap_or_else(|e| die(&format!("cannot open store at {dir:?}: {e}")))
}

fn levels_of(o: &Opts) -> Vec<StackLevel> {
    match o.level.as_deref() {
        None | Some("full-stack") => vec![StackLevel::FullStack],
        Some("both") => vec![StackLevel::NfOnly, StackLevel::FullStack],
        Some(l) => vec![parse_level(l)],
    }
}

/// Get-or-explore one NF — the exploration record is what persists;
/// the contract is regenerated from it on every load — and print a
/// one-line summary.
fn explore_one(store: &ContractStore, name: &str, level: StackLevel, threads: usize) {
    let nf = nf_by_name(name).unwrap_or_else(|e| die(&e));
    let key = nf.store_key(level);
    let (contract, cached) = nf.explore_contract(level, Some(store), threads);
    let source = if cached { "warm" } else { "explored" };
    println!(
        "{name:>14} {:>10} {source:>8}  {:>3} paths  key {key}",
        level_name(level),
        contract.paths.len(),
    );
}

fn cmd_explore(o: &Opts) {
    let store = open_store(o);
    let levels = levels_of(o);
    let names: Vec<&str> = if o.all {
        NF_NAMES.to_vec()
    } else {
        match o.nf.as_deref() {
            Some(n) => vec![n],
            None => die("explore needs --nf NAME or --all"),
        }
    };
    for name in names {
        for &level in &levels {
            explore_one(&store, name, level, o.threads.unwrap_or(1));
        }
    }
}

/// Builder for a serving endpoint named by `--remote`, honouring
/// `--timeout SECS` as the per-call reply deadline and `--depth N` as
/// the pipeline window to negotiate.
fn remote_builder(o: &Opts, ep: &str) -> bolt::serve::ClientBuilder {
    let endpoint = Endpoint::parse(ep).unwrap_or_else(|e| die(&e.to_string()));
    let mut b = Client::builder(&endpoint);
    if let Some(secs) = o.timeout {
        b = b.deadline(std::time::Duration::from_secs(secs.max(1)));
    }
    if let Some(depth) = o.depth {
        b = b.pipeline_depth(depth);
    }
    b
}

/// Connect to a serving endpoint named by `--remote`.
fn remote_client(o: &Opts, ep: &str) -> Client {
    remote_builder(o, ep)
        .build()
        .unwrap_or_else(|e| die(&format!("cannot connect to {ep}: {e}")))
}

/// Answer one request: from the server named by `--remote`, else from
/// a [`ServeCore`] over the opened store — so local and remote output
/// is the same rendering. Failures exit with the service's message.
fn answer(o: &Opts, req: &Request) -> Response {
    match &o.remote {
        Some(ep) => remote_client(o, ep)
            .request(req)
            .unwrap_or_else(|e| die(&e.to_string())),
        None => match ServeCore::new(open_store(o)).handle(req) {
            Response::Error { message } => die(&message),
            reply => reply,
        },
    }
}

/// Print the rendered text of a list/query/diff/provenance reply.
fn print_text(reply: Response) {
    match reply {
        Response::List { text, .. }
        | Response::Diff { text }
        | Response::Provenance { text }
        | Response::Query(QueryReply { text, .. }) => print!("{text}"),
        other => die(&format!("unexpected reply {other:?}")),
    }
}

fn cmd_list(o: &Opts) {
    print_text(answer(o, &Request::List));
}

fn cmd_query(o: &Opts) {
    let name = o.nf.as_deref().unwrap_or_else(|| die("query needs --nf"));
    let metric = parse_metric(o.metric.as_deref().unwrap_or("instructions"));
    let wire = Request::Query(QueryRequest {
        nf: name.to_string(),
        level: level_tag(levels_of(o)[0]),
        metric: metric.index() as u8,
        tag: o.tag.clone(),
        pcvs: o.pcvs.clone(),
    });
    let repeat = o.repeat.unwrap_or(1).max(1);
    let ep = match o.remote.as_deref() {
        Some(ep) if repeat > 1 => ep,
        _ => return print_text(answer(o, &wire)),
    };
    // A pipelined burst on one connection: submit everything up
    // front, then drain the replies in submission order.
    let mut session = remote_builder(o, ep)
        .session()
        .unwrap_or_else(|e| die(&format!("cannot connect to {ep}: {e}")));
    let mut tickets = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        match session.submit(&wire) {
            Ok(t) => tickets.push(t),
            Err(e) => die(&e.to_string()),
        }
    }
    for t in tickets {
        match session.recv(t) {
            Ok(reply) => print_text(reply),
            Err(e) => die(&e.to_string()),
        }
    }
}

fn cmd_diff(o: &Opts) {
    let (Some(a), Some(b)) = (&o.a, &o.b) else {
        die("diff needs --a NF[:LEVEL] and --b NF[:LEVEL]");
    };
    let metric = parse_metric(o.metric.as_deref().unwrap_or("instructions"));
    print_text(answer(
        o,
        &Request::Diff(DiffRequest {
            a: a.clone(),
            b: b.clone(),
            metric: metric.index() as u8,
        }),
    ));
}

/// Compose a named chain through the store: every stage exploration and
/// every pairwise fold step is a content-addressed record, so repeating
/// the command is fully solver-free. Prints the composed contract's
/// provenance (the [`ChainReport`] rendering, or `--json`) and answers
/// one class query against it. `--parallelize` additionally plans the
/// chain — grouping provably-commuting stages — and `--plan` (implies
/// `--parallelize`) prints the per-pair commutativity witnesses.
fn cmd_chain(o: &Opts) {
    let store = open_store(o);
    let spec = o
        .nfs
        .as_deref()
        .unwrap_or_else(|| die("chain needs --nfs A,B[,C...]"));
    if !o.pcvs.is_empty() {
        // Composed contracts drop the per-stage registries, so PCV names
        // cannot be resolved here; failing beats silently ignoring them.
        die(
            "chain queries do not support --pcv (composed contracts have no PCV registry); \
             worst cases are reported at all-zero PCVs",
        );
    }
    let mut chain = Pipeline::new().with_store(&store);
    for name in spec.split(',') {
        chain = chain.push_boxed(nf_by_name(name.trim()).unwrap_or_else(|e| die(&e)));
    }
    let chain = chain.threads(o.threads.unwrap_or(1));
    let metric = parse_metric(o.metric.as_deref().unwrap_or("instructions"));
    for &level in &levels_of(o) {
        let rep = if o.parallelize || o.plan {
            chain.parallelize(level)
        } else {
            chain.report(level)
        }
        .unwrap_or_else(|| die("chain needs at least one NF"));
        if o.json {
            println!("{}", rep.to_json());
            continue;
        }
        println!("{rep}");
        if o.plan {
            if let Some(plan) = rep.plan.as_ref() {
                for w in &plan.witnesses {
                    println!("  witness    : {}", plan.describe_witness(w));
                }
            }
        }
        let class = match &o.tag {
            Some(t) => InputClass::new(
                format!("tag:{t}"),
                ClassSpec::Tag(bolt::store::intern_tag(t)),
            ),
            None => InputClass::unconstrained(),
        };
        let mut contract = rep.contract;
        let solver = bolt::solver::Solver::default();
        let env = PcvAssignment::new();
        match contract.query(&solver, &class, metric, &env) {
            None => println!("  no composed path is compatible with {}", class.name),
            Some(q) => {
                let path = &contract.paths[q.path_index];
                println!(
                    "  class {} / {metric}: worst path #{} tags {:?} -> {} {metric}",
                    class.name, q.path_index, path.tags, q.value
                );
            }
        }
    }
}

fn cmd_evict(o: &Opts) {
    let store = open_store(o);
    if let Some(budget) = o.budget {
        if o.nf.is_some() || o.level.is_some() {
            // The sweep is store-wide LRU; silently ignoring --nf or
            // --level would delete records the user meant to keep.
            die("evict --budget sweeps the whole store; it cannot be combined with --nf/--level");
        }
        // LRU sweep: keep the most recently used records that fit in
        // the byte budget, evict the rest.
        let r = store
            .sweep(budget)
            .unwrap_or_else(|e| die(&format!("sweep failed: {e}")));
        println!(
            "sweep to {budget} bytes: kept {} record(s) ({} bytes), \
             evicted {} ({} bytes reclaimed)",
            r.kept, r.kept_bytes, r.evicted, r.evicted_bytes
        );
        return;
    }
    let name =
        o.nf.as_deref()
            .unwrap_or_else(|| die("evict needs --nf or --budget"));
    let nf = nf_by_name(name).unwrap_or_else(|e| die(&e));
    for &level in &levels_of(o) {
        let key = nf.store_key(level);
        let removed = store
            .evict(key, RecordKind::Exploration)
            .unwrap_or_else(|e| die(&format!("evict failed: {e}")));
        println!(
            "{name} @ {}: {}",
            level_name(level),
            if removed { "evicted" } else { "no record" }
        );
    }
}

/// Run the long-lived contract server until a client asks it to shut
/// down. Defaults to a Unix socket named `bolt.sock` inside the store
/// directory when no endpoint is given.
fn cmd_serve(o: &Opts) {
    let store = open_store(o);
    let core = match o.cache_budget {
        Some(budget) => ServeCore::with_config(store, CacheConfig { budget }),
        None => ServeCore::new(store),
    };
    let default_sock = core.store().dir().join("bolt.sock");
    let store_dir = core.store().dir().to_path_buf();
    let unix = match (&o.socket, &o.tcp) {
        (Some(p), _) => Some(std::path::PathBuf::from(p)),
        (None, None) => Some(default_sock),
        (None, Some(_)) => None,
    };
    let mut builder = Server::builder().max_connections(o.max_conns.unwrap_or(0));
    if let Some(p) = unix {
        builder = builder.unix(p);
    }
    if let Some(t) = &o.tcp {
        builder = builder.tcp(t.clone());
    }
    if let Some(secs) = o.idle_timeout {
        builder = builder.idle_timeout(std::time::Duration::from_secs(secs));
    }
    if let Some(secs) = o.deadline {
        builder = builder.request_deadline(std::time::Duration::from_secs(secs));
    }
    if let Some(depth) = o.depth {
        builder = builder.max_pipeline_depth(depth.max(1));
    }
    if let Some(path) = &o.metrics_text {
        builder = builder.metrics_text(path);
    }
    let server = builder
        .start(core)
        .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
    println!("serving store at {store_dir:?}");
    if let Some(p) = server.unix_path() {
        println!("  unix socket : {}", p.display());
    }
    if let Some(a) = server.tcp_addr() {
        println!("  tcp         : tcp:{a}");
    }
    // The Prometheus textfile exporter now lives in the server itself
    // (`ServerBuilder::metrics_text`): once a second while serving,
    // once more after the drain.
    if let Some(path) = &o.metrics_text {
        println!("  metrics     : {path} (Prometheus text)");
    }
    println!("stop with: bolt_cli shutdown --remote <endpoint>");
    let core = server.join();
    let stats = core.stats_reply();
    let read = |n: &str| stats.get(n).unwrap_or(0);
    println!(
        "server stopped: {} request(s), {} memo hit(s), {} exploration(s), {} eviction(s)",
        read("requests"),
        read("memo_hits"),
        read("explorations"),
        read("evictions"),
    );
}

fn cmd_provenance(o: &Opts) {
    let name =
        o.nf.as_deref()
            .unwrap_or_else(|| die("provenance needs --nf"));
    print_text(answer(
        o,
        &Request::Provenance {
            nf: name.to_string(),
            level: level_tag(levels_of(o)[0]),
        },
    ));
}

/// Liveness probe for health checks and CI readiness loops: exit 0 when
/// the server answers a ping within the deadline (5 s unless `--timeout`
/// says otherwise), exit 1 on *any* failure — never 2, so scripts can
/// tell "server down" from "you typed the command wrong".
fn cmd_ping(o: &Opts) {
    let ep = o
        .remote
        .as_deref()
        .unwrap_or_else(|| die("ping needs --remote ENDPOINT"));
    let endpoint = match Endpoint::parse(ep) {
        Ok(ep) => ep,
        Err(e) => die(&e.to_string()), // malformed spec IS a usage error
    };
    let wait = std::time::Duration::from_secs(o.timeout.unwrap_or(5).max(1));
    let probe = Client::builder(&endpoint)
        .deadline(wait)
        .connect_timeout(wait)
        .retries(0) // a probe reports the truth right now; no masking
        .pipeline_depth(1) // and no negotiation round trip either
        .build();
    match probe.and_then(|mut c| c.ping()) {
        Ok(version) => {
            println!("{ep}: alive (server v{version})");
        }
        Err(e) => {
            eprintln!("bolt: {ep}: {e}");
            exit(1);
        }
    }
}

/// Render nanoseconds for humans: `640ns`, `21.5µs`, `3.2ms`, `1.08s`.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// `hits / (hits + misses)` as a percentage, when anything was counted.
fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| 100.0 * hits as f64 / total as f64)
}

/// The one-snapshot observability view: counters and gauges, derived
/// hit rates, and a percentile table over every latency histogram.
fn print_metrics_table(m: &MetricsReply) {
    println!("counters:");
    for (name, value) in &m.counters {
        println!("  {name:<28} {value}");
    }
    for (name, value) in &m.gauges {
        println!("  {name:<28} {value}  (gauge)");
    }
    let rate_rows = [
        ("contract cache", "serve.cache_hits", "serve.cache_misses"),
        ("query memo", "serve.memo_hits", "serve.memo_misses"),
        ("store records", "store.hits", "store.misses"),
    ];
    println!("hit rates:");
    for (label, h, miss) in rate_rows {
        match hit_rate(m.counter(h).unwrap_or(0), m.counter(miss).unwrap_or(0)) {
            Some(pct) => println!("  {label:<28} {pct:.1}%"),
            None => println!("  {label:<28} -"),
        }
    }
    println!(
        "latency:\n  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "histogram", "count", "p50", "p90", "p99", "max", "mean"
    );
    for (name, h) in &m.histograms {
        println!(
            "  {name:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            h.count,
            fmt_ns(h.p50()),
            fmt_ns(h.p90()),
            fmt_ns(h.p99()),
            fmt_ns(h.max),
            fmt_ns(h.mean() as u64),
        );
    }
}

/// The same snapshot as a JSON object (stable key order: the reply's).
fn metrics_json(m: &MetricsReply) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, v)) in m.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out += &format!("{sep}\n    \"{}\": {v}", esc(name));
    }
    out += "\n  },\n  \"gauges\": {";
    for (i, (name, v)) in m.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out += &format!("{sep}\n    \"{}\": {v}", esc(name));
    }
    out += "\n  },\n  \"histograms\": {";
    for (i, (name, h)) in m.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out += &format!(
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"mean\": {:.1}}}",
            esc(name),
            h.count,
            h.sum,
            h.max,
            h.p50(),
            h.p90(),
            h.p99(),
            h.mean(),
        );
    }
    out += "\n  }\n}\n";
    out
}

fn cmd_stats(o: &Opts) {
    let ep = o
        .remote
        .as_deref()
        .unwrap_or_else(|| die("stats needs --remote ENDPOINT (counters live in the server)"));
    let mut client = remote_client(o, ep);
    if o.histograms || o.json {
        // The full observability snapshot (metrics opcode): counters,
        // gauges, and latency histograms in one consistent reply.
        let m = client.metrics().unwrap_or_else(|e| die(&e.to_string()));
        if o.json {
            print!("{}", metrics_json(&m));
        } else {
            print_metrics_table(&m);
        }
        return;
    }
    match client.stats() {
        Ok(stats) => {
            for (name, value) in &stats.counters {
                println!("{name:>16} : {value}");
            }
        }
        Err(e) => die(&e.to_string()),
    }
}

fn cmd_shutdown(o: &Opts) {
    let ep = o
        .remote
        .as_deref()
        .unwrap_or_else(|| die("shutdown needs --remote ENDPOINT"));
    match remote_client(o, ep).shutdown() {
        Ok(()) => println!("server at {ep} is shutting down"),
        Err(e) => die(&e.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let o = parse_opts(rest);
    match cmd.as_str() {
        "explore" => cmd_explore(&o),
        "list" => cmd_list(&o),
        "query" => cmd_query(&o),
        "chain" => cmd_chain(&o),
        "diff" => cmd_diff(&o),
        "evict" => cmd_evict(&o),
        "serve" => cmd_serve(&o),
        "provenance" => cmd_provenance(&o),
        "ping" => cmd_ping(&o),
        "stats" => cmd_stats(&o),
        "shutdown" => cmd_shutdown(&o),
        _ => usage(),
    }
}
