//! End-to-end protocol tests: concurrent clients get byte-identical
//! answers, warm repeats do zero work, malformed frames never take the
//! server down, shutdown drains in-flight requests, server cache hits
//! keep the on-disk LRU honest, and `diff` renders what an independent
//! reading of the store says and leaves the store's file set alone.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use bolt_core::store::{level_tag, store_key, RecordKind, StoreExt};
use bolt_core::{ClassSpec, InputClass, NetworkFunction};
use bolt_expr::PcvAssignment;
use bolt_nfs::{Bridge, Firewall, StaticRouter};
use bolt_serve::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME};
use bolt_serve::{
    Client, DiffRequest, Endpoint, QueryRequest, ServeCore, Server, StatsReply, LEGACY_STATS_NAMES,
};
use bolt_store::ContractStore;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolt-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open a store pre-warmed with bridge + firewall at nf-only level, so
/// server queries are store hits (the CLI's `(warm)` source), never
/// fresh explorations.
fn warm_store(tag: &str) -> (PathBuf, ContractStore) {
    let dir = temp_dir(tag);
    let store = ContractStore::open(dir.join("store")).unwrap();
    let _ = store.get_or_explore(&Bridge::default(), StackLevel::NfOnly);
    let _ = store.get_or_explore(&Firewall::default(), StackLevel::NfOnly);
    (dir, store)
}

fn reopen(dir: &std::path::Path) -> ContractStore {
    ContractStore::open(dir.join("store")).unwrap()
}

/// Render a query answer from a fresh store handle with rendering
/// code of its own: the one independent pin of the reply text format
/// (the CLI prints `ServeCore` replies, so it cannot pin them). The
/// server's answers must match this byte for byte.
fn cli_query_text<N: NetworkFunction + Sync>(
    store: &ContractStore,
    nf: N,
    level: StackLevel,
    tag: Option<&str>,
    pcvs: &[(&str, u64)],
    metric: Metric,
) -> String {
    let ex = store.get_or_explore(&nf, level);
    let source = if ex.cached { "warm" } else { "explored" };
    let mut contract = ex.contract();
    let mut env = PcvAssignment::new();
    for (name, v) in pcvs {
        let id = contract.reg.pcvs.lookup(name).expect("known PCV");
        env.set(id, *v);
    }
    let class = match tag {
        Some(t) => InputClass::new(
            format!("tag:{t}"),
            ClassSpec::Tag(bolt_store::intern_tag(t)),
        ),
        None => InputClass::unconstrained(),
    };
    let level_name = match level_tag(level) {
        0 => "nf-only",
        _ => "full-stack",
    };
    match contract.query(&class, metric, &env) {
        None => format!(
            "no path of {} is compatible with {}\n",
            nf.name(),
            class.name
        ),
        Some(q) => {
            let path = &contract.paths()[q.path_index];
            format!(
                "{} @ {level_name} ({source}), class {}, metric {metric}:\n  \
                 worst path : #{} tags {:?}\n  \
                 expression : {}\n  \
                 prediction : {} {metric}\n",
                nf.name(),
                class.name,
                q.path_index,
                path.tags,
                contract.display_expr(&q.expr),
                q.value
            )
        }
    }
}

fn start_server(store: ContractStore, dir: &std::path::Path) -> Server {
    Server::builder()
        .unix(dir.join("bolt.sock"))
        .tcp("127.0.0.1:0")
        .start(ServeCore::new(store))
        .unwrap()
}

fn counter(stats: &StatsReply, name: &str) -> u64 {
    stats
        .get(name)
        .unwrap_or_else(|| panic!("no counter {name}"))
}

#[test]
fn concurrent_clients_match_one_shot_cli_queries() {
    let (dir, store) = warm_store("concurrent");
    // The expected answers, rendered the CLI's way from a separate store
    // handle (a one-shot process equivalent).
    let cases = [
        ("bridge", None, Metric::Instructions),
        ("bridge", Some("dst:known"), Metric::Cycles),
        ("firewall", None, Metric::MemAccesses),
    ];
    let expected: Vec<String> = cases
        .iter()
        .map(|(nf, tag, metric)| {
            let s = reopen(&dir);
            match *nf {
                "bridge" => cli_query_text(
                    &s,
                    Bridge::default(),
                    StackLevel::NfOnly,
                    *tag,
                    &[],
                    *metric,
                ),
                _ => cli_query_text(
                    &s,
                    Firewall::default(),
                    StackLevel::NfOnly,
                    *tag,
                    &[],
                    *metric,
                ),
            }
        })
        .collect();

    let server = start_server(store, &dir);
    let tcp = Endpoint::Tcp(server.tcp_addr().unwrap().to_string());
    let unix = Endpoint::Unix(server.unix_path().unwrap().to_path_buf());

    // ≥4 concurrent clients, split across both socket families, each
    // running every case several times.
    let mut handles = Vec::new();
    for i in 0..6 {
        let ep = if i % 2 == 0 {
            tcp.clone()
        } else {
            unix.clone()
        };
        handles.push(std::thread::spawn(move || {
            let mut client = Client::builder(&ep).build().unwrap();
            let mut texts = Vec::new();
            for _round in 0..3 {
                for (nf, tag, metric) in cases {
                    let reply = client
                        .query(QueryRequest {
                            nf: nf.to_string(),
                            level: level_tag(StackLevel::NfOnly),
                            metric: metric.index() as u8,
                            tag: tag.map(str::to_string),
                            pcvs: vec![],
                        })
                        .unwrap();
                    texts.push(reply.text);
                }
            }
            texts
        }));
    }
    for h in handles {
        let texts = h.join().unwrap();
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(
                *text,
                expected[i % cases.len()],
                "server answer diverged from the one-shot CLI rendering"
            );
        }
    }
    server.request_shutdown();
    server.join();
}

#[test]
fn repeated_queries_are_pure_cache_hits() {
    let (dir, store) = warm_store("memo");
    let server = start_server(store, &dir);
    let ep = Endpoint::Unix(server.unix_path().unwrap().to_path_buf());
    let mut client = Client::builder(&ep).build().unwrap();
    let q = QueryRequest {
        nf: "bridge".to_string(),
        level: level_tag(StackLevel::NfOnly),
        metric: Metric::Instructions.index() as u8,
        tag: None,
        pcvs: vec![],
    };
    // First ask: store hit (one record decode), solver runs once.
    let first = client.query(q.clone()).unwrap();
    let before = client.stats().unwrap();
    assert_eq!(counter(&before, "contract_decodes"), 1);
    assert_eq!(counter(&before, "explorations"), 0);
    assert_eq!(counter(&before, "solver_queries"), 1);
    // Repeat: answered from the memo — zero explorations, zero solver
    // requests, zero record decodes.
    let again = client.query(q).unwrap();
    assert_eq!(again, first, "memoised answer must be byte-identical");
    let after = client.stats().unwrap();
    assert_eq!(counter(&after, "explorations"), 0);
    assert_eq!(counter(&after, "solver_queries"), 1);
    assert_eq!(counter(&after, "contract_decodes"), 1);
    assert_eq!(
        counter(&after, "memo_hits"),
        counter(&before, "memo_hits") + 1
    );
    assert_eq!(
        counter(&after, "memo_misses"),
        counter(&before, "memo_misses")
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn metrics_snapshot_spans_every_layer_over_the_socket() {
    let (dir, store) = warm_store("metrics");
    let server = start_server(store, &dir);
    let ep = Endpoint::Unix(server.unix_path().unwrap().to_path_buf());
    // Depth 1 skips Hello entirely, so the per-phase counts below are
    // exactly one per request frame.
    let mut client = Client::builder(&ep).pipeline_depth(1).build().unwrap();
    client.ping().unwrap();
    let q = QueryRequest {
        nf: "bridge".to_string(),
        level: level_tag(StackLevel::NfOnly),
        metric: Metric::Instructions.index() as u8,
        tag: None,
        pcvs: vec![],
    };
    client.query(q.clone()).unwrap();
    client.query(q).unwrap();
    let m = client.metrics().unwrap();

    // Serve layer: counters and per-opcode latency histograms. The
    // metrics request itself is mid-handle when the snapshot is taken,
    // so `serve.requests` includes it but its histograms do not yet.
    assert_eq!(
        m.counter("serve.requests"),
        Some(4),
        "ping + 2 queries + metrics"
    );
    assert_eq!(m.counter("serve.queries"), Some(2));
    assert_eq!(m.counter("serve.memo_hits"), Some(1));
    assert_eq!(m.counter("serve.contract_decodes"), Some(1));
    assert_eq!(
        m.counter("serve.explorations"),
        Some(0),
        "store was pre-warmed"
    );
    let hq = m.histogram("serve.req.query").expect("query histogram");
    assert_eq!(hq.count, 2);
    assert!(
        hq.p50() > 0 && hq.max > 0,
        "latencies are non-zero nanoseconds"
    );
    assert_eq!(m.histogram("serve.req.ping").unwrap().count, 1);

    // Phase histograms: one read per frame (the metrics frame's read
    // phase lands before its handle), one handle/write per answered
    // request so far.
    assert_eq!(m.histogram("serve.phase.read").unwrap().count, 4);
    assert_eq!(m.histogram("serve.phase.handle").unwrap().count, 3);
    assert_eq!(m.histogram("serve.phase.write").unwrap().count, 3);

    // Store layer, in the same snapshot: the warm query decoded one
    // record (a store hit + a timed get + a timed decode).
    assert!(m.counter("store.hits").unwrap() >= 1);
    assert_eq!(m.histogram("store.decode").unwrap().count, 1);
    assert!(m.histogram("store.get").unwrap().count >= 1);

    // The live-connection gauge sees this client.
    assert_eq!(
        m.gauges
            .iter()
            .find(|(n, _)| n == "serve.active_connections"),
        Some(&("serve.active_connections".to_string(), 1))
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn stats_reply_keeps_the_legacy_prefix_order() {
    let (_dir, store) = warm_store("statsorder");
    let stats = ServeCore::new(store).stats_reply();
    let names: Vec<&str> = stats.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        &names[..LEGACY_STATS_NAMES.len()],
        &LEGACY_STATS_NAMES,
        "the first 17 stats counters are a frozen wire prefix"
    );
    assert_eq!(
        &names[LEGACY_STATS_NAMES.len()..],
        &[
            "store_hits",
            "store_misses",
            "active_connections",
            "trace_events"
        ],
        "new counters are only ever appended"
    );
}

#[test]
fn malformed_frames_do_not_kill_the_server() {
    let (dir, store) = warm_store("malformed");
    let server = start_server(store, &dir);
    let addr = server.tcp_addr().unwrap();

    // Undecodable bodies: the connection gets an error frame and stays
    // usable.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut raw, payload).unwrap();
        Response::decode_v2(&read_frame(&mut raw).unwrap().unwrap()).unwrap()
    };
    for (bad, corr) in [
        (vec![], 0),                       // empty payload
        (vec![2, 0xEE, 3], 3),             // unknown opcode
        (vec![99, 1, 3], 0),               // wrong protocol version
        (vec![2, 2, 3, 5, b'h', b'i'], 3), // truncated query body
    ] {
        // The error names the request it answers wherever the frame
        // got far enough to carry a correlation id.
        let reply = exchange(&bad);
        assert!(
            matches!(&reply, (c, Response::Error { .. }) if *c == corr),
            "got {reply:?}"
        );
    }
    // Same connection still answers a valid request.
    let pong = exchange(&Request::Ping.encode_v2(4));
    assert!(matches!(pong, (4, Response::Pong { .. })));

    // An oversized length prefix poisons stream sync: error frame, then
    // the connection closes — but only that connection.
    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    let reply = Response::decode_v2(&read_frame(&mut hostile).unwrap().unwrap()).unwrap();
    assert!(matches!(reply, (0, Response::Error { .. })));
    let mut probe = [0u8; 1];
    assert_eq!(hostile.read(&mut probe).unwrap(), 0, "connection closed");

    // A service-level error (unknown NF) is an error frame, not a crash.
    let mut client = Client::builder(&Endpoint::Tcp(addr.to_string()))
        .build()
        .unwrap();
    let err = client
        .query(QueryRequest {
            nf: "tor".to_string(),
            level: 0,
            metric: 0,
            tag: None,
            pcvs: vec![],
        })
        .unwrap_err();
    assert!(err.to_string().contains("unknown NF"), "got {err}");
    let err = client
        .query(QueryRequest {
            nf: "bridge".to_string(),
            level: 0,
            metric: 0,
            tag: None,
            pcvs: vec![("no-such-pcv".to_string(), 1)],
        })
        .unwrap_err();
    assert!(err.to_string().contains("unknown PCV"), "got {err}");

    // The server survived everything above.
    assert!(client.ping().is_ok());
    let stats = client.stats().unwrap();
    assert!(counter(&stats, "protocol_errors") >= 5);
    server.request_shutdown();
    server.join();
}

#[test]
fn shutdown_drains_requests_received_before_the_flag() {
    let (dir, store) = warm_store("drain");
    let server = start_server(store, &dir);
    let sock = server.unix_path().unwrap().to_path_buf();
    let q = Request::Query(QueryRequest {
        nf: "firewall".to_string(),
        level: level_tag(StackLevel::NfOnly),
        metric: Metric::Instructions.index() as u8,
        tag: None,
        pcvs: vec![],
    });
    // Four clients write a query each but do not read yet.
    let mut pending: Vec<UnixStream> = (0..4)
        .map(|_| {
            let mut s = UnixStream::connect(&sock).unwrap();
            write_frame(&mut s, &q.encode_v2(1)).unwrap();
            s
        })
        .collect();
    // Give the frames time to reach the per-connection threads, then
    // ask for shutdown.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut killer = Client::builder(&Endpoint::Unix(sock)).build().unwrap();
    killer.shutdown().unwrap();
    // Every request written before the shutdown still gets its answer,
    // and all answers agree.
    let mut texts = Vec::new();
    for s in &mut pending {
        let payload = read_frame(s).unwrap().expect("drained reply");
        match Response::decode_v2(&payload).unwrap() {
            (1, Response::Query(r)) => texts.push(r.text),
            other => panic!("expected a query reply, got {other:?}"),
        }
    }
    assert!(texts.windows(2).all(|w| w[0] == w[1]));
    server.join();
}

#[test]
fn server_cache_hits_keep_the_store_lru_honest() {
    let (dir, store) = warm_store("coherence");
    let hot_key = store_key(&Firewall::default(), StackLevel::NfOnly);
    let cold_key = store_key(&Bridge::default(), StackLevel::NfOnly);
    let core = ServeCore::new(store);
    let ask = |nf: &str| {
        core.query(&QueryRequest {
            nf: nf.to_string(),
            level: level_tag(StackLevel::NfOnly),
            metric: 0,
            tag: None,
            pcvs: vec![],
        })
        .unwrap()
    };
    // Load bridge last so its *store get* stamp is newer than
    // firewall's...
    ask("firewall");
    ask("bridge");
    // Each reloaded entry weighs what its record occupies on disk, as
    // the store read that decoded it measured (no second header read).
    assert_weighs_its_record(&core, "firewall", hot_key);
    assert_weighs_its_record(&core, "bridge", cold_key);
    let stamp = |key| {
        core.store()
            .header(key, RecordKind::Exploration)
            .unwrap()
            .last_used
    };
    assert!(stamp(cold_key) > stamp(hot_key));
    // ...then keep firewall hot purely through server cache hits. The
    // touches must swing the on-disk MRU order back to firewall.
    ask("firewall");
    ask("firewall");
    core.flush_touches();
    assert!(
        stamp(hot_key) > stamp(cold_key),
        "cache hits must bump on-disk last-used stamps"
    );
    // An LRU sweep with room for one exploration record now agrees with
    // the server about which contract is hot.
    let hot_bytes = {
        let h = core
            .store()
            .header(hot_key, RecordKind::Exploration)
            .unwrap();
        h.header_len + h.payload_len
    };
    let report = core.store().sweep(hot_bytes).unwrap();
    assert!(report.evicted >= 1);
    assert!(
        core.store()
            .header(hot_key, RecordKind::Exploration)
            .is_some(),
        "the server-hot record must survive the sweep"
    );
    assert!(
        core.store()
            .header(cold_key, RecordKind::Exploration)
            .is_none(),
        "the server-cold record is the LRU victim"
    );
    // A contract explored on a miss weighs the record its write made.
    ask("static_router");
    assert_weighs_its_record(
        &core,
        "static_router",
        store_key(&StaticRouter::default(), StackLevel::NfOnly),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache entry for `nf` at nf-only level is hot and weighs exactly
/// its exploration record's `header_len + payload_len`.
fn assert_weighs_its_record(core: &ServeCore, nf: &str, key: bolt_store::Fingerprint) {
    let h = core
        .store()
        .header(key, RecordKind::Exploration)
        .expect("the record is on disk");
    let text = core.provenance(nf, level_tag(StackLevel::NfOnly)).unwrap();
    let hot = format!("hot ({} bytes,", h.header_len + h.payload_len);
    assert!(text.contains(&hot), "{nf}: want `{hot}` in\n{text}");
}

fn diff_of(a: &str, b: &str, metric: Metric) -> DiffRequest {
    DiffRequest {
        a: a.to_string(),
        b: b.to_string(),
        metric: metric.index() as u8,
    }
}

/// One side of a diff, read from a fresh store handle with code of its
/// own: path count, worst case at all-zero PCVs, tag vocabulary.
fn diff_side<N: NetworkFunction + Sync>(
    store: &ContractStore,
    nf: N,
    level: StackLevel,
    metric: Metric,
) -> (usize, u64, std::collections::BTreeSet<&'static str>) {
    let contract = store.get_or_explore(&nf, level).contract();
    let env = PcvAssignment::new();
    let worst = contract
        .paths()
        .iter()
        .map(|p| p.expr(metric).eval(&env))
        .max()
        .unwrap();
    let tags = contract
        .paths()
        .iter()
        .flat_map(|p| p.tags.iter().copied())
        .collect();
    (contract.paths().len(), worst, tags)
}

#[test]
fn diff_renders_two_contracts_and_one_against_itself() {
    let (dir, store) = warm_store("difftext");
    let metric = Metric::Instructions;
    let s = reopen(&dir);
    let (na, wa, ta) = diff_side(&s, Bridge::default(), StackLevel::NfOnly, metric);
    let (nb, wb, tb) = diff_side(&s, Firewall::default(), StackLevel::NfOnly, metric);
    let only_a: Vec<&str> = ta.difference(&tb).copied().collect();
    let only_b: Vec<&str> = tb.difference(&ta).copied().collect();
    assert!(!only_a.is_empty() && !only_b.is_empty());
    assert_ne!(wa, wb);

    let core = ServeCore::new(store);
    let (a, b) = ("bridge:nf-only", "firewall:nf-only");
    assert_eq!(
        core.diff(&diff_of(a, b, metric)).unwrap(),
        format!(
            "diff {a} vs {b} ({metric}, PCVs all 0):\n  \
             paths      : {na} vs {nb}\n  \
             worst case : {wa} vs {wb} ({:+})\n  \
             tags only in {a}: {only_a:?}\n  \
             tags only in {b}: {only_b:?}\n",
            wb as i128 - wa as i128
        )
    );
    // Both sides name one cache entry: one lock, taken once.
    assert_eq!(
        core.diff(&diff_of(a, a, metric)).unwrap(),
        format!(
            "diff {a} vs {a} ({metric}, PCVs all 0):\n  \
             paths      : {na} vs {na}\n  \
             worst case : {wa} vs {wa} (+0)\n  \
             tag vocabularies agree\n"
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_sides_parse_nf_and_level_and_reject_bad_ones() {
    let (dir, store) = warm_store("diffparse");
    let core = ServeCore::new(store);
    let metric = Metric::Instructions;
    // A bare name means full-stack; the level changes the answer.
    let bare = core.diff(&diff_of("firewall", "firewall:nf-only", metric));
    let full = core.diff(&diff_of("firewall:full-stack", "firewall:nf-only", metric));
    let body = |text: String| text.split_once('\n').unwrap().1.to_string();
    assert_eq!(body(bare.unwrap()), body(full.clone().unwrap()));
    let (full_worst, nf_worst) = {
        let s = reopen(&dir);
        let fw = Firewall::default;
        (
            diff_side(&s, fw(), StackLevel::FullStack, metric).1,
            diff_side(&s, fw(), StackLevel::NfOnly, metric).1,
        )
    };
    assert!(full_worst > nf_worst);
    assert!(full
        .unwrap()
        .contains(&format!("worst case : {full_worst} vs {nf_worst} (")));

    let err = core
        .diff(&diff_of("firewall:kernel", "firewall", metric))
        .unwrap_err();
    assert_eq!(err, "bad level \"kernel\" (nf-only | full-stack)");
    let err = core
        .diff(&diff_of("firewall:nf-only", "tor:nf-only", metric))
        .unwrap_err();
    assert!(
        err.starts_with("unknown NF \"tor\"; known: bridge, "),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store directory as `ls` would show it: sorted (name, length).
fn store_files(dir: &std::path::Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir.join("store"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn diff_is_a_read_locally_and_over_the_socket() {
    let (dir, store) = warm_store("diffpure");
    let d = diff_of("bridge:nf-only", "firewall:nf-only", Metric::Cycles);
    let before = store_files(&dir);
    assert_eq!(before.len(), 2, "one exploration record per warmed NF");

    let local = ServeCore::new(store).diff(&d).unwrap();
    assert_eq!(store_files(&dir), before, "a local diff leaves no trace");

    let server = start_server(reopen(&dir), &dir);
    let ep = Endpoint::Unix(server.unix_path().unwrap().to_path_buf());
    let remote = Client::builder(&ep).build().unwrap().diff(d).unwrap();
    assert_eq!(remote, local);
    assert_eq!(store_files(&dir), before, "a served diff leaves no trace");
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
