//! Failure-path tests for the serve layer: endpoint validation, client
//! behaviour when the server dies mid-request, reconnect-and-retry
//! across a restart (including stale-socket reclaim), the connection
//! cap, the idle reaper, the request deadline, and a seeded transport
//! fault storm that must still converge to byte-identical answers.

#![cfg(unix)]

use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bolt_core::store::{level_tag, StoreExt};
use bolt_core::{InputClass, NetworkFunction};
use bolt_expr::PcvAssignment;
use bolt_nfs::Bridge;
use bolt_serve::protocol::{read_frame, write_frame};
use bolt_serve::{
    Client, ClientConfig, Endpoint, QueryRequest, Request, ServeCore, ServeError, Server,
};
use bolt_store::ContractStore;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolt-fault-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Store pre-warmed with the bridge so server queries are store hits.
fn warm_store(tag: &str) -> (PathBuf, ContractStore) {
    let dir = temp_dir(tag);
    let store = ContractStore::open(dir.join("store")).unwrap();
    let _ = store.get_or_explore(&Bridge::default(), StackLevel::NfOnly);
    (dir, store)
}

/// The query every test sends, and the answer rendered the CLI's way
/// from an independent store handle — the byte-identical oracle.
fn bridge_query() -> QueryRequest {
    QueryRequest {
        nf: "bridge".into(),
        level: level_tag(StackLevel::NfOnly),
        metric: 0,
        tag: None,
        pcvs: vec![],
    }
}

fn bridge_diff() -> bolt_serve::DiffRequest {
    bolt_serve::DiffRequest {
        a: "bridge:nf-only".into(),
        b: "bridge:nf-only".into(),
        metric: 0,
    }
}

fn expected_bridge_text(dir: &std::path::Path) -> String {
    let store = ContractStore::open(dir.join("store")).unwrap();
    let nf = Bridge::default();
    let ex = store.get_or_explore(&nf, StackLevel::NfOnly);
    assert!(ex.cached, "oracle must read the pre-warmed record");
    let mut contract = ex.contract();
    let class = InputClass::unconstrained();
    let env = PcvAssignment::new();
    let q = contract
        .query(&class, Metric::Instructions, &env)
        .expect("bridge has paths");
    let path = &contract.paths()[q.path_index];
    format!(
        "{} @ nf-only (warm), class {}, metric {}:\n  \
         worst path : #{} tags {:?}\n  \
         expression : {}\n  \
         prediction : {} {}\n",
        nf.name(),
        class.name,
        Metric::Instructions,
        q.path_index,
        path.tags,
        contract.display_expr(&q.expr),
        q.value,
        Metric::Instructions
    )
}

fn fast_retry_config() -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(30),
        retries: 5,
        backoff: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        // This suite runs at window 1 (no `Hello`); the pipelining
        // suite covers negotiated windows.
        pipeline_depth: 1,
        ..ClientConfig::default()
    }
}

#[test]
fn endpoint_parse_rejects_garbage_and_round_trips() {
    for bad in [
        "",
        "   ",
        "tcp:",
        "tcp:127.0.0.1", // no port
        "tcp::8080",     // empty host
        "tcp:host:notaport",
        "tcp:host:99999", // port > u16
        "tcp:::1:8080",   // unbracketed IPv6: ambiguous, must be [::1]
        "tcp:[::1]",      // bracketed host, no port
        "tcp:[::1:9",     // unclosed bracket
        "tcp:[]:9",       // empty bracketed host
        "tcp:[::1]9",     // missing ':' between bracket and port
    ] {
        assert!(Endpoint::parse(bad).is_err(), "{bad:?} must not parse");
    }
    for good in [
        "tcp:127.0.0.1:8080",
        "tcp:[::1]:9",
        "tcp:[2001:db8::1]:443",
        "tcp:example.com:443",
        "/tmp/bolt.sock",
        "relative/path.sock",
    ] {
        let ep = Endpoint::parse(good).unwrap();
        // Display must round-trip through parse to the same endpoint.
        assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep, "{good:?}");
    }
    // Whitespace-padded specs trim to the same endpoint.
    assert_eq!(
        Endpoint::parse("  /tmp/a.sock  ").unwrap(),
        Endpoint::parse("/tmp/a.sock").unwrap()
    );
    assert_eq!(Endpoint::parse("tcp:h:1").unwrap().to_string(), "tcp:h:1");
}

#[test]
fn server_death_mid_request_is_a_clean_io_error() {
    let dir = temp_dir("mid-request");
    // Scenario A: the "server" reads the request and dies without
    // replying. Scenario B: it dies halfway through the reply frame.
    for (name, partial_reply) in [("drop-before-reply", false), ("drop-mid-frame", true)] {
        let sock = dir.join(format!("{name}.sock"));
        let listener = UnixListener::bind(&sock).unwrap();
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_frame(&mut conn).unwrap();
            if partial_reply {
                // A length prefix promising 64 bytes, then silence.
                use std::io::Write;
                conn.write_all(&64u32.to_le_bytes()).unwrap();
                conn.write_all(b"only a few bytes").unwrap();
            }
            // Dropping the stream kills the connection mid-request.
        });
        let no_retry = ClientConfig {
            retries: 0,
            pipeline_depth: 1,
            ..ClientConfig::default()
        };
        let mut client = Client::builder(&Endpoint::Unix(sock))
            .config(no_retry)
            .build()
            .unwrap();
        let err = client.request(&Request::Ping).unwrap_err();
        assert!(
            matches!(err, ServeError::Io(_)),
            "{name}: want ServeError::Io, got {err:?}"
        );
        fake.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_retries_idempotent_requests_across_a_restart() {
    let (dir, store) = warm_store("restart");
    let expected = expected_bridge_text(&dir);
    let sock = dir.join("bolt.sock");
    let server_a = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();

    // A second server cannot steal the live socket.
    let contender = Server::builder().unix(sock.clone()).start(ServeCore::new(
        ContractStore::open(dir.join("store2")).unwrap(),
    ));
    match contender {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
        Ok(_) => panic!("binding over a live server must fail"),
    }

    let mut client = Client::builder(&Endpoint::Unix(sock.clone()))
        .config(fast_retry_config())
        .build()
        .unwrap();
    assert_eq!(client.query(bridge_query()).unwrap().text, expected);

    // Kill server A, then leave a *stale* socket file behind, the way a
    // crashed process would: bind and immediately abandon the listener.
    let mut killer = Client::builder(&Endpoint::Unix(sock.clone()))
        .pipeline_depth(1)
        .build()
        .unwrap();
    killer.shutdown().unwrap();
    server_a.join();
    drop(UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "the stale socket file is the test fixture");

    // A restart must reclaim the dead socket, not fail on it.
    let server_b = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(
            ContractStore::open(dir.join("store")).unwrap(),
        ))
        .expect("restart must reclaim a stale socket");

    // The client's connection died with server A; the same query must
    // transparently reconnect to B and return byte-identical text.
    assert_eq!(client.query(bridge_query()).unwrap().text, expected);

    server_b.request_shutdown();
    server_b.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_rejects_with_busy_and_recovers() {
    let (dir, store) = warm_store("busy");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .max_connections(1)
        .start(ServeCore::new(store))
        .unwrap();
    let ep = Endpoint::Unix(sock);

    let mut holder = Client::builder(&ep).pipeline_depth(1).build().unwrap();
    holder.ping().unwrap(); // the slot is definitely taken now

    // The next connection gets the busy frame, not service.
    let no_retry = ClientConfig {
        retries: 0,
        pipeline_depth: 1,
        ..ClientConfig::default()
    };
    let mut second = Client::builder(&ep).config(no_retry).build().unwrap();
    match second.ping() {
        Err(ServeError::Remote(m)) => {
            assert!(m.contains("busy"), "busy rejection said {m:?}")
        }
        other => panic!("want a busy rejection, got {other:?}"),
    }
    assert!(server.core().stats_reply().get("busy_rejects").unwrap() >= 1);

    // Releasing the slot lets a retrying client in (the reject closed
    // its connection, so the retry path re-dials into the free slot).
    drop(holder);
    let mut third = Client::builder(&ep)
        .config(fast_retry_config())
        .build()
        .unwrap();
    let mut served = false;
    for _ in 0..40 {
        if third.ping().is_ok() {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(served, "a client must be served once the slot frees up");

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_while_active_ones_survive() {
    let (dir, store) = warm_store("idle");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .idle_timeout(Duration::from_millis(150))
        .start(ServeCore::new(store))
        .unwrap();

    // A silent raw connection: says nothing, must get EOF'd.
    let mut silent = UnixStream::connect(&sock).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // An active client pinging well inside the idle window survives the
    // whole time.
    let ep = Endpoint::Unix(sock);
    let mut active = Client::builder(&ep).pipeline_depth(1).build().unwrap();
    for _ in 0..10 {
        active
            .ping()
            .expect("an active connection must not be reaped");
        std::thread::sleep(Duration::from_millis(50));
    }

    // 500 ms of pings > 150 ms idle timeout: the silent peer is gone.
    let mut buf = [0u8; 1];
    assert_eq!(
        silent.read(&mut buf).expect("reap closes cleanly"),
        0,
        "the idle connection must see EOF"
    );
    assert!(server.core().stats_reply().get("idle_closed").unwrap() >= 1);

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blown_request_deadline_yields_a_typed_error_and_counts() {
    let (dir, store) = warm_store("deadline");
    let expected = expected_bridge_text(&dir);
    let sock = dir.join("bolt.sock");
    // Deterministic slowness: the first handled request stalls 80 ms
    // against a 10 ms deadline; every later request runs clean.
    let plan = Arc::new(
        bolt_fault::FaultPlan::seeded(7)
            .with_at(bolt_fault::site::SERVE_HANDLE_STALL, 1)
            .with_stall(Duration::from_millis(80)),
    );
    let server = Server::builder()
        .unix(sock.clone())
        .request_deadline(Duration::from_millis(10))
        .fault(plan)
        .start(ServeCore::new(store))
        .unwrap();

    let mut client = Client::builder(&Endpoint::Unix(sock))
        .pipeline_depth(1)
        .build()
        .unwrap();
    match client.query(bridge_query()) {
        Err(ServeError::Remote(m)) => {
            assert!(m.contains("deadline exceeded"), "got {m:?}")
        }
        other => panic!("want a deadline error frame, got {other:?}"),
    }
    assert_eq!(
        server.core().stats_reply().get("deadlines_exceeded"),
        Some(1)
    );
    // The connection survived the error frame; the retry is instant and
    // byte-identical (the slow first pass warmed the cache).
    assert_eq!(client.query(bridge_query()).unwrap().text, expected);

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_transport_storm_converges_to_byte_identical_answers() {
    let seed = std::env::var("BOLT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB017);
    let (dir, store) = warm_store("storm");
    let expected = expected_bridge_text(&dir);
    let sock = dir.join("bolt.sock");
    let plan = Arc::new(
        bolt_fault::FaultPlan::seeded(seed)
            .with_prob(bolt_fault::site::SERVE_READ_ERR, 0.10)
            .with_prob(bolt_fault::site::SERVE_READ_DISCONNECT, 0.05)
            .with_prob(bolt_fault::site::SERVE_WRITE_PARTIAL, 0.15),
    );
    let server = Server::builder()
        .unix(sock.clone())
        .fault(plan)
        .start(ServeCore::new(store))
        .unwrap();

    // One sequential client, so the per-site fault schedule is
    // deterministic for a given seed. Every query must *eventually*
    // come back byte-identical; transport failures in between are
    // expected and healed by reconnect-and-retry (plus this outer loop
    // for fault runs longer than the client's retry budget).
    let mut client = Client::builder(&Endpoint::Unix(sock))
        .config(fast_retry_config())
        .build()
        .unwrap();
    for round in 0..20 {
        let mut answered = false;
        for _ in 0..40 {
            match client.query(bridge_query()) {
                Ok(reply) => {
                    assert_eq!(
                        reply.text, expected,
                        "seed {seed} round {round}: answers must stay byte-identical"
                    );
                    answered = true;
                    break;
                }
                Err(ServeError::Io(_)) | Err(ServeError::Protocol(_)) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("seed {seed} round {round}: unexpected {e:?}"),
            }
        }
        assert!(answered, "seed {seed} round {round}: query never converged");
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fault site is reachable: arm each one alone to fire on its first
/// call, drive the operation that should reach it — a cold
/// `get_or_explore` for store sites, a served query for serve sites —
/// and require exactly one injection.
#[test]
fn every_fault_site_is_reached() {
    let (dir, _warm) = warm_store("sites");
    for site in bolt_fault::site::ALL {
        let plan = Arc::new(
            bolt_fault::FaultPlan::seeded(1)
                .with_at(site, 1)
                .with_stall(Duration::from_millis(1)),
        );
        if site.starts_with("store.") {
            let store =
                ContractStore::with_faults(dir.join(site), Some(Arc::clone(&plan))).unwrap();
            let _ = store.get_or_explore(&Bridge::default(), StackLevel::NfOnly);
        } else {
            let sock = dir.join(format!("{site}.sock"));
            let store = ContractStore::open(dir.join("store")).unwrap();
            let server = Server::builder()
                .unix(sock.clone())
                .fault(Arc::clone(&plan))
                .start(ServeCore::new(store))
                .unwrap();
            let mut client = Client::builder(&Endpoint::Unix(sock))
                .config(fast_retry_config())
                .build()
                .unwrap();
            assert!(
                (0..10).any(|_| client.query(bridge_query()).is_ok()),
                "{site}: the query never converged"
            );
            server.request_shutdown();
            server.join();
        }
        assert_eq!(plan.injected(), 1, "no operation reached {site}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_diff_whose_reply_is_lost_is_retried_like_any_read() {
    let (dir, store) = warm_store("diffretry");
    let sock = dir.join("bolt.sock");
    let expected = ServeCore::new(ContractStore::open(dir.join("store")).unwrap())
        .diff(&bridge_diff())
        .unwrap();
    // The server's first write — the diff's reply — fails; the next
    // connection runs clean.
    let plan =
        Arc::new(bolt_fault::FaultPlan::seeded(3).with_at(bolt_fault::site::SERVE_WRITE_ERR, 1));
    let server = Server::builder()
        .unix(sock.clone())
        .fault(plan)
        .start(ServeCore::new(store))
        .unwrap();
    let mut client = Client::builder(&Endpoint::Unix(sock))
        .config(fast_retry_config())
        .retries(1)
        .build()
        .unwrap();
    assert_eq!(client.diff(bridge_diff()).unwrap(), expected);
    assert_eq!(server.core().stats_reply().get("requests"), Some(2));

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_never_auto_retried_but_reads_are() {
    // A pure protocol-level check of the retry policy predicate.
    assert!(Request::Ping.is_idempotent());
    assert!(Request::List.is_idempotent());
    assert!(Request::Stats.is_idempotent());
    assert!(Request::Query(bridge_query()).is_idempotent());
    assert!(Request::Provenance {
        nf: "bridge".into(),
        level: 0
    }
    .is_idempotent());
    assert!(Request::Diff(bridge_diff()).is_idempotent());
    assert!(Request::Hello { depth: 8 }.is_idempotent());
    assert!(Request::Metrics.is_idempotent());
    assert!(!Request::Shutdown.is_idempotent());
    // write_frame is used by the raw-listener tests above; keep the
    // import honest even when only some tests run.
    let mut sink = Vec::new();
    write_frame(&mut sink, &Request::Ping.encode_v2(1)).unwrap();
    assert_eq!(
        read_frame(&mut sink.as_slice()).unwrap().unwrap(),
        Request::Ping.encode_v2(1)
    );
}
