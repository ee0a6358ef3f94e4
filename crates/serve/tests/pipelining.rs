//! Pipelined session tests: window negotiation, out-of-order
//! completion routed by correlation id, byte-identical answers at
//! window 1 and 8, a stale (version-1) peer, fault storms on the event
//! loop, and the 1024-idle-connection soak pinning the fixed thread
//! pool.

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_core::store::{level_tag, StoreExt};
use bolt_nfs::{Bridge, Firewall};
use bolt_serve::protocol::{read_frame, write_frame};
use bolt_serve::{
    Client, Endpoint, QueryRequest, Request, Response, ServeCore, Server, MAX_PIPELINE_DEPTH,
};
use bolt_store::ContractStore;
use dpdk_sim::StackLevel;

use common::wait_until;

mod common;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolt-pipeline-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Store pre-warmed with bridge + firewall at nf-only level (queries
/// are store hits, never fresh explorations).
fn warm_store(tag: &str) -> (PathBuf, ContractStore) {
    let dir = temp_dir(tag);
    let store = ContractStore::open(dir.join("store")).unwrap();
    let _ = store.get_or_explore(&Bridge::default(), StackLevel::NfOnly);
    let _ = store.get_or_explore(&Firewall::default(), StackLevel::NfOnly);
    (dir, store)
}

fn bridge_query() -> QueryRequest {
    QueryRequest {
        nf: "bridge".to_string(),
        level: level_tag(StackLevel::NfOnly),
        metric: 0,
        tag: None,
        pcvs: vec![],
    }
}

fn firewall_query() -> QueryRequest {
    QueryRequest {
        nf: "firewall".to_string(),
        level: level_tag(StackLevel::NfOnly),
        metric: 0,
        tag: None,
        pcvs: vec![],
    }
}

#[test]
fn hello_negotiation_grants_the_clamped_depth() {
    let (dir, store) = warm_store("negotiate");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .max_pipeline_depth(4)
        .start(ServeCore::new(store))
        .unwrap();
    let ep = Endpoint::Unix(sock);

    // Client asks for 8; server caps at 4.
    let session = Client::builder(&ep).pipeline_depth(8).session().unwrap();
    assert_eq!(session.depth(), 4);

    // Depth 1 skips negotiation entirely: a fresh connection's window.
    let session = Client::builder(&ep).pipeline_depth(1).session().unwrap();
    assert_eq!(session.depth(), 1);

    // Depth 0 means window 1. A zero window would make `submit` wait
    // forever for a slot, so the session must still answer.
    let mut session = Client::builder(&ep).pipeline_depth(0).session().unwrap();
    assert_eq!(session.depth(), 1);
    assert!(matches!(
        session.call(&Request::Ping).unwrap(),
        Response::Pong { .. }
    ));

    // Nor does the server ever grant 0: a raw `Hello { depth: 0 }` is
    // acked with window 1.
    let mut raw = UnixStream::connect(server.unix_path().unwrap()).unwrap();
    write_frame(&mut raw, &Request::Hello { depth: 0 }.encode_v2(1)).unwrap();
    let ack = Response::decode_v2(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
    assert_eq!(ack, (1, Response::HelloAck { depth: 1 }));

    // The builder clamps absurd asks to the protocol maximum.
    let session = Client::builder(&ep)
        .pipeline_depth(10_000)
        .session()
        .unwrap();
    assert!(session.depth() <= MAX_PIPELINE_DEPTH);

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completions_route_out_of_order_by_correlation_id() {
    let (dir, store) = warm_store("interleave");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();
    let ep = Endpoint::Unix(sock);

    let mut session = Client::builder(&ep).pipeline_depth(8).session().unwrap();

    // A cold query (offloaded to the handler pool) followed by pings
    // (answered inline on the event loop). The pings overtake the
    // query on the wire; correlation ids must still route each reply
    // to its ticket — which we stress by receiving in reverse
    // submission order, so the query reply has to buffer ping replies
    // and the ping receives then hit the ready map.
    let t_query = session.submit(&Request::Query(firewall_query())).unwrap();
    let t_pings: Vec<_> = (0..5)
        .map(|_| session.submit(&Request::Ping).unwrap())
        .collect();
    session.flush().unwrap();

    match session.recv(t_query).unwrap() {
        Response::Query(reply) => assert!(reply.text.contains("firewall")),
        other => panic!("expected a query reply, got {other:?}"),
    }
    for t in t_pings {
        match session.recv(t).unwrap() {
            Response::Pong { version } => assert!(!version.is_empty()),
            other => panic!("expected a pong, got {other:?}"),
        }
    }

    // Receiving the same ticket twice is a protocol error, not a hang.
    assert!(session.recv(t_query).is_err());

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_submit_window_applies_backpressure_without_losing_replies() {
    let (dir, store) = warm_store("window");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();

    let mut session = Client::builder(&Endpoint::Unix(sock))
        .pipeline_depth(4)
        .session()
        .unwrap();
    // Far more submissions than the negotiated window: submit must
    // transparently drain completed replies to stay within depth.
    let tickets: Vec<_> = (0..100)
        .map(|_| session.submit(&Request::Ping).unwrap())
        .collect();
    for t in tickets {
        assert!(matches!(session.recv(t).unwrap(), Response::Pong { .. }));
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn depth_8_and_depth_1_answers_are_byte_identical() {
    let (dir, store) = warm_store("equivalence");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();
    let ep = Endpoint::Unix(sock);

    let mut d1 = Client::builder(&ep).pipeline_depth(1).build().unwrap();
    let mut d8 = Client::builder(&ep).pipeline_depth(8).build().unwrap();
    for q in [bridge_query(), firewall_query()] {
        let a = d1.query(q.clone()).unwrap();
        let b = d8.query(q).unwrap();
        assert_eq!(a.text, b.text, "the window must not change answers");
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer still speaking the retired version-1 frame gets the typed
/// mismatch error frame (not a mis-parse, not a hang-up), and the same
/// connection then serves a current-version request.
#[test]
fn a_stale_version_1_peer_gets_a_typed_mismatch_and_the_connection_lives() {
    let (dir, store) = warm_store("stale");
    let server = Server::builder()
        .tcp("127.0.0.1:0")
        .start(ServeCore::new(store))
        .unwrap();
    let mut stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();

    // Version 1's ping: version byte, opcode, no correlation id.
    write_frame(&mut stream, &[1, 1]).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("error frame");
    match Response::decode_v2(&payload).unwrap() {
        (0, Response::Error { message }) => assert!(
            message.contains("protocol version mismatch"),
            "unexpected error: {message}"
        ),
        other => panic!("expected an unattributed error frame, got {other:?}"),
    }

    // The raw reply is exactly the core's answer under the request's id.
    write_frame(&mut stream, &Request::Ping.encode_v2(7)).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("pong frame");
    assert_eq!(payload, server.core().handle(&Request::Ping).encode_v2(7));
    drop(stream);

    assert!(server.core().stats_reply().get("protocol_errors").unwrap() >= 1);
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_storm_on_the_event_loop_converges_with_pipelining() {
    let seed = 0xF1BE;
    let (dir, store) = warm_store("pipestorm");
    let sock = dir.join("bolt.sock");
    let plan = Arc::new(
        bolt_fault::FaultPlan::seeded(seed)
            .with_prob(bolt_fault::site::SERVE_READ_ERR, 0.08)
            .with_prob(bolt_fault::site::SERVE_READ_DISCONNECT, 0.04)
            .with_prob(bolt_fault::site::SERVE_WRITE_PARTIAL, 0.12),
    );
    let server = Server::builder()
        .unix(sock.clone())
        .fault(plan)
        .start(ServeCore::new(store))
        .unwrap();
    let ep = Endpoint::Unix(sock);

    // The expected answer, fetched before the storm via a throwaway
    // retrying client (builds may also fail under injected faults, so
    // construction retries too).
    let build = |ep: &Endpoint| -> Client {
        for _ in 0..50 {
            if let Ok(c) = Client::builder(ep)
                .pipeline_depth(8)
                .retries(6)
                .backoff(Duration::from_millis(5))
                .backoff_cap(Duration::from_millis(40))
                .build()
            {
                return c;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("client never connected through the fault storm");
    };
    let expected = {
        let mut probe = build(&ep);
        let mut text = None;
        for _ in 0..200 {
            if let Ok(r) = probe.query(bridge_query()) {
                text = Some(r.text);
                break;
            }
            probe = build(&ep);
        }
        text.expect("probe query never converged")
    };

    let mut client = build(&ep);
    for round in 0..15 {
        let mut answered = false;
        for _ in 0..40 {
            match client.query(bridge_query()) {
                Ok(reply) => {
                    assert_eq!(
                        reply.text, expected,
                        "round {round}: pipelined answers must stay byte-identical"
                    );
                    answered = true;
                    break;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    client = build(&ep);
                }
            }
        }
        assert!(answered, "round {round}: query never converged");
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh connection is served as soon as it arrives: the event loops
/// poll the listener with their connections, so nothing waits out a
/// sleep before the first request is read.
#[test]
fn twenty_fresh_connections_are_answered_without_an_accept_delay() {
    let (dir, store) = warm_store("fresh");
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();
    let started = Instant::now();
    for i in 0..20 {
        let mut s = UnixStream::connect(&sock).unwrap();
        write_frame(&mut s, &Request::Ping.encode_v2(1)).unwrap();
        let payload = read_frame(&mut s).unwrap().expect("ping reply");
        assert!(
            matches!(
                Response::decode_v2(&payload),
                Ok((1, Response::Pong { .. }))
            ),
            "connection {i}: expected a pong"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 fresh connections took {elapsed:?}"
    );
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// 1024 idle connections must not grow the thread pool: the engine is
/// a fixed set of poll-driven workers, not thread-per-connection.
#[test]
fn a_1024_idle_connection_soak_keeps_the_thread_count_fixed() {
    let (dir, store) = warm_store("soak");
    let server = Server::builder()
        .tcp("127.0.0.1:0")
        .idle_timeout(Duration::from_secs(300))
        .start(ServeCore::new(store))
        .unwrap();
    let addr = server.tcp_addr().unwrap();
    let ep = Endpoint::Tcp(addr.to_string());

    let threads_before = server.worker_threads();
    let os_threads_before = proc_thread_count();

    let mut idle = Vec::with_capacity(1024);
    for i in 0..1024 {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connection {i} refused: {e}"),
        }
    }
    // Wait until the event loops have accepted and seated every socket.
    let seated = server.core().metrics().gauge("serve.active_connections");
    wait_until("1024 seated connections", || seated.get() >= 1024);

    // The pool is fixed: same engine thread count as at start.
    assert_eq!(server.worker_threads(), threads_before);
    // OS-level check: the process did not spawn a thread per
    // connection. Allow a little slack for test-harness threads.
    let os_threads_now = proc_thread_count();
    assert!(
        os_threads_now <= os_threads_before + 8,
        "thread count grew from {os_threads_before} to {os_threads_now} \
         under 1024 idle connections"
    );

    // The server still answers new work while holding the idle herd.
    let mut client = Client::builder(&ep).build().unwrap();
    assert!(client.ping().is_ok());
    let reply = client.query(bridge_query()).unwrap();
    assert!(reply.text.contains("bridge"));

    // One of the idle sockets is still live and serviceable too.
    let mut s = idle.pop().unwrap();
    write_frame(&mut s, &Request::Ping.encode_v2(1)).unwrap();
    assert!(read_frame(&mut s).unwrap().is_some());

    drop(idle);
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn proc_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}
