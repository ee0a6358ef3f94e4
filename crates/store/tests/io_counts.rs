//! The store's system-call budget, as exact counts: each record
//! operation opens its file once and reads (and, for a stamp, writes)
//! through that one descriptor.
//!
//! `/proc/self/io` counts read- and write-type system calls for the
//! whole process, so this file holds a single test: a second test
//! running on another thread would add its own calls to the counts.

#![cfg(target_os = "linux")]

use std::fs;

use bolt_store::{ContractStore, Fingerprint, RecordKind};

/// The process's (read, write) system-call counters.
fn io_counts() -> (u64, u64) {
    let text = fs::read_to_string("/proc/self/io").expect("/proc/self/io");
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} in /proc/self/io"))
    };
    (field("syscr:"), field("syscw:"))
}

/// The (read, write) system calls `op` makes, net of what reading the
/// counters costs (measured around an empty operation).
fn calls<T>(op: impl FnOnce() -> T) -> (u64, u64) {
    let probe = {
        let a = io_counts();
        let b = io_counts();
        (b.0 - a.0, b.1 - a.1)
    };
    let before = io_counts();
    std::hint::black_box(op());
    let after = io_counts();
    (after.0 - before.0 - probe.0, after.1 - before.1 - probe.1)
}

#[test]
fn each_record_operation_makes_its_exact_system_calls() {
    let dir = std::env::temp_dir().join(format!("bolt-store-io-counts-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ContractStore::open(&dir).unwrap();
    const N: u128 = 5;
    for i in 0..N {
        store
            .put(
                Fingerprint(i),
                RecordKind::Exploration,
                "nf",
                0,
                3,
                &vec![i as u8; 2400],
            )
            .unwrap();
    }
    let key = Fingerprint(2);

    let mut got = None;
    assert_eq!(
        calls(|| got = store.get(key, RecordKind::Exploration)),
        (1, 1),
        "get: one read of the record, one stamp write"
    );
    assert_eq!(got.as_deref(), Some(vec![2u8; 2400].as_slice()));

    let mut header = None;
    assert_eq!(
        calls(|| header = store.header(key, RecordKind::Exploration)),
        (1, 0),
        "header: one read of the header prefix, no write"
    );
    assert_eq!(header.map(|h| h.payload_len), Some(2400));

    let mut touched = None;
    assert_eq!(
        calls(|| touched = Some(store.touch(key, RecordKind::Exploration).unwrap())),
        (1, 1),
        "touch: one read of the stamp prefix, one stamp write"
    );
    assert_eq!(touched, Some(true));

    let mut listed = 0;
    assert_eq!(
        calls(|| listed = store.list().unwrap().len()),
        (N as u64, 0),
        "list: one read per record"
    );
    assert_eq!(listed, N as usize);

    // A missing record is a miss at the first open: no read-only retry,
    // no read.
    let mut missing = Some(Vec::new());
    assert_eq!(
        calls(|| missing = store.get(Fingerprint(N), RecordKind::Exploration)),
        (0, 0),
        "get of a missing key: no read, no write"
    );
    assert!(missing.is_none());

    let _ = fs::remove_dir_all(&dir);
}
