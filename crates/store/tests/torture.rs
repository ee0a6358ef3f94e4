//! Crash-consistency torture for the contract store.
//!
//! Three attack surfaces:
//!
//! * **Torn records** — a record file truncated at *every* byte
//!   boundary must read as a miss (never a panic, never garbage data)
//!   and must heal on the next `put`.
//! * **Dead writers** — `.tmp` scratch files orphaned by a crashed
//!   process must be quarantined by `open`, and must never be visible
//!   as records in the meantime.
//! * **Faulted interleavings** — under a seeded [`FaultPlan`] that
//!   makes writes tear, renames "crash", fsyncs fail, and reads drop,
//!   every *successful* `get` must still return exactly the bytes that
//!   were put, and a fault-free reopen must heal the store completely.
//!
//! The storm tests read `BOLT_FAULT_SEED` themselves (the library reads
//! no fault variable) so CI can sweep seeds; the assertions are
//! seed-independent invariants, not golden outcomes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bolt_fault::{site, FaultPlan};
use bolt_store::{ContractStore, Fingerprint, RecordKind};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bolt-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fp(n: u128) -> Fingerprint {
    Fingerprint(n)
}

/// The storm seed: `BOLT_FAULT_SEED` when set, else a fixed default.
fn storm_seed() -> u64 {
    std::env::var("BOLT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB01F)
}

/// The single `.bolt` file in a one-record store.
fn only_record_file(dir: &Path) -> PathBuf {
    let mut found = None;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("bolt") {
            assert!(found.is_none(), "expected exactly one record file");
            found = Some(path);
        }
    }
    found.expect("one record file")
}

#[test]
fn every_truncation_boundary_reads_as_a_miss_and_heals() {
    let dir = temp_dir("truncate");
    let store = ContractStore::with_faults(&dir, None).unwrap();
    let payload: Vec<u8> = (0..=255u8).collect();
    store
        .put(fp(7), RecordKind::Exploration, "bridge", 1, 3, &payload)
        .unwrap();
    let file = only_record_file(&dir);
    let full = fs::read(&file).unwrap();
    assert!(full.len() > 32, "record should outgrow its header");
    // Kill the write at every byte boundary, including the empty file.
    for cut in 0..full.len() {
        fs::write(&file, &full[..cut]).unwrap();
        assert_eq!(
            store.get(fp(7), RecordKind::Exploration),
            None,
            "truncation at byte {cut} must be a miss"
        );
        assert!(
            store.header(fp(7), RecordKind::Exploration).is_none(),
            "truncation at byte {cut} must not yield a header"
        );
        assert!(
            store.list().unwrap().is_empty(),
            "truncation at byte {cut} must not list"
        );
    }
    // A truncated record still occupies its name; sweep evicts it.
    fs::write(&file, &full[..full.len() / 2]).unwrap();
    store.sweep(0).unwrap();
    assert!(!file.exists(), "sweep(0) must clear the torn record");
    // And the next put heals the key completely.
    store
        .put(fp(7), RecordKind::Exploration, "bridge", 1, 3, &payload)
        .unwrap();
    assert_eq!(
        store.get(fp(7), RecordKind::Exploration).as_deref(),
        Some(payload.as_slice())
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopen_quarantines_dead_writer_leavings() {
    let dir = temp_dir("orphans");
    let store = ContractStore::with_faults(&dir, None).unwrap();
    assert_eq!(store.quarantined(), 0);
    store
        .put(fp(1), RecordKind::Exploration, "fw", 0, 1, b"keep me")
        .unwrap();
    // Forge what kill -9'd writers leave: torn and complete scratch
    // files under various pids/sequence numbers.
    for (name, bytes) in [
        (".dead1.exp.tmp.1.0", &b"torn"[..]),
        (".dead2.ctr.tmp.9999.3", &b"complete record bytes"[..]),
        (".dead3.cmp.tmp.42.7", &b""[..]),
    ] {
        fs::write(dir.join(name), bytes).unwrap();
    }
    // Orphans are invisible to every read path even before the reopen.
    assert_eq!(store.list().unwrap().len(), 1);
    let reopened = ContractStore::with_faults(&dir, None).unwrap();
    assert_eq!(reopened.quarantined(), 3);
    for name in [
        ".dead1.exp.tmp.1.0",
        ".dead2.ctr.tmp.9999.3",
        ".dead3.cmp.tmp.42.7",
    ] {
        assert!(!dir.join(name).exists(), "{name} must be quarantined");
    }
    assert_eq!(
        reopened.get(fp(1), RecordKind::Exploration).as_deref(),
        Some(b"keep me".as_slice()),
        "quarantine must not touch live records"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The canonical payload for a storm key: derived from the key alone so
/// any thread can verify any get.
fn payload_for(key: u128) -> Vec<u8> {
    (0..96)
        .map(|i| (key as u8).wrapping_mul(31).wrapping_add(i))
        .collect()
}

fn storm_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::seeded(seed)
            .with_prob(site::STORE_WRITE_PARTIAL, 0.25)
            .with_prob(site::STORE_RENAME, 0.25)
            .with_prob(site::STORE_FSYNC, 0.15)
            .with_prob(site::STORE_READ, 0.20),
    )
}

/// One worker's share of the storm: hammer the store, assert only the
/// seed-independent invariant — a successful get returns exactly what
/// was put. Returns how many gets succeeded.
fn storm_ops(store: &ContractStore, keys: &[u128], rounds: usize) -> u64 {
    let mut good_gets = 0;
    for round in 0..rounds {
        for &key in keys {
            let expected = payload_for(key);
            // Puts may "crash" — that's the point; retry a bounded
            // number of times so most keys end up written.
            for _ in 0..4 {
                if store
                    .put(fp(key), RecordKind::Exploration, "storm", 1, 2, &expected)
                    .is_ok()
                {
                    break;
                }
            }
            if let Some(bytes) = store.get(fp(key), RecordKind::Exploration) {
                assert_eq!(
                    bytes, expected,
                    "a successful get must be exact (key {key})"
                );
                good_gets += 1;
            }
            let _ = store.touch(fp(key), RecordKind::Exploration);
        }
        if round % 3 == 2 {
            // A sweep with a generous budget keeps everything but still
            // exercises the header pass over possibly-torn files.
            let _ = store.sweep(1 << 20);
            let _ = store.list();
        }
    }
    good_gets
}

/// After a storm, a fault-free reopen must fully heal: orphans gone,
/// every key re-puttable and byte-exact.
fn assert_healed(dir: &Path, keys: &[u128]) {
    let healed = ContractStore::with_faults(dir, None).unwrap();
    for entry in fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy();
        assert!(
            !name.contains(".tmp."),
            "no scratch file may survive reopen, found {name}"
        );
    }
    for &key in keys {
        let expected = payload_for(key);
        healed
            .put(fp(key), RecordKind::Exploration, "storm", 1, 2, &expected)
            .expect("puts are infallible without faults");
        assert_eq!(
            healed.get(fp(key), RecordKind::Exploration).as_deref(),
            Some(expected.as_slice())
        );
    }
}

#[test]
fn seeded_fault_storm_keeps_reads_exact() {
    let seed = storm_seed();
    let dir = temp_dir("storm");
    let keys: Vec<u128> = (0x10..0x18).collect();
    let store = ContractStore::with_faults(&dir, Some(storm_plan(seed))).unwrap();
    let good = storm_ops(&store, &keys, 12);
    // With p(put eventually lands) ≈ 1 - 0.5^4 per op and p(read drop)
    // = 0.2, a storm that yields zero good gets means the harness is
    // broken, not unlucky — 96 attempts each pass independently.
    assert!(good > 0, "seed {seed}: no get ever succeeded");
    assert_healed(&dir, &keys);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_seeded_fault_storm_keeps_reads_exact() {
    let seed = storm_seed();
    let dir = temp_dir("storm-mt");
    let store = Arc::new(ContractStore::with_faults(&dir, Some(storm_plan(seed ^ 0xA5))).unwrap());
    // Disjoint key ranges per thread keep the byte-exactness assertion
    // race-free; the *files and fault plan* are still fully shared, so
    // renames, sweeps, and quarantine scans interleave across threads.
    let mut workers = Vec::new();
    for t in 0..4u128 {
        let store = Arc::clone(&store);
        workers.push(std::thread::spawn(move || {
            let keys: Vec<u128> = (0x100 + t * 8..0x100 + t * 8 + 8).collect();
            storm_ops(&store, &keys, 6)
        }));
    }
    let good: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(good > 0, "seed {seed}: no get ever succeeded");
    let all_keys: Vec<u128> = (0x100..0x100 + 32).collect();
    assert_healed(&dir, &all_keys);
    let _ = fs::remove_dir_all(&dir);
}
