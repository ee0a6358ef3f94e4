//! A serving cache's reload of the 16 catalog records (8 NFs × 2 stack
//! levels) — `decode_result` of the stored exploration, `generate`, and
//! dropping the contract as an eviction does — makes a pinned number of
//! allocations. Counted with the pass-through allocator of
//! `tests/counting_alloc`, which counts what the test's own thread
//! allocates. The records are encoded before counting; the
//! first round interns the path tags process-wide, the second is counted
//! against the ceiling, and a third must repeat its count exactly, so the
//! gate does not depend on the machine.

mod counting_alloc;

use std::hint::black_box;
use std::sync::Arc;

use bolt::core::generate;
use bolt::lib::registry::DsRegistry;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::{decode_result, encode_result};
use bolt::see::StackLevel;
use bolt::NetworkFunction;

/// Allocations and reallocations of one warm round of 16 reloads: 1 824
/// before the decoder sized each rehydrated term pool from its count;
/// 1 658 before each pool kept its terms' symbol supports in one arena
/// instead of one shared slice per symbol node and per merged support.
const CEILING: usize = 1_420;

/// A stored record and the registry its stateful calls resolve against.
struct Record {
    reg: Arc<DsRegistry>,
    payload: Vec<u8>,
}

fn record<N: NetworkFunction>(nf: &N, level: StackLevel) -> Record {
    let ex = nf.explore(level);
    Record {
        payload: encode_result(&ex.result),
        reg: ex.reg,
    }
}

fn catalog() -> Vec<Record> {
    let nat = |kind| Nat::with(NatConfig::default(), kind);
    let mut records = Vec::new();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        records.push(record(&Bridge::default(), level));
        records.push(record(&ExampleRouter::default(), level));
        records.push(record(&Firewall::default(), level));
        records.push(record(&LoadBalancer::default(), level));
        records.push(record(&LpmRouter::default(), level));
        records.push(record(&nat(AllocKind::A), level));
        records.push(record(&nat(AllocKind::B), level));
        records.push(record(&StaticRouter::default(), level));
    }
    records
}

/// Allocations one reload of every record makes.
fn round(records: &[Record]) -> usize {
    let before = counting_alloc::allocations();
    for r in records {
        let result = decode_result(&r.payload).expect("a record just encoded decodes");
        drop(black_box(generate(&r.reg, result)));
    }
    counting_alloc::allocations() - before
}

#[test]
fn reloading_the_catalog_allocates_under_its_ceiling() {
    let records = catalog();
    assert_eq!(records.len(), 16);
    round(&records);
    let warm = round(&records);
    assert!(
        warm <= CEILING,
        "reloading the catalog made {warm} allocations; the ceiling is {CEILING}"
    );
    assert_eq!(
        round(&records),
        warm,
        "a warm round's allocations repeat exactly"
    );
}
