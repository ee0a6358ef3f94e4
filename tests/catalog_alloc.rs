//! A warm in-memory catalog round — for each of the 16 catalog contracts
//! (8 NFs × 2 stack levels): explore on one thread, `encode_result`,
//! `generate`, and one unconstrained query per metric — makes a pinned
//! number of allocations. Counted with the pass-through allocator of
//! `tests/counting_alloc`, which counts what the test's own thread
//! allocates. The first round warms the process-wide
//! calibrated-registry memo; the second is counted against the ceiling,
//! and a third must repeat its count exactly, so the gate does not depend
//! on the machine.

mod counting_alloc;

use std::hint::black_box;

use bolt::core::InputClass;
use bolt::expr::PcvAssignment;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::encode_result;
use bolt::see::StackLevel;
use bolt::trace::Metric;
use bolt::NetworkFunction;

/// Allocations and reallocations of one warm round: what sharing the
/// calibrated registry, inline monomials and the explorer's reused
/// per-run buffers brought it to (6 749, from 13 389), plus 14 for the
/// two sweeps a round that end at their first candidate compile too
/// (6 763); then 6 051, from 6 713, once a solver session kept its
/// checkpoints, prefix hashes and decision buffers between queries; then
/// 4 325 once a run probed its flips where it decided them instead of in
/// a second context, minted each symbol once per exploration, and handed
/// its emptied solving context to the next run; then 4 087 once every
/// term pool kept its terms' symbol supports in one arena instead of one
/// shared slice per symbol node and per merged support.
const CEILING: usize = 4_087;

/// One contract of the round, as the benchmark's in-memory round makes it.
fn generate_one<N: NetworkFunction>(nf: &N, level: StackLevel) {
    let ex = nf.explore(level);
    let payload = encode_result(&ex.result);
    let mut contract = ex.contract();
    let class = InputClass::unconstrained();
    let env = PcvAssignment::new();
    for m in Metric::ALL {
        black_box(contract.query(&class, m, &env));
    }
    black_box(payload);
}

/// Allocations one round over the catalog makes.
fn round() -> usize {
    let nat = |kind| Nat::with(NatConfig::default(), kind);
    let before = counting_alloc::allocations();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        generate_one(&Bridge::default(), level);
        generate_one(&ExampleRouter::default(), level);
        generate_one(&Firewall::default(), level);
        generate_one(&LoadBalancer::default(), level);
        generate_one(&LpmRouter::default(), level);
        generate_one(&nat(AllocKind::A), level);
        generate_one(&nat(AllocKind::B), level);
        generate_one(&StaticRouter::default(), level);
    }
    counting_alloc::allocations() - before
}

#[test]
fn a_warm_catalog_round_allocates_under_its_ceiling() {
    round();
    let warm = round();
    assert!(
        warm <= CEILING,
        "a warm catalog round made {warm} allocations; the ceiling is {CEILING}"
    );
    assert_eq!(round(), warm, "a warm round's allocations repeat exactly");
}
