//! A warm round of chain planning — the six planned reports of the
//! benchmark's `gen_chain` round: firewall→router, router→firewall and
//! firewall→firewall→router at both stack levels, each composed and
//! planned through `Pipeline::parallelize` with no store — makes a pinned
//! number of allocations. Counted with the pass-through allocator of
//! `tests/counting_alloc`, which counts what the test's own thread
//! allocates. The first round warms the process-wide
//! calibrated-registry memo; the second is counted against the ceiling,
//! and a third must repeat its count exactly, so the gate does not depend
//! on the machine.

mod counting_alloc;

use std::hint::black_box;

use bolt::core::Pipeline;
use bolt::nfs::{Firewall, StaticRouter};
use bolt::see::StackLevel;

/// Allocations and reallocations of one warm round: 31 326 while every
/// checkpoint cloned the propagator, every probe built its memo key from
/// scratch and every full decision grew fresh sweep buffers; 15 790
/// while pair composition recorded every candidate pair in one pass and
/// built the feasible ones' paths in a second; 14 720 while each
/// exploration run re-asserted its constraints in a second context to
/// probe its flips; 13 008 while the solver's decision tail kept link
/// equalities its union-find had absorbed, sent the components they
/// widened to a randomized completion search, and grew a witness for
/// decisions that came out unsatisfiable; 12 742 while pair composition
/// built a solver context per upstream path, migrated terms and symbols
/// through hash maps keyed by term and by name, and every term pool
/// allocated one shared slice per symbol node and per merged support.
const CEILING: usize = 8_786;

fn chains() -> [Pipeline<'static>; 3] {
    [
        Pipeline::new()
            .push(Firewall::default())
            .push(StaticRouter::default()),
        Pipeline::new()
            .push(StaticRouter::default())
            .push(Firewall::default()),
        Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .push(StaticRouter::default()),
    ]
}

/// Allocations one round of the six planned reports makes.
fn round(chains: &[Pipeline<'_>]) -> usize {
    let before = counting_alloc::allocations();
    for chain in chains {
        for level in [StackLevel::NfOnly, StackLevel::FullStack] {
            let report = chain.parallelize(level).expect("a non-empty chain");
            assert!(report.plan.is_some(), "parallelize attaches a plan");
            black_box(report);
        }
    }
    counting_alloc::allocations() - before
}

#[test]
fn a_warm_chain_planning_round_allocates_under_its_ceiling() {
    let chains = chains();
    round(&chains);
    let warm = round(&chains);
    assert!(
        warm <= CEILING,
        "a warm chain-planning round made {warm} allocations; the ceiling is {CEILING}"
    );
    assert_eq!(
        round(&chains),
        warm,
        "a warm round's allocations repeat exactly"
    );
}
