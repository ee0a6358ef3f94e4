//! Determinism gate for exploration at any thread count.
//!
//! With more than one thread, workers speculate worklist entries ahead
//! of the committer (`bolt::expr::speculate`), which absorbs each
//! private term pool and replays its solver schedule against the shared
//! cache. The contract is *bit-identity*: at any thread count the
//! exploration result — pool arena order, symbol table, path order,
//! constraints, decisions, tags, verdicts, stateless event streams,
//! solver counters, truncation — matches the one-thread run exactly.
//! These tests pin that via the store codec: `encode_result` serialises
//! every one of those fields, so byte-equal encodings mean bit-equal
//! results. In debug builds every step also runs the route a race did
//! not pick and asserts both agree, on every catalog NF.

use bolt::core::nf::NetworkFunction;
use bolt::nfs::{nat, Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::encode_result;
use bolt::see::{Explorer, NfCtx, NfVerdict, StackLevel};
use bolt::Bolt;

/// Encoded exploration of `nf` at `level` on `threads` threads.
fn encoded<N: NetworkFunction + Sync>(nf: &N, level: StackLevel, threads: usize) -> Vec<u8> {
    encode_result(&nf.explore_threads(level, threads).result)
}

/// Assert bit-identity of `nf`'s exploration at 1 vs 2, 3 and 8
/// threads, at both stack levels. The odd count keeps the workers from
/// dividing a worklist evenly.
fn assert_bit_identical<N: NetworkFunction + Sync>(name: &str, mk: impl Fn() -> N) {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let seq = encoded(&mk(), level, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                encoded(&mk(), level, threads),
                "{name} {level:?}: {threads} threads diverged from sequential"
            );
        }
    }
}

#[test]
fn parallel_exploration_is_bit_identical_for_real_nfs() {
    assert_bit_identical("bridge", Bridge::default);
    assert_bit_identical("example_router", ExampleRouter::default);
    assert_bit_identical("firewall", Firewall::default);
    assert_bit_identical("lb", LoadBalancer::default);
    assert_bit_identical("lpm_router", LpmRouter::default);
    assert_bit_identical("nat_a", || {
        Nat::with(nat::NatConfig::default(), nat::AllocKind::A)
    });
    assert_bit_identical("nat_b", || {
        Nat::with(nat::NatConfig::default(), nat::AllocKind::B)
    });
    assert_bit_identical("static_router", StaticRouter::default);
}

#[test]
fn bolt_threads_knob_reaches_the_explorer() {
    // The fluent knob must produce the sequential result (everything
    // does, but this pins the plumbing).
    let via_trait = encoded(&Bridge::default(), StackLevel::NfOnly, 1);
    let via_bolt = encode_result(
        &Bolt::nf(Bridge::default())
            .threads(8)
            .explore(StackLevel::NfOnly)
            .result,
    );
    assert_eq!(via_trait, via_bolt);
}

/// A wide symbolic fan-out (2^8 paths): every branch is feasible both
/// ways, so `max_paths` truncation engages mid-tree.
fn wide_nf(ctx: &mut bolt::see::SymbolicCtx<'_>) {
    let pkt = ctx.packet(64);
    for i in 0..8 {
        let b = ctx.load(pkt, i, 1);
        let z = ctx.lit(0, bolt::expr::Width::W8);
        let c = ctx.eq(b, z);
        ctx.branch(c);
    }
    ctx.verdict(NfVerdict::Drop);
}

#[test]
fn max_paths_truncation_is_deterministic_across_thread_counts() {
    let mut seq = Explorer::new();
    seq.max_paths = 7;
    let seq = seq.explore(wide_nf);
    assert!(seq.truncated, "truncation marker must be set");
    assert_eq!(seq.paths.len(), 7, "path count is exactly max_paths");
    let seq_bytes = encode_result(&seq);
    for threads in [2, 4, 8] {
        let mut ex = Explorer::new();
        ex.max_paths = 7;
        ex.threads = threads;
        let par = ex.explore(wide_nf);
        assert!(par.truncated, "{threads} threads: marker must survive");
        assert_eq!(par.paths.len(), 7, "{threads} threads: exact path count");
        assert_eq!(
            encode_result(&par),
            seq_bytes,
            "{threads} threads: truncated result diverged"
        );
    }
    // Untruncated, the same NF is complete at any thread count.
    let full_seq = Explorer::new().explore(wide_nf);
    assert!(!full_seq.truncated);
    assert_eq!(full_seq.paths.len(), 256);
    let mut ex = Explorer::new();
    ex.threads = 4;
    let full_par = ex.explore(wide_nf);
    assert_eq!(encode_result(&full_par), encode_result(&full_seq));
}
