//! Solver-query regression guard for the incremental exploration engine.
//!
//! The pre-incremental explorer issued one full solver query per
//! feasibility request, so `checks_requested` is the pre-PR query count.
//! These tests assert — machine-independently, via the `SolverStats`
//! counters — that the incremental engine answers at least 5× fewer
//! requests with full decision-procedure runs, and that exploration
//! output (path counts per NF) is unchanged.

use bolt::core::nf::NetworkFunction;
use bolt::nfs::{nat, Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::{ExploreStats, Explorer, NfCtx, NfVerdict, StackLevel};
use bolt::solver::SolverStats;

fn assert_reduction(name: &str, s: SolverStats, factor: u64) {
    assert!(
        s.checks_requested >= factor * s.solver_queries.max(1),
        "{name}: solver queries not reduced ≥{factor}x: {} requests \
         (pre-incremental query count) vs {} full solves",
        s.checks_requested,
        s.solver_queries,
    );
    // Every request is answered by a shortcut or a full solve (solves can
    // exceed the residual: per-atom sub-solves have no top-level request).
    assert!(
        s.solver_queries + s.shortcuts() >= s.checks_requested,
        "{name}: unaccounted requests: {s:?}"
    );
}

fn explore_stats<N: NetworkFunction>(nf: N, level: StackLevel) -> ExploreStats {
    nf.explore(level).result.stats
}

#[test]
fn bridge_exploration_reduces_solver_queries_5x() {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let stats = explore_stats(Bridge::default(), level);
        assert_reduction("bridge", stats.solver, 5);
    }
}

#[test]
fn nat_exploration_reduces_solver_queries_5x() {
    for kind in [nat::AllocKind::A, nat::AllocKind::B] {
        let stats = explore_stats(
            Nat::with(nat::NatConfig::default(), kind),
            StackLevel::FullStack,
        );
        assert_reduction("nat", stats.solver, 5);
    }
}

#[test]
fn lpm_router_exploration_reduces_solver_queries_5x() {
    let stats = explore_stats(LpmRouter::default(), StackLevel::FullStack);
    assert_reduction("lpm_router", stats.solver, 5);
}

/// Exact path counts for every NF at both stack levels, pinned to the
/// values the pre-incremental explorer produced (every path's tags,
/// verdict and metrics are pinned by `tests/contract_golden.rs`;
/// expression-level parity by `tests/nf_api.rs` and the conservatism
/// suite).
#[test]
fn exploration_output_is_unchanged() {
    type PathCounter = Box<dyn Fn(StackLevel) -> usize>;
    fn paths<N: NetworkFunction>(nf: N, level: StackLevel) -> usize {
        nf.explore(level).result.paths.len()
    }
    let cases: Vec<(&str, usize, PathCounter)> = vec![
        ("bridge", 9, Box::new(|l| paths(Bridge::default(), l))),
        (
            "example_router",
            2,
            Box::new(|l| paths(ExampleRouter::default(), l)),
        ),
        ("firewall", 3, Box::new(|l| paths(Firewall::default(), l))),
        ("lb", 8, Box::new(|l| paths(LoadBalancer::default(), l))),
        (
            "lpm_router",
            4,
            Box::new(|l| paths(LpmRouter::default(), l)),
        ),
        (
            "nat_a",
            8,
            Box::new(|l| paths(Nat::with(nat::NatConfig::default(), nat::AllocKind::A), l)),
        ),
        (
            "nat_b",
            8,
            Box::new(|l| paths(Nat::with(nat::NatConfig::default(), nat::AllocKind::B), l)),
        ),
        (
            "static_router",
            13,
            Box::new(|l| paths(StaticRouter::default(), l)),
        ),
    ];
    for (name, expected, count) in &cases {
        for level in [StackLevel::NfOnly, StackLevel::FullStack] {
            assert_eq!(
                count(level),
                *expected,
                "{name} {level:?}: feasible-path count changed"
            );
        }
    }
}

/// Library callers see truncation as data, not a panic (the old explorer
/// `assert!`ed on `max_paths`).
#[test]
fn path_explosion_is_reported_not_panicked() {
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
    let mut ex = Explorer::new();
    ex.max_paths = 4;
    let result = ex.explore(wide_nf);
    assert!(result.truncated, "explosion must set the truncation marker");
    assert!(result.paths.len() <= 4);
    // Untruncated exploration of the same NF: 2^8 paths, marker clear.
    let full = Explorer::new().explore(wide_nf);
    assert!(!full.truncated);
    assert_eq!(full.paths.len(), 256);
}
