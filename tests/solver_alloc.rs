//! The solver allocates nothing per unit of repeated work. The component
//! sweep allocates nothing per candidate: an exhausted sweep over 256
//! candidates makes as many allocations as one over 16, with two swept
//! symbols (where the candidate loop carries), and a masked byte costs
//! what a narrowed one does. And a context's checkpoint is recycled: once
//! a `push`/`pop` pair has sized its frame, further pairs allocate
//! nothing. Counted per thread with the pass-through allocator of
//! `tests/counting_alloc`; the counts repeat exactly, so the gates do not
//! depend on the machine.

mod counting_alloc;

use bolt::expr::{TermPool, TermRef, Width};
use bolt::solver::{Solver, SolverCache, SolverCtx};

/// The shape `gen_chain` spends its time on — the router's IP-options
/// loop over the version/IHL byte meeting the firewall's header-length
/// check: `!((x & 15) < 5)`, `k < ((x & 15) - 5)` for k = 0..=10, closed
/// by `(x & 15) <= 5`. No value of `x` satisfies it. Every read of `x` is
/// `x & 15`, so the sweep visits 16 of the 256 values; `narrowed` adds
/// `x < 16`, which reads all of `x` but leaves the same 16: both forms
/// refute in 16 candidates.
fn exhausted_sweep(narrowed: bool) -> (TermPool, Vec<TermRef>) {
    let mut p = TermPool::new();
    let x = p.fresh_sym("pkt@14:1", Width::W8);
    let c15 = p.constant(15, Width::W8);
    let c5 = p.constant(5, Width::W8);
    let ihl = p.and(x, c15);
    let short = p.ult(ihl, c5);
    let mut cs = vec![p.not(short)];
    let options = p.sub(ihl, c5);
    for k in 0..=10 {
        let k = p.constant(k, Width::W8);
        cs.push(p.ult(k, options));
    }
    cs.push(p.ule(ihl, c5));
    if narrowed {
        let c16 = p.constant(16, Width::W8);
        cs.push(p.ult(x, c16));
    }
    (p, cs)
}

/// Two swept symbols: `x, y < side` with `k < x + y` for k = 0..=10,
/// closed by `x + y == 31` — out of reach for any side up to 16, and no
/// mask narrows the sweep, so all `side * side` candidates are visited, x
/// varying fastest.
fn exhausted_square(side: u64) -> (TermPool, Vec<TermRef>) {
    let mut p = TermPool::new();
    let x = p.fresh_sym("pkt@14:1", Width::W8);
    let y = p.fresh_sym("pkt@15:1", Width::W8);
    let side = p.constant(side, Width::W8);
    let sum = p.add(x, y);
    let mut cs = vec![p.ult(x, side), p.ult(y, side)];
    for k in 0..=10 {
        let k = p.constant(k, Width::W8);
        cs.push(p.ult(k, sum));
    }
    let c31 = p.constant(31, Width::W8);
    cs.push(p.eq(sum, c31));
    (p, cs)
}

fn allocations_to_refute((p, cs): (TermPool, Vec<TermRef>)) -> usize {
    let before = counting_alloc::allocations();
    let feasible = Solver::default().is_feasible(&p, &cs);
    let allocations = counting_alloc::allocations() - before;
    assert!(
        !feasible,
        "no candidate satisfies the list: the sweep is exhausted"
    );
    allocations
}

#[test]
fn an_exhausted_sweep_allocates_nothing_per_candidate() {
    // One more constraint costs a fixed handful of allocations; sixteen
    // times the candidates (the unmasked square) must cost none.
    let few = allocations_to_refute(exhausted_sweep(true));
    let all = allocations_to_refute(exhausted_sweep(false));
    assert!(
        few.abs_diff(all) <= 8,
        "{few} allocations to sweep x < 16, {all} to sweep x & 15"
    );
    let few = allocations_to_refute(exhausted_square(4));
    let all = allocations_to_refute(exhausted_square(16));
    assert!(
        few.abs_diff(all) <= 8,
        "{few} allocations to sweep 4 x 4 candidates, {all} to sweep 16 x 16"
    );
}

#[test]
fn a_checkpoint_allocates_nothing_after_the_first() {
    // A few constraints that leave something in every part of the
    // propagation state: a union, a binding, intervals, a disequality and
    // a residual atom; then a live model to copy with them.
    let mut p = TermPool::new();
    let x = p.fresh_sym("x", Width::W16);
    let y = p.fresh_sym("y", Width::W16);
    let z = p.fresh_sym("z", Width::W16);
    let (c3, c7, c100) = (
        p.constant(3, Width::W16),
        p.constant(7, Width::W16),
        p.constant(100, Width::W16),
    );
    let sum = p.add(y, z);
    let cs = [
        p.eq(x, y),
        p.ult(x, c100),
        p.ne(y, c3),
        p.eq(z, c7),
        p.eq(sum, c100),
    ];
    let solver = Solver::default();
    let mut ctx = SolverCtx::new(&solver);
    for c in cs {
        ctx.assert_term(&p, c);
    }
    let mut cache = SolverCache::new();
    assert!(ctx.current_feasible(&p, &mut cache));
    assert!(
        ctx.model().is_some(),
        "a live model for the checkpoint to copy"
    );
    // The warm-up pair sizes the frame.
    ctx.push();
    ctx.pop();
    let before = counting_alloc::allocations();
    for _ in 0..64 {
        ctx.push();
        ctx.pop();
    }
    let allocations = counting_alloc::allocations() - before;
    assert_eq!(
        allocations, 0,
        "64 push/pop pairs after the first made {allocations} allocations"
    );
    assert_eq!((ctx.depth(), ctx.constraints()), (0, &cs[..]));
    assert!(ctx.model().is_some_and(|m| m.satisfies(&p, &cs)));
}
