//! Property-based tests: the term pool's constant folding and algebraic
//! simplification must never change a term's value, every term's
//! recorded symbol support must be the symbols it reaches, and the
//! performance polynomial algebra must satisfy the semiring laws.

use std::collections::BTreeSet;

use bolt_expr::{
    BinOp, Monomial, PcvAssignment, PcvId, PerfExpr, SymId, Term, TermPool, TermRef, UnOp, Width,
};
use proptest::prelude::*;

/// A recipe for building a random term over two symbols.
#[derive(Debug, Clone)]
enum Recipe {
    SymA,
    SymB,
    Const(u64),
    Un(UnOp, Box<Recipe>),
    Bin(BinOp, Box<Recipe>, Box<Recipe>),
    Ite(Box<Recipe>, Box<Recipe>, Box<Recipe>),
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![
        Just(Recipe::SymA),
        Just(Recipe::SymB),
        any::<u64>().prop_map(Recipe::Const),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone()).prop_map(|a| Recipe::Un(UnOp::Not, Box::new(a))),
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Recipe::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Recipe::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

/// Build through the (simplifying) pool.
fn build(pool: &mut TermPool, r: &Recipe, a: TermRef, b: TermRef) -> TermRef {
    match r {
        Recipe::SymA => a,
        Recipe::SymB => b,
        Recipe::Const(v) => pool.constant(*v, Width::W32),
        Recipe::Un(op, x) => {
            let x = build(pool, x, a, b);
            pool.unop(*op, x)
        }
        Recipe::Bin(op, x, y) => {
            let x = build(pool, x, a, b);
            let y = build(pool, y, a, b);
            pool.binop(*op, x, y)
        }
        Recipe::Ite(c, x, y) => {
            let c = build(pool, c, a, b);
            let zero = pool.constant(0, Width::W32);
            let cb = pool.ne(c, zero);
            let x = build(pool, x, a, b);
            let y = build(pool, y, a, b);
            pool.ite(cb, x, y)
        }
    }
}

/// Reference semantics: evaluate the recipe directly (no simplification).
fn eval_ref(r: &Recipe, va: u64, vb: u64) -> u64 {
    let m = Width::W32.mask();
    match r {
        Recipe::SymA => va & m,
        Recipe::SymB => vb & m,
        Recipe::Const(v) => v & m,
        Recipe::Un(op, x) => op.apply(eval_ref(x, va, vb), Width::W32),
        Recipe::Bin(op, x, y) => op.apply(eval_ref(x, va, vb), eval_ref(y, va, vb), Width::W32),
        Recipe::Ite(c, x, y) => {
            if eval_ref(c, va, vb) != 0 {
                eval_ref(x, va, vb)
            } else {
                eval_ref(y, va, vb)
            }
        }
    }
}

/// One step of a random term DAG: an operation and three picks among
/// the terms built so far (each taken modulo the candidates' count).
type DagStep = (u8, u16, u16, u16, u64);

/// Build a DAG over a few 32-bit symbols and one boolean symbol, step by
/// step, through the (simplifying) pool. Every built term is a candidate
/// operand of later steps, so supports share, nest, repeat and empty
/// out in every combination the recipe draws: a union equal to either
/// side, equal sides, an empty side, and three-way `Ite` unions.
fn build_dag(steps: &[DagStep]) -> TermPool {
    let mut pool = TermPool::new();
    let mut vals: Vec<TermRef> = (0..3)
        .map(|i| pool.fresh_sym(format!("v{i}"), Width::W32))
        .collect();
    let mut bools = vec![pool.fresh_sym("c", Width::W1)];
    let pick = |from: &[TermRef], i: u16| from[i as usize % from.len()];
    for (n, &(op, i, j, k, value)) in steps.iter().enumerate() {
        let (a, b) = (pick(&vals, i), pick(&vals, j));
        match op % 8 {
            0 => vals.push(pool.constant(value % 4, Width::W32)),
            1 => vals.push(pool.not(a)),
            2 => {
                let ops = [BinOp::Add, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Sub];
                vals.push(pool.binop(ops[k as usize % ops.len()], a, b));
            }
            3 => bools.push(if k % 2 == 0 {
                pool.eq(a, b)
            } else {
                pool.ult(a, b)
            }),
            4 => {
                let c = pick(&bools, k);
                vals.push(pool.ite(c, a, b));
            }
            5 => {
                let narrow = pool.trunc(a, Width::W8);
                vals.push(pool.zext(narrow, Width::W32));
            }
            6 => {
                let (c, d) = (pick(&bools, i), pick(&bools, k));
                bools.push(pool.and(c, d));
            }
            _ => vals.push(pool.fresh_sym(format!("s{n}"), Width::W32)),
        }
    }
    pool
}

/// The symbols a recursive walk of `t` reaches, sorted and deduplicated.
fn walked_support(pool: &TermPool, t: TermRef, out: &mut BTreeSet<SymId>) {
    match *pool.get(t) {
        Term::Const { .. } => {}
        Term::Sym { id, .. } => {
            out.insert(id);
        }
        Term::Unop { a, .. } | Term::Zext { a, .. } | Term::Trunc { a, .. } => {
            walked_support(pool, a, out)
        }
        Term::Binop { a, b, .. } => {
            walked_support(pool, a, out);
            walked_support(pool, b, out);
        }
        Term::Ite { c, t, e } => {
            walked_support(pool, c, out);
            walked_support(pool, t, out);
            walked_support(pool, e, out);
        }
    }
}

fn arb_dag() -> impl Strategy<Value = Vec<DagStep>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u64>(),
        ),
        0..48,
    )
}

proptest! {
    /// Every interned term's recorded support is the sorted,
    /// deduplicated set of symbols it reaches, and a pool rebuilt by
    /// replaying its arena through `intern_node` records the same
    /// support for every term.
    #[test]
    fn supports_are_the_symbols_each_term_reaches(steps in arb_dag()) {
        let pool = build_dag(&steps);
        let mut replayed = TermPool::new();
        for (name, width) in pool.sym_entries() {
            replayed.register_sym(name, width);
        }
        for node in pool.nodes() {
            replayed.intern_node(node.clone());
        }
        prop_assert_eq!(replayed.nodes(), pool.nodes());
        for i in 0..pool.len() {
            let t = TermRef::from_raw(i as u32);
            let mut want = BTreeSet::new();
            walked_support(&pool, t, &mut want);
            let want: Vec<SymId> = want.into_iter().collect();
            prop_assert_eq!(pool.syms_of(t), &want[..], "term {}", pool.display(t));
            prop_assert_eq!(replayed.syms_of(t), &want[..]);
        }
    }

    /// Simplification must be semantics-preserving for every input.
    #[test]
    fn simplifier_preserves_evaluation(r in arb_recipe(), va: u64, vb: u64) {
        let mut pool = TermPool::new();
        let a = pool.fresh_sym("a", Width::W32);
        let b = pool.fresh_sym("b", Width::W32);
        let t = build(&mut pool, &r, a, b);
        let got = pool.eval(t, &|id| if id == 0 { va } else { vb });
        let want = eval_ref(&r, va, vb);
        prop_assert_eq!(got, want);
    }

    /// zext(trunc-free value) then eval keeps the value; trunc masks.
    #[test]
    fn zext_trunc_semantics(v: u64) {
        let mut pool = TermPool::new();
        let s = pool.fresh_sym("s", Width::W16);
        let z = pool.zext(s, Width::W64);
        prop_assert_eq!(pool.eval(z, &|_| v), v & 0xFFFF);
        let s64 = pool.fresh_sym("w", Width::W64);
        let tr = pool.trunc(s64, Width::W8);
        prop_assert_eq!(pool.eval(tr, &|id| if id == 1 { v } else { 0 }), v & 0xFF);
    }

    /// PerfExpr addition and multiplication agree with pointwise
    /// evaluation (semiring homomorphism).
    #[test]
    fn perf_expr_semiring(
        c1 in 0u64..1000, c2 in 0u64..1000,
        k1 in 0u64..100, k2 in 0u64..100,
        e in 0u64..1000, t in 0u64..1000,
    ) {
        let pe = PcvId(0);
        let pt = PcvId(1);
        let mut x = PerfExpr::constant(c1);
        x.add_assign(&PerfExpr::var(pe, k1));
        let mut y = PerfExpr::constant(c2);
        y.add_assign(&PerfExpr::var(pt, k2));
        let mut env = PcvAssignment::new();
        env.set(pe, e).set(pt, t);
        let xv = c1 + k1 * e;
        let yv = c2 + k2 * t;
        prop_assert_eq!(x.add(&y).eval(&env), xv + yv);
        prop_assert_eq!(x.mul(&y).eval(&env), xv * yv);
        prop_assert_eq!(x.scale(3).eval(&env), 3 * xv);
        // Monomial product commutes.
        let m1 = Monomial::var(pe).mul(&Monomial::var(pt));
        let m2 = Monomial::var(pt).mul(&Monomial::var(pe));
        prop_assert_eq!(m1, m2);
    }
}
