//! [`PerfExpr`] against the representation it replaced, kept here as the
//! trivially correct model: a `BTreeMap` from monomial to coefficient,
//! with zero coefficients never stored. On random polynomials —
//! monomials past the inline degree included — every operation must
//! give the same answer, the same terms in the same order, and the same
//! `write_perf` bytes; and monomials must order as their variable lists.

use std::collections::BTreeMap;

use bolt_expr::{Monomial, PcvAssignment, PcvId, PerfExpr};
use bolt_store::codec::write_perf;
use bolt_store::ByteWriter;
use proptest::prelude::*;

/// The reference polynomial.
#[derive(Clone, Default)]
struct RefExpr(BTreeMap<Monomial, u64>);

impl RefExpr {
    fn add_term(&mut self, m: Monomial, c: u64) {
        if c != 0 {
            let e = self.0.entry(m).or_insert(0);
            *e = e.saturating_add(c);
        }
    }

    fn add_assign(&mut self, other: &RefExpr) {
        for (m, &c) in &other.0 {
            self.add_term(m.clone(), c);
        }
    }

    fn scale(&self, k: u64) -> RefExpr {
        let mut r = RefExpr::default();
        for (m, &c) in &self.0 {
            r.add_term(m.clone(), c.saturating_mul(k));
        }
        r
    }

    fn mul(&self, other: &RefExpr) -> RefExpr {
        let mut r = RefExpr::default();
        for (ma, &ca) in &self.0 {
            for (mb, &cb) in &other.0 {
                r.add_term(ma.mul(mb), ca.saturating_mul(cb));
            }
        }
        r
    }

    fn coeff(&self, m: &Monomial) -> u64 {
        self.0.get(m).copied().unwrap_or(0)
    }

    fn eval(&self, env: &PcvAssignment) -> u64 {
        self.0.iter().fold(0u64, |acc, (m, &c)| {
            acc.saturating_add(c.saturating_mul(m.eval(env)))
        })
    }

    fn degree(&self) -> usize {
        self.0.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    fn pcvs(&self) -> Vec<PcvId> {
        let mut v: Vec<PcvId> = self.0.keys().flat_map(|m| m.vars().to_vec()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The record layout `write_perf` documents: the term count, then
    /// per term its degree, variables and coefficient, all varints.
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.varint(self.0.len() as u64);
        for (m, &c) in &self.0 {
            w.varint(m.degree() as u64);
            for v in m.vars() {
                w.varint(v.0 as u64);
            }
            w.varint(c);
        }
        w.into_bytes()
    }
}

type Terms = Vec<(Vec<u32>, u64)>;

/// Up to eight terms over six PCVs, of degree up to six (so some
/// monomials live on the heap), with coefficients that include 0 and
/// `u64::MAX`. Few PCVs make the two sides of a binary operation share
/// monomials.
fn arb_terms() -> impl Strategy<Value = Terms> {
    prop::collection::vec((prop::collection::vec(0u32..6, 0..7), any::<u64>()), 0..8)
}

fn monomial(vars: &[u32]) -> Monomial {
    Monomial::from_vars(vars.iter().map(|&v| PcvId(v)).collect())
}

/// The same polynomial both ways, each built term by term.
fn build(terms: &Terms) -> (PerfExpr, RefExpr) {
    let mut e = PerfExpr::zero();
    let mut r = RefExpr::default();
    for (vars, c) in terms {
        e.add_assign(&PerfExpr::term(monomial(vars), *c));
        r.add_term(monomial(vars), *c);
    }
    (e, r)
}

fn write(e: &PerfExpr) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_perf(&mut w, e);
    w.into_bytes()
}

/// Same terms in the same order, same bytes, same derived answers.
fn assert_same(e: &PerfExpr, r: &RefExpr) {
    let got: Vec<(Monomial, u64)> = e.iter().map(|(m, c)| (m.clone(), c)).collect();
    let want: Vec<(Monomial, u64)> = r.0.iter().map(|(m, &c)| (m.clone(), c)).collect();
    assert_eq!(got, want, "terms or their order differ");
    assert_eq!(write(e), r.encode(), "write_perf bytes differ");
    assert_eq!(e.degree(), r.degree());
    assert_eq!(e.pcvs(), r.pcvs());
    assert_eq!(e.is_zero(), r.0.is_empty());
    assert_eq!(e.constant_term(), r.coeff(&Monomial::one()));
    let as_const = match r.0.len() {
        0 => Some(0),
        1 => r.0.get(&Monomial::one()).copied(),
        _ => None,
    };
    assert_eq!(e.as_const(), as_const);
}

fn env(values: &[u64]) -> PcvAssignment {
    let mut env = PcvAssignment::new();
    for (i, &v) in values.iter().enumerate() {
        env.set(PcvId(i as u32), v);
    }
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn perf_expr_matches_the_map_reference(
        a in arb_terms(),
        b in arb_terms(),
        k: u64,
        c: u64,
        values in prop::collection::vec(prop_oneof![0u64..8, any::<u64>()], 6),
    ) {
        let (ea, ra) = build(&a);
        let (eb, rb) = build(&b);
        assert_same(&ea, &ra);
        assert_same(&eb, &rb);

        let mut sum = ea.clone();
        sum.add_assign(&eb);
        let mut rsum = ra.clone();
        rsum.add_assign(&rb);
        assert_same(&sum, &rsum);
        prop_assert_eq!(ea.add(&eb), sum.clone());

        let mut plus = ea.clone();
        plus.add_const(c);
        let mut rplus = ra.clone();
        rplus.add_term(Monomial::one(), c);
        assert_same(&plus, &rplus);

        assert_same(&ea.scale(k), &ra.scale(k));
        assert_same(&ea.mul(&eb), &ra.mul(&rb));

        let env = env(&values);
        for (e, r) in [(&ea, &ra), (&eb, &rb), (&sum, &rsum)] {
            prop_assert_eq!(e.eval(&env), r.eval(&env));
        }
        for (vars, _) in a.iter().chain(&b) {
            let m = monomial(vars);
            prop_assert_eq!(sum.coeff(&m), rsum.coeff(&m));
            prop_assert_eq!(ea.coeff(&m), ra.coeff(&m));
            // The order both representations sort by is that of the
            // sorted variable lists, inline or on the heap.
            for (other, _) in a.iter().chain(&b) {
                let n = monomial(other);
                prop_assert_eq!(m.cmp(&n), m.vars().cmp(n.vars()));
                prop_assert_eq!(m == n, m.vars() == n.vars());
            }
        }
    }
}
