//! Property-based tests: every Sat verdict must carry a genuine witness,
//! crafted contradictions must never come back Sat, and the incremental
//! `SolverCtx` push/pop path must classify exactly like batch `check()`.

use bolt_expr::{TermPool, TermRef, Width};
use bolt_solver::{SolveResult, Solver, SolverCache, SolverCtx};
use proptest::prelude::*;

/// Build a random conjunction over three 8-bit symbols from a compact
/// op encoding, mixing absorbable comparisons, negations, cross-symbol
/// links, residual-shaped arithmetic atoms, width adapters (op codes
/// 8/9) and the masked/offset derived-field atoms the chain workloads
/// enumerate (op codes 10/11).
fn random_conjunction(p: &mut TermPool, spec: &[(u8, u8, u8)]) -> Vec<TermRef> {
    let syms = [
        p.fresh_sym("x", Width::W8),
        p.fresh_sym("y", Width::W8),
        p.fresh_sym("z", Width::W8),
    ];
    let c15 = p.constant(15, Width::W8);
    let c5 = p.constant(5, Width::W8);
    let c4 = p.constant(4, Width::W8);
    let mut cs = Vec::new();
    for &(op, s, v) in spec {
        let a = syms[(s % 3) as usize];
        let b = syms[((s / 3) % 3) as usize];
        let k = p.constant(v as u64, Width::W8);
        let atom = match op % 12 {
            0 => p.eq(a, k),
            1 => p.ne(a, k),
            2 => p.ult(a, k),
            3 => p.ule(k, a),
            4 => p.eq(a, b),
            5 => {
                let lt = p.ult(a, k);
                p.not(lt)
            }
            6 => {
                // Residual shape: a + b == v.
                let sum = p.add(a, b);
                p.eq(sum, k)
            }
            7 => {
                let c1 = p.eq(a, k);
                let c2 = p.ne(b, k);
                p.and(c1, c2)
            }
            8 => {
                // Width adapter: zext(sym) == wide constant. The constant
                // sometimes exceeds the 8-bit range, making the equation
                // unsatisfiable (repair must not fake a model).
                let z = p.zext(a, Width::W16);
                let wide = p.constant((v as u64) * 13 % 300, Width::W16);
                p.eq(z, wide)
            }
            9 => {
                // Width adapter: trunc(sym) == low bit.
                let t = p.trunc(a, Width::W1);
                let bit = p.constant(v as u64 & 1, Width::W1);
                p.eq(bit, t)
            }
            10 => {
                // The shape the chain workloads sweep, a derived field
                // against a constant: the firewall's `(ihl & 15) <= v`,
                // its negated `<`, or a shifted field. Never absorbed, so
                // the symbol's component is decided by enumeration.
                match s / 3 {
                    0 => {
                        let low = p.and(a, c15);
                        p.ule(low, k)
                    }
                    1 => {
                        let low = p.and(a, c15);
                        let lt = p.ult(low, k);
                        p.not(lt)
                    }
                    _ => {
                        let high = p.shr(a, c4);
                        p.eq(high, k)
                    }
                }
            }
            _ => {
                // The router's IP-options loop term: v < ((a & 15) - 5).
                let low = p.and(a, c15);
                let off = p.sub(low, c5);
                p.ult(k, off)
            }
        };
        // Constant-folded atoms (e.g. x == x) are legal constraints too.
        cs.push(atom);
    }
    cs
}

/// One atom of the shape the catalog and chain workloads enumerate, over
/// an 8-bit symbol `s`: `(s & a) ⋈ k2`, `((s & a) - k1) ⋈ k2` or
/// `(s >> a % 8) ⋈ k2`, with ⋈ one of `==`, `<`, `<=` (`cmp` 0..3) or
/// its negation (`cmp` 3..6). `(shape, sym, a, k1, k2, cmp)`.
type HotAtom = (u8, u8, u8, u8, u8, u8);

/// The atom's truth for `s = v`, in plain integer arithmetic: the
/// reference the solver's term evaluation is judged against.
fn hot_atom_holds(&(shape, _, a, k1, k2, cmp): &HotAtom, v: u8) -> bool {
    let lhs = match shape {
        0 => v & a,
        1 => (v & a).wrapping_sub(k1),
        _ => v >> (a % 8),
    };
    let holds = match cmp % 3 {
        0 => lhs == k2,
        1 => lhs < k2,
        _ => lhs <= k2,
    };
    holds != (cmp >= 3)
}

fn hot_atom_term(p: &mut TermPool, s: TermRef, &(shape, _, a, k1, k2, cmp): &HotAtom) -> TermRef {
    let lhs = match shape {
        0 => {
            let m = p.constant(a as u64, Width::W8);
            p.and(s, m)
        }
        1 => {
            let m = p.constant(a as u64, Width::W8);
            let low = p.and(s, m);
            let off = p.constant(k1 as u64, Width::W8);
            p.sub(low, off)
        }
        _ => {
            let n = p.constant((a % 8) as u64, Width::W8);
            p.shr(s, n)
        }
    };
    let k = p.constant(k2 as u64, Width::W8);
    let atom = match cmp % 3 {
        0 => p.eq(lhs, k),
        1 => p.ult(lhs, k),
        _ => p.ule(lhs, k),
    };
    if cmp >= 3 {
        p.not(atom)
    } else {
        atom
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Ground truth for the shape the solver spends its time on: masked,
    /// offset and shifted derived fields of one or two bytes against
    /// constants, every component small enough to enumerate. Against
    /// exhaustive evaluation over the full domain the verdict is exact —
    /// never `Unknown` — and a `Sat` witness is the *first* model in sweep
    /// order (the lower-numbered symbol varies fastest, each from its low
    /// end), so a single free symbol gets its smallest satisfying value.
    /// `SolverCache` reuses these witnesses, so their identity is
    /// behaviour, not an accident of the search.
    #[test]
    fn enumerated_components_match_exhaustive_evaluation(
        atoms in proptest::collection::vec(
            (0u8..3, 0u8..2, any::<u8>(), 0u8..24, 0u8..24, 0u8..6), 1..8),
        (link, link_k) in (0u8..4, any::<u8>()),
    ) {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let y = p.fresh_sym("y", Width::W8);
        let mut cs: Vec<TermRef> = atoms
            .iter()
            .map(|atom| hot_atom_term(&mut p, if atom.1 == 0 { x } else { y }, atom))
            .collect();
        // Half the cases join the two bytes into one component, narrowed
        // to 64 x 64 candidates: exactly the 4 096 the sweep still takes.
        let linked = |xv: u8, yv: u8| match link {
            2 => xv <= 63 && yv <= 63 && (xv & 15) < (yv >> 2),
            3 => xv <= 63 && yv <= 63 && xv.wrapping_add(yv) == link_k,
            _ => true,
        };
        if link >= 2 {
            let c63 = p.constant(63, Width::W8);
            cs.push(p.ule(x, c63));
            cs.push(p.ule(y, c63));
            cs.push(if link == 2 {
                let c15 = p.constant(15, Width::W8);
                let c2 = p.constant(2, Width::W8);
                let low = p.and(x, c15);
                let high = p.shr(y, c2);
                p.ult(low, high)
            } else {
                let sum = p.add(x, y);
                let k = p.constant(link_k as u64, Width::W8);
                p.eq(sum, k)
            });
        }
        let holds = |sym: u8, v: u8| {
            atoms.iter().filter(|a| a.1 == sym).all(|a| hot_atom_holds(a, v))
        };
        let first_model = (0..=255u8)
            .filter(|&yv| holds(1, yv))
            .flat_map(|yv| (0..=255u8).map(move |xv| (xv, yv)))
            .find(|&(xv, yv)| holds(0, xv) && linked(xv, yv));
        match Solver::default().check(&p, &cs) {
            SolveResult::Sat(w) => {
                prop_assert!(w.satisfies(&p, &cs), "witness does not satisfy");
                prop_assert_eq!(Some((w.get(0) as u8, w.get(1) as u8)), first_model);
            }
            SolveResult::Unsat => prop_assert_eq!(first_model, None, "Unsat, but a model exists"),
            SolveResult::Unknown => prop_assert!(false, "every component is enumerable"),
        }
        prop_assert_eq!(Solver::default().is_feasible(&p, &cs), first_model.is_some());
    }
}

proptest! {
    /// Random conjunctions of interval constraints over two symbols:
    /// the solver's verdict must agree with a brute-force check over the
    /// (small) domain.
    #[test]
    fn interval_conjunctions_decided_correctly(
        lo1 in 0u64..200, hi1 in 0u64..200,
        lo2 in 0u64..200, hi2 in 0u64..200,
        sum_max in 0u64..64,
    ) {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let y = p.fresh_sym("y", Width::W8);
        let mut cs = Vec::new();
        let l1 = p.constant(lo1.min(255), Width::W8);
        let h1 = p.constant(hi1.min(255), Width::W8);
        let l2 = p.constant(lo2.min(255), Width::W8);
        let h2 = p.constant(hi2.min(255), Width::W8);
        cs.push(p.ule(l1, x));
        cs.push(p.ule(x, h1));
        cs.push(p.ule(l2, y));
        cs.push(p.ule(y, h2));
        // A cross-symbol constraint the propagator cannot absorb: x + y
        // must wrap-sum below sum_max (8-bit add).
        let sum = p.add(x, y);
        let sm = p.constant(sum_max, Width::W8);
        cs.push(p.ult(sum, sm));
        let verdict = Solver::default().check(&p, &cs);
        // Brute force over the byte domain.
        let mut sat = false;
        'outer: for xv in lo1.min(255)..=hi1.min(255) {
            for yv in lo2.min(255)..=hi2.min(255) {
                if (xv + yv) & 0xFF < sum_max {
                    sat = true;
                    break 'outer;
                }
            }
        }
        match verdict {
            SolveResult::Sat(w) => {
                prop_assert!(sat, "solver Sat but brute force says Unsat");
                prop_assert!(w.satisfies(&p, &cs), "witness does not satisfy");
            }
            SolveResult::Unsat => prop_assert!(!sat, "solver Unsat but a model exists"),
            SolveResult::Unknown => {
                // Unknown is always sound; it just costs precision.
            }
        }
    }

    /// Equality chains bind transitively and witnesses respect them.
    #[test]
    fn equality_chains(v in 0u64..0xFFFF, n in 2usize..6) {
        let mut p = TermPool::new();
        let syms: Vec<_> = (0..n).map(|i| p.fresh_sym(format!("s{i}"), Width::W16)).collect();
        let mut cs = Vec::new();
        for w in syms.windows(2) {
            cs.push(p.eq(w[0], w[1]));
        }
        let c = p.constant(v, Width::W16);
        cs.push(p.eq(syms[n - 1], c));
        match Solver::default().check(&p, &cs) {
            SolveResult::Sat(w) => {
                for i in 0..n as u32 {
                    prop_assert_eq!(w.get(i), v & 0xFFFF);
                }
            }
            other => prop_assert!(false, "expected Sat, got {:?}", other),
        }
    }

    /// A pinned symbol with a contradicting disequality is Unsat.
    #[test]
    fn pinned_disequality_unsat(v in 0u64..0xFFFF) {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W16);
        let c = p.constant(v, Width::W16);
        let eq = p.eq(x, c);
        let ne = p.ne(x, c);
        prop_assert_eq!(Solver::default().check(&p, &[eq, ne]), SolveResult::Unsat);
    }

    /// The incremental context, fed the same conjunction constraint by
    /// constraint, must return the *bit-identical* result of the batch
    /// decision procedure — same class, same witness.
    #[test]
    fn incremental_check_equals_batch(
        spec in proptest::collection::vec((0u8..12, 0u8..9, 0u8..20), 1..10),
    ) {
        let mut p = TermPool::new();
        let cs = random_conjunction(&mut p, &spec);
        let s = Solver::default();
        let batch = s.check(&p, &cs);
        if let SolveResult::Sat(w) = &batch {
            prop_assert!(w.satisfies(&p, &cs), "batch witness must verify");
        }
        let mut ctx = SolverCtx::new(&s);
        for &c in &cs {
            ctx.assert_term(&p, c);
        }
        prop_assert_eq!(ctx.check(&p), batch);
    }

    /// A push/pop probe must classify `prefix + [atom]` exactly as the
    /// batch feasibility check does, every `Sat` witness en route must
    /// verify, and popping must fully restore the prefix state.
    #[test]
    fn probe_equals_batch_on_extension(
        spec in proptest::collection::vec((0u8..12, 0u8..9, 0u8..20), 1..8),
        probe_spec in (0u8..12, 0u8..9, 0u8..20),
    ) {
        let mut p = TermPool::new();
        let mut cs = random_conjunction(&mut p, &spec);
        let atom = random_conjunction(&mut p, &[probe_spec]).pop().unwrap();
        let s = Solver::default();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        for &c in &cs {
            ctx.assert_term(&p, c);
        }
        let mut extended = cs.clone();
        extended.push(atom);
        // Probe twice: the second answer comes from the caches and must
        // agree with the first (and with batch).
        let batch_ext = s.is_feasible(&p, &extended);
        prop_assert_eq!(ctx.probe_feasible(&p, &mut cache, atom), batch_ext);
        prop_assert_eq!(ctx.probe_feasible(&p, &mut cache, atom), batch_ext);
        prop_assert_eq!(ctx.depth(), 0);
        prop_assert_eq!(ctx.constraints(), cs.as_slice());
        // The popped context still decides the prefix exactly like batch.
        prop_assert_eq!(ctx.check(&p), s.check(&p, &cs));
        // And the model it may have installed is genuine.
        if let Some(m) = ctx.model() {
            prop_assert!(m.satisfies(&p, &cs), "installed model must verify");
        }
        // Committing the atom and re-checking matches batch on the
        // extended list as well.
        ctx.assert_term(&p, atom);
        cs.push(atom);
        prop_assert_eq!(ctx.check(&p), s.check(&p, &cs));
    }

    /// Conjunctions probed with a width-adapter equation (`eq(zext(sym),
    /// k)` / `eq(trunc(sym), k)` — op codes 8/9) or a derived-field atom
    /// (10/11): the incremental context, whose model-repair path handles
    /// the adapter shapes, must stay bit-identical to batch `check()`
    /// across assert/probe.
    #[test]
    fn incremental_matches_batch_with_width_adapters(
        spec in proptest::collection::vec((0u8..12, 0u8..9, 0u8..20), 1..10),
        probe_spec in (8u8..12, 0u8..9, 0u8..20),
    ) {
        let mut p = TermPool::new();
        let cs = random_conjunction(&mut p, &spec);
        let atom = random_conjunction(&mut p, &[probe_spec]).pop().unwrap();
        let s = Solver::default();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        for &c in &cs {
            ctx.assert_term(&p, c);
            // Any model the repair keeps alive must be genuine.
            if let Some(m) = ctx.model() {
                prop_assert!(m.satisfies(&p, ctx.constraints()),
                    "repaired model must verify");
            }
        }
        prop_assert_eq!(ctx.check(&p), s.check(&p, &cs));
        let mut extended = cs.clone();
        extended.push(atom);
        prop_assert_eq!(
            ctx.probe_feasible(&p, &mut cache, atom),
            s.is_feasible(&p, &extended)
        );
    }

    /// One-sided width-adapter equations over *fresh* symbols — exactly
    /// the shape the extended witness repair targets. Classification must
    /// match batch at every step even though the context answers most
    /// steps from the repaired model alone.
    #[test]
    fn width_adapter_repair_is_classification_identical(
        steps in proptest::collection::vec((0u8..3, 0u64..400), 1..10),
    ) {
        let mut p = TermPool::new();
        let s = Solver::default();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        let mut cs: Vec<TermRef> = Vec::new();
        for (i, &(shape, v)) in steps.iter().enumerate() {
            let sym = p.fresh_sym(format!("f{i}"), Width::W8);
            let atom = match shape {
                0 => {
                    let z = p.zext(sym, Width::W16);
                    let k = p.constant(v, Width::W16); // may exceed 8 bits
                    p.eq(z, k)
                }
                1 => {
                    let t = p.trunc(sym, Width::W1);
                    let k = p.constant(v & 1, Width::W1);
                    p.eq(t, k)
                }
                _ => {
                    let k = p.constant(v & 0xFF, Width::W8);
                    p.eq(k, sym)
                }
            };
            let mut ext = cs.clone();
            ext.push(atom);
            prop_assert_eq!(
                ctx.probe_feasible(&p, &mut cache, atom),
                s.is_feasible(&p, &ext),
                "probe diverged at step {}", i
            );
            ctx.assert_term(&p, atom);
            cs.push(atom);
            if let Some(m) = ctx.model() {
                prop_assert!(m.satisfies(&p, &cs), "kept model must verify");
            }
            prop_assert_eq!(
                ctx.current_feasible(&p, &mut cache),
                s.is_feasible(&p, &cs),
                "classification diverged at step {}", i
            );
        }
    }
}

proptest! {
    /// One long-lived context driven through random interleavings of
    /// assert, push, probe, whole-list check and pop, nested up to depth
    /// 4, against one shared cache. Frames come back from `pop` holding
    /// the state they last saw and are copied over by the next `push`,
    /// and the prefix's memo keys are cut on every `pop`, so a stale
    /// frame or key shows up here as a verdict, list or model that
    /// differs from the batch solver's on the same list.
    #[test]
    fn recycled_frames_and_prefix_keys_match_batch(
        atom_spec in proptest::collection::vec((0u8..12, 0u8..9, 0u8..20), 9..13),
        steps in proptest::collection::vec((0u8..5, 0u8..12), 8..60),
    ) {
        let mut p = TermPool::new();
        // Atoms over three groups of three symbols: within a group the
        // lists interact and cached models answer for several of them,
        // and a group first asserted inside a checkpoint is unknown to
        // the state a `pop` restores.
        let atoms: Vec<TermRef> = atom_spec
            .chunks(4)
            .flat_map(|group| random_conjunction(&mut p, group))
            .collect();
        let s = Solver::default();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        let mut cs: Vec<TermRef> = Vec::new();
        let mut saved: Vec<Vec<TermRef>> = Vec::new();
        for (i, &(op, a)) in steps.iter().enumerate() {
            let atom = atoms[a as usize % atoms.len()];
            match op {
                0 => {
                    ctx.assert_term(&p, atom);
                    cs.push(atom);
                }
                1 if saved.len() < 4 => {
                    ctx.push();
                    saved.push(cs.clone());
                }
                2 => {
                    let mut ext = cs.clone();
                    ext.push(atom);
                    prop_assert_eq!(
                        ctx.probe_feasible(&p, &mut cache, atom),
                        s.is_feasible(&p, &ext),
                        "probe diverged from batch at step {}", i
                    );
                }
                3 => prop_assert_eq!(
                    ctx.current_feasible(&p, &mut cache),
                    s.is_feasible(&p, &cs),
                    "whole-list check diverged from batch at step {}", i
                ),
                // A pop, or a push that would go past depth 4.
                _ => {
                    if let Some(prefix) = saved.pop() {
                        ctx.pop();
                        cs = prefix;
                    }
                }
            }
            prop_assert_eq!(ctx.depth(), saved.len(), "depth at step {}", i);
            prop_assert_eq!(ctx.constraints(), cs.as_slice(), "list at step {}", i);
            prop_assert_eq!(ctx.check(&p), s.check(&p, &cs), "check at step {}", i);
            if let Some(m) = ctx.model() {
                prop_assert!(m.satisfies(&p, &cs), "model must verify at step {}", i);
            }
        }
    }
}
