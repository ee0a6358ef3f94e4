//! Constraint solving for NF path constraints.
//!
//! The paper's BOLT prototype drives Z3/STP through KLEE, and makes
//! exhaustive path exploration tractable with *incremental* solving and
//! caching inside KLEE. The constraints produced by symbolic execution of
//! *network functions* are shallow, though: equalities between packet
//! fields and constants, range checks, and boolean case-selection symbols
//! injected by data-structure models. This crate implements a small
//! decision procedure specialised to that fragment:
//!
//! 1. **Propagation** — top-level conjunctions are flattened; equalities
//!    bind symbols through a union-find; comparisons against constants
//!    narrow per-symbol intervals, a prefix match `(x & m) == c` (`m` a
//!    run of high bits) among them; contradictions found here are
//!    definitive [`SolveResult::Unsat`].
//! 2. **Absorption** — an atom every value of the intervals satisfies
//!    (an equality inside one union-find class, a one-symbol comparison
//!    or prefix match its interval decides) is left out of everything
//!    below but the final verification.
//! 3. **Component sweep** — the other constraints fall into components
//!    that share free symbols. Each component's candidates are tried in
//!    a fixed order, up to 4 096 of them: the first model found is the
//!    component's, and a component refuted to its last candidate is a
//!    definitive `Unsat`. A symbol only absorbed atoms mention takes its
//!    interval's low end.
//! 4. **Completion** — a component whose sweep ran out of candidates
//!    tries one more assignment: its symbols' low ends, repaired
//!    through its equations `x == e`.
//! 5. **Verification** — the assembled witness is checked against every
//!    constraint by concrete evaluation, so [`SolveResult::Sat`] is always
//!    sound. A component that completion does not satisfy either makes
//!    the result [`SolveResult::Unknown`], which callers must treat
//!    conservatively (keep the path / keep the pair) — exactly how the
//!    paper's pipeline stays sound when the solver times out. Nothing is
//!    drawn at random.
//!
//! Every decision runs this one procedure to the end: a feasibility
//! question ([`Solver::is_feasible`], or a probe of the incremental layer
//! below) is a full decision read as "anything but `Unsat`".
//!
//! On top of the batch [`Solver::check`] API sits the incremental layer
//! used by the path explorer and chain composition:
//!
//! * [`SolverCtx`] holds the propagation state of an asserted constraint
//!   prefix and supports `push`/`pop` checkpoints, so probing
//!   `prefix + [flipped]` asserts *one* atom against saved state instead
//!   of replaying the whole conjunction.
//! * [`SolverCache`] memoises feasibility verdicts by exact constraint
//!   list, caches satisfiable-alone witnesses per atom, and keeps a small
//!   model cache whose witnesses answer repeated satisfiable probes by
//!   evaluation alone (sound: a verified model proves satisfiability).
//!   Both memos key on the content hashes the pool folded for each term
//!   when it interned it ([`TermPool::content_hash`]), so a request's
//!   key costs one read per term. A cached model remembers the last
//!   term it failed and where, and is passed over without evaluation
//!   while a list still holds that term there: neither a model nor an
//!   interned term ever changes, so the model that revives, and every
//!   count, are those of testing each model in full.
//! * [`SolverStats`] counts every request and what answered it, so the
//!   query reduction is observable and assertable in tests.
//!
//! Every fast path returns *exactly* the verdict the batch procedure
//! would: cached models and witness merges prove satisfiability (batch
//! `Unsat` is impossible for a satisfied list, because propagation and
//! component enumeration are sound), the propagation shortcut mirrors the
//! batch assert loop operation-for-operation, and memoised verdicts come
//! from the deterministic batch tail itself.
//!
//! Two invariants an edit must keep:
//!
//! * **Which witness is found is behaviour.** Each component's model is
//!   its sweep's first candidate: the lowest-numbered representative
//!   varies fastest, each over its interval from the low end, so
//!   a query always returns the same model, and leaving an absorbed atom
//!   out of a component (or splitting one in two) moves no model.
//!   [`SolverCache`] reuses those models to answer later probes, so a
//!   procedure that is merely *equivalent* (same verdicts, other
//!   witnesses) moves [`SolverStats`] — and the benchmark's golden files
//!   (`bolt-ledger/golden/`) pin those counts per chain. What a
//!   candidate costs is *not* behaviour: the sweep decides every
//!   candidate with a straight-line kernel compiled once per component,
//!   which checks a candidate's constraints in list order but computes
//!   both arms of every `Ite` on the way. That is valid only while every
//!   operator is total — a partial operator added to `BinOp` (a
//!   division, say) must make the kernel evaluate `Ite` arms lazily, as
//!   [`TermPool::eval`] does.
//! * **Dense containers are indexed by pool-local [`SymId`]s.** Every
//!   per-symbol map here (`SymMap`: witness values, union-find parents,
//!   bindings, intervals, known symbols) is a vector indexed by the id,
//!   sized by the largest id it has seen. That is sound because ids are
//!   indices into one pool's symbol registry, below
//!   `TermPool::sym_count()` — the pool decoder rejects records that
//!   break this — and it is what keeps `find`, `push`/`pop` and the
//!   sweep free of hashing. An id from anywhere else (a hash, a global
//!   counter) would size these vectors by its magnitude.

use std::fmt;

use bolt_expr::{BinOp, FxHashMap, SymId, Term, TermPool, TermRef, UnOp, Width};

/// A map keyed by [`SymId`], stored as a vector indexed by the id.
/// Symbol ids are pool-local indices below `TermPool::sym_count()`
/// (decoded pools are checked on entry), so the vector is as small as the
/// pool's symbol registry: a lookup is an index, a copy is a `memcpy`.
/// The first insert reserves [`SymMap::MIN_SLOTS`] at once, so a map over
/// a small registry grows once rather than once per doubling.
struct SymMap<T> {
    slots: Vec<Option<T>>,
}

/// `clone_from` copies into the existing buffer, which is what lets a
/// recycled [`SolverCtx`] checkpoint allocate nothing.
impl<T: Copy> Clone for SymMap<T> {
    fn clone(&self) -> Self {
        SymMap {
            slots: self.slots.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
    }
}

impl<T> Default for SymMap<T> {
    fn default() -> Self {
        SymMap { slots: Vec::new() }
    }
}

impl<T: Copy> SymMap<T> {
    /// Slots the first growth reserves: more symbols than most NFs'
    /// explorations mint.
    const MIN_SLOTS: usize = 32;

    fn get(&self, id: SymId) -> Option<T> {
        self.slots.get(id as usize).copied().flatten()
    }

    fn contains(&self, id: SymId) -> bool {
        self.get(id).is_some()
    }

    fn insert(&mut self, id: SymId, v: T) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots
                .reserve((i + 1).max(Self::MIN_SLOTS) - self.slots.len());
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v);
    }

    fn remove(&mut self, id: SymId) -> Option<T> {
        self.slots.get_mut(id as usize).and_then(Option::take)
    }

    /// Present entries, in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (SymId, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i as SymId, v)))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// Remove every entry, keeping the buffer.
    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Equal when the same ids are present with equal values: a present 0
/// differs from an absent entry, and absent slots past the last present
/// one (left by `remove`) do not count.
impl<T: PartialEq> PartialEq for SymMap<T> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.slots.len() <= other.slots.len() {
            (&self.slots, &other.slots)
        } else {
            (&other.slots, &self.slots)
        };
        short[..] == long[..short.len()] && long[short.len()..].iter().all(Option::is_none)
    }
}

impl<T: Eq> Eq for SymMap<T> {}

impl<T: Copy + fmt::Debug> fmt::Debug for SymMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A satisfying assignment, total over the queried constraints' symbols
/// (anything else evaluates to 0 via [`Witness::get`]'s default).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Witness {
    values: SymMap<u64>,
}

impl Clone for Witness {
    fn clone(&self) -> Self {
        Witness {
            values: self.values.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl Witness {
    /// Value of a symbol (0 if the solver never had to constrain it).
    pub fn get(&self, id: SymId) -> u64 {
        self.values.get(id).unwrap_or(0)
    }

    /// Bind a symbol (used by tests and by chain composition to pin the
    /// upstream packet). `id` is a symbol of the pool the witness is
    /// evaluated against: storage grows to the largest id set.
    pub fn set(&mut self, id: SymId, v: u64) {
        self.values.insert(id, v);
    }

    /// Evaluate a term under this witness.
    pub fn eval(&self, pool: &TermPool, t: TermRef) -> u64 {
        pool.eval(t, &|id| self.get(id))
    }

    /// Check that every constraint evaluates to true under this witness.
    pub fn satisfies(&self, pool: &TermPool, constraints: &[TermRef]) -> bool {
        constraints.iter().all(|&c| self.eval(pool, c) == 1)
    }
}

/// Outcome of a solver query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A verified satisfying assignment.
    Sat(Witness),
    /// Definitive contradiction (found by propagation).
    Unsat,
    /// Search exhausted without a verdict; treat as possibly-satisfiable.
    Unknown,
}

impl SolveResult {
    /// `true` unless definitively unsatisfiable — the conservative
    /// interpretation used for path pruning and chain compatibility.
    pub(crate) fn possibly_sat(&self) -> bool {
        !matches!(self, SolveResult::Unsat)
    }

    /// The witness, if satisfiable.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            SolveResult::Sat(w) => Some(w),
            _ => None,
        }
    }
}

/// Counters describing how feasibility requests were answered. The
/// pre-incremental baseline issued one full solver query per request, so
/// `checks_requested / solver_queries` is the query-reduction factor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Feasibility/check requests made by callers.
    pub checks_requested: u64,
    /// Full decision-procedure executions (propagation fixpoint +
    /// component enumeration). Each costs roughly one pre-incremental
    /// `check()`.
    pub solver_queries: u64,
    /// Decisions in which a component's sweep ran out of candidates, so
    /// completion ran; it either finds that component a model or leaves
    /// the decision `Unknown`. (The name is from the randomized search
    /// that once ran there; stored exploration records carry it.)
    pub completion_searches: u64,
    /// Requests answered by a contradiction found while asserting a
    /// single atom against saved propagation state.
    pub unsat_by_propagation: u64,
    /// Requests answered by the exact-constraint-list memo.
    pub memo_hits: u64,
    /// Requests answered by evaluating a cached model (witness reuse).
    pub witness_reuse_hits: u64,
    /// Cached models evicted to make room (the model cache is bounded;
    /// eviction picks the least-used entry, oldest on ties).
    pub model_evictions: u64,
}

impl SolverStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, o: &SolverStats) {
        self.checks_requested += o.checks_requested;
        self.solver_queries += o.solver_queries;
        self.completion_searches += o.completion_searches;
        self.unsat_by_propagation += o.unsat_by_propagation;
        self.memo_hits += o.memo_hits;
        self.witness_reuse_hits += o.witness_reuse_hits;
        self.model_evictions += o.model_evictions;
    }

    /// Requests answered without running the decision procedure.
    pub fn shortcuts(&self) -> u64 {
        self.unsat_by_propagation + self.memo_hits + self.witness_reuse_hits
    }
}

/// Per-symbol interval domain (inclusive bounds within the symbol width).
#[derive(Clone, Copy, Debug)]
struct Interval {
    lo: u64,
    hi: u64,
}

impl Interval {
    fn full(w: Width) -> Self {
        Interval {
            lo: 0,
            hi: w.mask(),
        }
    }
    fn is_empty(self) -> bool {
        self.lo > self.hi
    }
    fn singleton(self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

/// The solver. Stateless between queries and deterministic: it holds no
/// buffer of its own. The working state of a query — the propagator copy
/// the decision tail consumes and its sweep buffers — lives in the
/// session's [`SolverCache`] and is freed with it, so no query's work can
/// depend on what another session ran before; the batch
/// [`Solver::check`] and [`Solver::is_feasible`] make theirs per call.
#[derive(Clone, Debug, Default)]
pub struct Solver {}

/// Internal propagation state. Holds no pool reference so that an
/// incremental [`SolverCtx`] can keep it alive while the caller keeps
/// appending terms to the pool; every method takes the pool explicitly.
#[derive(Debug, Default)]
struct Propagator {
    /// Union-find parent pointers over symbols that must be equal.
    parent: SymMap<SymId>,
    /// Constant binding of each representative.
    bound: SymMap<u64>,
    /// Interval of each representative.
    interval: SymMap<Interval>,
    /// Atoms propagation could not absorb, with their polarity.
    residual: Vec<(TermRef, bool)>,
    /// Disequalities `repr != value`, which a one-atom witness steps its
    /// low end off (see `SolverCtx::atom_witness`).
    diseq: Vec<(SymId, u64)>,
    contradiction: bool,
}

/// `clone_from` copies field by field into the existing buffers: a
/// checkpoint and the decision tail's working copy reuse theirs.
impl Clone for Propagator {
    fn clone(&self) -> Self {
        Propagator {
            parent: self.parent.clone(),
            bound: self.bound.clone(),
            interval: self.interval.clone(),
            residual: self.residual.clone(),
            diseq: self.diseq.clone(),
            contradiction: self.contradiction,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.parent.clone_from(&source.parent);
        self.bound.clone_from(&source.bound);
        self.interval.clone_from(&source.interval);
        self.residual.clone_from(&source.residual);
        self.diseq.clone_from(&source.diseq);
        self.contradiction = source.contradiction;
    }
}

impl Propagator {
    fn new() -> Self {
        Self::default()
    }

    fn find(&mut self, s: SymId) -> SymId {
        let mut r = s;
        while let Some(p) = self.parent.get(r) {
            r = p;
        }
        // Path compression: everything on the way now points at `r`.
        let mut c = s;
        while let Some(p) = self.parent.get(c) {
            self.parent.insert(c, r);
            c = p;
        }
        r
    }

    fn union(&mut self, pool: &TermPool, a: SymId, b: SymId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.parent.insert(rb, ra);
        if let Some(v) = self.bound.remove(rb) {
            self.bind(pool, ra, v);
        }
        if let Some(i) = self.interval.remove(rb) {
            self.narrow(pool, ra, i.lo, i.hi);
        }
    }

    fn iv(&self, pool: &TermPool, s: SymId) -> Interval {
        self.interval
            .get(s)
            .unwrap_or_else(|| Interval::full(pool.sym_width(s)))
    }

    fn bind(&mut self, pool: &TermPool, s: SymId, v: u64) {
        let r = self.find(s);
        match self.bound.get(r) {
            Some(old) if old != v => self.contradiction = true,
            Some(_) => {}
            None => {
                self.bound.insert(r, v);
                self.narrow(pool, r, v, v);
            }
        }
    }

    fn narrow(&mut self, pool: &TermPool, s: SymId, lo: u64, hi: u64) {
        let r = self.find(s);
        let mut iv = self.iv(pool, r);
        iv.lo = iv.lo.max(lo);
        iv.hi = iv.hi.min(hi);
        if iv.is_empty() {
            self.contradiction = true;
            return;
        }
        self.interval.insert(r, iv);
        if let Some(v) = iv.singleton() {
            match self.bound.get(r) {
                Some(old) if old != v => self.contradiction = true,
                Some(_) => {}
                None => {
                    self.bound.insert(r, v);
                }
            }
        }
    }

    /// `find` without path compression, for a shared borrow.
    fn root(&self, s: SymId) -> SymId {
        let mut r = s;
        while let Some(p) = self.parent.get(r) {
            r = p;
        }
        r
    }

    fn value_of(&mut self, s: SymId) -> Option<u64> {
        let r = self.find(s);
        self.bound.get(r)
    }

    /// Evaluate a term if it is fully determined by current bindings.
    fn partial_eval(&mut self, pool: &TermPool, t: TermRef) -> Option<u64> {
        match *pool.get(t) {
            Term::Const { value, .. } => Some(value),
            Term::Sym { id, .. } => self.value_of(id),
            Term::Unop { op, a } => {
                let w = pool.width(a);
                self.partial_eval(pool, a).map(|v| op.apply(v, w))
            }
            Term::Binop { op, a, b } => {
                let w = pool.width(a);
                let va = self.partial_eval(pool, a)?;
                let vb = self.partial_eval(pool, b)?;
                Some(op.apply(va, vb, w))
            }
            Term::Ite { c, t: tt, e } => {
                let vc = self.partial_eval(pool, c)?;
                if vc != 0 {
                    self.partial_eval(pool, tt)
                } else {
                    self.partial_eval(pool, e)
                }
            }
            Term::Zext { a, .. } => self.partial_eval(pool, a),
            Term::Trunc { a, width } => self.partial_eval(pool, a).map(|v| v & width.mask()),
        }
    }

    /// Assert an atom (a width-1 term) with the given polarity, absorbing
    /// what we can into bindings/intervals; the rest goes to `residual`.
    fn assert_atom(&mut self, pool: &TermPool, t: TermRef, polarity: bool) {
        if self.contradiction {
            return;
        }
        if let Term::Binop { op, a, b } = *pool.get(t) {
            // Each side is evaluated once: both fixed decide the atom, and
            // either is what a comparison absorbs.
            let (va, vb) = (self.partial_eval(pool, a), self.partial_eval(pool, b));
            if let (Some(va), Some(vb)) = (va, vb) {
                if (op.apply(va, vb, pool.width(a)) != 0) != polarity {
                    self.contradiction = true;
                }
                return;
            }
            match (op, polarity) {
                (BinOp::And, true) | (BinOp::Or, false) => {
                    self.assert_atom(pool, a, polarity);
                    self.assert_atom(pool, b, polarity);
                }
                _ => {
                    if !self.assert_comparison(pool, op, (a, va), (b, vb), polarity) {
                        self.residual.push((t, polarity));
                    }
                }
            }
            return;
        }
        if let Some(v) = self.partial_eval(pool, t) {
            if (v != 0) != polarity {
                self.contradiction = true;
            }
            return;
        }
        match *pool.get(t) {
            Term::Unop { op: UnOp::Not, a } => self.assert_atom(pool, a, !polarity),
            Term::Sym {
                id,
                width: Width::W1,
            } => {
                self.bind(pool, id, polarity as u64);
            }
            _ => self.residual.push((t, polarity)),
        }
    }

    /// Try to absorb a comparison into the domain; returns whether handled.
    /// Each side comes with its value, if the bindings fix one.
    fn assert_comparison(
        &mut self,
        pool: &TermPool,
        op: BinOp,
        a: (TermRef, Option<u64>),
        b: (TermRef, Option<u64>),
        pol: bool,
    ) -> bool {
        let Some((op, (a, val_a), (b, val_b))) = normalise(op, a, b, pol) else {
            return false;
        };
        let sym_a = Self::as_sym(pool, a);
        let sym_b = Self::as_sym(pool, b);
        match op {
            BinOp::Eq => match (sym_a, val_a, sym_b, val_b) {
                (Some(x), _, _, Some(v)) => {
                    self.bind(pool, x, v);
                    true
                }
                (_, Some(v), Some(y), _) => {
                    self.bind(pool, y, v);
                    true
                }
                (Some(x), _, Some(y), _) => {
                    self.union(pool, x, y);
                    true
                }
                // A prefix match `(x & m) == c` is an interval of `x`.
                (None, None, None, Some(c)) | (None, Some(c), None, None) => {
                    let masked = if val_b.is_some() { a } else { b };
                    match Self::prefix_match(pool, masked, c) {
                        Some((x, span)) => {
                            self.narrow(pool, x, span.lo, span.hi);
                            true
                        }
                        None => false,
                    }
                }
                _ => false,
            },
            BinOp::Ne => match (sym_a, val_a, sym_b, val_b) {
                (Some(x), _, _, Some(v)) | (_, Some(v), Some(x), _) => {
                    let r = self.find(x);
                    self.diseq.push((r, v));
                    let iv = self.iv(pool, r);
                    if iv.lo == iv.hi && iv.lo == v {
                        self.contradiction = true;
                    } else if iv.lo == v {
                        self.narrow(pool, r, v + 1, iv.hi);
                    } else if iv.hi == v {
                        self.narrow(pool, r, iv.lo, v - 1);
                    }
                    true
                }
                _ => false,
            },
            BinOp::Ult => match (sym_a, val_a, sym_b, val_b) {
                (Some(x), _, _, Some(v)) => {
                    if v == 0 {
                        self.contradiction = true;
                    } else {
                        self.narrow(pool, x, 0, v - 1);
                    }
                    true
                }
                (_, Some(v), Some(y), _) => {
                    let w = pool.sym_width(y);
                    if v >= w.mask() {
                        self.contradiction = true;
                    } else {
                        self.narrow(pool, y, v + 1, w.mask());
                    }
                    true
                }
                _ => false,
            },
            BinOp::Ule => match (sym_a, val_a, sym_b, val_b) {
                (Some(x), _, _, Some(v)) => {
                    self.narrow(pool, x, 0, v);
                    true
                }
                (_, Some(v), Some(y), _) => {
                    let w = pool.sym_width(y);
                    self.narrow(pool, y, v, w.mask());
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    fn as_sym(pool: &TermPool, t: TermRef) -> Option<SymId> {
        match *pool.get(t) {
            Term::Sym { id, .. } => Some(id),
            _ => None,
        }
    }

    /// For `t` a symbol `x` under a mask of its high bits (a network
    /// prefix: `addr & 0xffffff00`), `x` and the values for which `t`
    /// equals `c`, which are one interval; `None` for any other mask, or
    /// a `c` with bits outside it.
    fn prefix_match(pool: &TermPool, t: TermRef, c: u64) -> Option<(SymId, Interval)> {
        let Term::Binop {
            op: BinOp::And,
            a,
            b,
        } = *pool.get(t)
        else {
            return None;
        };
        let (x, w, m) = match (pool.get(a), pool.get(b)) {
            (&Term::Sym { id, width }, &Term::Const { value, .. })
            | (&Term::Const { value, .. }, &Term::Sym { id, width }) => (id, width, value),
            _ => return None,
        };
        let low = w.mask() & !m;
        if low & low.wrapping_add(1) != 0 || c & !(w.mask() & m) != 0 {
            return None;
        }
        Some((x, Interval { lo: c, hi: c | low }))
    }

    /// Whether the state already implies atom `t` at `polarity`: every
    /// value of the domains satisfies it, so the decision tail has
    /// nothing to try for it. That holds for a boolean symbol bound to
    /// the polarity, an equality inside one union-find class, and a
    /// comparison of one symbol against a value the bindings fix
    /// (normalised as [`Propagator::assert_comparison`] does) that the
    /// symbol's interval decides, a prefix match `(x & m) == c` or
    /// `(x & m) != c` included.
    fn implied(&mut self, pool: &TermPool, t: TermRef, polarity: bool) -> bool {
        let (op, a, b) = match *pool.get(t) {
            Term::Unop { op: UnOp::Not, a } => return self.implied(pool, a, !polarity),
            Term::Sym {
                id,
                width: Width::W1,
            } => return self.value_of(id) == Some(polarity as u64),
            Term::Binop { op, a, b } => match normalise(op, a, b, polarity) {
                Some(n) => n,
                None => return false,
            },
            _ => return false,
        };
        let (sym_a, sym_b) = (Self::as_sym(pool, a), Self::as_sym(pool, b));
        if let (BinOp::Eq, Some(x), Some(y)) = (op, sym_a, sym_b) {
            return self.find(x) == self.find(y);
        }
        // The symbol's side, the fixed value, and whether the symbol is
        // on the left.
        let (side, v, left) = match self.partial_eval(pool, b) {
            Some(v) if sym_a.is_some() || sym_b.is_none() => (a, v, true),
            _ => match self.partial_eval(pool, a) {
                Some(v) => (b, v, false),
                None => return false,
            },
        };
        if let Some(x) = Self::as_sym(pool, side) {
            let r = self.find(x);
            let iv = self.iv(pool, r);
            return match (op, left) {
                (BinOp::Eq, _) => iv.singleton() == Some(v),
                (BinOp::Ne, _) => v < iv.lo || v > iv.hi,
                (BinOp::Ult, true) => iv.hi < v,
                (BinOp::Ule, true) => iv.hi <= v,
                (BinOp::Ult, false) => v < iv.lo,
                _ => v <= iv.lo,
            };
        }
        let Some((x, span)) = Self::prefix_match(pool, side, v) else {
            return false;
        };
        let r = self.find(x);
        let iv = self.iv(pool, r);
        match op {
            BinOp::Eq => span.lo <= iv.lo && iv.hi <= span.hi,
            BinOp::Ne => iv.hi < span.lo || span.hi < iv.lo,
            _ => false,
        }
    }
}

/// A comparison atom `a op b` at `polarity`, as an equality, a
/// disequality, `<` or `<=` that holds: `!(a < b)` is `b <= a`, and
/// `!(a <= b)` is `b < a`. `None` for any other operator. A side is a
/// term, or a term with what travels with it.
fn normalise<T>(op: BinOp, a: T, b: T, polarity: bool) -> Option<(BinOp, T, T)> {
    Some(match (op, polarity) {
        (BinOp::Eq, true) | (BinOp::Ne, false) => (BinOp::Eq, a, b),
        (BinOp::Eq, false) | (BinOp::Ne, true) => (BinOp::Ne, a, b),
        (BinOp::Ult, true) => (BinOp::Ult, a, b),
        (BinOp::Ult, false) => (BinOp::Ule, b, a),
        (BinOp::Ule, true) => (BinOp::Ule, a, b),
        (BinOp::Ule, false) => (BinOp::Ult, b, a),
        _ => return None,
    })
}

/// Candidates one component's sweep tries at most: every one of a
/// component of up to 4 096, and the first 4 096 of a wider one.
const SWEEP_BUDGET: usize = 4096;

/// How a [`SweepKernel::sweep`] ends.
#[derive(Debug, PartialEq, Eq)]
enum Swept<'a> {
    /// The first candidate satisfying every term, one value per interval.
    Model(&'a [u64]),
    /// Every candidate is refuted: the terms are unsatisfiable.
    Refuted,
    /// The budget ran out first.
    OverBudget,
}

/// One step of a [`SweepKernel`]. A value step writes slot `dst` from
/// slots an earlier step of the same pass wrote (or compilation filled).
#[derive(Clone, Copy, Debug)]
enum SweepOp {
    /// A swept symbol: the candidate's value for enumerated slot `i`,
    /// masked to a width as [`TermPool::eval`] does — one step per
    /// `(i, mask)`, shared by every class member of that width.
    Sym {
        dst: u32,
        i: u32,
        mask: u64,
    },
    Unop {
        dst: u32,
        op: UnOp,
        a: u32,
        w: Width,
    },
    Binop {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
        w: Width,
    },
    Ite {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    /// `a & mask`: a truncation, or an `And` with a compile-time constant.
    Mask {
        dst: u32,
        a: u32,
        mask: u64,
    },
    /// A constraint's root is complete: the candidate is rejected here
    /// unless it evaluated to true.
    Check {
        a: u32,
    },
}

/// The component sweep of [`Solver::finish`]: one component's constraints
/// compiled to straight-line code over value slots, so a candidate costs
/// one pass over the *distinct* subterms — hash-consed constraints share
/// most of theirs, and [`TermPool::eval`] walks them as trees. The swept
/// symbols' steps come first, writing slots `0..m` in step order; then
/// each distinct subterm a swept symbol reaches is one step, emitted in
/// first-use order with a [`SweepOp::Check`] after each constraint's
/// root; a subterm no swept symbol reaches is evaluated once, when the
/// kernel is built. The buffers live in the session's [`FinishScratch`],
/// so a warm query allocates none of them.
#[derive(Debug, Default)]
struct SweepKernel {
    /// Term index → slot + 1, 0 while the term has no slot; as long as
    /// the pool.
    slot_of: Vec<u32>,
    /// The term indices `slot_of` holds a slot for (what to clear).
    placed: Vec<u32>,
    ops: Vec<SweepOp>,
    vals: Vec<u64>,
    /// The part of each enumerated slot's interval the sweep visits.
    window: Vec<Interval>,
    /// The candidate under test, one value per interval.
    assignment: Vec<u64>,
}

impl SweepKernel {
    /// The first candidate satisfying every term of `terms`, as one value
    /// per interval, or [`Swept::Refuted`] once all are. Candidates are
    /// visited with the lowest slot varying fastest, each from its
    /// interval's low end. `swept` maps every unbound member symbol of
    /// `terms` to its slot; `env` holds the value of every bound one.
    ///
    /// A slot whose uses read only its low `k` bits is swept over its
    /// first `2^k` values alone: every step sees the slot only through
    /// its value mod `2^k`, which those values all take, each no later
    /// than the order would reach it elsewhere. The first model and every
    /// refutation are those of the whole intervals.
    ///
    /// At most [`SWEEP_BUDGET`] candidates are tried: a sweep that has
    /// met neither a model nor its last candidate by then is
    /// [`Swept::OverBudget`].
    fn sweep(
        &mut self,
        pool: &TermPool,
        terms: impl IntoIterator<Item = TermRef>,
        swept: &[(SymId, usize)],
        intervals: &[Interval],
        env: &[u64],
    ) -> Swept<'_> {
        self.assignment.clear();
        self.assignment.extend(intervals.iter().map(|iv| iv.lo));
        self.compile(pool, terms, swept, env);
        self.narrow(intervals);
        for _ in 0..SWEEP_BUDGET {
            if Self::holds(&self.ops, &mut self.vals, &self.assignment) {
                return Swept::Model(&self.assignment);
            }
            if !next_candidate(&mut self.assignment, &self.window) {
                return Swept::Refuted;
            }
        }
        Swept::OverBudget
    }

    fn compile(
        &mut self,
        pool: &TermPool,
        terms: impl IntoIterator<Item = TermRef>,
        swept: &[(SymId, usize)],
        env: &[u64],
    ) {
        for &t in &self.placed {
            self.slot_of[t as usize] = 0;
        }
        self.placed.clear();
        self.ops.clear();
        self.vals.clear();
        self.slot_of.resize(pool.len(), 0);
        for &(s, i) in swept {
            let (i, mask) = (i as u32, pool.sym_width(s).mask());
            if self.sym_slot(i, mask).is_none() {
                let dst = self.slot(0);
                self.ops.push(SweepOp::Sym { dst, i, mask });
            }
        }
        for c in terms {
            let a = self.place(pool, c, swept, env);
            self.ops.push(SweepOp::Check { a });
        }
    }

    /// The slot of enumerated slot `i` masked to `mask`, once emitted.
    fn sym_slot(&self, i: u32, mask: u64) -> Option<u32> {
        self.ops.iter().find_map(|step| match *step {
            SweepOp::Sym { dst, i: j, mask: m } if (j, m) == (i, mask) => Some(dst),
            _ => None,
        })
    }

    /// The slot holding `t`'s value, emitting the steps that compute it
    /// (operands first) unless an earlier use already did.
    fn place(&mut self, pool: &TermPool, t: TermRef, swept: &[(SymId, usize)], env: &[u64]) -> u32 {
        if let Some(slot) = self.slot_of[t.index()].checked_sub(1) {
            return slot;
        }
        let slot_of_sym = |id: SymId| swept.iter().find(|&&(s, _)| s == id).map(|&(_, i)| i);
        let fixed = |t: TermRef| !pool.syms_of(t).iter().any(|&s| slot_of_sym(s).is_some());
        let slot = if fixed(t) {
            // No candidate changes it: evaluated once per sweep.
            self.slot(pool.eval(t, &|id| env[id as usize]))
        } else {
            match *pool.get(t) {
                Term::Const { value, .. } => self.slot(value),
                Term::Sym { id, width } => {
                    let i = slot_of_sym(id).expect("a swept symbol") as u32;
                    self.sym_slot(i, width.mask()).expect("emitted first")
                }
                Term::Unop { op, a } => {
                    let w = pool.width(a);
                    let a = self.place(pool, a, swept, env);
                    let dst = self.slot(0);
                    self.ops.push(SweepOp::Unop { dst, op, a, w });
                    dst
                }
                Term::Binop { op, a: ta, b: tb } => {
                    let w = pool.width(ta);
                    let a = self.place(pool, ta, swept, env);
                    let b = self.place(pool, tb, swept, env);
                    match op {
                        // Both sides are one value: class members of one
                        // width share their slot.
                        BinOp::Eq | BinOp::Ne if a == b => self.slot((op == BinOp::Eq) as u64),
                        BinOp::And if fixed(ta) || fixed(tb) => {
                            let (a, c) = if fixed(tb) { (a, b) } else { (b, a) };
                            let (dst, mask) = (self.slot(0), self.vals[c as usize] & w.mask());
                            self.ops.push(SweepOp::Mask { dst, a, mask });
                            dst
                        }
                        _ => {
                            let dst = self.slot(0);
                            self.ops.push(SweepOp::Binop { dst, op, a, b, w });
                            dst
                        }
                    }
                }
                // Both arms are computed for every candidate, which only
                // costs time while every operator is total.
                Term::Ite { c, t: tt, e } => {
                    let c = self.place(pool, c, swept, env);
                    let t = self.place(pool, tt, swept, env);
                    let e = self.place(pool, e, swept, env);
                    let dst = self.slot(0);
                    self.ops.push(SweepOp::Ite { dst, c, t, e });
                    dst
                }
                // Zero-extension leaves the value alone: no step, the
                // operand's slot.
                Term::Zext { a, .. } => self.place(pool, a, swept, env),
                Term::Trunc { a, width } => {
                    let a = self.place(pool, a, swept, env);
                    let (dst, mask) = (self.slot(0), width.mask());
                    self.ops.push(SweepOp::Mask { dst, a, mask });
                    dst
                }
            }
        };
        self.slot_of[t.index()] = slot + 1;
        self.placed.push(t.index() as u32);
        slot
    }

    /// A new slot holding `v`.
    fn slot(&mut self, v: u64) -> u32 {
        self.vals.push(v);
        self.vals.len() as u32 - 1
    }

    /// Sets `window` to the values of each interval the sweep visits: a
    /// slot read only through `Mask` steps keeps the first `2^k` values,
    /// `k` the width of the widest mask; any other read keeps its
    /// symbol's whole width, and a slot nothing reads its low end alone.
    fn narrow(&mut self, intervals: &[Interval]) {
        let (ops, window) = (&self.ops, &mut self.window);
        window.clear();
        window.extend(intervals.iter().map(|iv| Interval {
            lo: iv.lo,
            hi: iv.lo,
        }));
        // Slot `s` is a swept symbol's exactly when step `s` is its `Sym`.
        let mut read = |s: u32, bits: u32| {
            if let Some(&SweepOp::Sym { i, mask, .. }) = ops.get(s as usize) {
                let (iv, bits) = (intervals[i as usize], bits.min(64 - mask.leading_zeros()));
                let hi = match 1u64.checked_shl(bits) {
                    Some(n) => iv.hi.min(iv.lo.saturating_add(n - 1)),
                    None => iv.hi,
                };
                let w = &mut window[i as usize];
                w.hi = w.hi.max(hi);
            }
        };
        for step in ops {
            match *step {
                SweepOp::Sym { .. } => {}
                SweepOp::Mask { a, mask, .. } => read(a, 64 - mask.leading_zeros()),
                SweepOp::Unop { a, .. } | SweepOp::Check { a } => read(a, 64),
                SweepOp::Binop { a, b, .. } => {
                    read(a, 64);
                    read(b, 64);
                }
                SweepOp::Ite { c, t, e, .. } => {
                    read(c, 64);
                    read(t, 64);
                    read(e, 64);
                }
            }
        }
    }

    /// Whether every compiled constraint holds for the candidate; stops
    /// at the first that does not.
    fn holds(ops: &[SweepOp], vals: &mut [u64], assignment: &[u64]) -> bool {
        for step in ops {
            match *step {
                SweepOp::Sym { dst, i, mask } => vals[dst as usize] = assignment[i as usize] & mask,
                SweepOp::Unop { dst, op, a, w } => {
                    vals[dst as usize] = op.apply(vals[a as usize], w)
                }
                SweepOp::Binop { dst, op, a, b, w } => {
                    vals[dst as usize] = op.apply(vals[a as usize], vals[b as usize], w)
                }
                SweepOp::Ite { dst, c, t, e } => {
                    let pick = if vals[c as usize] != 0 { t } else { e };
                    vals[dst as usize] = vals[pick as usize]
                }
                SweepOp::Mask { dst, a, mask } => vals[dst as usize] = vals[a as usize] & mask,
                SweepOp::Check { a } => {
                    if vals[a as usize] != 1 {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Step `assignment` to the next candidate of the sweep order; `false`
/// (and back at the first) once every candidate has been visited.
fn next_candidate(assignment: &mut [u64], intervals: &[Interval]) -> bool {
    for (v, iv) in assignment.iter_mut().zip(intervals) {
        if *v < iv.hi {
            *v += 1;
            return true;
        }
        *v = iv.lo;
    }
    false
}

impl Solver {
    /// Create a solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decide the conjunction of `constraints` (each a width-1 term).
    ///
    /// `Unsat` is definitive and a `Sat` witness is verified. `Unknown`
    /// comes back only for a component — constraints linked by the free
    /// symbols they share, once absorbed atoms are left out — whose first
    /// model in sweep order lies past its first 4 096 candidates and
    /// whose equations do not complete its symbols' least values to a
    /// model. The catalog's contracts and chains have no such component.
    pub fn check(&self, pool: &TermPool, constraints: &[TermRef]) -> SolveResult {
        let mut prop = Propagator::new();
        for &c in constraints {
            prop.assert_atom(pool, c, true);
            if prop.contradiction {
                return SolveResult::Unsat;
            }
        }
        self.finish(
            pool,
            constraints,
            &mut prop,
            None,
            &mut FinishScratch::default(),
        )
    }

    /// Conservative feasibility: `true` unless [`Solver::check`] proves
    /// the conjunction unsatisfiable (`Unknown` counts as feasible).
    pub fn is_feasible(&self, pool: &TermPool, constraints: &[TermRef]) -> bool {
        self.check(pool, constraints).possibly_sat()
    }

    /// The decision-procedure tail: runs after all constraints have been
    /// asserted (in order) into `prop`, which it consumes as working
    /// state. Shared verbatim by the batch API and the incremental
    /// [`SolverCtx`], which is what keeps their verdicts bit-identical.
    /// `scratch` holds its buffers: the session's, or a fresh one.
    fn finish(
        &self,
        pool: &TermPool,
        constraints: &[TermRef],
        prop: &mut Propagator,
        stats: Option<&mut SolverStats>,
        scratch: &mut FinishScratch,
    ) -> SolveResult {
        // Fixpoint: re-assert residual atoms whose operands may have since
        // become evaluable (e.g. chained equalities asserted out of order).
        // The two residual lists trade buffers, so the loop allocates none.
        loop {
            std::mem::swap(&mut scratch.atoms, &mut prop.residual);
            let before = scratch.atoms.len();
            for &(t, pol) in &scratch.atoms {
                prop.assert_atom(pool, t, pol);
            }
            scratch.atoms.clear();
            if prop.contradiction {
                return SolveResult::Unsat;
            }
            if prop.residual.len() >= before {
                break;
            }
        }
        let FinishScratch {
            sup_syms,
            sup_bounds,
            comp,
            groups,
            syms,
            intervals,
            env,
            swept,
            kernel,
            w,
            ..
        } = scratch;

        // The witness under construction: every bound representative,
        // then each component's values, then class members.
        w.values.clear();
        for (r, v) in prop.bound.iter() {
            w.set(r, v);
        }
        // Free-symbol support of each constraint, sorted and without
        // duplicates: constraint `ci`'s is
        // `sup_syms[sup_bounds[ci]..sup_bounds[ci + 1]]`. (The per-term
        // symbol support is cached in the pool; only the representative
        // mapping is computed here.) An atom propagation absorbed gets
        // none: every value of the domains satisfies it, so it neither
        // joins a component nor is checked before the final verification.
        // Any other constraint whose symbols are all bound is decided by
        // direct evaluation: the bindings are forced, so a false value
        // here is a definitive contradiction.
        sup_syms.clear();
        sup_bounds.clear();
        sup_bounds.push(0);
        for &c in constraints {
            if !prop.implied(pool, c, true) {
                let start = sup_syms.len();
                sup_syms.extend(pool.syms_of(c).iter().filter_map(|&s| {
                    let r = prop.find(s);
                    (!prop.bound.contains(r)).then_some(r)
                }));
                if sup_syms.len() == start {
                    for &s in pool.syms_of(c) {
                        let v = w.get(prop.find(s));
                        w.set(s, v);
                    }
                    if w.eval(pool, c) != 1 {
                        return SolveResult::Unsat;
                    }
                }
                sup_syms[start..].sort_unstable();
                dedup_from(sup_syms, start);
            }
            sup_bounds.push(sup_syms.len());
        }
        let support = |ci: usize| &sup_syms[sup_bounds[ci]..sup_bounds[ci + 1]];

        // Component-wise sweeps. Constraints are grouped into connected
        // components by shared *unbound* symbols; each component's
        // candidates are tried in order up to the budget, which covers a
        // small component completely. An unsatisfiable component makes
        // the whole conjunction definitively Unsat (an unsat core). This
        // is what lets the explorer prune contradictions over *derived*
        // packet fields — e.g. the chain pair "firewall saw (ihl & 0xF)
        // ≤ 5" ∧ "router saw (ihl & 0xF) > 5" — which interval
        // propagation over bare symbols cannot see, even when other
        // constraints in the set range over 32-bit fields.
        //
        // Union-find over constraint indices via shared symbols. The first
        // `n_groups` lists are this query's; a merged-away group is left
        // empty.
        comp.clear();
        let mut n_groups = 0;
        for ci in 0..constraints.len() {
            let sup = support(ci);
            if sup.is_empty() {
                continue;
            }
            // Find an existing group among this constraint's symbols.
            let gi = sup.iter().find_map(|&s| comp.get(s)).unwrap_or_else(|| {
                if n_groups == groups.len() {
                    groups.push(Vec::new());
                }
                groups[n_groups].clear();
                n_groups += 1;
                n_groups - 1
            });
            groups[gi].push(ci);
            for &s in sup {
                if let Some(old) = comp.get(s) {
                    if old != gi {
                        // Merge: move old group's constraints in.
                        let mut moved = std::mem::take(&mut groups[old]);
                        groups[gi].extend_from_slice(&moved);
                        moved.clear();
                        groups[old] = moved;
                        for v in comp.values_mut() {
                            if *v == old {
                                *v = gi;
                            }
                        }
                    }
                }
                comp.insert(s, gi);
            }
        }
        let (mut completed, mut undecided) = (false, false);
        for group in groups[..n_groups].iter().filter(|g| !g.is_empty()) {
            syms.clear();
            syms.extend(group.iter().flat_map(|&ci| support(ci).iter().copied()));
            syms.sort_unstable();
            syms.dedup();
            intervals.clear();
            intervals.extend(syms.iter().map(|&r| prop.iv(pool, r)));
            let group_terms = group.iter().map(|&ci| constraints[ci]);
            // Everything a candidate does not change is settled here: each
            // member symbol of the group's terms either follows enumerated
            // slot `i` or keeps its representative's bound value in `env`,
            // the sweep's environment indexed by `SymId` (entries an
            // earlier component or query left behind belong to symbols
            // this one's terms do not mention).
            env.resize(pool.sym_count(), 0);
            swept.clear();
            for c in group_terms.clone() {
                for &s in pool.syms_of(c) {
                    let r = prop.find(s);
                    match prop.bound.get(r) {
                        Some(v) => env[s as usize] = v,
                        None => {
                            let i = syms.binary_search(&r).expect("unbound, so enumerated");
                            swept.push((s, i));
                        }
                    }
                }
            }
            swept.sort_unstable();
            swept.dedup();
            match kernel.sweep(pool, group_terms.clone(), swept, intervals, env) {
                Swept::Model(assignment) => {
                    for (&r, &v) in syms.iter().zip(assignment) {
                        w.set(r, v);
                    }
                }
                Swept::Refuted => return SolveResult::Unsat,
                Swept::OverBudget => {
                    completed = true;
                    undecided |= !complete(pool, prop, group_terms, syms, intervals, w);
                }
            }
        }
        // Extend to members. A representative no component swept — one
        // that only absorbed atoms mention — takes its interval's low end,
        // which is the first candidate a sweep would have tried.
        for &c in constraints {
            for &s in pool.syms_of(c) {
                let r = prop.find(s);
                let v = match w.values.get(r) {
                    Some(v) => v,
                    None => {
                        let v = prop.iv(pool, r).lo;
                        w.set(r, v);
                        v
                    }
                };
                w.set(s, v);
            }
        }
        if completed {
            if let Some(s) = stats {
                s.completion_searches += 1;
            }
        }
        if undecided {
            return SolveResult::Unknown;
        }
        // Every constraint holds by construction; verifying them all is
        // what makes a `Sat` sound whatever the steps above get wrong.
        if w.satisfies(pool, constraints) {
            SolveResult::Sat(std::mem::take(w))
        } else {
            SolveResult::Unknown
        }
    }
}

/// Rounds of equation repair in [`complete`].
const REPAIR_ROUNDS: usize = 4;

/// Completion, for a component its sweep could not decide within the
/// budget: each representative of `syms` takes its interval's low end,
/// then up to [`REPAIR_ROUNDS`] rounds of repair follow. An unsatisfied
/// `x == e` (or `e == x`) whose `x` is in the class of one of `syms`
/// gives that class `e`'s value, if it lies in the class's interval. Whether every term then holds. It draws
/// nothing at random: it tries one assignment, the one a chain's link
/// equations (`nf2.ttl == nf1.ttl - 1`) define from the low ends.
fn complete(
    pool: &TermPool,
    prop: &Propagator,
    terms: impl Iterator<Item = TermRef> + Clone,
    syms: &[SymId],
    intervals: &[Interval],
    w: &mut Witness,
) -> bool {
    for (&r, iv) in syms.iter().zip(intervals) {
        w.set(r, iv.lo);
    }
    let value = |w: &Witness, t: TermRef| pool.eval(t, &|s| w.get(prop.root(s)));
    for _ in 0..REPAIR_ROUNDS {
        let mut repaired = false;
        for t in terms.clone() {
            let Term::Binop {
                op: BinOp::Eq,
                a,
                b,
            } = *pool.get(t)
            else {
                continue;
            };
            if value(w, t) == 1 {
                continue;
            }
            for (x, e) in [(a, b), (b, a)] {
                let Some(r) = Propagator::as_sym(pool, x).map(|x| prop.root(x)) else {
                    continue;
                };
                let Ok(i) = syms.binary_search(&r) else {
                    continue;
                };
                let (v, iv) = (value(w, e), intervals[i]);
                if (iv.lo..=iv.hi).contains(&v) {
                    w.set(r, v);
                    repaired = true;
                    break;
                }
            }
        }
        if !repaired {
            break;
        }
    }
    terms.clone().all(|t| value(w, t) == 1)
}

/// Drop adjacent duplicates from `v[start..]`, which is sorted.
fn dedup_from<T: PartialEq + Copy>(v: &mut Vec<T>, start: usize) {
    let mut kept = start;
    for i in start..v.len() {
        if kept == start || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// The working buffers of [`Solver::finish`], grown by one query and
/// reused by the next. A [`SolverCache`] owns one for its session, so a
/// warm query allocates none of them and they are freed with the session;
/// the batch entry points make a fresh one per call. Nothing in here
/// carries meaning from one query to the next: every buffer is cleared
/// (or, for `env` and the kernel's term table, only read where this
/// query wrote) before use.
#[derive(Debug, Default)]
struct FinishScratch {
    /// The fixpoint's second residual list.
    atoms: Vec<(TermRef, bool)>,
    /// Every constraint's free-symbol support, concatenated.
    sup_syms: Vec<SymId>,
    /// Where each constraint's support starts in `sup_syms`, and its end.
    sup_bounds: Vec<usize>,
    /// Union-find over constraints: the group each symbol joined.
    comp: SymMap<usize>,
    /// Constraint indices of each component.
    groups: Vec<Vec<usize>>,
    /// A component's representatives, and their intervals.
    syms: Vec<SymId>,
    intervals: Vec<Interval>,
    /// The sweep's environment (indexed by `SymId`) and swept symbols.
    env: Vec<u64>,
    swept: Vec<(SymId, usize)>,
    kernel: SweepKernel,
    /// The witness under construction; a `Sat` takes it away.
    w: Witness,
}

/// Shared feasibility caches for one exploration / composition session:
/// an exact-constraint-list memo, a per-atom satisfiability cache, and a
/// bounded model cache for witness reuse. Memo entries key on the
/// pool-independent content hashes the pool computed when it interned
/// each term ([`TermPool::content_hash`]: structure, widths, constants,
/// symbol ids and names), so one cache can safely serve probes against
/// several [`TermPool`]s: two terms share a key only when they are
/// structurally identical and bind the same symbols, in which case their
/// verdicts (and atom witnesses) coincide.
/// Raw `TermRef` indices are never used as keys — they are meaningless
/// outside the pool that interned them, and reusing them across pools
/// once served stale verdicts when a planner probed pair orders through
/// the same cache a chain fold was using.
///
/// The cache is also where a session's decision tail keeps its working
/// state: the propagator copy [`SolverCtx`] hands the full procedure, and
/// the procedure's supports, components and sweep kernel (whose term
/// table is as long as the pool). A warm query reuses what earlier ones
/// grew instead of allocating it again; nothing is process-wide, so the
/// buffers go when the session does.
#[derive(Debug, Default)]
pub struct SolverCache {
    /// Ordered constraint list (content hashes) → feasibility verdict.
    /// Looked up by a borrowed slice; a key is boxed only when inserted.
    list_memo: FxHashMap<Box<[u64]>, bool>,
    /// Atom content hash → witness satisfying the atom alone (`None`:
    /// no usable witness — the atom alone was Unsat or Unknown).
    atom_memo: FxHashMap<u64, Option<Witness>>,
    /// Recently discovered models, reused to answer satisfiable probes.
    models: Vec<CachedModel>,
    /// Monotone insertion stamp (eviction tie-breaker: oldest loses).
    model_seq: u64,
    /// The working copy of a context's propagator that the decision tail
    /// consumes, overwritten in place by each full decision.
    prop: Propagator,
    /// The decision tail's buffers.
    scratch: FinishScratch,
    /// Counters for everything routed through this cache.
    pub stats: SolverStats,
}

/// One cached model with its usage count (eviction weight).
#[derive(Debug)]
struct CachedModel {
    w: Witness,
    hits: u64,
    seq: u64,
    /// The last term the model was found to fail, as `(pool uid,
    /// position in the list, term)`. A cached model never changes, and
    /// neither does an interned term, so the model fails every list of
    /// that pool that holds the term at that position: revival skips it
    /// without evaluating anything.
    failed: Option<(u64, usize, TermRef)>,
}

impl CachedModel {
    /// Whether the model satisfies every term of `list`, tested newest
    /// first: a cached model usually satisfies the long shared prefix and
    /// fails on what was asserted last. A failure is remembered, and a
    /// list that still holds the remembered term where it was fails here
    /// at once. The answer is the evaluation's either way.
    fn satisfies(&mut self, pool: &TermPool, list: &[TermRef]) -> bool {
        if let Some((uid, at, t)) = self.failed {
            if uid == pool.uid() && list.get(at) == Some(&t) {
                return false;
            }
        }
        match list.iter().rposition(|&c| self.w.eval(pool, c) != 1) {
            Some(at) => {
                self.failed = Some((pool.uid(), at, list[at]));
                false
            }
            None => true,
        }
    }
}

/// Cached models kept for witness reuse.
const MODEL_CACHE_CAP: usize = 16;

impl SolverCache {
    /// Fresh, empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache a copy of `w`. At capacity the copy goes into the evicted
    /// entry's buffer.
    fn push_model(&mut self, w: &Witness) {
        self.model_seq += 1;
        if self.models.len() < MODEL_CACHE_CAP {
            self.models.push(CachedModel {
                w: w.clone(),
                hits: 0,
                seq: self.model_seq,
                failed: None,
            });
            return;
        }
        // Hit-count-weighted retention: a model that has answered many
        // probes is worth more than a fresh one-off, so evict the
        // least-used entry (FIFO only among equally-used ones). NFs with
        // hundreds of paths churn many single-use models past a few
        // hot cross-path ones; plain FIFO evicted the hot ones too.
        let i = self
            .models
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (m.hits, m.seq))
            .map(|(i, _)| i)
            .expect("cache is non-empty at capacity");
        let m = &mut self.models[i];
        m.w.clone_from(w);
        (m.hits, m.seq, m.failed) = (0, self.model_seq, None);
        self.stats.model_evictions += 1;
    }

    /// Memoise the verdict of the list whose content hashes are `key`,
    /// boxing the key only if the list is new. A list's verdict never
    /// changes, so one already memoised stays as it is.
    fn remember(&mut self, key: &[u64], feasible: bool) {
        if !self.list_memo.contains_key(key) {
            self.list_memo.insert(key.into(), feasible);
        }
    }
}

/// Snapshot for [`SolverCtx::push`]/[`SolverCtx::pop`]. A popped frame
/// stays allocated, holding stale state, until the next `push` copies
/// over it.
#[derive(Debug)]
struct Frame {
    prop: Propagator,
    n_constraints: usize,
    known_syms: SymMap<()>,
    cur_witness: Option<Witness>,
}

/// An incremental solving context: a constraint prefix asserted once,
/// with saved propagation state, checkpoints, and a current model.
///
/// Invariants: `prop` is exactly the state the batch solver would hold
/// after asserting `constraints` in order (which is what makes
/// [`SolverCtx::check`] bit-identical to [`Solver::check`]), and
/// `cur_witness`, when present, is a verified model of `constraints`.
#[derive(Debug)]
pub struct SolverCtx {
    solver: Solver,
    prop: Propagator,
    constraints: Vec<TermRef>,
    /// Symbols occurring in any asserted constraint (for the
    /// disjoint-support witness merge).
    known_syms: SymMap<()>,
    /// A verified model of the current constraint list, when one is known.
    cur_witness: Option<Witness>,
    /// Checkpoints: the first `depth` are open, the rest are spare.
    frames: Vec<Frame>,
    depth: usize,
    /// The memo key of the request being decided (see
    /// [`SolverCtx::memo_key`]), rebuilt in place by each request.
    key: Vec<u64>,
    /// The buffer of the last model that died, which the next revived
    /// model is copied into.
    spare: Witness,
}

impl SolverCtx {
    /// New empty context using `solver`'s limits and seed.
    pub fn new(solver: &Solver) -> Self {
        SolverCtx {
            solver: solver.clone(),
            prop: Propagator::new(),
            constraints: Vec::new(),
            known_syms: SymMap::default(),
            cur_witness: Some(Witness::default()),
            frames: Vec::new(),
            depth: 0,
            key: Vec::new(),
            spare: Witness::default(),
        }
    }

    /// The asserted constraint list, in assertion order.
    pub fn constraints(&self) -> &[TermRef] {
        &self.constraints
    }

    /// The current verified model of the constraint list, if one is known.
    pub fn model(&self) -> Option<&Witness> {
        self.cur_witness.as_ref()
    }

    /// Number of open checkpoints.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Assert one constraint on top of the current state (the incremental
    /// analogue of appending to the batch constraint list).
    pub fn assert_term(&mut self, pool: &TermPool, t: TermRef) {
        // Keep the current model alive across the new constraint: verify
        // it, and for one-sided equations over a previously-unconstrained
        // symbol (the shape data-structure models emit from `assume`),
        // repair the model by assigning the symbol its forced value. The
        // symbol side may be wrapped in a width adapter — `zext(sym)` or
        // `trunc(sym)` — which some models emit when bridging field
        // widths; the forced value passes through the adapter unchanged
        // (for `trunc`, the free high bits are set to zero). The repair
        // cannot disturb earlier constraints — the symbol occurs in none
        // of them — and is verified before being kept, so an
        // unsatisfiable adapter equation (e.g. `zext(sym) == v` with `v`
        // wider than the symbol) simply fails verification and drops the
        // model.
        if let Some(w) = &mut self.cur_witness {
            if w.eval(pool, t) != 1 {
                let mut repaired = false;
                if let Term::Binop {
                    op: BinOp::Eq,
                    a,
                    b,
                } = *pool.get(t)
                {
                    for (s_side, e_side) in [(a, b), (b, a)] {
                        let target = match *pool.get(s_side) {
                            Term::Sym { id, .. } => Some(id),
                            Term::Zext { a: inner, .. } | Term::Trunc { a: inner, .. } => {
                                match *pool.get(inner) {
                                    Term::Sym { id, .. } => Some(id),
                                    _ => None,
                                }
                            }
                            _ => None,
                        };
                        if let Some(id) = target {
                            if !self.known_syms.contains(id) {
                                let v = w.eval(pool, e_side);
                                w.set(id, v);
                                if w.eval(pool, t) == 1 {
                                    repaired = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if !repaired {
                    // The model dies; its buffer waits for the next one.
                    self.spare = std::mem::take(w);
                    self.cur_witness = None;
                }
            }
        }
        self.constraints.push(t);
        self.prop.assert_atom(pool, t, true);
        for &s in pool.syms_of(t) {
            self.known_syms.insert(s, ());
        }
    }

    /// Save a checkpoint of the full propagation state.
    ///
    /// A frame is recycled: `pop` keeps it, and the next `push` at its
    /// depth copies the state into its buffers with `clone_from`, field by
    /// field, so a checkpoint allocates only where the state outgrew the
    /// frame's earlier contents — after the first at a depth, usually
    /// nothing.
    pub fn push(&mut self) {
        if let Some(f) = self.frames.get_mut(self.depth) {
            f.prop.clone_from(&self.prop);
            f.n_constraints = self.constraints.len();
            f.known_syms.clone_from(&self.known_syms);
            f.cur_witness.clone_from(&self.cur_witness);
        } else {
            self.frames.push(Frame {
                prop: self.prop.clone(),
                n_constraints: self.constraints.len(),
                known_syms: self.known_syms.clone(),
                cur_witness: self.cur_witness.clone(),
            });
        }
        self.depth += 1;
    }

    /// Restore the most recent checkpoint: its state is swapped back in,
    /// and the frame keeps the discarded state's buffers for the next
    /// `push` to overwrite.
    pub fn pop(&mut self) {
        assert!(self.depth > 0, "pop without matching push");
        self.depth -= 1;
        let f = &mut self.frames[self.depth];
        std::mem::swap(&mut self.prop, &mut f.prop);
        self.constraints.truncate(f.n_constraints);
        std::mem::swap(&mut self.known_syms, &mut f.known_syms);
        std::mem::swap(&mut self.cur_witness, &mut f.cur_witness);
    }

    /// Fill `self.key` with the memo key of `constraints + [extra]`: the
    /// content hash of each term in order, read from the pool.
    fn memo_key(&mut self, pool: &TermPool, extra: Option<TermRef>) {
        self.key.clear();
        let terms = self.constraints.iter().chain(&extra);
        self.key.extend(terms.map(|&t| pool.content_hash(t)));
    }

    /// Make a copy of `m` the current model, in the spare buffer.
    fn revive(&mut self, m: &Witness) {
        let mut w = std::mem::take(&mut self.spare);
        w.clone_from(m);
        self.cur_witness = Some(w);
    }

    /// Witness satisfying `atom` alone, solved once per atom and cached
    /// in the atom memo, which the caller reads it from.
    /// Atoms fully absorbed by propagation (single comparisons — the
    /// overwhelmingly common branch-condition shape) are answered by
    /// reading the propagated domain back, with no search at all.
    fn atom_witness<'c>(
        solver: &Solver,
        pool: &TermPool,
        cache: &'c mut SolverCache,
        atom: TermRef,
    ) -> Option<&'c Witness> {
        let k = pool.content_hash(atom);
        if cache.atom_memo.contains_key(&k) {
            return cache.atom_memo[&k].as_ref();
        }
        let mut prop = Propagator::new();
        prop.assert_atom(pool, atom, true);
        let mut w = None;
        if !prop.contradiction && prop.residual.is_empty() {
            // Fully absorbed: every support symbol has a consistent
            // domain; the low-end assignment (bound value or interval
            // low, nudged off recorded disequalities) is a model if one
            // exists. Verified before use, so this stays sound.
            let mut cand = Witness::default();
            for &s in pool.syms_of(atom) {
                let r = prop.find(s);
                let v = if let Some(v) = prop.bound.get(r) {
                    v
                } else {
                    let iv = prop.iv(pool, r);
                    let v = iv.lo;
                    if prop.diseq.iter().any(|&(ds, dv)| ds == r && dv == v) && v < iv.hi {
                        v + 1
                    } else {
                        v
                    }
                };
                cand.set(r, v);
            }
            for &s in pool.syms_of(atom) {
                let r = prop.find(s);
                let v = cand.get(r);
                cand.set(s, v);
            }
            if cand.eval(pool, atom) == 1 {
                w = Some(cand);
            }
        }
        if w.is_none() && !prop.contradiction {
            // Residual or oddly-shaped atom: run the real procedure once.
            cache.stats.solver_queries += 1;
            let res = solver.finish(
                pool,
                &[atom],
                &mut prop,
                Some(&mut cache.stats),
                &mut cache.scratch,
            );
            if let SolveResult::Sat(got) = res {
                w = Some(got);
            }
        }
        cache.atom_memo.entry(k).or_insert(w).as_ref()
    }

    /// Feasibility of `constraints + [extra]`, decided against the saved
    /// prefix state with a single push/pop. Returns exactly the verdict
    /// the batch `is_feasible` would.
    pub fn probe_feasible(
        &mut self,
        pool: &TermPool,
        cache: &mut SolverCache,
        extra: TermRef,
    ) -> bool {
        cache.stats.checks_requested += 1;
        // 1. The current model already satisfies the extra atom: the
        //    extended list is satisfied by a verified witness.
        if let Some(w) = &self.cur_witness {
            if w.eval(pool, extra) == 1 {
                cache.stats.witness_reuse_hits += 1;
                return true;
            }
        }
        // 2. Exact-list memo (identical ordered probe seen before —
        //    possibly against a different pool holding the same terms).
        self.memo_key(pool, Some(extra));
        if let Some(&f) = cache.list_memo.get(&self.key[..]) {
            cache.stats.memo_hits += 1;
            return f;
        }
        // 3. No live model (scheduled replays assert their prefix without
        //    probing, which usually kills the initial all-zeros model):
        //    revive one from the cache. A model satisfying the whole
        //    extended list answers immediately; the first one satisfying
        //    just the prefix re-arms the merge path below. A model that
        //    fails `extra` remembers it at the extended list's last
        //    position, where the one-atom push below puts it.
        if self.cur_witness.is_none() {
            let (uid, n) = (pool.uid(), self.constraints.len());
            let mut prefix_model = None;
            for i in 0..cache.models.len() {
                let m = &mut cache.models[i];
                if !m.satisfies(pool, &self.constraints) {
                    continue;
                }
                if m.w.eval(pool, extra) == 1 {
                    m.hits += 1;
                    cache.stats.witness_reuse_hits += 1;
                    cache.remember(&self.key, true);
                    self.revive(&cache.models[i].w);
                    return true;
                }
                m.failed = Some((uid, n, extra));
                prefix_model = prefix_model.or(Some(i));
            }
            if let Some(i) = prefix_model {
                cache.models[i].hits += 1;
                self.revive(&cache.models[i].w);
            }
        }
        // 4. Disjoint-support merge: the atom touches only symbols no
        //    current constraint mentions, so a witness of the atom alone
        //    extends the current model without disturbing it.
        if let Some(w) = &mut self.cur_witness {
            let syms = pool.syms_of(extra);
            if !syms.is_empty() && syms.iter().all(|&s| !self.known_syms.contains(s)) {
                if let Some(wa) = Self::atom_witness(&self.solver, pool, cache, extra) {
                    for &s in syms {
                        w.set(s, wa.get(s));
                    }
                    cache.stats.witness_reuse_hits += 1;
                    cache.remember(&self.key, true);
                    cache.push_model(w);
                    return true;
                }
            }
        }
        // 5/6. One-atom push against saved state, then the shared tail:
        //      propagation contradiction answers immediately, otherwise
        //      the decision procedure runs from the saved state (no
        //      replay). Any model found is carried past the pop — it
        //      satisfies prefix + extra, hence the prefix too.
        self.push();
        self.assert_term(pool, extra);
        // `self.key` still holds prefix + extra: this frame's list's key.
        let feasible = self.decide_current(pool, cache);
        self.pop();
        // The popped frame holds the extended list's model, if any: swap
        // it in.
        let popped = &mut self.frames[self.depth].cur_witness;
        if feasible && popped.is_some() {
            std::mem::swap(&mut self.cur_witness, popped);
        }
        feasible
    }

    /// Feasibility of the current constraint list (the final whole-path
    /// check). Same cascade as [`SolverCtx::probe_feasible`].
    pub fn current_feasible(&mut self, pool: &TermPool, cache: &mut SolverCache) -> bool {
        cache.stats.checks_requested += 1;
        self.memo_key(pool, None);
        self.decide_current(pool, cache)
    }

    /// Shared tail of the decision cascade for the *current* constraint
    /// list: memo lookup → model revival → saved-state contradiction →
    /// full procedure from saved state (a model comes back for future
    /// witness reuse). Verdict is memoised under `self.key`, which the
    /// caller filled for the current list.
    fn decide_current(&mut self, pool: &TermPool, cache: &mut SolverCache) -> bool {
        // A live model (e.g. kept alive by assert_term's verified repair)
        // already proves the current list satisfiable.
        if self.cur_witness.is_some() {
            cache.stats.witness_reuse_hits += 1;
            cache.remember(&self.key, true);
            return true;
        }
        if let Some(&f) = cache.list_memo.get(&self.key[..]) {
            cache.stats.memo_hits += 1;
            return f;
        }
        for i in 0..cache.models.len() {
            if cache.models[i].satisfies(pool, &self.constraints) {
                cache.models[i].hits += 1;
                cache.stats.witness_reuse_hits += 1;
                cache.remember(&self.key, true);
                self.revive(&cache.models[i].w);
                return true;
            }
        }
        let feasible = if self.prop.contradiction {
            cache.stats.unsat_by_propagation += 1;
            false
        } else {
            cache.stats.solver_queries += 1;
            cache.prop.clone_from(&self.prop);
            let res = self.solver.finish(
                pool,
                &self.constraints,
                &mut cache.prop,
                Some(&mut cache.stats),
                &mut cache.scratch,
            );
            let feasible = res.possibly_sat();
            if let SolveResult::Sat(w) = res {
                cache.push_model(&w);
                // The decision took the tail's witness buffer with it; the
                // spare one takes its place.
                cache.scratch.w = std::mem::take(&mut self.spare);
                self.cur_witness = Some(w);
            }
            feasible
        };
        cache.remember(&self.key, feasible);
        feasible
    }

    /// Full batch-equivalent decision of the current constraint list.
    /// Bit-identical to `Solver::check(pool, self.constraints())`.
    pub fn check(&self, pool: &TermPool) -> SolveResult {
        if self.prop.contradiction {
            return SolveResult::Unsat;
        }
        self.solver.finish(
            pool,
            &self.constraints,
            &mut self.prop.clone(),
            None,
            &mut FinishScratch::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::SymTable;

    fn solver() -> Solver {
        Solver::default()
    }

    /// The tests' seeded generator: splitmix64 over the seed.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform over `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            match (hi - lo).checked_add(1) {
                Some(n) => lo + self.next() % n,
                None => self.next(),
            }
        }

        /// Uniform over `0..n`.
        fn below(&mut self, n: usize) -> usize {
            self.range(0, n as u64 - 1) as usize
        }

        /// `true` with probability `p`.
        fn coin(&mut self, p: f64) -> bool {
            (self.next() >> 11) as f64 / ((1u64 << 53) as f64) < p
        }
    }

    #[test]
    fn empty_is_sat() {
        let pool = TermPool::new();
        assert!(matches!(solver().check(&pool, &[]), SolveResult::Sat(_)));
    }

    #[test]
    fn field_equality() {
        let mut p = TermPool::new();
        let et = p.fresh_sym("ether_type", Width::W16);
        let c = p.constant(0x0800, Width::W16);
        let eq = p.eq(et, c);
        match solver().check(&p, &[eq]) {
            SolveResult::Sat(w) => assert_eq!(w.get(0), 0x0800),
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn conflicting_equalities_unsat() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let c3 = p.constant(3, Width::W32);
        let c4 = p.constant(4, Width::W32);
        let a = p.eq(x, c3);
        let b = p.eq(x, c4);
        assert_eq!(solver().check(&p, &[a, b]), SolveResult::Unsat);
    }

    #[test]
    fn empty_interval_unsat() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let five = p.constant(5, Width::W32);
        let seven = p.constant(7, Width::W32);
        let lt = p.ult(x, five);
        let ge = p.ule(seven, x);
        assert_eq!(solver().check(&p, &[lt, ge]), SolveResult::Unsat);
    }

    #[test]
    fn boolean_conflict_unsat() {
        let mut p = TermPool::new();
        let b = p.fresh_sym("hit", Width::W1);
        let nb = p.not(b);
        assert_eq!(solver().check(&p, &[b, nb]), SolveResult::Unsat);
    }

    #[test]
    fn union_find_transitivity() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let z = p.fresh_sym("z", Width::W32);
        let c = p.constant(9, Width::W32);
        let exy = p.eq(x, y);
        let eyz = p.eq(y, z);
        let ezc = p.eq(z, c);
        match solver().check(&p, &[exy, eyz, ezc]) {
            SolveResult::Sat(w) => {
                assert_eq!(w.get(0), 9);
                assert_eq!(w.get(1), 9);
                assert_eq!(w.get(2), 9);
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn union_find_conflict() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let c1 = p.constant(1, Width::W32);
        let c2 = p.constant(2, Width::W32);
        let exc = p.eq(x, c1);
        let eyc = p.eq(y, c2);
        let exy = p.eq(x, y);
        assert_eq!(solver().check(&p, &[exc, eyc, exy]), SolveResult::Unsat);
    }

    #[test]
    fn range_witness_in_bounds() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let lo = p.constant(10, Width::W32);
        let hi = p.constant(20, Width::W32);
        let a = p.ule(lo, x);
        let b = p.ult(x, hi);
        match solver().check(&p, &[a, b]) {
            SolveResult::Sat(w) => {
                let v = w.get(0);
                assert!((10..20).contains(&v), "witness {v} out of range");
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn disequality_respected() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let c = p.constant(0, Width::W8);
        let ne = p.ne(x, c);
        let three = p.constant(3, Width::W8);
        let lt = p.ult(x, three);
        match solver().check(&p, &[ne, lt]) {
            SolveResult::Sat(w) => {
                let v = w.get(0);
                assert!(v == 1 || v == 2);
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn equation_directed_repair() {
        // y == x + 5 with x == 3: repair must find y = 8.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let five = p.constant(5, Width::W32);
        let sum = p.add(x, five);
        let eq1 = p.eq(y, sum);
        let three = p.constant(3, Width::W32);
        let eq2 = p.eq(x, three);
        match solver().check(&p, &[eq1, eq2]) {
            SolveResult::Sat(w) => {
                assert_eq!(w.get(0), 3);
                assert_eq!(w.get(1), 8);
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn chain_style_link_constraint() {
        // Downstream input symbol linked to an upstream output expression:
        // out = ite(opts == 0, 0x0800, 0x86dd); in == out; in == 0x0800.
        let mut p = TermPool::new();
        let opts = p.fresh_sym("nf1.ip_opts", Width::W8);
        let inp = p.fresh_sym("nf2.ether_type", Width::W16);
        let zero8 = p.constant(0, Width::W8);
        let is_zero = p.eq(opts, zero8);
        let v4 = p.constant(0x0800, Width::W16);
        let v6 = p.constant(0x86dd, Width::W16);
        let out = p.ite(is_zero, v4, v6);
        let link = p.eq(inp, out);
        let want = p.eq(inp, v4);
        match solver().check(&p, &[link, want]) {
            SolveResult::Sat(w) => {
                assert_eq!(w.get(0), 0, "opts must be 0");
                assert_eq!(w.get(1), 0x0800);
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn constant_contradiction_unsat() {
        let mut p = TermPool::new();
        let inp = p.fresh_sym("in", Width::W16);
        let c5 = p.constant(5, Width::W16);
        let c6 = p.constant(6, Width::W16);
        let a = p.eq(inp, c5);
        let b = p.eq(inp, c6);
        assert_eq!(solver().check(&p, &[a, b]), SolveResult::Unsat);
    }

    #[test]
    fn sat_results_are_verified() {
        let mut p = TermPool::new();
        let a = p.fresh_sym("a", Width::W8);
        let b = p.fresh_sym("b", Width::W8);
        let sum = p.add(a, b);
        let c10 = p.constant(10, Width::W8);
        let eq = p.eq(sum, c10);
        let c3 = p.constant(3, Width::W8);
        let alow = p.ule(a, c3);
        if let SolveResult::Sat(w) = solver().check(&p, &[eq, alow]) {
            assert!(w.satisfies(&p, &[eq, alow]));
        }
        // Unknown is acceptable here (the sum is outside the propagator's
        // fragment); Sat must be genuine when returned.
    }

    #[test]
    fn determinism() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let lo = p.constant(100, Width::W32);
        let c = p.ule(lo, x);
        let w1 = match solver().check(&p, &[c]) {
            SolveResult::Sat(w) => w,
            r => panic!("expected sat, got {r:?}"),
        };
        let w2 = match solver().check(&p, &[c]) {
            SolveResult::Sat(w) => w,
            r => panic!("expected sat, got {r:?}"),
        };
        assert_eq!(w1, w2);
    }

    #[test]
    fn negated_comparison_normalisation() {
        // !(x < 5) and x <= 4 is unsat.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let five = p.constant(5, Width::W32);
        let four = p.constant(4, Width::W32);
        let lt = p.ult(x, five);
        let nlt = p.not(lt);
        let le4 = p.ule(x, four);
        assert_eq!(solver().check(&p, &[nlt, le4]), SolveResult::Unsat);
    }

    #[test]
    fn a_model_past_the_budget_is_unknown_and_feasible() {
        // Two unbound 64-bit symbols span 2^128 candidates, and the first
        // model is 2^40 of them away: the sweep stops at its budget, and
        // completion has no equation to repair through.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W64);
        let y = p.fresh_sym("y", Width::W64);
        let xor = p.xor(x, y);
        let far = p.constant(1 << 40, Width::W64);
        let eq = p.eq(xor, far);
        assert_eq!(solver().check(&p, &[eq]), SolveResult::Unknown);
        assert!(solver().is_feasible(&p, &[eq]));
    }

    #[test]
    fn a_near_model_of_wide_symbols_is_the_sweeps_first() {
        // Three 64-bit symbols: x varies fastest, so the first model is
        // (5, 0, 0), the sixth candidate.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W64);
        let y = p.fresh_sym("y", Width::W64);
        let z = p.fresh_sym("z", Width::W64);
        let xy = p.add(x, y);
        let xyz = p.add(xy, z);
        let five = p.constant(5, Width::W64);
        let eq = p.eq(xyz, five);
        let w = solver().check(&p, &[eq]);
        let w = w.witness().expect("sat");
        assert_eq!((w.get(0), w.get(1), w.get(2)), (5, 0, 0));
    }

    #[test]
    fn completion_repairs_through_a_link_equation() {
        // A chain's checksum link, `out + 0x100 == in` over 16 bits, with
        // `out` at least 1: `out` varies fastest, so the sweep's first
        // model (0xff00, 0) lies past its budget. Completion starts both
        // at their least values and repairs `in`.
        let mut p = TermPool::new();
        let out = p.fresh_sym("nf1.pkt@24:2", Width::W16);
        let inp = p.fresh_sym("nf2.pkt@24:2", Width::W16);
        let (one, k) = (p.constant(1, Width::W16), p.constant(0x100, Width::W16));
        let sum = p.add(out, k);
        let cs = [p.ule(one, out), p.eq(sum, inp)];
        let w = assert_decided(&p, &cs);
        assert_eq!((w.get(0), w.get(1)), (1, 0x101));
        let s = solver();
        let (mut ctx, mut cache) = (SolverCtx::new(&s), SolverCache::new());
        for &c in &cs {
            ctx.assert_term(&p, c);
        }
        assert!(ctx.current_feasible(&p, &mut cache));
        assert_eq!(cache.stats.completion_searches, 1);
    }

    /// `cs` gets a verified `Sat` from batch `check` and from a context
    /// that asserts it and decides it through a session; both models are
    /// the batch one.
    fn assert_decided(p: &TermPool, cs: &[TermRef]) -> Witness {
        let w = match solver().check(p, cs) {
            SolveResult::Sat(w) => w,
            r => panic!("expected sat, got {r:?}"),
        };
        assert!(w.satisfies(p, cs), "the batch witness must verify");
        let s = solver();
        let mut ctx = SolverCtx::new(&s);
        for &c in cs {
            ctx.assert_term(p, c);
        }
        assert_eq!(ctx.check(p), SolveResult::Sat(w.clone()));
        let mut cache = SolverCache::new();
        assert!(ctx.current_feasible(p, &mut cache));
        let m = ctx.model().expect("a decided list keeps its model");
        assert!(m.satisfies(p, cs), "the context's model must verify");
        w
    }

    /// The NAT's path 0: an expiry count one value wider than a sweep
    /// takes, and a protocol of TCP or UDP. Symbols: expired 0, ether
    /// type 1, protocol 2, in-port 3.
    fn nat_path_0(p: &mut TermPool) -> Vec<TermRef> {
        let expired = p.fresh_sym("nat.expired", Width::W32);
        let ether = p.fresh_sym("pkt@12:2", Width::W16);
        let proto = p.fresh_sym("pkt@23:1", Width::W8);
        let port = p.fresh_sym("pkt.in_port", Width::W16);
        let cap = p.constant(0x1000, Width::W32);
        let ipv4 = p.constant(0x800, Width::W16);
        let (tcp, udp) = (p.constant(6, Width::W8), p.constant(17, Width::W8));
        let zero = p.constant(0, Width::W16);
        let (is_tcp, is_udp) = (p.eq(proto, tcp), p.eq(proto, udp));
        let internal = p.eq(port, zero);
        vec![
            p.ule(expired, cap),
            p.eq(ether, ipv4),
            p.or(is_tcp, is_udp),
            p.not(internal),
        ]
    }

    #[test]
    fn an_absorbed_bound_leaves_the_sweep_nat_path_0() {
        let mut p = TermPool::new();
        let cs = nat_path_0(&mut p);
        let w = assert_decided(&p, &cs);
        // Each from its domain's low end: expired and the protocol sweep
        // to their first models, the port off its excluded zero.
        assert_eq!((w.get(0), w.get(1), w.get(2), w.get(3)), (0, 0x800, 6, 1));
    }

    #[test]
    fn a_wide_disequality_is_absorbed_nat_path_4() {
        let mut p = TermPool::new();
        let mut cs = nat_path_0(&mut p);
        let packed = p.fresh_sym("nat.ext.packed", Width::W32);
        let zero = p.constant(0, Width::W32);
        cs.push(p.ne(packed, zero));
        let w = assert_decided(&p, &cs);
        assert_eq!(w.get(4), 1, "packed takes its domain's low end");
    }

    #[test]
    fn a_prefix_match_is_an_interval() {
        // The /24 of `tests/calibrate_once.rs`, alone, beside a second
        // atom that keeps the address in a component, and against a
        // bound and a second prefix it cannot meet.
        let mut p = TermPool::new();
        let addr = p.fresh_sym("pkt@30:4", Width::W32);
        let mask = p.constant(0xffff_ff00, Width::W32);
        let net = p.constant(0x100, Width::W32);
        let masked = p.and(addr, mask);
        let prefix = p.eq(masked, net);
        let w = assert_decided(&p, &[prefix]);
        assert_eq!(w.get(0), 0x100);
        let host = p.constant(0x1_0005, Width::W32);
        let sum = p.add(addr, host);
        let c = p.constant(0x1_010a, Width::W32);
        let shifted = p.eq(sum, c);
        let w = assert_decided(&p, &[prefix, shifted]);
        assert_eq!(
            w.get(0),
            0x105,
            "the first of the prefix's 256 hosts that fits"
        );
        let low = p.constant(0xff, Width::W32);
        let below = p.ule(addr, low);
        assert_eq!(solver().check(&p, &[prefix, below]), SolveResult::Unsat);
        let other = p.constant(0x200, Width::W32);
        let clash = p.eq(masked, other);
        assert_eq!(
            solver().check(&p, &[prefix, clash, shifted]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn prefix_spans_are_the_matching_values() {
        // Every mask of one byte the pool keeps (it folds `x & 0` and
        // `x & 0xff`): a run of high bits gives, for each `c`, the values
        // `x` with `x & m == c` as one interval; a `c` no value matches,
        // or another mask, gives none.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        for m in 1..255u64 {
            let k = p.constant(m, Width::W8);
            let masked = p.and(x, k);
            let prefix = (!m & 0xff).count_ones() == m.trailing_zeros();
            for c in 0..=255u64 {
                let got = Propagator::prefix_match(&p, masked, c).map(|(_, iv)| (iv.lo, iv.hi));
                let values: Vec<u64> = (0..=255).filter(|v| v & m == c).collect();
                let want = match values[..] {
                    [] => None,
                    [lo, .., hi] => Some((lo, hi)),
                    [v] => Some((v, v)),
                };
                assert_eq!(got, want.filter(|_| prefix), "mask {m:#x}, c {c:#x}");
            }
        }
    }

    // ------------------------------------------------------------------
    // The component sweep's kernel against the tree walk it replaced
    // ------------------------------------------------------------------

    /// The sweep as it was before the kernel, the reference it is
    /// compared with: every candidate evaluates every constraint as a
    /// tree through `TermPool::eval`, and carries with the loop the
    /// kernel's `next_candidate` replaced.
    fn sweep_by_tree(
        pool: &TermPool,
        terms: &[TermRef],
        swept: &[(SymId, usize)],
        intervals: &[Interval],
        env: &mut [u64],
    ) -> Option<Vec<u64>> {
        let mut assignment: Vec<u64> = intervals.iter().map(|iv| iv.lo).collect();
        loop {
            for &(s, i) in swept {
                env[s as usize] = assignment[i];
            }
            if terms
                .iter()
                .all(|&c| pool.eval(c, &|id| env[id as usize]) == 1)
            {
                return Some(assignment);
            }
            let mut i = 0;
            loop {
                if i == intervals.len() {
                    return None;
                }
                if assignment[i] < intervals[i].hi {
                    assignment[i] += 1;
                    break;
                }
                assignment[i] = intervals[i].lo;
                i += 1;
            }
        }
    }

    /// `f(x) == k` over one unbound byte `x` (id 0), in a shape
    /// propagation leaves to the sweep.
    fn one_byte_sweep(
        f: impl Fn(&mut TermPool, TermRef) -> TermRef,
        k: u64,
    ) -> (TermPool, Vec<TermRef>) {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let fx = f(&mut p, x);
        let k = p.constant(k, Width::W8);
        let eq = p.eq(fx, k);
        (p, vec![eq])
    }

    fn low_nibble(p: &mut TermPool, x: TermRef) -> TermRef {
        let c15 = p.constant(15, Width::W8);
        p.and(x, c15)
    }

    #[test]
    fn sweep_ends_where_the_first_model_is() {
        // The first candidate, the second, the last of the 256, and none.
        let successor = |p: &mut TermPool, x| {
            let one = p.constant(1, Width::W8);
            p.add(x, one)
        };
        let (p, cs) = one_byte_sweep(low_nibble, 0);
        assert_eq!(solver().check(&p, &cs).witness().unwrap().get(0), 0);
        let (p, cs) = one_byte_sweep(low_nibble, 1);
        assert_eq!(solver().check(&p, &cs).witness().unwrap().get(0), 1);
        let (p, cs) = one_byte_sweep(successor, 0);
        assert_eq!(solver().check(&p, &cs).witness().unwrap().get(0), 255);
        let (p, cs) = one_byte_sweep(low_nibble, 16);
        assert_eq!(solver().check(&p, &cs), SolveResult::Unsat);
    }

    #[test]
    fn two_symbol_sweep_carries() {
        // x, y < 16 and x + y == k: x varies fastest, so the first model
        // of k = 17 is (15, 2) — two carries in; k = 30 is the very last
        // candidate and k = 31 exhausts all 256.
        let sum_is = |k: u64| {
            let mut p = TermPool::new();
            let x = p.fresh_sym("x", Width::W8);
            let y = p.fresh_sym("y", Width::W8);
            let c16 = p.constant(16, Width::W8);
            let k = p.constant(k, Width::W8);
            let sum = p.add(x, y);
            let cs = vec![p.ult(x, c16), p.ult(y, c16), p.eq(sum, k)];
            (p, cs)
        };
        let (p, cs) = sum_is(17);
        let w = solver().check(&p, &cs);
        let w = w.witness().unwrap();
        assert_eq!((w.get(0), w.get(1)), (15, 2));
        let (p, cs) = sum_is(30);
        let w = solver().check(&p, &cs);
        let w = w.witness().unwrap();
        assert_eq!((w.get(0), w.get(1)), (15, 15));
        let (p, cs) = sum_is(31);
        assert_eq!(solver().check(&p, &cs), SolveResult::Unsat);
    }

    #[test]
    fn sweep_keeps_width_adapters() {
        // x ≤ 7 a byte, y ≤ 499 sixteen bits. `zext16(trunc8(y * 0x101))`
        // is y's low byte only if the truncation masks (operators mask
        // their operands, an extension does not), and `zext16(x) + y`
        // needs x's value unchanged. First model: y = 0x125, x = 7.
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let y = p.fresh_sym("y", Width::W16);
        let c7 = p.constant(7, Width::W8);
        let c499 = p.constant(499, Width::W16);
        let spread = p.constant(0x101, Width::W16);
        let spread = p.mul(y, spread);
        let low = p.trunc(spread, Width::W8);
        let low = p.zext(low, Width::W16);
        let c25 = p.constant(0x25, Width::W16);
        let wide_x = p.zext(x, Width::W16);
        let sum = p.add(wide_x, y);
        let c300 = p.constant(300, Width::W16);
        let cs = vec![
            p.ule(x, c7),
            p.ule(y, c499),
            p.eq(low, c25),
            p.eq(sum, c300),
        ];
        let w = solver().check(&p, &cs);
        let w = w.witness().unwrap();
        assert_eq!((w.get(0), w.get(1)), (7, 0x125));
    }

    /// A seeded random constraint list whose one component is enumerable:
    /// a DAG over one or two swept symbols (`W8`, or a `W16` narrowed to
    /// fit), a second member of the first one's class, and two symbols
    /// bound by equations, built from every operator with operands drawn
    /// from the nodes so far — so subterms are shared, some depend on no
    /// swept symbol, and `Ite` conditions usually depend on one. Beside
    /// the list comes the sweep over it: x and x2 share slot 0, y is
    /// slot 1 or bound to 0, b8 and b16 are bound. Half the lists are
    /// *masked*: the swept symbols enter only through their low bits —
    /// `x & c`, `trunc8(y)`, `zext16(x & c)`, `x == x2` — and only the
    /// intervals, which start anywhere, bound them, so the sweep narrows.
    fn random_component(seed: u64) -> (TermPool, Vec<TermRef>, SweepInput) {
        const OPS: [BinOp; 12] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Ult,
            BinOp::Ule,
        ];
        let mut rng = TestRng(seed);
        let mut p = TermPool::new();
        let two_swept = rng.coin(0.5);
        let wide = rng.coin(0.5);
        let masked = rng.coin(0.5);
        let x = p.fresh_sym("x", Width::W8);
        let x2 = p.fresh_sym("x2", Width::W8);
        let y = p.fresh_sym("y", if wide { Width::W16 } else { Width::W8 });
        let b8 = p.fresh_sym("b8", Width::W8);
        let b16 = p.fresh_sym("b16", Width::W16);
        let mut cs = Vec::new();
        // Bind the bound ones, join the class, keep the domain ≤ 4096.
        let (v8, v16) = (rng.range(0, 255), rng.range(0, 0xffff));
        let env = vec![0, 0, 0, v8, v16];
        let (v8, v16) = (p.constant(v8, Width::W8), p.constant(v16, Width::W16));
        cs.push(p.eq(b8, v8));
        cs.push(p.eq(b16, v16));
        cs.push(p.eq(x, x2));
        let (x_span, y_span) = match (two_swept, wide) {
            (false, _) => (256, 1),
            (true, false) => (64, 64),
            (true, true) => (8, 500),
        };
        let y_width = p.width(y);
        let mut interval = |span: u64, w: Width| {
            let lo = if masked {
                rng.range(0, w.mask() + 1 - span)
            } else {
                0
            };
            Interval {
                lo,
                hi: lo + span - 1,
            }
        };
        let (x_iv, y_iv) = (interval(x_span, Width::W8), interval(y_span, y_width));
        let sweep = if two_swept {
            (vec![(0, 0), (1, 0), (2, 1)], vec![x_iv, y_iv], env)
        } else {
            (vec![(0, 0), (1, 0)], vec![x_iv], env)
        };
        // [W1, W8, W16] nodes to draw operands from.
        let mut nodes: [Vec<TermRef>; 3] = [vec![p.eq(x, x2)], vec![b8], vec![b16]];
        if masked {
            // Low bits through random masks; one mask shared by x and x2
            // makes the pair's equality a node.
            let mut low = |p: &mut TermPool, s: TermRef| {
                let w = p.width(s);
                let c = rng.range(0, w.mask()) >> rng.range(0, w.bits() as u64 - 1);
                let c = p.constant(c, w);
                p.and(s, c)
            };
            for _ in 0..2 {
                let (lx, lx2) = (low(&mut p, x), low(&mut p, x2));
                nodes[1].extend([lx, lx2]);
            }
            let ly = low(&mut p, y);
            if wide {
                nodes[2].push(ly);
                nodes[1].push(p.trunc(y, Width::W8));
            } else {
                nodes[1].push(ly);
            }
            let same = p.constant(15, Width::W8);
            let (lx, lx2) = (p.and(x, same), p.and(x2, same));
            let pair = p.eq(lx, lx2);
            nodes[0].push(pair);
            nodes[2].push(p.zext(lx, Width::W16));
            // Now and then x escapes the masks through an `Ite` arm or a
            // `Not`, which read it whole.
            match rng.range(0, 3) {
                0 => nodes[1].push(p.ite(pair, x, lx)),
                1 => nodes[1].push(p.not(x)),
                _ => {}
            }
        } else {
            let x_lim = p.constant(x_span - 1, Width::W8);
            let y_lim = p.constant(y_span - 1, y_width);
            cs.push(p.ule(x, x_lim));
            cs.push(p.ule(y, y_lim));
            nodes[1].extend([x, x2]);
            nodes[if wide { 2 } else { 1 }].push(y);
        }
        let fixed = p.add(b8, v8);
        nodes[1].push(fixed);
        for _ in 0..4 {
            let k8 = p.constant(rng.range(0, 255), Width::W8);
            let k16 = p.constant(rng.range(0, 0xffff), Width::W16);
            nodes[1].push(k8);
            nodes[2].push(k16);
        }
        let pick = |rng: &mut TestRng, of: &[TermRef]| of[rng.below(of.len())];
        for _ in 0..rng.range(12, 40) {
            let wi = rng.range(1, 2) as usize;
            let (a, b) = (pick(&mut rng, &nodes[wi]), pick(&mut rng, &nodes[wi]));
            match rng.range(0, 5) {
                0..=2 => {
                    let op = OPS[rng.below(OPS.len())];
                    let t = p.binop(op, a, b);
                    nodes[if op.is_comparison() { 0 } else { wi }].push(t);
                }
                3 => {
                    let t = p.not(a);
                    nodes[wi].push(t);
                }
                4 if !nodes[0].is_empty() => {
                    let c = pick(&mut rng, &nodes[0]);
                    let c = if rng.coin(0.3) { p.not(c) } else { c };
                    let t = p.ite(c, a, b);
                    nodes[wi].push(t);
                }
                _ => {
                    let narrow = pick(&mut rng, &nodes[1]);
                    let wider = pick(&mut rng, &nodes[2]);
                    let z = p.zext(narrow, Width::W16);
                    let t = p.trunc(wider, Width::W8);
                    nodes[2].push(z);
                    nodes[1].push(t);
                }
            }
        }
        let over_swept = |p: &TermPool, of: &[TermRef]| -> Vec<TermRef> {
            of.iter()
                .copied()
                .filter(|&t| p.syms_of(t).iter().any(|&s| s <= 2))
                .collect()
        };
        // Half the lists pin a byte node to its value at a random
        // candidate, so a model exists, often past the first candidate.
        let bytes = over_swept(&p, &nodes[1]);
        if rng.coin(0.5) && !bytes.is_empty() {
            let (swept, intervals, env) = &sweep;
            let point: Vec<u64> = intervals.iter().map(|iv| rng.range(iv.lo, iv.hi)).collect();
            let mut at = env.clone();
            for &(s, i) in swept {
                at[s as usize] = point[i];
            }
            let n = pick(&mut rng, &bytes);
            let v = p.eval(n, &|id| at[id as usize]);
            let v = p.constant(v, Width::W8);
            cs.push(p.eq(n, v));
        }
        // Boolean nodes over a swept symbol become constraints, some
        // through a connective propagation does not flatten.
        let over_swept = over_swept(&p, &nodes[0]);
        for _ in 0..(rng.range(1, 4) as usize).min(over_swept.len()) {
            let c = pick(&mut rng, &over_swept);
            let c = match rng.range(0, 3) {
                0 => p.not(c),
                1 => {
                    let d = pick(&mut rng, &over_swept);
                    p.or(c, d)
                }
                _ => c,
            };
            cs.push(c);
        }
        (p, cs, sweep)
    }

    /// What the solver hands [`SweepKernel::sweep`] for one component:
    /// each swept symbol's slot, each slot's interval, the environment.
    type SweepInput = (Vec<(SymId, usize)>, Vec<Interval>, Vec<u64>);

    #[test]
    fn kernel_matches_the_tree_sweep_on_random_dags() {
        // One kernel for every seed, as one `finish` reuses it across
        // components.
        let mut kernel = SweepKernel::default();
        let (mut sat, mut unsat, mut past_first, mut narrowed) = (0, 0, 0, 0);
        for seed in 0..400 {
            let (p, cs, (swept, intervals, mut env)) = random_component(seed);
            let by_kernel = match kernel.sweep(&p, cs.iter().copied(), &swept, &intervals, &env) {
                Swept::Model(model) => Some(model.to_vec()),
                Swept::Refuted => None,
                Swept::OverBudget => panic!("seed {seed}: a component within the budget"),
            };
            let by_tree = sweep_by_tree(&p, &cs, &swept, &intervals, &mut env);
            assert_eq!(by_kernel, by_tree, "seed {seed}: the kernel moved a model");
            let window = kernel.window.iter().zip(&intervals);
            narrowed += window.clone().any(|(w, iv)| w.hi < iv.hi) as u32;
            match by_kernel {
                Some(model) => {
                    sat += 1;
                    past_first += window.zip(&model).any(|((w, _), &v)| v != w.lo) as u32;
                }
                None => unsat += 1,
            }
        }
        // The generator reaches every way a sweep ends: at its first
        // candidate, at a later one, and exhausted; and many sweeps visit
        // part of their intervals only.
        assert!(
            sat > past_first && past_first >= 40 && unsat >= 40 && narrowed >= 80,
            "{sat} sat, {past_first} of them past the first candidate, {unsat} unsat, \
             {narrowed} narrowed"
        );
    }

    #[test]
    fn the_window_spans_the_bits_a_sweep_reads() {
        // The IHL refutation of `tests/work_counts.rs` reads `x & 15`
        // only: 16 of the byte's 256 values. A bare `x < 200` reads all
        // eight bits.
        let ihl = |bare: bool| {
            let mut p = TermPool::new();
            let x = p.fresh_sym("pkt@14:1", Width::W8);
            let (c15, c5) = (p.constant(15, Width::W8), p.constant(5, Width::W8));
            let ihl = p.and(x, c15);
            let short = p.ult(ihl, c5);
            let mut cs = vec![p.not(short)];
            let options = p.sub(ihl, c5);
            for k in 0..=10 {
                let k = p.constant(k, Width::W8);
                cs.push(p.ult(k, options));
            }
            cs.push(p.ule(ihl, c5));
            if bare {
                let c200 = p.constant(200, Width::W8);
                cs.push(p.ult(x, c200));
            }
            (p, cs)
        };
        let mut kernel = SweepKernel::default();
        for (bare, hi) in [(false, 15), (true, 255)] {
            let (p, cs) = ihl(bare);
            let full = [Interval { lo: 0, hi: 255 }];
            assert_eq!(kernel.sweep(&p, cs, &[(0, 0)], &full, &[0]), Swept::Refuted);
            assert_eq!((kernel.window[0].lo, kernel.window[0].hi), (0, hi));
        }
    }

    // ------------------------------------------------------------------
    // Incremental context
    // ------------------------------------------------------------------

    #[test]
    fn ctx_check_matches_batch() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W16);
        let y = p.fresh_sym("y", Width::W16);
        let c1 = p.constant(7, Width::W16);
        let eq = p.eq(x, c1);
        let lim = p.constant(100, Width::W16);
        let lt = p.ult(y, lim);
        let link = p.eq(x, y);
        let cs = [eq, lt, link];
        let s = solver();
        let mut ctx = SolverCtx::new(&s);
        for &c in &cs {
            ctx.assert_term(&p, c);
        }
        assert_eq!(ctx.check(&p), s.check(&p, &cs));
    }

    /// The content hash as a recursive FNV-1a fold over the term's tree:
    /// the oracle [`TermPool::content_hash`], which folds each node once
    /// when the pool interns it, must equal.
    fn content_hash_oracle(pool: &TermPool, t: TermRef) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0100_0000_01b3);
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        match *pool.get(t) {
            Term::Const { value, width } => {
                h = mix(h, 1);
                h = mix(h, value);
                h = mix(h, width.bits() as u64);
            }
            Term::Sym { id, width } => {
                h = mix(h, 2);
                h = mix(h, id as u64);
                h = mix(h, width.bits() as u64);
                for b in pool.sym_name(id).bytes() {
                    h = mix(h, b as u64);
                }
            }
            Term::Unop { op, a } => {
                h = mix(h, 3);
                h = mix(h, op as u64);
                h = mix(h, content_hash_oracle(pool, a));
            }
            Term::Binop { op, a, b } => {
                h = mix(h, 4);
                h = mix(h, op as u64);
                h = mix(h, content_hash_oracle(pool, a));
                h = mix(h, content_hash_oracle(pool, b));
            }
            Term::Ite { c, t: tt, e } => {
                h = mix(h, 5);
                h = mix(h, content_hash_oracle(pool, c));
                h = mix(h, content_hash_oracle(pool, tt));
                h = mix(h, content_hash_oracle(pool, e));
            }
            Term::Zext { a, width } => {
                h = mix(h, 6);
                h = mix(h, width.bits() as u64);
                h = mix(h, content_hash_oracle(pool, a));
            }
            Term::Trunc { a, width } => {
                h = mix(h, 7);
                h = mix(h, width.bits() as u64);
                h = mix(h, content_hash_oracle(pool, a));
            }
        }
        h
    }

    fn assert_hashes_match_the_oracle(pool: &TermPool, what: &str) {
        for i in 0..pool.len() {
            let t = TermRef::from_raw(i as u32);
            assert_eq!(
                pool.content_hash(t),
                content_hash_oracle(pool, t),
                "{what}: {}",
                pool.display(t)
            );
        }
    }

    #[test]
    fn content_hashes_are_the_recursive_fold() {
        use bolt_store::codec::{read_pool, write_pool};
        use bolt_store::{ByteReader, ByteWriter};
        for seed in 0..32 {
            let (pool, _, _) = random_component(seed);
            assert_hashes_match_the_oracle(&pool, "built");
            let mut replayed = TermPool::new();
            for (name, width) in pool.sym_entries() {
                replayed.register_sym(name, width);
            }
            for node in pool.nodes() {
                replayed.intern_node(node.clone());
            }
            assert_hashes_match_the_oracle(&replayed, "replayed");
            let mut absorbed = TermPool::new();
            let mut syms = SymTable::default();
            absorbed.absorb_with(&pool, |dst, name, w| syms.sym_for(dst, name, w));
            assert_hashes_match_the_oracle(&absorbed, "absorbed");
            let mut w = ByteWriter::new();
            write_pool(&mut w, &pool);
            let bytes = w.into_bytes();
            let decoded = read_pool(&mut ByteReader::new(&bytes)).expect("round trip");
            assert_hashes_match_the_oracle(&decoded, "decoded");
            for i in 0..pool.len() {
                let t = TermRef::from_raw(i as u32);
                assert_eq!(decoded.content_hash(t), pool.content_hash(t));
            }
        }
    }

    /// A pool of comparison atoms over symbols `name` and `name'`
    /// against constants from `k`. Two calls make the same `TermRef`s.
    fn twin_pool(name: &str, k: u64) -> (TermPool, Vec<TermRef>) {
        let mut p = TermPool::new();
        let x = p.fresh_sym(name, Width::W8);
        let y = p.fresh_sym(format!("{name}'"), Width::W8);
        let mut atoms = Vec::new();
        for i in 0..4 {
            let c = p.constant(k + i, Width::W8);
            atoms.push(p.ult(x, c));
            atoms.push(p.ne(y, c));
            let sum = p.add(x, y);
            atoms.push(p.eq(sum, c));
        }
        (p, atoms)
    }

    #[test]
    fn content_hashes_tell_symbol_names_apart() {
        let (pa, atoms) = twin_pool("x", 3);
        let (pb, atoms_b) = twin_pool("y", 3);
        assert_eq!(atoms, atoms_b, "the same refs in both pools");
        assert_eq!(pa.nodes(), pb.nodes(), "the same nodes, other names");
        for i in 0..pa.len() {
            let t = TermRef::from_raw(i as u32);
            assert_eq!(
                pa.content_hash(t) == pb.content_hash(t),
                pa.syms_of(t).is_empty(),
                "{} vs {}",
                pa.display(t),
                pb.display(t)
            );
        }
    }

    #[test]
    fn memo_keys_are_the_oracle_fold() {
        // Two pools built by the same calls, over differently named
        // symbols and other constants: each `TermRef` names a term in
        // both, with other content hashes. After every step of a seeded
        // assert/push/probe/pop/switch-pool sequence, the memo key of
        // the list, with and without an extra atom, must be its terms'
        // recursive folds in the current pool.
        let (pa, atoms) = twin_pool("x", 3);
        let (pb, atoms_b) = twin_pool("y", 40);
        assert_eq!(atoms, atoms_b, "the same refs in both pools");
        let s = solver();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        let mut rng = TestRng(7);
        let mut on_b = false;
        let (mut pushes, mut pops, mut switches) = (0, 0, 0);
        for _ in 0..400 {
            let pool = if on_b { &pb } else { &pa };
            let atom = atoms[rng.below(atoms.len())];
            match rng.range(0, 4) {
                0 => ctx.assert_term(pool, atom),
                1 if ctx.depth() < 4 => {
                    ctx.push();
                    pushes += 1;
                }
                2 => {
                    ctx.probe_feasible(pool, &mut cache, atom);
                }
                3 if ctx.depth() > 0 => {
                    ctx.pop();
                    pops += 1;
                }
                _ => {
                    on_b = !on_b;
                    switches += 1;
                }
            }
            let pool = if on_b { &pb } else { &pa };
            let cs = ctx.constraints().to_vec();
            for extra in [None, Some(atom)] {
                ctx.memo_key(pool, extra);
                let want: Vec<u64> = cs
                    .iter()
                    .chain(&extra)
                    .map(|&c| content_hash_oracle(pool, c))
                    .collect();
                assert_eq!(ctx.key, want);
            }
        }
        assert!(pushes >= 20 && pops >= 20 && switches >= 20);
    }

    /// Range atoms over four symbols named from `name`, against constants
    /// from `k`: lists of them are mostly satisfiable, by many models.
    /// Two calls make the same `TermRef`s.
    fn range_pool(name: &str, k: u64) -> (TermPool, Vec<TermRef>) {
        let mut p = TermPool::new();
        let xs: Vec<TermRef> = (0..4)
            .map(|i| p.fresh_sym(format!("{name}{i}"), Width::W8))
            .collect();
        let mut atoms = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            for d in [5, 20, 60] {
                let c = p.constant(k + d, Width::W8);
                atoms.push(p.ult(x, c));
            }
            for d in [1, 10, 30] {
                let c = p.constant(k + d, Width::W8);
                atoms.push(p.ule(c, x));
            }
            for d in [0, 1, 11] {
                let c = p.constant(k + d, Width::W8);
                atoms.push(p.ne(x, c));
            }
            let y = xs[(i + 1) % xs.len()];
            let c = p.constant(k + 2, Width::W8);
            let sum = p.add(x, y);
            atoms.push(p.ne(sum, c));
            atoms.push(p.ult(x, y));
        }
        (p, atoms)
    }

    #[test]
    fn remembered_failures_move_no_verdict_model_or_counter() {
        // One seeded assert/push/probe/pop/switch-pool sequence drives
        // two contexts, each with its own cache, over two pools that give
        // the same refs other terms. The second cache forgets every
        // model's remembered failure before each request, so it tests
        // every model by evaluation; verdicts, current models, cached
        // models and every counter must still agree after every step.
        let (pa, atoms) = range_pool("x", 3);
        let (pb, _) = range_pool("y", 40);
        let s = solver();
        let (mut cache_a, mut cache_b) = (SolverCache::new(), SolverCache::new());
        let (mut ctx_a, mut ctx_b) = (SolverCtx::new(&s), SolverCtx::new(&s));
        let mut rng = TestRng(11);
        let mut on_b = false;
        // Requests at which a model's remembered failure still applied.
        let mut remembered = 0;
        for step in 0..2000 {
            let pool = if on_b { &pb } else { &pa };
            let atom = atoms[rng.below(atoms.len())];
            // Asserts sit above a checkpoint, so pops keep lists short.
            let request = match rng.range(0, 7) {
                0 | 1 if ctx_a.depth() > 0 => {
                    ctx_a.assert_term(pool, atom);
                    ctx_b.assert_term(pool, atom);
                    None
                }
                0..=2 if ctx_a.depth() < 6 => {
                    ctx_a.push();
                    ctx_b.push();
                    None
                }
                3 if ctx_a.depth() > 0 => {
                    ctx_a.pop();
                    ctx_b.pop();
                    None
                }
                4 => Some(Some(atom)),
                5 => Some(None),
                _ => {
                    on_b = !on_b;
                    None
                }
            };
            if let Some(extra) = request {
                let mut list = ctx_a.constraints().to_vec();
                list.extend(extra);
                remembered += cache_a
                    .models
                    .iter()
                    .filter(|m| {
                        m.failed.is_some_and(|(uid, at, t)| {
                            uid == pool.uid() && list.get(at) == Some(&t)
                        })
                    })
                    .count();
                for m in &mut cache_b.models {
                    m.failed = None;
                }
                let (a, b) = match extra {
                    Some(t) => (
                        ctx_a.probe_feasible(pool, &mut cache_a, t),
                        ctx_b.probe_feasible(pool, &mut cache_b, t),
                    ),
                    None => (
                        ctx_a.current_feasible(pool, &mut cache_a),
                        ctx_b.current_feasible(pool, &mut cache_b),
                    ),
                };
                assert_eq!(a, b, "verdict at step {step}");
            }
            assert_eq!(ctx_a.model(), ctx_b.model(), "model at step {step}");
            assert_eq!(cache_a.stats, cache_b.stats, "stats at step {step}");
            let cached = |c: &SolverCache| {
                c.models
                    .iter()
                    .map(|m| (m.w.clone(), m.hits, m.seq))
                    .collect::<Vec<_>>()
            };
            assert_eq!(cached(&cache_a), cached(&cache_b), "cache at step {step}");
        }
        let st = cache_a.stats;
        assert!(
            st.witness_reuse_hits > 200 && st.solver_queries > 40,
            "{st:?}"
        );
        assert!(st.model_evictions > 10, "{st:?}");
        assert!(
            remembered > 1000,
            "only {remembered} remembered failures applied"
        );
    }

    #[test]
    fn push_pop_restores_state() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W8);
        let c5 = p.constant(5, Width::W8);
        let lt = p.ult(x, c5);
        let ge = p.ule(c5, x);
        let s = solver();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        ctx.assert_term(&p, lt);
        // Probe the contradictory extension, then check the prefix again.
        assert!(!ctx.probe_feasible(&p, &mut cache, ge));
        assert_eq!(ctx.depth(), 0, "probe leaves no open frame");
        assert!(ctx.current_feasible(&p, &mut cache));
        assert_eq!(ctx.constraints(), &[lt]);
    }

    #[test]
    fn probe_matches_batch_classification() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W16);
        let y = p.fresh_sym("y", Width::W16);
        let c10 = p.constant(10, Width::W16);
        let c20 = p.constant(20, Width::W16);
        let base = vec![p.ule(c10, x), p.ult(x, c20)];
        let probes = vec![
            p.eq(y, c10),
            p.ult(x, c10), // contradicts the prefix
            p.eq(x, y),
            p.ne(x, x), // constant false
        ];
        let s = solver();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        for &c in &base {
            ctx.assert_term(&p, c);
        }
        for &atom in &probes {
            let mut full = base.clone();
            full.push(atom);
            assert_eq!(
                ctx.probe_feasible(&p, &mut cache, atom),
                s.is_feasible(&p, &full),
                "probe diverged from batch on {}",
                p.display(atom)
            );
        }
    }

    #[test]
    fn memo_answers_repeated_probes() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let c = p.constant(3, Width::W32);
        let ne = p.ne(x, c);
        let s = solver();
        let mut cache = SolverCache::new();
        let mut ctx = SolverCtx::new(&s);
        ctx.assert_term(&p, ne);
        // Two walks over the same prefix issue the identical probe.
        let atom = p.eq(x, c);
        let first = ctx.probe_feasible(&p, &mut cache, atom);
        let before = cache.stats.solver_queries + cache.stats.unsat_by_propagation;
        let second = ctx.probe_feasible(&p, &mut cache, atom);
        assert_eq!(first, second);
        assert_eq!(
            cache.stats.solver_queries + cache.stats.unsat_by_propagation,
            before,
            "repeat probe must be answered from the caches"
        );
    }

    #[test]
    fn width_adapter_equations_keep_models_alive() {
        // eq(zext(sym), expr) / eq(trunc(sym), expr) over fresh symbols
        // must repair the current model instead of dropping it — the
        // shape width-bridging data-structure models emit from `assume`.
        let mut p = TermPool::new();
        let s = solver();
        let mut ctx = SolverCtx::new(&s);
        let base = p.fresh_sym("base", Width::W8);
        let c1 = p.constant(1, Width::W8);
        let ge1 = p.ule(c1, base);
        ctx.assert_term(&p, ge1);
        // The initial model died (base defaults to 0): restore one.
        let mut cache = SolverCache::new();
        assert!(ctx.current_feasible(&p, &mut cache));
        assert!(ctx.model().is_some());
        // zext adapter over a fresh symbol.
        let f1 = p.fresh_sym("f1", Width::W8);
        let z = p.zext(f1, Width::W16);
        let k = p.constant(0x77, Width::W16);
        let eq_z = p.eq(z, k);
        ctx.assert_term(&p, eq_z);
        let m = ctx.model().expect("zext repair must keep the model");
        assert_eq!(m.get(1), 0x77);
        // trunc adapter over another fresh symbol.
        let f2 = p.fresh_sym("f2", Width::W16);
        let t = p.trunc(f2, Width::W8);
        let k8 = p.constant(0x5A, Width::W8);
        let eq_t = p.eq(k8, t); // flipped side
        ctx.assert_term(&p, eq_t);
        let m = ctx.model().expect("trunc repair must keep the model");
        assert_eq!(m.get(2) & 0xFF, 0x5A);
        assert!(m.satisfies(&p, ctx.constraints()));
    }

    #[test]
    fn unrepairable_zext_equation_drops_the_model() {
        // zext(sym8) == 0x123 has no solution; the "repair" must fail
        // verification and drop the model, never keep a bogus one.
        let mut p = TermPool::new();
        let s = solver();
        let mut ctx = SolverCtx::new(&s);
        let f = p.fresh_sym("f", Width::W8);
        let z = p.zext(f, Width::W16);
        let k = p.constant(0x123, Width::W16);
        let eq = p.eq(z, k);
        ctx.assert_term(&p, eq);
        assert!(ctx.model().is_none());
        let mut cache = SolverCache::new();
        assert!(
            !ctx.current_feasible(&p, &mut cache),
            "the equation is unsatisfiable"
        );
    }

    #[test]
    fn model_cache_evicts_and_counts() {
        let mut p = TermPool::new();
        let s = solver();
        let mut cache = SolverCache::new();
        let zero = p.constant(0, Width::W8);
        for i in 0..40u32 {
            let x = p.fresh_sym(format!("x{i}"), Width::W8);
            let ne = p.ne(x, zero);
            let mut ctx = SolverCtx::new(&s);
            // `ne` kills the initial all-zeros model, forcing a full
            // solve that caches a fresh model each round.
            ctx.assert_term(&p, ne);
            assert!(ctx.current_feasible(&p, &mut cache));
        }
        assert_eq!(cache.models.len(), 16, "cache stays bounded");
        assert_eq!(
            cache.stats.model_evictions, 24,
            "40 inserts into 16 slots evict 24"
        );
    }

    #[test]
    fn hot_models_survive_one_off_churn() {
        let mut p = TermPool::new();
        let s = solver();
        let mut cache = SolverCache::new();
        let h = p.fresh_sym("hot", Width::W8);
        let zero = p.constant(0, Width::W8);
        let hot_atom = p.ne(h, zero);
        // Seed the hot model and let it answer several distinct lists so
        // it accumulates hits.
        for k in 10..20u64 {
            let kc = p.constant(k, Width::W8);
            let bound = p.ule(h, kc);
            let mut ctx = SolverCtx::new(&s);
            ctx.assert_term(&p, hot_atom);
            ctx.assert_term(&p, bound);
            assert!(ctx.current_feasible(&p, &mut cache));
        }
        // Churn: 30 one-off models over fresh symbols. Plain FIFO would
        // have rotated the hot model out after 16 of these.
        for i in 0..30u32 {
            let x = p.fresh_sym(format!("x{i}"), Width::W8);
            let ne = p.ne(x, zero);
            let mut ctx = SolverCtx::new(&s);
            ctx.assert_term(&p, ne);
            assert!(ctx.current_feasible(&p, &mut cache));
        }
        // A fresh list only the hot model satisfies must be answered by
        // witness reuse, not a new solve.
        let kc = p.constant(99, Width::W8);
        let bound = p.ule(h, kc);
        let mut ctx = SolverCtx::new(&s);
        ctx.assert_term(&p, hot_atom);
        ctx.assert_term(&p, bound);
        let queries_before = cache.stats.solver_queries;
        assert!(ctx.current_feasible(&p, &mut cache));
        assert_eq!(
            cache.stats.solver_queries, queries_before,
            "hot model must answer from the cache"
        );
    }

    #[test]
    fn feasibility_skips_completion() {
        let mut p = TermPool::new();
        let a = p.fresh_sym("a", Width::W8);
        let b = p.fresh_sym("b", Width::W8);
        let sum = p.add(a, b);
        let c10 = p.constant(10, Width::W8);
        let eq = p.eq(sum, c10);
        // Batch feasibility agrees with batch check classification.
        assert_eq!(
            solver().is_feasible(&p, &[eq]),
            solver().check(&p, &[eq]).possibly_sat()
        );
    }
}
