//! Performance expressions: polynomials over performance-critical variables.
//!
//! A performance contract's body is a [`PerfExpr`], a multivariate
//! polynomial with unsigned integer coefficients over PCVs such as `e`
//! (expired entries), `c` (hash collisions), `t` (bucket traversals), `o`
//! (occupancy), `l` (matched prefix length), or `n` (IP option count).
//! Table 4 of the paper, for example, is the expression
//!
//! ```text
//! 245·e + 144·c + 50·t + 82·e·c + 19·e·t + 918
//! ```
//!
//! [`PerfExpr`]s form a commutative semiring: they support addition,
//! multiplication (used to build cross terms such as `e·c` when an expiry
//! loop walks a collision chain), scaling, exact evaluation under a
//! [`PcvAssignment`], and a pointwise upper-bound comparison.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a PCV within a [`PcvTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PcvId(pub u32);

/// Registry of performance-critical variable names.
///
/// PCV names are scoped by data-structure instance where necessary (e.g.
/// `flow_table.e` vs `mac_table.e`); for NFs with a single stateful
/// instance, the short paper names (`e`, `c`, `t`, `o`) are used directly.
#[derive(Default, Debug, Clone)]
pub struct PcvTable {
    names: Vec<String>,
    index: BTreeMap<String, PcvId>,
}

impl PcvTable {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a PCV name, returning its id (idempotent).
    pub fn intern(&mut self, name: &str) -> PcvId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = PcvId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Look up a PCV by name without creating it.
    pub fn lookup(&self, name: &str) -> Option<PcvId> {
        self.index.get(name).copied()
    }

    /// Name of a PCV.
    pub fn name(&self, id: PcvId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of registered PCVs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no PCVs are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PcvId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PcvId(i as u32), n.as_str()))
    }
}

/// A product of PCVs (with multiplicity), e.g. `e·c`. The empty monomial is
/// the constant term.
///
/// Up to four variables are stored inline (every monomial the library's
/// contracts build), so copying one into an expression allocates
/// nothing. Equality, order and hash are those of the sorted
/// variable list, whichever way it is stored.
#[derive(Clone)]
pub struct Monomial(Vars);

/// Degrees a [`Monomial`] stores without a heap allocation.
const INLINE_DEGREE: usize = 4;

#[derive(Clone)]
enum Vars {
    /// Built only by `Monomial::from_sorted`, which leaves the slots past
    /// `len` at `PcvId(0)`: `Ord` and `Eq` compare whole arrays.
    Inline {
        len: u8,
        ids: [PcvId; INLINE_DEGREE],
    },
    Heap(Box<[PcvId]>),
}

impl Monomial {
    /// The constant monomial (degree 0).
    pub fn one() -> Self {
        Self::from_sorted(&[])
    }

    /// A single variable.
    pub fn var(id: PcvId) -> Self {
        Self::from_sorted(&[id])
    }

    /// Serialization hook: rebuild a monomial from its variable list
    /// (sorted on entry, so decoded monomials are canonical).
    pub fn from_vars(mut vars: Vec<PcvId>) -> Monomial {
        vars.sort_unstable();
        if vars.len() <= INLINE_DEGREE {
            Self::from_sorted(&vars)
        } else {
            Monomial(Vars::Heap(vars.into_boxed_slice()))
        }
    }

    /// A monomial over `vars`, which must be sorted.
    fn from_sorted(vars: &[PcvId]) -> Monomial {
        if vars.len() > INLINE_DEGREE {
            return Monomial(Vars::Heap(vars.into()));
        }
        let mut ids = [PcvId(0); INLINE_DEGREE];
        ids[..vars.len()].copy_from_slice(vars);
        Monomial(Vars::Inline {
            len: vars.len() as u8,
            ids,
        })
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.vars(), other.vars());
        if a.len() + b.len() > INLINE_DEGREE {
            let mut v = [a, b].concat();
            v.sort_unstable();
            return Monomial(Vars::Heap(v.into_boxed_slice()));
        }
        let mut ids = [PcvId(0); INLINE_DEGREE];
        ids[..a.len()].copy_from_slice(a);
        ids[a.len()..a.len() + b.len()].copy_from_slice(b);
        let v = &mut ids[..a.len() + b.len()];
        v.sort_unstable();
        Self::from_sorted(v)
    }

    /// Total degree.
    pub fn degree(&self) -> usize {
        self.vars().len()
    }

    /// The variables (sorted, with multiplicity).
    pub fn vars(&self) -> &[PcvId] {
        match &self.0 {
            Vars::Inline { len, ids } => &ids[..*len as usize],
            Vars::Heap(ids) => ids,
        }
    }

    /// Evaluate under an assignment.
    pub fn eval(&self, env: &PcvAssignment) -> u64 {
        self.vars()
            .iter()
            .fold(1u64, |acc, id| acc.saturating_mul(env.get(*id)))
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Self::one()
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Vars::Inline { len: a, ids: x }, Vars::Inline { len: b, ids: y }) => a == b && x == y,
            _ => self.vars() == other.vars(),
        }
    }
}

impl Eq for Monomial {}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Unused inline slots hold zero, and a list sorts after its
            // prefixes: so inline lists order as their whole arrays, then
            // by length.
            (Vars::Inline { len: a, ids: x }, Vars::Inline { len: b, ids: y }) => {
                x.cmp(y).then(a.cmp(b))
            }
            _ => self.vars().cmp(other.vars()),
        }
    }
}

impl std::hash::Hash for Monomial {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.vars().hash(state);
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Monomial").field(&self.vars()).finish()
    }
}

/// A concrete binding of PCVs to values (e.g. produced by the Distiller).
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct PcvAssignment {
    values: BTreeMap<PcvId, u64>,
}

impl PcvAssignment {
    /// Empty assignment: every PCV reads as 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a PCV.
    pub fn set(&mut self, id: PcvId, value: u64) -> &mut Self {
        self.values.insert(id, value);
        self
    }

    /// Read a PCV (unbound PCVs read as 0).
    pub fn get(&self, id: PcvId) -> u64 {
        self.values.get(&id).copied().unwrap_or(0)
    }

    /// Iterate over bound `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PcvId, u64)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }
}

/// A polynomial over PCVs with `u64` coefficients.
///
/// Stored as one vector of `(monomial, coefficient)` pairs, strictly
/// ascending by [`Monomial`]'s order and free of zero coefficients, so
/// each value has exactly one representation (derived equality is
/// polynomial equality) and a small expression is a single allocation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PerfExpr {
    terms: Vec<(Monomial, u64)>,
}

impl PerfExpr {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The zero polynomial, with room for `terms` terms before its
    /// storage grows (a sum whose summands' sizes are known).
    pub fn with_capacity(terms: usize) -> Self {
        PerfExpr {
            terms: Vec::with_capacity(terms),
        }
    }

    /// A constant polynomial.
    pub fn constant(c: u64) -> Self {
        Self::term(Monomial::one(), c)
    }

    /// The polynomial `coeff · pcv`.
    pub fn var(pcv: PcvId, coeff: u64) -> Self {
        Self::term(Monomial::var(pcv), coeff)
    }

    /// The polynomial `coeff · m` for an arbitrary monomial.
    pub fn term(m: Monomial, coeff: u64) -> Self {
        let terms = if coeff == 0 {
            Vec::new()
        } else {
            vec![(m, coeff)]
        };
        PerfExpr { terms }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this polynomial is a constant, and its value if so.
    pub fn as_const(&self) -> Option<u64> {
        match self.terms.as_slice() {
            [] => Some(0),
            [(m, c)] if m.degree() == 0 => Some(*c),
            _ => None,
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> u64 {
        // The constant monomial sorts first.
        match self.terms.first() {
            Some((m, c)) if m.degree() == 0 => *c,
            _ => 0,
        }
    }

    /// Coefficient of a monomial (0 if absent).
    pub fn coeff(&self, m: &Monomial) -> u64 {
        self.terms
            .binary_search_by(|(n, _)| n.cmp(m))
            .map_or(0, |i| self.terms[i].1)
    }

    /// Iterate over `(monomial, coefficient)` pairs, in ascending
    /// monomial order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, u64)> {
        self.terms.iter().map(|(m, c)| (m, *c))
    }

    /// Total degree of the polynomial (0 for constants).
    pub fn degree(&self) -> usize {
        self.terms
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// The set of PCVs mentioned.
    pub fn pcvs(&self) -> Vec<PcvId> {
        let mut v: Vec<PcvId> = self
            .terms
            .iter()
            .flat_map(|(m, _)| m.vars().iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// `self += other`: a merge of the two sorted runs, in place. A
    /// monomial is cloned only when it is new here, and the storage
    /// grows only when the new ones do not fit the room left (see
    /// [`PerfExpr::with_capacity`]).
    pub fn add_assign(&mut self, other: &PerfExpr) {
        if self.terms.is_empty() {
            self.terms.clone_from(&other.terms);
            return;
        }
        let new = count_missing(&self.terms, &other.terms);
        // Merge from the back: `self.terms[..mine]` is still unmerged,
        // `self.terms[out..]` is finished, and the slots between hold
        // placeholders. Each of `other`'s terms left to place that is
        // new here keeps one slot of that gap open, so `out == mine`
        // once every term is placed.
        let mut mine = self.terms.len();
        self.terms.resize_with(mine + new, Default::default);
        let mut out = self.terms.len();
        for (m, c) in other.terms.iter().rev() {
            loop {
                let order = match mine {
                    0 => Ordering::Less,
                    _ => self.terms[mine - 1].0.cmp(m),
                };
                out -= 1;
                if order == Ordering::Less {
                    self.terms[out] = (m.clone(), *c);
                    break;
                }
                mine -= 1;
                self.terms.swap(mine, out);
                if order == Ordering::Equal {
                    let sum = &mut self.terms[out].1;
                    *sum = sum.saturating_add(*c);
                    break;
                }
            }
        }
        debug_assert_eq!(out, mine);
    }

    /// `self + other`.
    pub fn add(&self, other: &PerfExpr) -> PerfExpr {
        let mut r = self.clone();
        r.add_assign(other);
        r
    }

    /// Add a constant.
    pub fn add_const(&mut self, c: u64) {
        if c == 0 {
            return;
        }
        match self.terms.first_mut() {
            Some((m, e)) if m.degree() == 0 => *e = e.saturating_add(c),
            _ => self.terms.insert(0, (Monomial::one(), c)),
        }
    }

    /// `self · k`.
    pub fn scale(&self, k: u64) -> PerfExpr {
        if k == 0 {
            return PerfExpr::zero();
        }
        let terms = self
            .terms
            .iter()
            .map(|(m, c)| (m.clone(), c.saturating_mul(k)))
            .collect();
        PerfExpr { terms }
    }

    /// Polynomial product (distributes; used to build cross terms such as
    /// `e·c` when a per-expired-entry cost itself depends on collisions).
    pub fn mul(&self, other: &PerfExpr) -> PerfExpr {
        let mut terms: Vec<(Monomial, u64)> =
            Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((ma.mul(mb), ca.saturating_mul(*cb)));
            }
        }
        // Saturating sums of unsigned values do not depend on their
        // order, so equal products coalesce after an unstable sort.
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(next.1);
            }
            same
        });
        PerfExpr { terms }
    }

    /// Exact evaluation under an assignment (saturating).
    pub fn eval(&self, env: &PcvAssignment) -> u64 {
        self.terms.iter().fold(0u64, |acc, (m, c)| {
            acc.saturating_add(c.saturating_mul(m.eval(env)))
        })
    }

    /// Render against a PCV table, in the paper's format: degree-1 terms
    /// first (alphabetical), then higher-degree cross terms, constant last.
    /// E.g. `245·e + 144·c + 82·e·c + 882`.
    pub fn display<'a>(&'a self, pcvs: &'a PcvTable) -> PerfExprDisplay<'a> {
        PerfExprDisplay { expr: self, pcvs }
    }
}

/// How many of `theirs`' monomials `mine` lacks (both strictly ascending).
fn count_missing(mine: &[(Monomial, u64)], theirs: &[(Monomial, u64)]) -> usize {
    let (mut i, mut missing) = (0, 0);
    for (m, _) in theirs {
        loop {
            match mine.get(i).map(|(n, _)| n.cmp(m)) {
                Some(Ordering::Less) => i += 1,
                Some(Ordering::Equal) => {
                    i += 1;
                    break;
                }
                _ => {
                    missing += 1;
                    break;
                }
            }
        }
    }
    missing
}

/// Helper returned by [`PerfExpr::display`].
pub struct PerfExprDisplay<'a> {
    expr: &'a PerfExpr,
    pcvs: &'a PcvTable,
}

impl fmt::Display for PerfExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.expr.is_zero() {
            return write!(f, "0");
        }
        // Sort: by degree (1 first, then 2, ...), then by variable names;
        // the constant term is printed last, matching the paper's tables.
        let mut named: Vec<(usize, Vec<&str>, u64)> = Vec::new();
        let mut constant = 0u64;
        for (m, c) in self.expr.iter() {
            if m.degree() == 0 {
                constant = c;
            } else {
                let names: Vec<&str> = m.vars().iter().map(|&v| self.pcvs.name(v)).collect();
                named.push((m.degree(), names, c));
            }
        }
        named.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut first = true;
        for (_, names, c) in named {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            write!(f, "{c}")?;
            for n in names {
                write!(f, "\u{b7}{n}")?;
            }
        }
        if constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{constant}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (PcvTable, PcvId, PcvId, PcvId) {
        let mut t = PcvTable::new();
        let e = t.intern("e");
        let c = t.intern("c");
        let tt = t.intern("t");
        (t, e, c, tt)
    }

    #[test]
    fn display_matches_paper_format() {
        let (tbl, e, c, t) = table();
        // 245·e + 144·c + 36·t + 82·e·c + 19·e·t + 882  (Table 4, row 1)
        let mut p = PerfExpr::constant(882);
        p.add_assign(&PerfExpr::var(e, 245));
        p.add_assign(&PerfExpr::var(c, 144));
        p.add_assign(&PerfExpr::var(t, 36));
        p.add_assign(&PerfExpr::term(Monomial::var(e).mul(&Monomial::var(c)), 82));
        p.add_assign(&PerfExpr::term(Monomial::var(e).mul(&Monomial::var(t)), 19));
        assert_eq!(
            p.display(&tbl).to_string(),
            "144\u{b7}c + 245\u{b7}e + 36\u{b7}t + 82\u{b7}e\u{b7}c + 19\u{b7}e\u{b7}t + 882"
        );
    }

    #[test]
    fn eval_exact() {
        let (_, e, c, _) = table();
        let mut p = PerfExpr::constant(10);
        p.add_assign(&PerfExpr::var(e, 3));
        p.add_assign(&PerfExpr::term(Monomial::var(e).mul(&Monomial::var(c)), 2));
        let mut env = PcvAssignment::new();
        env.set(e, 5).set(c, 7);
        assert_eq!(p.eval(&env), 10 + 3 * 5 + 2 * 5 * 7);
    }

    #[test]
    fn unbound_pcv_reads_zero() {
        let (_, e, _, _) = table();
        let p = PerfExpr::var(e, 100);
        assert_eq!(p.eval(&PcvAssignment::new()), 0);
    }

    #[test]
    fn mul_distributes() {
        let (_, e, c, _) = table();
        // (2e + 3)(c) = 2ec + 3c
        let mut a = PerfExpr::var(e, 2);
        a.add_const(3);
        let b = PerfExpr::var(c, 1);
        let p = a.mul(&b);
        assert_eq!(p.coeff(&Monomial::var(e).mul(&Monomial::var(c))), 2);
        assert_eq!(p.coeff(&Monomial::var(c)), 3);
        assert_eq!(p.constant_term(), 0);
    }

    #[test]
    fn zero_and_constants() {
        assert!(PerfExpr::zero().is_zero());
        assert_eq!(PerfExpr::constant(0), PerfExpr::zero());
        assert_eq!(PerfExpr::constant(42).as_const(), Some(42));
        assert_eq!(PerfExpr::zero().as_const(), Some(0));
        let (tbl, ..) = table();
        assert_eq!(PerfExpr::zero().display(&tbl).to_string(), "0");
        assert_eq!(PerfExpr::constant(7).display(&tbl).to_string(), "7");
    }

    #[test]
    fn monomials_compare_by_their_variables_at_any_degree() {
        let m = |ids: &[u32]| Monomial::from_vars(ids.iter().map(|&i| PcvId(i)).collect());
        let five = m(&[4, 3, 2, 1, 0]);
        assert_eq!(five.degree(), 5);
        assert_eq!(
            m(&[1, 0]).mul(&m(&[4, 2, 3])),
            five,
            "past the inline degree"
        );
        assert_eq!(m(&[3, 1]).mul(&m(&[2])), m(&[1, 2, 3]));
        // Ordered like the sorted variable lists (what the codec writes).
        assert!(m(&[0, 1, 2, 3]) < five && five < m(&[0, 1, 2, 4]));
        assert!(Monomial::one() < m(&[0]));
        assert_eq!(format!("{:?}", m(&[1])), "Monomial([PcvId(1)])");
    }

    #[test]
    fn pcv_table_interning_is_idempotent() {
        let mut t = PcvTable::new();
        let a = t.intern("e");
        let b = t.intern("e");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), "e");
        assert_eq!(t.lookup("e"), Some(a));
        assert_eq!(t.lookup("zzz"), None);
    }
}
