//! The hash-consing term pool.
//!
//! All terms of one analysis live in a single [`TermPool`]. Construction
//! methods perform aggressive constant folding and a handful of algebraic
//! simplifications; this keeps path constraints small enough for the solver
//! without a separate rewrite pass.
//!
//! Every term carries O(1) metadata computed once at intern time — its
//! [`Width`], its deduplicated, sorted symbol support and its
//! pool-independent content hash — so the solver never re-walks a term
//! to answer `width()`, `syms_of()` or `content_hash()`. Supports
//! live in one arena per pool, so interning a term allocates nothing of
//! its own. The intern table is an open-addressed index table over the
//! arena, probed from the content hash's slot, so each node is stored
//! once and hashed once.
//!
//! One mechanism copies a term between pools: [`TermPool::import`]
//! rebuilds it through the public constructors into a memo indexed by
//! source term. Chain composition migrates its operands with it, and
//! [`TermPool::absorb_with`] is a loop over it.

use std::fmt::Write as _;

use crate::term::{BinOp, SymId, Term, TermRef, UnOp, Width};

/// Per-term metadata, computed once when the term is interned.
#[derive(Debug)]
struct TermMeta {
    /// Result width of the node.
    width: Width,
    /// Pool-independent content hash (see [`TermPool::content_hash`]),
    /// also the key of the intern table (see [`slot`]).
    content: u64,
    /// Sorted, deduplicated symbol support: the `(start, len)` range of
    /// the pool's `supports` arena. A node whose support equals a
    /// child's (unary wrappers, width adapters, a binop or `Ite` whose
    /// union is one side) holds that child's range; constants hold the
    /// empty range.
    syms: (u32, u32),
}

/// Arena + intern table for [`Term`]s, plus the symbol name registry.
#[derive(Debug)]
pub struct TermPool {
    terms: Vec<Term>,
    meta: Vec<TermMeta>,
    /// Open-addressed intern table: `slot = term index + 1`, 0 = empty.
    /// Capacity is always a power of two.
    slots: Vec<u32>,
    sym_names: Vec<String>,
    sym_widths: Vec<Width>,
    /// Every term's support, each a range a `TermMeta::syms` names: one
    /// buffer per pool, not one allocation per symbol node and per
    /// merged support.
    supports: Vec<SymId>,
    /// Process-unique pool identity (never serialized): a fact about a
    /// [`TermRef`] holds only in the pool whose `uid` it was found under.
    uid: u64,
}

/// Monotone source for [`TermPool::uid`].
static POOL_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Default for TermPool {
    fn default() -> Self {
        TermPool {
            terms: Vec::new(),
            meta: Vec::new(),
            slots: Vec::new(),
            sym_names: Vec::new(),
            sym_widths: Vec::new(),
            supports: Vec::new(),
            uid: POOL_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }
}

/// The content hash's FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step of the content hash, over a whole word.
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// The intern-table slot a term with content hash `content` probes
/// from. An FNV product's low bits depend only on its inputs' low bits,
/// so the high half is folded onto the low half: terms that differ only
/// high up (constants shifted into the high half) still spread. Only
/// the probe sequence depends on it: arena order is intern order.
fn slot(content: u64, mask: usize) -> usize {
    (content ^ (content >> 32)) as usize & mask
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of symbols created so far.
    #[inline]
    pub fn sym_count(&self) -> usize {
        self.sym_names.len()
    }

    /// Process-unique identity of this pool instance. Stable for the
    /// pool's lifetime, fresh for every construction (including decoded
    /// pools), never serialized — interpretations of a
    /// [`TermRef`] are only comparable between calls that observed the
    /// same `uid`. The solver's model cache uses it to remember which
    /// term of which pool a cached model failed; facts that must hold
    /// across pools key on [`TermPool::content_hash`] instead.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Metadata for a new node with content hash `content` (children
    /// are already interned, so their metadata is an O(1) lookup).
    fn meta_for(&mut self, t: &Term, content: u64) -> TermMeta {
        let (width, syms) = match *t {
            Term::Const { width, .. } => (width, (0, 0)),
            Term::Sym { id, width } => {
                self.supports.push(id);
                (width, (self.supports.len() as u32 - 1, 1))
            }
            Term::Unop { a, .. } => {
                let m = &self.meta[a.index()];
                (m.width, m.syms)
            }
            Term::Binop { op, a, b } => {
                let w = if op.is_comparison() {
                    Width::W1
                } else {
                    self.meta[a.index()].width
                };
                let sides = [a, b].map(|r| self.meta[r.index()].syms);
                (w, self.union_supports(&sides))
            }
            Term::Ite { c, t: tt, e } => {
                let sides = [c, tt, e].map(|r| self.meta[r.index()].syms);
                (self.meta[tt.index()].width, self.union_supports(&sides))
            }
            Term::Zext { a, width } | Term::Trunc { a, width } => {
                (width, self.meta[a.index()].syms)
            }
        };
        TermMeta {
            width,
            content,
            syms,
        }
    }

    /// The content hash of a node: an FNV-1a fold over its kind, its
    /// widths, constant values, symbol ids and names, and its children's
    /// content hashes (already in their metadata).
    fn content_of(&self, t: &Term) -> u64 {
        let fold = |words: &[u64]| words.iter().fold(FNV_OFFSET, |h, &v| fnv(h, v));
        let child = |r: TermRef| self.meta[r.index()].content;
        match *t {
            Term::Const { value, width } => fold(&[1, value, width.bits() as u64]),
            Term::Sym { id, width } => {
                let head = fold(&[2, id as u64, width.bits() as u64]);
                let name = self.sym_names[id as usize].bytes();
                name.fold(head, |h, b| fnv(h, b as u64))
            }
            Term::Unop { op, a } => fold(&[3, op as u64, child(a)]),
            Term::Binop { op, a, b } => fold(&[4, op as u64, child(a), child(b)]),
            Term::Ite { c, t, e } => fold(&[5, child(c), child(t), child(e)]),
            Term::Zext { a, width } => fold(&[6, width.bits() as u64, child(a)]),
            Term::Trunc { a, width } => fold(&[7, width.bits() as u64, child(a)]),
        }
    }

    /// The support range of the union of up to three sorted supports,
    /// merged in one pass. A union equal to one side (the others empty,
    /// equal to it, or inside it) is that side's range and leaves the
    /// arena as it was; any other union is appended to it.
    fn union_supports(&mut self, sides: &[(u32, u32)]) -> (u32, u32) {
        let start = self.supports.len();
        let mut at = [0u32; 3];
        loop {
            let mut next: Option<SymId> = None;
            for (k, &(s, n)) in sides.iter().enumerate() {
                if at[k] < n {
                    let v = self.supports[(s + at[k]) as usize];
                    next = Some(next.map_or(v, |m| m.min(v)));
                }
            }
            let Some(v) = next else { break };
            for (k, &(s, n)) in sides.iter().enumerate() {
                if at[k] < n && self.supports[(s + at[k]) as usize] == v {
                    at[k] += 1;
                }
            }
            self.supports.push(v);
        }
        let len = (self.supports.len() - start) as u32;
        // The union holds every side, so a side as long is the union.
        match sides.iter().find(|&&(_, n)| n == len) {
            Some(&side) => {
                self.supports.truncate(start);
                side
            }
            None => (start as u32, len),
        }
    }

    /// Grow the intern table to `cap` slots (a power of two) and rehash.
    fn grow_slots(&mut self, cap: usize) {
        let mut slots = vec![0u32; cap];
        let mask = cap - 1;
        for (idx, m) in self.meta.iter().enumerate() {
            let mut i = slot(m.content, mask);
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32 + 1;
        }
        self.slots = slots;
    }

    fn intern(&mut self, t: Term) -> TermRef {
        // Keep load factor under ~70%.
        if (self.terms.len() + 1) * 10 >= self.slots.len() * 7 {
            self.grow_slots((self.slots.len() * 2).max(64));
        }
        let content = self.content_of(&t);
        let mask = self.slots.len() - 1;
        let mut i = slot(content, mask);
        loop {
            match self.slots[i] {
                0 => break,
                s => {
                    let idx = (s - 1) as usize;
                    if self.meta[idx].content == content && self.terms[idx] == t {
                        return TermRef(s - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let r = TermRef(self.terms.len() as u32);
        let meta = self.meta_for(&t, content);
        self.terms.push(t);
        self.meta.push(meta);
        self.slots[i] = r.0 + 1;
        r
    }

    /// Look up a term node.
    pub fn get(&self, r: TermRef) -> &Term {
        &self.terms[r.index()]
    }

    /// Width of a term — an O(1) metadata lookup (computed at intern
    /// time, not a recursive walk).
    pub fn width(&self, r: TermRef) -> Width {
        self.meta[r.index()].width
    }

    /// Pool-independent content hash of a term — an O(1) metadata lookup,
    /// folded once at intern time from the node's kind, widths, constant
    /// values, symbol ids *and* names, and its children's content hashes.
    /// Two terms of any two pools hash equal only when they are
    /// structurally identical and bind identically numbered, identically
    /// named symbols (barring a 64-bit collision): the condition under
    /// which a feasibility verdict or a witness (which maps raw
    /// [`SymId`]s) carries from one pool to the other. Deterministic
    /// across processes, so a decoded pool hashes as the encoded one did.
    /// The pool's intern table keys on it too: a term is hashed once.
    pub fn content_hash(&self, r: TermRef) -> u64 {
        self.meta[r.index()].content
    }

    /// Name of a symbol.
    pub fn sym_name(&self, id: SymId) -> &str {
        &self.sym_names[id as usize]
    }

    /// Width of a symbol.
    pub fn sym_width(&self, id: SymId) -> Width {
        self.sym_widths[id as usize]
    }

    /// Constant value if the term is a constant.
    pub fn as_const(&self, r: TermRef) -> Option<u64> {
        match *self.get(r) {
            Term::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A constant of the given width (value is masked).
    pub fn constant(&mut self, value: u64, width: Width) -> TermRef {
        self.intern(Term::Const {
            value: value & width.mask(),
            width,
        })
    }

    /// The boolean constant `true`.
    pub fn tru(&mut self) -> TermRef {
        self.constant(1, Width::W1)
    }

    /// The boolean constant `false`.
    pub(crate) fn fls(&mut self) -> TermRef {
        self.constant(0, Width::W1)
    }

    /// A fresh symbolic variable with a human-readable name.
    pub fn fresh_sym(&mut self, name: impl Into<String>, width: Width) -> TermRef {
        let id = self.register_sym(name, width);
        self.intern(Term::Sym { id, width })
    }

    /// Unary application with folding.
    pub fn unop(&mut self, op: UnOp, a: TermRef) -> TermRef {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(op.apply(v, w), w);
        }
        // not(not(x)) = x
        if let Term::Unop {
            op: UnOp::Not,
            a: inner,
        } = *self.get(a)
        {
            return inner;
        }
        self.intern(Term::Unop { op, a })
    }

    /// Logical/bitwise negation.
    pub fn not(&mut self, a: TermRef) -> TermRef {
        self.unop(UnOp::Not, a)
    }

    /// Binary application with folding and light algebraic simplification.
    ///
    /// Panics if operand widths differ — mixed-width arithmetic in NF code
    /// is always a bug (e.g. comparing a 16-bit port to a 32-bit address).
    pub fn binop(&mut self, op: BinOp, a: TermRef, b: TermRef) -> TermRef {
        let wa = self.width(a);
        let wb = self.width(b);
        assert_eq!(wa, wb, "width mismatch in {:?}: {:?} vs {:?}", op, wa, wb);
        let out_w = if op.is_comparison() { Width::W1 } else { wa };
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(op.apply(x, y, wa), out_w);
        }
        // Identity / annihilator simplifications.
        let ca = self.as_const(a);
        let cb = self.as_const(b);
        match op {
            BinOp::Add => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BinOp::Sub => {
                if cb == Some(0) {
                    return a;
                }
                if a == b {
                    return self.constant(0, wa);
                }
            }
            BinOp::Mul => {
                if ca == Some(1) {
                    return b;
                }
                if cb == Some(1) {
                    return a;
                }
                if ca == Some(0) || cb == Some(0) {
                    return self.constant(0, wa);
                }
            }
            BinOp::And => {
                if ca == Some(0) || cb == Some(0) {
                    return self.constant(0, wa);
                }
                if ca == Some(wa.mask()) {
                    return b;
                }
                if cb == Some(wa.mask()) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Or => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(wa.mask()) || cb == Some(wa.mask()) {
                    return self.constant(wa.mask(), wa);
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Xor => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if a == b {
                    return self.constant(0, wa);
                }
            }
            BinOp::Shl | BinOp::Shr => {
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(0) {
                    return self.constant(0, wa);
                }
            }
            BinOp::Eq => {
                if a == b {
                    return self.tru();
                }
            }
            BinOp::Ne => {
                if a == b {
                    return self.fls();
                }
            }
            BinOp::Ult => {
                if a == b {
                    return self.fls();
                }
                if cb == Some(0) {
                    return self.fls();
                }
            }
            BinOp::Ule => {
                if a == b {
                    return self.tru();
                }
                if ca == Some(0) {
                    return self.tru();
                }
            }
        }
        // Canonicalise commutative operand order so interning catches
        // `a+b` vs `b+a`.
        let (a, b) = match op {
            BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Eq
            | BinOp::Ne
                if b < a =>
            {
                (b, a)
            }
            _ => (a, b),
        };
        self.intern(Term::Binop { op, a, b })
    }

    /// `a + b`
    pub fn add(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Add, a, b)
    }
    /// `a - b`
    pub fn sub(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Sub, a, b)
    }
    /// `a * b`
    pub fn mul(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Mul, a, b)
    }
    /// `a & b`
    pub fn and(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::And, a, b)
    }
    /// `a | b`
    pub fn or(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Or, a, b)
    }
    /// `a ^ b`
    pub fn xor(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Xor, a, b)
    }
    /// `a << b`
    pub fn shl(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Shl, a, b)
    }
    /// `a >> b`
    pub fn shr(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Shr, a, b)
    }
    /// `a == b`
    pub fn eq(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Eq, a, b)
    }
    /// `a != b`
    pub fn ne(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ne, a, b)
    }
    /// `a < b` (unsigned)
    pub fn ult(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ult, a, b)
    }
    /// `a <= b` (unsigned)
    pub fn ule(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ule, a, b)
    }

    /// Zero-extend `a` to `width` (identity when widths match; widening
    /// only).
    pub fn zext(&mut self, a: TermRef, width: Width) -> TermRef {
        let wa = self.width(a);
        assert!(
            wa.bits() <= width.bits(),
            "zext must widen: {:?} -> {:?}",
            wa,
            width
        );
        if wa == width {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v, width);
        }
        self.intern(Term::Zext { a, width })
    }

    /// Truncate `a` to `width`, keeping the low bits (narrowing only).
    pub fn trunc(&mut self, a: TermRef, width: Width) -> TermRef {
        let wa = self.width(a);
        assert!(
            wa.bits() >= width.bits(),
            "trunc must narrow: {:?} -> {:?}",
            wa,
            width
        );
        if wa == width {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v, width);
        }
        self.intern(Term::Trunc { a, width })
    }

    /// If-then-else. `c` must be boolean; `t` and `e` must have equal widths.
    pub fn ite(&mut self, c: TermRef, t: TermRef, e: TermRef) -> TermRef {
        assert_eq!(self.width(c), Width::W1, "ite condition must be boolean");
        assert_eq!(self.width(t), self.width(e), "ite arm width mismatch");
        if let Some(v) = self.as_const(c) {
            return if v != 0 { t } else { e };
        }
        if t == e {
            return t;
        }
        self.intern(Term::Ite { c, t, e })
    }

    // ------------------------------------------------------------------
    // Evaluation & inspection
    // ------------------------------------------------------------------

    /// Evaluate a term under a symbol assignment. Symbols missing from the
    /// assignment evaluate to 0 (useful when a model symbol is don't-care).
    pub fn eval(&self, r: TermRef, env: &dyn Fn(SymId) -> u64) -> u64 {
        match *self.get(r) {
            Term::Const { value, .. } => value,
            Term::Sym { id, width } => env(id) & width.mask(),
            Term::Unop { op, a } => {
                let w = self.width(a);
                op.apply(self.eval(a, env), w)
            }
            Term::Binop { op, a, b } => {
                let w = self.width(a);
                op.apply(self.eval(a, env), self.eval(b, env), w)
            }
            Term::Ite { c, t, e } => {
                if self.eval(c, env) != 0 {
                    self.eval(t, env)
                } else {
                    self.eval(e, env)
                }
            }
            Term::Zext { a, .. } => self.eval(a, env),
            Term::Trunc { a, width } => self.eval(a, env) & width.mask(),
        }
    }

    /// The set of symbols appearing in a term (deduplicated, sorted).
    /// An O(1) lookup of the support recorded at intern time — a slice
    /// of the pool's support arena: no traversal, no re-sort, no
    /// allocation.
    pub fn syms_of(&self, r: TermRef) -> &[SymId] {
        let (start, len) = self.meta[r.index()].syms;
        &self.supports[start as usize..(start + len) as usize]
    }

    // ------------------------------------------------------------------
    // Serialization hooks (used by the contract-store codec)
    // ------------------------------------------------------------------

    /// The term arena, in intern order (children precede parents).
    pub fn nodes(&self) -> &[Term] {
        &self.terms
    }

    /// The symbol registry, in id order: `(name, width)` per symbol.
    pub fn sym_entries(&self) -> impl Iterator<Item = (&str, Width)> {
        self.sym_names
            .iter()
            .map(String::as_str)
            .zip(self.sym_widths.iter().copied())
    }

    /// Register a symbol in the name registry *without* interning its
    /// term node. Rehydration registers all symbols first, then replays
    /// the arena in order, so `Sym` nodes land at their original indices.
    pub fn register_sym(&mut self, name: impl Into<String>, width: Width) -> SymId {
        let id = self.sym_names.len() as SymId;
        self.sym_names.push(name.into());
        self.sym_widths.push(width);
        id
    }

    /// Make room for `additional` more terms: interning that many grows
    /// no arena and rehashes nothing. The index table ends the size
    /// interning one term at a time would have grown it to.
    pub fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        self.terms.reserve_exact(additional);
        self.meta.reserve_exact(additional);
        let len = self.terms.len() + additional;
        let mut slots = self.slots.len();
        while len * 10 >= slots * 7 {
            slots = (slots * 2).max(64);
        }
        if slots > self.slots.len() {
            self.grow_slots(slots);
        }
    }

    /// Re-intern one decoded arena node (children must already be
    /// interned). Replaying [`TermPool::nodes`] in order through this
    /// rebuilds a bit-identical pool: interning assigns sequential
    /// indices, and every stored node is distinct.
    pub fn intern_node(&mut self, t: Term) -> TermRef {
        self.intern(t)
    }

    /// `src`'s term `t`, rebuilt in `self`. The term is rebuilt through
    /// the public constructors, children first and left to right, so
    /// commutative canonicalisation is re-applied against `self`'s ref
    /// ordering: the imported node is exactly the node `self` would have
    /// built had the term been constructed against it directly. Folding
    /// never fires during an import: `src` nodes are post-folding
    /// canonical forms, and the rebuild preserves the structural facts
    /// folding keys on (constant-ness, constant values, operand
    /// equality).
    ///
    /// `memo` is indexed by `src` term and holds the `self` ref of every
    /// term imported so far (sized `src.len()`, `None` at first): each
    /// source term is rebuilt once, and a source symbol, one `Sym` node,
    /// meets `sym` once however often it is imported. `sym` maps a
    /// source symbol's name and width to its term in `self`.
    pub fn import(
        &mut self,
        src: &TermPool,
        t: TermRef,
        memo: &mut [Option<TermRef>],
        sym: &mut impl FnMut(&mut TermPool, &str, Width) -> TermRef,
    ) -> TermRef {
        if let Some(m) = memo[t.index()] {
            return m;
        }
        let mut child = |dst: &mut TermPool, r: TermRef| dst.import(src, r, memo, sym);
        let out = match *src.get(t) {
            Term::Const { value, width } => self.constant(value, width),
            Term::Sym { id, width } => sym(self, src.sym_name(id), width),
            Term::Unop { op, a } => {
                let a = child(self, a);
                self.unop(op, a)
            }
            Term::Binop { op, a, b } => {
                let a = child(self, a);
                let b = child(self, b);
                self.binop(op, a, b)
            }
            Term::Ite { c, t, e } => {
                let c = child(self, c);
                let t = child(self, t);
                let e = child(self, e);
                self.ite(c, t, e)
            }
            Term::Zext { a, width } => {
                let a = child(self, a);
                self.zext(a, width)
            }
            Term::Trunc { a, width } => {
                let a = child(self, a);
                self.trunc(a, width)
            }
        };
        memo[t.index()] = Some(out);
        out
    }

    /// Import every node of `src` into `self`, in arena order, returning
    /// the full remap table (`src` arena index → ref in `self`). Children
    /// precede parents in the arena, so each [`TermPool::import`] makes
    /// exactly one constructor call.
    ///
    /// `sym` resolves symbol identity across pools — given the symbol's
    /// name and width, it returns the destination pool's term for it,
    /// minting one with [`TermPool::fresh_sym`] on first sight.
    pub fn absorb_with(
        &mut self,
        src: &TermPool,
        mut sym: impl FnMut(&mut TermPool, &str, Width) -> TermRef,
    ) -> Vec<TermRef> {
        let mut memo = vec![None; src.len()];
        (0..src.len() as u32)
            .map(|i| self.import(src, TermRef(i), &mut memo, &mut sym))
            .collect()
    }

    /// Render a term as human-readable infix text, using symbol names.
    pub fn display(&self, r: TermRef) -> String {
        let mut s = String::new();
        self.fmt_term(r, &mut s);
        s
    }

    fn fmt_term(&self, r: TermRef, out: &mut String) {
        match *self.get(r) {
            Term::Const { value, width } => {
                if width == Width::W1 {
                    let _ = write!(out, "{}", if value != 0 { "true" } else { "false" });
                } else if value > 255 {
                    let _ = write!(out, "0x{value:x}");
                } else {
                    let _ = write!(out, "{value}");
                }
            }
            Term::Sym { id, .. } => {
                let _ = write!(out, "{}", self.sym_name(id));
            }
            Term::Unop { op: UnOp::Not, a } => {
                out.push('!');
                out.push('(');
                self.fmt_term(a, out);
                out.push(')');
            }
            Term::Binop { op, a, b } => {
                out.push('(');
                self.fmt_term(a, out);
                let _ = write!(out, " {} ", op.symbol());
                self.fmt_term(b, out);
                out.push(')');
            }
            Term::Ite { c, t, e } => {
                out.push('(');
                self.fmt_term(c, out);
                out.push_str(" ? ");
                self.fmt_term(t, out);
                out.push_str(" : ");
                self.fmt_term(e, out);
                out.push(')');
            }
            Term::Zext { a, .. } => {
                out.push_str("zext(");
                self.fmt_term(a, out);
                out.push(')');
            }
            Term::Trunc { a, .. } => {
                out.push_str("trunc(");
                self.fmt_term(a, out);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.constant(3, Width::W32);
        let b = p.constant(4, Width::W32);
        let s = p.add(a, b);
        assert_eq!(p.as_const(s), Some(7));
        let m = p.mul(a, b);
        assert_eq!(p.as_const(m), Some(12));
        let cmp = p.ult(a, b);
        assert_eq!(p.as_const(cmp), Some(1));
    }

    #[test]
    fn masking_on_construction() {
        let mut p = TermPool::new();
        let c = p.constant(0x1_FFFF, Width::W16);
        assert_eq!(p.as_const(c), Some(0xFFFF));
        let a = p.constant(0xFFFF, Width::W16);
        let one = p.constant(1, Width::W16);
        let s = p.add(a, one);
        assert_eq!(p.as_const(s), Some(0), "16-bit wrap-around");
    }

    #[test]
    fn identities() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let zero = p.constant(0, Width::W32);
        let one = p.constant(1, Width::W32);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.mul(x, one), x);
        let mz = p.mul(x, zero);
        assert_eq!(p.as_const(mz), Some(0));
        let xx = p.xor(x, x);
        assert_eq!(p.as_const(xx), Some(0));
        let eq = p.eq(x, x);
        assert_eq!(p.as_const(eq), Some(1));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let a = p.add(x, y);
        let b = p.add(y, x); // commutative canonicalisation
        assert_eq!(a, b);
        let n = p.len();
        let _ = p.add(x, y);
        assert_eq!(p.len(), n, "re-construction allocates nothing");
    }

    #[test]
    fn eval_with_env() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let e = p.add(x, y);
        let ten = p.constant(10, Width::W32);
        let cond = p.ult(e, ten);
        let v = p.eval(cond, &|id| if id == 0 { 3 } else { 4 });
        assert_eq!(v, 1);
        let v = p.eval(cond, &|id| if id == 0 { 30 } else { 4 });
        assert_eq!(v, 0);
    }

    #[test]
    fn ite_simplification() {
        let mut p = TermPool::new();
        let c = p.fresh_sym("c", Width::W1);
        let x = p.fresh_sym("x", Width::W32);
        assert_eq!(p.ite(c, x, x), x);
        let t = p.tru();
        let y = p.fresh_sym("y", Width::W32);
        assert_eq!(p.ite(t, x, y), x);
    }

    #[test]
    fn display_is_readable() {
        let mut p = TermPool::new();
        let et = p.fresh_sym("pkt.ether_type", Width::W16);
        let c = p.constant(0x0800, Width::W16);
        let eq = p.eq(et, c);
        assert_eq!(p.display(eq), "(pkt.ether_type == 0x800)");
    }

    #[test]
    fn syms_of_collects_all() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let s = p.add(x, y);
        let s2 = p.add(s, x);
        assert_eq!(p.syms_of(s2), vec![0, 1]);
    }

    #[test]
    fn zext_trunc_are_rendered() {
        let mut p = TermPool::new();
        let b = p.fresh_sym("b", Width::W8);
        let z = p.zext(b, Width::W32);
        let one = p.constant(1, Width::W32);
        let s = p.add(z, one);
        assert_eq!(p.display(s), "(zext(b) + 1)");
        let w = p.fresh_sym("w", Width::W32);
        let t = p.trunc(w, Width::W8);
        assert_eq!(p.display(t), "trunc(w)");
    }

    #[test]
    fn cached_metadata_matches_structure() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let s = p.add(x, y);
        let z = p.zext(s, Width::W64);
        let c = p.fresh_sym("c", Width::W1);
        let t = p.trunc(z, Width::W32);
        let e = p.ite(c, t, x);
        assert_eq!(p.width(s), Width::W32);
        assert_eq!(p.width(z), Width::W64);
        assert_eq!(p.width(e), Width::W32);
        assert_eq!(p.syms_of(z), &[0, 1]);
        assert_eq!(p.syms_of(e), &[0, 1, 2]);
        let cmp = p.ult(x, y);
        assert_eq!(p.width(cmp), Width::W1);
    }

    #[test]
    fn a_union_equal_to_one_side_reuses_its_range() {
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let y = p.fresh_sym("y", Width::W32);
        let xy = p.add(x, y);
        let c = p.eq(x, y);
        let k = p.constant(5, Width::W32);
        let arena = p.supports.len();
        let reused = [
            p.sub(xy, x),    // b ⊆ a
            p.sub(y, xy),    // a ⊆ b
            p.mul(xy, xy),   // a == b
            p.xor(xy, k),    // an empty side
            p.ite(c, xy, y), // three sides, the union is one of them
            p.not(xy),
        ];
        for t in reused {
            assert_eq!(p.syms_of(t), &[0, 1], "{}", p.display(t));
        }
        assert_eq!(p.supports.len(), arena, "no reused union grows the arena");
        let z = p.fresh_sym("z", Width::W32);
        let b = p.fresh_sym("b", Width::W1);
        let arena = p.supports.len();
        let three = p.ite(b, xy, z);
        assert_eq!(p.syms_of(three), &[0, 1, 2, 3]);
        assert_eq!(
            p.supports.len(),
            arena + 4,
            "one merge pass, no intermediate range"
        );
    }

    #[test]
    fn interning_survives_table_growth() {
        fn mk(p: &mut TermPool, x: TermRef, i: u64) -> TermRef {
            let c = p.constant(i.max(1), Width::W32);
            p.add(x, c)
        }
        let mut p = TermPool::new();
        let x = p.fresh_sym("x", Width::W32);
        let first = mk(&mut p, x, 0);
        // Force several intern-table resizes.
        for i in 0..2000u64 {
            let _ = mk(&mut p, x, i);
        }
        assert_eq!(mk(&mut p, x, 0), first, "early terms still found");
    }

    #[test]
    fn sequential_keys_spread_over_the_intern_table() {
        // The slot is the content hash's low bits, with its high half
        // folded onto them. Sequential constants and
        // symbol ids differ in their low bits, and sequential constants
        // shifted into the high half (addresses, MACs) only in their high
        // bits; a hash that does not fold those down into the low ones
        // piles the second family into probe runs thousands of slots
        // long. (An FNV product's low bits see only its inputs' low
        // bits.)
        let mut p = TermPool::new();
        for i in 0..1u64 << 16 {
            p.constant(i, Width::W64);
            p.constant(i << 32, Width::W64);
            p.fresh_sym(format!("s{i}"), Width::W32);
        }
        let mask = p.slots.len() - 1;
        let longest = p
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(i, &s)| {
                let home = slot(p.meta[(s - 1) as usize].content, mask);
                (i.wrapping_sub(home) & mask) + 1
            })
            .max()
            .expect("the table holds the terms");
        assert!(longest <= 64, "a lookup probes up to {longest} slots");
    }

    /// Symbol resolver for absorb tests: share symbols by name, minting
    /// on first sight.
    fn absorb_by_name(
        seen: &mut std::collections::HashMap<String, TermRef>,
    ) -> impl FnMut(&mut TermPool, &str, Width) -> TermRef + '_ {
        move |dst, name, w| {
            *seen
                .entry(name.to_string())
                .or_insert_with(|| dst.fresh_sym(name, w))
        }
    }

    #[test]
    fn absorb_reproduces_direct_construction() {
        // Build the same run twice: once directly against the master
        // pool, once against a private pool absorbed afterwards. The
        // master must end bit-identical either way.
        fn run(p: &mut TermPool, x: TermRef, y: TermRef) -> TermRef {
            let s = p.add(x, y);
            let z = p.zext(s, Width::W64);
            let k = p.constant(0x1000, Width::W64);
            let c = p.ult(z, k);
            let t = p.trunc(z, Width::W16);
            let e = p.constant(7, Width::W16);
            let i = p.ite(c, t, e);
            let n = p.not(c);
            p.ite(n, e, i)
        }
        let mut direct = TermPool::new();
        let dx = direct.fresh_sym("x", Width::W32);
        let dy = direct.fresh_sym("y", Width::W32);
        let dr = run(&mut direct, dx, dy);

        let mut local = TermPool::new();
        let lx = local.fresh_sym("x", Width::W32);
        let ly = local.fresh_sym("y", Width::W32);
        let lr = run(&mut local, lx, ly);

        let mut master = TermPool::new();
        let mut seen = std::collections::HashMap::new();
        let map = master.absorb_with(&local, absorb_by_name(&mut seen));
        assert_eq!(master.len(), direct.len());
        assert_eq!(map[lr.index()], dr);
        assert_eq!(master.display(map[lr.index()]), direct.display(dr));
        assert_eq!(master.nodes(), direct.nodes());
    }

    #[test]
    fn absorb_recanonicalises_commutative_operands() {
        // In the private pool, `a` was created before `b`; in the master,
        // `b` already exists (from an earlier run) while `a` is new, so
        // the ref order reverses. The absorbed commutative node must be
        // re-canonicalised against *master* refs, matching what a direct
        // build would intern.
        let mut local = TermPool::new();
        let la = local.fresh_sym("a", Width::W32);
        let lb = local.fresh_sym("b", Width::W32);
        let lsum = local.add(la, lb);

        let mut master = TermPool::new();
        // Pre-populate: "b" and some unrelated terms exist, "a" doesn't.
        let mb = master.fresh_sym("b", Width::W32);
        let pad = master.constant(99, Width::W32);
        let _ = master.add(mb, pad);

        let mut seen = std::collections::HashMap::new();
        seen.insert("b".to_string(), mb);
        let map = master.absorb_with(&local, absorb_by_name(&mut seen));
        let ma = map[la.index()];
        let msum = map[lsum.index()];
        // Direct construction must dedup against the absorbed node.
        assert_eq!(master.add(mb, ma), msum);
        assert_eq!(master.add(ma, mb), msum);
    }

    #[test]
    fn absorb_is_idempotent_on_shared_structure() {
        let mut local = TermPool::new();
        let x = local.fresh_sym("x", Width::W16);
        let k = local.constant(3, Width::W16);
        let e = local.eq(x, k);
        let mut master = TermPool::new();
        let mut seen = std::collections::HashMap::new();
        let m1 = master.absorb_with(&local, absorb_by_name(&mut seen));
        let n = master.len();
        let m2 = master.absorb_with(&local, absorb_by_name(&mut seen));
        assert_eq!(master.len(), n, "second absorb interns nothing new");
        assert_eq!(m1[e.index()], m2[e.index()]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut p = TermPool::new();
        let a = p.fresh_sym("a", Width::W16);
        let b = p.fresh_sym("b", Width::W32);
        let _ = p.add(a, b);
    }
}
