//! Symbolic interpreter for [`NfCtx`] — the "analysis build".
//!
//! Values are [`bolt_expr`] terms. Packet memory is field-granular and
//! lazy: the first read of `(offset, bytes)` in the packet region mints a
//! named input symbol (`pkt@12:2`); stores overwrite the field's term.
//! Branches on symbolic conditions consult the decision schedule installed
//! by the [`Explorer`](crate::Explorer); beyond the schedule, the
//! interpreter takes the true arm unless a quick solver check proves it
//! infeasible (which both prunes dead paths early and guarantees progress
//! for loops whose bounds are symbolic but constrained).
//!
//! Limitations, documented and intentional (same shape as the paper's
//! prototype): load/store offsets must be concrete along any given path,
//! and a field must always be accessed at the same granularity.

use std::fmt::{self, Write as _};

use bolt_expr::{BinOp, FxHashMap, SymId, SymTable, TermPool, TermRef, Width};
use bolt_solver::{Solver, SolverCache, SolverCtx, Witness};
use bolt_trace::{AddressSpace, InstrClass, MemRegion, RecordingTracer, TraceEvent, Tracer};

use crate::{NfCtx, NfVerdict};

/// State shared across the runs of one exploration: the solver's
/// feasibility caches and the cross-run symbol table (the same packet
/// field or model call mints the same symbol in every run, so terms —
/// and therefore cached feasibility verdicts and models — are shared
/// between sibling runs instead of re-interned per run).
///
/// It also carries what one run can hand the next without changing what
/// either computes: the emptied memory map, a name buffer, `fresh`'s
/// name keys, and the largest record sizes seen so far, which size the
/// next run's vectors up front.
#[derive(Debug, Default)]
pub(crate) struct ExploreShared {
    /// Feasibility memo, per-atom witness cache, model cache, counters.
    pub cache: SolverCache,
    syms: SymTable,
    /// The current run's `fresh` count per model name. Names stay from
    /// run to run (so each allocates once); a run starts by zeroing the
    /// counts.
    fresh: FxHashMap<String, usize>,
    /// The previous run's memory map, emptied.
    mem: FxHashMap<(u64, u8), TermRef>,
    /// Buffer the names of lazily minted symbols are written into.
    name: String,
    /// Largest record sizes of the runs so far.
    sizes: RunSizes,
}

/// Largest lengths a finished run's record vectors reached.
#[derive(Clone, Copy, Debug, Default)]
struct RunSizes {
    events: usize,
    decisions: usize,
    entries: usize,
}

impl ExploreShared {
    /// Mint (or, when an earlier run already minted it, reuse) the
    /// symbol whose name `name` formats, in `pool`. The name is written
    /// into the reused buffer instead of a fresh string.
    fn sym_named(&mut self, pool: &mut TermPool, name: fmt::Arguments<'_>, w: Width) -> TermRef {
        self.name.clear();
        let _ = self.name.write_fmt(name);
        self.syms.sym_for(pool, &self.name, w)
    }
}

/// A lazily-minted symbolic packet field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketField {
    /// Byte offset within the packet region.
    pub offset: u64,
    /// Field size in bytes.
    pub bytes: u8,
    /// The input symbol minted for it.
    pub sym: SymId,
    /// The symbol as a term.
    pub term: TermRef,
}

/// One recorded path constraint, remembering whether it came from a branch
/// (and which one) so the explorer can rebuild constraint prefixes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConstraintEntry {
    /// The (width-1) constraint term.
    pub term: TermRef,
    /// Index of the symbolic branch that produced it, if any.
    pub branch: Option<usize>,
}

/// Raw per-run record handed to the explorer.
#[derive(Debug, Default)]
pub(crate) struct RunRecord {
    /// Every decision taken at a symbolic branch, in order.
    pub decisions: Vec<bool>,
    /// The condition term of each symbolic branch.
    pub branch_conds: Vec<TermRef>,
    /// Ordered constraints (branch-derived and assumed).
    pub entries: Vec<ConstraintEntry>,
    /// Recorded stateless event trace.
    pub events: Vec<TraceEvent>,
    /// Path tags.
    pub tags: Vec<&'static str>,
    /// The last verdict recorded (a later one replaces an earlier).
    pub verdict: Option<NfVerdict>,
    /// Lazily-minted input packet fields.
    pub packet_fields: Vec<PacketField>,
    /// Final `(offset, bytes) → term` state of the packet region.
    pub final_packet: Vec<(u64, u8, TermRef)>,
    /// A verified model of the full path constraints, when one fell out
    /// of the run's feasibility checks (seeds the explorer's flip walk).
    pub model: Option<Witness>,
}

/// Symbolic execution context for one run (one candidate path).
///
/// Carries an incrementally-extended [`SolverCtx`] mirroring the path
/// constraints asserted so far, so default-arm feasibility probes at
/// branches assert one atom against saved propagation state instead of
/// replaying the whole conjunction.
pub struct SymbolicCtx<'p> {
    pool: &'p mut TermPool,
    sctx: SolverCtx,
    shared: &'p mut ExploreShared,
    tracer: RecordingTracer,
    schedule: Vec<bool>,
    decisions: Vec<bool>,
    branch_conds: Vec<TermRef>,
    entries: Vec<ConstraintEntry>,
    mem: FxHashMap<(u64, u8), TermRef>,
    packet_fields: Vec<PacketField>,
    tags: Vec<&'static str>,
    verdict: Option<NfVerdict>,
    aspace: AddressSpace,
    packet_region: Option<MemRegion>,
}

impl<'p> SymbolicCtx<'p> {
    /// New context for one run of an exploration: it replays `schedule`
    /// and then default-explores, sharing caches and the symbol registry
    /// with the exploration's sibling runs.
    pub(crate) fn new(
        pool: &'p mut TermPool,
        solver: &'p Solver,
        schedule: Vec<bool>,
        shared: &'p mut ExploreShared,
    ) -> Self {
        shared.fresh.values_mut().for_each(|n| *n = 0);
        let mem = std::mem::take(&mut shared.mem);
        let sizes = shared.sizes;
        SymbolicCtx {
            sctx: SolverCtx::new(solver),
            pool,
            shared,
            tracer: RecordingTracer {
                events: Vec::with_capacity(sizes.events),
            },
            schedule,
            decisions: Vec::with_capacity(sizes.decisions),
            branch_conds: Vec::with_capacity(sizes.decisions),
            entries: Vec::with_capacity(sizes.entries),
            mem,
            packet_fields: Vec::new(),
            tags: Vec::new(),
            verdict: None,
            aspace: AddressSpace::new(),
            packet_region: None,
        }
    }

    /// Allocate the symbolic packet region (deterministic across runs:
    /// every run allocates from a fresh, identical address space).
    pub fn packet(&mut self, len: u64) -> MemRegion {
        let r = self.aspace.alloc_pages(len.max(64));
        self.packet_region = Some(r);
        r
    }

    /// Allocate an auxiliary simulated region (deterministic across runs
    /// if allocation order is deterministic).
    pub fn alloc_region(&mut self, size: u64) -> MemRegion {
        self.aspace.alloc_table(size)
    }

    /// Current path constraints (terms only).
    pub fn constraints(&self) -> Vec<TermRef> {
        self.entries.iter().map(|e| e.term).collect()
    }

    /// The most recent verdict recorded on this path, if any.
    pub fn last_verdict(&self) -> Option<NfVerdict> {
        self.verdict
    }

    /// A fresh symbolic value, for data-structure models. The `n`-th
    /// `fresh(name)` of a run mints `name` for `n` = 0 and `name#n` after
    /// that.
    pub fn fresh(&mut self, name: &str, w: Width) -> TermRef {
        let n = match self.shared.fresh.get_mut(name) {
            Some(n) => {
                *n += 1;
                *n - 1
            }
            None => {
                self.shared.fresh.insert(name.to_string(), 1);
                0
            }
        };
        if n == 0 {
            self.mint_sym(format_args!("{name}"), w)
        } else {
            self.mint_sym(format_args!("{name}#{n}"), w)
        }
    }

    /// Cost-free fork on a condition. Data-structure models use this to
    /// split contract cases without perturbing the stateless instruction
    /// trace — the branch's cost is part of the method's manual contract.
    pub fn fork(&mut self, c: TermRef) -> bool {
        if let Some(v) = self.pool.as_const(c) {
            return v != 0;
        }
        self.decide(c)
    }

    /// Cost-free `a <= b` for model-side constraint building.
    pub fn ule_free(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.pool.ule(a, b)
    }

    /// Constrain the current path. Free.
    pub fn assume(&mut self, c: TermRef) {
        if self.pool.as_const(c) == Some(1) {
            return;
        }
        self.entries.push(ConstraintEntry {
            term: c,
            branch: None,
        });
        self.sctx.assert_term(self.pool, c);
    }

    /// Whole-path feasibility of the constraints asserted so far, decided
    /// on the run's own incremental context (no replay). Classification
    /// is exactly the batch solver's.
    pub(crate) fn path_feasible(&mut self) -> bool {
        self.sctx
            .current_feasible(self.pool, &mut self.shared.cache)
    }

    /// Tear down the run and emit its record.
    pub(crate) fn finish(mut self) -> RunRecord {
        let pkt = self.packet_region;
        let mut final_packet = Vec::with_capacity(self.mem.len());
        final_packet.extend(self.mem.drain().filter_map(|((addr, bytes), term)| {
            let r = pkt?;
            r.contains(addr).then(|| (addr - r.base, bytes, term))
        }));
        // Keys are unique, so the sort fixes an order the map's does not.
        final_packet.sort_by_key(|&(o, b, _)| (o, b));
        self.shared.mem = self.mem;
        let sizes = &mut self.shared.sizes;
        sizes.events = sizes.events.max(self.tracer.events.len());
        sizes.decisions = sizes.decisions.max(self.decisions.len());
        sizes.entries = sizes.entries.max(self.entries.len());
        RunRecord {
            decisions: self.decisions,
            branch_conds: self.branch_conds,
            entries: self.entries,
            events: self.tracer.events,
            tags: self.tags,
            verdict: self.verdict,
            packet_fields: self.packet_fields,
            final_packet,
            model: self.sctx.model().cloned(),
        }
    }

    fn binop(&mut self, op: BinOp, a: TermRef, b: TermRef, cost: InstrClass) -> TermRef {
        self.tracer.instr(cost, 1);
        self.pool.binop(op, a, b)
    }

    /// Mint (or, when a sibling run already minted it, reuse) the symbol
    /// named `name`. Sharing symbols across runs makes the terms of
    /// common decision prefixes identical between siblings, which is what
    /// lets the feasibility memo and model cache hit across runs.
    fn mint_sym(&mut self, name: fmt::Arguments<'_>, w: Width) -> TermRef {
        self.shared.sym_named(self.pool, name, w)
    }

    /// Record a taken decision: remember the branch, append its
    /// constraint, and extend the incremental solver context.
    fn take_decision(&mut self, idx: usize, c: TermRef, taken: bool) {
        self.decisions.push(taken);
        self.branch_conds.push(c);
        let constraint = if taken { c } else { self.pool.not(c) };
        self.entries.push(ConstraintEntry {
            term: constraint,
            branch: Some(idx),
        });
        self.sctx.assert_term(self.pool, constraint);
    }

    /// Decide a symbolic condition: replay the schedule, or default to
    /// the true arm unless a single push/pop probe proves it infeasible.
    fn decide(&mut self, c: TermRef) -> bool {
        let idx = self.decisions.len();
        let taken = if idx < self.schedule.len() {
            self.schedule[idx]
        } else {
            self.sctx
                .probe_feasible(self.pool, &mut self.shared.cache, c)
        };
        self.take_decision(idx, c, taken);
        taken
    }
}

impl NfCtx for SymbolicCtx<'_> {
    type Val = TermRef;

    fn lit(&mut self, v: u64, w: Width) -> TermRef {
        self.pool.constant(v, w)
    }

    fn add(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Add, a, b, InstrClass::Alu)
    }
    fn sub(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Sub, a, b, InstrClass::Alu)
    }
    fn mul(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Mul, a, b, InstrClass::Mul)
    }
    fn and(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::And, a, b, InstrClass::Alu)
    }
    fn or(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Or, a, b, InstrClass::Alu)
    }
    fn xor(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Xor, a, b, InstrClass::Alu)
    }
    fn shl(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Shl, a, b, InstrClass::Alu)
    }
    fn shr(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Shr, a, b, InstrClass::Alu)
    }
    fn eq(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Eq, a, b, InstrClass::Alu)
    }
    fn ne(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ne, a, b, InstrClass::Alu)
    }
    fn ult(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ult, a, b, InstrClass::Alu)
    }
    fn ule(&mut self, a: TermRef, b: TermRef) -> TermRef {
        self.binop(BinOp::Ule, a, b, InstrClass::Alu)
    }

    fn select(&mut self, c: TermRef, a: TermRef, b: TermRef) -> TermRef {
        self.tracer.instr(InstrClass::Alu, 1);
        self.pool.ite(c, a, b)
    }

    fn zext(&mut self, a: TermRef, w: Width) -> TermRef {
        self.tracer.instr(InstrClass::Alu, 1);
        self.pool.zext(a, w)
    }

    fn trunc(&mut self, a: TermRef, w: Width) -> TermRef {
        self.tracer.instr(InstrClass::Alu, 1);
        self.pool.trunc(a, w)
    }

    fn branch(&mut self, c: TermRef) -> bool {
        self.tracer.instr(InstrClass::Branch, 1);
        if let Some(v) = self.pool.as_const(c) {
            return v != 0;
        }
        // Beyond the schedule, `decide` defaults to the true arm unless a
        // single push/pop probe against the saved propagation state proves
        // it infeasible (guarantees progress for bounded loops).
        self.decide(c)
    }

    fn load(&mut self, region: MemRegion, offset: u64, bytes: usize) -> TermRef {
        let addr = region.addr(offset);
        self.tracer.mem_read(addr, bytes as u8);
        let key = (addr, bytes as u8);
        if let Some(&t) = self.mem.get(&key) {
            return t;
        }
        let w = Width::from_bytes(bytes);
        let is_packet = self
            .packet_region
            .map(|r| r.contains(addr))
            .unwrap_or(false);
        let t = if is_packet {
            self.mint_sym(format_args!("pkt@{offset}:{bytes}"), w)
        } else {
            self.mint_sym(format_args!("mem@{addr:#x}:{bytes}"), w)
        };
        self.mem.insert(key, t);
        if is_packet {
            if let bolt_expr::Term::Sym { id, .. } = *self.pool.get(t) {
                self.packet_fields.push(PacketField {
                    offset,
                    bytes: bytes as u8,
                    sym: id,
                    term: t,
                });
            }
        }
        t
    }

    fn store(&mut self, region: MemRegion, offset: u64, v: TermRef, bytes: usize) {
        let addr = region.addr(offset);
        self.tracer.mem_write(addr, bytes as u8);
        self.mem.insert((addr, bytes as u8), v);
    }

    fn tag(&mut self, tag: &'static str) {
        self.tags.push(tag);
    }

    fn verdict(&mut self, v: NfVerdict) {
        self.verdict = Some(v);
    }

    fn in_port(&mut self, _port: u16) -> TermRef {
        self.fresh("pkt.in_port", Width::W16)
    }

    fn concrete_value(&self, v: TermRef) -> Option<u64> {
        self.pool.as_const(v)
    }

    fn tracer(&mut self) -> &mut dyn Tracer {
        &mut self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::count_ic_ma;

    fn setup() -> (TermPool, Solver, ExploreShared) {
        (TermPool::new(), Solver::default(), ExploreShared::default())
    }

    #[test]
    fn lazy_packet_fields_are_memoised() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let a = ctx.load(pkt, 12, 2);
        let b = ctx.load(pkt, 12, 2);
        assert_eq!(a, b, "same field must return the same symbol");
        let rec = ctx.finish();
        assert_eq!(rec.packet_fields.len(), 1);
        assert_eq!(rec.packet_fields[0].offset, 12);
    }

    #[test]
    fn store_then_load_returns_stored_term() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let v = ctx.lit(0xBEEF, Width::W16);
        ctx.store(pkt, 20, v, 2);
        let r = ctx.load(pkt, 20, 2);
        assert_eq!(ctx.concrete_value(r), Some(0xBEEF));
    }

    #[test]
    fn concrete_branches_do_not_fork() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let t = ctx.lit(1, Width::W1);
        assert!(ctx.branch(t));
        let rec = ctx.finish();
        assert!(rec.decisions.is_empty());
        assert!(rec.entries.is_empty());
    }

    #[test]
    fn symbolic_branch_records_decision_and_constraint() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let et = ctx.load(pkt, 12, 2);
        let taken = ctx.branch_eq_imm(et, 0x0800, Width::W16);
        assert!(taken, "default arm is true");
        let rec = ctx.finish();
        assert_eq!(rec.decisions, vec![true]);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].branch, Some(0));
    }

    #[test]
    fn schedule_is_replayed() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![false], &mut shared);
        let pkt = ctx.packet(64);
        let et = ctx.load(pkt, 12, 2);
        let taken = ctx.branch_eq_imm(et, 0x0800, Width::W16);
        assert!(!taken, "schedule forces the false arm");
    }

    #[test]
    fn infeasible_true_arm_falls_back_to_false() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let n = ctx.load(pkt, 0, 1);
        // Assume n < 1, then branch on n >= 1: the true arm is infeasible.
        let one = ctx.lit(1, Width::W8);
        let lt = ctx.ult(n, one);
        ctx.assume(lt);
        let ge = ctx.ule(one, n);
        let taken = ctx.branch(ge);
        assert!(!taken, "solver must steer away from the infeasible arm");
    }

    #[test]
    fn bounded_symbolic_loop_terminates() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let n = ctx.load(pkt, 0, 1);
        let three = ctx.lit(3, Width::W8);
        let bound = ctx.ule(n, three);
        ctx.assume(bound);
        let mut iters = 0u64;
        loop {
            let i = ctx.lit(iters, Width::W8);
            let more = ctx.ult(i, n);
            if !ctx.branch(more) {
                break;
            }
            iters += 1;
            assert!(iters < 100, "loop must terminate via the solver");
        }
        assert_eq!(iters, 3, "default-true exploration runs to the bound");
    }

    #[test]
    fn cost_stream_counts() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let x = ctx.load(pkt, 8, 2); // load
        let c = ctx.eq_imm(x, 0, Width::W16); // alu
        ctx.branch(c); // branch
        let rec = ctx.finish();
        let (ic, ma) = count_ic_ma(&rec.events);
        assert_eq!((ic, ma), (3, 1));
    }

    #[test]
    fn fresh_names_are_unique_per_run() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let a = ctx.fresh("m.hit", Width::W1);
        let b = ctx.fresh("m.hit", Width::W1);
        assert_ne!(a, b);
        let rec = ctx.finish();
        drop(rec);
        assert_eq!(pool.sym_name(0), "m.hit");
        assert_eq!(pool.sym_name(1), "m.hit#1");
    }

    #[test]
    fn final_packet_reflects_writes() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let pkt = ctx.packet(64);
        let _src = ctx.load(pkt, 26, 4);
        let v = ctx.lit(0x0a000001, Width::W32);
        ctx.store(pkt, 26, v, 4);
        let rec = ctx.finish();
        assert_eq!(rec.final_packet.len(), 1);
        let (off, bytes, term) = rec.final_packet[0];
        assert_eq!((off, bytes), (26, 4));
        assert_eq!(pool.as_const(term), Some(0x0a000001));
    }
}
