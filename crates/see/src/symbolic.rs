//! Symbolic interpreter for [`NfCtx`] — the "analysis build".
//!
//! Values are [`bolt_expr`] terms. Packet memory is field-granular and
//! lazy: the first read of `(offset, bytes)` in the packet region mints a
//! named input symbol (`pkt@12:2`); stores overwrite the field's term.
//! Branches on symbolic conditions consult the decision schedule installed
//! by the [`Explorer`](crate::Explorer); beyond the schedule, the
//! interpreter takes the true arm unless a quick solver check proves it
//! infeasible (which both prunes dead paths early and guarantees progress
//! for loops whose bounds are symbolic but constrained), and records
//! whether the other arm is feasible for the explorer to enqueue.
//!
//! Limitations, documented and intentional (same shape as the paper's
//! prototype): load/store offsets must be concrete along any given path,
//! and a field must always be accessed at the same granularity.

use std::fmt::{self, Write as _};

use bolt_expr::{BinOp, FxHashMap, SymId, TermPool, TermRef, Width};
use bolt_solver::{Solver, SolverCache, SolverCtx};
use bolt_trace::{AddressSpace, InstrClass, MemRegion, RecordingTracer, TraceEvent, Tracer};

use crate::{NfCtx, NfVerdict};

/// State shared across the runs of one exploration: the solver's
/// feasibility caches and the cross-run symbol memos (the same packet
/// field or model call mints the same symbol in every run, so terms —
/// and therefore cached feasibility verdicts and models — are shared
/// between sibling runs instead of re-interned per run). The memos are
/// the explorer's only symbol tables, keyed by what a symbol is made of,
/// not by its name, which is formatted once, when the symbol is minted.
///
/// It also carries what one run can hand the next without changing what
/// either computes: the emptied memory map, the emptied solving context,
/// a name buffer, and the largest record sizes seen so far, which size
/// the next run's vectors up front.
#[derive(Debug, Default)]
pub(crate) struct ExploreShared {
    /// Feasibility memo, per-atom witness cache, model cache, counters.
    pub cache: SolverCache,
    /// Load symbols by `(in the packet region, packet offset or absolute
    /// address, bytes)`, which is all their name and width are made of.
    loads: FxHashMap<(bool, u64, u8), TermRef>,
    /// Per model name, the current run's `fresh` count and every symbol
    /// minted under the name so far, with its ordinal: one per
    /// `(ordinal, width)` met. Names stay from run to run; a run starts
    /// by zeroing the counts.
    fresh: FxHashMap<String, (usize, Vec<(usize, TermRef)>)>,
    /// The previous run's memory map, emptied.
    mem: FxHashMap<(u64, u8), TermRef>,
    /// Buffer the names of lazily minted symbols are written into.
    name: String,
    /// Largest record sizes of the runs so far.
    sizes: RunSizes,
    /// The previous run's solving context: a run asserts on top of a
    /// checkpoint of the empty context, which `finish` pops, so the next
    /// run starts empty but with the probes' checkpoints already grown.
    sctx: Option<SolverCtx>,
}

/// Largest lengths a finished run's record vectors reached.
#[derive(Clone, Copy, Debug, Default)]
struct RunSizes {
    events: usize,
    decisions: usize,
    entries: usize,
}

/// Mint the symbol whose name `name` formats, in `pool`. The name is
/// written into the reused buffer `buf`, then copied into the pool.
fn mint(pool: &mut TermPool, buf: &mut String, name: fmt::Arguments<'_>, w: Width) -> TermRef {
    buf.clear();
    let _ = buf.write_fmt(name);
    pool.fresh_sym(buf.as_str(), w)
}

impl ExploreShared {
    /// The symbol of a lazily read location: `pkt@{at}:{bytes}` at packet
    /// offset `at`, `mem@{at:#x}:{bytes}` at any other address `at`.
    fn load_sym(&mut self, pool: &mut TermPool, is_packet: bool, at: u64, bytes: usize) -> TermRef {
        let key = (is_packet, at, bytes as u8);
        if let Some(&t) = self.loads.get(&key) {
            return t;
        }
        let w = Width::from_bytes(bytes);
        let t = if is_packet {
            mint(pool, &mut self.name, format_args!("pkt@{at}:{bytes}"), w)
        } else {
            mint(pool, &mut self.name, format_args!("mem@{at:#x}:{bytes}"), w)
        };
        self.loads.insert(key, t);
        t
    }

    /// The symbol of the current run's next [`SymbolicCtx::fresh`]`(name)`
    /// at width `w`: the `(ordinal, width)` variant an earlier call
    /// minted, else a new symbol. Two distinct calls never share a
    /// symbol, whatever their formatted names.
    fn fresh_sym(&mut self, pool: &mut TermPool, name: &str, w: Width) -> TermRef {
        let n = match self.fresh.get_mut(name) {
            Some((count, syms)) => {
                let n = *count;
                *count += 1;
                // Every lower ordinal was met before ordinal `n` was
                // first minted, so its variants sit at positions ≥ `n`.
                let known = syms[n..]
                    .iter()
                    .find(|&&(o, t)| o == n && pool.width(t) == w);
                if let Some(&(_, t)) = known {
                    return t;
                }
                n
            }
            None => {
                self.fresh.insert(name.to_string(), (1, Vec::new()));
                0
            }
        };
        let t = if n == 0 {
            mint(pool, &mut self.name, format_args!("{name}"), w)
        } else {
            mint(pool, &mut self.name, format_args!("{name}#{n}"), w)
        };
        let syms = &mut self.fresh.get_mut(name).expect("counted above").1;
        syms.push((n, t));
        t
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

/// Raw per-run record handed to the explorer.
#[derive(Debug, Default)]
pub(crate) struct RunRecord {
    /// Every decision taken at a symbolic branch, in order.
    pub decisions: Vec<bool>,
    /// Ascending indices of the decisions made beyond the schedule whose
    /// flipped arm was feasible where the run decided them.
    pub flips: Vec<usize>,
    /// Ordered constraints (branch-derived and assumed).
    pub entries: Vec<TermRef>,
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
}

/// Symbolic execution context for one run (one candidate path).
///
/// Carries an incrementally-extended [`SolverCtx`] mirroring the path
/// constraints asserted so far, so the feasibility probes of both arms at
/// a branch assert one atom against saved propagation state instead of
/// replaying the whole conjunction.
pub struct SymbolicCtx<'p> {
    pool: &'p mut TermPool,
    sctx: SolverCtx,
    shared: &'p mut ExploreShared,
    tracer: RecordingTracer,
    schedule: Vec<bool>,
    decisions: Vec<bool>,
    flips: Vec<usize>,
    entries: Vec<TermRef>,
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
        shared.fresh.values_mut().for_each(|f| f.0 = 0);
        let mem = std::mem::take(&mut shared.mem);
        let sizes = shared.sizes;
        let mut sctx = shared.sctx.take().unwrap_or_else(|| SolverCtx::new(solver));
        sctx.push();
        SymbolicCtx {
            sctx,
            pool,
            shared,
            tracer: RecordingTracer {
                events: Vec::with_capacity(sizes.events),
            },
            schedule,
            decisions: Vec::with_capacity(sizes.decisions),
            flips: Vec::new(),
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

    /// The most recent verdict recorded on this path, if any.
    pub fn last_verdict(&self) -> Option<NfVerdict> {
        self.verdict
    }

    /// A fresh symbolic value, for data-structure models. The `n`-th
    /// `fresh(name)` of a run mints `name` for `n` = 0 and `name#n` after
    /// that.
    pub fn fresh(&mut self, name: &str, w: Width) -> TermRef {
        self.shared.fresh_sym(self.pool, name, w)
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
        self.entries.push(c);
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
        self.sctx.pop();
        self.shared.sctx = Some(self.sctx);
        let sizes = &mut self.shared.sizes;
        sizes.events = sizes.events.max(self.tracer.events.len());
        sizes.decisions = sizes.decisions.max(self.decisions.len());
        sizes.entries = sizes.entries.max(self.entries.len());
        RunRecord {
            decisions: self.decisions,
            flips: self.flips,
            entries: self.entries,
            events: self.tracer.events,
            tags: self.tags,
            verdict: self.verdict,
            packet_fields: self.packet_fields,
            final_packet,
        }
    }

    fn binop(&mut self, op: BinOp, a: TermRef, b: TermRef, cost: InstrClass) -> TermRef {
        self.tracer.instr(cost, 1);
        self.pool.binop(op, a, b)
    }

    /// Decide a symbolic condition, append its constraint and extend
    /// the incremental solver context. A scheduled decision is replayed.
    /// Beyond the schedule, both arms are probed against the constraints
    /// asserted so far: the true arm is taken unless it is infeasible,
    /// and the decision is recorded as a flip when the other arm is
    /// feasible too. The false arm is probed first, so the model the true
    /// arm's probe leaves is the one its assertion keeps alive.
    fn decide(&mut self, c: TermRef) -> bool {
        let idx = self.decisions.len();
        let taken = match self.schedule.get(idx) {
            Some(&taken) => taken,
            None => {
                let not_c = self.pool.not(c);
                let cache = &mut self.shared.cache;
                let else_ok = self.sctx.probe_feasible(self.pool, cache, not_c);
                let then_ok = self.sctx.probe_feasible(self.pool, cache, c);
                if then_ok && else_ok {
                    self.flips.push(idx);
                }
                then_ok
            }
        };
        let constraint = if taken { c } else { self.pool.not(c) };
        self.decisions.push(taken);
        self.entries.push(constraint);
        self.sctx.assert_term(self.pool, constraint);
        taken
    }
}

impl NfCtx for SymbolicCtx<'_> {
    type Val = TermRef;
    type Sink = RecordingTracer;

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
        let is_packet = self
            .packet_region
            .map(|r| r.contains(addr))
            .unwrap_or(false);
        let at = if is_packet { offset } else { addr };
        let t = self.shared.load_sym(self.pool, is_packet, at, bytes);
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

    fn tracer(&mut self) -> &mut RecordingTracer {
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
        assert_eq!(rec.flips, vec![0], "both arms are feasible");
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
    fn fresh_symbols_stay_distinct_when_their_names_collide() {
        let (mut pool, solver, mut shared) = setup();
        let mut ctx = SymbolicCtx::new(&mut pool, &solver, vec![], &mut shared);
        let a = ctx.fresh("x", Width::W8);
        let b = ctx.fresh("x", Width::W8);
        let c = ctx.fresh("x#1", Width::W8);
        drop(ctx.finish());
        assert!(a != b && b != c && a != c, "{a:?} {b:?} {c:?}");
        assert_eq!(pool.sym_count(), 3);
        assert_eq!((pool.sym_name(1), pool.sym_name(2)), ("x#1", "x#1"));
    }

    #[test]
    fn a_fresh_call_at_two_widths_mints_two_symbols_per_exploration() {
        // Three runs call `fresh("m")` at W8, W16 and W8 again.
        let result = crate::Explorer::new().explore(|ctx| {
            let pkt = ctx.packet(64);
            let x = ctx.load(pkt, 0, 1);
            let w = if ctx.branch_eq_imm(x, 1, Width::W8) {
                Width::W16
            } else {
                let _ = ctx.branch_eq_imm(x, 2, Width::W8);
                Width::W8
            };
            ctx.fresh("m", w);
        });
        assert_eq!(result.paths.len(), 3);
        let minted: Vec<Width> = result
            .pool
            .sym_entries()
            .filter(|&(name, _)| name == "m")
            .map(|(_, w)| w)
            .collect();
        assert_eq!(minted.len(), 2, "{minted:?}");
        assert_ne!(minted[0], minted[1]);
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
