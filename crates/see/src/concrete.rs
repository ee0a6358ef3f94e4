//! Concrete interpreter for [`NfCtx`] — the "production build".
//!
//! Values are `u64`s paired with a width (so wrap-around matches the
//! symbolic semantics bit for bit). Packet buffers are real byte vectors
//! registered per [`MemRegion`]; loads and stores are big-endian, matching
//! network byte order. A context outlives a packet: re-registering a
//! region (an mbuf slot receiving its next frame) reuses the allocation.

use bolt_expr::{BinOp, Width};
use bolt_trace::{InstrClass, MemRegion, Tracer};

use crate::{NfCtx, NfVerdict};

/// A concrete value with an explicit width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CVal {
    /// The value, always masked to `width`.
    pub v: u64,
    /// Bit width.
    pub w: Width,
}

impl CVal {
    /// Construct (masks the value).
    pub fn new(v: u64, w: Width) -> Self {
        CVal { v: v & w.mask(), w }
    }
}

/// Concrete execution context. Generic over its sink, which it holds by
/// mutable reference so callers can aggregate events across many packets:
/// every event is a direct call into `T`'s own methods, inlined into the
/// NF code, not a call through a vtable.
pub struct ConcreteCtx<'t, T: Tracer> {
    tracer: &'t mut T,
    /// `(region base, bytes)`: one entry per region ever registered — the
    /// mbuf slots in flight plus any static table, a handful — searched
    /// linearly.
    buffers: Vec<(u64, Vec<u8>)>,
    verdicts: Vec<NfVerdict>,
}

impl<'t, T: Tracer> ConcreteCtx<'t, T> {
    /// New context writing events into `tracer`.
    pub fn new(tracer: &'t mut T) -> Self {
        ConcreteCtx {
            tracer,
            buffers: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Register the backing bytes for a region (e.g. a packet buffer):
    /// a copy of `bytes`, zero-padded/truncated to the region size, which
    /// replaces whatever the region held.
    pub fn register_buffer(&mut self, region: MemRegion, bytes: impl AsRef<[u8]>) {
        let (bytes, size) = (bytes.as_ref(), region.size as usize);
        let i = self.slot(region).unwrap_or_else(|| {
            self.buffers.push((region.base, Vec::new()));
            self.buffers.len() - 1
        });
        let buf = &mut self.buffers[i].1;
        buf.clear();
        buf.extend_from_slice(&bytes[..bytes.len().min(size)]);
        buf.resize(size, 0);
    }

    fn slot(&self, region: MemRegion) -> Option<usize> {
        self.buffers.iter().position(|(b, _)| *b == region.base)
    }

    /// Read back a buffer (e.g. the packet after NF processing).
    pub fn buffer(&self, region: MemRegion) -> Option<&[u8]> {
        self.slot(region).map(|i| self.buffers[i].1.as_slice())
    }

    /// Verdicts recorded so far (one per processed packet, in order).
    pub fn verdicts(&self) -> &[NfVerdict] {
        &self.verdicts
    }

    /// The most recent verdict.
    pub fn last_verdict(&self) -> Option<NfVerdict> {
        self.verdicts.last().copied()
    }

    /// Clear recorded verdicts (when reusing the ctx across packets).
    pub fn clear_verdicts(&mut self) {
        self.verdicts.clear();
    }

    fn binop(&mut self, op: BinOp, a: CVal, b: CVal, cost: InstrClass) -> CVal {
        assert_eq!(a.w, b.w, "width mismatch in concrete {op:?}");
        self.tracer.instr(cost, 1);
        let out_w = if op.is_comparison() { Width::W1 } else { a.w };
        CVal::new(op.apply(a.v, b.v, a.w), out_w)
    }
}

impl<T: Tracer> NfCtx for ConcreteCtx<'_, T> {
    type Val = CVal;
    type Sink = T;

    fn lit(&mut self, v: u64, w: Width) -> CVal {
        CVal::new(v, w)
    }

    fn add(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Add, a, b, InstrClass::Alu)
    }
    fn sub(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Sub, a, b, InstrClass::Alu)
    }
    fn mul(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Mul, a, b, InstrClass::Mul)
    }
    fn and(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::And, a, b, InstrClass::Alu)
    }
    fn or(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Or, a, b, InstrClass::Alu)
    }
    fn xor(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Xor, a, b, InstrClass::Alu)
    }
    fn shl(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Shl, a, b, InstrClass::Alu)
    }
    fn shr(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Shr, a, b, InstrClass::Alu)
    }
    fn eq(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Eq, a, b, InstrClass::Alu)
    }
    fn ne(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Ne, a, b, InstrClass::Alu)
    }
    fn ult(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Ult, a, b, InstrClass::Alu)
    }
    fn ule(&mut self, a: CVal, b: CVal) -> CVal {
        self.binop(BinOp::Ule, a, b, InstrClass::Alu)
    }

    fn select(&mut self, c: CVal, a: CVal, b: CVal) -> CVal {
        assert_eq!(c.w, Width::W1, "select condition must be boolean");
        assert_eq!(a.w, b.w, "select arm width mismatch");
        self.tracer.instr(InstrClass::Alu, 1);
        if c.v != 0 {
            a
        } else {
            b
        }
    }

    fn zext(&mut self, a: CVal, w: Width) -> CVal {
        assert!(a.w.bits() <= w.bits(), "zext must widen");
        self.tracer.instr(InstrClass::Alu, 1);
        CVal::new(a.v, w)
    }

    fn trunc(&mut self, a: CVal, w: Width) -> CVal {
        assert!(a.w.bits() >= w.bits(), "trunc must narrow");
        self.tracer.instr(InstrClass::Alu, 1);
        CVal::new(a.v, w)
    }

    fn branch(&mut self, c: CVal) -> bool {
        assert_eq!(c.w, Width::W1, "branch condition must be boolean");
        self.tracer.instr(InstrClass::Branch, 1);
        c.v != 0
    }

    fn load(&mut self, region: MemRegion, offset: u64, bytes: usize) -> CVal {
        let w = Width::from_bytes(bytes);
        self.tracer.mem_read(region.addr(offset), bytes as u8);
        let buf = self.buffer(region).expect("load from unregistered buffer");
        let mut v = 0u64;
        for i in 0..bytes {
            v = (v << 8) | buf[offset as usize + i] as u64;
        }
        CVal::new(v, w)
    }

    fn store(&mut self, region: MemRegion, offset: u64, val: CVal, bytes: usize) {
        assert_eq!(val.w, Width::from_bytes(bytes), "store width mismatch");
        self.tracer.mem_write(region.addr(offset), bytes as u8);
        let i = self.slot(region).expect("store to unregistered buffer");
        let buf = &mut self.buffers[i].1;
        for i in 0..bytes {
            buf[offset as usize + i] = (val.v >> (8 * (bytes - 1 - i))) as u8;
        }
    }

    fn tag(&mut self, _tag: &'static str) {}

    fn verdict(&mut self, v: NfVerdict) {
        self.verdicts.push(v);
    }

    fn in_port(&mut self, port: u16) -> CVal {
        CVal::new(port as u64, Width::W16)
    }

    fn concrete_value(&self, v: CVal) -> Option<u64> {
        Some(v.v)
    }

    fn tracer(&mut self) -> &mut T {
        self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::{
        count_ic_ma, AddressSpace, CountingTracer, NullTracer, RecordingTracer, TraceEvent,
    };

    #[test]
    fn arithmetic_wraps_to_width() {
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let a = ctx.lit(0xFFFF, Width::W16);
        let b = ctx.lit(1, Width::W16);
        let s = ctx.add(a, b);
        assert_eq!(s.v, 0);
        assert_eq!(s.w, Width::W16);
    }

    #[test]
    fn comparisons_produce_booleans() {
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let a = ctx.lit(3, Width::W32);
        let b = ctx.lit(5, Width::W32);
        let lt = ctx.ult(a, b);
        assert_eq!(lt, CVal::new(1, Width::W1));
        assert!(ctx.branch(lt));
    }

    #[test]
    fn loads_and_stores_are_big_endian() {
        let mut aspace = AddressSpace::new();
        let region = aspace.alloc_table(64);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        ctx.register_buffer(region, vec![0x08, 0x00, 0xAA, 0xBB]);
        let et = ctx.load(region, 0, 2);
        assert_eq!(et.v, 0x0800);
        let v = ctx.lit(0x1234, Width::W16);
        ctx.store(region, 2, v, 2);
        assert_eq!(&ctx.buffer(region).unwrap()[2..4], &[0x12, 0x34]);
    }

    #[test]
    fn reregistering_a_region_leaves_nothing_behind() {
        let mut aspace = AddressSpace::new();
        let slot = aspace.alloc_table(64);
        let other = aspace.alloc_table(16);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        ctx.register_buffer(slot, [0xEE; 48]);
        ctx.register_buffer(other, vec![7; 16]);
        // The NF writes past the frame's end, too.
        let v = ctx.lit(0xABCD, Width::W16);
        ctx.store(slot, 60, v, 2);
        assert_eq!(&ctx.buffer(slot).unwrap()[60..62], &[0xAB, 0xCD]);

        // The slot's next frame is shorter: zeros from its end to the
        // region's, exactly as a freshly registered buffer reads.
        ctx.register_buffer(slot, [0x11u8; 10].as_slice());
        let mut expected = vec![0x11u8; 10];
        expected.resize(64, 0);
        assert_eq!(ctx.buffer(slot).unwrap(), expected);
        assert_eq!(ctx.load(slot, 8, 4).v, 0x1111_0000);
        assert_eq!(ctx.load(slot, 60, 2).v, 0);
        assert_eq!(ctx.buffer(other).unwrap(), [7; 16], "neighbours untouched");

        // Longer than the region: truncated to it.
        ctx.register_buffer(other, vec![9; 40]);
        assert_eq!(ctx.buffer(other).unwrap(), [9; 16]);
    }

    #[test]
    #[should_panic(expected = "load from unregistered buffer")]
    fn load_from_an_unregistered_region_panics() {
        let mut aspace = AddressSpace::new();
        let known = aspace.alloc_table(64);
        let unknown = aspace.alloc_table(64);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        ctx.register_buffer(known, [0u8; 64]);
        let _ = ctx.load(unknown, 0, 2);
    }

    #[test]
    fn costs_are_accounted() {
        let mut t = CountingTracer::new();
        let mut aspace = AddressSpace::new();
        let region = aspace.alloc_table(64);
        {
            let mut ctx = ConcreteCtx::new(&mut t);
            ctx.register_buffer(region, vec![0; 64]);
            let a = ctx.lit(1, Width::W32); // free
            let b = ctx.lit(2, Width::W32); // free
            let s = ctx.add(a, b); // 1 alu
            let c = ctx.eq(s, a); // 1 alu
            ctx.branch(c); // 1 branch
            let _ = ctx.load(region, 0, 4); // 1 load + access
            ctx.store(region, 0, s, 4); // 1 store + access
        }
        assert_eq!(t.instructions(), 5);
        assert_eq!(t.mem_accesses, 2);
    }

    #[test]
    fn event_stream_matches_expected_sequence() {
        let mut r = RecordingTracer::new();
        let mut aspace = AddressSpace::new();
        let region = aspace.alloc_table(64);
        {
            let mut ctx = ConcreteCtx::new(&mut r);
            ctx.register_buffer(region, vec![0; 64]);
            let x = ctx.load(region, 8, 2);
            let c = ctx.eq_imm(x, 0, Width::W16);
            ctx.branch(c);
        }
        let (ic, ma) = count_ic_ma(&r.events);
        assert_eq!((ic, ma), (3, 1));
    }

    #[test]
    fn verdicts_recorded() {
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        ctx.verdict(NfVerdict::Drop);
        ctx.verdict(NfVerdict::Forward(3));
        assert_eq!(ctx.verdicts(), &[NfVerdict::Drop, NfVerdict::Forward(3)]);
        assert_eq!(ctx.last_verdict(), Some(NfVerdict::Forward(3)));
    }

    #[test]
    fn select_is_branchless() {
        let mut r = RecordingTracer::new();
        {
            let mut ctx = ConcreteCtx::new(&mut r);
            let c = ctx.lit(1, Width::W1);
            let a = ctx.lit(10, Width::W32);
            let b = ctx.lit(20, Width::W32);
            let s = ctx.select(c, a, b);
            assert_eq!(s.v, 10);
        }
        assert_eq!(
            r.events,
            [TraceEvent::Instr {
                class: InstrClass::Alu,
                n: 1
            }]
        );
    }
}
