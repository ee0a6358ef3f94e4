//! Dynamic instruction traces for BOLT.
//!
//! The paper replays each execution path under Intel Pin and logs "the x86
//! instructions along with memory locations touched along that path"
//! (§3.5). In this reproduction, network functions and the instrumented
//! data-structure library execute against a [`Tracer`]; every logical
//! machine step they take emits a [`TraceEvent`] tagged with an x86-style
//! [`InstrClass`] and, for memory operations, a simulated address from an
//! [`AddressSpace`]. The event stream plays the role of the Pin trace:
//!
//! * counting events yields the **instruction count (IC)** and **memory
//!   access (MA)** metrics directly;
//! * feeding events through the hardware models in `bolt-hw` yields the
//!   **cycles** metric (conservative bound or testbed-simulated ground
//!   truth).
//!
//! Sinks compose statically: [`CountingTracer`] keeps totals, a
//! [`RecordingTracer`] keeps the full event list, [`NullTracer`] discards
//! everything (used when only the functional result matters), and a pair
//! `(A, B)` of sinks is itself a sink that hands every event to `A` then
//! `B` — nest pairs for more, lend a sink with `&mut`. The pair's type
//! names its members, and the production execution context is generic
//! over its sink's type, so an NF's call per event is a direct call into
//! code where every member is inlined: no vtable, and nothing allocated
//! to fan out. Pairs and borrows pass [`Tracer::instr`] and the `mem_*`
//! calls, nearly all of an NF's, to each member's own method, so a sink
//! that overrides them (the counters, the testbed model) handles an
//! instruction or an access without building a [`TraceEvent`] and
//! matching on its kind.

use std::fmt;

use bolt_expr::PcvId;

pub mod mem;

pub use mem::{AddressSpace, MemRegion};

/// x86-style instruction class. The hardware models assign per-class costs;
/// instrumented code picks the class matching the assembly a C compiler
/// would emit for the equivalent operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstrClass {
    /// Simple integer ALU op (add/sub/logic/compare/mov reg-reg).
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide / modulo.
    Div,
    /// Conditional or unconditional branch.
    Branch,
    /// Memory load (the access itself is a separate `MemRead` event).
    Load,
    /// Memory store.
    Store,
    /// Call instruction.
    Call,
    /// Return instruction.
    Ret,
    /// Hash/CRC acceleration (e.g. `crc32` used by DPDK hash tables).
    Crc,
    /// Anything else (I/O register access, fences).
    Other,
}

impl InstrClass {
    /// All classes, for table iteration.
    pub const ALL: [InstrClass; 10] = [
        InstrClass::Alu,
        InstrClass::Mul,
        InstrClass::Div,
        InstrClass::Branch,
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::Call,
        InstrClass::Ret,
        InstrClass::Crc,
        InstrClass::Other,
    ];

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            InstrClass::Alu => 0,
            InstrClass::Mul => 1,
            InstrClass::Div => 2,
            InstrClass::Branch => 3,
            InstrClass::Load => 4,
            InstrClass::Store => 5,
            InstrClass::Call => 6,
            InstrClass::Ret => 7,
            InstrClass::Crc => 8,
            InstrClass::Other => 9,
        }
    }
}

/// Performance metric a contract is expressed in. Contracts are
/// metric-specific (§2.2): one NF has one contract per metric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Metric {
    /// Number of executed instructions ("IC" in the paper).
    Instructions,
    /// Number of memory accesses ("MA").
    MemAccesses,
    /// Execution cycles (hardware-dependent; model-mediated).
    Cycles,
}

impl Metric {
    /// All metrics.
    pub const ALL: [Metric; 3] = [Metric::Instructions, Metric::MemAccesses, Metric::Cycles];

    /// Dense index for per-metric arrays.
    pub fn index(self) -> usize {
        match self {
            Metric::Instructions => 0,
            Metric::MemAccesses => 1,
            Metric::Cycles => 2,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Instructions => write!(f, "instructions"),
            Metric::MemAccesses => write!(f, "memory accesses"),
            Metric::Cycles => write!(f, "cycles"),
        }
    }
}

/// Identifier of a registered stateful data-structure instance. Allocation
/// and name/contract resolution live in `nf-lib`'s registry; the trace only
/// carries the id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DsId(pub u32);

/// A call into a stateful data-structure method, as recorded on a symbolic
/// path. `method` and `case` index into the instance's performance contract
/// (the *case* selects the contract branch, e.g. flow-table `get`: hit vs
/// miss — §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StatefulCall {
    /// Which data-structure instance.
    pub ds: DsId,
    /// Method index within the instance's contract.
    pub method: u16,
    /// Contract case chosen on this path.
    pub case: u16,
}

/// Trace boundary markers, used to segment per-packet work and to restrict
/// analysis to the NF-only window vs the full stack (§3.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Marker {
    /// A packet's processing begins (sequence number).
    PacketStart(u64),
    /// A packet's processing ends.
    PacketEnd(u64),
    /// Driver receive path begins.
    RxStart,
    /// Driver receive path done; NF logic begins.
    NfStart,
    /// NF logic done.
    NfEnd,
    /// Driver transmit/drop path done.
    TxDone,
}

/// One logical machine step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// `n` instructions of the given class executed (no memory operand).
    Instr { class: InstrClass, n: u32 },
    /// A load touched `[addr, addr+bytes)`. Counts as one load instruction
    /// plus one memory access. `dep` marks a pointer-chasing load whose
    /// address was produced by a previous load (e.g. walking a linked
    /// list); such misses cannot overlap with earlier ones in the testbed
    /// model's memory-level-parallelism accounting.
    MemRead { addr: u64, bytes: u8, dep: bool },
    /// A store touched `[addr, addr+bytes)`.
    MemWrite { addr: u64, bytes: u8 },
    /// Symbolic-mode only: a modelled stateful call; its cost comes from
    /// the method's manual contract, not from surrounding events.
    Stateful(StatefulCall),
    /// A PCV took a concrete value during a concrete run (Distiller food).
    Pcv { pcv: PcvId, value: u64 },
    /// Boundary marker.
    Mark(Marker),
}

impl TraceEvent {
    /// Instructions this single event contributes to the IC metric.
    pub fn instruction_count(&self) -> u64 {
        match self {
            TraceEvent::Instr { n, .. } => *n as u64,
            TraceEvent::MemRead { .. } | TraceEvent::MemWrite { .. } => 1,
            _ => 0,
        }
    }

    /// Memory accesses this event contributes to the MA metric.
    pub fn mem_access_count(&self) -> u64 {
        match self {
            TraceEvent::MemRead { .. } | TraceEvent::MemWrite { .. } => 1,
            _ => 0,
        }
    }
}

/// Consumer of trace events. NF code and the instrumented library write
/// through the convenience methods; only [`Tracer::event`] is required.
pub trait Tracer {
    /// Consume one event.
    fn event(&mut self, ev: TraceEvent);

    /// `n` instructions of class `class`.
    fn instr(&mut self, class: InstrClass, n: u32) {
        if n > 0 {
            self.event(TraceEvent::Instr { class, n });
        }
    }

    /// ALU shortcut (the most common class).
    fn alu(&mut self, n: u32) {
        self.instr(InstrClass::Alu, n);
    }

    /// Branch shortcut.
    fn branch_instr(&mut self) {
        self.instr(InstrClass::Branch, 1);
    }

    /// An independent load of `bytes` at `addr` (address computed from
    /// indices/constants, not from a previously loaded pointer).
    fn mem_read(&mut self, addr: u64, bytes: u8) {
        self.event(TraceEvent::MemRead {
            addr,
            bytes,
            dep: false,
        });
    }

    /// A dependent (pointer-chasing) load: the address came out of a
    /// previous load, so the access serialises behind it.
    fn mem_read_dep(&mut self, addr: u64, bytes: u8) {
        self.event(TraceEvent::MemRead {
            addr,
            bytes,
            dep: true,
        });
    }

    /// A store of `bytes` at `addr`.
    fn mem_write(&mut self, addr: u64, bytes: u8) {
        self.event(TraceEvent::MemWrite { addr, bytes });
    }

    /// A modelled stateful call (symbolic mode).
    fn stateful(&mut self, call: StatefulCall) {
        self.event(TraceEvent::Stateful(call));
    }

    /// A PCV observation (concrete mode).
    fn pcv(&mut self, pcv: PcvId, value: u64) {
        self.event(TraceEvent::Pcv { pcv, value });
    }

    /// A boundary marker.
    fn mark(&mut self, m: Marker) {
        self.event(TraceEvent::Mark(m));
    }
}

/// Discards all events.
#[derive(Default, Debug, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn event(&mut self, _ev: TraceEvent) {}
}

/// Records the full event stream (use for paths and small runs; long
/// pathological runs should prefer [`CountingTracer`] or an online model).
#[derive(Default, Debug, Clone)]
pub struct RecordingTracer {
    /// The recorded events, in order.
    pub events: Vec<TraceEvent>,
}

impl RecordingTracer {
    /// New empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded events, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Tracer for RecordingTracer {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Streaming IC and MA totals. O(1) memory regardless of run length —
/// this is what makes the pathological mass-expiry scenarios (billions of
/// instructions) measurable.
///
/// Each event bumps one counter: an access is one instruction with a
/// memory operand, so IC is the sum of the two fields, read through
/// [`CountingTracer::instructions`]. (Bumping two adjacent counters per
/// access compiles to one wide read-modify-write that cannot take its
/// input from the narrower store of the instruction count before it.)
#[derive(Default, Debug, Clone)]
pub struct CountingTracer {
    /// Executed instructions without a memory operand.
    pub plain: u64,
    /// Total memory accesses (MA metric).
    pub mem_accesses: u64,
}

impl CountingTracer {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total executed instructions (IC metric): the plain ones and one
    /// per memory access.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.plain + self.mem_accesses
    }
}

impl Tracer for CountingTracer {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Instr { n, .. } => self.plain += n as u64,
            TraceEvent::MemRead { .. } | TraceEvent::MemWrite { .. } => self.mem_accesses += 1,
            _ => {}
        }
    }

    #[inline]
    fn instr(&mut self, _class: InstrClass, n: u32) {
        self.plain += n as u64;
    }

    #[inline]
    fn mem_read(&mut self, _addr: u64, _bytes: u8) {
        self.mem_accesses += 1;
    }

    #[inline]
    fn mem_read_dep(&mut self, _addr: u64, _bytes: u8) {
        self.mem_accesses += 1;
    }

    #[inline]
    fn mem_write(&mut self, _addr: u64, _bytes: u8) {
        self.mem_accesses += 1;
    }
}

/// A borrowed sink is a sink, so the owner keeps reading it afterwards.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        (**self).event(ev);
    }

    #[inline]
    fn instr(&mut self, class: InstrClass, n: u32) {
        (**self).instr(class, n);
    }

    #[inline]
    fn mem_read(&mut self, addr: u64, bytes: u8) {
        (**self).mem_read(addr, bytes);
    }

    #[inline]
    fn mem_read_dep(&mut self, addr: u64, bytes: u8) {
        (**self).mem_read_dep(addr, bytes);
    }

    #[inline]
    fn mem_write(&mut self, addr: u64, bytes: u8) {
        (**self).mem_write(addr, bytes);
    }
}

/// The tee: both sinks see every event, `A` first (e.g. counters + a
/// cache model). Instructions and memory accesses, nearly every call an
/// NF makes, reach each member's own method for them, so a member that
/// handles them directly pays for no event and no dispatch on its kind.
impl<A: Tracer, B: Tracer> Tracer for (A, B) {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.0.event(ev);
        self.1.event(ev);
    }

    #[inline]
    fn instr(&mut self, class: InstrClass, n: u32) {
        self.0.instr(class, n);
        self.1.instr(class, n);
    }

    #[inline]
    fn mem_read(&mut self, addr: u64, bytes: u8) {
        self.0.mem_read(addr, bytes);
        self.1.mem_read(addr, bytes);
    }

    #[inline]
    fn mem_read_dep(&mut self, addr: u64, bytes: u8) {
        self.0.mem_read_dep(addr, bytes);
        self.1.mem_read_dep(addr, bytes);
    }

    #[inline]
    fn mem_write(&mut self, addr: u64, bytes: u8) {
        self.0.mem_write(addr, bytes);
        self.1.mem_write(addr, bytes);
    }
}

/// Summarise a recorded event slice into `(IC, MA)`.
pub fn count_ic_ma(events: &[TraceEvent]) -> (u64, u64) {
    let mut ic = 0;
    let mut ma = 0;
    for ev in events {
        ic += ev.instruction_count();
        ma += ev.mem_access_count();
    }
    (ic, ma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_ic_ma() {
        let mut t = CountingTracer::new();
        t.alu(3);
        t.mem_read(0x1000, 8);
        t.mem_write(0x1008, 4);
        t.branch_instr();
        assert_eq!(t.instructions(), 3 + 1 + 1 + 1);
        assert_eq!(t.mem_accesses, 2);
    }

    #[test]
    fn zero_count_instr_is_dropped() {
        let mut r = RecordingTracer::new();
        r.instr(InstrClass::Alu, 0);
        assert!(r.events.is_empty());
    }

    #[test]
    fn recording_and_counting_agree() {
        let mut r = RecordingTracer::new();
        r.alu(5);
        r.mem_read(0x2000, 8);
        r.instr(InstrClass::Mul, 2);
        r.mem_write(0x2000, 8);
        let (ic, ma) = count_ic_ma(&r.events);
        let mut c = CountingTracer::new();
        for ev in &r.events {
            c.event(*ev);
        }
        assert_eq!(ic, c.instructions());
        assert_eq!(ma, c.mem_accesses);
    }

    #[test]
    fn tee_fans_out() {
        let mut a = CountingTracer::new();
        let mut b = RecordingTracer::new();
        {
            let mut tee = (&mut a, &mut b);
            tee.alu(7);
            tee.mem_read(0x10, 4);
        }
        assert_eq!(a.instructions(), 8);
        assert_eq!(b.events.len(), 2);
    }

    /// A pair hands instructions and accesses to each member's own
    /// method: the counters it keeps equal those of the events the
    /// recorder beside them kept, zero-count instructions included.
    #[test]
    fn tee_methods_count_what_the_events_say() {
        let mut tee = (
            CountingTracer::new(),
            (&mut RecordingTracer::new(), NullTracer),
        );
        tee.alu(3);
        tee.instr(InstrClass::Div, 0);
        tee.mem_read(0x40, 8);
        tee.mem_read_dep(0x80, 4);
        tee.branch_instr();
        tee.mem_write(0xc0, 2);
        tee.mark(Marker::TxDone);
        let (ic, ma) = count_ic_ma(&tee.1 .0.events);
        assert_eq!(
            tee.1 .0.events.len(),
            6,
            "the zero-count instruction is dropped"
        );
        assert_eq!((tee.0.instructions(), tee.0.mem_accesses), (ic, ma));
        assert_eq!((ic, ma), (7, 3));
    }

    #[test]
    fn stateful_and_pcv_events_carry_no_cost() {
        let call = StatefulCall {
            ds: DsId(1),
            method: 2,
            case: 0,
        };
        assert_eq!(TraceEvent::Stateful(call).instruction_count(), 0);
        let pcv = TraceEvent::Pcv {
            pcv: PcvId(0),
            value: 9,
        };
        assert_eq!(pcv.mem_access_count(), 0);
    }
}
