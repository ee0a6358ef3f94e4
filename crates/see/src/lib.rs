//! Symbolic execution engine (SEE) and concrete executor for NFs.
//!
//! BOLT's pipeline needs the same stateless NF code to run in two modes
//! (§3.3):
//!
//! * **symbolically**, linked against data-structure *models*, to
//!   enumerate every feasible execution path together with its path
//!   constraints and its stateless instruction trace; and
//! * **concretely**, linked against the real instrumented data
//!   structures, to produce ground-truth measurements.
//!
//! NF authors write their packet-processing logic once, generically,
//! against the [`NfCtx`] trait — the "instruction set" of this
//! reproduction. [`ConcreteCtx`] interprets it over `u64` values;
//! [`SymbolicCtx`] interprets it over [`bolt_expr`] terms, forking at
//! branches on symbolic conditions. The [`Explorer`] drives exhaustive
//! path enumeration by deterministic re-execution with a decision-prefix
//! worklist (the classic concolic scheduling approach), pruning flips the
//! solver proves infeasible.
//!
//! Only NF bodies are written against both contexts. A data-structure
//! library is linked against one: the production structures take a
//! [`ConcreteCtx`], and the models take a [`SymbolicCtx`], whose own
//! operations (`fresh`, `fork`, `ule_free`, `assume`) build their cases.
//!
//! Every `NfCtx` operation also reports its cost to the ambient
//! [`bolt_trace::Tracer`], with a fixed mapping to x86-style instruction
//! classes, so that for a given path the symbolic run and a concrete run
//! emit *identical* stateless event streams — the property that lets the
//! contract generator charge stateless instructions exactly (§3.5's
//! deterministic replay).

pub mod codec;
pub mod concrete;
pub mod explore;
pub mod symbolic;

pub use concrete::ConcreteCtx;
pub use explore::{ExplorationResult, ExploreStats, Explorer, Path};
pub use symbolic::SymbolicCtx;

use bolt_expr::Width;
use bolt_trace::{MemRegion, Tracer};

/// What the NF decided to do with the packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NfVerdict {
    /// Send out of a specific port.
    Forward(u16),
    /// Drop the packet.
    Drop,
    /// Send out of every port except the input (bridges).
    Flood,
}

/// The execution context network functions are written against.
///
/// Operations mirror the instructions a C compiler would emit: arithmetic
/// and comparisons cost one ALU instruction, `branch` costs a branch
/// instruction and — in symbolic mode — forks the path when the condition
/// is symbolic, `load`/`store` access packet buffers and cost a memory
/// instruction plus a memory access.
pub trait NfCtx {
    /// Value representation: `u64`+width when concrete, a term when
    /// symbolic.
    type Val: Copy + std::fmt::Debug;

    /// The sink every event goes to: the production build's caller-chosen
    /// one, the analysis build's path recording. A type, not a trait
    /// object, so an instrumented call is a direct call.
    type Sink: Tracer;

    /// An immediate constant (free: folded into consuming instructions).
    fn lit(&mut self, v: u64, w: Width) -> Self::Val;

    /// Wrapping addition (1 ALU instruction).
    fn add(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Wrapping subtraction (1 ALU instruction).
    fn sub(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Multiplication (1 multiply instruction).
    fn mul(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Bitwise and (1 ALU instruction).
    fn and(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Bitwise or (1 ALU instruction).
    fn or(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Bitwise xor (1 ALU instruction).
    fn xor(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Shift left (1 ALU instruction).
    fn shl(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Logical shift right (1 ALU instruction).
    fn shr(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;

    /// Equality comparison (1 ALU instruction; result is a W1 boolean).
    fn eq(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Disequality (1 ALU instruction).
    fn ne(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Unsigned less-than (1 ALU instruction).
    fn ult(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// Unsigned less-or-equal (1 ALU instruction).
    fn ule(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;

    /// Branchless select `c ? a : b` (1 ALU instruction, like `cmov`).
    fn select(&mut self, c: Self::Val, a: Self::Val, b: Self::Val) -> Self::Val;

    /// Zero-extend to a wider width (1 ALU instruction).
    fn zext(&mut self, a: Self::Val, w: Width) -> Self::Val;

    /// Truncate to a narrower width, keeping low bits (1 ALU instruction).
    fn trunc(&mut self, a: Self::Val, w: Width) -> Self::Val;

    /// Conditional branch (1 branch instruction). In symbolic mode a
    /// symbolic condition forks the path; the return value is the
    /// direction taken on *this* path.
    fn branch(&mut self, c: Self::Val) -> bool;

    /// Big-endian load of `bytes ∈ {1,2,4,6,8}` at `region.base+offset`
    /// (1 load instruction + 1 memory access).
    fn load(&mut self, region: MemRegion, offset: u64, bytes: usize) -> Self::Val;

    /// Big-endian store (1 store instruction + 1 memory access).
    fn store(&mut self, region: MemRegion, offset: u64, v: Self::Val, bytes: usize);

    /// Attach a human-readable label to the current path (free). Concrete
    /// mode ignores tags.
    fn tag(&mut self, tag: &'static str);

    /// Record the NF's verdict for this packet/path.
    fn verdict(&mut self, v: NfVerdict);

    /// The packet's input port, `port` in the mbuf metadata: the 16-bit
    /// literal when concrete; when symbolic, a fresh `pkt.in_port` symbol,
    /// so input classes can constrain traffic direction. Free.
    fn in_port(&mut self, port: u16) -> Self::Val;

    /// The concrete value, if this value is statically known.
    fn concrete_value(&self, v: Self::Val) -> Option<u64>;

    /// The ambient tracer, for instrumented data-structure internals and
    /// model [`bolt_trace::StatefulCall`] events.
    fn tracer(&mut self) -> &mut Self::Sink;

    // ------------------------------------------------------------------
    // Conveniences (derived forms; no extra cost beyond their parts)
    // ------------------------------------------------------------------

    /// `a == lit(v)`.
    fn eq_imm(&mut self, a: Self::Val, v: u64, w: Width) -> Self::Val {
        let c = self.lit(v, w);
        self.eq(a, c)
    }

    /// Branch on `a == v`.
    fn branch_eq_imm(&mut self, a: Self::Val, v: u64, w: Width) -> bool {
        let c = self.eq_imm(a, v, w);
        self.branch(c)
    }
}
