//! Per-packet timestamp source with configurable granularity.
//!
//! §5.3's VigNAT performance bug: flows were time-stamped at *second*
//! granularity, so every flow that arrived within one second carried the
//! same timestamp and the whole batch expired at once when the clock
//! ticked — producing the multi-microsecond latency tail of Figure 4.
//! Increasing the granularity to milliseconds spread expiry out.
//!
//! The clock truncates to a power-of-two number of nanoseconds so the
//! truncation costs one AND instead of a divide, matching how a DPDK NF
//! would bucket TSC readings.

use bolt_expr::{TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{InstrClass, Tracer};

/// Timestamp granularity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// ~1.07 s buckets (2³⁰ ns) — the original VigNAT behaviour.
    Seconds,
    /// ~1.05 ms buckets (2²⁰ ns) — the fixed behaviour.
    Milliseconds,
    /// Full nanosecond resolution.
    Nanoseconds,
}

impl Granularity {
    /// Bitmask clearing the sub-granularity bits.
    pub fn mask(self) -> u64 {
        match self {
            Granularity::Seconds => !((1u64 << 30) - 1),
            Granularity::Milliseconds => !((1u64 << 20) - 1),
            Granularity::Nanoseconds => u64::MAX,
        }
    }

    /// Truncate a nanosecond timestamp.
    pub fn truncate(self, t_ns: u64) -> u64 {
        t_ns & self.mask()
    }
}

/// The concrete clock: driven by the workload (each injected packet
/// advances it), read by NFs through [`Clock::now`].
#[derive(Clone, Debug)]
pub struct Clock {
    /// Current absolute time in nanoseconds (untruncated).
    pub t_ns: u64,
    /// Truncation applied on read.
    pub granularity: Granularity,
}

impl Clock {
    /// New clock at t=0.
    pub fn new(granularity: Granularity) -> Self {
        Clock {
            t_ns: 0,
            granularity,
        }
    }

    /// Advance to an absolute time (monotonic).
    pub fn advance_to(&mut self, t_ns: u64) {
        debug_assert!(t_ns >= self.t_ns, "clock must be monotonic");
        self.t_ns = t_ns;
    }

    /// Read the truncated time the way an NF would: one TSC read (modelled
    /// as `Other`) plus the truncation AND. Returns a context value.
    pub fn now<T: Tracer>(&self, ctx: &mut ConcreteCtx<'_, T>) -> CVal {
        ctx.tracer().instr(InstrClass::Other, 1);
        ctx.tracer().instr(InstrClass::Alu, 1);
        ctx.lit(self.granularity.truncate(self.t_ns), Width::W64)
    }

    /// The truncated value as a plain integer (for oracles in tests).
    pub fn now_raw(&self) -> u64 {
        self.granularity.truncate(self.t_ns)
    }
}

/// Symbolic model of the clock: time is an opaque fresh symbol per packet
/// (the contract never branches on absolute time).
#[derive(Clone, Copy, Debug)]
pub struct ClockModel;

impl ClockModel {
    /// Read symbolic time (same cost events as the concrete clock).
    pub fn now(&self, ctx: &mut SymbolicCtx<'_>) -> TermRef {
        ctx.tracer().instr(InstrClass::Other, 1);
        ctx.tracer().instr(InstrClass::Alu, 1);
        ctx.fresh("clock.now", Width::W64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::{CountingTracer, NullTracer};

    #[test]
    fn second_granularity_batches_timestamps() {
        let mut c = Clock::new(Granularity::Seconds);
        c.advance_to(100);
        let a = c.now_raw();
        c.advance_to((1 << 30) - 1);
        let b = c.now_raw();
        assert_eq!(a, b, "same second bucket");
        c.advance_to(1 << 30);
        assert_ne!(c.now_raw(), a, "next bucket");
    }

    #[test]
    fn millisecond_granularity_spreads_timestamps() {
        let mut c = Clock::new(Granularity::Milliseconds);
        c.advance_to(100);
        let a = c.now_raw();
        c.advance_to(1 << 20);
        assert_ne!(c.now_raw(), a);
    }

    #[test]
    fn reading_costs_are_fixed() {
        let mut t = CountingTracer::new();
        let clock = Clock::new(Granularity::Seconds);
        {
            let mut ctx = ConcreteCtx::new(&mut t);
            let _ = clock.now(&mut ctx);
        }
        assert_eq!(t.instructions(), 2);
    }

    #[test]
    fn concrete_read_matches_raw() {
        let mut c = Clock::new(Granularity::Milliseconds);
        c.advance_to(123 << 20);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let v = c.now(&mut ctx);
        assert_eq!(ctx.concrete_value(v), Some(c.now_raw()));
    }

    #[test]
    fn nanosecond_granularity_is_identity() {
        assert_eq!(Granularity::Nanoseconds.truncate(0xDEADBEEF), 0xDEADBEEF);
    }
}
