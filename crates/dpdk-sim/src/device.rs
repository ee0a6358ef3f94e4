//! The driver's half of the device loop, written once: one [`Driver`]
//! with two layouts, and an mbuf mempool.
//!
//! The driver cost sequences below model the ixgbe-style subset the paper
//! analyses: descriptor-ring reads/writes plus device register accesses
//! (`InstrClass::Other`), with simple, branch-light control flow. The
//! exact instruction counts are calibration constants; what matters for
//! the reproduction is that they are (a) identical between the symbolic
//! analysis build and the concrete production build and (b) constant per
//! packet, so they fold into each contract's constant term. Both builds
//! call [`Driver::receive`] and [`Driver::transmit`], the only callers of
//! these sequences, so every driver access lands on the same line of the
//! same region in both; only where the regions sit differs.

use bolt_see::{NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, InstrClass, Marker, MemRegion, Tracer};

use crate::StackLevel;

/// Size of the simulated descriptor ring region (64 descriptors × 16 B).
const RING_BYTES: u64 = 64 * 16;
/// Size of the simulated device register window.
const REG_BYTES: u64 = 128;

/// Driver receive path: poll the RX descriptor, read status/length, hand
/// the buffer to the NF, replenish the descriptor, bump the tail register.
fn rx_costs(t: &mut (impl Tracer + ?Sized), ring: MemRegion, regs: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.mem_read(ring.addr(0), 8); // descriptor status word
    t.instr(InstrClass::Alu, 4); // status decode
    t.instr(InstrClass::Branch, 1); // DD bit check
    t.mem_read(ring.addr(8), 8); // buffer address + length
    t.instr(InstrClass::Alu, 6); // mbuf metadata setup
    t.mem_write(ring.addr(0), 8); // re-arm descriptor
    t.instr(InstrClass::Other, 1); // RDT register write (uncached I/O)
    t.mem_write(regs.addr(0), 4);
    t.instr(InstrClass::Alu, 5); // ring index arithmetic
    t.instr(InstrClass::Branch, 1); // wrap check
    t.instr(InstrClass::Ret, 1);
}

/// Driver transmit path: write the TX descriptor, update the tail
/// register, reap a completed descriptor.
fn tx_costs(t: &mut (impl Tracer + ?Sized), ring: MemRegion, regs: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.instr(InstrClass::Alu, 6); // descriptor fill
    t.mem_write(ring.addr(16), 8); // TX descriptor write
    t.mem_write(ring.addr(24), 8);
    t.instr(InstrClass::Other, 1); // TDT register write
    t.mem_write(regs.addr(4), 4);
    t.mem_read(ring.addr(32), 8); // reap completion
    t.instr(InstrClass::Alu, 4);
    t.instr(InstrClass::Branch, 1);
    t.instr(InstrClass::Ret, 1);
}

/// Dropping a packet in the driver: no device interaction, just bookkeeping
/// before the mbuf goes back to the pool.
fn drop_costs(t: &mut (impl Tracer + ?Sized), pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.instr(InstrClass::Alu, 2);
    t.mem_read(pool_meta.addr(0), 8);
    t.instr(InstrClass::Ret, 1);
}

/// Mempool allocation: pop a buffer from the free ring.
fn pool_alloc_costs(t: &mut (impl Tracer + ?Sized), pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.mem_read(pool_meta.addr(0), 8); // free-list head
    t.instr(InstrClass::Alu, 3);
    t.mem_write(pool_meta.addr(0), 8);
    t.instr(InstrClass::Ret, 1);
}

/// Mempool free: push the buffer back.
fn pool_free_costs(t: &mut (impl Tracer + ?Sized), pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.instr(InstrClass::Alu, 2);
    t.mem_write(pool_meta.addr(8), 8);
    t.instr(InstrClass::Ret, 1);
}

/// One simulated NIC port and its mempool's metadata line: the regions
/// the driver touches around every packet.
pub(crate) struct Driver {
    ring: MemRegion,
    regs: MemRegion,
    pool_meta: MemRegion,
}

impl Driver {
    /// The production layout in `aspace`: the pool line, `n` buffers of
    /// `size` bytes, the descriptor ring, then the register page.
    pub(crate) fn production(aspace: &mut AddressSpace, n: usize, size: u64) -> (Self, Mempool) {
        let pool_meta = aspace.alloc_table(64);
        let pool = Mempool::new(aspace, n, size);
        let driver = Driver {
            ring: aspace.alloc_table(RING_BYTES),
            regs: aspace.alloc_pages(REG_BYTES.max(4096)),
            pool_meta,
        };
        (driver, pool)
    }

    /// The analysis layout in the symbolic context's address space: the
    /// ring, the registers, then the pool line (the packet comes next).
    pub(crate) fn analysis(ctx: &mut SymbolicCtx<'_>) -> Self {
        Driver {
            ring: ctx.alloc_region(RING_BYTES),
            regs: ctx.alloc_region(REG_BYTES),
            pool_meta: ctx.alloc_region(64),
        }
    }

    /// RX half of packet `seq`: open the packet, pop a buffer off the
    /// pool, and at full stack poll the RX descriptor.
    pub(crate) fn receive(&self, t: &mut (impl Tracer + ?Sized), level: StackLevel, seq: u64) {
        t.mark(Marker::PacketStart(seq));
        pool_alloc_costs(t, self.pool_meta);
        if level == StackLevel::FullStack {
            rx_costs(t, self.ring, self.regs);
        }
    }

    /// TX half of packet `seq`: at full stack transmit or drop by
    /// `verdict`, push the buffer back, and close the packet.
    pub(crate) fn transmit(
        &self,
        t: &mut (impl Tracer + ?Sized),
        level: StackLevel,
        seq: u64,
        verdict: NfVerdict,
    ) {
        if level == StackLevel::FullStack {
            match verdict {
                NfVerdict::Forward(_) | NfVerdict::Flood => tx_costs(t, self.ring, self.regs),
                NfVerdict::Drop => drop_costs(t, self.pool_meta),
            }
        }
        pool_free_costs(t, self.pool_meta);
        t.mark(Marker::PacketEnd(seq));
    }
}

/// A pool of fixed-size packet buffers; the buffer freed last is handed
/// out next, like an `rte_mempool`'s per-core cache. Its cost is the
/// [`Driver`]'s to charge.
pub(crate) struct Mempool {
    /// In ascending address order.
    buffers: Vec<MemRegion>,
    free: Vec<usize>,
}

impl Mempool {
    /// Carve `n` buffers of `buf_size` bytes out of `aspace`.
    fn new(aspace: &mut AddressSpace, n: usize, buf_size: u64) -> Self {
        assert!(n > 0);
        Mempool {
            buffers: (0..n).map(|_| aspace.alloc_table(buf_size)).collect(),
            free: (0..n).rev().collect(),
        }
    }

    /// Allocate a buffer (panics if the pool is exhausted — a real NF
    /// sizes its pool to its ring depth).
    pub(crate) fn alloc(&mut self) -> MemRegion {
        let i = self.free.pop().expect("mempool exhausted");
        self.buffers[i]
    }

    /// Return a buffer to the pool.
    pub(crate) fn free(&mut self, region: MemRegion) {
        let i = self
            .buffers
            .binary_search_by_key(&region.base, |r| r.base)
            .expect("freeing a region not owned by this pool");
        debug_assert!(!self.free.contains(&i), "double free of mbuf");
        self.free.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::CountingTracer;

    #[test]
    fn mempool_alloc_free_cycle() {
        let mut pool = Mempool::new(&mut AddressSpace::new(), 4, 2048);
        assert_eq!(pool.free.len(), 4);
        let a = pool.alloc();
        let b = pool.alloc();
        assert_ne!(a.base, b.base);
        assert_eq!(pool.free.len(), 2);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.free.len(), 4);
    }

    #[test]
    #[should_panic(expected = "mempool exhausted")]
    fn mempool_exhaustion_panics() {
        let mut pool = Mempool::new(&mut AddressSpace::new(), 1, 2048);
        let _ = pool.alloc();
        let _ = pool.alloc();
    }

    #[test]
    fn driver_paths_have_fixed_cost() {
        let (driver, _) = Driver::production(&mut AddressSpace::new(), 1, 2048);
        let cost_of = |verdict: NfVerdict| {
            let mut t = CountingTracer::new();
            driver.receive(&mut t, StackLevel::FullStack, 0);
            driver.transmit(&mut t, StackLevel::FullStack, 0, verdict);
            (t.instructions(), t.mem_accesses)
        };
        let tx = cost_of(NfVerdict::Forward(1));
        assert_eq!(tx, cost_of(NfVerdict::Forward(1)), "constant per packet");
        assert_eq!(tx, cost_of(NfVerdict::Flood));
        let dr = cost_of(NfVerdict::Drop);
        assert!(tx.0 > dr.0, "tx does more work than drop");
    }
}
