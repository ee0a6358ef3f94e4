//! Simulated NIC device, driver paths, and mbuf mempool.
//!
//! The driver cost sequences below model the ixgbe-style subset the paper
//! analyses: descriptor-ring reads/writes plus device register accesses
//! (`InstrClass::Other`), with simple, branch-light control flow. The
//! exact instruction counts are calibration constants; what matters for
//! the reproduction is that they are (a) identical between the symbolic
//! analysis build and the concrete production build and (b) constant per
//! packet, so they fold into each contract's constant term.

use bolt_trace::{AddressSpace, InstrClass, MemRegion, Tracer};

/// Size of the simulated descriptor ring region (64 descriptors × 16 B).
pub(crate) const RING_BYTES: u64 = 64 * 16;
/// Size of the simulated device register window.
pub(crate) const REG_BYTES: u64 = 128;

/// Driver receive path: poll the RX descriptor, read status/length, hand
/// the buffer to the NF, replenish the descriptor, bump the tail register.
pub(crate) fn rx_costs(t: &mut dyn Tracer, ring: MemRegion, regs: MemRegion) {
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
pub(crate) fn tx_costs(t: &mut dyn Tracer, ring: MemRegion, regs: MemRegion) {
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
pub(crate) fn drop_costs(t: &mut dyn Tracer, pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.instr(InstrClass::Alu, 2);
    t.mem_read(pool_meta.addr(0), 8);
    t.instr(InstrClass::Ret, 1);
}

/// Mempool allocation: pop a buffer from the free ring.
pub(crate) fn pool_alloc_costs(t: &mut dyn Tracer, pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.mem_read(pool_meta.addr(0), 8); // free-list head
    t.instr(InstrClass::Alu, 3);
    t.mem_write(pool_meta.addr(0), 8);
    t.instr(InstrClass::Ret, 1);
}

/// Mempool free: push the buffer back.
pub(crate) fn pool_free_costs(t: &mut dyn Tracer, pool_meta: MemRegion) {
    t.instr(InstrClass::Call, 1);
    t.instr(InstrClass::Alu, 2);
    t.mem_write(pool_meta.addr(8), 8);
    t.instr(InstrClass::Ret, 1);
}

/// A pool of fixed-size packet buffers; the buffer freed last is handed
/// out next, like an `rte_mempool`'s per-core cache.
#[derive(Debug)]
pub(crate) struct Mempool {
    /// In ascending address order.
    buffers: Vec<MemRegion>,
    free: Vec<usize>,
    meta: MemRegion,
}

impl Mempool {
    /// Carve `n` buffers of `buf_size` bytes out of `aspace`.
    pub(crate) fn new(aspace: &mut AddressSpace, n: usize, buf_size: u64) -> Self {
        assert!(n > 0);
        let meta = aspace.alloc_table(64);
        let buffers: Vec<MemRegion> = (0..n).map(|_| aspace.alloc_table(buf_size)).collect();
        Mempool {
            free: (0..n).rev().collect(),
            buffers,
            meta,
        }
    }

    /// Allocate a buffer (panics if the pool is exhausted — a real NF
    /// sizes its pool to its ring depth).
    pub(crate) fn alloc(&mut self, t: &mut dyn Tracer) -> MemRegion {
        pool_alloc_costs(t, self.meta);
        let i = self.free.pop().expect("mempool exhausted");
        self.buffers[i]
    }

    /// Return a buffer to the pool.
    pub(crate) fn free(&mut self, t: &mut dyn Tracer, region: MemRegion) {
        pool_free_costs(t, self.meta);
        let i = self
            .buffers
            .binary_search_by_key(&region.base, |r| r.base)
            .expect("freeing a region not owned by this pool");
        debug_assert!(!self.free.contains(&i), "double free of mbuf");
        self.free.push(i);
    }
}

/// One simulated NIC port with RX/TX descriptor rings and registers.
#[derive(Debug)]
pub(crate) struct NicDevice {
    ring: MemRegion,
    regs: MemRegion,
}

impl NicDevice {
    /// Allocate the device's simulated ring and register regions.
    pub(crate) fn new(aspace: &mut AddressSpace) -> Self {
        NicDevice {
            ring: aspace.alloc_table(RING_BYTES),
            regs: aspace.alloc_pages(REG_BYTES.max(4096)),
        }
    }

    /// Execute the receive path.
    pub(crate) fn rx(&self, t: &mut dyn Tracer) {
        rx_costs(t, self.ring, self.regs);
    }

    /// Execute the transmit path.
    pub(crate) fn tx(&self, t: &mut dyn Tracer) {
        tx_costs(t, self.ring, self.regs);
    }

    /// Execute the drop path.
    pub(crate) fn drop(&self, t: &mut dyn Tracer) {
        drop_costs(t, self.ring);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::CountingTracer;

    #[test]
    fn mempool_alloc_free_cycle() {
        let mut aspace = AddressSpace::new();
        let mut pool = Mempool::new(&mut aspace, 4, 2048);
        let mut t = CountingTracer::new();
        assert_eq!(pool.free.len(), 4);
        let a = pool.alloc(&mut t);
        let b = pool.alloc(&mut t);
        assert_ne!(a.base, b.base);
        assert_eq!(pool.free.len(), 2);
        pool.free(&mut t, a);
        pool.free(&mut t, b);
        assert_eq!(pool.free.len(), 4);
    }

    #[test]
    #[should_panic(expected = "mempool exhausted")]
    fn mempool_exhaustion_panics() {
        let mut aspace = AddressSpace::new();
        let mut pool = Mempool::new(&mut aspace, 1, 2048);
        let mut t = CountingTracer::new();
        let _ = pool.alloc(&mut t);
        let _ = pool.alloc(&mut t);
    }

    #[test]
    fn driver_paths_have_fixed_cost() {
        let mut aspace = AddressSpace::new();
        let nic = NicDevice::new(&mut aspace);
        let cost_of = |nic: &NicDevice, which: u8| {
            let mut t = CountingTracer::new();
            match which {
                0 => nic.rx(&mut t),
                1 => nic.tx(&mut t),
                _ => nic.drop(&mut t),
            }
            (t.instructions, t.mem_accesses)
        };
        let rx1 = cost_of(&nic, 0);
        let rx2 = cost_of(&nic, 0);
        assert_eq!(rx1, rx2, "rx cost must be constant per packet");
        let tx = cost_of(&nic, 1);
        let dr = cost_of(&nic, 2);
        assert!(tx.0 > dr.0, "tx does more work than drop");
    }
}
