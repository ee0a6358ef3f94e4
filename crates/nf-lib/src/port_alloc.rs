//! NAT port allocators A and B, and the reverse port map (§5.3).
//!
//! The paper's data-structure-selection use case compares two port
//! allocators that are both O(1) in the common case but have different
//! constants in different regimes:
//!
//! * [`AllocatorA`] — a doubly-linked free list threaded through a port
//!   array. Allocation pops the head (one pointer chase), deallocation
//!   pushes — both constant regardless of occupancy or churn.
//! * [`AllocatorB`] — an array scan: allocation probes per-port records
//!   from a rotating cursor until it finds a free one. At low occupancy
//!   the first probe usually wins and the constant beats A's pointer
//!   chase; at high occupancy the expected probe count `p ≈ 1/(1-load)`
//!   makes it much slower. `p` is the allocator's PCV.
//!
//! [`PortAllocator`] holds either one, for callers that choose at run
//! time.
//!
//! [`PortMap`] is the NAT's reverse path: a direct-indexed array from
//! external port to flow metadata (one load to read, one store to write).

use bolt_expr::{PcvId, PerfExpr, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, MemRegion, Tracer};

use crate::registry::{
    constant_case, measure, CaseContract, DsContract, DsRegistry, MethodContract,
};

/// Method indices shared by both allocators.
pub const M_ALLOC: u16 = 0;
/// Deallocation.
pub const M_FREE: u16 = 1;
/// `alloc` cases.
pub const C_OK: u16 = 0;
/// Pool exhausted.
pub const C_EXHAUSTED: u16 = 1;

/// PortMap methods.
pub const M_PM_SET: u16 = 0;
/// Read method.
pub const M_PM_GET: u16 = 1;

/// Common allocator interface (NF code is generic over it, so the NAT can
/// be instantiated with either allocator — the §5.3 A/B comparison).
pub trait PortAllocOps<C: NfCtx> {
    /// Allocate a port; `None` when exhausted.
    fn alloc(&mut self, ctx: &mut C) -> Option<C::Val>;
    /// Release a previously allocated port.
    fn free(&mut self, ctx: &mut C, port: C::Val);
}

/// Ids handle for a registered allocator.
#[derive(Clone, Copy, Debug)]
pub struct PortAllocIds {
    /// Registry instance id.
    pub ds: DsId,
    /// PCV `p` — probes per allocation (allocator B only; unused by A).
    pub p: PcvId,
}

/// Refuse a port range past 65 535: its ports would be handed out
/// wrapped to 16 bits and freed below `base_port`.
fn assert_ports_fit(n: usize, base_port: u16) {
    assert!(
        usize::from(base_port) + n <= 1 << 16,
        "{n} ports from {base_port} do not fit in 16 bits"
    );
}

// ---------------------------------------------------------------------
// Allocator A: doubly-linked free list
// ---------------------------------------------------------------------

/// Free-list allocator. Nodes are 64-byte port records linked through
/// prev/next indices; the list head/tail live in a metadata line.
/// Allocation pops the head and deallocation appends to the tail (FIFO),
/// so a just-released port is reused as late as possible — the TIME_WAIT
/// hygiene a NAT wants. The constant-cost pointer chase touches one
/// scattered node per operation regardless of occupancy.
#[derive(Debug, Clone)]
pub struct AllocatorA {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: PortAllocIds,
    next: Vec<i32>,
    prev: Vec<i32>,
    used: Vec<bool>,
    free_head: i32,
    free_tail: i32,
    n_free: usize,
    base_port: u16,
    r_nodes: MemRegion,
    r_meta: MemRegion,
}

impl AllocatorA {
    /// Allocator over `n` ports starting at `base_port`. The initial free
    /// list is a pseudo-random permutation of the port space (RFC 6056
    /// port randomization), so consecutive allocations touch scattered
    /// nodes.
    ///
    /// # Panics
    ///
    /// If the ports `base_port..base_port + n` do not all fit in 16 bits.
    pub fn new(ids: PortAllocIds, n: usize, base_port: u16, aspace: &mut AddressSpace) -> Self {
        assert_ports_fit(n, base_port);
        // Multiplicative permutation (odd multiplier is a bijection mod
        // 2^k); falls back to a stride pattern for non-power-of-two n.
        let perm: Vec<usize> = if n.is_power_of_two() {
            (0..n)
                .map(|i| (i.wrapping_mul(0x9E37_79B1)) & (n - 1))
                .collect()
        } else {
            let stride = (n / 2) | 1;
            (0..n).map(|i| (i * stride) % n).collect()
        };
        let mut next = vec![-1i32; n];
        let mut prev = vec![-1i32; n];
        for w in perm.windows(2) {
            next[w[0]] = w[1] as i32;
            prev[w[1]] = w[0] as i32;
        }
        AllocatorA {
            ids,
            next,
            prev,
            used: vec![false; n],
            free_head: perm[0] as i32,
            free_tail: *perm.last().unwrap() as i32,
            n_free: n,
            base_port,
            r_nodes: aspace.alloc_table(n as u64 * 64),
            r_meta: aspace.alloc_table(64),
        }
    }

    /// Free ports remaining.
    pub fn available(&self) -> usize {
        self.n_free
    }

    /// Mark one specific port allocated without accounting, unlinking it
    /// from wherever it sits in the free list (state synthesis for tables
    /// that reference specific port numbers).
    pub fn raw_take(&mut self, port: u16) {
        let i = (port - self.base_port) as usize;
        assert!(!self.used[i], "raw_take of an allocated port");
        let (p, n) = (self.prev[i], self.next[i]);
        if p >= 0 {
            self.next[p as usize] = n;
        } else {
            self.free_head = n;
        }
        if n >= 0 {
            self.prev[n as usize] = p;
        } else {
            self.free_tail = p;
        }
        self.used[i] = true;
        self.n_free -= 1;
    }

    /// Mark `count` ports allocated without accounting (state synthesis).
    fn raw_fill(&mut self, count: usize) {
        for _ in 0..count {
            let h = self.free_head;
            assert!(h >= 0, "raw_fill beyond capacity");
            let n = self.next[h as usize];
            self.free_head = n;
            if n >= 0 {
                self.prev[n as usize] = -1;
            } else {
                self.free_tail = -1;
            }
            self.used[h as usize] = true;
            self.n_free -= 1;
        }
    }
}

impl<T: Tracer> PortAllocOps<ConcreteCtx<'_, T>> for AllocatorA {
    fn alloc(&mut self, ctx: &mut ConcreteCtx<'_, T>) -> Option<CVal> {
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.mem_read(self.r_meta.addr(0), 4); // free head
        t.alu(1);
        t.instr(InstrClass::Branch, 1);
        if self.free_head < 0 {
            t.instr(InstrClass::Ret, 1);
            return None;
        }
        let h = self.free_head as usize;
        t.mem_read_dep(self.r_nodes.addr(h as u64 * 64), 8); // node.next
        t.alu(2);
        let n = self.next[h];
        t.mem_write(self.r_meta.addr(0), 4); // head = next
        t.instr(InstrClass::Branch, 1);
        if n >= 0 {
            t.mem_write(self.r_nodes.addr(n as u64 * 64 + 8), 8); // next.prev
            self.prev[n as usize] = -1;
        }
        t.mem_write(self.r_nodes.addr(h as u64 * 64 + 16), 8); // mark used
        t.alu(2);
        t.instr(InstrClass::Branch, 1);
        if n < 0 {
            t.mem_write(self.r_meta.addr(4), 4); // tail = -1
            self.free_tail = -1;
        }
        self.free_head = n;
        self.used[h] = true;
        self.n_free -= 1;
        t.instr(InstrClass::Ret, 1);
        Some(ctx.lit(self.base_port as u64 + h as u64, Width::W16))
    }

    fn free(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal) {
        let p = port.v;
        let i = (p - self.base_port as u64) as usize;
        assert!(self.used[i], "double free of port {p}");
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.mem_read(self.r_meta.addr(4), 4); // tail
        t.alu(2);
        t.mem_write(self.r_nodes.addr(i as u64 * 64), 8); // node.next = -1
        t.mem_write(self.r_nodes.addr(i as u64 * 64 + 8), 8); // node.prev = tail
        t.instr(InstrClass::Branch, 1);
        if self.free_tail >= 0 {
            t.mem_write(self.r_nodes.addr(self.free_tail as u64 * 64), 8); // tail.next
            self.next[self.free_tail as usize] = i as i32;
        } else {
            t.mem_write(self.r_meta.addr(0), 4); // head = i
            self.free_head = i as i32;
        }
        t.mem_write(self.r_meta.addr(4), 4);
        t.mem_write(self.r_nodes.addr(i as u64 * 64 + 16), 8); // mark free
        t.alu(1);
        self.next[i] = -1;
        self.prev[i] = self.free_tail;
        self.free_tail = i as i32;
        self.used[i] = false;
        self.n_free += 1;
        t.instr(InstrClass::Ret, 1);
    }
}

// ---------------------------------------------------------------------
// Allocator B: rotating array scan
// ---------------------------------------------------------------------

/// First-fit scan allocator: compact 8-byte per-port records probed from
/// index zero. At low occupancy the first records are usually free and
/// the prefix stays cache-hot through reuse; at high occupancy the scan
/// walks an occupancy-dependent probe count — the paper's "much slower
/// allocation at high flow-table occupancies". Deallocation is a single
/// store.
#[derive(Debug, Clone)]
pub struct AllocatorB {
    ids: PortAllocIds,
    used: Vec<bool>,
    n_free: usize,
    base_port: u16,
    r_slots: MemRegion,
    r_meta: MemRegion,
    /// Probes performed by the most recent allocation (the PCV `p`).
    pub last_probes: u64,
}

impl AllocatorB {
    /// Allocator over `n` ports starting at `base_port`.
    ///
    /// # Panics
    ///
    /// If the ports `base_port..base_port + n` do not all fit in 16 bits.
    pub fn new(ids: PortAllocIds, n: usize, base_port: u16, aspace: &mut AddressSpace) -> Self {
        assert_ports_fit(n, base_port);
        AllocatorB {
            ids,
            used: vec![false; n],
            n_free: n,
            base_port,
            r_slots: aspace.alloc_table(n as u64 * 8),
            r_meta: aspace.alloc_table(64),
            last_probes: 0,
        }
    }

    /// Free ports remaining.
    pub fn available(&self) -> usize {
        self.n_free
    }

    /// Mark the first `count` ports allocated without accounting.
    fn raw_fill(&mut self, count: usize) {
        for i in 0..count {
            assert!(!self.used[i]);
            self.used[i] = true;
            self.n_free -= 1;
        }
    }

    /// Mark a specific port allocated without accounting (pathological
    /// state synthesis).
    pub fn raw_take(&mut self, port: u16) {
        let i = (port - self.base_port) as usize;
        assert!(!self.used[i], "raw_take of an allocated port");
        self.used[i] = true;
        self.n_free -= 1;
    }
}

impl<T: Tracer> PortAllocOps<ConcreteCtx<'_, T>> for AllocatorB {
    fn alloc(&mut self, ctx: &mut ConcreteCtx<'_, T>) -> Option<CVal> {
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        // The free count lives in a register (one compare, no memory).
        t.alu(1);
        t.instr(InstrClass::Branch, 1);
        if self.n_free == 0 {
            t.instr(InstrClass::Ret, 1);
            self.last_probes = 0;
            return None;
        }
        let mut probes = 0u64;
        let mut i = 0usize;
        loop {
            // Probe: record load + test-and-increment + loop branch.
            t.mem_read(self.r_slots.addr(i as u64 * 8), 8);
            t.alu(2);
            t.instr(InstrClass::Branch, 1);
            if !self.used[i] {
                break;
            }
            probes += 1;
            i += 1;
        }
        t.mem_write(self.r_slots.addr(i as u64 * 8), 8); // mark used
        t.alu(2);
        self.used[i] = true;
        self.n_free -= 1;
        self.last_probes = probes;
        t.pcv(self.ids.p, probes);
        t.instr(InstrClass::Ret, 1);
        Some(ctx.lit(self.base_port as u64 + i as u64, Width::W16))
    }

    fn free(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal) {
        let p = port.v;
        let i = (p - self.base_port as u64) as usize;
        assert!(self.used[i], "double free of port {p}");
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.alu(2);
        t.mem_write(self.r_slots.addr(i as u64 * 8), 8);
        t.mem_write(self.r_meta.addr(0), 8);
        self.used[i] = false;
        self.n_free += 1;
        t.instr(InstrClass::Ret, 1);
    }
}

// ---------------------------------------------------------------------
// Either allocator, chosen at run time
// ---------------------------------------------------------------------

/// Allocator A or B behind one type: the NAT picks one per configuration
/// (§5.3's A/B comparison) without becoming generic over it.
#[derive(Debug, Clone)]
pub enum PortAllocator {
    /// Doubly-linked free list.
    A(AllocatorA),
    /// First-fit scan.
    B(AllocatorB),
}

impl PortAllocator {
    /// Free ports remaining.
    pub fn available(&self) -> usize {
        match self {
            PortAllocator::A(a) => a.available(),
            PortAllocator::B(b) => b.available(),
        }
    }

    /// Mark a specific port allocated without accounting (state
    /// synthesis).
    pub fn raw_take(&mut self, port: u16) {
        match self {
            PortAllocator::A(a) => a.raw_take(port),
            PortAllocator::B(b) => b.raw_take(port),
        }
    }
}

impl<T: Tracer> PortAllocOps<ConcreteCtx<'_, T>> for PortAllocator {
    fn alloc(&mut self, ctx: &mut ConcreteCtx<'_, T>) -> Option<CVal> {
        match self {
            PortAllocator::A(a) => a.alloc(ctx),
            PortAllocator::B(b) => b.alloc(ctx),
        }
    }

    fn free(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal) {
        match self {
            PortAllocator::A(a) => a.free(ctx, port),
            PortAllocator::B(b) => b.free(ctx, port),
        }
    }
}

/// Calibrate and register allocator A (constant costs).
pub fn register_a(reg: &mut DsRegistry, name: &str, n: usize, base_port: u16) -> PortAllocIds {
    let p = reg.pcv(name, "p");
    let provisional = PortAllocIds {
        ds: DsId(u32::MAX),
        p,
    };
    // Worst-case alloc: head node on a cold line, successor on another.
    let alloc_cost = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut a = AllocatorA::new(provisional, n.max(4), base_port, &mut aspace);
        let got = PortAllocOps::<_>::alloc(&mut a, ctx).unwrap();
        let _ = got;
    });
    let exhausted = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut a = AllocatorA::new(provisional, 4, base_port, &mut aspace);
        a.raw_fill(4);
        assert!(PortAllocOps::<_>::alloc(&mut a, ctx).is_none());
    });
    let free_cost = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut a = AllocatorA::new(provisional, n.max(4), base_port, &mut aspace);
        a.raw_fill(2);
        let port = ctx.lit(base_port as u64, Width::W16);
        PortAllocOps::<_>::free(&mut a, ctx, port);
    });
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "alloc",
                cases: vec![
                    constant_case("ok", alloc_cost),
                    constant_case("exhausted", exhausted),
                ],
            },
            MethodContract {
                name: "free",
                cases: vec![constant_case("free", free_cost)],
            },
        ],
    };
    let ds = reg.register(name, contract);
    PortAllocIds { ds, p }
}

/// Calibrate and register allocator B (alloc linear in probes `p`).
pub fn register_b(reg: &mut DsRegistry, name: &str, n: usize, base_port: u16) -> PortAllocIds {
    let p = reg.pcv(name, "p");
    let provisional = PortAllocIds {
        ds: DsId(u32::MAX),
        p,
    };
    let nn = n.max(64);
    let alloc0 = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(provisional, nn, base_port, &mut aspace);
        assert!(PortAllocOps::<_>::alloc(&mut b, ctx).is_some());
    });
    let d = 16u64;
    let alloc_d = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(provisional, nn, base_port, &mut aspace);
        b.raw_fill(d as usize);
        assert!(PortAllocOps::<_>::alloc(&mut b, ctx).is_some());
    });
    // Ceiling division plus a one-unit margin per metric: the per-probe
    // cost is lumpy at cache-line boundaries (8 records per line), and
    // the contract must stay an upper bound at every probe count.
    let p_slope = [
        (alloc_d[0] - alloc0[0]).div_ceil(d),
        (alloc_d[1] - alloc0[1]).div_ceil(d),
        (alloc_d[2] - alloc0[2]).div_ceil(d) + 25,
    ];
    let exhausted = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(provisional, 64, base_port, &mut aspace);
        b.raw_fill(64);
        assert!(PortAllocOps::<_>::alloc(&mut b, ctx).is_none());
    });
    let free_cost = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(provisional, nn, base_port, &mut aspace);
        b.raw_fill(2);
        let port = ctx.lit(base_port as u64, Width::W16);
        PortAllocOps::<_>::free(&mut b, ctx, port);
    });
    let ok_case = {
        let build = |m: usize| {
            let mut e = PerfExpr::constant(alloc0[m]);
            e.add_assign(&PerfExpr::var(p, p_slope[m]));
            e
        };
        CaseContract {
            name: "ok",
            perf: [build(0), build(1), build(2)],
        }
    };
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "alloc",
                cases: vec![ok_case, constant_case("exhausted", exhausted)],
            },
            MethodContract {
                name: "free",
                cases: vec![constant_case("free", free_cost)],
            },
        ],
    };
    let ds = reg.register(name, contract);
    PortAllocIds { ds, p }
}

// ---------------------------------------------------------------------
// PortMap: the NAT's reverse (external-port → flow) array
// ---------------------------------------------------------------------

/// Ids handle for a registered port map.
#[derive(Clone, Copy, Debug)]
pub struct PortMapIds {
    /// Registry instance id.
    pub ds: DsId,
}

/// Operations of the port map.
pub trait PortMapOps<C: NfCtx> {
    /// Associate `value` with `port` (0 clears).
    fn set(&mut self, ctx: &mut C, port: C::Val, value: C::Val);
    /// Read the value associated with `port` (0 if none).
    fn get(&mut self, ctx: &mut C, port: C::Val) -> C::Val;
}

/// Direct-indexed array from port to 8-byte flow metadata.
#[derive(Debug, Clone)]
pub struct PortMap {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: PortMapIds,
    entries: Vec<u64>,
    base_port: u16,
    r: MemRegion,
}

impl PortMap {
    /// Map over `n` ports starting at `base_port`.
    ///
    /// # Panics
    ///
    /// If the ports `base_port..base_port + n` do not all fit in 16 bits.
    pub fn new(ids: PortMapIds, n: usize, base_port: u16, aspace: &mut AddressSpace) -> Self {
        assert_ports_fit(n, base_port);
        PortMap {
            ids,
            entries: vec![0; n],
            base_port,
            r: aspace.alloc_table(n as u64 * 8),
        }
    }
}

impl PortMap {
    fn index_of(&self, p: u64) -> Option<usize> {
        let i = p.checked_sub(self.base_port as u64)? as usize;
        (i < self.entries.len()).then_some(i)
    }
}

impl<T: Tracer> PortMapOps<ConcreteCtx<'_, T>> for PortMap {
    fn set(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal, value: CVal) {
        let i = self
            .index_of(port.v)
            .expect("set on a port outside the map's range");
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.alu(2);
        t.mem_write(self.r.addr(i as u64 * 8), 8);
        t.instr(InstrClass::Ret, 1);
        self.entries[i] = value.v;
    }

    fn get(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal) -> CVal {
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        // Range check first: external traffic carries arbitrary ports.
        t.alu(2);
        t.instr(InstrClass::Branch, 1);
        let out = match self.index_of(port.v) {
            Some(i) => {
                t.mem_read(self.r.addr(i as u64 * 8), 8);
                self.entries[i]
            }
            None => 0,
        };
        t.instr(InstrClass::Ret, 1);
        ctx.lit(out, Width::W64)
    }
}

/// Calibrate and register a port map.
pub fn register_map(reg: &mut DsRegistry, name: &str, n: usize, base_port: u16) -> PortMapIds {
    let provisional = PortMapIds { ds: DsId(u32::MAX) };
    let set_cost = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut m = PortMap::new(provisional, n.max(4), base_port, &mut aspace);
        let port = ctx.lit(base_port as u64, Width::W16);
        let v = ctx.lit(7, Width::W64);
        PortMapOps::<_>::set(&mut m, ctx, port, v);
    });
    let get_cost = measure(|ctx| {
        let mut aspace = AddressSpace::new();
        let mut m = PortMap::new(provisional, n.max(4), base_port, &mut aspace);
        let port = ctx.lit(base_port as u64, Width::W16);
        let _ = PortMapOps::<_>::get(&mut m, ctx, port);
    });
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "set",
                cases: vec![constant_case("set", set_cost)],
            },
            MethodContract {
                name: "get",
                cases: vec![constant_case("get", get_cost)],
            },
        ],
    };
    let ds = reg.register(name, contract);
    PortMapIds { ds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::PcvAssignment;
    use bolt_see::ConcreteCtx;
    use bolt_trace::{Metric, NullTracer, RecordingTracer, StatefulCall};
    use std::collections::HashSet;

    #[test]
    #[should_panic(expected = "2 ports from 65535 do not fit in 16 bits")]
    fn allocator_a_refuses_a_range_past_16_bits() {
        let ids = register_a(&mut DsRegistry::new(), "alloc_a", 64, 1024);
        AllocatorA::new(ids, 2, u16::MAX, &mut AddressSpace::new());
    }

    #[test]
    #[should_panic(expected = "4097 ports from 61440 do not fit in 16 bits")]
    fn allocator_b_refuses_a_range_past_16_bits() {
        let ids = register_b(&mut DsRegistry::new(), "alloc_b", 64, 1024);
        AllocatorB::new(ids, 4097, 61440, &mut AddressSpace::new());
    }

    #[test]
    #[should_panic(expected = "65537 ports from 0 do not fit in 16 bits")]
    fn port_map_refuses_a_range_past_16_bits() {
        let ids = register_map(&mut DsRegistry::new(), "ports", 64, 1024);
        PortMap::new(ids, 1 << 16 | 1, 0, &mut AddressSpace::new());
    }

    #[test]
    fn a_range_ending_at_65535_fits() {
        let mut reg = DsRegistry::new();
        let ids = register_b(&mut reg, "alloc_b", 64, 1024);
        let mut b = AllocatorB::new(ids, 2, u16::MAX - 1, &mut AddressSpace::new());
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let ports = [(); 2].map(|_| PortAllocOps::<_>::alloc(&mut b, &mut ctx).unwrap().v);
        assert_eq!(ports, [65534, 65535]);
        let last = ctx.lit(65535, Width::W16);
        PortAllocOps::<_>::free(&mut b, &mut ctx, last);
        assert_eq!(b.available(), 1);
    }

    #[test]
    fn allocator_a_never_double_allocates() {
        let mut reg = DsRegistry::new();
        let ids = register_a(&mut reg, "alloc_a", 64, 1024);
        let mut aspace = AddressSpace::new();
        let mut a = AllocatorA::new(ids, 64, 1024, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mut seen = HashSet::new();
        for _ in 0..64 {
            let p = PortAllocOps::<_>::alloc(&mut a, &mut ctx).unwrap();
            let pv = ctx.concrete_value(p).unwrap();
            assert!(seen.insert(pv), "duplicate port {pv}");
            assert!((1024..1088).contains(&pv));
        }
        assert!(PortAllocOps::<_>::alloc(&mut a, &mut ctx).is_none());
        // Free everything and allocate again.
        for &pv in &seen {
            let p = ctx.lit(pv, Width::W16);
            PortAllocOps::<_>::free(&mut a, &mut ctx, p);
        }
        assert_eq!(a.available(), 64);
        assert!(PortAllocOps::<_>::alloc(&mut a, &mut ctx).is_some());
    }

    #[test]
    fn allocator_b_first_fit_recycles_and_counts_probes() {
        let mut reg = DsRegistry::new();
        let ids = register_b(&mut reg, "alloc_b", 64, 2048);
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(ids, 64, 2048, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let first = PortAllocOps::<_>::alloc(&mut b, &mut ctx).unwrap();
        assert_eq!(b.last_probes, 0, "empty array: first record is free");
        let _second = PortAllocOps::<_>::alloc(&mut b, &mut ctx).unwrap();
        assert_eq!(b.last_probes, 1, "first-fit skips the used prefix");
        // Freeing the first port makes it the next allocation (first fit).
        PortAllocOps::<_>::free(&mut b, &mut ctx, first);
        let again = PortAllocOps::<_>::alloc(&mut b, &mut ctx).unwrap();
        assert_eq!(ctx.concrete_value(again), ctx.concrete_value(first));
        assert_eq!(b.last_probes, 0);
        // Fill up; exhaustion is O(1) via the free counter.
        while PortAllocOps::<_>::alloc(&mut b, &mut ctx).is_some() {}
        assert_eq!(b.available(), 0);
    }

    #[test]
    fn contracts_bound_measured_allocations() {
        let mut reg = DsRegistry::new();
        let ids_b = register_b(&mut reg, "alloc_b", 256, 1);
        let mut aspace = AddressSpace::new();
        let mut b = AllocatorB::new(ids_b, 256, 1, &mut aspace);
        b.raw_fill(200); // high occupancy
        for _ in 0..20 {
            let mut rec = RecordingTracer::new();
            {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let _ = PortAllocOps::<_>::alloc(&mut b, &mut ctx);
            }
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let cyc = bolt_hw::conservative_cycles(&rec.events);
            let mut env = PcvAssignment::new();
            env.set(ids_b.p, b.last_probes);
            let case = reg.resolve(StatefulCall {
                ds: ids_b.ds,
                method: M_ALLOC,
                case: C_OK,
            });
            assert!(case.expr(Metric::Instructions).eval(&env) >= ic);
            assert!(case.expr(Metric::MemAccesses).eval(&env) >= ma);
            assert!(case.expr(Metric::Cycles).eval(&env) >= cyc);
        }
    }

    #[test]
    fn a_is_occupancy_insensitive_b_is_not() {
        let mut reg = DsRegistry::new();
        let ids_a = register_a(&mut reg, "alloc_a", 4096, 1);
        let ids_b = register_b(&mut reg, "alloc_b", 4096, 1);
        let a_case = reg.resolve(StatefulCall {
            ds: ids_a.ds,
            method: M_ALLOC,
            case: C_OK,
        });
        let b_case = reg.resolve(StatefulCall {
            ds: ids_b.ds,
            method: M_ALLOC,
            case: C_OK,
        });
        // A's contract is a constant.
        assert!(a_case.expr(Metric::Cycles).as_const().is_some());
        // B's contract grows with p.
        // With a rotating cursor the next slot is free at low occupancy.
        let mut lo = PcvAssignment::new();
        lo.set(ids_b.p, 0);
        let mut hi = PcvAssignment::new();
        hi.set(ids_b.p, 40);
        let b_lo = b_case.expr(Metric::Cycles).eval(&lo);
        let b_hi = b_case.expr(Metric::Cycles).eval(&hi);
        let a_c = a_case.expr(Metric::Cycles).as_const().unwrap();
        assert!(
            b_lo < a_c,
            "B must beat A at low occupancy ({b_lo} vs {a_c})"
        );
        assert!(
            b_hi > a_c,
            "A must beat B at high occupancy ({b_hi} vs {a_c})"
        );
    }

    #[test]
    fn port_map_roundtrip() {
        let mut reg = DsRegistry::new();
        let ids = register_map(&mut reg, "port_map", 128, 4096);
        let mut aspace = AddressSpace::new();
        let mut m = PortMap::new(ids, 128, 4096, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let port = ctx.lit(4100, Width::W16);
        let empty = PortMapOps::<_>::get(&mut m, &mut ctx, port);
        assert_eq!(ctx.concrete_value(empty), Some(0));
        let v = ctx.lit(0xABCD, Width::W64);
        PortMapOps::<_>::set(&mut m, &mut ctx, port, v);
        let got = PortMapOps::<_>::get(&mut m, &mut ctx, port);
        assert_eq!(ctx.concrete_value(got), Some(0xABCD));
    }
}
