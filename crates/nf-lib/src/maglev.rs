//! Maglev consistent-hash ring and backend pool.
//!
//! The paper's load balancer is "Maglev-like" (the paper's ref. 17):
//! connections are
//! spread over backends via Maglev's permutation-filled lookup table, and
//! per-connection affinity is kept in a flow table. This module provides
//! the two stateful pieces the LB needs beyond the flow table:
//!
//! * [`MaglevRing`] — the lookup table, built with the published Maglev
//!   population algorithm (offset/skip permutations per backend until all
//!   `M` slots fill). Lookup is one modulo plus one table load.
//! * [`BackendPool`] — backend liveness tracked by heartbeat timestamps.
//!   `heartbeat` refreshes a backend; `is_alive` checks the timestamp
//!   against the heartbeat TTL and forks alive/dead cases in the model
//!   (classes LB3 vs LB4 in §5.1).

use bolt_expr::{TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, MemRegion, RecordingTracer, Tracer};

use crate::model::DsModel;
use crate::registry::{self, constant_case, DsContract, DsRegistry, MethodContract};

/// Ring method index.
const M_RING_LOOKUP: u16 = 0;
/// Pool method indices.
const M_HEARTBEAT: u16 = 0;
/// Liveness check.
const M_IS_ALIVE: u16 = 1;
/// `is_alive` cases.
const C_ALIVE: u16 = 0;
/// Dead backend.
const C_DEAD: u16 = 1;

/// Ids handle for a registered ring.
#[derive(Clone, Copy, Debug)]
pub struct MaglevRingIds {
    /// Registry instance id.
    pub ds: DsId,
}

/// Ids handle for a registered backend pool.
#[derive(Clone, Copy, Debug)]
pub struct BackendPoolIds {
    /// Registry instance id.
    pub ds: DsId,
}

/// Operations of the ring.
pub trait MaglevRingOps<C: NfCtx> {
    /// Map a flow hash to a backend id.
    fn lookup(&mut self, ctx: &mut C, hash: C::Val) -> C::Val;
}

/// Operations of the backend pool.
pub trait BackendPoolOps<C: NfCtx> {
    /// Record a heartbeat from `backend`.
    fn heartbeat(&mut self, ctx: &mut C, backend: C::Val, now: C::Val);
    /// Whether `backend` heartbeated within the TTL.
    fn is_alive(&mut self, ctx: &mut C, backend: C::Val, now: C::Val) -> bool;
}

/// The concrete, instrumented Maglev table.
#[derive(Debug, Clone)]
pub struct MaglevRing {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: MaglevRingIds,
    table: Vec<u16>,
    m: u64,
    r_table: MemRegion,
}

impl MaglevRing {
    /// Build the ring for `n_backends` over `m` slots (`m` should be a
    /// prime ≥ 100·n for good balance; Maglev uses 65537).
    pub fn new(ids: MaglevRingIds, n_backends: u16, m: u64, aspace: &mut AddressSpace) -> Self {
        assert!(n_backends > 0);
        assert!(m as usize > n_backends as usize);
        let table = Self::populate(n_backends, m);
        MaglevRing {
            ids,
            table,
            m,
            r_table: aspace.alloc_table(m * 2),
        }
    }

    fn h(x: u64, salt: u64) -> u64 {
        let mut v = x.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        v ^= v >> 31;
        v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        v ^ (v >> 27)
    }

    /// The published population algorithm: each backend has a permutation
    /// `(offset + j·skip) mod m`; backends take turns claiming their next
    /// unclaimed slot until the table is full.
    fn populate(n: u16, m: u64) -> Vec<u16> {
        let offsets: Vec<u64> = (0..n).map(|b| Self::h(b as u64, 0xA5) % m).collect();
        let skips: Vec<u64> = (0..n)
            .map(|b| Self::h(b as u64, 0x5A) % (m - 1) + 1)
            .collect();
        let mut next = vec![0u64; n as usize];
        let mut table = vec![u16::MAX; m as usize];
        let mut filled = 0u64;
        while filled < m {
            for b in 0..n as usize {
                loop {
                    let slot = ((offsets[b] + next[b] * skips[b]) % m) as usize;
                    next[b] += 1;
                    if table[slot] == u16::MAX {
                        table[slot] = b as u16;
                        filled += 1;
                        break;
                    }
                }
                if filled == m {
                    break;
                }
            }
        }
        table
    }

    /// Uninstrumented lookup (oracle for tests).
    pub fn raw_lookup(&self, hash: u64) -> u16 {
        self.table[(hash % self.m) as usize]
    }
}

impl<T: Tracer> MaglevRingOps<ConcreteCtx<'_, T>> for MaglevRing {
    fn lookup(&mut self, ctx: &mut ConcreteCtx<'_, T>, hash: CVal) -> CVal {
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.instr(InstrClass::Div, 1); // hash % m
        let slot = (hash.v % self.m) as usize;
        t.mem_read(self.r_table.addr(slot as u64 * 2), 2);
        t.alu(1);
        t.instr(InstrClass::Ret, 1);
        ctx.lit(self.table[slot] as u64, Width::W16)
    }
}

impl MaglevRingOps<SymbolicCtx<'_>> for DsModel {
    fn lookup(&mut self, ctx: &mut SymbolicCtx<'_>, _hash: TermRef) -> TermRef {
        self.record(ctx, M_RING_LOOKUP, 0);
        // `bound` is the backend count: b < n would need a strict bound;
        // b ≤ n is a sound relaxation.
        self.fresh_bounded(ctx, "ring.backend", Width::W16)
    }
}

/// The concrete backend pool.
#[derive(Debug, Clone)]
pub struct BackendPool {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: BackendPoolIds,
    last_hb: Vec<u64>,
    hb_ttl_ns: u64,
    r_hb: MemRegion,
}

impl BackendPool {
    /// Pool of `n` backends; a backend is alive if it heartbeated within
    /// `hb_ttl_ns`.
    pub fn new(ids: BackendPoolIds, n: u16, hb_ttl_ns: u64, aspace: &mut AddressSpace) -> Self {
        BackendPool {
            ids,
            last_hb: vec![0; n as usize],
            hb_ttl_ns,
            r_hb: aspace.alloc_table(n as u64 * 8),
        }
    }

    /// Uninstrumented liveness check.
    pub fn raw_is_alive(&self, backend: u16, now: u64) -> bool {
        now.saturating_sub(self.last_hb[backend as usize]) < self.hb_ttl_ns
    }
}

impl<T: Tracer> BackendPoolOps<ConcreteCtx<'_, T>> for BackendPool {
    fn heartbeat(&mut self, ctx: &mut ConcreteCtx<'_, T>, backend: CVal, now: CVal) {
        let b = backend.v as usize;
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.alu(2);
        t.mem_write(self.r_hb.addr(b as u64 * 8), 8);
        t.instr(InstrClass::Ret, 1);
        self.last_hb[b] = now.v;
    }

    fn is_alive(&mut self, ctx: &mut ConcreteCtx<'_, T>, backend: CVal, now: CVal) -> bool {
        let b = backend.v as usize;
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        t.mem_read(self.r_hb.addr(b as u64 * 8), 8);
        t.alu(2);
        t.instr(InstrClass::Branch, 1);
        t.instr(InstrClass::Ret, 1);
        now.v.saturating_sub(self.last_hb[b]) < self.hb_ttl_ns
    }
}

impl BackendPoolOps<SymbolicCtx<'_>> for DsModel {
    fn heartbeat(&mut self, ctx: &mut SymbolicCtx<'_>, _backend: TermRef, _now: TermRef) {
        self.record(ctx, M_HEARTBEAT, 0);
    }

    fn is_alive(&mut self, ctx: &mut SymbolicCtx<'_>, _backend: TermRef, _now: TermRef) -> bool {
        self.split(ctx, M_IS_ALIVE, &[("backend.alive", C_ALIVE)], C_DEAD) == C_ALIVE
    }
}

/// Calibrate and register a ring instance (single constant-cost case).
pub fn register_ring(reg: &mut DsRegistry, name: &str, n_backends: u16, m: u64) -> MaglevRingIds {
    let provisional = MaglevRingIds { ds: DsId(u32::MAX) };
    let mut aspace = AddressSpace::new();
    let mut ring = MaglevRing::new(provisional, n_backends.max(2), m.max(13), &mut aspace);
    let cost = registry::measure(|ctx| {
        let h = ctx.lit(0x1234_5678, Width::W64);
        let _ = MaglevRingOps::<_>::lookup(&mut ring, ctx, h);
    });
    let contract = DsContract {
        methods: vec![MethodContract {
            name: "lookup",
            cases: vec![constant_case("unconstrained", cost)],
        }],
    };
    let ds = reg.register(name, contract);
    MaglevRingIds { ds }
}

/// Calibrate and register a backend pool instance.
pub fn register_pool(reg: &mut DsRegistry, name: &str, n: u16, hb_ttl_ns: u64) -> BackendPoolIds {
    let provisional = BackendPoolIds { ds: DsId(u32::MAX) };
    let measure =
        |f: &dyn Fn(&mut BackendPool, &mut ConcreteCtx<'_, RecordingTracer>)| -> [u64; 3] {
            let mut aspace = AddressSpace::new();
            let mut pool = BackendPool::new(provisional, n.max(2), hb_ttl_ns, &mut aspace);
            registry::measure(|ctx| f(&mut pool, ctx))
        };
    let hb = measure(&|pool, ctx| {
        let b = ctx.lit(0, Width::W16);
        let now = ctx.lit(5, Width::W64);
        BackendPoolOps::<_>::heartbeat(pool, ctx, b, now);
    });
    let check = measure(&|pool, ctx| {
        let b = ctx.lit(0, Width::W16);
        let now = ctx.lit(0, Width::W64);
        let _ = BackendPoolOps::<_>::is_alive(pool, ctx, b, now);
    });
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "heartbeat",
                cases: vec![constant_case("heartbeat", hb)],
            },
            MethodContract {
                name: "is_alive",
                cases: vec![constant_case("alive", check), constant_case("dead", check)],
            },
        ],
    };
    let ds = reg.register(name, contract);
    BackendPoolIds { ds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::{NullTracer, StatefulCall};

    #[test]
    fn ring_is_balanced() {
        let ids = MaglevRingIds { ds: DsId(0) };
        let mut aspace = AddressSpace::new();
        let n = 7u16;
        let ring = MaglevRing::new(ids, n, 1009, &mut aspace);
        let mut counts = vec![0u64; n as usize];
        for &b in &ring.table {
            counts[b as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max - min <= 2,
            "Maglev balance property violated: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<u64>(), 1009);
    }

    #[test]
    fn ring_lookup_is_stable() {
        let ids = MaglevRingIds { ds: DsId(0) };
        let mut aspace = AddressSpace::new();
        let ring_a = MaglevRing::new(ids, 5, 503, &mut aspace);
        let ring_b = MaglevRing::new(ids, 5, 503, &mut aspace);
        for h in 0..1000u64 {
            assert_eq!(ring_a.raw_lookup(h), ring_b.raw_lookup(h));
        }
    }

    #[test]
    fn ring_minimal_disruption_on_backend_change() {
        // Maglev's property: removing one backend moves few keys among
        // the survivors' assignments.
        let ids = MaglevRingIds { ds: DsId(0) };
        let mut aspace = AddressSpace::new();
        let with_6 = MaglevRing::new(ids, 6, 1009, &mut aspace);
        let with_5 = MaglevRing::new(ids, 5, 1009, &mut aspace);
        let mut moved_among_survivors = 0u64;
        let mut total_survivor_keys = 0u64;
        for h in 0..5000u64 {
            let a = with_6.raw_lookup(h);
            let b = with_5.raw_lookup(h);
            if a < 5 {
                total_survivor_keys += 1;
                if a != b {
                    moved_among_survivors += 1;
                }
            }
        }
        let frac = moved_among_survivors as f64 / total_survivor_keys as f64;
        assert!(
            frac < 0.35,
            "too much disruption among surviving backends: {frac:.2}"
        );
    }

    #[test]
    fn pool_heartbeat_and_liveness() {
        let ids = BackendPoolIds { ds: DsId(0) };
        let mut aspace = AddressSpace::new();
        let mut pool = BackendPool::new(ids, 4, 100, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let b1 = ctx.lit(1, Width::W16);
        let t50 = ctx.lit(50, Width::W64);
        BackendPoolOps::<_>::heartbeat(&mut pool, &mut ctx, b1, t50);
        let t100 = ctx.lit(100, Width::W64);
        assert!(BackendPoolOps::<_>::is_alive(&mut pool, &mut ctx, b1, t100));
        let t200 = ctx.lit(200, Width::W64);
        assert!(!BackendPoolOps::<_>::is_alive(
            &mut pool, &mut ctx, b1, t200
        ));
        // Backend 0 never heartbeated and time 200 exceeds the TTL.
        let b0 = ctx.lit(0, Width::W16);
        assert!(!BackendPoolOps::<_>::is_alive(
            &mut pool, &mut ctx, b0, t200
        ));
    }

    #[test]
    fn registered_contracts_are_constant() {
        let mut reg = DsRegistry::new();
        let ring = register_ring(&mut reg, "ring", 8, 1009);
        let pool = register_pool(&mut reg, "backends", 8, 1000);
        use bolt_trace::Metric;
        let rc = reg.resolve(StatefulCall {
            ds: ring.ds,
            method: M_RING_LOOKUP,
            case: 0,
        });
        assert!(rc.expr(Metric::Instructions).as_const().unwrap() > 0);
        assert_eq!(rc.expr(Metric::MemAccesses).as_const(), Some(1));
        let alive = reg.resolve(StatefulCall {
            ds: pool.ds,
            method: M_IS_ALIVE,
            case: C_ALIVE,
        });
        let dead = reg.resolve(StatefulCall {
            ds: pool.ds,
            method: M_IS_ALIVE,
            case: C_DEAD,
        });
        assert_eq!(
            alive.expr(Metric::Instructions).as_const(),
            dead.expr(Metric::Instructions).as_const()
        );
    }

    #[test]
    fn models_fork_and_record_cases() {
        let mut reg = DsRegistry::new();
        let ring = register_ring(&mut reg, "ring", 8, 1009);
        let pool = register_pool(&mut reg, "backends", 8, 1000);
        let result = bolt_see::Explorer::new().explore(|ctx| {
            let mut rm = DsModel {
                ds: ring.ds,
                bound: 8,
            };
            let mut pm = DsModel {
                ds: pool.ds,
                bound: 0,
            };
            let pkt = ctx.packet(64);
            let h = ctx.load(pkt, 26, 8);
            let b = MaglevRingOps::<_>::lookup(&mut rm, ctx, h);
            let now = ctx.lit(0, Width::W64);
            if BackendPoolOps::<_>::is_alive(&mut pm, ctx, b, now) {
                ctx.tag("alive");
            } else {
                ctx.tag("dead");
            }
        });
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.tagged("alive").count(), 1);
        assert_eq!(result.tagged("dead").count(), 1);
    }
}
