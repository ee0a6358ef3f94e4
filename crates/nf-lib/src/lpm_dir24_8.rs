//! DPDK-style DIR-24-8 longest-prefix-match table.
//!
//! The paper's LPM router uses DPDK's two-tier lookup table (§5.1): any
//! packet whose matched prefix is ≤ 24 bits costs exactly one table load;
//! longer matches cost a second load into an overflow `tbl8` group. The
//! contract therefore has two constant cases — which is why the paper's
//! LPM1 (unconstrained, worst ⇒ two loads) and LPM2 (≤ 24-bit matches,
//! one load) classes exist.
//!
//! The first-level width is configurable (`first_bits`), so unit tests can
//! run with a 2^16-entry first level while benches use the full 2^24.

use bolt_expr::{TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, MemRegion, Tracer};

use crate::model::DsModel;
use crate::registry::{self, constant_case, DsContract, DsRegistry, MethodContract};

/// The single method.
pub const M_LOOKUP: u16 = 0;
/// Matched prefix ≤ first_bits: single load.
const C_SHORT: u16 = 0;
/// Matched prefix > first_bits: two loads.
const C_LONG: u16 = 1;

/// Entry flags in the first-level table.
const VALID: u32 = 1 << 31;
const GROUP: u32 = 1 << 30;

/// Ids handle.
#[derive(Clone, Copy, Debug)]
pub struct Dir24_8Ids {
    /// Registry instance id.
    pub ds: DsId,
}

/// Operations shared by the concrete table and its model.
pub trait Dir24_8Ops<C: NfCtx> {
    /// Look up the forwarding port for a destination address.
    fn lookup(&mut self, ctx: &mut C, ip: C::Val) -> C::Val;
}

/// The concrete, instrumented table.
///
/// Its operations take the concrete context, so the table runs only in
/// the production build:
///
/// ```
/// use bolt_expr::Width;
/// use bolt_see::{ConcreteCtx, NfCtx};
/// use bolt_trace::{AddressSpace, DsId, NullTracer};
/// use nf_lib::lpm_dir24_8::{Dir24_8, Dir24_8Ids, Dir24_8Ops};
///
/// let mut tracer = NullTracer;
/// let ctx = &mut ConcreteCtx::new(&mut tracer);
/// let ids = Dir24_8Ids { ds: DsId(0) };
/// let mut table = Dir24_8::new(ids, 16, 4, 0, &mut AddressSpace::new());
/// table.insert(0x0A00_0000, 8, 1);
/// let ip = ctx.lit(0x0A00_0001, Width::W32);
/// assert_eq!(table.lookup(ctx, ip).v, 1);
/// ```
///
/// Driving it inside an exploration does not compile:
///
/// ```compile_fail,E0308
/// use bolt_expr::Width;
/// use bolt_see::{Explorer, NfCtx};
/// use bolt_trace::{AddressSpace, DsId};
/// use nf_lib::lpm_dir24_8::{Dir24_8, Dir24_8Ids, Dir24_8Ops};
///
/// Explorer::new().explore(|ctx| {
///     let ids = Dir24_8Ids { ds: DsId(0) };
///     let mut table = Dir24_8::new(ids, 16, 4, 0, &mut AddressSpace::new());
///     table.insert(0x0A00_0000, 8, 1);
///     let ip = ctx.lit(0x0A00_0001, Width::W32);
///     table.lookup(ctx, ip);
/// });
/// ```
#[derive(Debug, Clone)]
pub struct Dir24_8 {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: Dir24_8Ids,
    first_bits: u8,
    default_port: u16,
    tbl24: Vec<u32>,
    len24: Vec<u8>,
    tbl8: Vec<u32>,
    len8: Vec<u8>,
    r_tbl24: MemRegion,
    r_tbl8: MemRegion,
    max_groups: usize,
    groups_used: usize,
    /// Whether the last lookup took the long (two-load) path.
    pub last_was_long: bool,
}

impl Dir24_8 {
    /// Build an empty table. `first_bits` is the first-level index width
    /// (24 in DPDK; smaller in tests). `max_groups` bounds tbl8 usage.
    pub fn new(
        ids: Dir24_8Ids,
        first_bits: u8,
        max_groups: usize,
        default_port: u16,
        aspace: &mut AddressSpace,
    ) -> Self {
        assert!((8..=24).contains(&first_bits));
        let n = 1usize << first_bits;
        Dir24_8 {
            ids,
            first_bits,
            default_port,
            tbl24: vec![0; n],
            len24: vec![0; n],
            tbl8: vec![0; max_groups * 256],
            len8: vec![0; max_groups * 256],
            r_tbl24: aspace.alloc_table(n as u64 * 4),
            r_tbl8: aspace.alloc_table((max_groups * 256) as u64 * 4),
            max_groups,
            groups_used: 0,
            last_was_long: false,
        }
    }

    /// Insert a route (control plane; uninstrumented). Longer prefixes
    /// take precedence, matching DPDK semantics.
    pub fn insert(&mut self, prefix: u32, len: u8, port: u16) {
        assert!((1..=32).contains(&len));
        let fb = self.first_bits;
        if len <= fb {
            // Fill the covered range of the first-level table.
            let span = 1usize << (fb - len);
            let start = (prefix >> (32 - fb)) as usize;
            for i in start..start + span {
                if self.tbl24[i] & GROUP != 0 {
                    // Propagate into the group as a shorter match. Equal
                    // lengths overwrite: a later insert of the same prefix
                    // is a routing update.
                    let g = (self.tbl24[i] & 0xFFFF) as usize;
                    for j in 0..256 {
                        if self.len8[g * 256 + j] <= len {
                            self.tbl8[g * 256 + j] = VALID | port as u32;
                            self.len8[g * 256 + j] = len;
                        }
                    }
                } else if self.len24[i] <= len {
                    self.tbl24[i] = VALID | port as u32;
                    self.len24[i] = len;
                }
            }
        } else {
            assert!(fb == 24 || len <= fb + 8, "suffix must fit the group");
            let idx = (prefix >> (32 - fb)) as usize;
            let g = if self.tbl24[idx] & GROUP != 0 {
                (self.tbl24[idx] & 0xFFFF) as usize
            } else {
                assert!(self.groups_used < self.max_groups, "out of tbl8 groups");
                let g = self.groups_used;
                self.groups_used += 1;
                // Seed the group with the existing shorter match.
                let (seed, seed_len) = if self.tbl24[idx] & VALID != 0 {
                    (self.tbl24[idx] & 0xFFFF, self.len24[idx])
                } else {
                    (0, 0)
                };
                for j in 0..256 {
                    self.tbl8[g * 256 + j] = if seed_len > 0 { VALID | seed } else { 0 };
                    self.len8[g * 256 + j] = seed_len;
                }
                self.tbl24[idx] = VALID | GROUP | g as u32;
                g
            };
            let shift = 32 - fb - 8;
            let sub = ((prefix >> shift) & 0xFF) as usize;
            let span = 1usize << (fb + 8 - len).min(8);
            for j in sub..(sub + span).min(256) {
                if self.len8[g * 256 + j] <= len {
                    self.tbl8[g * 256 + j] = VALID | port as u32;
                    self.len8[g * 256 + j] = len;
                }
            }
        }
    }

    /// Uninstrumented oracle lookup.
    pub fn raw_lookup(&self, ip: u32) -> u16 {
        let idx = (ip >> (32 - self.first_bits)) as usize;
        let e = self.tbl24[idx];
        if e & GROUP != 0 {
            let g = (e & 0xFFFF) as usize;
            let shift = 32 - self.first_bits - 8;
            let sub = ((ip >> shift) & 0xFF) as usize;
            let e8 = self.tbl8[g * 256 + sub];
            if e8 & VALID != 0 {
                return (e8 & 0xFFFF) as u16;
            }
            return self.default_port;
        }
        if e & VALID != 0 {
            return (e & 0xFFFF) as u16;
        }
        self.default_port
    }
}

impl<T: Tracer> Dir24_8Ops<ConcreteCtx<'_, T>> for Dir24_8 {
    fn lookup(&mut self, ctx: &mut ConcreteCtx<'_, T>, ip: CVal) -> CVal {
        let ipv = ip.v as u32;
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        // idx = ip >> (32 - fb); load tbl24[idx]; flag tests.
        t.alu(1);
        let idx = (ipv >> (32 - self.first_bits)) as usize;
        t.mem_read(self.r_tbl24.addr(idx as u64 * 4), 4);
        t.alu(2);
        t.instr(InstrClass::Branch, 1);
        let e = self.tbl24[idx];
        let port = if e & GROUP != 0 {
            self.last_was_long = true;
            // Second-level: group base + low byte index.
            t.alu(3);
            let g = (e & 0xFFFF) as usize;
            let shift = 32 - self.first_bits - 8;
            let sub = ((ipv >> shift) & 0xFF) as usize;
            t.mem_read(self.r_tbl8.addr((g * 256 + sub) as u64 * 4), 4);
            t.alu(2);
            t.instr(InstrClass::Branch, 1);
            let e8 = self.tbl8[g * 256 + sub];
            if e8 & VALID != 0 {
                (e8 & 0xFFFF) as u16
            } else {
                self.default_port
            }
        } else {
            self.last_was_long = false;
            t.alu(2);
            t.instr(InstrClass::Branch, 1);
            if e & VALID != 0 {
                (e & 0xFFFF) as u16
            } else {
                self.default_port
            }
        };
        t.instr(InstrClass::Ret, 1);
        ctx.lit(port as u64, Width::W16)
    }
}

impl Dir24_8Ops<SymbolicCtx<'_>> for DsModel {
    fn lookup(&mut self, ctx: &mut SymbolicCtx<'_>, _ip: TermRef) -> TermRef {
        let long = self.split(ctx, M_LOOKUP, &[("dir24_8.long_match", C_LONG)], C_SHORT) == C_LONG;
        ctx.tag(if long { "lpm:long" } else { "lpm:short" });
        ctx.fresh("dir24_8.port", Width::W16)
    }
}

/// Calibrate and register. Both cases are constants (no PCVs).
pub fn register(reg: &mut DsRegistry, name: &str) -> Dir24_8Ids {
    let provisional = Dir24_8Ids { ds: DsId(u32::MAX) };
    let measure = |table: &mut Dir24_8, ip: u32| {
        registry::measure(|ctx| {
            let ipv = ctx.lit(ip as u64, Width::W32);
            let _ = Dir24_8Ops::<_>::lookup(table, ctx, ipv);
        })
    };
    let mut aspace = AddressSpace::new();
    let mut table = Dir24_8::new(provisional, 16, 4, 0, &mut aspace);
    table.insert(0x0A000000, 8, 1);
    table.insert(0x0B000000, 24, 2); // longer than first_bits: forces a group
    let short = measure(&mut table, 0x0A010203);
    let long = measure(&mut table, 0x0B000000);
    let contract = DsContract {
        methods: vec![MethodContract {
            name: "lookup",
            cases: vec![
                constant_case("matched prefix <= 24 bits", short),
                constant_case("matched prefix > 24 bits", long),
            ],
        }],
    };
    let ds = reg.register(name, contract);
    Dir24_8Ids { ds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm_trie;
    use bolt_see::ConcreteCtx;
    use bolt_trace::{Metric, NullTracer, RecordingTracer, StatefulCall};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (DsRegistry, Dir24_8Ids, Dir24_8) {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg, "dir24_8");
        let mut aspace = AddressSpace::new();
        let table = Dir24_8::new(ids, 16, 16, 0, &mut aspace);
        (reg, ids, table)
    }

    #[test]
    fn short_and_long_matches() {
        // Test geometry: 16-bit first level, so /24 routes take the long
        // (two-load) path the way /32 routes do on the real 24-bit table.
        let (_, _, mut table) = setup();
        table.insert(0x0A000000, 8, 1);
        table.insert(0x0A010100, 24, 2);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let ip = ctx.lit(0x0A020304u64, Width::W32);
        let p = Dir24_8Ops::<_>::lookup(&mut table, &mut ctx, ip);
        assert_eq!(ctx.concrete_value(p), Some(1));
        assert!(!table.last_was_long);
        let ip = ctx.lit(0x0A010155u64, Width::W32);
        let p = Dir24_8Ops::<_>::lookup(&mut table, &mut ctx, ip);
        assert_eq!(ctx.concrete_value(p), Some(2));
        assert!(table.last_was_long);
        // Same first-level entry, different third byte: falls back to the
        // /8 route seeded into the group (still the long path).
        let ip = ctx.lit(0x0A010255u64, Width::W32);
        let p = Dir24_8Ops::<_>::lookup(&mut table, &mut ctx, ip);
        assert_eq!(ctx.concrete_value(p), Some(1));
        assert!(table.last_was_long);
    }

    #[test]
    fn agrees_with_trie_on_random_tables() {
        let mut rng = SmallRng::seed_from_u64(17);
        for round in 0..10 {
            let mut reg = DsRegistry::new();
            let ids = register(&mut reg, "d");
            let trie_ids = lpm_trie::register(&mut reg, "trie", "");
            let mut aspace = AddressSpace::new();
            let mut dir = Dir24_8::new(ids, 16, 64, 0, &mut aspace);
            let mut trie = lpm_trie::LpmTrie::new(trie_ids, 65536, 0, &mut aspace);
            for _ in 0..40 {
                // Prefix lengths that respect the 16+8 test geometry.
                let len = rng.gen_range(4..=24u8);
                let prefix = rng.gen::<u32>() & (!0u32 << (32 - len));
                let port = rng.gen_range(1..100u16);
                dir.insert(prefix, len, port);
                trie.insert(prefix, len, port);
            }
            for _ in 0..500 {
                let ip = rng.gen::<u32>();
                assert_eq!(
                    dir.raw_lookup(ip),
                    trie.raw_lookup(ip),
                    "round {round} ip {ip:#x}"
                );
            }
        }
    }

    #[test]
    fn long_case_costs_exactly_one_extra_load() {
        let (reg, ids, _) = setup();
        let short = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_LOOKUP,
            case: C_SHORT,
        });
        let long = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_LOOKUP,
            case: C_LONG,
        });
        let s_ma = short.expr(Metric::MemAccesses).as_const().unwrap();
        let l_ma = long.expr(Metric::MemAccesses).as_const().unwrap();
        assert_eq!(s_ma, 1);
        assert_eq!(l_ma, 2);
        assert!(
            long.expr(Metric::Instructions).as_const().unwrap()
                > short.expr(Metric::Instructions).as_const().unwrap()
        );
    }

    #[test]
    fn contract_bounds_measured_lookups() {
        let (reg, ids, mut table) = setup();
        table.insert(0xC0000000, 4, 1);
        table.insert(0xC0A80000, 16, 2);
        table.insert(0xC0A80100, 24, 3);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..300 {
            let ip = rng.gen::<u32>();
            let mut rec = RecordingTracer::new();
            {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let ipv = ctx.lit(ip as u64, Width::W32);
                let _ = Dir24_8Ops::<_>::lookup(&mut table, &mut ctx, ipv);
            }
            let case = reg.resolve(StatefulCall {
                ds: ids.ds,
                method: M_LOOKUP,
                case: if table.last_was_long { C_LONG } else { C_SHORT },
            });
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let cyc = bolt_hw::conservative_cycles(&rec.events);
            let env = bolt_expr::PcvAssignment::new();
            assert!(case.expr(Metric::Instructions).eval(&env) >= ic);
            assert!(case.expr(Metric::MemAccesses).eval(&env) >= ma);
            assert!(case.expr(Metric::Cycles).eval(&env) >= cyc);
        }
    }

    #[test]
    fn model_forks_two_cases() {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg, "d");
        let result = bolt_see::Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: 0,
            };
            let pkt = ctx.packet(64);
            let ip = ctx.load(pkt, 30, 4);
            let _ = Dir24_8Ops::<_>::lookup(&mut model, ctx, ip);
        });
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.tagged("lpm:long").count(), 1);
        assert_eq!(result.tagged("lpm:short").count(), 1);
    }
}
