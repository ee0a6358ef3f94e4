//! MAC learning table with a collision-attack defence (§5.2).
//!
//! The bridge's table is a [`FlowTable<1>`] keyed by the 48-bit source
//! MAC, plus the defence the paper analyses: the hash incorporates a
//! random seed, and if a `learn` probe ever traverses more than
//! `rehash_threshold` slots, the seed is renewed and the whole table
//! rebuilt. Rehashing is deliberately expensive — it produces the
//! performance cliff of Table 4's third row, and picking the threshold is
//! the operator use-case of Figure 2.
//!
//! The table's contract composes the flow table's calibrated method
//! contracts with the (constant) glue costs of the learn/lookup wrappers;
//! the `unknown` case coalesces `put`'s stored/full outcomes into the
//! worst (stored).

use bolt_expr::{TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, Tracer};

use crate::flow_table::{
    self, FlowTable, FlowTableIds, FlowTableOps, FlowTableParams, C_HIT, C_MISS, C_STORED,
    M_EXPIRE, M_GET, M_PEEK, M_PUT, M_REHASH,
};
use crate::model::DsModel;
use crate::registry::{
    case_perf, sum3, with_glue, CaseContract, DsContract, DsRegistry, MethodContract,
};

/// MacTable method indices.
pub const M_MT_EXPIRE: u16 = 0;
/// `learn` (source MAC processing).
pub const M_MT_LEARN: u16 = 1;
/// `lookup` (destination MAC query, no refresh).
pub const M_MT_LOOKUP: u16 = 2;

/// `learn` cases.
const C_KNOWN: u16 = 0;
/// Unknown source, learned without rehash.
const C_UNKNOWN: u16 = 1;
/// Unknown source, probe exceeded the threshold: rehash triggered.
const C_UNKNOWN_REHASH: u16 = 2;

/// What `learn` did (mirrors the contract cases).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LearnOutcome {
    /// Source already present; its age was refreshed.
    Known,
    /// Source learned.
    Unknown,
    /// Source learned and the table was rehashed.
    UnknownRehash,
}

#[cfg(test)]
impl LearnOutcome {
    /// The contract case index.
    fn case(self) -> u16 {
        match self {
            LearnOutcome::Known => C_KNOWN,
            LearnOutcome::Unknown => C_UNKNOWN,
            LearnOutcome::UnknownRehash => C_UNKNOWN_REHASH,
        }
    }
}

/// Ids handle for a registered MAC table (includes the inner store's ids,
/// whose PCVs — bare `e`, `c`, `t`, `o` — the composed contract reuses).
#[derive(Clone, Copy, Debug)]
pub struct MacTableIds {
    /// The MAC table instance.
    pub ds: DsId,
    /// The inner flow-table instance (calibration source).
    pub store: FlowTableIds,
}

/// Glue instruction counts of the wrapper methods (used identically by the
/// concrete implementation and the composed contract).
const GLUE_KNOWN: u32 = 3; // call + branch-on-hit + ret
const GLUE_UNKNOWN: u32 = 5; // + threshold compare + branch
const GLUE_REHASH: u32 = 8; // + new-seed generation (3 alu)
const GLUE_LOOKUP: u32 = 3;
const GLUE_EXPIRE: u32 = 2;

/// Common operations of the concrete MAC table and its model.
pub trait MacTableOps<C: NfCtx> {
    /// Expire stale MACs; returns how many were removed.
    fn expire(&mut self, ctx: &mut C, now: C::Val) -> C::Val;
    /// Process a source MAC: refresh if known, learn (and possibly
    /// rehash) if not.
    fn learn(&mut self, ctx: &mut C, mac: C::Val, port: C::Val, now: C::Val) -> LearnOutcome;
    /// Query a destination MAC (no refresh). `None` means flood.
    fn lookup(&mut self, ctx: &mut C, mac: C::Val) -> Option<C::Val>;
}

/// The concrete, instrumented MAC table.
#[derive(Debug)]
pub struct MacTable {
    #[allow(dead_code)] // kept: instances carry their registry identity
    ids: MacTableIds,
    inner: FlowTable<1>,
    /// Probe-length threshold that triggers the seed renewal.
    pub rehash_threshold: u64,
    reseed_state: u64,
    /// Worst `(t, c)` probe statistics across the inner operations of the
    /// most recent `learn`/`lookup` (the PCV binding for its contract).
    pub last_op_probe: (u64, u64),
}

impl MacTable {
    /// Build a concrete table.
    pub fn new(
        ids: MacTableIds,
        params: FlowTableParams,
        rehash_threshold: u64,
        aspace: &mut AddressSpace,
    ) -> Self {
        MacTable {
            ids,
            inner: FlowTable::new(ids.store, params, aspace),
            rehash_threshold,
            reseed_state: 0x8f1b_bcdc_cafe_f00d,
            last_op_probe: (0, 0),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Current hash seed (changes on rehash).
    pub fn seed(&self) -> u64 {
        self.inner.seed()
    }

    /// The slot a MAC hashes to under the current seed (for adversarial
    /// workload construction).
    pub fn bucket_of(&self, mac: u64) -> usize {
        self.inner.bucket_of(&[mac])
    }

    /// Direct access to the inner store (pathological-state synthesis).
    pub fn store_mut(&mut self) -> &mut FlowTable<1> {
        &mut self.inner
    }
}

impl<T: Tracer> MacTableOps<ConcreteCtx<'_, T>> for MacTable {
    fn expire(&mut self, ctx: &mut ConcreteCtx<'_, T>, now: CVal) -> CVal {
        ctx.tracer().instr(InstrClass::Call, 1);
        let e = self.inner.expire(ctx, now);
        ctx.tracer().instr(InstrClass::Ret, 1);
        e
    }

    fn learn(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        mac: CVal,
        port: CVal,
        now: CVal,
    ) -> LearnOutcome {
        ctx.tracer().instr(InstrClass::Call, 1);
        let hit = self.inner.get(ctx, &[mac], now).is_some();
        self.last_op_probe = self.inner.last_probe;
        ctx.tracer().instr(InstrClass::Branch, 1);
        let outcome = if hit {
            LearnOutcome::Known
        } else {
            let _stored = self.inner.put(ctx, &[mac], port, now);
            self.last_op_probe = (
                self.last_op_probe.0.max(self.inner.last_probe.0),
                self.last_op_probe.1.max(self.inner.last_probe.1),
            );
            let t = ctx.tracer();
            t.alu(1);
            t.instr(InstrClass::Branch, 1);
            if self.inner.last_probe.0 > self.rehash_threshold {
                // Renew the random seed (xorshift of internal state).
                ctx.tracer().alu(3);
                self.reseed_state ^= self.reseed_state << 13;
                self.reseed_state ^= self.reseed_state >> 7;
                self.reseed_state ^= self.reseed_state << 17;
                self.inner.rehash(ctx, self.reseed_state);
                LearnOutcome::UnknownRehash
            } else {
                LearnOutcome::Unknown
            }
        };
        ctx.tracer().instr(InstrClass::Ret, 1);
        outcome
    }

    fn lookup(&mut self, ctx: &mut ConcreteCtx<'_, T>, mac: CVal) -> Option<CVal> {
        ctx.tracer().instr(InstrClass::Call, 1);
        let r = self.inner.peek(ctx, &[mac]);
        self.last_op_probe = self.inner.last_probe;
        ctx.tracer().instr(InstrClass::Branch, 1);
        ctx.tracer().instr(InstrClass::Ret, 1);
        r
    }
}

impl MacTableOps<SymbolicCtx<'_>> for DsModel {
    fn expire(&mut self, ctx: &mut SymbolicCtx<'_>, _now: TermRef) -> TermRef {
        self.record(ctx, M_MT_EXPIRE, 0);
        self.fresh_bounded(ctx, "mac_table.expired", Width::W64)
    }

    fn learn(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _mac: TermRef,
        _port: TermRef,
        _now: TermRef,
    ) -> LearnOutcome {
        let cases = [
            ("mac_table.learn.known", C_KNOWN),
            ("mac_table.learn.rehash", C_UNKNOWN_REHASH),
        ];
        match self.split(ctx, M_MT_LEARN, &cases, C_UNKNOWN) {
            C_KNOWN => LearnOutcome::Known,
            C_UNKNOWN_REHASH => LearnOutcome::UnknownRehash,
            _ => LearnOutcome::Unknown,
        }
    }

    fn lookup(&mut self, ctx: &mut SymbolicCtx<'_>, _mac: TermRef) -> Option<TermRef> {
        let case = self.split(ctx, M_MT_LOOKUP, &[("mac_table.lookup.hit", C_HIT)], C_MISS);
        (case == C_HIT).then(|| ctx.fresh("mac_table.lookup.port", Width::W64))
    }
}

/// Register a MAC table: registers the inner store (with *bare* PCV names,
/// as in Table 4), composes the wrapper contract, and registers it.
pub fn register(reg: &mut DsRegistry, name: &str, params: FlowTableParams) -> MacTableIds {
    let store = flow_table::register::<1>(reg, &format!("{name}.store"), "", params);
    let get_hit = case_perf(reg, store.ds, M_GET, C_HIT);
    let get_miss = case_perf(reg, store.ds, M_GET, C_MISS);
    let peek_hit = case_perf(reg, store.ds, M_PEEK, C_HIT);
    let peek_miss = case_perf(reg, store.ds, M_PEEK, C_MISS);
    let put_stored = case_perf(reg, store.ds, M_PUT, C_STORED);
    let expire = case_perf(reg, store.ds, M_EXPIRE, 0);
    let rehash = case_perf(reg, store.ds, M_REHASH, 0);

    let known = with_glue(get_hit, GLUE_KNOWN);
    let unknown = with_glue(sum3(&get_miss, &put_stored), GLUE_UNKNOWN);
    let unknown_rehash = with_glue(sum3(&sum3(&get_miss, &put_stored), &rehash), GLUE_REHASH);
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "expire",
                cases: vec![CaseContract {
                    name: "expired",
                    perf: with_glue(expire, GLUE_EXPIRE),
                }],
            },
            MethodContract {
                name: "learn",
                cases: vec![
                    CaseContract {
                        name: "known source MAC",
                        perf: known,
                    },
                    CaseContract {
                        name: "unknown source MAC; no rehashing",
                        perf: unknown,
                    },
                    CaseContract {
                        name: "unknown source MAC; rehashing",
                        perf: unknown_rehash,
                    },
                ],
            },
            MethodContract {
                name: "lookup",
                cases: vec![
                    CaseContract {
                        name: "known destination",
                        perf: with_glue(peek_hit, GLUE_LOOKUP),
                    },
                    CaseContract {
                        name: "unknown destination",
                        perf: with_glue(peek_miss, GLUE_LOOKUP),
                    },
                ],
            },
        ],
    };
    let ds = reg.register(name, contract);
    MacTableIds { ds, store }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::PcvAssignment;
    use bolt_trace::{Metric, NullTracer, RecordingTracer, StatefulCall};

    fn setup(capacity: usize, threshold: u64) -> (DsRegistry, MacTableIds, MacTable) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity,
            ttl_ns: 1000,
        };
        let ids = register(&mut reg, "mac_table", params);
        let mut aspace = AddressSpace::new();
        let table = MacTable::new(ids, params, threshold, &mut aspace);
        (reg, ids, table)
    }

    fn w48<T: Tracer>(ctx: &mut ConcreteCtx<'_, T>, v: u64) -> CVal {
        ctx.lit(v, Width::W48)
    }

    #[test]
    fn learn_then_lookup() {
        let (_, _, mut table) = setup(256, 64);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mac = w48(&mut ctx, 0x0A0B0C0D0E0F);
        let port = ctx.lit(3, Width::W64);
        let now = ctx.lit(0, Width::W64);
        assert!(MacTableOps::<_>::lookup(&mut table, &mut ctx, mac).is_none());
        assert_eq!(
            MacTableOps::<_>::learn(&mut table, &mut ctx, mac, port, now),
            LearnOutcome::Unknown
        );
        assert_eq!(
            MacTableOps::<_>::learn(&mut table, &mut ctx, mac, port, now),
            LearnOutcome::Known
        );
        let got = MacTableOps::<_>::lookup(&mut table, &mut ctx, mac).unwrap();
        assert_eq!(ctx.concrete_value(got), Some(3));
    }

    #[test]
    fn expire_clears_old_macs() {
        let (_, _, mut table) = setup(256, 64);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mac = w48(&mut ctx, 0x111111111111);
        let port = ctx.lit(1, Width::W64);
        let t0 = ctx.lit(0, Width::W64);
        MacTableOps::<_>::learn(&mut table, &mut ctx, mac, port, t0);
        let t2k = ctx.lit(2000, Width::W64);
        let e = MacTableOps::<_>::expire(&mut table, &mut ctx, t2k);
        assert_eq!(ctx.concrete_value(e), Some(1));
        assert!(MacTableOps::<_>::lookup(&mut table, &mut ctx, mac).is_none());
    }

    #[test]
    fn long_probe_triggers_rehash() {
        let (_, _, mut table) = setup(256, 4);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let now = ctx.lit(0, Width::W64);
        // Build an adversarial probe run: MACs whose slot collides.
        let target_slot = 7usize;
        let mut macs = Vec::new();
        let mut nonce = 0u64;
        while macs.len() < 8 {
            nonce += 1;
            if table.bucket_of(nonce) == target_slot {
                macs.push(nonce);
            }
        }
        let old_seed = table.seed();
        let mut saw_rehash = false;
        for &m in &macs {
            let mac = w48(&mut ctx, m);
            let port = ctx.lit(1, Width::W64);
            if MacTableOps::<_>::learn(&mut table, &mut ctx, mac, port, now)
                == LearnOutcome::UnknownRehash
            {
                saw_rehash = true;
                break;
            }
        }
        assert!(saw_rehash, "colliding inserts must eventually rehash");
        assert_ne!(table.seed(), old_seed);
        // All previously learned MACs survive the rehash.
        for &m in &macs {
            let mac = w48(&mut ctx, m);
            if table.store_mut().raw_get(&[m]).is_some() {
                assert!(MacTableOps::<_>::lookup(&mut table, &mut ctx, mac).is_some());
            }
        }
    }

    #[test]
    fn contract_bounds_each_learn_case() {
        let (reg, ids, mut table) = setup(256, 6);
        let mut now = 0u64;
        for i in 0..300u64 {
            now += 1;
            let mut rec = RecordingTracer::new();
            let (outcome, probe) = {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let mac = w48(&mut ctx, (i % 100) * 7 + 1);
                let port = ctx.lit(1, Width::W64);
                let nowv = ctx.lit(now, Width::W64);
                let o = MacTableOps::<_>::learn(&mut table, &mut ctx, mac, port, nowv);
                (o, table.last_op_probe)
            };
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let cyc = bolt_hw::conservative_cycles(&rec.events);
            let mut env = PcvAssignment::new();
            env.set(ids.store.t, probe.0)
                .set(ids.store.c, probe.1)
                .set(ids.store.o, table.len() as u64);
            let case = reg.resolve(StatefulCall {
                ds: ids.ds,
                method: M_MT_LEARN,
                case: outcome.case(),
            });
            assert!(
                case.expr(Metric::Instructions).eval(&env) >= ic,
                "learn IC bound violated at step {i} ({outcome:?})"
            );
            assert!(case.expr(Metric::MemAccesses).eval(&env) >= ma);
            assert!(
                case.expr(Metric::Cycles).eval(&env) >= cyc,
                "learn cycle bound violated at step {i} ({outcome:?})"
            );
        }
    }

    #[test]
    fn rehash_contract_has_occupancy_term() {
        let (reg, ids, _) = setup(256, 6);
        let case = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_MT_LEARN,
            case: C_UNKNOWN_REHASH,
        });
        let expr = case.expr(Metric::Instructions);
        assert!(
            expr.coeff(&bolt_expr::Monomial::var(ids.store.o)) > 0,
            "rehash case must scale with occupancy"
        );
        // The rehash constant dwarfs the no-rehash case (Table 4's cliff).
        let no_rehash = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_MT_LEARN,
            case: C_UNKNOWN,
        });
        assert!(
            expr.constant_term() > 10 * no_rehash.expr(Metric::Instructions).constant_term(),
            "rehashing must be a performance cliff"
        );
    }

    #[test]
    fn model_learn_has_three_cases() {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 64,
            ttl_ns: 100,
        };
        let ids = register(&mut reg, "mt", params);
        let result = bolt_see::Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: params.capacity as u64,
            };
            let pkt = ctx.packet(64);
            let mac = ctx.load(pkt, 6, 6);
            let port = ctx.lit(0, Width::W64);
            let now = ctx.lit(0, Width::W64);
            match MacTableOps::<_>::learn(&mut model, ctx, mac, port, now) {
                LearnOutcome::Known => ctx.tag("known"),
                LearnOutcome::Unknown => ctx.tag("unknown"),
                LearnOutcome::UnknownRehash => ctx.tag("rehash"),
            }
        });
        assert_eq!(result.paths.len(), 3);
        assert_eq!(result.tagged("known").count(), 1);
        assert_eq!(result.tagged("unknown").count(), 1);
        assert_eq!(result.tagged("rehash").count(), 1);
    }
}
