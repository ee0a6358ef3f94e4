//! Property-based tests of the stateful library: semantic equivalence
//! against standard-library oracles and the contract conservatism
//! invariant under random operation sequences.

use bolt_expr::{PcvAssignment, Width};
use bolt_see::{ConcreteCtx, NfCtx};
use bolt_trace::{AddressSpace, Metric, NullTracer, RecordingTracer, StatefulCall};
use nf_lib::flow_table::{self, FlowTable, FlowTableOps, FlowTableParams, C_HIT, C_MISS, M_GET};
use nf_lib::lpm_dir24_8::{self, Dir24_8};
use nf_lib::lpm_trie::{self, LpmTrie};
use nf_lib::port_alloc::{self, AllocatorA, AllocatorB, PortAllocOps};
use nf_lib::registry::DsRegistry;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Put(u8, u16),
    AdvanceAndExpire(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0u16..500).prop_map(Op::AdvanceAndExpire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flow table agrees with a HashMap-plus-manual-TTL oracle under
    /// arbitrary operation sequences.
    #[test]
    fn flow_table_matches_oracle(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams { capacity: 256, ttl_ns: 300 };
        let ids = flow_table::register::<1>(&mut reg, "t", "", params);
        let mut aspace = AddressSpace::new();
        let mut table = FlowTable::<1>::new(ids, params, &mut aspace);
        let mut oracle: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Get(k) => {
                    let now_v = ctx.lit(now, Width::W64);
                    let kv = [ctx.lit(k as u64, Width::W64)];
                    let got = FlowTableOps::<_, 1>::get(&mut table, &mut ctx, &kv, now_v);
                    match oracle.get_mut(&(k as u64)) {
                        Some((v, ts)) => {
                            prop_assert_eq!(ctx.concrete_value(got.unwrap()), Some(*v));
                            *ts = now;
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::Put(k, v) => {
                    oracle.entry(k as u64).or_insert_with(|| {
                        let now_v = ctx.lit(now, Width::W64);
                        let kv = [ctx.lit(k as u64, Width::W64)];
                        let vv = ctx.lit(v as u64, Width::W64);
                        let stored =
                            FlowTableOps::<_, 1>::put(&mut table, &mut ctx, &kv, vv, now_v);
                        prop_assert!(stored);
                        (v as u64, now)
                    });
                }
                Op::AdvanceAndExpire(dt) => {
                    now += dt as u64;
                    let now_v = ctx.lit(now, Width::W64);
                    let e = FlowTableOps::<_, 1>::expire(&mut table, &mut ctx, now_v);
                    let cutoff = now.saturating_sub(params.ttl_ns);
                    let dead: Vec<u64> = oracle
                        .iter()
                        .filter(|(_, &(_, ts))| ts < cutoff)
                        .map(|(&k, _)| k)
                        .collect();
                    prop_assert_eq!(ctx.concrete_value(e), Some(dead.len() as u64));
                    for k in dead {
                        oracle.remove(&k);
                    }
                }
            }
            prop_assert_eq!(table.len(), oracle.len());
        }
    }

    /// Contract conservatism holds for every get under random state.
    #[test]
    fn every_get_stays_inside_its_contract(keys in prop::collection::vec(any::<u8>(), 1..80)) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams { capacity: 128, ttl_ns: u64::MAX / 2 };
        let ids = flow_table::register::<1>(&mut reg, "t", "", params);
        let mut aspace = AddressSpace::new();
        let mut table = FlowTable::<1>::new(ids, params, &mut aspace);
        {
            let mut t = NullTracer;
            let mut ctx = ConcreteCtx::new(&mut t);
            let now = ctx.lit(0, Width::W64);
            for &k in keys.iter().take(64) {
                let kv = [ctx.lit(k as u64, Width::W64)];
                let v = ctx.lit(1, Width::W64);
                if table.raw_get(&[k as u64]).is_none() {
                    let _ = FlowTableOps::<_, 1>::put(&mut table, &mut ctx, &kv, v, now);
                }
            }
        }
        for &probe in &keys {
            let mut rec = RecordingTracer::new();
            let hit = {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let now = ctx.lit(1, Width::W64);
                let kv = [ctx.lit(probe as u64, Width::W64)];
                FlowTableOps::<_, 1>::get(&mut table, &mut ctx, &kv, now).is_some()
            };
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let case = reg.resolve(StatefulCall {
                ds: ids.ds,
                method: M_GET,
                case: if hit { C_HIT } else { C_MISS },
            });
            let mut env = PcvAssignment::new();
            env.set(ids.t, table.last_probe.0).set(ids.c, table.last_probe.1);
            prop_assert!(case.expr(Metric::Instructions).eval(&env) >= ic);
            prop_assert!(case.expr(Metric::MemAccesses).eval(&env) >= ma);
        }
    }

    /// DIR-24-8 and the binary trie implement the same LPM semantics.
    #[test]
    fn dir24_8_equals_trie(
        routes in prop::collection::vec((any::<u32>(), 1u8..=24, 1u16..100), 1..30),
        probes in prop::collection::vec(any::<u32>(), 1..60),
    ) {
        let mut reg = DsRegistry::new();
        let dids = lpm_dir24_8::register(&mut reg, "d");
        let tids = lpm_trie::register(&mut reg, "t", "trie");
        let mut aspace = AddressSpace::new();
        let mut dir = Dir24_8::new(dids, 16, 64, 0, &mut aspace);
        let mut trie = LpmTrie::new(tids, 1 << 16, 0, &mut aspace);
        for &(prefix, len, port) in &routes {
            let p = prefix & (!0u32 << (32 - len));
            dir.insert(p, len, port);
            trie.insert(p, len, port);
        }
        for &ip in &probes {
            prop_assert_eq!(dir.raw_lookup(ip), trie.raw_lookup(ip), "ip {:#x}", ip);
        }
    }

    /// Neither allocator ever double-allocates, and both recycle every
    /// freed port.
    #[test]
    fn allocators_never_double_allocate(script in prop::collection::vec(any::<bool>(), 1..300)) {
        let mut reg = DsRegistry::new();
        let ia = port_alloc::register_a(&mut reg, "a", 64, 1000);
        let ib = port_alloc::register_b(&mut reg, "b", 64, 1000);
        let mut aspace = AddressSpace::new();
        let mut a = AllocatorA::new(ia, 64, 1000, &mut aspace);
        let mut b = AllocatorB::new(ib, 64, 1000, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mut live_a: HashSet<u64> = HashSet::new();
        let mut live_b: HashSet<u64> = HashSet::new();
        for &alloc in &script {
            if alloc {
                if let Some(p) = PortAllocOps::<_>::alloc(&mut a, &mut ctx) {
                    let pv = ctx.concrete_value(p).unwrap();
                    prop_assert!((1000..1064).contains(&pv));
                    prop_assert!(live_a.insert(pv), "A double-allocated {}", pv);
                }
                if let Some(p) = PortAllocOps::<_>::alloc(&mut b, &mut ctx) {
                    let pv = ctx.concrete_value(p).unwrap();
                    prop_assert!(live_b.insert(pv), "B double-allocated {}", pv);
                }
            } else {
                if let Some(&pv) = live_a.iter().next() {
                    live_a.remove(&pv);
                    let v = ctx.lit(pv, Width::W16);
                    PortAllocOps::<_>::free(&mut a, &mut ctx, v);
                }
                if let Some(&pv) = live_b.iter().next() {
                    live_b.remove(&pv);
                    let v = ctx.lit(pv, Width::W16);
                    PortAllocOps::<_>::free(&mut b, &mut ctx, v);
                }
            }
            prop_assert_eq!(a.available(), 64 - live_a.len());
            prop_assert_eq!(b.available(), 64 - live_b.len());
        }
    }
}
