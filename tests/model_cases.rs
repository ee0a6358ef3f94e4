//! The analysis-build models agree with the registered contracts.
//!
//! A model names each stateful call by `(ds, method, case)` indices, and
//! the contract generator resolves those indices in the NF's registry.
//! For every catalog descriptor at both stack levels, this explores the
//! NF and checks every recorded call against the registry it was
//! explored with:
//! * the call's instance, method and case all exist there (a checked
//!   lookup, not `DsRegistry::resolve`'s indexing);
//! * for every method a model calls, the cases recorded over all paths
//!   are exactly the method's registered cases: no case the contract
//!   prices is unreachable in the model, and none is missing from it.

use std::collections::{BTreeMap, BTreeSet};

use bolt::core::nf::NetworkFunction;
use bolt::lib::registry::DsRegistry;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::trace::{DsId, TraceEvent};

/// How many cases `method` of instance `ds` has, if both are registered.
fn case_count(reg: &DsRegistry, ds: DsId, method: u16) -> Option<usize> {
    if ds.0 as usize >= reg.len() {
        return None;
    }
    let methods = &reg.instance(ds).contract.methods;
    methods.get(method as usize).map(|m| m.cases.len())
}

fn check<N: NetworkFunction>(name: &str, nf: N) {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let ex = nf.explore(level);
        let mut recorded: BTreeMap<(DsId, u16), BTreeSet<u16>> = BTreeMap::new();
        for path in &ex.result.paths {
            for event in &path.events {
                if let TraceEvent::Stateful(call) = *event {
                    recorded
                        .entry((call.ds, call.method))
                        .or_default()
                        .insert(call.case);
                    let n = case_count(&ex.reg, call.ds, call.method);
                    assert!(
                        n.is_some_and(|n| (call.case as usize) < n),
                        "{name} {level:?}: {call:?} is not a registered case"
                    );
                }
            }
        }
        assert_eq!(
            recorded.is_empty(),
            ex.reg.is_empty(),
            "{name} {level:?}: an NF with registered state records calls on it"
        );
        for (&(ds, method), cases) in &recorded {
            let n = case_count(&ex.reg, ds, method).expect("checked above");
            let inst = ex.reg.instance(ds);
            assert_eq!(
                cases,
                &(0..n as u16).collect::<BTreeSet<_>>(),
                "{name} {level:?}: {}.{} records cases {cases:?} of {n} registered",
                inst.name,
                inst.contract.methods[method as usize].name
            );
        }
    }
}

#[test]
fn model_cases_are_the_registered_cases() {
    check("bridge", Bridge::default());
    check("example_router", ExampleRouter::default());
    check("firewall", Firewall::default());
    check("lb", LoadBalancer::default());
    check("lpm_router", LpmRouter::default());
    check("nat-a", Nat::with(NatConfig::default(), AllocKind::A));
    check("nat-b", Nat::with(NatConfig::default(), AllocKind::B));
    check("static_router", StaticRouter::default());
}
