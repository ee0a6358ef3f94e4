//! Table 6: the VigNAT performance contract — instructions per traffic
//! type as a function of expired flows `e`, collisions `c`, and
//! traversals `t`. The expired-flow term dominates by an order of
//! magnitude, which is the §5.3 debugging story: long tail latencies were
//! batched flow expiry.

use crate::table_fmt::{outln, table};
use bolt_core::nf::Bolt;
use bolt_core::{ClassSpec, InputClass};
use bolt_expr::{Monomial, PcvAssignment};
use bolt_nfs::nat::Nat;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

pub(crate) fn table6(out: &mut String) {
    let mut contract = Bolt::nf(Nat::default())
        .explore(StackLevel::FullStack)
        .contract();
    let ids = contract.ids;
    let classes = [
        InputClass::new("Invalid packets (dropped)", ClassSpec::Tag("invalid")),
        InputClass::new("Known flows (forwarded)", ClassSpec::Tag("int:known")),
        InputClass::new("New external flows (dropped)", ClassSpec::Tag("ext:new")),
        InputClass::new(
            "New internal flows; table full (dropped)",
            ClassSpec::Tag("int:full"),
        ),
        InputClass::new(
            "New internal flows; ports exhausted (dropped)",
            ClassSpec::Tag("int:exhausted"),
        ),
        InputClass::new(
            "New internal flows; table not full (forwarded)",
            ClassSpec::Tag("int:new"),
        ),
    ];
    let env = PcvAssignment::new();
    let rows: Vec<Vec<String>> = classes
        .iter()
        .map(|c| {
            let q = contract.query(c, Metric::Instructions, &env).unwrap();
            let rendered = contract.display_expr(&q.expr);
            vec![c.name.clone(), rendered]
        })
        .collect();
    table(
        out,
        "Table 6 — VigNAT contract (paper shape: a·e + b·c + d·t + f·e·c + g·e·t + const)",
        &["Traffic type", "Instructions"],
        &rows,
    );
    // §5.3's observation: the expired-flows term dominates.
    let known = contract
        .query(&classes[1], Metric::Instructions, &env)
        .unwrap()
        .expr;
    let e_coeff = known.coeff(&Monomial::var(ids.ft.e));
    let c_coeff = known.coeff(&Monomial::var(ids.ft.c));
    outln!(
        out,
        "\nPCV 'e' coefficient ({e_coeff}) dominates 'c' ({c_coeff}) — the §5.3 tail-latency smoking gun."
    );
    assert!(e_coeff > 3 * c_coeff);
}
