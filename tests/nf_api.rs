//! The unified NF API: the object-safe view over every NF, and chain
//! composition through `Pipeline` trait objects.
//!
//! The Pipeline chain must reproduce the §5.2 firewall→router
//! composition result checked in `conservatism.rs` /
//! `crates/core/tests/chain.rs`.

use bolt::core::naive_add;
use bolt::expr::PcvAssignment;
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::trace::Metric;
use bolt::Pipeline;

#[test]
fn all_seven_nfs_expose_names_through_the_trait() {
    // The object-safe view (used by Pipeline) covers every NF.
    let nfs: Vec<Box<dyn bolt::AbstractNf>> = vec![
        Box::new(Bridge::default()),
        Box::new(ExampleRouter::default()),
        Box::new(Firewall::default()),
        Box::new(LoadBalancer::default()),
        Box::new(LpmRouter::default()),
        Box::new(Nat::default()),
        Box::new(StaticRouter::default()),
    ];
    let names: Vec<&str> = nfs.iter().map(|n| n.name()).collect();
    assert_eq!(
        names,
        vec![
            "bridge",
            "example_router",
            "firewall",
            "lb",
            "lpm_router",
            "nat",
            "static_router"
        ]
    );
}

#[test]
fn pipeline_reproduces_the_firewall_router_chain() {
    // The §5.2 composition result, via trait objects: the composed
    // contract masks the router's option paths and beats naive addition.
    let pipeline = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default());
    let chain = pipeline.contract(StackLevel::NfOnly).unwrap();
    let env = PcvAssignment::new();
    for p in &chain.paths {
        assert!(
            !(p.has_tag("no-options") && p.has_tag("ip-options")),
            "firewall-accepted traffic must not reach router option paths"
        );
    }
    let composed_worst = chain
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    let naive = naive_add(
        &pipeline.contracts(StackLevel::NfOnly),
        Metric::Instructions,
        &env,
    );
    assert!(
        composed_worst < naive,
        "composition must beat naive addition: {composed_worst} vs {naive}"
    );
}
