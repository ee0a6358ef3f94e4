//! Operator use case (§5.2, §3.4): reasoning about a chain of NFs.
//!
//! A firewall that drops IP-options packets sits in front of a router
//! whose options path is expensive. Adding the two worst cases
//! over-provisions; BOLT's chain composition proves the expensive
//! combination infeasible and produces a tighter bound. The chain is just
//! a [`Pipeline`] of NF descriptors.
//!
//! Run with: `cargo run --example chain_provisioning`

use bolt::core::{naive_add, ClassSpec, InputClass};
use bolt::expr::PcvAssignment;
use bolt::nfs::{Firewall, StaticRouter};
use bolt::see::StackLevel;
use bolt::solver::Solver;
use bolt::trace::Metric;
use bolt::{Composer, NetworkFunction, Pipeline};

fn main() {
    let solver = Solver::default();
    let env = PcvAssignment::new();

    let classes = [
        InputClass::new("no IP options", ClassSpec::Tag("no-options")),
        InputClass::new("IP options", ClassSpec::Tag("ip-options")),
    ];
    println!("individual contracts (instructions):");
    let mut fw = Firewall::default().contract(StackLevel::FullStack);
    let mut rt = StaticRouter::default().contract(StackLevel::FullStack);
    for class in &classes {
        if let Some(q) = fw.query(class, Metric::Instructions, &env) {
            println!("  {:<9} {:<14} {}", "firewall", class.name, q.value);
        }
    }
    for class in &classes {
        if let Some(q) = rt.query(class, Metric::Instructions, &env) {
            println!("  {:<9} {:<14} {}", "router", class.name, q.value);
        }
    }

    // Compose: pair paths, link the packet expressions, drop infeasible
    // combinations (the firewall's forwarded packets can never reach the
    // router's option loop). A chain is just a Pipeline of descriptors;
    // exploring the stages once serves both the composed contract and
    // the naive baseline.
    let pipeline = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default());
    let stage_contracts = pipeline.contracts(StackLevel::FullStack);
    let naive = naive_add(&stage_contracts, Metric::Instructions, &env);
    let mut chain = Composer::new(&solver).compose_all(stage_contracts).unwrap();
    println!("\ncomposed {:?} contract:", pipeline.names());
    for class in &classes {
        if let Some(q) = chain.query(&solver, class, Metric::Instructions, &env) {
            println!("  chain     {:<14} {}", class.name, q.value);
        }
    }

    let composed = chain
        .query(
            &solver,
            &InputClass::unconstrained(),
            Metric::Instructions,
            &env,
        )
        .unwrap()
        .value;
    println!("\nworst case for provisioning:");
    println!("  naive addition:     {naive} instructions");
    println!("  BOLT composition:   {composed} instructions");
    println!(
        "  over-provisioning avoided: {:.0}%",
        (naive as f64 / composed as f64 - 1.0) * 100.0
    );
    assert!(composed < naive);
}
