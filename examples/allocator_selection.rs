//! Developer use case (§5.3): choosing between two data-structure
//! implementations with contracts instead of A/B testing.
//!
//! Two port allocators, both O(1): A (randomized FIFO free list) has
//! occupancy-independent constants; B (first-fit array scan) is cheap at
//! low occupancy and pays an occupancy-dependent probe count at high
//! occupancy. The contracts expose the trade-off as expressions the
//! developer can evaluate against expected traffic.
//!
//! Run with: `cargo run --example allocator_selection`

use bolt::expr::PcvAssignment;
use bolt::lib::port_alloc::{self, C_OK, M_ALLOC};
use bolt::lib::registry::DsRegistry;
use bolt::trace::{Metric, StatefulCall};

fn main() {
    let mut reg = DsRegistry::new();
    let a = port_alloc::register_a(&mut reg, "alloc_a", 4096, 1024);
    let b = port_alloc::register_b(&mut reg, "alloc_b", 4096, 1024);

    let a_case = reg.resolve(StatefulCall {
        ds: a.ds,
        method: M_ALLOC,
        case: C_OK,
    });
    let b_case = reg.resolve(StatefulCall {
        ds: b.ds,
        method: M_ALLOC,
        case: C_OK,
    });
    println!("allocation contracts (cycles, conservative):");
    println!("  A: {}", a_case.expr(Metric::Cycles).display(&reg.pcvs));
    println!("  B: {}", b_case.expr(Metric::Cycles).display(&reg.pcvs));
    println!("\nB's cost depends on its probe count PCV `alloc_b.p`; A's does not.\n");

    // Evaluate the trade-off at the occupancy regimes the developer
    // expects (probes ≈ first free slot position).
    let a_cost = a_case.expr(Metric::Cycles).as_const().unwrap();
    println!("expected traffic regimes:");
    for (regime, probes) in [
        ("low occupancy (high churn)", 1u64),
        ("high occupancy (low churn)", 40),
    ] {
        let mut env = PcvAssignment::new();
        env.set(b.p, probes);
        let b_cost = b_case.expr(Metric::Cycles).eval(&env);
        let winner = if b_cost < a_cost { "B" } else { "A" };
        println!("  {regime:<28} A: {a_cost:>5} cycles  B: {b_cost:>5} cycles  → pick {winner}");
    }
    println!(
        "\nThe decision falls out of the contracts — no A/B testing rig required (§5.3). \
         `cargo run --release -p bolt-bench` prints the full NF-level comparison (Figures 5–7)."
    );
}
