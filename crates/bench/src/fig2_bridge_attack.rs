//! Figure 2: the operator's threshold-picking analysis (§5.2). Under a
//! uniform random workload, the Distiller reports the CCDF of hash-table
//! probe traversals per packet; overlaying the contract's predicted IC as
//! a function of the traversal count lets the operator position the
//! rehash threshold where legitimate traffic never trips it.

use crate::table_fmt::{outln, table};
use bolt_core::nf::{Bolt, NetworkFunction};
use bolt_core::{ClassSpec, InputClass};
use bolt_distiller::NfRunner;
use bolt_expr::PcvAssignment;
use bolt_nfs::bridge::{Bridge, BridgeConfig};
use bolt_trace::{AddressSpace, Metric};
use bolt_workloads::generators::bridge_traffic;
use dpdk_sim::StackLevel;
use nf_lib::clock::Granularity;

pub(crate) fn fig2(out: &mut String) {
    let nf = Bridge::with(BridgeConfig {
        capacity: 1024,
        ttl_ns: u64::MAX / 2,
        rehash_threshold: 64, // analysis first, threshold later
    });
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let ids = contract.ids;

    // Uniform random workload at ~35% occupancy — the regime where the
    // paper's operator found fewer than 0.2% of packets beyond 6
    // traversals.
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let pkts = bridge_traffic(51, 20_000, 360, false, 1_000);
    runner.play_nf(&nf, &mut state, &pkts);

    let ccdf = runner.distiller.ccdf(ids.table.store.t);
    let class = InputClass::new(
        "unknown source, no rehash",
        ClassSpec::all([
            ClassSpec::Tag("src:unknown"),
            ClassSpec::NotTag("src:rehash"),
        ]),
    );
    let mut rows = Vec::new();
    for t in 0..=8u64 {
        let ccdf_at = ccdf
            .iter()
            .rfind(|&&(v, _)| v <= t)
            .map(|&(_, f)| f)
            .unwrap_or(1.0);
        let mut env = PcvAssignment::new();
        env.set(ids.table.store.t, t)
            .set(ids.table.store.c, t.min(2));
        let pred = contract
            .query(&class, Metric::Instructions, &env)
            .unwrap()
            .value;
        rows.push(vec![
            t.to_string(),
            format!("{ccdf_at:.5}"),
            pred.to_string(),
        ]);
    }
    table(
        out,
        "Figure 2 — CCDF of bucket traversals vs predicted IC (uniform random workload)",
        &["traversals t", "P[T > t]", "predicted IC at t"],
        &rows,
    );
    let p6: f64 = rows[6][1].parse().unwrap();
    outln!(
        out,
        "\nP[traversals > 6] = {:.4} — the operator sets the threshold at 6 (paper: < 0.2% \
         of legitimate packets trip the rehash there).",
        p6
    );
    assert!(p6 < 0.01, "threshold analysis regime drifted: {p6}");
    let env = PcvAssignment::new();
    let rehash_cost = contract
        .query(
            &InputClass::new("rehash", ClassSpec::Tag("src:rehash")),
            Metric::Instructions,
            &env,
        )
        .unwrap()
        .value;
    outln!(
        out,
        "predicted rehash-path IC at threshold crossing: {rehash_cost} — the cliff the threshold guards."
    );
}
