//! Dump a deterministic fingerprint of every NF's exploration output:
//! path count, per-path decisions, tags, verdicts, and (IC, MA) metrics.
//! Used to verify that explorer/solver changes keep output bit-identical.
//!
//! Usage: `fingerprint [chain] [N]`. `N` is the thread count (default 1).
//! With `chain`, it instead fingerprints composed chain contracts (paths,
//! tags, verdicts, metrics, and the compose-side solver counters) at both
//! stack levels. The CI `determinism` job diffs both outputs across
//! thread counts, so any scheduling or merge-order leak in the parallel
//! explorer or composer fails the gate.

use bolt::core::nf::NetworkFunction;
use bolt::core::Pipeline;
use bolt::expr::PcvAssignment;
use bolt::nfs::{nat, Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::trace::Metric;

fn dump<N: NetworkFunction + Sync>(name: &str, nf: N, threads: usize) {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let contract = nf.explore_threads(level, threads).contract();
        println!("== {name} {level:?}: {} paths", contract.paths().len());
        let env = PcvAssignment::new();
        for p in contract.paths() {
            let ic = p.expr(Metric::Instructions).eval(&env);
            let ma = p.expr(Metric::MemAccesses).eval(&env);
            let cy = p.expr(Metric::Cycles).eval(&env);
            println!(
                "  {} tags={:?} verdict={:?} ic={ic} ma={ma} cy={cy}",
                p.index, p.tags, p.verdict
            );
        }
    }
}

fn dump_chain(label: &str, chain: &Pipeline<'_>) {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        // Parallelize so the plan — groups, witnesses, predicted cycle
        // contract — is part of the fingerprint; it must be just as
        // thread-count-independent as the composed contract itself.
        let rep = chain.parallelize(level).expect("non-empty chain");
        let key = chain.chain_key(level).expect("non-empty chain");
        println!(
            "== chain {label} {level:?}: {} paths  key {key}",
            rep.contract.paths.len()
        );
        let env = PcvAssignment::new();
        for p in &rep.contract.paths {
            let ic = p.expr(Metric::Instructions).eval(&env);
            let ma = p.expr(Metric::MemAccesses).eval(&env);
            let cy = p.expr(Metric::Cycles).eval(&env);
            println!(
                "  {} tags={:?} verdict={:?} ic={ic} ma={ma} cy={cy}",
                p.index, p.tags, p.verdict
            );
        }
        // Compose-side solver counters are part of the fingerprint: the
        // parallel committer replays the sequential schedule, so these
        // must be byte-identical at any thread count too.
        let s = rep.solver;
        println!(
            "  compose: steps={}+{} requests={} queries={} witness={} memo={} unsat-prop={}",
            rep.steps_composed,
            rep.steps_cached,
            s.checks_requested,
            s.solver_queries,
            s.witness_reuse_hits,
            s.memo_hits,
            s.unsat_by_propagation
        );
        let plan = rep.plan.as_ref().expect("parallelize attaches a plan");
        println!(
            "  plan: {}  seq={}cy par={}cy",
            plan.groups_display(),
            plan.sequential_cycles(&env),
            plan.parallel_cycles(&env)
        );
        for w in &plan.witnesses {
            println!("  witness: {}", plan.describe_witness(w));
        }
    }
}

fn dump_chains(threads: usize) {
    let fw_rt = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default())
        .threads(threads);
    dump_chain("firewall->static_router", &fw_rt);
    let rt_fw = Pipeline::new()
        .push(StaticRouter::default())
        .push(Firewall::default())
        .threads(threads);
    dump_chain("static_router->firewall", &rt_fw);
    let triple = Pipeline::new()
        .push(Firewall::default())
        .push(Firewall::default())
        .push(StaticRouter::default())
        .threads(threads);
    dump_chain("firewall->firewall->static_router", &triple);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let chain = args.next_if(|a| a == "chain").is_some();
    let threads = args
        .next()
        .map_or(1, |n| n.parse().expect("usage: fingerprint [chain] [N]"));
    if chain {
        dump_chains(threads);
        return;
    }
    dump("bridge", Bridge::default(), threads);
    dump("example_router", ExampleRouter::default(), threads);
    dump("firewall", Firewall::default(), threads);
    dump("lb", LoadBalancer::default(), threads);
    dump("lpm_router", LpmRouter::default(), threads);
    dump(
        "nat_a",
        Nat::with(nat::NatConfig::default(), nat::AllocKind::A),
        threads,
    );
    dump(
        "nat_b",
        Nat::with(nat::NatConfig::default(), nat::AllocKind::B),
        threads,
    );
    dump("static_router", StaticRouter::default(), threads);
}
