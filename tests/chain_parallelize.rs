//! Contract-proven chain parallelization, end to end: the planner must
//! group a chain's provably-commuting stages (two identical firewalls),
//! keep provably order-dependent pairs sequential (NAT vs. firewall,
//! firewall vs. router), predict a cycle contract strictly below the
//! sequential sum, and cache its plan as a store record that any
//! stage-config change invalidates.

use bolt::core::{encode_contract, stages_commute, ContractStore, Pipeline};
use bolt::expr::PcvAssignment;
use bolt::nfs::firewall::FirewallConfig;
use bolt::nfs::{Firewall, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::solver::{Solver, SolverCache};
use bolt::NetworkFunction;

fn temp_store(tag: &str) -> ContractStore {
    let dir = std::env::temp_dir().join(format!("bolt-chain-plan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ContractStore::open(dir).unwrap()
}

/// The acceptance chain: two interchangeable firewalls, then a router.
fn fw_fw_rt() -> Pipeline<'static> {
    Pipeline::new()
        .push(Firewall::default())
        .push(Firewall::default())
        .push(StaticRouter::default())
}

#[test]
fn parallelize_groups_commuting_stages_and_beats_the_sum() {
    let level = StackLevel::NfOnly;
    let rep = fw_fw_rt().parallelize(level).unwrap();
    let plan = rep.plan.as_ref().expect("parallelize attaches a plan");
    assert_eq!(
        plan.groups,
        vec![vec![0, 1], vec![2]],
        "the identical firewalls group; the router stays sequential"
    );
    assert!(plan.is_parallel());
    assert_eq!(plan.widest_group(), 2);
    // The identical pair commutes trivially (same store key), witnessed.
    assert!(plan
        .witnesses
        .iter()
        .any(|w| w.left == 0 && w.right == 1 && w.commutes && w.identical));
    // The firewall/router pair was probed and provably kept sequential.
    assert!(plan
        .witnesses
        .iter()
        .any(|w| w.right == 2 && !w.commutes && !w.identical));
    // The parallelized cycle contract is max + merge, strictly below
    // the sequential sum.
    let env = PcvAssignment::new();
    assert!(
        plan.parallel_cycles(&env) < plan.sequential_cycles(&env),
        "max+merge ({}cy) must beat the sum ({}cy)",
        plan.parallel_cycles(&env),
        plan.sequential_cycles(&env)
    );
    assert!(plan.predicted_speedup() > 1.0);
    // The semantic contract is untouched: same composed contract as the
    // plain sequential report.
    let plain = fw_fw_rt().report(level).unwrap();
    assert_eq!(
        encode_contract(&rep.contract),
        encode_contract(&plain.contract),
        "planning must not change the composed contract"
    );
    // The report renders the plan.
    let shown = rep.to_string();
    assert!(shown.contains("[firewall | firewall] -> [static_router]"));
    let json = rep.to_json();
    assert!(json.contains("\"groups\": [[0, 1], [2]]"));
}

#[test]
fn nat_and_firewall_are_provably_order_dependent() {
    let level = StackLevel::NfOnly;
    let nat = Nat::default().explore(level).contract().into_inner();
    let fw = Firewall::default().explore(level).contract().into_inner();
    let solver = Solver::default();
    let mut cache = SolverCache::new();
    assert!(
        !stages_commute(&nat, &fw, "nat", "firewall", &solver, &mut cache),
        "NAT before vs. after the firewall must not commute"
    );
    // And the planner keeps them sequential inside a chain.
    let rep = Pipeline::new()
        .push(Nat::default())
        .push(Firewall::default())
        .parallelize(level)
        .unwrap();
    let plan = rep.plan.as_ref().unwrap();
    assert_eq!(plan.groups, vec![vec![0], vec![1]]);
    assert!(!plan.is_parallel());
    assert_eq!(
        plan.parallel_cycles(&PcvAssignment::new()),
        plan.sequential_cycles(&PcvAssignment::new()),
        "an all-sequential plan predicts exactly the sum (merge is free)"
    );
}

#[test]
fn plan_records_cache_and_invalidate_on_stage_config_change() {
    let store = temp_store("invalidate");
    let level = StackLevel::NfOnly;
    let cold = fw_fw_rt().with_store(&store).parallelize(level).unwrap();
    assert!(!cold.plan_cached, "first run computes the plan");
    let warm = fw_fw_rt().with_store(&store).parallelize(level).unwrap();
    assert!(warm.plan_cached, "second run decodes the plan record");
    assert!(
        warm.fully_cached(),
        "a fully warm parallelized run is still solver-free"
    );
    assert_eq!(warm.plan, cold.plan, "cached plan is the computed plan");
    // Reconfigure the second firewall: its stage key moves, so the plan
    // key misses and the pair is no longer trivially interchangeable.
    let mut cfg = FirewallConfig::default();
    cfg.rules.insert(0, (0xC0A80100, 24, 8080));
    let changed = || {
        Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::with(cfg.clone()))
            .push(StaticRouter::default())
    };
    let rep = changed().with_store(&store).parallelize(level).unwrap();
    assert!(
        !rep.plan_cached,
        "a changed stage config must invalidate the stored plan"
    );
    let plan = rep.plan.as_ref().unwrap();
    assert!(
        plan.witnesses
            .iter()
            .all(|w| !(w.left == 0 && w.right == 1 && w.identical)),
        "differently-configured firewalls are not identical stages"
    );
    // And the recomputed plan is itself memoized.
    let rewarm = changed().with_store(&store).parallelize(level).unwrap();
    assert!(rewarm.plan_cached);
    let _ = std::fs::remove_dir_all(store.dir());
}
