//! Composed-chain contracts, end to end: a composed fw→router contract
//! must round-trip bit-identically through the contract codec at both
//! stack levels and answer `query()` exactly like the fresh composition;
//! a store-aware chain run must be fully solver-free when warm; and
//! changing one stage's configuration must miss the composed record
//! (stale-stage invalidation), never serve it. A planned run reports
//! where each stage and its plan came from, and is fully cached only
//! when its plan record was warm too.

use bolt::core::chain::ChainReport;
use bolt::core::store::{compose_key, store_key, RecordKind, StoreExt};
use bolt::core::{
    decode_contract, encode_contract, Composer, ContractStore, InputClass, NfContract, Pipeline,
};
use bolt::expr::PcvAssignment;
use bolt::nfs::firewall::FirewallConfig;
use bolt::nfs::{Firewall, StaticRouter};
use bolt::see::StackLevel;
use bolt::solver::{Solver, SolverStats};
use bolt::trace::Metric;
use bolt::NetworkFunction;

fn temp_store(tag: &str) -> ContractStore {
    let dir = std::env::temp_dir().join(format!("bolt-chain-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ContractStore::open(dir).unwrap()
}

/// The paper's §5.2 chain, composed fresh (no store).
fn fw_router(level: StackLevel) -> NfContract {
    let fw = Firewall::default().explore(level).contract().into_inner();
    let rt = StaticRouter::default()
        .explore(level)
        .contract()
        .into_inner();
    let solver = Solver::default();
    Composer::new(&solver).compose(&fw, &rt)
}

fn assert_contract_identical(name: &str, a: &NfContract, b: &NfContract) {
    assert_eq!(a.pool.nodes(), b.pool.nodes(), "{name}: term arena");
    assert_eq!(a.pool.sym_count(), b.pool.sym_count(), "{name}: symbols");
    for (x, y) in a.pool.sym_entries().zip(b.pool.sym_entries()) {
        assert_eq!(x, y, "{name}: symbol entry");
    }
    assert_eq!(a.paths.len(), b.paths.len(), "{name}: path count");
    for (p, q) in a.paths.iter().zip(&b.paths) {
        assert_eq!(p.index, q.index, "{name}: index");
        assert_eq!(p.constraints, q.constraints, "{name}: constraints");
        assert_eq!(p.tags, q.tags, "{name}: tags");
        assert_eq!(p.verdict, q.verdict, "{name}: verdict");
        for m in Metric::ALL {
            assert_eq!(p.expr(m), q.expr(m), "{name}: {m} expression");
        }
        assert_eq!(p.packet_fields, q.packet_fields, "{name}: fields");
        assert_eq!(p.final_packet, q.final_packet, "{name}: final packet");
    }
}

/// decode(encode(·)) of a composed fw→router contract is bit-identical
/// at both stack levels, and re-encoding reproduces the exact bytes.
#[test]
fn composed_contract_codec_round_trips_bit_identically() {
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let fresh = fw_router(level);
        let bytes = encode_contract(&fresh);
        let decoded = decode_contract(&bytes)
            .unwrap_or_else(|e| panic!("{level:?}: composed contract decode failed: {e}"));
        assert_contract_identical(&format!("fw->rt/{level:?}"), &fresh, &decoded);
        assert_eq!(encode_contract(&decoded), bytes, "{level:?}: re-encode");
    }
}

/// Decoded composed contracts answer `query()` identically to fresh
/// ones — same worst path, value, and expression — for the §5.2 traffic
/// classes at both stack levels.
#[test]
fn decoded_composed_contracts_query_identically() {
    let solver = Solver::default();
    let env = PcvAssignment::new();
    let classes = [
        InputClass::new("no-options", bolt::core::ClassSpec::Tag("no-options")),
        InputClass::new("ip-options", bolt::core::ClassSpec::Tag("ip-options")),
        InputClass::unconstrained(),
    ];
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let mut fresh = fw_router(level);
        let mut decoded = decode_contract(&encode_contract(&fresh)).unwrap();
        for class in &classes {
            assert_eq!(
                fresh.compatible_paths(&solver, class),
                decoded.compatible_paths(&solver, class),
                "{level:?}/{}: compatible paths",
                class.name
            );
            for m in Metric::ALL {
                let a = fresh.query(&solver, class, m, &env);
                let b = decoded.query(&solver, class, m, &env);
                let key = |q: &Option<bolt::core::QueryResult>| {
                    q.as_ref().map(|r| (r.path_index, r.value, r.expr.clone()))
                };
                assert_eq!(key(&a), key(&b), "{level:?}/{}/{m}", class.name);
            }
        }
        // The §5.2 result itself: composed no-options worst case beats
        // the IP-options path, which the firewall masks entirely.
        let opts = fresh.query(&solver, &classes[1], Metric::Instructions, &env);
        if let Some(q) = &opts {
            assert!(
                fresh.paths[q.path_index].verdict == Some(bolt::see::NfVerdict::Drop),
                "{level:?}: any ip-options path in the chain must be the firewall drop"
            );
        }
    }
}

fn fw_rt_pipeline() -> Pipeline<'static> {
    Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default())
}

fn assert_fully_cached(rep: &ChainReport) {
    assert_eq!(rep.steps_composed, 0, "warm run must compose nothing");
    assert_eq!(rep.stages_explored, 0, "warm run must explore nothing");
    assert_eq!(
        rep.solver,
        SolverStats::default(),
        "warm run must issue zero compose solver requests"
    );
    assert!(rep.fully_cached());
}

/// A store-aware chain run: the cold pass explores both stages and
/// composes one fold step; the warm pass decodes the composed record —
/// zero explorations, zero compose solver queries — and its contract is
/// byte-identical to the cold composition.
#[test]
fn warm_chain_runs_are_fully_solver_free() {
    let store = temp_store("warm");
    let level = StackLevel::FullStack;
    let cold = fw_rt_pipeline().with_store(&store).report(level).unwrap();
    assert_eq!(cold.stages_explored, 2, "cold run explores both stages");
    assert_eq!(cold.steps_composed, 1, "cold run composes the fold step");
    assert_eq!(cold.steps_cached, 0);
    assert!(
        cold.solver.checks_requested > 0,
        "cold composition must do solver work"
    );

    let warm = fw_rt_pipeline().with_store(&store).report(level).unwrap();
    assert_fully_cached(&warm);
    assert_eq!(warm.steps_cached, 1, "the composed record answers the fold");
    assert_eq!(warm.stages_cached, 0, "stage contracts are never touched");
    assert_eq!(
        encode_contract(&warm.contract),
        encode_contract(&cold.contract),
        "cached and fresh composition must be byte-identical"
    );

    // The composed record sits under the chain key, beside (not instead
    // of) the per-stage exploration records.
    let key = fw_rt_pipeline().chain_key(level).unwrap();
    assert!(store.get_composed(key).is_some());
    assert_eq!(
        key,
        compose_key(
            store_key(&Firewall::default(), level),
            store_key(&StaticRouter::default(), level),
            level
        )
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A three-stage chain memoizes every fold step: the warm run decodes
/// only the final composed record (the intermediate one stays on disk
/// for prefix reuse), still fully solver-free.
#[test]
fn longer_chains_memoize_every_fold_step() {
    let store = temp_store("triple");
    let level = StackLevel::NfOnly;
    let build = || {
        Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .push(StaticRouter::default())
    };
    let cold = build().with_store(&store).report(level).unwrap();
    assert_eq!(cold.steps_composed, 2, "two fold steps compose fresh");
    let warm = build().with_store(&store).report(level).unwrap();
    assert_fully_cached(&warm);
    assert_eq!(
        warm.steps_cached, 1,
        "the final composed record short-circuits the whole fold"
    );
    assert_eq!(
        encode_contract(&warm.contract),
        encode_contract(&cold.contract)
    );
    // A chain sharing the two-stage prefix reuses the intermediate
    // record: only its own final step composes.
    let extended = Pipeline::new()
        .push(Firewall::default())
        .push(Firewall::default())
        .with_store(&store)
        .report(level)
        .unwrap();
    assert_fully_cached(&extended);
    assert_eq!(extended.steps_cached, 1, "prefix record reused");
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Changing one stage's configuration changes its stage fingerprint and
/// therefore the composed key: the stale composed record misses and the
/// chain re-composes (nothing stale is ever served).
#[test]
fn stale_stage_fingerprint_invalidates_composed_records() {
    let store = temp_store("stale");
    let level = StackLevel::NfOnly;
    let cold = fw_rt_pipeline().with_store(&store).report(level).unwrap();
    assert_eq!(cold.steps_composed, 1);
    // Same chain shape, different firewall config: one more accept rule.
    let mut cfg = FirewallConfig::default();
    cfg.rules.insert(0, (0xC0A80100, 24, 8080));
    let changed = || {
        Pipeline::new()
            .push(Firewall::with(cfg.clone()))
            .push(StaticRouter::default())
    };
    assert_ne!(
        changed().chain_key(level),
        fw_rt_pipeline().chain_key(level),
        "a changed stage config must move the composed key"
    );
    let recomposed = changed().with_store(&store).report(level).unwrap();
    assert_eq!(
        recomposed.steps_cached, 0,
        "the stale composed record must miss"
    );
    assert_eq!(recomposed.steps_composed, 1);
    assert_eq!(
        recomposed.stages_cached, 1,
        "the unchanged router stage still hits its exploration record"
    );
    assert_eq!(
        recomposed.stages_explored, 1,
        "the reconfigured firewall re-explores"
    );
    // And the new composition is itself memoized.
    let warm = changed().with_store(&store).report(level).unwrap();
    assert_fully_cached(&warm);
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A planned run whose plan record was evicted is not fully cached, even
/// when rebuilding the plan needs no solver probe: two identical
/// firewalls commute by their equal stage keys, and the composed record
/// is still warm.
#[test]
fn a_rebuilt_plan_is_not_fully_cached() {
    let store = temp_store("plan-evicted");
    let level = StackLevel::NfOnly;
    let build = || {
        Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .with_store(&store)
    };
    let cold = build().parallelize(level).unwrap();
    assert!(!cold.fully_cached(), "the cold run explores and composes");
    assert!(build().parallelize(level).unwrap().fully_cached());
    let plans: Vec<_> = store
        .list()
        .unwrap()
        .into_iter()
        .filter(|h| h.kind == RecordKind::Plan)
        .collect();
    assert_eq!(plans.len(), 1, "one plan record");
    for h in &plans {
        assert!(store.evict(h.fingerprint, RecordKind::Plan).unwrap());
    }
    let rebuilt = build().parallelize(level).unwrap();
    assert!(!rebuilt.plan_cached, "the plan was rebuilt");
    assert_eq!(rebuilt.steps_composed, 0, "the composed record is warm");
    assert_eq!(rebuilt.stages_explored, 0, "the stage records are warm");
    assert_eq!(
        rebuilt.solver,
        SolverStats::default(),
        "identical stages commute without a probe"
    );
    assert!(
        !rebuilt.fully_cached(),
        "a run that rebuilt its plan is not fully cached"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A planned fold names where its stages came from: a cold run explores
/// both; with only the composed record evicted, the warm plan skips the
/// planner's stage materialisation, and the fold decodes both stage
/// records and composes its one step.
#[test]
fn a_planned_fold_reports_its_stage_provenance() {
    let store = temp_store("plan-provenance");
    let level = StackLevel::NfOnly;
    let cold = fw_rt_pipeline()
        .with_store(&store)
        .parallelize(level)
        .unwrap();
    assert_eq!(cold.stages_explored, 2, "a cold run explores both stages");
    assert_eq!(cold.stages_cached, 0);
    let key = fw_rt_pipeline().chain_key(level).unwrap();
    assert!(store.evict(key, RecordKind::Composed).unwrap());
    let rerun = fw_rt_pipeline()
        .with_store(&store)
        .parallelize(level)
        .unwrap();
    assert!(rerun.plan_cached, "the plan record is still warm");
    assert_eq!(rerun.stages_cached, 2, "both stages decode from the store");
    assert_eq!(rerun.stages_explored, 0);
    assert_eq!(rerun.steps_composed, 1, "the evicted step composes again");
    assert_eq!(
        encode_contract(&rerun.contract),
        encode_contract(&cold.contract)
    );
    let _ = std::fs::remove_dir_all(store.dir());
}
