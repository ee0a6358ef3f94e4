//! The persistent contract store, end to end: every NF at both stack
//! levels must round-trip bit-identically through the exploration and
//! contract codecs, warm store runs must perform zero explorations and
//! zero solver queries, decoded contracts must answer queries exactly
//! like fresh ones, and corrupt or version-skewed records must be
//! rejected (re-explored), never trusted.

use bolt::core::nf::NetworkFunction;
use bolt::core::store::{level_tag, store_key, RecordKind, StoreExt};
use bolt::core::{decode_contract, encode_contract, ContractStore, NfContract};
use bolt::expr::PcvAssignment;
use bolt::nfs::{nat, Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::{decode_result, encode_result};
use bolt::see::{ExplorationResult, StackLevel};
use bolt::trace::Metric;
use bolt::{Bolt, Pipeline};

/// An NF variant boxed as an exploration thunk.
type NfThunk = Box<dyn Fn(StackLevel) -> ExplorationResult>;

/// All bench/test NF variants.
fn all_nfs() -> Vec<(&'static str, NfThunk)> {
    vec![
        ("bridge", Box::new(|l| Bridge::default().explore(l).result)),
        (
            "example_router",
            Box::new(|l| ExampleRouter::default().explore(l).result),
        ),
        (
            "firewall",
            Box::new(|l| Firewall::default().explore(l).result),
        ),
        (
            "lb",
            Box::new(|l| LoadBalancer::default().explore(l).result),
        ),
        (
            "lpm_router",
            Box::new(|l| LpmRouter::default().explore(l).result),
        ),
        (
            "nat_a",
            Box::new(|l| {
                Nat::with(nat::NatConfig::default(), nat::AllocKind::A)
                    .explore(l)
                    .result
            }),
        ),
        (
            "nat_b",
            Box::new(|l| {
                Nat::with(nat::NatConfig::default(), nat::AllocKind::B)
                    .explore(l)
                    .result
            }),
        ),
        (
            "static_router",
            Box::new(|l| StaticRouter::default().explore(l).result),
        ),
    ]
}

fn temp_store(tag: &str) -> ContractStore {
    let dir = std::env::temp_dir().join(format!("bolt-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ContractStore::open(dir).unwrap()
}

fn assert_result_identical(name: &str, a: &ExplorationResult, b: &ExplorationResult) {
    assert_eq!(a.pool.nodes(), b.pool.nodes(), "{name}: term arena");
    assert_eq!(a.pool.sym_count(), b.pool.sym_count(), "{name}: symbols");
    for (x, y) in a.pool.sym_entries().zip(b.pool.sym_entries()) {
        assert_eq!(x, y, "{name}: symbol entry");
    }
    assert_eq!(a.paths.len(), b.paths.len(), "{name}: path count");
    for (i, (p, q)) in a.paths.iter().zip(&b.paths).enumerate() {
        assert_eq!(p.constraints, q.constraints, "{name}[{i}]: constraints");
        assert_eq!(p.events, q.events, "{name}[{i}]: events");
        assert_eq!(p.tags, q.tags, "{name}[{i}]: tags");
        assert_eq!(p.verdict, q.verdict, "{name}[{i}]: verdict");
        assert_eq!(p.packet_fields, q.packet_fields, "{name}[{i}]: fields");
        assert_eq!(p.final_packet, q.final_packet, "{name}[{i}]: final packet");
        assert_eq!(p.decisions, q.decisions, "{name}[{i}]: decisions");
    }
    assert_eq!(a.stats, b.stats, "{name}: stats");
    assert_eq!(a.truncated, b.truncated, "{name}: truncation marker");
}

/// decode(encode(exploration)) is bit-identical — paths, constraints,
/// events, tags, verdicts, stats, truncation — for all 8 NF variants at
/// both stack levels, and re-encoding reproduces the exact bytes.
#[test]
fn exploration_codec_round_trips_all_nfs_bit_identically() {
    for (name, explore) in all_nfs() {
        for level in [StackLevel::NfOnly, StackLevel::FullStack] {
            let fresh = explore(level);
            let bytes = encode_result(&fresh);
            let decoded = decode_result(&bytes)
                .unwrap_or_else(|e| panic!("{name}/{level:?}: decode failed: {e}"));
            assert_result_identical(name, &fresh, &decoded);
            assert_eq!(
                encode_result(&decoded),
                bytes,
                "{name}/{level:?}: re-encode"
            );
        }
    }
}

fn assert_contract_identical(name: &str, a: &NfContract, b: &NfContract) {
    assert_eq!(a.paths.len(), b.paths.len(), "{name}: path count");
    for (p, q) in a.paths.iter().zip(&b.paths) {
        assert_eq!(p.index, q.index, "{name}: index");
        assert_eq!(p.constraints, q.constraints, "{name}: constraints");
        assert_eq!(p.tags, q.tags, "{name}: tags");
        assert_eq!(p.verdict, q.verdict, "{name}: verdict");
        for m in Metric::ALL {
            assert_eq!(p.expr(m), q.expr(m), "{name}: {m} expression");
        }
    }
}

/// Contracts generated from decoded explorations — and contracts pushed
/// through the contract codec — answer `query(...)` bit-identically to
/// fresh ones: same worst path, same value, same expression, same IC/MA/
/// cycles, for every NF at both levels.
#[test]
fn decoded_contracts_query_identically_for_all_nfs() {
    let solver = bolt::solver::Solver::default();
    let env = PcvAssignment::new();
    for (name, explore) in all_nfs() {
        for level in [StackLevel::NfOnly, StackLevel::FullStack] {
            let fresh_result = explore(level);
            let bytes = encode_result(&fresh_result);
            let decoded_result = decode_result(&bytes).unwrap();
            // Registries are rebuilt deterministically; an empty one is
            // fine here because `generate` only resolves stateful calls,
            // which both sides replay from identical events. Use the
            // real registry path via a second fresh exploration instead.
            let mut fresh = {
                let (reg, result) = (regenerate_reg(name), fresh_result);
                bolt::core::generate(&reg, result)
            };
            let mut decoded = {
                let reg = regenerate_reg(name);
                bolt::core::generate(&reg, decoded_result)
            };
            assert_contract_identical(name, &fresh, &decoded);
            // And through the contract codec as well.
            let cbytes = encode_contract(&fresh);
            let mut reloaded = decode_contract(&cbytes).unwrap();
            assert_contract_identical(name, &fresh, &reloaded);
            // Worst-case queries agree on the unconstrained class.
            let class = bolt::core::InputClass::unconstrained();
            for m in Metric::ALL {
                let a = fresh.query(&solver, &class, m, &env);
                let b = decoded.query(&solver, &class, m, &env);
                let c = reloaded.query(&solver, &class, m, &env);
                let key = |q: &Option<bolt::core::QueryResult>| {
                    q.as_ref().map(|r| (r.path_index, r.value, r.expr.clone()))
                };
                assert_eq!(key(&a), key(&b), "{name}/{level:?}/{m}");
                assert_eq!(key(&a), key(&c), "{name}/{level:?}/{m}");
            }
        }
    }
}

/// Rebuild the registry an NF variant registers against (registration is
/// deterministic, so this matches the exploration-time registry).
fn regenerate_reg(name: &str) -> nf_lib::registry::DsRegistry {
    let mut reg = nf_lib::registry::DsRegistry::new();
    match name {
        "bridge" => {
            Bridge::default().register(&mut reg);
        }
        "example_router" => {
            ExampleRouter::default().register(&mut reg);
        }
        "firewall" => Firewall::default().register(&mut reg),
        "lb" => {
            LoadBalancer::default().register(&mut reg);
        }
        "lpm_router" => {
            LpmRouter::default().register(&mut reg);
        }
        "nat_a" => {
            Nat::with(nat::NatConfig::default(), nat::AllocKind::A).register(&mut reg);
        }
        "nat_b" => {
            Nat::with(nat::NatConfig::default(), nat::AllocKind::B).register(&mut reg);
        }
        "static_router" => StaticRouter::default().register(&mut reg),
        other => panic!("unknown NF {other}"),
    }
    reg
}

/// The warm path: a second `get_or_explore` against a populated store
/// performs zero explorations and zero solver queries — every scenario
/// is served from disk (`cached == true`, store hit counters advance,
/// and no fresh `ExploreStats` are minted because the explorer never
/// runs).
#[test]
fn warm_store_runs_perform_zero_explorations() {
    let store = temp_store("warm");

    // Cold pass: everything misses, explores, and is persisted.
    let bridge = Bridge::default();
    let nat = Nat::with(nat::NatConfig::default(), nat::AllocKind::A);
    let lpm = LpmRouter::default();
    let mut cold_paths = Vec::new();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let e = store.get_or_explore(&bridge, level);
        assert!(!e.cached, "cold run must explore");
        cold_paths.push(e.result.paths.len());
        let e = store.get_or_explore(&nat, level);
        assert!(!e.cached);
        cold_paths.push(e.result.paths.len());
        let e = store.get_or_explore(&lpm, level);
        assert!(!e.cached);
        cold_paths.push(e.result.paths.len());
    }
    assert_eq!(store.misses(), 6);
    assert_eq!(store.hits(), 0);

    // Warm pass: zero explorations — every result is decoded from disk.
    let mut warm_paths = Vec::new();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let e = store.get_or_explore(&bridge, level);
        assert!(e.cached, "warm run must not explore");
        warm_paths.push(e.result.paths.len());
        let e = store.get_or_explore(&nat, level);
        assert!(e.cached);
        warm_paths.push(e.result.paths.len());
        let e = store.get_or_explore(&lpm, level);
        assert!(e.cached);
        warm_paths.push(e.result.paths.len());
    }
    assert_eq!(store.hits(), 6, "all six scenarios served from disk");
    assert_eq!(cold_paths, warm_paths);

    // The fluent path honours an attached store the same way.
    let e = Bolt::nf(Bridge::default())
        .with_store(&store)
        .explore(StackLevel::FullStack);
    assert!(e.cached, "Bolt::with_store must consult the store");

    // And a decoded exploration still generates a working contract whose
    // stats equal the stored (cold-run) stats bit-for-bit.
    let fresh = Bridge::default().explore(StackLevel::FullStack);
    let warm = store.get_or_explore(&bridge, StackLevel::FullStack);
    assert_result_identical("bridge-warm", &fresh.result, &warm.result);

    let _ = std::fs::remove_dir_all(store.dir());
}

/// A store is used iff the caller attached one. `BOLT_STORE_DIR` is the
/// CLI's variable: with it pointing at an empty directory, the library's
/// front doors neither read nor write there, run after run; the same
/// calls with `with_store` hit on the second run.
#[test]
fn no_store_is_opened_unless_the_caller_attached_one() {
    let dir = std::env::temp_dir().join(format!("bolt-rt-ambient-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("BOLT_STORE_DIR", &dir);
    let level = StackLevel::NfOnly;
    let chain = || {
        Pipeline::new()
            .push(Firewall::default())
            .push(StaticRouter::default())
    };
    for run in 0..2 {
        let e = Bolt::nf(Firewall::default()).explore(level);
        assert!(!e.cached, "run {run}: no store attached, nothing to hit");
        let rep = chain().report(level).unwrap();
        assert_eq!((rep.stages_cached, rep.steps_cached), (0, 0), "run {run}");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "the library must not touch a directory only the environment names"
    );
    std::env::remove_var("BOLT_STORE_DIR");

    let store = ContractStore::open(&dir).unwrap();
    let explore = || {
        Bolt::nf(Firewall::default())
            .with_store(&store)
            .explore(level)
    };
    assert!(!explore().cached);
    assert!(explore().cached);
    let report = || chain().with_store(&store).report(level).unwrap();
    assert!(!report().fully_cached());
    assert!(report().fully_cached());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinct configs and levels get distinct keys; identical ones share.
#[test]
fn store_keys_are_config_sensitive() {
    let a = store_key(&Bridge::default(), StackLevel::FullStack);
    let b = store_key(&Bridge::default(), StackLevel::FullStack);
    assert_eq!(a, b);
    assert_ne!(a, store_key(&Bridge::default(), StackLevel::NfOnly));
    let mut cfg = bolt::nfs::bridge::BridgeConfig::default();
    cfg.rehash_threshold += 1;
    assert_ne!(a, store_key(&Bridge::with(cfg), StackLevel::FullStack));
    // Allocator choice is part of the NAT key.
    assert_ne!(
        store_key(
            &Nat::with(nat::NatConfig::default(), nat::AllocKind::A),
            StackLevel::FullStack
        ),
        store_key(
            &Nat::with(nat::NatConfig::default(), nat::AllocKind::B),
            StackLevel::FullStack
        )
    );
}

/// A corrupted record is rejected and transparently re-explored (and the
/// store heals itself by overwriting the bad record).
#[test]
fn corrupt_records_are_rejected_and_re_explored() {
    let store = temp_store("corrupt");
    let nf = Firewall::default();
    let level = StackLevel::NfOnly;
    let cold = store.get_or_explore(&nf, level);
    assert!(!cold.cached);

    // Flip a byte near the end of the record (payload territory).
    let key = store_key(&nf, level);
    let path = store.dir().join(format!("{key}.exp.bolt"));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5A;
    std::fs::write(&path, &bytes).unwrap();

    let healed = store.get_or_explore(&nf, level);
    assert!(!healed.cached, "corrupt record must force re-exploration");
    assert_result_identical("firewall-healed", &cold.result, &healed.result);
    // The rewrite healed the store: next read is warm again.
    assert!(store.get_or_explore(&nf, level).cached);
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A record written by a different store-format version is rejected.
#[test]
fn version_mismatched_records_are_rejected() {
    let store = temp_store("version");
    let nf = StaticRouter::default();
    let level = StackLevel::FullStack;
    store.get_or_explore(&nf, level);

    let key = store_key(&nf, level);
    let path = store.dir().join(format!("{key}.exp.bolt"));
    let mut bytes = std::fs::read(&path).unwrap();
    // The version field sits right after the 4-byte magic.
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    assert!(
        store.get(key, RecordKind::Exploration).is_none(),
        "version-skewed record must be a miss"
    );
    let e = store.get_or_explore(&nf, level);
    assert!(!e.cached, "version skew must force re-exploration");
    let _ = std::fs::remove_dir_all(store.dir());
}

/// `list` surfaces stored records with their metadata; `evict` removes
/// exactly the addressed record.
#[test]
fn list_and_evict_manage_records() {
    let store = temp_store("list");
    store.get_or_explore(&Bridge::default(), StackLevel::FullStack);
    store.get_or_explore(&Bridge::default(), StackLevel::NfOnly);
    store.get_or_explore(&LpmRouter::default(), StackLevel::FullStack);
    let entries = store.list().unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[0].nf_name, "bridge");
    assert_eq!(entries[0].level, level_tag(StackLevel::NfOnly));
    assert_eq!(entries[1].nf_name, "bridge");
    assert_eq!(entries[2].nf_name, "lpm_router");
    assert_eq!(entries[1].n_paths, 9, "bridge explores 9 paths");

    let key = store_key(&Bridge::default(), StackLevel::NfOnly);
    assert!(store.evict(key, RecordKind::Exploration).unwrap());
    assert_eq!(store.list().unwrap().len(), 2);
    assert!(
        !store
            .get_or_explore(&Bridge::default(), StackLevel::NfOnly)
            .cached
    );
    let _ = std::fs::remove_dir_all(store.dir());
}
