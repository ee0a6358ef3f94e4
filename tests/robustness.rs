//! Tier-1 robustness checks through the public `bolt` facade: endpoint
//! validation, deterministic fault plans, and store crash-consistency
//! at every truncation boundary. The heavyweight torture suites live in
//! `crates/store/tests/torture.rs` and
//! `crates/serve/tests/fault_resilience.rs`; this file pins the same
//! guarantees at the umbrella-crate surface, fast enough for tier 1.

use std::time::Duration;

use bolt::fault::{site, FaultPlan, XorShift64};
use bolt::serve::Endpoint;
use bolt::store::{ContractStore, Fingerprint, RecordKind};

#[test]
fn endpoint_specs_validate_up_front() {
    for bad in ["", "  ", "tcp:", "tcp:hostonly", "tcp::1", "tcp:h:porty"] {
        assert!(Endpoint::parse(bad).is_err(), "{bad:?} must be rejected");
    }
    for good in ["tcp:127.0.0.1:80", "tcp:[::1]:80", "/run/bolt.sock"] {
        let ep = Endpoint::parse(good).unwrap();
        assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }
}

#[test]
fn fault_plans_are_deterministic_and_site_independent() {
    let roll = |seed: u64| {
        let plan = FaultPlan::seeded(seed)
            .with_prob(site::STORE_READ, 0.5)
            .with_prob(site::SERVE_WRITE_ERR, 0.5);
        (0..64)
            .map(|_| {
                (
                    plan.fires(site::STORE_READ),
                    plan.fires(site::SERVE_WRITE_ERR),
                )
            })
            .collect::<Vec<_>>()
    };
    // Same seed ⇒ identical schedule; different seed ⇒ a different one.
    assert_eq!(roll(1), roll(1));
    assert_ne!(roll(1), roll(2));
    // One-shot schedules fire exactly on the named call.
    let plan = FaultPlan::seeded(9).with_at(site::STORE_RENAME, 3);
    let fired: Vec<bool> = (0..5).map(|_| plan.fires(site::STORE_RENAME)).collect();
    assert_eq!(fired, [false, false, true, false, false]);
    assert_eq!(plan.injected(), 1);
    // The stall knob survives the builder chain.
    let plan = FaultPlan::seeded(9).with_stall(Duration::from_millis(7));
    assert_eq!(plan.stall(), Duration::from_millis(7));
    // The raw generator is reproducible too (it also jitters client
    // backoff, where reproducibility aids debugging).
    let mut a = XorShift64::new(42);
    let mut b = XorShift64::new(42);
    assert_eq!(a.next_u64(), b.next_u64());
}

#[test]
fn torn_records_read_as_misses_and_heal_on_reput() {
    let dir = std::env::temp_dir().join(format!("bolt-robustness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ContractStore::with_faults(&dir, None).unwrap();
    let fp = Fingerprint(0xFEED);
    let payload = b"contract bytes that must never be served torn".to_vec();
    store
        .put(fp, RecordKind::Exploration, "nf", 1, 2, &payload)
        .unwrap();
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("bolt"))
        .expect("one record file");
    let full = std::fs::read(&file).unwrap();
    // Sample boundaries (every 7th byte + the edges) keep this fast for
    // tier 1; the store crate's torture test cuts at every byte.
    let cuts: Vec<usize> = (0..full.len())
        .step_by(7)
        .chain([0, full.len() - 1])
        .collect();
    for cut in cuts {
        std::fs::write(&file, &full[..cut]).unwrap();
        assert!(store.get(fp, RecordKind::Exploration).is_none());
    }
    store
        .put(fp, RecordKind::Exploration, "nf", 1, 2, &payload)
        .unwrap();
    assert_eq!(
        store.get(fp, RecordKind::Exploration).as_deref(),
        Some(payload.as_slice())
    );
    // A reopen quarantines scratch debris and keeps the healed record.
    std::fs::write(dir.join(".dead.exp.tmp.1.1"), b"x").unwrap();
    let reopened = ContractStore::with_faults(&dir, None).unwrap();
    assert_eq!(reopened.quarantined(), 1);
    assert!(reopened.get(fp, RecordKind::Exploration).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deepest term nesting in a pool (children precede parents in the arena).
fn max_term_depth(pool: &bolt::expr::TermPool) -> u32 {
    use bolt::expr::Term;
    let mut depths: Vec<u32> = Vec::with_capacity(pool.len());
    for t in pool.nodes() {
        let below = match *t {
            Term::Const { .. } | Term::Sym { .. } => 0,
            Term::Unop { a, .. } | Term::Zext { a, .. } | Term::Trunc { a, .. } => {
                depths[a.index()]
            }
            Term::Binop { a, b, .. } => depths[a.index()].max(depths[b.index()]),
            Term::Ite { c, t, e } => depths[c.index()]
                .max(depths[t.index()])
                .max(depths[e.index()]),
        };
        depths.push(below + 1);
    }
    depths.into_iter().max().unwrap_or(0)
}

#[test]
fn real_contracts_nest_far_below_the_decode_depth_bound() {
    use bolt::nfs::{Firewall, StaticRouter};
    use bolt::see::StackLevel;
    // The store refuses terms nested deeper than 1024 at decode; every
    // contract the repo produces must stay far inside that, so the bound
    // never refuses a valid record. Measured when the bound went in: 6.
    let mut deepest = 0;
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        for name in bolt::serve::NF_NAMES {
            let nf = bolt::serve::nf_by_name(name).unwrap();
            deepest = deepest.max(max_term_depth(&nf.explore_contract(level, None).0.pool));
        }
        let (fw, rt) = (Firewall::default, StaticRouter::default);
        for chain in [
            bolt::Pipeline::new().push(fw()).push(rt()),
            bolt::Pipeline::new().push(rt()).push(fw()),
            bolt::Pipeline::new().push(fw()).push(fw()).push(rt()),
        ] {
            let report = chain.report(level).unwrap();
            deepest = deepest.max(max_term_depth(&report.contract.pool));
        }
    }
    assert!((1..=64).contains(&deepest), "deepest term: {deepest}");
}
