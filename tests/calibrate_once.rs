//! The data-structure library is calibrated once per NF configuration
//! and process (§3.3: library contracts are analysed once and amortised
//! over every analysis that uses them) — not on every exploration and
//! every store hit.
//!
//! `nf_lib::registry::calibrations` counts calibration probes for the
//! whole process, so this file holds exactly one test: a second test in
//! the binary would move the count from another thread. The count
//! repeats exactly, which makes this a machine-independent gate.

use bolt::core::nf::NetworkFunction;
use bolt::lib::registry::{calibrations, DsRegistry};
use bolt::nfs::firewall::FirewallConfig;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Firewall, Nat};
use bolt::see::StackLevel;
use bolt::{AbstractNf, Bolt, ContractStore, Pipeline, StoreExt};

/// Calibration probes `f` ran, and what it returned.
fn probes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = calibrations();
    let out = f();
    (calibrations() - before, out)
}

/// Probes one direct `register` costs: the public hook always
/// calibrates, so this is the unit "one registration" is counted in.
fn one_registration(nf: &Nat) -> u64 {
    let (n, _) = probes(|| nf.register(&mut DsRegistry::new()));
    assert!(n > 0, "a NAT registration calibrates the library");
    n
}

#[test]
fn the_library_calibrates_once_per_configuration() {
    let nat_a = Nat::with(NatConfig::default(), AllocKind::A);
    let (cold, first) = probes(|| Bolt::nf(nat_a).explore(StackLevel::FullStack));
    let first_reg = format!("{:?}", first.reg);
    let per_a = one_registration(&nat_a);
    assert_eq!(cold, per_a, "first use calibrates: one registration");

    // Every further route to the same configuration's registry is free.
    let dir = std::env::temp_dir().join(format!("bolt-calibrate-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ContractStore::open(&dir).unwrap();
    let (again, ()) = probes(|| {
        Bolt::nf(nat_a).explore(StackLevel::FullStack);
        Bolt::nf(nat_a).explore(StackLevel::NfOnly);
        nat_a.explore_contract(StackLevel::NfOnly, None);
        Pipeline::new().push(nat_a).contracts(StackLevel::NfOnly);
        let cold = store.get_or_explore(&nat_a, StackLevel::NfOnly);
        let warm = store.get_or_explore(&nat_a, StackLevel::NfOnly);
        assert!(!cold.cached && warm.cached);
        assert_eq!(format!("{:?}", warm.reg), first_reg);
    });
    assert_eq!(again, 0, "a calibrated configuration is never re-measured");
    let _ = std::fs::remove_dir_all(&dir);

    // A different configuration is calibrated: exactly one registration.
    let nat_b = Nat::with(NatConfig::default(), AllocKind::B);
    let nat_small = Nat::with(
        NatConfig {
            n_ports: 4,
            ..NatConfig::default()
        },
        AllocKind::A,
    );
    for nf in [nat_b, nat_small] {
        let per = one_registration(&nf);
        let (cold, _) = probes(|| Bolt::nf(nf).explore(StackLevel::NfOnly));
        assert_eq!(cold, per, "{nf:?}: one registration on first use");
        let (warm, ()) = probes(|| {
            Bolt::nf(nf).explore(StackLevel::NfOnly);
            Bolt::nf(nf).explore(StackLevel::FullStack);
        });
        assert_eq!(warm, 0, "{nf:?}: and only one");
    }

    // The memo is bounded (`REGISTERED_CAP` = 64 configurations in
    // `bolt_core::nf`; on overflow it starts again). Push that many other
    // configurations through it — stateless ones, which register nothing
    // — and come back: one more registration, the same registry.
    let (fillers, ()) = probes(|| {
        for i in 0..64u32 {
            let rules = vec![(i << 8, 24, 0)];
            Bolt::nf(Firewall::with(FirewallConfig { rules })).explore(StackLevel::NfOnly);
        }
    });
    assert_eq!(fillers, 0, "the firewall has no stateful part to calibrate");
    let (evicted, back) = probes(|| Bolt::nf(nat_a).explore(StackLevel::FullStack));
    assert_eq!(evicted, per_a, "an overflowed memo re-calibrates, once");
    assert_eq!(format!("{:?}", back.reg), first_reg);
    let (settled, _) = probes(|| Bolt::nf(nat_a).explore(StackLevel::FullStack));
    assert_eq!(settled, 0);
}
