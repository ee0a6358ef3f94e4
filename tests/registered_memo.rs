//! The per-configuration registry memo behind `explore` and
//! `get_or_explore`, checked differentially: whatever the memo hands
//! out must render exactly like a registry calibrated afresh by a direct
//! `NetworkFunction::register` call — with other configurations hot, in
//! any visiting order, and when threads race on a cold configuration.

use std::collections::BTreeSet;
use std::fmt::{Debug, Write};
use std::sync::Barrier;

use bolt::core::nf::NetworkFunction;
use bolt::lib::registry::DsRegistry;
use bolt::nfs::bridge::BridgeConfig;
use bolt::nfs::lb::LbConfig;
use bolt::nfs::lpm_router::LpmRouterConfig;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::trace::{DsId, Metric};

/// Everything a contract can read from a registry, as text: the PCV
/// table in id order, every instance name, and every method × case ×
/// metric expression — followed by the registered-state handle.
fn render(reg: &DsRegistry, ids: &impl Debug) -> String {
    let mut out = String::new();
    for (id, name) in reg.pcvs.iter() {
        writeln!(out, "pcv {} = {name}", id.0).unwrap();
    }
    for i in 0..reg.len() {
        let inst = reg.instance(DsId(i as u32));
        writeln!(out, "ds {i} = {}", inst.name).unwrap();
        for method in &inst.contract.methods {
            for case in &method.cases {
                for metric in Metric::ALL {
                    let expr = case.expr(metric).display(&reg.pcvs);
                    writeln!(out, "  {}/{} {metric:?}: {expr}", method.name, case.name).unwrap();
                }
            }
        }
    }
    writeln!(out, "ids = {ids:?}").unwrap();
    out
}

fn fresh<N: NetworkFunction>(nf: &N) -> String
where
    N::Ids: Debug,
{
    let mut reg = DsRegistry::new();
    let ids = nf.register(&mut reg);
    render(&reg, &ids)
}

/// Explore through the library (the memo's client) and require its
/// registry to render like a fresh one; returns that rendering.
fn memo_matches_fresh<N: NetworkFunction>(nf: &N, level: StackLevel) -> String
where
    N::Ids: Debug,
{
    let want = fresh(nf);
    let ex = nf.explore(level);
    assert_eq!(render(&ex.reg, &ex.ids), want, "{}", nf.name());
    want
}

type Check = Box<dyn Fn(StackLevel) -> String>;

fn check<N: NetworkFunction + 'static>(label: &'static str, nf: N) -> (&'static str, Check)
where
    N::Ids: Debug,
{
    (label, Box::new(move |level| memo_matches_fresh(&nf, level)))
}

/// A default configuration, edited.
fn cfg<C: Default>(edit: impl FnOnce(&mut C)) -> C {
    let mut cfg = C::default();
    edit(&mut cfg);
    cfg
}

/// The 8 catalog descriptors, then perturbed configurations of each
/// stateful one.
fn descriptors() -> Vec<(&'static str, Check)> {
    use AllocKind::{A, B};
    let nat = |kind, edit: fn(&mut NatConfig)| Nat::with(cfg(edit), kind);
    let bridge = |edit: fn(&mut BridgeConfig)| Bridge::with(cfg(edit));
    let lb = |edit: fn(&mut LbConfig)| LoadBalancer::with(cfg(edit));
    let lpm = |edit: fn(&mut LpmRouterConfig)| LpmRouter::with(cfg(edit));
    vec![
        check("bridge", Bridge::default()),
        check("example_router", ExampleRouter::default()),
        check("firewall", Firewall::default()),
        check("lb", LoadBalancer::default()),
        check("lpm_router", LpmRouter::default()),
        check("nat-a", nat(A, |_| {})),
        check("nat-b", nat(B, |_| {})),
        check("static_router", StaticRouter::default()),
        check("bridge cap=256", bridge(|c| c.capacity = 256)),
        check("bridge cap=65536", bridge(|c| c.capacity = 65_536)),
        check("bridge rehash=2", bridge(|c| c.rehash_threshold = 2)),
        check("nat-a ports=4", nat(A, |c| c.n_ports = 4)),
        check("nat-b ports=4", nat(B, |c| c.n_ports = 4)),
        check("nat-a ports=1024", nat(A, |c| c.n_ports = 1024)),
        check("nat-b ports=1024", nat(B, |c| c.n_ports = 1024)),
        check("nat-a ports=60000", nat(A, |c| c.n_ports = 60_000)),
        check("nat-a base=2048", nat(A, |c| c.base_port = 2048)),
        check("lb backends=3", lb(|c| c.n_backends = 3)),
        check("lb ring=251", lb(|c| c.ring_size = 251)),
        check("example_router nodes=16", ExampleRouter { max_nodes: 16 }),
        check("lpm_router groups=4", lpm(|c| c.max_groups = 4)),
    ]
}

#[test]
fn memoized_registries_render_like_fresh_ones() {
    let all = descriptors();
    // Interleaved (one from the catalog end of the list, one from the
    // perturbed end, …), and twice: the first pass fills the memo while other configurations
    // are already hot, the second is served from it — at the other stack
    // level, which the key must not depend on.
    let half = all.len().div_ceil(2);
    let order: Vec<usize> = (0..half)
        .flat_map(|i| [i, i + half])
        .filter(|&i| i < all.len())
        .collect();
    assert_eq!(order.len(), all.len());

    let mut distinct = BTreeSet::new();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        for &i in &order {
            let (label, run) = &all[i];
            let rendering = run(level);
            assert!(!rendering.is_empty(), "{label}");
            distinct.insert(rendering);
        }
    }
    // The comparison has teeth only if configurations really calibrate
    // to different registries (each of which matched its own fresh one
    // above, so none was handed another's).
    assert!(
        distinct.len() >= 8,
        "only {} distinct registries among {} descriptors",
        distinct.len(),
        all.len()
    );
    assert_ne!(
        fresh(&Nat::with(NatConfig::default(), AllocKind::A)),
        fresh(&Nat::with(NatConfig::default(), AllocKind::B)),
        "equal configs, different allocator: different library contracts"
    );
}

#[test]
fn racing_threads_on_a_cold_configuration_all_get_the_fresh_registry() {
    // A configuration nothing else in this binary uses, so the four
    // workers released together all find the memo cold.
    let nf = LoadBalancer::with(cfg(|c: &mut LbConfig| {
        c.n_backends = 5;
        c.ring_size = 127;
    }));
    let want = fresh(&nf);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let ex = nf.explore(StackLevel::NfOnly);
                    render(&ex.reg, &ex.ids)
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().unwrap(), want);
        }
    });
}
