//! The paper's central soundness property (§2.2): "for any real execution
//! that satisfies the contract's assumptions, the measured performance is
//! guaranteed to be no more than the metric value predicted by the
//! contract" — checked end-to-end for every NF, on randomized workloads,
//! for all three metrics, with the §5.1 gap bound on IC/MA. Everything
//! runs through the fluent `Bolt` pipeline and the `NetworkFunction`
//! trait.

use bolt::core::nf::Contract;
use bolt::core::{ClassSpec, InputClass};
use bolt::distiller::NfRunner;
use bolt::expr::PcvAssignment;
use bolt::lib::clock::Granularity;
use bolt::nfs::bridge::{Bridge, BridgeConfig};
use bolt::nfs::lb::{LbConfig, LoadBalancer};
use bolt::nfs::lpm_router::LpmRouter;
use bolt::nfs::nat::{AllocKind, Nat, NatConfig};
use bolt::see::StackLevel;
use bolt::trace::{AddressSpace, Metric};
use bolt::workloads::generators::*;
use bolt::workloads::TimedPacket;
use bolt::{Bolt, NetworkFunction};

/// For each packet: measured ≤ the worst contract path evaluated at the
/// distilled worst PCV binding. Returns (max measured, predicted bound,
/// gap fraction). `class` restricts the query the way §5.1's per-class
/// methodology does (e.g. the measured workload never rehashes, so its
/// class excludes the rehash cliff).
fn check_bound_class<I>(
    contract: &mut Contract<I>,
    runner: &NfRunner,
    metric: Metric,
    class: &InputClass,
) -> (u64, u64, f64) {
    let env: PcvAssignment = runner.distiller.worst_assignment();
    let bound = contract.query(class, metric, &env).unwrap().value;
    let measured = runner
        .samples
        .iter()
        .map(|s| match metric {
            Metric::Instructions => s.ic,
            Metric::MemAccesses => s.ma,
            Metric::Cycles => s.cycles as u64,
        })
        .max()
        .unwrap();
    assert!(
        bound >= measured,
        "{metric} bound violated: predicted {bound} < measured {measured}"
    );
    let gap = (bound - measured) as f64 / bound as f64;
    (measured, bound, gap)
}

/// Unconstrained-class bound check.
fn check_bound<I>(
    contract: &mut Contract<I>,
    runner: &NfRunner,
    metric: Metric,
) -> (u64, u64, f64) {
    check_bound_class(contract, runner, metric, &InputClass::unconstrained())
}

#[test]
fn bridge_contract_is_conservative_with_small_gap() {
    // The §5.1 gap methodology measures clean per-class traffic: "a few
    // representative classes of input packets that do not encounter hash
    // collisions or entry expirations" (Br2/Br3). Long TTL ⇒ no expiry;
    // small MAC space in a large table ⇒ negligible collisions.
    let nf = Bridge::with(BridgeConfig {
        capacity: 1024,
        ttl_ns: u64::MAX / 2,
        rehash_threshold: 64,
    });
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();

    let mut aspace = AddressSpace::new();
    let mut b = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let pkts = bridge_traffic(11, 3000, 128, false, 10_000);
    runner.play_nf(&nf, &mut b, &pkts);

    let class = InputClass::new("no rehash", ClassSpec::NotTag("src:rehash"));
    let (_, _, _) = check_bound_class(&mut contract, &runner, Metric::MemAccesses, &class);
    let (_, _, _) = check_bound_class(&mut contract, &runner, Metric::Cycles, &class);
    let (measured, bound, gap) =
        check_bound_class(&mut contract, &runner, Metric::Instructions, &class);
    // §5.1: the prediction over-estimates the worst measured packet only
    // through path coalescing; on clean traffic the gap stays small.
    assert!(
        gap <= 0.15,
        "bridge IC gap too large: measured {measured}, bound {bound} ({:.1}%)",
        gap * 100.0
    );
}

#[test]
fn bridge_bound_holds_under_expiry_churn() {
    // Bound-only check on dirty traffic (expiry bursts + collisions):
    // conservatism must hold even when the worst PCVs of different
    // packets combine.
    let nf = Bridge::with(BridgeConfig {
        capacity: 1024,
        ttl_ns: 1_000_000,
        rehash_threshold: 64,
    });
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut b = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let pkts = bridge_traffic(11, 3000, 256, false, 10_000);
    runner.play_nf(&nf, &mut b, &pkts);
    let class = InputClass::new("no rehash", ClassSpec::NotTag("src:rehash"));
    check_bound_class(&mut contract, &runner, Metric::Instructions, &class);
    check_bound_class(&mut contract, &runner, Metric::MemAccesses, &class);
    check_bound_class(&mut contract, &runner, Metric::Cycles, &class);
}

#[test]
fn nat_contract_is_conservative_on_churny_traffic() {
    let nf = Nat::with(
        NatConfig {
            capacity: 1024,
            ttl_ns: 500_000,
            n_ports: 1024,
            ..Default::default()
        },
        AllocKind::A,
    );
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();

    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let pkts = churn_flows(13, 4000, 64, 4, 20_000, 0);
    runner.play_nf(&nf, &mut state, &pkts);
    assert!(
        runner.samples.iter().filter(|s| s.ic > 0).count() == 4000,
        "all packets processed"
    );
    check_bound(&mut contract, &runner, Metric::Instructions);
    check_bound(&mut contract, &runner, Metric::MemAccesses);
    check_bound(&mut contract, &runner, Metric::Cycles);
}

#[test]
fn lb_contract_is_conservative_with_failures() {
    let nf = LoadBalancer::with(LbConfig {
        capacity: 512,
        ttl_ns: 1_000_000,
        hb_ttl_ns: 300_000,
        ..Default::default()
    });
    let cfg = nf.cfg;
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();

    let mut aspace = AddressSpace::new();
    let mut l = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    // Heartbeats for only half the backends → alive and dead paths both
    // exercised; clients churn.
    let hb = heartbeats(
        cfg.n_backends / 2,
        40,
        100_000,
        cfg.backend_port,
        cfg.hb_udp_port,
    );
    let clients = churn_flows(17, 3000, 48, 8, 15_000, 0);
    let pkts = merge(vec![hb, clients]);
    runner.play_nf(&nf, &mut l, &pkts);
    check_bound(&mut contract, &runner, Metric::Instructions);
    check_bound(&mut contract, &runner, Metric::MemAccesses);
    check_bound(&mut contract, &runner, Metric::Cycles);
}

#[test]
fn lpm_router_contract_is_conservative_and_tight() {
    let nf = LpmRouter::default();
    let mut contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();

    let mut aspace = AddressSpace::new();
    let mut r = nf.state(contract.ids, &mut aspace);
    r.lpm.insert(0x0A000000, 8, 1);
    r.lpm.insert(0x0B0C0000, 24, 2); // long path on the 16-bit test geometry
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
    let pkts = lpm_traffic(19, 2000, 0x0A000100, 0x0B0C0001, 0.3, 1000);
    runner.play_nf(&nf, &mut r, &pkts);
    let (measured, bound, gap) = check_bound(&mut contract, &runner, Metric::Instructions);
    // The LPM router is stateless apart from the constant-cost table: the
    // prediction should be nearly exact (paper: ≤7% for IC).
    assert!(
        gap <= 0.07,
        "LPM IC gap exceeds the paper's bound: measured {measured}, bound {bound} ({:.1}%)",
        gap * 100.0
    );
    check_bound(&mut contract, &runner, Metric::MemAccesses);
    check_bound(&mut contract, &runner, Metric::Cycles);
}

#[test]
fn per_packet_predictions_bound_every_packet() {
    // Stronger than the worst-case check: every individual packet's
    // measured IC is bounded by the contract evaluated at that packet's
    // own distilled PCVs (the per-packet methodology of §4).
    let nf = Bridge::with(BridgeConfig {
        capacity: 512,
        ttl_ns: 400_000,
        rehash_threshold: 64,
    });
    let contract = Bolt::nf(nf).explore(StackLevel::FullStack).contract();
    let mut aspace = AddressSpace::new();
    let mut b = nf.state(contract.ids, &mut aspace);
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Milliseconds);
    let pkts: Vec<TimedPacket> = bridge_traffic(23, 1500, 128, false, 30_000);
    runner.play_nf(&nf, &mut b, &pkts);
    for (sample, obs) in runner.samples.iter().zip(runner.distiller.packets()) {
        let env = obs.max_assignment();
        let pred = contract
            .worst(Metric::Instructions, &env)
            .unwrap()
            .expr(Metric::Instructions)
            .eval(&env);
        assert!(
            pred >= sample.ic,
            "packet {}: predicted {pred} < measured {}",
            sample.seq,
            sample.ic
        );
    }
}
