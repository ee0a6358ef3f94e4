//! The unified NF API: the object-safe view over every NF, the
//! `process_batch` burst hook, and chain composition through `Pipeline`
//! trait objects.
//!
//! The Pipeline chain must reproduce the §5.2 firewall→router
//! composition result checked in `conservatism.rs` /
//! `crates/core/tests/chain.rs`.

use bolt::core::naive_add;
use bolt::expr::PcvAssignment;
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::trace::Metric;
use bolt::Pipeline;

#[test]
fn all_seven_nfs_expose_names_through_the_trait() {
    // The object-safe view (used by Pipeline) covers every NF.
    let nfs: Vec<Box<dyn bolt::AbstractNf>> = vec![
        Box::new(Bridge::default()),
        Box::new(ExampleRouter::default()),
        Box::new(Firewall::default()),
        Box::new(LoadBalancer::default()),
        Box::new(LpmRouter::default()),
        Box::new(Nat::default()),
        Box::new(StaticRouter::default()),
    ];
    let names: Vec<&str> = nfs.iter().map(|n| n.name()).collect();
    assert_eq!(
        names,
        vec![
            "bridge",
            "example_router",
            "firewall",
            "lb",
            "lpm_router",
            "nat",
            "static_router"
        ]
    );
}

/// `process_batch` must emit exactly the verdicts of the plain
/// per-packet loop, in order — the invariant every overriding burst
/// implementation has to preserve (the default is that loop).
#[test]
fn process_batch_matches_plain_loop() {
    use bolt::dpdk::{headers as h, DpdkEnv};
    use bolt::see::{ConcreteCtx, NfVerdict};
    use bolt::trace::{AddressSpace, CountingTracer};
    use bolt::NetworkFunction;
    use nf_lib::clock::{Clock, Granularity};

    fn frame(dst: u64, src: u64) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(dst, src, h::ETHERTYPE_IPV4)
            .ipv4(0x0a000001, 0x0a000002, h::IPPROTO_UDP, 64)
            .udp(10, 20)
            .build()
    }

    // A bridging workload whose verdicts are order-sensitive: floods
    // while destinations are unknown, forwards once learned, with
    // periodic broadcasts.
    let frames: Vec<(Vec<u8>, u16)> = (0..100u64)
        .map(|i| {
            let src = 0xA0 + (i % 10);
            let dst = if i % 7 == 0 {
                bolt::nfs::bridge::BROADCAST_MAC
            } else {
                0xA0 + ((i + 1) % 10)
            };
            (frame(dst, src), (i % 4) as u16)
        })
        .collect();

    let run = |batched: bool| -> Vec<NfVerdict> {
        let nf = Bridge::default();
        let mut reg = nf_lib::registry::DsRegistry::new();
        let ids = NetworkFunction::register(&nf, &mut reg);
        let mut aspace = AddressSpace::new();
        let mut state = nf.state(ids, &mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let clock = Clock::new(Granularity::Milliseconds);
        let refs: Vec<(&[u8], u16)> = frames.iter().map(|(f, p)| (f.as_slice(), *p)).collect();
        env.process_burst(&mut ctx, &refs, |ctx, mbufs| {
            if batched {
                nf.process_batch(ctx, &mut state, &clock, mbufs);
            } else {
                for mbuf in mbufs.iter() {
                    nf.process(ctx, &mut state, &clock, *mbuf);
                }
            }
        })
    };

    let batched = run(true);
    let plain = run(false);
    assert_eq!(batched.len(), 100);
    assert_eq!(batched, plain, "a burst must preserve verdict order");
    // The workload actually exercises more than one verdict kind.
    assert!(batched.iter().any(|v| matches!(v, NfVerdict::Flood)));
    assert!(batched.iter().any(|v| matches!(v, NfVerdict::Forward(_))));
}

#[test]
fn pipeline_reproduces_the_firewall_router_chain() {
    // The §5.2 composition result, via trait objects: the composed
    // contract masks the router's option paths and beats naive addition.
    let pipeline = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default());
    let chain = pipeline.contract(StackLevel::NfOnly).unwrap();
    let env = PcvAssignment::new();
    for p in &chain.paths {
        assert!(
            !(p.has_tag("no-options") && p.has_tag("ip-options")),
            "firewall-accepted traffic must not reach router option paths"
        );
    }
    let composed_worst = chain
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    let naive = naive_add(
        &pipeline.contracts(StackLevel::NfOnly),
        Metric::Instructions,
        &env,
    );
    assert!(
        composed_worst < naive,
        "composition must beat naive addition: {composed_worst} vs {naive}"
    );
}
