//! Where a replayed packet's host time goes, one sink at a time.
//!
//! Drives `replay_dataplane`'s traffic (the `bolt-ledger` workload's NAT,
//! bridge, load-balancer and LPM segments, same seeds and shapes) through
//! each NF's production build, with the device loop's context instantiated
//! for one sink: `NullTracer` (the NF, `DpdkEnv` and `ConcreteCtx` alone),
//! `CountingTracer`, `Distiller` and `TestbedModel`, then the whole runner
//! (`NfRunner::play_nf`, in the ledger's 512-packet calls). Every pass
//! drives each row once in turn, on fresh NF state, and a row reports its
//! best pass in ns per packet. Each pass also checks that the runner's
//! totals equal the lone counters' and the lone model's.
//!
//! Run with:
//! `cargo run --release -p bolt-distiller --example dataplane_layers -- [--packets N] [--passes N]`
//! (defaults: 20 000 packets a segment, 28 passes). The traffic's seed
//! is fixed, so every run of a size replays the same packets.

use std::hint::black_box;
use std::time::Instant;

use bolt_core::nf::NetworkFunction;
use bolt_distiller::{Distiller, NfRunner};
use bolt_hw::TestbedModel;
use bolt_nfs::bridge::{Bridge, BridgeConfig};
use bolt_nfs::lb::{LbConfig, LoadBalancer};
use bolt_nfs::lpm_router::LpmRouter;
use bolt_nfs::nat::{AllocKind, Nat, NatConfig};
use bolt_see::ConcreteCtx;
use bolt_trace::{AddressSpace, CountingTracer, NullTracer, Tracer};
use bolt_workloads::generators::{
    bridge_collision_attack, bridge_traffic, churn_flows, heartbeats, lpm_traffic, merge,
    uniform_udp_flows,
};
use bolt_workloads::TimedPacket;
use dpdk_sim::{DpdkEnv, StackLevel};
use nf_lib::clock::{Clock, Granularity};
use nf_lib::registry::DsRegistry;

/// Packets per `play_nf` call, as `replay_dataplane` times them.
const CHUNK: usize = 512;

/// The traffic's seed.
const SEED: u64 = 11;

const SINKS: [&str; 5] = [
    "`NullTracer` (NF logic, `DpdkEnv`, `ConcreteCtx`)",
    "`CountingTracer`",
    "`Distiller`",
    "`TestbedModel`",
    "`NfRunner::play_nf` (all of it)",
];

struct Args {
    packets: usize,
    passes: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        packets: 20_000,
        passes: 28,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--packets" => args.packets = number() as usize,
            "--passes" => args.passes = number() as usize,
            _ => panic!("unknown flag {flag} (expected --packets or --passes)"),
        }
    }
    assert!(
        args.packets > 64,
        "--packets must exceed the bridge's 64 attack packets"
    );
    assert!(args.passes > 0, "--passes must be positive");
    args
}

/// The device loop of `NfRunner::play_nf`, with `sink` alone attached.
fn drive<N: NetworkFunction, T: Tracer>(
    nf: &N,
    state: &mut N::State,
    packets: &[TimedPacket],
    granularity: Granularity,
    sink: &mut T,
) {
    let mut env = DpdkEnv::new(StackLevel::FullStack, 512, 2048);
    let mut clock = Clock::new(granularity);
    let mut ctx = ConcreteCtx::new(sink);
    for p in packets {
        clock.advance_to(p.t_ns.max(clock.t_ns));
        ctx.clear_verdicts();
        black_box(env.process_packet(&mut ctx, &p.frame, p.port, |ctx, mbuf| {
            nf.process(ctx, state, &clock, mbuf)
        }));
    }
}

/// One segment: an NF, how to prepare its state, its traffic and clock.
struct Segment<'a, N: NetworkFunction> {
    nf: &'a N,
    prepare: fn(&mut N::State),
    packets: &'a [TimedPacket],
    granularity: Granularity,
}

impl<N: NetworkFunction> Segment<'_, N> {
    fn state(&self) -> N::State {
        let ids = self.nf.register(&mut DsRegistry::new());
        let mut state = self.nf.state(ids, &mut AddressSpace::new());
        (self.prepare)(&mut state);
        state
    }

    /// ns per packet of `sink` on fresh state.
    fn time_sink<T: Tracer>(&self, mut sink: T) -> (f64, T) {
        let mut state = self.state();
        let t0 = Instant::now();
        drive(
            self.nf,
            &mut state,
            self.packets,
            self.granularity,
            &mut sink,
        );
        (self.per_packet(t0), sink)
    }

    fn per_packet(&self, t0: Instant) -> f64 {
        t0.elapsed().as_nanos() as f64 / self.packets.len() as f64
    }

    /// One pass: every row once, in table order.
    fn pass(&self) -> [f64; 5] {
        let (null, _) = self.time_sink(NullTracer);
        let (counting_ns, counting) = self.time_sink(CountingTracer::new());
        let (distiller, _) = self.time_sink(Distiller::new());
        let (model_ns, model) = self.time_sink(TestbedModel::new());

        let mut state = self.state();
        let mut runner = NfRunner::new(StackLevel::FullStack, self.granularity);
        let t0 = Instant::now();
        for chunk in self.packets.chunks(CHUNK) {
            runner.play_nf(self.nf, &mut state, chunk);
        }
        let runner_ns = self.per_packet(t0);

        assert_eq!(
            (runner.total_ic(), runner.total_ma()),
            (counting.instructions(), counting.mem_accesses),
            "the runner counts what the lone counters count"
        );
        let cycles: f64 = runner.samples.iter().map(|s| s.cycles).sum();
        assert_eq!(
            cycles.to_bits(),
            model.cycles_f64().to_bits(),
            "the runner's packets sum to the lone model's cycles"
        );
        [null, counting_ns, distiller, model_ns, runner_ns]
    }
}

/// Best of `passes` passes, per row.
fn best<N: NetworkFunction>(segment: &Segment<'_, N>, passes: usize) -> [f64; 5] {
    let mut best = [f64::INFINITY; 5];
    for _ in 0..passes {
        for (b, ns) in best.iter_mut().zip(segment.pass()) {
            *b = b.min(ns);
        }
    }
    best
}

fn main() {
    let args = parse_args();
    let n = args.packets;

    // The ledger's builds and traffic (`bolt-ledger/src/workloads/replay.rs`).
    let nat = Nat::with(
        NatConfig {
            ttl_ns: 500_000,
            ..NatConfig::default()
        },
        AllocKind::A,
    );
    let bridge = Bridge::with(BridgeConfig::default());
    let lb = LoadBalancer::with(LbConfig {
        hb_ttl_ns: 3_000_000,
        ..LbConfig::default()
    });
    let lpm = LpmRouter::default();

    let nat_pkts = churn_flows(SEED ^ 0x4A, n, 256, 4, 20_000, 0);
    // The bridge's traffic ends in a collision attack on the fresh table.
    const ATTACK: usize = 64;
    let victim = bridge.state(
        bridge.register(&mut DsRegistry::new()),
        &mut AddressSpace::new(),
    );
    let mut bridge_pkts = bridge_traffic(SEED ^ 0xB1, n - ATTACK, 256, false, 10_000);
    let t_attack = bridge_pkts.last().map_or(0, |p| p.t_ns + 10_000);
    let attack = bridge_collision_attack(|m| victim.table.bucket_of(m), 7, ATTACK, 1_000);
    bridge_pkts.extend(attack.into_iter().map(|mut p| {
        p.t_ns += t_attack;
        p
    }));
    const LB_GAP_NS: u64 = 15_000;
    let hb = heartbeats(
        lb.cfg.n_backends,
        (n as u64 * LB_GAP_NS / 1_000_000 + 1) as usize,
        1_000_000,
        lb.cfg.backend_port,
        lb.cfg.hb_udp_port,
    );
    let mut lb_pkts = merge(vec![
        hb,
        uniform_udp_flows(SEED ^ 0x1B, n, 4_096, LB_GAP_NS, 0),
    ]);
    lb_pkts.truncate(n);
    let lpm_pkts = lpm_traffic(SEED ^ 0x19, n, 0x0A00_0100, 0x0B0C_0001, 0.3, 1_000);

    let ms = Granularity::Milliseconds;
    let columns = [
        best(
            &Segment {
                nf: &nat,
                prepare: |_| {},
                packets: &nat_pkts,
                granularity: ms,
            },
            args.passes,
        ),
        best(
            &Segment {
                nf: &bridge,
                prepare: |_| {},
                packets: &bridge_pkts,
                granularity: ms,
            },
            args.passes,
        ),
        best(
            &Segment {
                nf: &lb,
                prepare: |_| {},
                packets: &lb_pkts,
                granularity: ms,
            },
            args.passes,
        ),
        best(
            &Segment {
                nf: &lpm,
                prepare: |s| {
                    s.lpm.insert(0x0A00_0000, 8, 1);
                    s.lpm.insert(0x0B0C_0000, 24, 2);
                },
                packets: &lpm_pkts,
                granularity: Granularity::Nanoseconds,
            },
            args.passes,
        ),
    ];

    println!(
        "ns per packet, best of {} passes, {n} packets a segment, seed {SEED}",
        args.passes
    );
    println!();
    println!("| sink | NAT-A, `churn_flows` | bridge | LB | LPM |");
    println!("|---|---|---|---|---|");
    for (row, name) in SINKS.iter().enumerate() {
        print!("| {name} |");
        for column in &columns {
            print!(" {:.0} |", column[row]);
        }
        println!();
    }
}
