//! `replay_dataplane` — the production builds under `NfRunner` at
//! `FullStack`: NAT-A on churning flows, the bridge on uniform traffic
//! ending in a collision-attack burst, the load balancer on uniform
//! flows merged with backend heartbeats, and the LPM router per packet
//! and again in bursts of 32. Traffic is generated from the seed in
//! set-up and replayed in whole passes until time is up, each pass on a
//! fresh runner and fresh NF state so passes are identical and memory
//! stays bounded. `dpdk-sim`, `nf-lib`, `nfs`, `trace`, `hw` and
//! `distiller` do all the work; nothing of the other workloads runs.
//!
//! One operation is one packet. Checks: every segment's worst measured
//! packet (burst) stays within its contract at the distilled PCVs, for
//! all three metrics; every pass repeats the first pass's verdicts and
//! simulated counts exactly; the 14 §5.1 scenarios stay sound and equal
//! the golden table; and a fixed-seed canary replay equals the golden
//! verdict hashes and counts.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bolt_bench::scenarios::all_scenarios;
use bolt_core::nf::{Bolt, Contract};
use bolt_core::{InputClass, NetworkFunction};
use bolt_distiller::NfRunner;
use bolt_expr::Width;
use bolt_nfs::bridge::{Bridge, BridgeConfig, BridgeIds};
use bolt_nfs::lb::{LbConfig, LbIds, LoadBalancer};
use bolt_nfs::lpm_router::{LpmRouter, LpmRouterIds};
use bolt_nfs::nat::{AllocKind, Nat, NatConfig, NatIds};
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict};
use bolt_trace::{AddressSpace, Metric, NullTracer};
use bolt_workloads::generators::{
    bridge_collision_attack, bridge_traffic, churn_flows, heartbeats, lpm_traffic, merge,
    uniform_udp_flows,
};
use bolt_workloads::TimedPacket;
use dpdk_sim::{DpdkEnv, StackLevel};
use nf_lib::clock::Granularity;
use nf_lib::flow_table::{self, FlowTable, FlowTableOps, FlowTableParams};
use nf_lib::lpm_dir24_8::{self, Dir24_8, Dir24_8Ops};
use nf_lib::maglev::{self, MaglevRing, MaglevRingOps};
use nf_lib::port_alloc::{self, AllocatorA, AllocatorB, PortAllocOps};
use nf_lib::registry::DsRegistry;

use super::{Checks, EndToEnd, RunConfig, Windows, Workload};
use crate::fingerprint::{scenario_section, Golden};
use crate::metrics::LayerValues;
use crate::speed::SpeedProbe;
use crate::stats;
use crate::trace::Tracer;

/// Packets per segment and pass. A pass takes about a second, so a run
/// holds many whole passes and the window median has windows to choose
/// from.
const SEGMENT_PACKETS: usize = 20_000;
/// Packets per segment of the fixed-seed canary replay.
const CANARY_PACKETS: usize = 2_048;
const CANARY_SEED: u64 = 0xB017_CA7A;
/// Packets per timed `play` call: one latency sample, one throughput
/// completion. A multiple of [`BURST`].
const CHUNK: usize = 512;
const BURST: usize = 32;
/// Pathological-table capacity of the §5.1 scenarios.
const SCENARIO_CAPACITY: usize = 8192;

/// Segment names in replay order (also the metric stems), and the span
/// each segment's `play` calls are recorded under.
const SEGMENTS: [&str; 5] = ["nat", "bridge", "lb", "lpm", "lpm_burst32"];
const SPANS: [&str; 5] = [
    "runner.nat",
    "runner.bridge",
    "runner.lb",
    "runner.lpm",
    "runner.lpm_burst32",
];

/// One pass's traffic, per segment (the burst segment replays `lpm`).
struct Traffic {
    nat: Vec<TimedPacket>,
    bridge: Vec<TimedPacket>,
    lb: Vec<TimedPacket>,
    lpm: Vec<TimedPacket>,
}

/// What one segment of one pass measured.
#[derive(Clone, PartialEq, Debug)]
struct Exact {
    packets: usize,
    verdict_hash: u64,
    ic: u64,
    ma: u64,
    sim_cycles: u64,
}

struct SegmentOutcome {
    exact: Exact,
    busy_ns: u64,
    /// Soundness per metric: measured worst within predicted.
    sound: [Result<(), String>; 3],
}

fn fnv(hash: &mut u64, byte: u8) {
    *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
}

fn hash_verdict(hash: &mut u64, v: NfVerdict) {
    match v {
        NfVerdict::Forward(port) => {
            fnv(hash, 1);
            fnv(hash, port as u8);
            fnv(hash, (port >> 8) as u8);
        }
        NfVerdict::Drop => fnv(hash, 2),
        NfVerdict::Flood => fnv(hash, 3),
    }
}

/// Where a pass's timing samples go. The clock counts the runner's
/// `play` calls alone; one window is one whole pass, so every window
/// holds the same packets.
struct Timing<'a> {
    clock_ns: u64,
    windows: Windows,
    probe: SpeedProbe,
    tracer: &'a mut Tracer,
}

impl<'a> Timing<'a> {
    fn new(tracer: &'a mut Tracer) -> Self {
        Timing {
            clock_ns: 0,
            windows: Windows::manual(),
            probe: SpeedProbe::new(),
            tracer,
        }
    }
}

/// Replay one segment on a fresh runner and fresh state.
#[allow(clippy::too_many_arguments)]
fn play_segment<N: NetworkFunction>(
    segment: usize,
    nf: &N,
    contract: &mut Contract<N::Ids>,
    prepare: impl Fn(&mut N::State),
    packets: &[TimedPacket],
    burst: Option<usize>,
    granularity: Granularity,
    timing: &mut Timing<'_>,
) -> SegmentOutcome {
    let mut aspace = AddressSpace::new();
    let mut state = nf.state(contract.ids, &mut aspace);
    prepare(&mut state);
    let mut runner = NfRunner::new(StackLevel::FullStack, granularity);
    let mut busy_ns = 0u64;
    for chunk in packets.chunks(CHUNK) {
        let t0 = Instant::now();
        timing
            .tracer
            .batch(SPANS[segment], chunk.len() as u32, || match burst {
                Some(b) => runner.play_nf_bursts(nf, &mut state, chunk, b),
                None => runner.play_nf(nf, &mut state, chunk),
            });
        let ns = t0.elapsed().as_nanos() as u64;
        busy_ns += ns;
        timing.clock_ns += ns;
        timing.windows.latency_ns(ns / chunk.len() as u64);
        let windows = &mut timing.windows;
        timing.probe.after(ns, |kernel| windows.kernel_ns(kernel));
        timing.windows.complete(timing.clock_ns, chunk.len() as u64);
    }

    let mut verdict_hash = 0xCBF2_9CE4_8422_2325u64;
    let mut sim_cycles = 0u64;
    let mut worst = [0u64; 3];
    for s in &runner.samples {
        hash_verdict(&mut verdict_hash, s.verdict);
        sim_cycles += s.cycles as u64;
        worst = [
            worst[0].max(s.ic),
            worst[1].max(s.ma),
            worst[2].max(s.cycles as u64),
        ];
    }
    for b in &runner.burst_samples {
        for v in &b.verdicts {
            hash_verdict(&mut verdict_hash, *v);
        }
        sim_cycles += b.cycles as u64;
        worst = [
            worst[0].max(b.ic),
            worst[1].max(b.ma),
            worst[2].max(b.cycles as u64),
        ];
    }
    let env = timing.tracer.time("distiller.worst_assignment", || {
        runner.distiller.worst_assignment()
    });
    // The contract bounds one packet, so it bounds a burst linearly.
    let scale = burst.unwrap_or(1) as u64;
    let class = InputClass::unconstrained();
    let sound = Metric::ALL.map(|m| {
        let predicted = contract
            .query(&class, m, &env)
            .map(|r| r.value * scale)
            .ok_or_else(|| format!("{}: no path for {m}", SEGMENTS[segment]))?;
        let measured = worst[m.index()];
        if measured <= predicted {
            Ok(())
        } else {
            Err(format!(
                "{}: soundness escape on {m}: measured {measured} > predicted {predicted}",
                SEGMENTS[segment]
            ))
        }
    });
    SegmentOutcome {
        exact: Exact {
            packets: packets.len(),
            verdict_hash,
            ic: runner.total_ic(),
            ma: runner.total_ma(),
            sim_cycles,
        },
        busy_ns,
        sound,
    }
}

/// The production builds replayed, each with the contract that bounds it.
struct Builds {
    nat: Nat,
    nat_contract: Contract<NatIds>,
    bridge: Bridge,
    bridge_contract: Contract<BridgeIds>,
    lb: LoadBalancer,
    lb_contract: Contract<LbIds>,
    lpm: LpmRouter,
    lpm_contract: Contract<LpmRouterIds>,
}

/// The workload.
pub struct Replay {
    golden: Golden,
    builds: Builds,
    traffic: Traffic,
    /// The first pass's exact outcome; later passes must repeat it.
    first_pass: Option<Vec<Exact>>,
}

fn descriptors() -> (Nat, Bridge, LoadBalancer, LpmRouter) {
    (
        Nat::with(
            NatConfig {
                ttl_ns: 500_000,
                ..NatConfig::default()
            },
            AllocKind::A,
        ),
        Bridge::with(BridgeConfig::default()),
        LoadBalancer::with(LbConfig {
            hb_ttl_ns: 3_000_000,
            ..LbConfig::default()
        }),
        LpmRouter::default(),
    )
}

fn prepare_lpm(state: &mut <LpmRouter as NetworkFunction>::State) {
    state.lpm.insert(0x0A00_0000, 8, 1);
    state.lpm.insert(0x0B0C_0000, 24, 2);
}

fn generate_traffic(seed: u64, n: usize, bridge: &Bridge, lb: &LoadBalancer) -> Traffic {
    // The attacker knows the hash function and the table's initial seed
    // (every pass starts from the same fresh state).
    const ATTACK: usize = 64;
    let mut reg = DsRegistry::new();
    let ids = bridge.register(&mut reg);
    let victim = bridge.state(ids, &mut AddressSpace::new());
    let legit = bridge_traffic(seed ^ 0xB1, n - ATTACK, 256, false, 10_000);
    let t_attack = legit.last().map_or(0, |p| p.t_ns + 10_000);
    let mut attack = bridge_collision_attack(|m| victim.table.bucket_of(m), 7, ATTACK, 1_000);
    for p in &mut attack {
        p.t_ns += t_attack;
    }
    let cfg = lb.cfg;
    const LB_GAP_NS: u64 = 15_000;
    let hb_rounds = (n as u64 * LB_GAP_NS / 1_000_000 + 1) as usize;
    let hb = heartbeats(
        cfg.n_backends,
        hb_rounds,
        1_000_000,
        cfg.backend_port,
        cfg.hb_udp_port,
    );
    let mut lb_pkts = merge(vec![
        hb,
        uniform_udp_flows(seed ^ 0x1B, n, 4_096, LB_GAP_NS, 0),
    ]);
    lb_pkts.truncate(n);
    Traffic {
        nat: churn_flows(seed ^ 0x4A, n, 256, 4, 20_000, 0),
        bridge: legit.into_iter().chain(attack).collect(),
        lb: lb_pkts,
        lpm: lpm_traffic(seed ^ 0x19, n, 0x0A00_0100, 0x0B0C_0001, 0.3, 1_000),
    }
}

impl Builds {
    /// Replay every segment once. Returns the per-segment outcomes.
    fn pass(&mut self, traffic: &Traffic, timing: &mut Timing<'_>) -> Vec<SegmentOutcome> {
        let ms = Granularity::Milliseconds;
        vec![
            play_segment(
                0,
                &self.nat,
                &mut self.nat_contract,
                |_| {},
                &traffic.nat,
                None,
                ms,
                timing,
            ),
            play_segment(
                1,
                &self.bridge,
                &mut self.bridge_contract,
                |_| {},
                &traffic.bridge,
                None,
                ms,
                timing,
            ),
            play_segment(
                2,
                &self.lb,
                &mut self.lb_contract,
                |_| {},
                &traffic.lb,
                None,
                ms,
                timing,
            ),
            play_segment(
                3,
                &self.lpm,
                &mut self.lpm_contract,
                prepare_lpm,
                &traffic.lpm,
                None,
                Granularity::Nanoseconds,
                timing,
            ),
            play_segment(
                4,
                &self.lpm,
                &mut self.lpm_contract,
                prepare_lpm,
                &traffic.lpm,
                Some(BURST),
                Granularity::Nanoseconds,
                timing,
            ),
        ]
    }
}

impl Replay {
    /// Soundness of every segment, and that the pass repeats the first.
    fn verify_pass(&mut self, outcomes: &[SegmentOutcome], checks: &mut Checks) {
        for o in outcomes {
            for s in &o.sound {
                checks.check(s.clone());
            }
        }
        let exact: Vec<Exact> = outcomes.iter().map(|o| o.exact.clone()).collect();
        match &self.first_pass {
            None => self.first_pass = Some(exact),
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&exact).enumerate() {
                    checks.ensure(a == b, || {
                        format!(
                            "{}: pass differs from the first: {b:?} vs {a:?}",
                            SEGMENTS[i]
                        )
                    });
                }
            }
        }
    }

    /// Untraced (or traced) passes until `seconds` have passed, or
    /// exactly `passes` of them.
    fn passes(
        &mut self,
        passes: Option<usize>,
        seconds: f64,
        checks: &mut Checks,
        tracer: &mut Tracer,
    ) -> (Windows, Vec<SegmentOutcome>) {
        let mut timing = Timing::new(tracer);
        let mut last = Vec::new();
        let t0 = Instant::now();
        let mut done = 0usize;
        while passes.map_or(t0.elapsed().as_secs_f64() < seconds, |n| done < n) {
            timing.tracer.next_op();
            last = self.builds.pass(&self.traffic, &mut timing);
            timing.windows.close(timing.clock_ns);
            self.verify_pass(&last, checks);
            done += 1;
        }
        (timing.windows, last)
    }

    /// The seed-independent checks: the §5.1 scenario table and the
    /// fixed-seed canary replay, both against the golden file. Returns
    /// the scenario rows' predicted/measured geomeans `(ic, cycles)`.
    fn fixed_checks(&mut self, checks: &mut Checks) -> (f64, f64) {
        let rows = all_scenarios(SCENARIO_CAPACITY);
        let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
        for r in &rows {
            for m in Metric::ALL {
                let (measured, predicted) = (r.measured[m.index()], r.predicted[m.index()]);
                checks.ensure(measured <= predicted, || {
                    format!(
                        "{}: soundness escape on {m}: measured {measured} > predicted {predicted}",
                        r.name
                    )
                });
                if measured > 0 {
                    ratios[m.index()].push(predicted as f64 / measured as f64);
                }
            }
        }
        checks.check(
            self.golden
                .check(&scenario_section(SCENARIO_CAPACITY, &rows)),
        );
        let canary = self.canary_section();
        checks.check(self.golden.check(&canary));
        (
            stats::geomean(&ratios[Metric::Instructions.index()]),
            stats::geomean(&ratios[Metric::Cycles.index()]),
        )
    }

    /// Fingerprint of the fixed-seed canary replay.
    fn canary_section(&mut self) -> String {
        let builds = &mut self.builds;
        let traffic = generate_traffic(CANARY_SEED, CANARY_PACKETS, &builds.bridge, &builds.lb);
        let mut off = Tracer::disabled();
        let outcomes = builds.pass(&traffic, &mut Timing::new(&mut off));
        let mut out = format!("== canary {CANARY_SEED:#x}: {} segments\n", outcomes.len());
        for (name, o) in SEGMENTS.iter().zip(&outcomes) {
            let e = &o.exact;
            out.push_str(&format!(
                "  {name} packets={} verdicts={:016x} ic={} ma={} cycles={} sound={}\n",
                e.packets,
                e.verdict_hash,
                e.ic,
                e.ma,
                e.sim_cycles,
                o.sound.iter().all(Result::is_ok)
            ));
        }
        out
    }

    /// The golden file's text, regenerated.
    pub fn golden_text() -> Result<String, String> {
        let cfg = RunConfig {
            seed: 0,
            seconds: 0.0,
            trace: false,
        };
        let mut w = Replay::build(&cfg, Golden::parse(""))?;
        let rows = all_scenarios(SCENARIO_CAPACITY);
        Ok(format!(
            "{}{}",
            scenario_section(SCENARIO_CAPACITY, &rows),
            w.canary_section()
        ))
    }

    fn build(cfg: &RunConfig, golden: Golden) -> Result<Replay, String> {
        let (nat, bridge, lb, lpm) = descriptors();
        let level = StackLevel::FullStack;
        let traffic = generate_traffic(cfg.seed, SEGMENT_PACKETS, &bridge, &lb);
        Ok(Replay {
            golden,
            builds: Builds {
                nat_contract: Bolt::nf(nat).threads(1).explore(level).contract(),
                nat,
                bridge_contract: Bolt::nf(bridge).threads(1).explore(level).contract(),
                bridge,
                lb_contract: Bolt::nf(lb).threads(1).explore(level).contract(),
                lb,
                lpm_contract: Bolt::nf(lpm).threads(1).explore(level).contract(),
                lpm,
            },
            traffic,
            first_pass: None,
        })
    }
}

impl Workload for Replay {
    fn setup(cfg: &RunConfig, _dir: &Path, _checks: &mut Checks) -> Result<Self, String> {
        let mut w = Replay::build(cfg, Golden::parse(include_str!("../../golden/replay.txt")))?;
        // Warm-up: the canary replay pages in every NF and the runner.
        black_box(w.canary_section());
        Ok(w)
    }

    fn measure(&mut self, _cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd {
        let (windows, _) = self.passes(None, seconds, checks, &mut Tracer::disabled());
        self.fixed_checks(checks);
        EndToEnd::from_windows(
            "one packet through a production NF build under the runner (window: one pass over \
             all five segments; latency: per-packet mean of a 512-packet chunk)",
            &windows,
        )
    }

    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        let (reference, _) = self.passes(None, cfg.seconds * 0.25, checks, &mut Tracer::disabled());
        let untraced_us = stats::median(&reference.p50_us);
        layers.set("client.op_p90_us", stats::median(&reference.p90_us));

        let passes = (cfg.seconds / 4.0).ceil().max(1.0) as usize;
        let (traced, outcomes) = self.passes(Some(passes), 0.0, checks, tracer);
        let mut packets = 0usize;
        let mut cycles = 0u64;
        let mut busy_ns = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            let per_pkt_ns = tracer.mean_ns(SPANS[i]);
            if per_pkt_ns > 0.0 {
                layers.set(
                    &format!("runner.{}_pkts_per_s", SEGMENTS[i]),
                    1e9 / per_pkt_ns,
                );
            }
            if i < 4 {
                layers.set(
                    &format!("runner.{}_sim_cycles_per_pkt", SEGMENTS[i]),
                    o.exact.sim_cycles as f64 / o.exact.packets as f64,
                );
            }
            packets += o.exact.packets;
            cycles += o.exact.sim_cycles;
            busy_ns += o.busy_ns;
        }
        layers.set("replay.sim_cycles_per_pkt", cycles as f64 / packets as f64);
        layers.set(
            "distiller.worst_assignment_us",
            tracer.mean_ns("distiller.worst_assignment") / 1e3,
        );
        let (ic_x, cycles_x) = self.fixed_checks(checks);
        layers.set("tight.ic_geomean_x", ic_x);
        layers.set("tight.cycles_geomean_x", cycles_x);
        if untraced_us > 0.0 {
            let traced_us = stats::median(&traced.p50_us);
            layers.set(
                "ledger.trace_overhead_pct",
                (traced_us - untraced_us) / untraced_us * 100.0,
            );
            // Share of the pass's wall time spent inside the runner's
            // `play` calls (the rest is state construction and checks,
            // outside the measured clock).
            let span_ns: f64 = (0..SEGMENTS.len())
                .map(|i| tracer.mean_ns(SPANS[i]) * outcomes[i].exact.packets as f64)
                .sum();
            layers.set(
                "ledger.accounted_pct",
                span_ns / busy_ns.max(1) as f64 * 100.0,
            );
        }
        self.probes(tracer, layers);
    }
}

impl Replay {
    /// The layers under the runner, driven directly: the device loop
    /// with an empty NF body, and the five `nf-lib` operations of the
    /// `ds_micro` bench.
    fn probes(&self, tracer: &mut Tracer, layers: &mut LayerValues) {
        const N: u32 = 200_000;
        let frame = &self.traffic.lpm[0].frame;
        {
            let mut env = DpdkEnv::new(StackLevel::FullStack, 512, 2048);
            let mut t = NullTracer;
            let mut ctx = ConcreteCtx::new(&mut t);
            tracer.batch("dpdk.process_packet", N, || {
                for _ in 0..N {
                    black_box(env.process_packet(&mut ctx, frame, 0, |_, _| {}));
                }
            });
        }
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mut reg = DsRegistry::new();
        let mut aspace = AddressSpace::new();
        {
            let params = FlowTableParams {
                capacity: 4096,
                ttl_ns: u64::MAX / 2,
            };
            let ids = flow_table::register::<3>(&mut reg, "ft", "", params);
            let mut table = FlowTable::<3>::new(ids, params, &mut aspace);
            let now = ctx.lit(0, Width::W64);
            for i in 0..2048u64 {
                let k = [
                    ctx.lit(i, Width::W64),
                    ctx.lit(1, Width::W64),
                    ctx.lit(2, Width::W64),
                ];
                let v = ctx.lit(i, Width::W64);
                FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &k, v, now);
            }
            tracer.batch("nflib.flow_table_get", N, || {
                for i in 0..u64::from(N) {
                    let k = [
                        ctx.lit(i % 2048, Width::W64),
                        ctx.lit(1, Width::W64),
                        ctx.lit(2, Width::W64),
                    ];
                    black_box(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &k, now));
                }
            });
        }
        {
            let ids = lpm_dir24_8::register(&mut reg, "lpm");
            let mut table = Dir24_8::new(ids, 16, 64, 0, &mut aspace);
            table.insert(0x0A00_0000, 8, 1);
            table.insert(0x0B0C_0000, 24, 2);
            let mut x = 0u64;
            tracer.batch("nflib.dir24_8_lookup", N, || {
                for _ in 0..N {
                    x = x.wrapping_add(0x0100_0193);
                    let ip = ctx.lit(x & 0xFFFF_FFFF, Width::W32);
                    black_box(Dir24_8Ops::<_>::lookup(&mut table, &mut ctx, ip));
                }
            });
        }
        {
            let ids = maglev::register_ring(&mut reg, "ring", 16, 65537);
            let mut ring = MaglevRing::new(ids, 16, 65537, &mut aspace);
            let mut x = 0u64;
            tracer.batch("nflib.maglev_lookup", N, || {
                for _ in 0..N {
                    x = x.wrapping_add(0x9E37_79B9);
                    let h = ctx.lit(x, Width::W64);
                    black_box(MaglevRingOps::<_>::lookup(&mut ring, &mut ctx, h));
                }
            });
        }
        {
            let ia = port_alloc::register_a(&mut reg, "a", 4096, 1024);
            let ib = port_alloc::register_b(&mut reg, "b", 4096, 1024);
            let mut a = AllocatorA::new(ia, 4096, 1024, &mut aspace);
            let mut b = AllocatorB::new(ib, 4096, 1024, &mut aspace);
            tracer.batch("nflib.alloc_a_roundtrip", N, || {
                for _ in 0..N {
                    if let Some(p) = PortAllocOps::<_>::alloc(&mut a, &mut ctx) {
                        PortAllocOps::<_>::free(&mut a, &mut ctx, p);
                        black_box(p);
                    }
                }
            });
            tracer.batch("nflib.alloc_b_roundtrip", N, || {
                for _ in 0..N {
                    if let Some(p) = PortAllocOps::<_>::alloc(&mut b, &mut ctx) {
                        PortAllocOps::<_>::free(&mut b, &mut ctx, p);
                        black_box(p);
                    }
                }
            });
        }
        for (metric, span) in [
            ("dpdk.process_packet_ns", "dpdk.process_packet"),
            ("nflib.flow_table_get_ns", "nflib.flow_table_get"),
            ("nflib.dir24_8_lookup_ns", "nflib.dir24_8_lookup"),
            ("nflib.maglev_lookup_ns", "nflib.maglev_lookup"),
            ("nflib.alloc_a_roundtrip_ns", "nflib.alloc_a_roundtrip"),
            ("nflib.alloc_b_roundtrip_ns", "nflib.alloc_b_roundtrip"),
        ] {
            layers.set(metric, tracer.mean_ns(span));
        }
    }
}
