//! The runner's one-pass sink against the three sinks run one after
//! another: a run's event stream is recorded once with a
//! [`RecordingTracer`], replayed into a fresh [`CountingTracer`], a fresh
//! [`TestbedModel`] and a fresh [`Distiller`] in turn, and everything
//! [`NfRunner`] recorded on the same traffic — IC, MA, cycles to the bit,
//! verdicts, PCV observations — must equal what the separate sinks say,
//! per packet and per burst of 32.

use bolt_core::nf::NetworkFunction;
use bolt_distiller::{Distiller, NfRunner};
use bolt_hw::TestbedModel;
use bolt_nfs::bridge::{Bridge, BridgeConfig};
use bolt_nfs::lb::{LbConfig, LoadBalancer};
use bolt_nfs::lpm_router::LpmRouter;
use bolt_nfs::nat::{AllocKind, Nat, NatConfig};
use bolt_see::{ConcreteCtx, NfVerdict};
use bolt_trace::{AddressSpace, CountingTracer, Marker, RecordingTracer, TraceEvent, Tracer};
use bolt_workloads::generators::{
    bridge_traffic, churn_flows, heartbeats, lpm_traffic, merge, uniform_udp_flows,
};
use bolt_workloads::TimedPacket;
use dpdk_sim::{DpdkEnv, StackLevel};
use nf_lib::clock::{Clock, Granularity};
use nf_lib::registry::DsRegistry;

const PACKETS: usize = 1_024;
const BURST: usize = 32;

fn fresh_state<N: NetworkFunction>(nf: &N, prepare: impl Fn(&mut N::State)) -> N::State {
    let ids = nf.register(&mut DsRegistry::new());
    let mut state = nf.state(ids, &mut AddressSpace::new());
    prepare(&mut state);
    state
}

/// The runner's device loop with nothing but a recorder attached: the
/// event stream and the verdicts of each iteration (a packet, or a
/// burst).
fn record<N: NetworkFunction>(
    nf: &N,
    state: &mut N::State,
    packets: &[TimedPacket],
    granularity: Granularity,
    burst: Option<usize>,
) -> (Vec<TraceEvent>, Vec<Vec<NfVerdict>>) {
    let mut rec = RecordingTracer::new();
    let mut env = DpdkEnv::new(StackLevel::FullStack, 512, 2048);
    let mut clock = Clock::new(granularity);
    let mut verdicts = Vec::new();
    let mut ctx = ConcreteCtx::new(&mut rec);
    for chunk in packets.chunks(burst.unwrap_or(1)) {
        let t_last = chunk.iter().map(|p| p.t_ns).max().unwrap();
        clock.advance_to(t_last.max(clock.t_ns));
        verdicts.push(match burst {
            None => {
                let p = &chunk[0];
                vec![env.process_packet(&mut ctx, &p.frame, p.port, |ctx, mbuf| {
                    nf.process(ctx, state, &clock, mbuf)
                })]
            }
            Some(_) => {
                let frames: Vec<(&[u8], u16)> =
                    chunk.iter().map(|p| (p.frame.as_slice(), p.port)).collect();
                env.process_burst(&mut ctx, &frames, |ctx, mbufs| {
                    for &mbuf in mbufs {
                        nf.process(ctx, state, &clock, mbuf);
                    }
                })
            }
        });
    }
    (rec.events, verdicts)
}

/// `(first seq, ic, ma, cycles)` of every device-loop iteration — first
/// `PacketStart` to `TxDone` — read off sinks that see nothing else.
fn iterations(events: &[TraceEvent]) -> Vec<(u64, u64, u64, f64)> {
    let mut counting = CountingTracer::new();
    let mut model = TestbedModel::new();
    let mut out = Vec::new();
    let mut open = None;
    for &ev in events {
        counting.event(ev);
        model.event(ev);
        match ev {
            TraceEvent::Mark(Marker::PacketStart(seq)) if open.is_none() => {
                open = Some((
                    seq,
                    counting.instructions(),
                    counting.mem_accesses,
                    model.cycles_f64(),
                ));
            }
            TraceEvent::Mark(Marker::TxDone) => {
                let (seq, ic, ma, cycles) = open.take().unwrap();
                out.push((
                    seq,
                    counting.instructions() - ic,
                    counting.mem_accesses - ma,
                    model.cycles_f64() - cycles,
                ));
            }
            _ => {}
        }
    }
    out
}

fn check<N: NetworkFunction>(
    nf: &N,
    prepare: impl Fn(&mut N::State) + Copy,
    packets: &[TimedPacket],
    granularity: Granularity,
) -> NfRunner {
    let mut last = None;
    for burst in [None, Some(BURST)] {
        let (events, verdicts) = record(
            nf,
            &mut fresh_state(nf, prepare),
            packets,
            granularity,
            burst,
        );
        let mut runner = NfRunner::new(StackLevel::FullStack, granularity);
        let mut state = fresh_state(nf, prepare);
        // Two calls: the second must pick up where the first left off.
        let (head, tail) = packets.split_at(packets.len() / 2 / BURST * BURST);
        for part in [head, tail] {
            match burst {
                None => runner.play_nf(nf, &mut state, part),
                Some(b) => runner.play_nf_bursts(nf, &mut state, part, b),
            }
        }

        let expected = iterations(&events);
        assert_eq!(expected.len(), verdicts.len());
        match burst {
            None => {
                assert!(runner.burst_samples.is_empty());
                assert_eq!(runner.samples.len(), packets.len());
                for ((s, e), v) in runner.samples.iter().zip(&expected).zip(&verdicts) {
                    assert_eq!((s.seq, s.ic, s.ma), (e.0, e.1, e.2));
                    assert_eq!(s.cycles.to_bits(), e.3.to_bits(), "packet {}", s.seq);
                    assert_eq!(s.verdict, v[0], "packet {}", s.seq);
                }
            }
            Some(b) => {
                assert!(runner.samples.is_empty());
                assert_eq!(runner.burst_samples.len(), packets.len().div_ceil(b));
                for ((s, e), v) in runner.burst_samples.iter().zip(&expected).zip(&verdicts) {
                    assert_eq!((s.first_seq, s.len, s.ic, s.ma), (e.0, v.len(), e.1, e.2));
                    assert_eq!(
                        s.cycles.to_bits(),
                        e.3.to_bits(),
                        "burst at {}",
                        s.first_seq
                    );
                    assert_eq!(&s.verdicts, v, "burst at {}", s.first_seq);
                }
            }
        }
        let total: u64 = expected.iter().map(|e| e.1).sum();
        assert_eq!(runner.total_ic(), total);

        let mut distiller = Distiller::new();
        events.iter().for_each(|&ev| distiller.event(ev));
        assert_eq!(distiller.packets().len(), packets.len());
        assert_eq!(runner.distiller.packets(), distiller.packets());
        assert_eq!(
            runner.distiller.worst_assignment(),
            distiller.worst_assignment()
        );
        last = Some(runner);
    }
    last.unwrap()
}

#[test]
fn nat_fused_sink_equals_separate_sinks() {
    let nf = Nat::with(
        NatConfig {
            ttl_ns: 500_000,
            ..NatConfig::default()
        },
        AllocKind::A,
    );
    let packets = churn_flows(0x4A, PACKETS, 256, 4, 20_000, 0);
    let runner = check(&nf, |_| {}, &packets, Granularity::Milliseconds);
    let observed = runner.distiller.worst_assignment();
    assert!(observed.iter().any(|(_, v)| v > 0), "NAT observes PCVs");
}

#[test]
fn bridge_fused_sink_equals_separate_sinks() {
    let nf = Bridge::with(BridgeConfig::default());
    let packets = bridge_traffic(0xB1, PACKETS, 256, false, 10_000);
    check(&nf, |_| {}, &packets, Granularity::Milliseconds);
}

#[test]
fn lb_fused_sink_equals_separate_sinks() {
    let nf = LoadBalancer::with(LbConfig {
        hb_ttl_ns: 3_000_000,
        ..LbConfig::default()
    });
    let cfg = nf.cfg;
    let hb = heartbeats(
        cfg.n_backends,
        PACKETS * 15_000 / 1_000_000 + 1,
        1_000_000,
        cfg.backend_port,
        cfg.hb_udp_port,
    );
    let mut packets = merge(vec![hb, uniform_udp_flows(0x1B, PACKETS, 4_096, 15_000, 0)]);
    packets.truncate(PACKETS);
    check(&nf, |_| {}, &packets, Granularity::Milliseconds);
}

#[test]
fn lpm_fused_sink_equals_separate_sinks() {
    let nf = LpmRouter::default();
    let packets = lpm_traffic(0x19, PACKETS, 0x0A00_0100, 0x0B0C_0001, 0.3, 1_000);
    let prepare = |state: &mut <LpmRouter as NetworkFunction>::State| {
        state.lpm.insert(0x0A00_0000, 8, 1);
        state.lpm.insert(0x0B0C_0000, 24, 2);
    };
    check(&nf, prepare, &packets, Granularity::Nanoseconds);
}
