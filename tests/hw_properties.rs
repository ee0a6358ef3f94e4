//! Cross-crate property tests: the conservative hardware model must bound
//! the testbed on arbitrary event streams, and the analysis build must
//! emit the production build's stateless event stream, step for step.

use bolt::expr::Width;
use bolt::hw::{ConservativeModel, TestbedModel};
use bolt::see::{ConcreteCtx, Explorer, NfCtx, NfVerdict, StackLevel};
use bolt::trace::{InstrClass, RecordingTracer, TraceEvent, Tracer};
use dpdk_sim::{headers as h, sym_process_packet, DpdkEnv, Mbuf};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Ev {
    Instr(u8, u8),
    Read(u16, bool),
    Write(u16),
}

fn arb_ev() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u8..10, 1u8..8).prop_map(|(c, n)| Ev::Instr(c, n)),
        (any::<u16>(), any::<bool>()).prop_map(|(a, d)| Ev::Read(a, d)),
        any::<u16>().prop_map(Ev::Write),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For ANY event stream, conservative cycles ≥ testbed cycles.
    #[test]
    fn conservative_bounds_testbed(evs in prop::collection::vec(arb_ev(), 1..400)) {
        let mut cons = ConservativeModel::new();
        let mut test = TestbedModel::new();
        for ev in &evs {
            for m in [&mut cons as &mut dyn Tracer, &mut test as &mut dyn Tracer] {
                match *ev {
                    Ev::Instr(c, n) => m.instr(InstrClass::ALL[c as usize % 10], n as u32),
                    Ev::Read(a, true) => m.mem_read_dep(0x1_0000 + a as u64 * 8, 8),
                    Ev::Read(a, false) => m.mem_read(0x1_0000 + a as u64 * 8, 8),
                    Ev::Write(a) => m.mem_write(0x1_0000 + a as u64 * 8, 8),
                }
            }
        }
        prop_assert!(
            cons.cycles() >= test.cycles(),
            "bound violated: {} < {}",
            cons.cycles(),
            test.cycles()
        );
    }

    /// The analysis build (symbolic, models linked) and the production
    /// build run the same steps for the same path, at both stack levels,
    /// for any EtherType/TTL combination driving a small NF: event for
    /// event the same kind, instruction class and count, access width and
    /// dependence, and markers. Only addresses may differ, since each
    /// build lays out its own memory.
    #[test]
    fn analysis_and_production_streams_agree(ether_type: u16, ttl: u8, full_stack: bool) {
        let level = if full_stack { StackLevel::FullStack } else { StackLevel::NfOnly };
        let result = Explorer::new().explore(|ctx| {
            sym_process_packet(ctx, level, 64, |ctx, mbuf| toy_nf(ctx, mbuf))
        });
        // Concrete run of the same NF on a packet with the generated
        // fields.
        let frame = h::PacketBuilder::new()
            .eth(2, 1, ether_type)
            .ipv4(1, 2, h::IPPROTO_UDP, ttl)
            .udp(1, 2)
            .build();
        let mut rec = RecordingTracer::new();
        let mut env = DpdkEnv::new(level, 512, 2048);
        let mut cctx = ConcreteCtx::new(&mut rec);
        let verdict = env.process_packet(&mut cctx, &frame, 0, |ctx, mbuf| toy_nf(ctx, mbuf));
        // Find the matching symbolic path by the concrete branch outcomes.
        let is_v4 = ether_type == h::ETHERTYPE_IPV4;
        let is_dead = ttl <= 1;
        let matching = result.paths.iter().find(|p| {
            if !is_v4 {
                p.verdict == Some(NfVerdict::Drop) && p.decisions.first() == Some(&false)
            } else if is_dead {
                p.decisions == vec![true, true]
            } else {
                p.verdict == Some(NfVerdict::Forward(1))
            }
        });
        let p = matching.expect("a path must match every input");
        let steps = |evs: &[TraceEvent]| evs.iter().map(without_address).collect::<Vec<_>>();
        prop_assert_eq!(steps(&p.events), steps(&rec.events));
        prop_assert_eq!(p.verdict, Some(verdict));
    }
}

/// A toy NF, one body for both builds: EtherType gate, then a TTL check.
fn toy_nf<C: NfCtx>(ctx: &mut C, mbuf: Mbuf) {
    let et = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        let t = ctx.load(mbuf.region, h::IPV4_TTL, 1);
        let one = ctx.lit(1, Width::W8);
        let dead = ctx.ule(t, one);
        if ctx.branch(dead) {
            ctx.verdict(NfVerdict::Drop);
        } else {
            ctx.verdict(NfVerdict::Forward(1));
        }
    } else {
        ctx.verdict(NfVerdict::Drop);
    }
}

/// `ev` with its address zeroed.
fn without_address(ev: &TraceEvent) -> TraceEvent {
    match *ev {
        TraceEvent::MemRead { bytes, dep, .. } => TraceEvent::MemRead {
            addr: 0,
            bytes,
            dep,
        },
        TraceEvent::MemWrite { bytes, .. } => TraceEvent::MemWrite { addr: 0, bytes },
        other => other,
    }
}
