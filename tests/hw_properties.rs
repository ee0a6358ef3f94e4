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
    /// dependence, and markers, and each access lands on the same line
    /// (by first-touch rank) at the same offset. One EtherType in two is
    /// IPv4, so the forward and TTL-drop paths are compared too.
    #[test]
    fn analysis_and_production_streams_agree(
        ether_type in prop_oneof![Just(h::ETHERTYPE_IPV4), any::<u16>()],
        ttl: u8,
        full_stack: bool,
    ) {
        let level = if full_stack { StackLevel::FullStack } else { StackLevel::NfOnly };
        let [analysis, production] = both_builds(level, ether_type, ttl);
        prop_assert_eq!(analysis, production);
    }
}

#[test]
fn every_toy_nf_path_agrees_at_both_levels() {
    let paths = [
        (h::ETHERTYPE_IPV4, 64, NfVerdict::Forward(1)),
        (h::ETHERTYPE_IPV4, 1, NfVerdict::Drop),
        (h::ETHERTYPE_IPV6, 64, NfVerdict::Drop),
    ];
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        for (ether_type, ttl, verdict) in paths {
            let [analysis, production] = both_builds(level, ether_type, ttl);
            assert_eq!(
                analysis, production,
                "{level:?} {ether_type:#06x} ttl {ttl}"
            );
            assert_eq!(production.1, Some(verdict));
        }
    }
}

/// Each build's event stream (addresses by [`by_line`]) and verdict for
/// `toy_nf` on a packet with `ether_type` and `ttl`: the analysis build's
/// from the explored path those fields take, the production build's from
/// one concrete run.
fn both_builds(
    level: StackLevel,
    ether_type: u16,
    ttl: u8,
) -> [(Vec<TraceEvent>, Option<NfVerdict>); 2] {
    let result = Explorer::new()
        .explore(|ctx| sym_process_packet(ctx, level, 64, |ctx, mbuf| toy_nf(ctx, mbuf)));
    let frame = h::PacketBuilder::new()
        .eth(2, 1, ether_type)
        .ipv4(1, 2, h::IPPROTO_UDP, ttl)
        .udp(1, 2)
        .build();
    let mut rec = RecordingTracer::new();
    let mut env = DpdkEnv::new(level, 512, 2048);
    let mut cctx = ConcreteCtx::new(&mut rec);
    let verdict = env.process_packet(&mut cctx, &frame, 0, |ctx, mbuf| toy_nf(ctx, mbuf));
    // The symbolic path whose branch outcomes the packet takes.
    let decisions = match (ether_type == h::ETHERTYPE_IPV4, ttl <= 1) {
        (false, _) => vec![false],
        (true, dead) => vec![true, dead],
    };
    let p = result
        .paths
        .iter()
        .find(|p| p.decisions == decisions)
        .expect("a path must match every input");
    [
        (by_line(&p.events), p.verdict),
        (by_line(&rec.events), Some(verdict)),
    ]
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

/// `evs` with each address rewritten as its 64-byte line's rank in
/// first-touch order times 64, plus its offset in the line: two layouts
/// then compare line for line without exposing where either put a region.
fn by_line(evs: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut lines: Vec<u64> = Vec::new();
    let mut at = |addr: u64| {
        let rank = lines
            .iter()
            .position(|&l| l == addr / 64)
            .unwrap_or_else(|| {
                lines.push(addr / 64);
                lines.len() - 1
            });
        rank as u64 * 64 + addr % 64
    };
    evs.iter()
        .map(|ev| match *ev {
            TraceEvent::MemRead { addr, bytes, dep } => TraceEvent::MemRead {
                addr: at(addr),
                bytes,
                dep,
            },
            TraceEvent::MemWrite { addr, bytes } => TraceEvent::MemWrite {
                addr: at(addr),
                bytes,
            },
            other => other,
        })
        .collect()
}
