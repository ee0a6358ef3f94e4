//! Static IP router that processes IP options (Table 5b; the downstream
//! half of §5.2's chain).
//!
//! Routing is a constant-cost read of a 16-entry static next-hop table
//! indexed by the top destination nibble. The interesting part is the
//! RFC 781 timestamp-option loop: every 4-byte option word is loaded,
//! inspected, stamped, and stored back, so the per-packet cost is linear
//! in the option count `n` — Table 5b's `79·n + 646` shape. `n` is a
//! *packet* property, so no stateful model is involved: symbolic
//! execution simply enumerates one path per option count.

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, MemRegion, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::Clock;
use nf_lib::registry::DsRegistry;

use crate::{decrement_ttl, forward_to};

/// Static router configuration: next hop per top-nibble of the
/// destination address.
#[derive(Clone, Copy, Debug)]
pub struct StaticRouterConfig {
    /// `next_hop[dst >> 28]` is the output port.
    pub next_hop: [u16; 16],
}

impl Default for StaticRouterConfig {
    fn default() -> Self {
        let mut next_hop = [0u16; 16];
        for (i, nh) in next_hop.iter_mut().enumerate() {
            *nh = (i % 4) as u16;
        }
        StaticRouterConfig { next_hop }
    }
}

/// The router's static table lives in plain simulated memory: it is
/// constant-time, constant-address state, so it needs no library model —
/// the symbolic engine reads it as an opaque memory cell.
#[derive(Clone, Copy, Debug)]
pub struct StaticRouterState {
    /// Simulated region holding 16 × 2-byte next hops.
    pub table: MemRegion,
}

impl StaticRouterState {
    /// Allocate the table region.
    fn new(aspace: &mut AddressSpace) -> Self {
        StaticRouterState {
            table: aspace.alloc_table(32),
        }
    }

    /// Install the next-hop bytes into a concrete context.
    fn install<T: Tracer>(&self, ctx: &mut ConcreteCtx<'_, T>, cfg: &StaticRouterConfig) {
        let mut bytes = Vec::with_capacity(32);
        for nh in cfg.next_hop {
            bytes.extend_from_slice(&nh.to_be_bytes());
        }
        ctx.register_buffer(self.table, bytes);
    }
}

/// The stateless router logic.
fn process<C: NfCtx>(ctx: &mut C, router: &StaticRouterState, mbuf: Mbuf) {
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if !ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let ver_ihl = ctx.load(mbuf.region, h::IPV4_VER_IHL, 1);
    let fifteen = ctx.lit(0x0F, Width::W8);
    let ihl = ctx.and(ver_ihl, fifteen);
    let five = ctx.lit(5, Width::W8);
    let malformed = ctx.ult(ihl, five);
    if ctx.branch(malformed) {
        ctx.tag("malformed");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    // Process every option word (IHL is 4 bits, so n ≤ 10 and the loop
    // bound is structural).
    let n = ctx.sub(ihl, five);
    let mut i = 0u64;
    loop {
        let iv = ctx.lit(i, Width::W8);
        let more = ctx.ult(iv, n);
        if !ctx.branch(more) {
            break;
        }
        let off = h::IPV4_OPTS + 4 * i;
        // Load the option word, check the type byte, stamp, store back.
        let word = ctx.load(mbuf.region, off, 4);
        let ts_type = ctx.lit(68, Width::W8);
        let ty = {
            let sh = ctx.lit(24, Width::W32);
            let t = ctx.shr(word, sh);
            ctx.trunc(t, Width::W8)
        };
        let is_ts = ctx.eq(ty, ts_type);
        // Branchless stamp (cmov): overwrite the low byte when it is a
        // timestamp option.
        let one = ctx.lit(1, Width::W32);
        let stamped = ctx.or(word, one);
        let out = ctx.select(is_ts, stamped, word);
        ctx.store(mbuf.region, off, out, 4);
        i += 1;
        if i > 10 {
            break;
        }
    }
    if i == 0 {
        ctx.tag("no-options");
    } else {
        ctx.tag("ip-options");
    }
    // Static next hop: one indexed load.
    let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
    let nibble = {
        let sh = ctx.lit(28, Width::W32);
        let v = ctx.shr(dst, sh);
        ctx.concrete_value(v).unwrap_or(0)
    };
    // The table index depends on the destination; concrete runs use the
    // real nibble, the analysis build reads entry 0 (all entries have
    // identical cost — the table is 32 bytes, one cache line).
    let port = ctx.load(router.table, nibble * 2, 2);
    decrement_ttl(ctx, &mbuf);
    forward_to(ctx, port);
}

/// The static router as a [`NetworkFunction`] descriptor. Its "state" is
/// plain constant memory, so its registered-state handle is `()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticRouter {
    /// Configuration (the next-hop table contents).
    pub cfg: StaticRouterConfig,
}

impl StaticRouter {
    /// Descriptor with an explicit configuration.
    pub fn with(cfg: StaticRouterConfig) -> Self {
        StaticRouter { cfg }
    }
}

impl NetworkFunction for StaticRouter {
    type Ids = ();
    type State = StaticRouterState;

    fn name(&self) -> &'static str {
        "static_router"
    }

    fn register(&self, _reg: &mut DsRegistry) {}

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        for nh in self.cfg.next_hop {
            fp.u16(nh);
        }
    }

    fn state(&self, _ids: (), aspace: &mut AddressSpace) -> StaticRouterState {
        StaticRouterState::new(aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut StaticRouterState,
        _clock: &Clock,
        mbuf: Mbuf,
    ) {
        // Contexts are per-packet; (re)installing the table bytes is a
        // zero-cost bookkeeping operation, not a traced access.
        state.install(ctx, &self.cfg);
        process(ctx, state, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, _ids: (), mbuf: Mbuf) {
        let router = StaticRouterState {
            table: ctx.alloc_region(32),
        };
        process(ctx, &router, mbuf);
    }

    fn packet_len(&self) -> u64 {
        // Room for a full option-bearing IPv4 header.
        128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_trace::CountingTracer;
    use dpdk_sim::{DpdkEnv, StackLevel};

    fn run(frame: &[u8]) -> (NfVerdict, u64) {
        let cfg = StaticRouterConfig::default();
        let mut aspace = AddressSpace::new();
        let router = StaticRouterState::new(&mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        router.install(&mut ctx, &cfg);
        let v = env.process_packet(&mut ctx, frame, 0, |ctx, mbuf| process(ctx, &router, mbuf));
        (v, tracer.instructions())
    }

    #[test]
    fn routes_by_top_nibble() {
        // dst 0x1... → next_hop[1] = 1; dst 0x2... → next_hop[2] = 2.
        for (dst, want) in [(0x10000001u32, 1u16), (0x2ABCDEF0, 2), (0x50000000, 1)] {
            let f = h::PacketBuilder::new()
                .eth(2, 1, h::ETHERTYPE_IPV4)
                .ipv4(1, dst, h::IPPROTO_UDP, 64)
                .udp(5, 6)
                .build();
            let (v, _) = run(&f);
            assert_eq!(v, NfVerdict::Forward(want % 4), "dst {dst:#x}");
        }
    }

    #[test]
    fn option_cost_is_linear_in_n() {
        let cost = |n: u8| {
            let f = h::PacketBuilder::new()
                .eth(2, 1, h::ETHERTYPE_IPV4)
                .ipv4(1, 2, h::IPPROTO_UDP, 64)
                .ipv4_options(n)
                .udp(5, 6)
                .build();
            run(&f).1
        };
        let c0 = cost(0);
        let c1 = cost(1);
        let c4 = cost(4);
        let per = c1 - c0;
        assert!(per > 0);
        assert_eq!(c4 - c0, 4 * per, "per-option cost must be uniform");
    }

    #[test]
    fn ttl_decremented_on_forward() {
        let cfg = StaticRouterConfig::default();
        let mut aspace = AddressSpace::new();
        let router = StaticRouterState::new(&mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        router.install(&mut ctx, &cfg);
        let f = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, h::IPPROTO_UDP, 64)
            .udp(5, 6)
            .build();
        let mut after = 0u8;
        env.process_packet(&mut ctx, &f, 0, |ctx, mbuf| {
            process(ctx, &router, mbuf);
            let ttl = ctx.load(mbuf.region, h::IPV4_TTL, 1);
            after = ctx.concrete_value(ttl).unwrap() as u8;
        });
        assert_eq!(after, 63);
    }

    #[test]
    fn paths_enumerate_option_counts() {
        let result = StaticRouter::default().explore(StackLevel::NfOnly).result;
        // invalid + malformed + one path per option count 0..=10.
        assert_eq!(result.tagged("invalid").count(), 1);
        assert_eq!(result.tagged("malformed").count(), 1);
        assert_eq!(result.tagged("no-options").count(), 1);
        assert_eq!(result.tagged("ip-options").count(), 10);
        // Option paths cost strictly more per extra option.
        let mut costs: Vec<u64> = result
            .tagged("ip-options")
            .map(|p| bolt_trace::count_ic_ma(&p.events).0)
            .collect();
        costs.push(bolt_trace::count_ic_ma(&result.tagged("no-options").next().unwrap().events).0);
        costs.sort_unstable();
        let d1 = costs[1] - costs[0];
        for w in costs.windows(2) {
            assert_eq!(w[1] - w[0], d1, "uniform per-option slope");
        }
    }
}
