//! LPM router on DPDK's DIR-24-8 table (scenarios LPM1, LPM2).
//!
//! Valid IPv4 packets with a live TTL do one DIR-24-8 lookup (one load
//! for ≤24-bit matches, two for longer — the LPM2/LPM1 split), get their
//! TTL decremented and checksum fixed, and are forwarded.

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::Clock;
use nf_lib::lpm_dir24_8::{self, Dir24_8, Dir24_8Ids, Dir24_8Ops};
use nf_lib::model::DsModel;
use nf_lib::registry::DsRegistry;

use crate::{decrement_ttl, forward_to};

/// Router configuration.
#[derive(Clone, Copy, Debug)]
pub struct LpmRouterConfig {
    /// First-level index width (24 on the real table; 16 keeps tests
    /// small).
    pub first_bits: u8,
    /// Maximum number of tbl8 groups.
    pub max_groups: usize,
}

impl Default for LpmRouterConfig {
    fn default() -> Self {
        LpmRouterConfig {
            first_bits: 16,
            max_groups: 256,
        }
    }
}

/// Registered-state handle.
#[derive(Clone, Copy, Debug)]
pub struct LpmRouterIds {
    /// The DIR-24-8 table.
    pub lpm: Dir24_8Ids,
}

/// Register the router's stateful parts.
fn register(reg: &mut DsRegistry) -> LpmRouterIds {
    LpmRouterIds {
        lpm: lpm_dir24_8::register(reg, "dir24_8"),
    }
}

/// The stateless router logic.
fn process<C: NfCtx, T: Dir24_8Ops<C>>(ctx: &mut C, lpm: &mut T, mbuf: Mbuf) {
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if !ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let ttl = ctx.load(mbuf.region, h::IPV4_TTL, 1);
    let one = ctx.lit(1, Width::W8);
    let ttl_dead = ctx.ule(ttl, one);
    if ctx.branch(ttl_dead) {
        ctx.tag("ttl-expired");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    ctx.tag("forwarded");
    let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
    let port = lpm.lookup(ctx, dst);
    decrement_ttl(ctx, &mbuf);
    forward_to(ctx, port);
}

/// Concrete state bundle.
pub struct LpmRouterState {
    /// The instrumented table.
    pub lpm: Dir24_8,
}

impl LpmRouterState {
    /// Build concrete state.
    fn new(ids: LpmRouterIds, cfg: &LpmRouterConfig, aspace: &mut AddressSpace) -> Self {
        LpmRouterState {
            lpm: Dir24_8::new(ids.lpm, cfg.first_bits, cfg.max_groups, 0, aspace),
        }
    }
}

/// The DIR-24-8 router as a [`NetworkFunction`] descriptor.
#[derive(Clone, Copy, Debug, Default)]
pub struct LpmRouter {
    /// Configuration.
    pub cfg: LpmRouterConfig,
}

impl LpmRouter {
    /// Descriptor with an explicit configuration.
    pub fn with(cfg: LpmRouterConfig) -> Self {
        LpmRouter { cfg }
    }
}

impl NetworkFunction for LpmRouter {
    type Ids = LpmRouterIds;
    type State = LpmRouterState;

    fn name(&self) -> &'static str {
        "lpm_router"
    }

    fn register(&self, reg: &mut DsRegistry) -> LpmRouterIds {
        register(reg)
    }

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.u8(self.cfg.first_bits).usize(self.cfg.max_groups);
    }

    fn state(&self, ids: LpmRouterIds, aspace: &mut AddressSpace) -> LpmRouterState {
        LpmRouterState::new(ids, &self.cfg, aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut LpmRouterState,
        _clock: &Clock,
        mbuf: Mbuf,
    ) {
        process(ctx, &mut state.lpm, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: LpmRouterIds, mbuf: Mbuf) {
        let mut model = DsModel {
            ds: ids.lpm.ds,
            bound: 0,
        };
        process(ctx, &mut model, mbuf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_see::ConcreteCtx;
    use bolt_trace::CountingTracer;
    use dpdk_sim::{DpdkEnv, StackLevel};

    #[test]
    fn forwards_with_ttl_decrement() {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg);
        let cfg = LpmRouterConfig::default();
        let mut aspace = AddressSpace::new();
        let mut router = LpmRouterState::new(ids, &cfg, &mut aspace);
        router.lpm.insert(0x0A000000, 8, 7);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let f = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 0x0A112233, h::IPPROTO_UDP, 64)
            .udp(5, 6)
            .build();
        let v = env.process_packet(&mut ctx, &f, 0, |ctx, mbuf| {
            process(ctx, &mut router.lpm, mbuf)
        });
        assert_eq!(v, NfVerdict::Forward(7));
    }

    #[test]
    fn drops_dead_ttl_and_invalid() {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg);
        let cfg = LpmRouterConfig::default();
        let mut aspace = AddressSpace::new();
        let mut router = LpmRouterState::new(ids, &cfg, &mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let dead = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, h::IPPROTO_UDP, 1)
            .udp(5, 6)
            .build();
        let v = env.process_packet(&mut ctx, &dead, 0, |ctx, mbuf| {
            process(ctx, &mut router.lpm, mbuf)
        });
        assert_eq!(v, NfVerdict::Drop);
        let v6 = h::PacketBuilder::new().eth(2, 1, h::ETHERTYPE_IPV6).build();
        let v = env.process_packet(&mut ctx, &v6, 0, |ctx, mbuf| {
            process(ctx, &mut router.lpm, mbuf)
        });
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn four_paths_emerge() {
        let result = LpmRouter::default().explore(StackLevel::NfOnly).result;
        // invalid, ttl-expired, forwarded×{short,long}.
        assert_eq!(result.paths.len(), 4);
        assert_eq!(result.tagged("forwarded").count(), 2);
        assert_eq!(result.tagged("lpm:long").count(), 1);
        assert_eq!(result.tagged("lpm:short").count(), 1);
    }
}
