//! Learning MAC bridge (scenarios Br1–Br3; §5.2's attack use case).
//!
//! Per packet: expire stale table entries, learn the source MAC (with the
//! rehash defence), then switch on the destination: broadcast frames
//! flood (Br2), known unicast forwards (Br3), unknown unicast floods.
//! Unconstrained traffic (Br1) can hit the mass-expiry worst case.

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::{Clock, ClockModel};
use nf_lib::flow_table::FlowTableParams;
use nf_lib::mac_table::{self, LearnOutcome, MacTable, MacTableIds, MacTableOps};
use nf_lib::model::DsModel;
use nf_lib::registry::DsRegistry;

use crate::forward_to;

/// Broadcast destination MAC.
pub const BROADCAST_MAC: u64 = 0xFFFF_FFFF_FFFF;

/// Bridge configuration.
#[derive(Clone, Copy, Debug)]
pub struct BridgeConfig {
    /// MAC table capacity (power of two).
    pub capacity: usize,
    /// Entry lifetime in nanoseconds.
    pub ttl_ns: u64,
    /// Probe-length threshold that triggers the defensive rehash.
    pub rehash_threshold: u64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            capacity: 1024,
            ttl_ns: 1_000_000,
            rehash_threshold: 6,
        }
    }
}

/// Registered-state handle.
#[derive(Clone, Copy, Debug)]
pub struct BridgeIds {
    /// The MAC table.
    pub table: MacTableIds,
}

/// Register the bridge's stateful parts.
fn register(reg: &mut DsRegistry, cfg: &BridgeConfig) -> BridgeIds {
    let params = FlowTableParams {
        capacity: cfg.capacity,
        ttl_ns: cfg.ttl_ns,
    };
    BridgeIds {
        table: mac_table::register(reg, "mac_table", params),
    }
}

/// The stateless bridge logic (Vigor-style: all state behind `table`).
fn process<C: NfCtx, T: MacTableOps<C>>(ctx: &mut C, table: &mut T, now: C::Val, mbuf: Mbuf) {
    let _e = table.expire(ctx, now);
    let src = ctx.load(mbuf.region, h::ETHER_SRC, 6);
    let dst = ctx.load(mbuf.region, h::ETHER_DST, 6);
    let port = crate::in_port(ctx, &mbuf);
    let port64 = ctx.zext(port, Width::W64);
    match table.learn(ctx, src, port64, now) {
        LearnOutcome::Known => ctx.tag("src:known"),
        LearnOutcome::Unknown => ctx.tag("src:unknown"),
        LearnOutcome::UnknownRehash => ctx.tag("src:rehash"),
    }
    if ctx.branch_eq_imm(dst, BROADCAST_MAC, Width::W48) {
        ctx.tag("dst:broadcast");
        ctx.verdict(NfVerdict::Flood);
        return;
    }
    match table.lookup(ctx, dst) {
        Some(out_port) => {
            ctx.tag("dst:known");
            forward_to(ctx, out_port);
        }
        None => {
            ctx.tag("dst:unknown");
            ctx.verdict(NfVerdict::Flood);
        }
    }
}

/// Concrete bridge state bundle.
pub struct BridgeState {
    /// The instrumented MAC table.
    pub table: MacTable,
}

impl BridgeState {
    /// Build concrete state.
    fn new(ids: BridgeIds, cfg: &BridgeConfig, aspace: &mut AddressSpace) -> Self {
        let params = FlowTableParams {
            capacity: cfg.capacity,
            ttl_ns: cfg.ttl_ns,
        };
        BridgeState {
            table: MacTable::new(ids.table, params, cfg.rehash_threshold, aspace),
        }
    }
}

/// The bridge as a [`NetworkFunction`] descriptor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bridge {
    /// Configuration.
    pub cfg: BridgeConfig,
}

impl Bridge {
    /// Descriptor with an explicit configuration.
    pub fn with(cfg: BridgeConfig) -> Self {
        Bridge { cfg }
    }
}

impl NetworkFunction for Bridge {
    type Ids = BridgeIds;
    type State = BridgeState;

    fn name(&self) -> &'static str {
        "bridge"
    }

    fn register(&self, reg: &mut DsRegistry) -> BridgeIds {
        register(reg, &self.cfg)
    }

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.usize(self.cfg.capacity)
            .u64(self.cfg.ttl_ns)
            .u64(self.cfg.rehash_threshold);
    }

    fn state(&self, ids: BridgeIds, aspace: &mut AddressSpace) -> BridgeState {
        BridgeState::new(ids, &self.cfg, aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut BridgeState,
        clock: &Clock,
        mbuf: Mbuf,
    ) {
        let now = clock.now(ctx);
        process(ctx, &mut state.table, now, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: BridgeIds, mbuf: Mbuf) {
        let mut model = DsModel {
            ds: ids.table.ds,
            bound: self.cfg.capacity as u64,
        };
        let now = ClockModel.now(ctx);
        process(ctx, &mut model, now, mbuf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_see::ConcreteCtx;
    use bolt_trace::CountingTracer;
    use dpdk_sim::{DpdkEnv, StackLevel};
    use nf_lib::clock::{Clock, Granularity};

    fn frame(dst: u64, src: u64) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(dst, src, h::ETHERTYPE_IPV4)
            .ipv4(0x0a000001, 0x0a000002, h::IPPROTO_UDP, 64)
            .udp(10, 20)
            .build()
    }

    #[test]
    fn learns_and_forwards() {
        let mut reg = DsRegistry::new();
        let cfg = BridgeConfig::default();
        let ids = register(&mut reg, &cfg);
        let mut aspace = AddressSpace::new();
        let mut bridge = BridgeState::new(ids, &cfg, &mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let clock = Clock::new(Granularity::Milliseconds);

        // A talks to B: unknown destination floods, A is learned on port 1.
        let v = env.process_packet(&mut ctx, &frame(0xB, 0xA), 1, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, &mut bridge.table, now, mbuf);
        });
        assert_eq!(v, NfVerdict::Flood);
        // B replies from port 2: A is known, forward to port 1.
        let v = env.process_packet(&mut ctx, &frame(0xA, 0xB), 2, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, &mut bridge.table, now, mbuf);
        });
        assert_eq!(v, NfVerdict::Forward(1));
        // A to B again: B now known on port 2.
        let v = env.process_packet(&mut ctx, &frame(0xB, 0xA), 1, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, &mut bridge.table, now, mbuf);
        });
        assert_eq!(v, NfVerdict::Forward(2));
    }

    #[test]
    fn broadcast_floods() {
        let mut reg = DsRegistry::new();
        let cfg = BridgeConfig::default();
        let ids = register(&mut reg, &cfg);
        let mut aspace = AddressSpace::new();
        let mut bridge = BridgeState::new(ids, &cfg, &mut aspace);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let clock = Clock::new(Granularity::Milliseconds);
        let v = env.process_packet(&mut ctx, &frame(BROADCAST_MAC, 0xC), 0, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, &mut bridge.table, now, mbuf);
        });
        assert_eq!(v, NfVerdict::Flood);
    }

    #[test]
    fn exploration_covers_all_classes() {
        let result = Bridge::default().explore(StackLevel::FullStack).result;
        // 3 learn outcomes × 3 destination kinds = 9 paths.
        assert_eq!(result.paths.len(), 9);
        for learn in ["src:known", "src:unknown", "src:rehash"] {
            assert_eq!(result.tagged(learn).count(), 3, "{learn}");
        }
        for dst in ["dst:broadcast", "dst:known", "dst:unknown"] {
            assert_eq!(result.tagged(dst).count(), 3, "{dst}");
        }
        // Every path has a verdict and a stateful expire call.
        for p in &result.paths {
            assert!(p.verdict.is_some());
            assert!(p
                .events
                .iter()
                .any(|e| matches!(e, bolt_trace::TraceEvent::Stateful(_))));
        }
    }

    #[test]
    fn nf_only_paths_are_cheaper() {
        let full = Bridge::default().explore(StackLevel::FullStack).result;
        let nf = Bridge::default().explore(StackLevel::NfOnly).result;
        let cost = |r: &bolt_see::ExplorationResult| {
            r.paths
                .iter()
                .map(|p| bolt_trace::count_ic_ma(&p.events).0)
                .max()
                .unwrap()
        };
        assert!(cost(&full) > cost(&nf));
    }
}
