//! Maglev-like load balancer (scenarios LB1–LB5).
//!
//! External packets are spread over backends: connection affinity lives
//! in a flow table; new flows consult the Maglev ring (LB2); existing
//! flows go straight to their backend if it is alive (LB4) or are
//! re-homed through the ring if it stopped heartbeating (LB3). Backends
//! announce themselves with heartbeat packets (LB5). Unconstrained
//! traffic (LB1) can hit the mass-expiry worst case.

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::{Clock, ClockModel};
use nf_lib::flow_table::{self, FlowTable, FlowTableIds, FlowTableOps, FlowTableParams};
use nf_lib::maglev::{
    self, BackendPool, BackendPoolIds, BackendPoolOps, MaglevRing, MaglevRingIds, MaglevRingOps,
};
use nf_lib::model::DsModel;
use nf_lib::registry::DsRegistry;

use crate::{decrement_ttl, flow_key, forward_to, in_port};

/// Load balancer configuration.
#[derive(Clone, Copy, Debug)]
pub struct LbConfig {
    /// Flow table capacity (power of two).
    pub capacity: usize,
    /// Flow lifetime in nanoseconds.
    pub ttl_ns: u64,
    /// Number of backend servers.
    pub n_backends: u16,
    /// Maglev ring size (prime).
    pub ring_size: u64,
    /// Heartbeat TTL in nanoseconds.
    pub hb_ttl_ns: u64,
    /// Device port facing the backends.
    pub backend_port: u16,
    /// UDP port carrying heartbeats.
    pub hb_udp_port: u16,
}

impl Default for LbConfig {
    fn default() -> Self {
        LbConfig {
            capacity: 4096,
            ttl_ns: 1_000_000,
            n_backends: 8,
            ring_size: 1009,
            hb_ttl_ns: 10_000_000,
            backend_port: 1,
            hb_udp_port: 9999,
        }
    }
}

/// Registered-state handle.
#[derive(Clone, Copy, Debug)]
pub struct LbIds {
    /// Flow affinity table (bare `e`/`c`/`t`/`o` PCVs).
    pub ft: FlowTableIds,
    /// The Maglev ring.
    pub ring: MaglevRingIds,
    /// Backend liveness pool.
    pub pool: BackendPoolIds,
}

/// Register the LB's stateful parts.
fn register(reg: &mut DsRegistry, cfg: &LbConfig) -> LbIds {
    let params = FlowTableParams {
        capacity: cfg.capacity,
        ttl_ns: cfg.ttl_ns,
    };
    LbIds {
        ft: flow_table::register::<3>(reg, "lb.flows", "", params),
        ring: maglev::register_ring(reg, "lb.ring", cfg.n_backends, cfg.ring_size),
        pool: maglev::register_pool(reg, "lb.backends", cfg.n_backends, cfg.hb_ttl_ns),
    }
}

/// The stateless LB logic.
#[allow(clippy::too_many_arguments)]
fn process<C, FT, R, P>(
    ctx: &mut C,
    ft: &mut FT,
    ring: &mut R,
    pool: &mut P,
    cfg: &LbConfig,
    now: C::Val,
    mbuf: Mbuf,
) where
    C: NfCtx,
    FT: FlowTableOps<C, 3>,
    R: MaglevRingOps<C>,
    P: BackendPoolOps<C>,
{
    let _e = ft.expire(ctx, now);
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if !ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let dir = in_port(ctx, &mbuf);
    if ctx.branch_eq_imm(dir, cfg.backend_port as u64, Width::W16) {
        // From a backend: heartbeat or return traffic.
        let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
        if ctx.branch_eq_imm(dport, cfg.hb_udp_port as u64, Width::W16) {
            ctx.tag("heartbeat");
            // Backend id is announced in the low bits of the source.
            let src = ctx.load(mbuf.region, h::IPV4_SRC, 4);
            let backend = ctx.trunc(src, Width::W16);
            pool.heartbeat(ctx, backend, now);
            ctx.verdict(NfVerdict::Drop); // consumed
        } else {
            ctx.tag("return-traffic");
            // Return traffic passes through unchanged.
            decrement_ttl(ctx, &mbuf);
            ctx.verdict(NfVerdict::Forward(0));
        }
        return;
    }
    // External client traffic: look up (or establish) flow affinity.
    let src = ctx.load(mbuf.region, h::IPV4_SRC, 4);
    let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
    let proto = ctx.load(mbuf.region, h::IPV4_PROTO, 1);
    let sport = ctx.load(mbuf.region, h::L4_SPORT, 2);
    let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
    let key = flow_key(ctx, src, dst, sport, dport, proto);
    // Flow hash for the ring: fold the key words (cheap mix).
    let x1 = ctx.xor(key[0], key[1]);
    let hash = ctx.xor(x1, key[2]);
    let backend = match ft.get(ctx, &key, now) {
        Some(b64) => {
            let b = ctx.trunc(b64, Width::W16);
            if pool.is_alive(ctx, b, now) {
                ctx.tag("existing:alive");
                b
            } else {
                ctx.tag("existing:dead");
                // Re-home through the ring and update the affinity entry.
                let nb = ring.lookup(ctx, hash);
                let nb64 = ctx.zext(nb, Width::W64);
                let _ = ft.update(ctx, &key, nb64, now);
                nb
            }
        }
        None => {
            let b = ring.lookup(ctx, hash);
            let b64 = ctx.zext(b, Width::W64);
            if ft.put(ctx, &key, b64, now) {
                ctx.tag("new-flow");
            } else {
                ctx.tag("new-flow:table-full");
            }
            b
        }
    };
    // Steer: destination becomes the backend address (10.1.0.0/16 + id).
    let b32 = ctx.zext(backend, Width::W32);
    let base = ctx.lit(0x0A01_0000, Width::W32);
    let baddr = ctx.or(base, b32);
    ctx.store(mbuf.region, h::IPV4_DST, baddr, 4);
    decrement_ttl(ctx, &mbuf);
    let out = ctx.lit(cfg.backend_port as u64, Width::W16);
    forward_to(ctx, out);
}

/// Concrete state bundle.
pub struct Lb {
    /// Flow affinity table.
    pub ft: FlowTable<3>,
    /// The Maglev ring.
    pub ring: MaglevRing,
    /// Backend liveness pool.
    pub pool: BackendPool,
}

impl Lb {
    /// Build concrete state.
    fn new(ids: LbIds, cfg: &LbConfig, aspace: &mut AddressSpace) -> Self {
        let params = FlowTableParams {
            capacity: cfg.capacity,
            ttl_ns: cfg.ttl_ns,
        };
        Lb {
            ft: FlowTable::new(ids.ft, params, aspace),
            ring: MaglevRing::new(ids.ring, cfg.n_backends, cfg.ring_size, aspace),
            pool: BackendPool::new(ids.pool, cfg.n_backends, cfg.hb_ttl_ns, aspace),
        }
    }
}

/// The load balancer as a [`NetworkFunction`] descriptor.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBalancer {
    /// Configuration.
    pub cfg: LbConfig,
}

impl LoadBalancer {
    /// Descriptor with an explicit configuration.
    pub fn with(cfg: LbConfig) -> Self {
        LoadBalancer { cfg }
    }
}

impl NetworkFunction for LoadBalancer {
    type Ids = LbIds;
    type State = Lb;

    fn name(&self) -> &'static str {
        "lb"
    }

    fn register(&self, reg: &mut DsRegistry) -> LbIds {
        register(reg, &self.cfg)
    }

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.usize(self.cfg.capacity)
            .u64(self.cfg.ttl_ns)
            .u16(self.cfg.n_backends)
            .u64(self.cfg.ring_size)
            .u64(self.cfg.hb_ttl_ns)
            .u16(self.cfg.backend_port)
            .u16(self.cfg.hb_udp_port);
    }

    fn state(&self, ids: LbIds, aspace: &mut AddressSpace) -> Lb {
        Lb::new(ids, &self.cfg, aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut Lb,
        clock: &Clock,
        mbuf: Mbuf,
    ) {
        let now = clock.now(ctx);
        process(
            ctx,
            &mut state.ft,
            &mut state.ring,
            &mut state.pool,
            &self.cfg,
            now,
            mbuf,
        );
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: LbIds, mbuf: Mbuf) {
        let mut ft = DsModel {
            ds: ids.ft.ds,
            bound: self.cfg.capacity as u64,
        };
        let mut ring = DsModel {
            ds: ids.ring.ds,
            bound: self.cfg.n_backends as u64,
        };
        let mut pool = DsModel {
            ds: ids.pool.ds,
            bound: 0,
        };
        let now = ClockModel.now(ctx);
        process(ctx, &mut ft, &mut ring, &mut pool, &self.cfg, now, mbuf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_see::ConcreteCtx;
    use bolt_trace::CountingTracer;
    use dpdk_sim::{DpdkEnv, StackLevel};
    use nf_lib::clock::{Clock, Granularity};

    fn client_frame(src: u32, sport: u16) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(src, 0x0A000001, h::IPPROTO_TCP, 64)
            .udp(sport, 443)
            .build()
    }

    fn hb_frame(backend: u16) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(backend as u32, 0x0A000001, h::IPPROTO_UDP, 64)
            .udp(1, 9999)
            .build()
    }

    struct Rig {
        env: DpdkEnv,
        lb: Lb,
        cfg: LbConfig,
        clock: Clock,
    }

    fn rig() -> Rig {
        let mut reg = DsRegistry::new();
        let cfg = LbConfig {
            capacity: 256,
            ..LbConfig::default()
        };
        let ids = register(&mut reg, &cfg);
        let mut aspace = AddressSpace::new();
        Rig {
            env: DpdkEnv::full_stack(),
            lb: Lb::new(ids, &cfg, &mut aspace),
            cfg,
            clock: Clock::new(Granularity::Nanoseconds),
        }
    }

    fn send(rig: &mut Rig, frame: &[u8], port: u16) -> (NfVerdict, u32) {
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let cfg = rig.cfg;
        let clock = rig.clock.clone();
        let lb = &mut rig.lb;
        let mut dst = 0u32;
        let v = rig.env.process_packet(&mut ctx, frame, port, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, &mut lb.ft, &mut lb.ring, &mut lb.pool, &cfg, now, mbuf);
            let b = ctx.buffer(mbuf.region).unwrap();
            dst = u32::from_be_bytes([b[30], b[31], b[32], b[33]]);
        });
        (v, dst)
    }

    fn heartbeat_all(rig: &mut Rig) {
        let (n, port) = (rig.cfg.n_backends, rig.cfg.backend_port);
        for b in 0..n {
            send(rig, &hb_frame(b), port);
        }
    }

    #[test]
    fn flows_stick_to_their_backend() {
        let mut rig = rig();
        heartbeat_all(&mut rig);
        let (v, dst1) = send(&mut rig, &client_frame(0x01020304, 1000), 0);
        assert_eq!(v, NfVerdict::Forward(1));
        assert_eq!(dst1 & 0xFFFF_0000, 0x0A01_0000, "steered to a backend");
        let (_, dst2) = send(&mut rig, &client_frame(0x01020304, 1000), 0);
        assert_eq!(dst1, dst2, "affinity preserved");
        // A different flow may get a different backend but stays in range.
        let (_, dst3) = send(&mut rig, &client_frame(0x05060708, 2000), 0);
        assert_eq!(dst3 & 0xFFFF_0000, 0x0A01_0000);
    }

    #[test]
    fn dead_backend_triggers_rehoming() {
        let mut rig = rig();
        heartbeat_all(&mut rig);
        let (_, dst1) = send(&mut rig, &client_frame(0x01020304, 1000), 0);
        let b1 = (dst1 & 0xFFFF) as u16;
        // Time passes beyond the heartbeat TTL: every backend looks dead;
        // heartbeat only backend (b1+1) mod n.
        let t = rig.cfg.hb_ttl_ns * 2;
        rig.clock.advance_to(t);
        let next = (b1 + 1) % rig.cfg.n_backends;
        let bport = rig.cfg.backend_port;
        send(&mut rig, &hb_frame(next), bport);
        let (_, dst2) = send(&mut rig, &client_frame(0x01020304, 1000), 0);
        // The flow was re-homed somewhere (possibly a still-dead ring pick
        // — the LB does one re-home attempt per packet, like the paper's
        // LB3 class).
        assert_eq!(dst2 & 0xFFFF_0000, 0x0A01_0000);
        // Affinity entry updated: the next packet keeps the new backend.
        let (_, dst3) = send(&mut rig, &client_frame(0x01020304, 1000), 0);
        assert_eq!(dst2, dst3);
    }

    #[test]
    fn heartbeats_are_consumed() {
        let mut rig = rig();
        let bport = rig.cfg.backend_port;
        let (v, _) = send(&mut rig, &hb_frame(3), bport);
        assert_eq!(v, NfVerdict::Drop);
        assert!(rig.lb.pool.raw_is_alive(3, rig.clock.now_raw()));
    }

    #[test]
    fn exploration_covers_lb_classes() {
        let result = LoadBalancer::default().explore(StackLevel::NfOnly).result;
        for tag in [
            "invalid",
            "heartbeat",
            "return-traffic",
            "existing:alive",
            "new-flow",
            "new-flow:table-full",
        ] {
            assert_eq!(result.tagged(tag).count(), 1, "{tag}");
        }
        // The re-homing path appears twice: the flow-table `update`
        // model forks hit/miss, and the engine cannot know the miss arm
        // is unreachable right after a successful `get`. BOLT keeps such
        // over-approximate paths; they are conservative, never unsound.
        assert_eq!(result.tagged("existing:dead").count(), 2);
        assert_eq!(result.paths.len(), 8);
    }
}
