//! VigNAT-style network address translator (scenarios NAT1–NAT4,
//! Table 6, and the §5.3 developer use cases).
//!
//! State is bundled in [`NatTable`]: a 3-word-keyed flow table (internal
//! 5-tuple → external port), a pluggable port allocator (A or B — the
//! §5.3 comparison), and a direct-indexed reverse map (external port →
//! packed internal endpoint). Expiry releases the expired flows' ports
//! and reverse entries, which is what couples `e` into the NAT's
//! contract the way Table 6 shows.
//!
//! The flow timestamp granularity comes from the [`nf_lib::clock::Clock`] the runner
//! uses — reproducing the §5.3 expiry-batching bug is a one-line change
//! of [`nf_lib::clock::Granularity`].

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::{PerfExpr, TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::{Clock, ClockModel};
use nf_lib::flow_table::{
    self, FlowTable, FlowTableIds, FlowTableOps, FlowTableParams, C_HIT, C_MISS, C_STORED,
    M_EXPIRE, M_GET, M_PUT,
};
use nf_lib::model::DsModel;
use nf_lib::port_alloc::{
    self, AllocatorA, AllocatorB, PortAllocIds, PortAllocOps, PortAllocator, PortMap, PortMapIds,
    PortMapOps, C_EXHAUSTED, C_OK, M_ALLOC, M_FREE, M_PM_GET, M_PM_SET,
};
use nf_lib::registry::{
    case_perf, sum3, with_glue, CaseContract, DsContract, DsRegistry, MethodContract,
};

use crate::{decrement_ttl, flow_key, forward_to, in_port};

/// NatTable method indices.
const N_EXPIRE: u16 = 0;
/// Internal-key lookup.
const N_LOOKUP_INT: u16 = 1;
/// New-flow establishment.
const N_NEW_FLOW: u16 = 2;
/// External-port reverse lookup.
const N_LOOKUP_EXT: u16 = 3;

/// `new_flow` cases.
const C_NF_OK: u16 = 0;
/// No free external ports.
const C_NF_PORTS: u16 = 1;
/// Flow table full.
const C_NF_FULL: u16 = 2;

/// Which allocator backs the NAT (§5.3's A/B choice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocKind {
    /// Doubly-linked free list.
    A,
    /// Rotating array scan.
    B,
}

/// NAT configuration.
#[derive(Clone, Copy, Debug)]
pub struct NatConfig {
    /// Flow table capacity (power of two).
    pub capacity: usize,
    /// Flow lifetime in nanoseconds.
    pub ttl_ns: u64,
    /// Number of external ports.
    pub n_ports: usize,
    /// First external port.
    pub base_port: u16,
    /// The NAT's external address.
    pub external_ip: u32,
    /// Device port facing the internal network.
    pub lan_port: u16,
    /// Device port facing the external network.
    pub wan_port: u16,
}

impl Default for NatConfig {
    fn default() -> Self {
        NatConfig {
            capacity: 4096,
            ttl_ns: 1_000_000,
            n_ports: 4096,
            base_port: 1024,
            external_ip: 0xC0A8_0101,
            lan_port: 0,
            wan_port: 1,
        }
    }
}

/// Registered-state handle.
#[derive(Clone, Copy, Debug)]
pub struct NatIds {
    /// The composite NAT table.
    pub nat: DsId,
    /// Inner flow table (owner of the bare `e`/`c`/`t`/`o` PCVs).
    pub ft: FlowTableIds,
    /// Inner port allocator (owner of the `p` PCV when kind is B).
    pub pa: PortAllocIds,
    /// Inner reverse map.
    pub pm: PortMapIds,
    /// Which allocator the contract was composed for.
    pub kind: AllocKind,
}

/// Operations of the composite NAT table.
trait NatTableOps<C: NfCtx> {
    /// Expire stale flows, releasing their ports. Returns the count.
    fn expire(&mut self, ctx: &mut C, now: C::Val) -> C::Val;
    /// Internal 5-tuple lookup; hit returns the flow's external port
    /// (refreshing its age).
    fn lookup_int(&mut self, ctx: &mut C, key: &[C::Val; 3], now: C::Val) -> Option<C::Val>;
    /// Establish a new flow: allocate a port, insert, and publish the
    /// reverse mapping (`packed` is the internal endpoint).
    fn new_flow(
        &mut self,
        ctx: &mut C,
        key: &[C::Val; 3],
        packed: C::Val,
        now: C::Val,
    ) -> NewFlowOutcome<C::Val>;
    /// Reverse lookup: the packed internal endpoint for an external port
    /// (0 when unmapped).
    fn lookup_ext(&mut self, ctx: &mut C, port: C::Val) -> C::Val;
}

/// Result of [`NatTableOps::new_flow`].
#[derive(Clone, Copy, Debug)]
enum NewFlowOutcome<V> {
    /// Flow established on this external port.
    Ok(V),
    /// Port pool exhausted.
    PortsExhausted,
    /// Flow table full.
    TableFull,
}

/// Glue instruction counts of the composite wrappers.
const GLUE_EXPIRE_FIXED: u32 = 3;
const GLUE_EXPIRE_PER_ENTRY: u32 = 3;
const GLUE_LOOKUP_INT: u32 = 4; // call + branch + trunc + ret
const GLUE_NEW_FLOW: u32 = 4;
const GLUE_LOOKUP_EXT: u32 = 2;

/// The concrete composite, around whichever allocator the descriptor
/// selected (§5.3's runtime A/B choice).
pub struct NatTable {
    /// Internal-key flow table.
    pub ft: FlowTable<3>,
    /// Port allocator.
    pub pa: PortAllocator,
    /// Reverse map.
    pub pm: PortMap,
}

impl NatTable {
    /// Concrete state for a registered NAT.
    fn new(ids: NatIds, cfg: &NatConfig, aspace: &mut AddressSpace) -> Self {
        let params = FlowTableParams {
            capacity: cfg.capacity,
            ttl_ns: cfg.ttl_ns,
        };
        // Allocation order fixes the simulated address layout, and with
        // it the measured cycles: allocator, flow table, reverse map.
        let pa = match ids.kind {
            AllocKind::A => {
                PortAllocator::A(AllocatorA::new(ids.pa, cfg.n_ports, cfg.base_port, aspace))
            }
            AllocKind::B => {
                PortAllocator::B(AllocatorB::new(ids.pa, cfg.n_ports, cfg.base_port, aspace))
            }
        };
        NatTable {
            ft: FlowTable::new(ids.ft, params, aspace),
            pa,
            pm: PortMap::new(ids.pm, cfg.n_ports, cfg.base_port, aspace),
        }
    }
}

impl<T: Tracer> NatTableOps<ConcreteCtx<'_, T>> for NatTable {
    fn expire(&mut self, ctx: &mut ConcreteCtx<'_, T>, now: CVal) -> CVal {
        ctx.tracer().instr(InstrClass::Call, 1);
        let e = self.ft.expire(ctx, now);
        // Release each expired flow's port and reverse entry.
        let expired: Vec<u64> = self.ft.last_expired.clone();
        for port in expired {
            ctx.tracer().alu(2); // loop control + port extraction
            let pv = ctx.lit(port, Width::W16);
            self.pa.free(ctx, pv);
            let zero = ctx.lit(0, Width::W64);
            self.pm.set(ctx, pv, zero);
        }
        ctx.tracer().alu(1);
        ctx.tracer().instr(InstrClass::Ret, 1);
        e
    }

    fn lookup_int(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        key: &[CVal; 3],
        now: CVal,
    ) -> Option<CVal> {
        ctx.tracer().instr(InstrClass::Call, 1);
        let r = self.ft.get(ctx, key, now);
        ctx.tracer().instr(InstrClass::Branch, 1);
        let out = r.map(|v| ctx.trunc(v, Width::W16));
        ctx.tracer().instr(InstrClass::Ret, 1);
        out
    }

    fn new_flow(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        key: &[CVal; 3],
        packed: CVal,
        now: CVal,
    ) -> NewFlowOutcome<CVal> {
        ctx.tracer().instr(InstrClass::Call, 1);
        let port = match self.pa.alloc(ctx) {
            Some(p) => p,
            None => {
                ctx.tracer().instr(InstrClass::Branch, 1);
                ctx.tracer().instr(InstrClass::Ret, 1);
                return NewFlowOutcome::PortsExhausted;
            }
        };
        ctx.tracer().instr(InstrClass::Branch, 1);
        let port64 = ctx.zext(port, Width::W64);
        let stored = self.ft.put(ctx, key, port64, now);
        ctx.tracer().instr(InstrClass::Branch, 1);
        if !stored {
            self.pa.free(ctx, port);
            ctx.tracer().instr(InstrClass::Ret, 1);
            return NewFlowOutcome::TableFull;
        }
        self.pm.set(ctx, port, packed);
        ctx.tracer().instr(InstrClass::Ret, 1);
        NewFlowOutcome::Ok(port)
    }

    fn lookup_ext(&mut self, ctx: &mut ConcreteCtx<'_, T>, port: CVal) -> CVal {
        ctx.tracer().instr(InstrClass::Call, 1);
        let v = self.pm.get(ctx, port);
        ctx.tracer().instr(InstrClass::Ret, 1);
        v
    }
}

impl NatTableOps<SymbolicCtx<'_>> for DsModel {
    fn expire(&mut self, ctx: &mut SymbolicCtx<'_>, _now: TermRef) -> TermRef {
        self.record(ctx, N_EXPIRE, 0);
        self.fresh_bounded(ctx, "nat.expired", Width::W64)
    }

    fn lookup_int(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _key: &[TermRef; 3],
        _now: TermRef,
    ) -> Option<TermRef> {
        let case = self.split(ctx, N_LOOKUP_INT, &[("nat.int.hit", C_HIT)], C_MISS);
        (case == C_HIT).then(|| ctx.fresh("nat.int.port", Width::W16))
    }

    fn new_flow(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _key: &[TermRef; 3],
        _packed: TermRef,
        _now: TermRef,
    ) -> NewFlowOutcome<TermRef> {
        let cases = [("nat.new.ok", C_NF_OK), ("nat.new.table_full", C_NF_FULL)];
        match self.split(ctx, N_NEW_FLOW, &cases, C_NF_PORTS) {
            C_NF_OK => NewFlowOutcome::Ok(ctx.fresh("nat.new.port", Width::W16)),
            C_NF_FULL => NewFlowOutcome::TableFull,
            _ => NewFlowOutcome::PortsExhausted,
        }
    }

    fn lookup_ext(&mut self, ctx: &mut SymbolicCtx<'_>, _port: TermRef) -> TermRef {
        self.record(ctx, N_LOOKUP_EXT, 0);
        ctx.fresh("nat.ext.packed", Width::W64)
    }
}

/// Register the NAT's stateful parts and compose the NatTable contract.
fn register(reg: &mut DsRegistry, cfg: &NatConfig, kind: AllocKind) -> NatIds {
    let params = FlowTableParams {
        capacity: cfg.capacity,
        ttl_ns: cfg.ttl_ns,
    };
    let ft = flow_table::register::<3>(reg, "nat.flows", "", params);
    let pa = match kind {
        AllocKind::A => port_alloc::register_a(reg, "nat.ports_a", cfg.n_ports, cfg.base_port),
        AllocKind::B => port_alloc::register_b(reg, "nat.ports_b", cfg.n_ports, cfg.base_port),
    };
    let pm = port_alloc::register_map(reg, "nat.reverse", cfg.n_ports, cfg.base_port);

    let ft_expire = case_perf(reg, ft.ds, M_EXPIRE, 0);
    let get_hit = case_perf(reg, ft.ds, M_GET, C_HIT);
    let get_miss = case_perf(reg, ft.ds, M_GET, C_MISS);
    let put_stored = case_perf(reg, ft.ds, M_PUT, C_STORED);
    let put_full = case_perf(reg, ft.ds, M_PUT, flow_table::C_FULL);
    let alloc_ok = case_perf(reg, pa.ds, M_ALLOC, C_OK);
    let alloc_exh = case_perf(reg, pa.ds, M_ALLOC, C_EXHAUSTED);
    let pa_free = case_perf(reg, pa.ds, M_FREE, 0);
    let pm_set = case_perf(reg, pm.ds, M_PM_SET, 0);
    let pm_get = case_perf(reg, pm.ds, M_PM_GET, 0);

    // expire = ft.expire + e · (free + pm.set + per-entry glue) + glue.
    let e_var = PerfExpr::var(ft.e, 1);
    let per_entry = with_glue(sum3(&pa_free, &pm_set), GLUE_EXPIRE_PER_ENTRY);
    let expire = with_glue(
        [
            ft_expire[0].add(&per_entry[0].mul(&e_var)),
            ft_expire[1].add(&per_entry[1].mul(&e_var)),
            ft_expire[2].add(&per_entry[2].mul(&e_var)),
        ],
        GLUE_EXPIRE_FIXED,
    );
    let contract = DsContract {
        methods: vec![
            MethodContract {
                name: "expire",
                cases: vec![CaseContract {
                    name: "expired",
                    perf: expire,
                }],
            },
            MethodContract {
                name: "lookup_int",
                cases: vec![
                    CaseContract {
                        name: "known flow",
                        perf: with_glue(get_hit, GLUE_LOOKUP_INT),
                    },
                    CaseContract {
                        name: "unknown flow",
                        perf: with_glue(get_miss, GLUE_LOOKUP_INT),
                    },
                ],
            },
            MethodContract {
                name: "new_flow",
                cases: vec![
                    CaseContract {
                        name: "established",
                        perf: with_glue(
                            sum3(&sum3(&alloc_ok, &put_stored), &pm_set),
                            GLUE_NEW_FLOW,
                        ),
                    },
                    CaseContract {
                        name: "ports exhausted",
                        perf: with_glue(alloc_exh, GLUE_NEW_FLOW),
                    },
                    CaseContract {
                        name: "table full",
                        perf: with_glue(sum3(&sum3(&alloc_ok, &put_full), &pa_free), GLUE_NEW_FLOW),
                    },
                ],
            },
            MethodContract {
                name: "lookup_ext",
                cases: vec![CaseContract {
                    name: "reverse lookup",
                    perf: with_glue(pm_get, GLUE_LOOKUP_EXT),
                }],
            },
        ],
    };
    let nat = reg.register("nat", contract);
    NatIds {
        nat,
        ft,
        pa,
        pm,
        kind,
    }
}

/// The stateless NAT logic (Table 6's five rows are its paths).
fn process<C: NfCtx, N: NatTableOps<C>>(
    ctx: &mut C,
    nat: &mut N,
    cfg: &NatConfig,
    now: C::Val,
    mbuf: Mbuf,
) {
    let _e = nat.expire(ctx, now);
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if !ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let proto = ctx.load(mbuf.region, h::IPV4_PROTO, 1);
    let is_tcp = ctx.eq_imm(proto, h::IPPROTO_TCP as u64, Width::W8);
    let is_udp = ctx.eq_imm(proto, h::IPPROTO_UDP as u64, Width::W8);
    let l4_ok = ctx.or(is_tcp, is_udp);
    if !ctx.branch(l4_ok) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let dir = in_port(ctx, &mbuf);
    if ctx.branch_eq_imm(dir, cfg.lan_port as u64, Width::W16) {
        // Internal → external.
        let src = ctx.load(mbuf.region, h::IPV4_SRC, 4);
        let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
        let sport = ctx.load(mbuf.region, h::L4_SPORT, 2);
        let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
        let key = flow_key(ctx, src, dst, sport, dport, proto);
        let port = match nat.lookup_int(ctx, &key, now) {
            Some(port) => {
                ctx.tag("int:known");
                port
            }
            None => {
                // Pack the internal endpoint for the reverse map.
                let src64 = ctx.zext(src, Width::W64);
                let sp64 = ctx.zext(sport, Width::W64);
                let sixteen = ctx.lit(16, Width::W64);
                let hi = ctx.shl(src64, sixteen);
                let packed = ctx.or(hi, sp64);
                match nat.new_flow(ctx, &key, packed, now) {
                    NewFlowOutcome::Ok(port) => {
                        ctx.tag("int:new");
                        port
                    }
                    NewFlowOutcome::PortsExhausted => {
                        ctx.tag("int:exhausted");
                        ctx.verdict(NfVerdict::Drop);
                        return;
                    }
                    NewFlowOutcome::TableFull => {
                        ctx.tag("int:full");
                        ctx.verdict(NfVerdict::Drop);
                        return;
                    }
                }
            }
        };
        // Rewrite: source becomes the NAT's external endpoint.
        let ext_ip = ctx.lit(cfg.external_ip as u64, Width::W32);
        ctx.store(mbuf.region, h::IPV4_SRC, ext_ip, 4);
        ctx.store(mbuf.region, h::L4_SPORT, port, 2);
        decrement_ttl(ctx, &mbuf);
        let wan = ctx.lit(cfg.wan_port as u64, Width::W16);
        forward_to(ctx, wan);
    } else {
        // External → internal: reverse-map the destination port.
        let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
        let packed = nat.lookup_ext(ctx, dport);
        let zero = ctx.lit(0, Width::W64);
        let mapped = ctx.ne(packed, zero);
        if ctx.branch(mapped) {
            ctx.tag("ext:known");
            let sixteen = ctx.lit(16, Width::W64);
            let ip64 = ctx.shr(packed, sixteen);
            let ip = ctx.trunc(ip64, Width::W32);
            let port = ctx.trunc(packed, Width::W16);
            ctx.store(mbuf.region, h::IPV4_DST, ip, 4);
            ctx.store(mbuf.region, h::L4_DPORT, port, 2);
            decrement_ttl(ctx, &mbuf);
            let lan = ctx.lit(cfg.lan_port as u64, Width::W16);
            forward_to(ctx, lan);
        } else {
            ctx.tag("ext:new");
            ctx.verdict(NfVerdict::Drop);
        }
    }
}

/// The NAT as a [`NetworkFunction`] descriptor.
#[derive(Clone, Copy, Debug)]
pub struct Nat {
    /// Configuration.
    pub cfg: NatConfig,
    /// Which allocator backs the port pool.
    pub kind: AllocKind,
}

impl Default for Nat {
    fn default() -> Self {
        Nat {
            cfg: NatConfig::default(),
            kind: AllocKind::A,
        }
    }
}

impl Nat {
    /// Descriptor with an explicit configuration and allocator.
    pub fn with(cfg: NatConfig, kind: AllocKind) -> Self {
        Nat { cfg, kind }
    }
}

impl NetworkFunction for Nat {
    type Ids = NatIds;
    type State = NatTable;

    fn name(&self) -> &'static str {
        "nat"
    }

    fn register(&self, reg: &mut DsRegistry) -> NatIds {
        register(reg, &self.cfg, self.kind)
    }

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.usize(self.cfg.capacity)
            .u64(self.cfg.ttl_ns)
            .usize(self.cfg.n_ports)
            .u16(self.cfg.base_port)
            .u32(self.cfg.external_ip)
            .u16(self.cfg.lan_port)
            .u16(self.cfg.wan_port)
            .u8(match self.kind {
                AllocKind::A => 0,
                AllocKind::B => 1,
            });
    }

    fn state(&self, ids: NatIds, aspace: &mut AddressSpace) -> NatTable {
        NatTable::new(ids, &self.cfg, aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut NatTable,
        clock: &Clock,
        mbuf: Mbuf,
    ) {
        let now = clock.now(ctx);
        process(ctx, state, &self.cfg, now, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: NatIds, mbuf: Mbuf) {
        let mut model = DsModel {
            ds: ids.nat,
            bound: self.cfg.capacity as u64,
        };
        let now = ClockModel.now(ctx);
        process(ctx, &mut model, &self.cfg, now, mbuf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_see::ConcreteCtx;
    use bolt_trace::{CountingTracer, Metric, StatefulCall};
    use dpdk_sim::{DpdkEnv, StackLevel};
    use nf_lib::clock::{Clock, Granularity};

    fn int_frame(src_ip: u32, sport: u16) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(src_ip, 0x08080808, h::IPPROTO_UDP, 64)
            .udp(sport, 80)
            .build()
    }

    fn ext_frame(dport: u16) -> Vec<u8> {
        h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(0x08080808, 0xC0A80101, h::IPPROTO_UDP, 64)
            .udp(80, dport)
            .build()
    }

    struct Rig {
        env: DpdkEnv,
        nat: NatTable,
        cfg: NatConfig,
        clock: Clock,
    }

    fn rig() -> Rig {
        let mut reg = DsRegistry::new();
        let cfg = NatConfig {
            capacity: 64,
            ttl_ns: 1000,
            n_ports: 64,
            ..NatConfig::default()
        };
        let ids = register(&mut reg, &cfg, AllocKind::A);
        let mut aspace = AddressSpace::new();
        Rig {
            env: DpdkEnv::full_stack(),
            nat: NatTable::new(ids, &cfg, &mut aspace),
            cfg,
            clock: Clock::new(Granularity::Nanoseconds),
        }
    }

    fn send(rig: &mut Rig, frame: &[u8], port: u16) -> (NfVerdict, Vec<u8>) {
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        let mut out = Vec::new();
        let cfg = rig.cfg;
        let clock = rig.clock.clone();
        let nat = &mut rig.nat;
        let v = rig.env.process_packet(&mut ctx, frame, port, |ctx, mbuf| {
            let now = clock.now(ctx);
            process(ctx, nat, &cfg, now, mbuf);
            out = ctx.buffer(mbuf.region).unwrap()[..64].to_vec();
        });
        (v, out)
    }

    #[test]
    fn translates_and_reverses() {
        let mut rig = rig();
        // First internal packet: establishes a flow, rewrites the source.
        let (v, out) = send(&mut rig, &int_frame(0x0A000001, 5555), 0);
        assert_eq!(v, NfVerdict::Forward(1));
        let ext_ip = u32::from_be_bytes([out[26], out[27], out[28], out[29]]);
        assert_eq!(ext_ip, rig.cfg.external_ip);
        let ext_port = u16::from_be_bytes([out[34], out[35]]);
        assert!(ext_port >= rig.cfg.base_port);
        // Same flow again: same port (affinity).
        let (_, out2) = send(&mut rig, &int_frame(0x0A000001, 5555), 0);
        assert_eq!(u16::from_be_bytes([out2[34], out2[35]]), ext_port);
        // Reply from outside to that port: rewritten back to the host.
        let (v, back) = send(&mut rig, &ext_frame(ext_port), 1);
        assert_eq!(v, NfVerdict::Forward(0));
        let dst = u32::from_be_bytes([back[30], back[31], back[32], back[33]]);
        assert_eq!(dst, 0x0A000001);
        assert_eq!(u16::from_be_bytes([back[36], back[37]]), 5555);
    }

    #[test]
    fn unsolicited_external_dropped() {
        let mut rig = rig();
        let (v, _) = send(&mut rig, &ext_frame(2000), 1);
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut rig = rig();
        let (_, a) = send(&mut rig, &int_frame(0x0A000001, 1000), 0);
        let (_, b) = send(&mut rig, &int_frame(0x0A000002, 1000), 0);
        assert_ne!(
            u16::from_be_bytes([a[34], a[35]]),
            u16::from_be_bytes([b[34], b[35]])
        );
    }

    #[test]
    fn expiry_releases_ports_and_reverse_entries() {
        let mut rig = rig();
        let (_, out) = send(&mut rig, &int_frame(0x0A000001, 7777), 0);
        let port = u16::from_be_bytes([out[34], out[35]]);
        assert_eq!(rig.nat.pa.available(), 63);
        // Advance past the TTL; the next packet triggers expiry.
        rig.clock.advance_to(5000);
        let (_, _) = send(&mut rig, &int_frame(0x0B000001, 1), 0);
        // The expired flow's port came back before the new one was taken:
        // net occupancy stays at one flow.
        assert_eq!(rig.nat.pa.available(), 63, "old port freed, new taken");
        // Allocator A recycles FIFO (port-reuse delay), so the freed port
        // goes to the back of the line: its reverse mapping is gone and
        // unsolicited traffic to it drops.
        let (v, _) = send(&mut rig, &ext_frame(port), 1);
        assert_eq!(v, NfVerdict::Drop, "old mapping must be cleared");
    }

    #[test]
    fn non_l4_and_non_ip_dropped() {
        let mut rig = rig();
        let icmp = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, 1, 64) // ICMP
            .build();
        assert_eq!(send(&mut rig, &icmp, 0).0, NfVerdict::Drop);
        let v6 = h::PacketBuilder::new().eth(2, 1, h::ETHERTYPE_IPV6).build();
        assert_eq!(send(&mut rig, &v6, 0).0, NfVerdict::Drop);
    }

    #[test]
    fn exploration_covers_table_6_rows() {
        let result = Nat::default().explore(StackLevel::NfOnly).result;
        // Table 6: invalid (×2 shapes), known, new-ok, full, exhausted,
        // ext-known, ext-new.
        assert_eq!(result.tagged("invalid").count(), 2);
        assert_eq!(result.tagged("int:known").count(), 1);
        assert_eq!(result.tagged("int:new").count(), 1);
        assert_eq!(result.tagged("int:full").count(), 1);
        assert_eq!(result.tagged("int:exhausted").count(), 1);
        assert_eq!(result.tagged("ext:known").count(), 1);
        assert_eq!(result.tagged("ext:new").count(), 1);
        assert_eq!(result.paths.len(), 8);
    }

    #[test]
    fn nat_contract_has_table_6_shape() {
        let mut reg = DsRegistry::new();
        let cfg = NatConfig::default();
        let ids = register(&mut reg, &cfg, AllocKind::A);
        // expire: e, e·c, e·t terms present.
        let exp = reg.resolve(StatefulCall {
            ds: ids.nat,
            method: N_EXPIRE,
            case: 0,
        });
        let expr = exp.expr(Metric::Instructions);
        use bolt_expr::Monomial;
        assert!(expr.coeff(&Monomial::var(ids.ft.e)) > 0);
        let et = Monomial::var(ids.ft.e).mul(&Monomial::var(ids.ft.te));
        let ec = Monomial::var(ids.ft.e).mul(&Monomial::var(ids.ft.ce));
        assert!(expr.coeff(&et) > 0);
        assert!(expr.coeff(&ec) > 0);
        // known flow: c and t terms.
        let known = reg.resolve(StatefulCall {
            ds: ids.nat,
            method: N_LOOKUP_INT,
            case: C_HIT,
        });
        assert!(
            known
                .expr(Metric::Instructions)
                .coeff(&Monomial::var(ids.ft.t))
                > 0
        );
    }
}
