//! Stateless firewall (Table 5a; the upstream half of §5.2's chain).
//!
//! Policy: IPv4 packets without IP options pass through a constant-cost
//! rule scan and are forwarded; packets carrying IP options are dropped
//! immediately (which is what lets the downstream router's expensive
//! option path be masked in the composed contract); non-IPv4 drops too.

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::Clock;
use nf_lib::registry::DsRegistry;

/// Firewall configuration: the static accept rules (dst prefix, dport).
#[derive(Clone, Debug)]
pub struct FirewallConfig {
    /// Rules scanned linearly; a packet is accepted if any matches.
    /// `(dst_prefix, prefix_len, dport or 0 for any)`.
    pub rules: Vec<(u32, u8, u16)>,
}

impl Default for FirewallConfig {
    fn default() -> Self {
        FirewallConfig {
            // Default-accept shape: last rule matches everything, so the
            // scan cost is constant (all rules evaluated en route).
            rules: vec![
                (0x0A000000, 8, 0),
                (0xC0A80000, 16, 443),
                (0x00000000, 0, 0),
            ],
        }
    }
}

/// The stateless firewall logic. No stateful library calls at all — the
/// whole NF is symbolically executed (contract cases are pure paths).
fn process<C: NfCtx>(ctx: &mut C, cfg: &FirewallConfig, mbuf: Mbuf) {
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if !ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    let ver_ihl = ctx.load(mbuf.region, h::IPV4_VER_IHL, 1);
    let fifteen = ctx.lit(0x0F, Width::W8);
    let ihl = ctx.and(ver_ihl, fifteen);
    // Any header longer than 5 words carries options: drop (the §5.2
    // policy that masks the router's slow path).
    let five = ctx.lit(5, Width::W8);
    let has_options = ctx.ult(five, ihl);
    if ctx.branch(has_options) {
        ctx.tag("ip-options");
        ctx.verdict(NfVerdict::Drop);
        return;
    }
    ctx.tag("no-options");
    // Constant-cost linear rule scan over the 5-tuple. The branchless
    // accept accumulation keeps the path count at one per class.
    let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
    let dport = ctx.load(mbuf.region, h::L4_DPORT, 2);
    let mut accepted = ctx.lit(0, Width::W1);
    for &(prefix, len, port) in &cfg.rules {
        let mask = if len == 0 { 0 } else { !0u32 << (32 - len) };
        let maskv = ctx.lit(mask as u64, Width::W32);
        let masked = ctx.and(dst, maskv);
        let want = ctx.lit((prefix & mask) as u64, Width::W32);
        let dst_ok = ctx.eq(masked, want);
        let port_ok = if port == 0 {
            ctx.lit(1, Width::W1)
        } else {
            ctx.eq_imm(dport, port as u64, Width::W16)
        };
        let rule_ok = ctx.and(dst_ok, port_ok);
        accepted = ctx.or(accepted, rule_ok);
    }
    if ctx.branch(accepted) {
        ctx.verdict(NfVerdict::Forward(1));
    } else {
        ctx.tag("rule-reject");
        ctx.verdict(NfVerdict::Drop);
    }
}

/// The firewall as a [`NetworkFunction`] descriptor. Stateless: its
/// registered-state handle and concrete state are both `()`.
#[derive(Clone, Debug, Default)]
pub struct Firewall {
    /// Configuration.
    pub cfg: FirewallConfig,
}

impl Firewall {
    /// Descriptor with an explicit configuration.
    pub fn with(cfg: FirewallConfig) -> Self {
        Firewall { cfg }
    }
}

impl NetworkFunction for Firewall {
    type Ids = ();
    type State = ();

    fn name(&self) -> &'static str {
        "firewall"
    }

    fn register(&self, _reg: &mut DsRegistry) {}

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.usize(self.cfg.rules.len());
        for &(prefix, len, dport) in &self.cfg.rules {
            fp.u32(prefix).u8(len).u16(dport);
        }
    }

    fn state(&self, _ids: (), _aspace: &mut AddressSpace) {}

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        _state: &mut (),
        _clock: &Clock,
        mbuf: Mbuf,
    ) {
        process(ctx, &self.cfg, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, _ids: (), mbuf: Mbuf) {
        process(ctx, &self.cfg, mbuf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_see::ConcreteCtx;
    use bolt_trace::CountingTracer;
    use dpdk_sim::{DpdkEnv, StackLevel};

    fn run(cfg: &FirewallConfig, frame: &[u8]) -> NfVerdict {
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);
        env.process_packet(&mut ctx, frame, 0, |ctx, mbuf| process(ctx, cfg, mbuf))
    }

    #[test]
    fn plain_ipv4_passes() {
        let f = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, h::IPPROTO_UDP, 64)
            .udp(5, 6)
            .build();
        assert_eq!(run(&FirewallConfig::default(), &f), NfVerdict::Forward(1));
    }

    #[test]
    fn options_are_dropped() {
        let f = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 2, h::IPPROTO_UDP, 64)
            .ipv4_options(2)
            .udp(5, 6)
            .build();
        assert_eq!(run(&FirewallConfig::default(), &f), NfVerdict::Drop);
    }

    #[test]
    fn non_ipv4_dropped() {
        let f = h::PacketBuilder::new().eth(2, 1, h::ETHERTYPE_IPV6).build();
        assert_eq!(run(&FirewallConfig::default(), &f), NfVerdict::Drop);
    }

    #[test]
    fn restrictive_rules_reject() {
        let cfg = FirewallConfig {
            rules: vec![(0x0A000000, 8, 0)],
        };
        let inside = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 0x0A010101, h::IPPROTO_UDP, 64)
            .udp(5, 6)
            .build();
        assert_eq!(run(&cfg, &inside), NfVerdict::Forward(1));
        let outside = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(1, 0x0B010101, h::IPPROTO_UDP, 64)
            .udp(5, 6)
            .build();
        assert_eq!(run(&cfg, &outside), NfVerdict::Drop);
    }

    #[test]
    fn class_structure_matches_table_5a() {
        let result = Firewall::default().explore(StackLevel::NfOnly).result;
        // invalid / ip-options / no-options(accept) — the default config's
        // catch-all rule makes a reject path infeasible.
        assert!(result.tagged("no-options").count() >= 1);
        assert_eq!(result.tagged("ip-options").count(), 1);
        assert_eq!(result.tagged("invalid").count(), 1);
        // No stateful calls anywhere: the firewall is pure.
        for p in &result.paths {
            assert!(!p
                .events
                .iter()
                .any(|e| matches!(e, bolt_trace::TraceEvent::Stateful(_))));
        }
        // The ip-options class is cheaper than the accept class (Table 5a:
        // 298 vs 477).
        let ic = |tag: &str| {
            result
                .tagged(tag)
                .map(|p| bolt_trace::count_ic_ma(&p.events).0)
                .max()
                .unwrap()
        };
        assert!(ic("ip-options") < ic("no-options"));
    }
}
