//! The network functions under analysis.
//!
//! Everything the paper evaluates (§5.1) plus the NFs its use cases need
//! (§5.2–§5.3), each written once as stateless logic over
//! [`bolt_see::NfCtx`] against the `nf-lib` operation traits, in the
//! Vigor style the paper assumes:
//!
//! | module | NF | paper scenarios |
//! |---|---|---|
//! | [`bridge`] | learning MAC bridge w/ rehash defence | Br1–Br3, Fig 2, Table 4 |
//! | [`nat`] | VigNAT-style NAT (pluggable port allocator) | NAT1–NAT4, Table 6, Figs 4–7 |
//! | [`lb`] | Maglev-like load balancer | LB1–LB5 |
//! | [`lpm_router`] | DIR-24-8 LPM router | LPM1, LPM2 |
//! | [`firewall`] | stateless firewall dropping IP options | Table 5a, Fig 3 |
//! | [`static_router`] | static router processing IP options | Table 5b, Fig 3 |
//! | [`example_router`] | Algorithm 1's trie router | Tables 1 and 2 |
//!
//! Every NF implements [`bolt_core::nf::NetworkFunction`] through a cheap
//! *descriptor* type (`Bridge`, `Nat`, `Firewall`, …) bundling its
//! configuration. The descriptor provides the whole paper workflow:
//!
//! ```ignore
//! let mut contract = Bolt::nf(Bridge::default())
//!     .explore(StackLevel::FullStack)
//!     .contract();
//! ```
//!
//! The descriptor is the NF's only public face: registration, concrete
//! state and both builds of the stateless logic are reached through its
//! trait methods.

pub mod bridge;
pub mod example_router;
pub mod firewall;
pub mod lb;
pub mod lpm_router;
pub mod nat;
pub mod static_router;

pub use bridge::Bridge;
pub use example_router::ExampleRouter;
pub use firewall::Firewall;
pub use lb::LoadBalancer;
pub use lpm_router::LpmRouter;
pub use nat::Nat;
pub use static_router::StaticRouter;

use bolt_expr::Width;
use bolt_see::NfCtx;
use bolt_trace::Tracer;
use dpdk_sim::Mbuf;

/// The packet's input port as a context value ([`NfCtx::in_port`]):
/// concrete runs read the mbuf metadata; the analysis build makes it a
/// fresh symbol so input classes can constrain traffic direction
/// ("packets arriving from the internal network"). Costs one ALU op
/// (metadata is register-resident).
pub(crate) fn in_port<C: NfCtx>(ctx: &mut C, mbuf: &Mbuf) -> C::Val {
    ctx.tracer().alu(1);
    ctx.in_port(mbuf.port)
}

/// Build the canonical 3-word flow key from the 5-tuple:
/// `[src_ip, dst_ip, proto<<32 | sport<<16 | dport]`, zero-extended to 64
/// bits (the flow table hashes whole words).
pub(crate) fn flow_key<C: NfCtx>(
    ctx: &mut C,
    src_ip: C::Val,
    dst_ip: C::Val,
    sport: C::Val,
    dport: C::Val,
    proto: C::Val,
) -> [C::Val; 3] {
    let k0 = ctx.zext(src_ip, Width::W64);
    let k1 = ctx.zext(dst_ip, Width::W64);
    let sp = ctx.zext(sport, Width::W64);
    let dp = ctx.zext(dport, Width::W64);
    let pr = ctx.zext(proto, Width::W64);
    let sixteen = ctx.lit(16, Width::W64);
    let thirty_two = ctx.lit(32, Width::W64);
    let sp16 = ctx.shl(sp, sixteen);
    let pr32 = ctx.shl(pr, thirty_two);
    let lo = ctx.or(sp16, dp);
    let k2 = ctx.or(lo, pr32);
    [k0, k1, k2]
}

/// Decrement the IPv4 TTL and apply the incremental checksum update
/// (RFC 1624-style constant adjustment): one load, arithmetic, two
/// stores.
pub(crate) fn decrement_ttl<C: NfCtx>(ctx: &mut C, mbuf: &Mbuf) {
    use dpdk_sim::headers as h;
    let ttl = ctx.load(mbuf.region, h::IPV4_TTL, 1);
    let one = ctx.lit(1, Width::W8);
    let new_ttl = ctx.sub(ttl, one);
    ctx.store(mbuf.region, h::IPV4_TTL, new_ttl, 1);
    let csum = ctx.load(mbuf.region, h::IPV4_CSUM, 2);
    let adj = ctx.lit(0x0100, Width::W16);
    let new_csum = ctx.add(csum, adj);
    ctx.store(mbuf.region, h::IPV4_CSUM, new_csum, 2);
}

/// Forward with the port taken from a context value (concrete runs carry
/// the real number; the analysis build reports port 0 — the verdict's
/// port is measurement metadata, not analysed state).
pub(crate) fn forward_to<C: NfCtx>(ctx: &mut C, port: C::Val) {
    let p = ctx.concrete_value(port).map(|v| v as u16).unwrap_or(0);
    ctx.verdict(bolt_see::NfVerdict::Forward(p));
}
