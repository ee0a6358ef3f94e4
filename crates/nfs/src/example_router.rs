//! The §2 running example: Algorithm 1's simple LPM router.
//!
//! Invalid (non-IPv4) packets drop at constant cost; valid packets do a
//! trie lookup whose cost is linear in the matched prefix length `l` —
//! the stylised contract of Table 1 (whole router) and Table 2 (the
//! `lpmGet` method).

use bolt_core::nf::{Fingerprinter, NetworkFunction};
use bolt_expr::Width;
use bolt_see::{ConcreteCtx, NfCtx, NfVerdict, SymbolicCtx};
use bolt_trace::{AddressSpace, Tracer};
use dpdk_sim::{headers as h, Mbuf};
use nf_lib::clock::Clock;
use nf_lib::lpm_trie::{self, LpmTrie, LpmTrieIds, LpmTrieOps};
use nf_lib::model::DsModel;
use nf_lib::registry::DsRegistry;

use crate::forward_to;

/// Registered-state handle.
#[derive(Clone, Copy, Debug)]
pub struct ExampleRouterIds {
    /// The trie.
    pub trie: LpmTrieIds,
}

/// Register the router's stateful parts. The trie's PCV uses the bare
/// name `l` as in the paper's tables.
fn register(reg: &mut DsRegistry) -> ExampleRouterIds {
    ExampleRouterIds {
        trie: lpm_trie::register(reg, "lpm", ""),
    }
}

/// Algorithm 1, line for line.
fn process<C: NfCtx, T: LpmTrieOps<C>>(ctx: &mut C, trie: &mut T, mbuf: Mbuf) {
    let ether_type = ctx.load(mbuf.region, h::ETHER_TYPE, 2);
    if ctx.branch_eq_imm(ether_type, h::ETHERTYPE_IPV4 as u64, Width::W16) {
        ctx.tag("valid");
        let dst = ctx.load(mbuf.region, h::IPV4_DST, 4);
        let port = trie.lookup(ctx, dst);
        forward_to(ctx, port);
    } else {
        ctx.tag("invalid");
        ctx.verdict(NfVerdict::Drop);
    }
}

/// Concrete state bundle.
pub struct ExampleRouterState {
    /// The instrumented trie.
    pub trie: LpmTrie,
}

impl ExampleRouterState {
    /// Build concrete state with room for `max_nodes` trie nodes.
    fn new(ids: ExampleRouterIds, max_nodes: usize, aspace: &mut AddressSpace) -> Self {
        ExampleRouterState {
            trie: LpmTrie::new(ids.trie, max_nodes, 0, aspace),
        }
    }
}

/// The §2 running example as a [`NetworkFunction`] descriptor.
#[derive(Clone, Copy, Debug)]
pub struct ExampleRouter {
    /// Trie node capacity for concrete state.
    pub max_nodes: usize,
}

impl Default for ExampleRouter {
    fn default() -> Self {
        ExampleRouter { max_nodes: 4096 }
    }
}

impl NetworkFunction for ExampleRouter {
    type Ids = ExampleRouterIds;
    type State = ExampleRouterState;

    fn name(&self) -> &'static str {
        "example_router"
    }

    fn register(&self, reg: &mut DsRegistry) -> ExampleRouterIds {
        register(reg)
    }

    fn fingerprint_config(&self, fp: &mut Fingerprinter) {
        fp.usize(self.max_nodes);
    }

    fn state(&self, ids: ExampleRouterIds, aspace: &mut AddressSpace) -> ExampleRouterState {
        ExampleRouterState::new(ids, self.max_nodes, aspace)
    }

    fn process<T: Tracer>(
        &self,
        ctx: &mut ConcreteCtx<'_, T>,
        state: &mut ExampleRouterState,
        _clock: &Clock,
        mbuf: Mbuf,
    ) {
        process(ctx, &mut state.trie, mbuf);
    }

    fn sym_process(&self, ctx: &mut SymbolicCtx<'_>, ids: ExampleRouterIds, mbuf: Mbuf) {
        let mut model = DsModel {
            ds: ids.trie.ds,
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
    fn routes_valid_and_drops_invalid() {
        let mut reg = DsRegistry::new();
        let ids = register(&mut reg);
        let mut aspace = AddressSpace::new();
        let mut router = ExampleRouterState::new(ids, 4096, &mut aspace);
        router.trie.insert(0x0A000000, 8, 3);
        let mut env = DpdkEnv::full_stack();
        let mut tracer = CountingTracer::new();
        let mut ctx = ConcreteCtx::new(&mut tracer);

        let valid = h::PacketBuilder::new()
            .eth(2, 1, h::ETHERTYPE_IPV4)
            .ipv4(0x01020304, 0x0A123456, h::IPPROTO_UDP, 64)
            .udp(1, 2)
            .build();
        let v = env.process_packet(&mut ctx, &valid, 0, |ctx, mbuf| {
            process(ctx, &mut router.trie, mbuf)
        });
        assert_eq!(v, NfVerdict::Forward(3));

        let invalid = h::PacketBuilder::new().eth(2, 1, h::ETHERTYPE_IPV6).build();
        let v = env.process_packet(&mut ctx, &invalid, 0, |ctx, mbuf| {
            process(ctx, &mut router.trie, mbuf)
        });
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn two_input_classes_emerge() {
        let result = ExampleRouter::default().explore(StackLevel::NfOnly).result;
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.tagged("valid").count(), 1);
        assert_eq!(result.tagged("invalid").count(), 1);
        // The invalid path is cheaper than the valid one even before the
        // trie contract is added (Table 1's structure).
        let ic = |tag: &str| bolt_trace::count_ic_ma(&result.tagged(tag).next().unwrap().events).0;
        assert!(ic("invalid") < ic("valid") + 50);
    }
}
