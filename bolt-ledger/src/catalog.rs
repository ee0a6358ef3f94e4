//! The NF catalog the generation and serving workloads share: the eight
//! descriptors behind `bolt_serve::NF_NAMES`, at both stack levels.

use bolt_core::NetworkFunction;
use bolt_nfs::nat::{AllocKind, NatConfig};
use bolt_nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt_serve::NF_NAMES;
use dpdk_sim::StackLevel;

/// Both stack levels, in record-tag order.
pub const LEVELS: [StackLevel; 2] = [StackLevel::NfOnly, StackLevel::FullStack];

/// A computation generic over the NF descriptor type (each NF has its
/// own `Ids`/`State`, so a closure cannot take them all).
pub trait NfVisitor {
    /// What the computation yields.
    type Out;
    /// Run against one descriptor; `name` is its `NF_NAMES` entry.
    fn visit<N: NetworkFunction + Sync>(self, name: &'static str, nf: &N) -> Self::Out;
}

/// Run `v` against the `index`-th descriptor of `NF_NAMES`, built the
/// way the server's own dispatch builds it.
pub fn visit_nf<V: NfVisitor>(index: usize, v: V) -> V::Out {
    let name = NF_NAMES[index];
    match name {
        "bridge" => v.visit(name, &Bridge::default()),
        "example_router" => v.visit(name, &ExampleRouter::default()),
        "firewall" => v.visit(name, &Firewall::default()),
        "lb" => v.visit(name, &LoadBalancer::default()),
        "lpm_router" => v.visit(name, &LpmRouter::default()),
        "nat-a" => v.visit(name, &Nat::with(NatConfig::default(), AllocKind::A)),
        "nat-b" => v.visit(name, &Nat::with(NatConfig::default(), AllocKind::B)),
        "static_router" => v.visit(name, &StaticRouter::default()),
        other => unreachable!("NF_NAMES grew an entry the ledger does not build: {other}"),
    }
}

/// The catalog's (NF index, level) pairs in canonical order.
pub fn contracts() -> Vec<(usize, StackLevel)> {
    (0..NF_NAMES.len())
        .flat_map(|i| LEVELS.map(|l| (i, l)))
        .collect()
}
