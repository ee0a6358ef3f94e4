//! Every path of every catalog contract gets a concrete packet: for the
//! eight catalog NFs at both stack levels, `Contract::synthesize_packet`
//! solves each path's constraint list from scratch and must return a
//! frame — 110 paths in all. A path it cannot synthesize is one the
//! solver left `Unknown`: the contract keeps it as feasible, but no
//! packet drives the NF down it, so no per-path check can judge it.

use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::StackLevel;
use bolt::NetworkFunction;

/// Frame length of a synthesized packet: room for every header field the
/// catalog NFs read.
const FRAME_LEN: usize = 128;

/// Paths of `nf`'s contract at `level`, and the indices of those that
/// got no packet, labelled for the failure message.
fn synthesize_all<N: NetworkFunction>(
    name: &str,
    nf: &N,
    level: StackLevel,
) -> (usize, Vec<String>) {
    let contract = nf.contract(level);
    let missing = (0..contract.paths().len())
        .filter(|&i| contract.synthesize_packet(i, FRAME_LEN).is_none())
        .map(|i| format!("{name} {level:?} path {i}"))
        .collect();
    (contract.paths().len(), missing)
}

#[test]
fn every_catalog_path_synthesizes_a_packet() {
    let nat = |kind| Nat::with(NatConfig::default(), kind);
    let (mut total, mut missing) = (0, Vec::new());
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        for (paths, gaps) in [
            synthesize_all("bridge", &Bridge::default(), level),
            synthesize_all("example_router", &ExampleRouter::default(), level),
            synthesize_all("firewall", &Firewall::default(), level),
            synthesize_all("lb", &LoadBalancer::default(), level),
            synthesize_all("lpm_router", &LpmRouter::default(), level),
            synthesize_all("nat-a", &nat(AllocKind::A), level),
            synthesize_all("nat-b", &nat(AllocKind::B), level),
            synthesize_all("static_router", &StaticRouter::default(), level),
        ] {
            total += paths;
            missing.extend(gaps);
        }
    }
    assert_eq!(total, 110, "the catalog's path count moved");
    assert!(
        missing.is_empty(),
        "{} of {total} paths got no packet: {missing:?}",
        missing.len()
    );
}
