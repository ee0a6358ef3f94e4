//! `Explorer::max_paths` truncation on a wide symbolic fan-out: the
//! explorer stops at exactly the cap, sets the truncation marker, and
//! keeps the same prefix of the path tree on every run; uncapped, the
//! same NF explores its full tree.

use bolt::see::codec::encode_result;
use bolt::see::{Explorer, NfCtx, NfVerdict};

/// A wide symbolic fan-out (2^8 paths): every branch is feasible both
/// ways, so `max_paths` truncation engages mid-tree.
fn wide_nf(ctx: &mut bolt::see::SymbolicCtx<'_>) {
    let pkt = ctx.packet(64);
    for i in 0..8 {
        let b = ctx.load(pkt, i, 1);
        let z = ctx.lit(0, bolt::expr::Width::W8);
        let c = ctx.eq(b, z);
        ctx.branch(c);
    }
    ctx.verdict(NfVerdict::Drop);
}

#[test]
fn max_paths_truncation_is_exact_and_deterministic() {
    let capped = || {
        let mut ex = Explorer::new();
        ex.max_paths = 7;
        ex.explore(wide_nf)
    };
    let first = capped();
    assert!(first.truncated, "truncation marker must be set");
    assert_eq!(first.paths.len(), 7, "path count is exactly max_paths");
    assert_eq!(
        encode_result(&capped()),
        encode_result(&first),
        "a truncated exploration must keep the same prefix on every run"
    );
    // Uncapped, the same NF is complete.
    let full = Explorer::new().explore(wide_nf);
    assert!(!full.truncated);
    assert_eq!(full.paths.len(), 256);
}
