//! NF-aware layer over the persistent contract store.
//!
//! `bolt_store` moves raw checksummed records; this module gives them
//! meaning: [`store_key`] fingerprints an NF descriptor + stack level
//! into the store's addressing key, and [`StoreExt`] extends
//! [`ContractStore`] with the typed front door —
//! [`StoreExt::get_or_explore`] returns a decoded exploration on a warm
//! hit (zero exploration runs, zero solver queries) and explores + saves
//! on a miss. Exploration is deterministic per (config, level), which is
//! what makes the cached record a faithful stand-in for a fresh run.
//!
//! Each of the three record kinds is a typed get/put pair here:
//! explorations ([`StoreExt::get_or_explore`], the only record an NF
//! has — its contract is regenerated from it), composed-chain contracts
//! ([`StoreExt::get_composed`]) and chain plans ([`StoreExt::get_plan`]).
//! Header-only questions (size, stamp, existence) go to
//! [`ContractStore::header`] directly.
//!
//! Opt-in is explicit only ([`crate::nf::Bolt::with_store`],
//! [`crate::chain::Pipeline::with_store`]): the library opens no store
//! the caller did not hand it.

use std::io;

use dpdk_sim::StackLevel;

pub use bolt_store::{
    ContractStore, Fingerprint, Fingerprinter, RecordHeader, RecordKind, SweepReport,
};

use crate::codec::{decode_contract, encode_contract};
use crate::contract::NfContract;
use crate::nf::{registered, Exploration, NetworkFunction};

/// Stable tag of a stack level (part of the record header and key).
pub fn level_tag(level: StackLevel) -> u8 {
    match level {
        StackLevel::NfOnly => 0,
        StackLevel::FullStack => 1,
    }
}

/// Parse a stack-level tag back.
pub fn level_from_tag(tag: u8) -> Option<StackLevel> {
    match tag {
        0 => Some(StackLevel::NfOnly),
        1 => Some(StackLevel::FullStack),
        _ => None,
    }
}

/// Human name of a stack level (the CLI's `--level` vocabulary).
pub fn level_name(level: StackLevel) -> &'static str {
    match level {
        StackLevel::NfOnly => "nf-only",
        StackLevel::FullStack => "full-stack",
    }
}

/// Parse a stack level's human name back (the inverse of [`level_name`]).
pub fn level_from_name(name: &str) -> Option<StackLevel> {
    [StackLevel::NfOnly, StackLevel::FullStack]
        .into_iter()
        .find(|&level| level_name(level) == name)
}

/// The store key of one (NF descriptor, stack level) exploration: name,
/// symbolic packet length, every config field the descriptor feeds
/// through [`NetworkFunction::fingerprint_config`], and the level — all
/// under the store format version (seeded into the hasher) and the
/// crate version (so a release that may have changed NF bodies or the
/// explorer cold-starts the store instead of serving stale paths;
/// within one version, exploration-affecting changes must bump
/// `bolt_store::STORE_FORMAT_VERSION`).
pub fn store_key<N: NetworkFunction>(nf: &N, level: StackLevel) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.str("bolt.nf");
    fp.str(env!("CARGO_PKG_VERSION"));
    fp.str(nf.name());
    fp.u64(nf.packet_len());
    nf.fingerprint_config(&mut fp);
    fp.u8(level_tag(level));
    fp.finish()
}

/// The store key of one composed-pair record: the two operand
/// fingerprints — a stage's [`store_key`], or, for chains longer than
/// two, the composed key of the whole upstream prefix — plus the stack
/// level, under the store format version (seeded into the hasher) and
/// the crate version. Composition folds left, so the key of an n-stage
/// chain is `compose_key(compose_key(..), key_n, level)`; changing any
/// stage's configuration changes its stage key and therefore every
/// composed key downstream of it, so stale composed records simply miss
/// and are re-composed.
pub fn compose_key(first: Fingerprint, second: Fingerprint, level: StackLevel) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.str("bolt.compose");
    fp.str(env!("CARGO_PKG_VERSION"));
    fp.u128(first.0);
    fp.u128(second.0);
    fp.u8(level_tag(level));
    fp.finish()
}

/// The store key of one chain-parallelization plan: *every* stage
/// fingerprint in chain order, plus the stack level, under the store
/// format version (seeded into the hasher) and the crate version.
/// Unlike [`compose_key`]'s left fold, the plan key hashes the stage
/// list flat — the plan's groups can span any stages, so any stage
/// configuration change anywhere in the chain must invalidate it (the
/// changed stage key changes this key, and the stale plan simply
/// misses).
pub(crate) fn plan_key(stage_keys: &[Fingerprint], level: StackLevel) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.str("bolt.plan");
    fp.str(env!("CARGO_PKG_VERSION"));
    fp.u64(stage_keys.len() as u64);
    for k in stage_keys {
        fp.u128(k.0);
    }
    fp.u8(level_tag(level));
    fp.finish()
}

/// Typed operations over a [`ContractStore`] (implemented for it here,
/// since the store crate sits below the NF abstraction).
pub trait StoreExt {
    /// Warm path: read the record (header check, payload read), decode
    /// the stored exploration for this (NF, level) and share the
    /// registry the process calibrated for this configuration — no
    /// explorer run, no solver query, and no
    /// [`NetworkFunction::register`] unless this is the configuration's
    /// first use in the process. Cold path: explore, save the record,
    /// and return the fresh result. The returned [`Exploration::cached`]
    /// flag says which happened, and [`Exploration::record_bytes`] the
    /// size of the record read or written.
    fn get_or_explore<N: NetworkFunction>(&self, nf: &N, level: StackLevel) -> Exploration<N::Ids>;

    /// [`StoreExt::get_or_explore`]; the thread count is accepted and
    /// ignored, since exploration runs on the caller's thread. Kept only
    /// so existing callers build; it goes with them (ROADMAP item 1 (g)).
    fn get_or_explore_threads<N: NetworkFunction>(
        &self,
        nf: &N,
        level: StackLevel,
        _threads: usize,
    ) -> Exploration<N::Ids> {
        self.get_or_explore(nf, level)
    }

    /// Fetch and decode a composed-chain contract record (keyed by
    /// [`compose_key`]). A hit is fully solver-free: the record decodes
    /// straight into a queryable [`NfContract`].
    fn get_composed(&self, key: Fingerprint) -> Option<NfContract>;

    /// Encode and persist a composed-chain contract record. `chain_name`
    /// is the human-readable stage chain (e.g. `firewall+static_router`),
    /// shown by `list`; the addressing is entirely by `key`.
    fn put_composed(
        &self,
        key: Fingerprint,
        chain_name: &str,
        level: StackLevel,
        contract: &NfContract,
    ) -> io::Result<()>;

    /// Fetch and decode a stored chain-parallelization plan (keyed by
    /// `plan_key`). A hit skips every commutativity probe the planner
    /// would otherwise run.
    fn get_plan(&self, key: Fingerprint) -> Option<crate::chain::ChainPlan>;

    /// Encode and persist a chain-parallelization plan. `chain_name` is
    /// the human-readable stage chain; the record's path count slot
    /// holds the plan's group count.
    fn put_plan(
        &self,
        key: Fingerprint,
        chain_name: &str,
        level: StackLevel,
        plan: &crate::chain::ChainPlan,
    ) -> io::Result<()>;
}

/// Feed one fresh exploration's counters into a metrics registry, under
/// the `explore.*` / `solver.*` wire vocabulary. Called only on the cold
/// path — a warm record replays the *original* run's stats, which would
/// double-count work this process never did.
fn feed_explore_stats(metrics: &bolt_obs::Registry, stats: &bolt_see::ExploreStats) {
    metrics.counter("explore.explorations").inc();
    metrics.counter("explore.runs").add(stats.runs);
    metrics
        .counter("explore.terms_interned")
        .add(stats.terms_interned);
    metrics
        .counter("explore.syms_minted")
        .add(stats.syms_minted);
    let s = &stats.solver;
    metrics
        .counter("solver.checks_requested")
        .add(s.checks_requested);
    metrics.counter("solver.queries").add(s.solver_queries);
    metrics
        .counter("solver.completion_searches")
        .add(s.completion_searches);
    metrics
        .counter("solver.unsat_by_propagation")
        .add(s.unsat_by_propagation);
    metrics.counter("solver.memo_hits").add(s.memo_hits);
    metrics
        .counter("solver.witness_reuse_hits")
        .add(s.witness_reuse_hits);
    metrics
        .counter("solver.model_evictions")
        .add(s.model_evictions);
}

impl StoreExt for ContractStore {
    fn get_or_explore<N: NetworkFunction>(&self, nf: &N, level: StackLevel) -> Exploration<N::Ids> {
        let key = store_key(nf, level);
        if let Some((payload, record_bytes)) = self.get_sized(key, RecordKind::Exploration) {
            let decoded = {
                let _span = self.metrics().histogram("store.decode").span();
                bolt_see::codec::decode_result(&payload)
            };
            match decoded {
                Ok(result) => {
                    let (reg, ids) = registered(nf);
                    return Exploration {
                        reg,
                        ids,
                        level,
                        result,
                        cached: true,
                        record_bytes: Some(record_bytes),
                    };
                }
                Err(_) => {
                    // The header checked out but the payload did not
                    // decode (e.g. written by a buggy encoder): drop the
                    // record so the rewrite below replaces it.
                    let _ = self.evict(key, RecordKind::Exploration);
                }
            }
        }
        let mut ex = {
            let _span = self.metrics().histogram("explore.wall").span();
            nf.explore(level)
        };
        feed_explore_stats(self.metrics(), &ex.result.stats);
        let payload = bolt_see::codec::encode_result(&ex.result);
        // A failed write costs only the warm start, never the result.
        ex.record_bytes = self
            .put(
                key,
                RecordKind::Exploration,
                nf.name(),
                level_tag(level),
                ex.result.paths.len() as u64,
                &payload,
            )
            .ok();
        ex
    }

    fn get_composed(&self, key: Fingerprint) -> Option<NfContract> {
        let payload = self.get(key, RecordKind::Composed)?;
        decode_contract(&payload).ok()
    }

    fn get_plan(&self, key: Fingerprint) -> Option<crate::chain::ChainPlan> {
        let payload = self.get(key, RecordKind::Plan)?;
        crate::codec::decode_plan(&payload).ok()
    }

    fn put_plan(
        &self,
        key: Fingerprint,
        chain_name: &str,
        level: StackLevel,
        plan: &crate::chain::ChainPlan,
    ) -> io::Result<()> {
        let payload = crate::codec::encode_plan(plan);
        self.put(
            key,
            RecordKind::Plan,
            chain_name,
            level_tag(level),
            plan.groups.len() as u64,
            &payload,
        )
        .map(drop)
    }

    fn put_composed(
        &self,
        key: Fingerprint,
        chain_name: &str,
        level: StackLevel,
        contract: &NfContract,
    ) -> io::Result<()> {
        let payload = encode_contract(contract);
        self.put(
            key,
            RecordKind::Composed,
            chain_name,
            level_tag(level),
            contract.paths.len() as u64,
            &payload,
        )
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_tags_round_trip() {
        for level in [StackLevel::NfOnly, StackLevel::FullStack] {
            assert_eq!(level_from_tag(level_tag(level)), Some(level));
            assert_eq!(level_from_name(level_name(level)), Some(level));
        }
        assert_eq!(level_from_tag(9), None);
        assert_eq!(level_from_name("nf_only"), None);
    }

    #[test]
    fn plan_keys_cover_every_stage_and_the_level() {
        let ks = [Fingerprint(1), Fingerprint(2), Fingerprint(3)];
        let k = plan_key(&ks, StackLevel::NfOnly);
        assert_eq!(k, plan_key(&ks, StackLevel::NfOnly), "stable");
        assert_ne!(k, plan_key(&ks, StackLevel::FullStack), "level");
        let reordered = [Fingerprint(2), Fingerprint(1), Fingerprint(3)];
        assert_ne!(k, plan_key(&reordered, StackLevel::NfOnly), "order");
        let changed = [Fingerprint(1), Fingerprint(2), Fingerprint(4)];
        assert_ne!(
            k,
            plan_key(&changed, StackLevel::NfOnly),
            "any stage-config change must invalidate the plan"
        );
        assert_ne!(k, plan_key(&ks[..2], StackLevel::NfOnly), "length");
    }

    #[test]
    fn compose_keys_are_order_level_and_operand_sensitive() {
        let (a, b) = (Fingerprint(17), Fingerprint(42));
        let k = compose_key(a, b, StackLevel::FullStack);
        assert_eq!(k, compose_key(a, b, StackLevel::FullStack), "stable");
        assert_ne!(k, compose_key(b, a, StackLevel::FullStack), "order");
        assert_ne!(k, compose_key(a, b, StackLevel::NfOnly), "level");
        assert_ne!(
            k,
            compose_key(Fingerprint(18), b, StackLevel::FullStack),
            "a stale stage fingerprint must miss"
        );
    }
}
