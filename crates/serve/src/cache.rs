//! The server's hot-contract cache.
//!
//! A long-lived server amortises the expensive part of answering a query
//! — decoding a store record and rehydrating its term pool into a
//! queryable contract — across every client that asks about the same
//! (NF, level). This module holds those decoded contracts in memory
//! under an LRU byte budget, plus a per-contract *query memo* so a
//! repeated identical query is one map lookup.
//!
//! A hot contract answers any wire query from memory: a memo miss runs
//! `NfContract::query` over a tag or unconstrained class, which needs
//! neither the solver nor the disk. So the socket server's event loop
//! answers a query itself whenever [`ContractCache::peek`] finds its
//! contract and the entry's lock is free (see
//! [`crate::ServeCore::dispatch`]); only cold contracts go to the
//! handler pool.
//!
//! Three coherence details matter:
//!
//! * **Store/cache LRU agreement.** The on-disk store ranks records for
//!   [`bolt_store::ContractStore::sweep`] by a last-used stamp that a
//!   `get` bumps — but a server cache hit never calls `get`, so a record
//!   hot in the server would look cold to the sweeper. Cache hits
//!   therefore record a *pending touch*; the server flushes the batch
//!   through [`bolt_store::ContractStore::touch`] (one read and one
//!   stamp write per record, through one descriptor) once
//!   `FLUSH_EVERY` (32) records are pending (and on shutdown), keeping the
//!   sweeper's MRU order aligned with the server's without one stamp
//!   write per request.
//! * **Probes do not count as use.** [`ContractCache::peek`], the
//!   dispatch probe, neither bumps recency nor records a touch; the
//!   [`ContractCache::lookup`] the answer itself makes does both.
//! * **Entry mutability.** [`bolt_core::NfContract::query`] needs `&mut`
//!   (class constraints intern into the contract's term pool), so each
//!   entry lives behind its own [`Mutex`]: concurrent queries to
//!   *different* contracts run in parallel; queries to the same contract
//!   serialise only with each other, never with the cache map.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use bolt_core::NfContract;
use bolt_solver::Solver;
use bolt_store::Fingerprint;
use dpdk_sim::StackLevel;
use nf_lib::registry::DsRegistry;

use crate::protocol::QueryReply;

/// Memo key of one query against one cached contract: metric index,
/// optional tag class, and the PCV binding (sorted by name, so flag
/// order does not defeat the memo).
pub(crate) type MemoKey = (u8, Option<String>, Vec<(String, u64)>);

/// One decoded, queryable contract pinned hot in the server.
pub struct CacheEntry {
    /// The NF descriptor's own name (e.g. `nat` for both allocator
    /// variants) — what query output renders.
    pub nf_name: &'static str,
    /// The stack level the contract covers.
    pub level: StackLevel,
    /// Whether the exploration came from the store (`warm` in rendered
    /// output) or was run fresh by this server (`explored`).
    pub from_store: bool,
    /// The registry the contract was generated against (PCV names),
    /// shared with the process's memo for the NF's configuration.
    pub reg: Arc<DsRegistry>,
    /// The contract itself.
    pub contract: NfContract,
    /// Solver for class-compatibility checks. A wire class (a tag or
    /// unconstrained) adds no constraint, so serving never runs it.
    pub solver: Solver,
    /// Answers already computed against this contract: a hit here is
    /// the zero-work path — no decode, no solver, no exploration. Holds
    /// at most `MEMO_CAP` answers.
    pub memo: HashMap<MemoKey, QueryReply>,
}

/// Answers one entry's memo keeps. The cache budget weighs record bytes
/// only, so a client sending ever new PCV bindings (or unknown tags)
/// would otherwise grow one hot entry without bound; past the cap an
/// answer is still computed and returned, just not kept.
pub(crate) const MEMO_CAP: usize = 1024;

/// Flush pending last-used touches to disk once this many distinct
/// records are pending (shutdown always flushes the remainder).
const FLUSH_EVERY: usize = 32;

/// Cache tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// LRU byte budget over the *store size* of cached records (their
    /// on-disk bytes — the same unit `sweep --budget` uses). The
    /// most-recently-inserted entry is never evicted, so one oversized
    /// contract still serves.
    pub budget: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget: 64 * 1024 * 1024,
        }
    }
}

struct Slot {
    entry: Arc<Mutex<CacheEntry>>,
    weight: u64,
    last_access: u64,
}

#[derive(Default)]
struct CacheInner {
    slots: HashMap<Fingerprint, Slot>,
    total_weight: u64,
    clock: u64,
    pending_touches: HashSet<Fingerprint>,
}

/// The shared in-memory contract cache (see the module docs).
pub struct ContractCache {
    config: CacheConfig,
    inner: Mutex<CacheInner>,
}

impl ContractCache {
    /// Empty cache under a configuration.
    pub fn new(config: CacheConfig) -> Self {
        ContractCache {
            config,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The configuration the cache runs under.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Look up a hot contract. A hit bumps the entry's recency and
    /// records a pending on-disk touch (flushed in batches of
    /// `FLUSH_EVERY`).
    pub fn lookup(&self, key: Fingerprint) -> Option<Arc<Mutex<CacheEntry>>> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let slot = inner.slots.get_mut(&key)?;
        slot.last_access = clock;
        let entry = Arc::clone(&slot.entry);
        inner.pending_touches.insert(key);
        Some(entry)
    }

    /// Look at a hot contract *without* bumping recency or recording a
    /// touch — the event loop's dispatch probe, which must not distort
    /// LRU order for requests that then take the full
    /// [`ContractCache::lookup`] path anyway.
    pub fn peek(&self, key: Fingerprint) -> Option<Arc<Mutex<CacheEntry>>> {
        let inner = self.inner.lock().expect("cache poisoned");
        inner.slots.get(&key).map(|s| Arc::clone(&s.entry))
    }

    /// Insert a freshly decoded contract under its store key and weight
    /// (on-disk record bytes). Evicts least-recently-used entries until
    /// the budget holds again — never the entry just inserted — and
    /// returns the handle plus the evicted keys (the caller counts
    /// them; in-flight queries against an evicted entry finish safely
    /// on their own `Arc`).
    pub fn insert(
        &self,
        key: Fingerprint,
        entry: CacheEntry,
        weight: u64,
    ) -> (Arc<Mutex<CacheEntry>>, Vec<Fingerprint>) {
        let entry = Arc::new(Mutex::new(entry));
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.slots.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                weight,
                last_access: clock,
            },
        ) {
            inner.total_weight -= old.weight;
        }
        inner.total_weight += weight;
        let mut evicted = Vec::new();
        while inner.total_weight > self.config.budget && inner.slots.len() > 1 {
            let victim = inner
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(k, s)| (s.last_access, *k))
                .map(|(k, _)| *k);
            let Some(v) = victim else { break };
            if let Some(slot) = inner.slots.remove(&v) {
                inner.total_weight -= slot.weight;
            }
            evicted.push(v);
        }
        (entry, evicted)
    }

    /// Drain the pending touch batch if it has reached `FLUSH_EVERY`
    /// (or unconditionally with
    /// `force`). The caller writes the stamps through
    /// [`bolt_store::ContractStore::touch`].
    pub(crate) fn take_pending_touches(&self, force: bool) -> Vec<Fingerprint> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if !force && inner.pending_touches.len() < FLUSH_EVERY {
            return Vec::new();
        }
        let mut keys: Vec<Fingerprint> = inner.pending_touches.drain().collect();
        keys.sort();
        keys
    }

    /// Number of hot entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight (on-disk bytes) of the hot entries.
    #[cfg(test)]
    fn weight(&self) -> u64 {
        self.inner.lock().expect("cache poisoned").total_weight
    }

    /// A hot entry's (weight, memoised-answer count), without bumping
    /// recency — provenance reporting, not a lookup.
    pub(crate) fn slot_info(&self, key: Fingerprint) -> Option<(u64, usize)> {
        let entry = {
            let inner = self.inner.lock().expect("cache poisoned");
            let slot = inner.slots.get(&key)?;
            (Arc::clone(&slot.entry), slot.weight)
        };
        let memo_len = entry.0.lock().expect("entry poisoned").memo.len();
        Some((entry.1, memo_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::TermPool;

    fn entry(name: &'static str) -> CacheEntry {
        CacheEntry {
            nf_name: name,
            level: StackLevel::FullStack,
            from_store: true,
            reg: Arc::new(DsRegistry::new()),
            contract: NfContract {
                pool: TermPool::new(),
                paths: Vec::new(),
            },
            solver: Solver::default(),
            memo: HashMap::new(),
        }
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_recency() {
        let cache = ContractCache::new(CacheConfig { budget: 100 });
        let (a, b, c) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        assert!(cache.insert(a, entry("a"), 40).1.is_empty());
        assert!(cache.insert(b, entry("b"), 40).1.is_empty());
        // Touch a: b becomes the LRU victim.
        assert!(cache.lookup(a).is_some());
        let (_, evicted) = cache.insert(c, entry("c"), 40);
        assert_eq!(evicted, vec![b]);
        assert!(cache.lookup(a).is_some());
        assert!(cache.lookup(b).is_none());
        assert!(cache.lookup(c).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.weight(), 80);
    }

    #[test]
    fn peek_bumps_neither_recency_nor_touches() {
        let cache = ContractCache::new(CacheConfig { budget: 100 });
        let (a, b, c) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        cache.insert(a, entry("a"), 40);
        cache.insert(b, entry("b"), 40);
        // A peek at `a` must not save it from eviction...
        assert!(cache.peek(a).is_some());
        let (_, evicted) = cache.insert(c, entry("c"), 40);
        assert_eq!(evicted, vec![a], "peek must not bump LRU recency");
        // ...and must not queue an on-disk touch.
        assert!(cache.take_pending_touches(true).is_empty());
        assert!(cache.peek(b).is_some());
        assert!(cache.take_pending_touches(true).is_empty());
        cache.lookup(b);
        assert_eq!(cache.take_pending_touches(true), vec![b]);
    }

    #[test]
    fn an_oversized_entry_still_serves() {
        let cache = ContractCache::new(CacheConfig { budget: 10 });
        let k = Fingerprint(9);
        let (_, evicted) = cache.insert(k, entry("big"), 1000);
        assert!(evicted.is_empty());
        assert!(cache.lookup(k).is_some());
    }

    #[test]
    fn reinserting_a_key_replaces_its_weight() {
        let cache = ContractCache::new(CacheConfig { budget: 1000 });
        let k = Fingerprint(5);
        cache.insert(k, entry("x"), 600);
        cache.insert(k, entry("x"), 200);
        assert_eq!(cache.weight(), 200);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn touches_batch_until_the_flush_threshold() {
        let cache = ContractCache::new(CacheConfig { budget: 1000 });
        let keys: Vec<Fingerprint> = (0..FLUSH_EVERY as u128).map(Fingerprint).collect();
        for &k in &keys {
            cache.insert(k, entry("k"), 1);
        }
        for &k in &keys[..FLUSH_EVERY - 1] {
            cache.lookup(k);
            // A repeat hit on a pending record does not grow the batch.
            cache.lookup(k);
        }
        assert!(cache.take_pending_touches(false).is_empty(), "below batch");
        cache.lookup(keys[FLUSH_EVERY - 1]);
        assert_eq!(cache.take_pending_touches(false), keys);
        // Drained: nothing pending, even forced.
        assert!(cache.take_pending_touches(true).is_empty());
        // Force flushes a partial batch (the shutdown path).
        cache.lookup(keys[0]);
        assert_eq!(cache.take_pending_touches(true), vec![keys[0]]);
    }
}
