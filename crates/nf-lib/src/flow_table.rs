//! Chained-expiry flow table: open-addressing hash map + age list.
//!
//! This is the reproduction of Vigor/VigNAT's core stateful pair (hash
//! map plus "double chain" expirator) that the paper's NAT, load
//! balancer, and bridge all build on:
//!
//! * **slots** — open addressing with linear probing and tombstones.
//!   Probing distinguishes the paper's two PCVs: `t` counts probed
//!   non-terminal slots (tombstones *and* occupied mismatches), `c` counts
//!   the occupied mismatches that forced a key comparison. Key comparisons
//!   exit at the first differing word, while the contract charges the
//!   full-width compare — this deliberate path coalescing (§3.2's
//!   "worst bit pattern" choice) is the source of the conservative gap.
//! * **age list** — an intrusive doubly-linked list ordered by last-use
//!   time. [`FlowTable::expire`] pops expired entries from the head and
//!   erases each from the hash structure by key probe, which is what
//!   creates the contract's `e·t` and `e·c` cross terms (Tables 4 and 6).
//!
//! Contracts are produced by *automated pre-analysis* at registration
//! time ([`register`]): a scratch instance is driven through
//! adversarially-worst calibration scenarios (tombstone runs for the `t`
//! slope, last-word-differing keys for the `c` slope), and the measured
//! IC/MA/conservative-cycle coefficients become the contract. The paper
//! derived these by hand from assembly and lists automating it as future
//! work (§6); calibration gives the same worst-case coefficients without
//! the transcription risk.

use bolt_expr::{PcvId, PerfExpr, TermRef, Width};
use bolt_see::concrete::CVal;
use bolt_see::{ConcreteCtx, NfCtx, SymbolicCtx};
use bolt_trace::{AddressSpace, DsId, InstrClass, MemRegion, Tracer};

use crate::model::DsModel;
use crate::registry::{
    constant_case, measure, CaseContract, DsContract, DsRegistry, MethodContract,
};

/// Slot stride: one cache line per entry.
const SLOT: u64 = 64;
/// Offsets inside a slot record.
const OFF_STATE: u64 = 0;
const OFF_KEY: u64 = 8;
const OFF_VAL: u64 = 40;
const OFF_TS: u64 = 48;
const OFF_APREV: u64 = 56;
const OFF_ANEXT: u64 = 60;

/// Slot states.
const EMPTY: u8 = 0;
const TOMB: u8 = 1;
const OCC: u8 = 2;

/// Method indices (the `method` field of [`bolt_trace::StatefulCall`]).
pub const M_GET: u16 = 0;
/// `peek` — lookup without refreshing the entry's age.
pub(crate) const M_PEEK: u16 = 1;
/// `put` — insert a new entry.
pub const M_PUT: u16 = 2;
/// `expire` — pop and erase all expired entries.
pub const M_EXPIRE: u16 = 3;
/// `rehash` — re-seed and rebuild (collision-attack defence).
pub(crate) const M_REHASH: u16 = 4;
/// `update` — overwrite the value of an existing entry (refreshes age).
const M_UPDATE: u16 = 5;

/// Case indices for `get`/`peek`.
pub const C_HIT: u16 = 0;
/// Miss case.
pub const C_MISS: u16 = 1;
/// Case indices for `put`.
pub const C_STORED: u16 = 0;
/// Table-full case.
pub const C_FULL: u16 = 1;

/// Configuration of a flow table instance.
#[derive(Clone, Copy, Debug)]
pub struct FlowTableParams {
    /// Number of slots (power of two).
    pub capacity: usize,
    /// Entry lifetime in nanoseconds.
    pub ttl_ns: u64,
}

/// Copyable handle tying together the registry id and the PCV ids of one
/// registered instance. Shared by the concrete table and its model.
#[derive(Clone, Copy, Debug)]
pub struct FlowTableIds {
    /// Registry instance id.
    pub ds: DsId,
    /// PCV `e` — entries expired by one `expire` call.
    pub e: PcvId,
    /// PCV `c` — occupied-mismatch comparisons in one probe.
    pub c: PcvId,
    /// PCV `t` — probed non-terminal slots in one probe.
    pub t: PcvId,
    /// PCV `o` — occupancy (entries present).
    pub o: PcvId,
    /// PCV `te` — worst per-erase probe traversals during one `expire`.
    /// Scoped separately from `t` so a long *lookup* probe in the same
    /// packet cannot multiply into the `e·te` cross term.
    pub te: PcvId,
    /// PCV `ce` — worst per-erase comparisons during one `expire`.
    pub ce: PcvId,
}

/// Common operations both the concrete table and the model provide; NF
/// stateless code is written against this trait (the Vigor split).
pub trait FlowTableOps<C: NfCtx, const K: usize> {
    /// Remove all entries older than the configured TTL. Returns the
    /// number of entries expired.
    fn expire(&mut self, ctx: &mut C, now: C::Val) -> C::Val;
    /// Look up `key`; on hit, refresh its timestamp/age and return the
    /// stored value.
    fn get(&mut self, ctx: &mut C, key: &[C::Val; K], now: C::Val) -> Option<C::Val>;
    /// Look up `key` without refreshing (read-only lookup).
    fn peek(&mut self, ctx: &mut C, key: &[C::Val; K]) -> Option<C::Val>;
    /// Insert a new entry (the caller must have seen a miss first).
    /// Returns `false` when the table is full.
    fn put(&mut self, ctx: &mut C, key: &[C::Val; K], val: C::Val, now: C::Val) -> bool;
    /// Overwrite the value of an existing entry (its timestamp and age
    /// position are untouched). Returns `false` if the key is absent.
    fn update(&mut self, ctx: &mut C, key: &[C::Val; K], val: C::Val, now: C::Val) -> bool;
}

// ---------------------------------------------------------------------
// Concrete implementation
// ---------------------------------------------------------------------

/// The instrumented production flow table.
#[derive(Debug, Clone)]
pub struct FlowTable<const K: usize> {
    ids: FlowTableIds,
    params: FlowTableParams,
    mask: u64,
    seed: u64,
    state: Vec<u8>,
    keys: Vec<[u64; K]>,
    vals: Vec<u64>,
    ts: Vec<u64>,
    aprev: Vec<i32>,
    anext: Vec<i32>,
    head: i32,
    tail: i32,
    len: usize,
    r_slots: MemRegion,
    r_meta: MemRegion,
    /// Probe statistics of the most recent operation (`t`, `c`).
    pub last_probe: (u64, u64),
    /// Values of the entries removed by the most recent `expire` call
    /// (consumed by composite structures that must release resources the
    /// values refer to, e.g. the NAT's allocated ports).
    pub last_expired: Vec<u64>,
}

/// Outcome of an internal probe.
enum Probe {
    Found(usize),
    /// First insertable slot (tombstone or empty).
    Free(usize),
    Miss,
}

impl<const K: usize> FlowTable<K> {
    /// Build a concrete table. `aspace` provides the simulated addresses.
    pub fn new(ids: FlowTableIds, params: FlowTableParams, aspace: &mut AddressSpace) -> Self {
        assert!(params.capacity.is_power_of_two());
        assert!(K >= 1 && K <= 4, "slot layout holds 1..=4 key words");
        let cap = params.capacity;
        FlowTable {
            ids,
            params,
            mask: (cap - 1) as u64,
            seed: 0x5bd1_e995_1234_5678,
            state: vec![EMPTY; cap],
            keys: vec![[0; K]; cap],
            vals: vec![0; cap],
            ts: vec![0; cap],
            aprev: vec![-1; cap],
            anext: vec![-1; cap],
            head: -1,
            tail: -1,
            len: 0,
            r_slots: aspace.alloc_table(cap as u64 * SLOT),
            r_meta: aspace.alloc_table(64),
            last_probe: (0, 0),
            last_expired: Vec::new(),
        }
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hash seed (changes on rehash).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn hash_raw(seed: u64, key: &[u64; K]) -> u64 {
        let mut h = seed;
        for &w in key {
            h ^= w;
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        h
    }

    /// The slot index `key` hashes to (for adversarial workload
    /// construction and tests).
    pub fn bucket_of(&self, key: &[u64; K]) -> usize {
        (Self::hash_raw(self.seed, key) & self.mask) as usize
    }

    fn slot_addr(&self, i: usize, off: u64) -> u64 {
        self.r_slots.addr(i as u64 * SLOT + off)
    }

    /// Charge the hash computation: one CRC per key word + mix/mask.
    fn hash_cost(t: &mut (impl Tracer + ?Sized)) {
        t.instr(InstrClass::Crc, K as u32);
        t.alu(2);
    }

    /// Instrumented probe. `for_insert` stops at the first usable slot.
    fn probe(&mut self, t: &mut (impl Tracer + ?Sized), key: &[u64; K], for_insert: bool) -> Probe {
        Self::hash_cost(t);
        let start = (Self::hash_raw(self.seed, key) & self.mask) as usize;
        let cap = self.params.capacity;
        let mut t_count = 0u64;
        let mut c_count = 0u64;
        let mut visited = 0usize;
        let mut idx = start;
        let result = loop {
            if visited > cap {
                // Probe bound: wrapped the whole table without a verdict
                // (possible only when no slot is EMPTY).
                break Probe::Miss;
            }
            visited += 1;
            // Per-visit base: state load + compare + branch.
            t.mem_read(self.slot_addr(idx, OFF_STATE), 8);
            t.alu(1);
            t.branch_instr();
            match self.state[idx] {
                EMPTY => {
                    break if for_insert {
                        Probe::Free(idx)
                    } else {
                        Probe::Miss
                    };
                }
                TOMB => {
                    if for_insert {
                        break Probe::Free(idx);
                    }
                    t_count += 1;
                }
                _ => {
                    if for_insert {
                        // Insert skips occupied slots without comparing.
                        t_count += 1;
                    } else {
                        // Key comparison, word by word, early exit.
                        let mut matched = true;
                        for (w, kw) in key.iter().enumerate() {
                            t.mem_read(self.slot_addr(idx, OFF_KEY + 8 * w as u64), 8);
                            t.alu(1);
                            t.branch_instr();
                            if self.keys[idx][w] != *kw {
                                matched = false;
                                break;
                            }
                        }
                        if matched {
                            break Probe::Found(idx);
                        }
                        t_count += 1;
                        c_count += 1;
                    }
                }
            }
            // Advance: index increment + wrap mask + loop bound check.
            t.alu(2);
            t.branch_instr();
            idx = (idx + 1) & self.mask as usize;
        };
        self.last_probe = (t_count, c_count);
        result
    }

    fn age_append(&mut self, t: &mut (impl Tracer + ?Sized), i: usize) {
        t.mem_read(self.r_meta.addr(4), 4); // tail
        t.alu(2);
        t.branch_instr();
        if self.tail >= 0 {
            t.mem_write(self.slot_addr(self.tail as usize, OFF_ANEXT), 4);
            self.anext[self.tail as usize] = i as i32;
        } else {
            t.mem_write(self.r_meta.addr(0), 4); // head
            self.head = i as i32;
        }
        t.mem_write(self.slot_addr(i, OFF_APREV), 4);
        t.mem_write(self.slot_addr(i, OFF_ANEXT), 4);
        self.aprev[i] = self.tail;
        self.anext[i] = -1;
        t.mem_write(self.r_meta.addr(4), 4);
        self.tail = i as i32;
        t.alu(2);
    }

    fn age_unlink(&mut self, t: &mut (impl Tracer + ?Sized), i: usize) {
        t.mem_read(self.slot_addr(i, OFF_APREV), 4);
        t.mem_read(self.slot_addr(i, OFF_ANEXT), 4);
        t.alu(2);
        t.branch_instr();
        let (p, n) = (self.aprev[i], self.anext[i]);
        if p >= 0 {
            t.mem_write(self.slot_addr(p as usize, OFF_ANEXT), 4);
            self.anext[p as usize] = n;
        } else {
            t.mem_write(self.r_meta.addr(0), 4);
            self.head = n;
        }
        t.branch_instr();
        if n >= 0 {
            t.mem_write(self.slot_addr(n as usize, OFF_APREV), 4);
            self.aprev[n as usize] = p;
        } else {
            t.mem_write(self.r_meta.addr(4), 4);
            self.tail = p;
        }
        t.alu(2);
    }

    /// Erase the entry at `idx` (already located) from the hash structure.
    fn erase_at(&mut self, t: &mut (impl Tracer + ?Sized), idx: usize) {
        t.mem_write(self.slot_addr(idx, OFF_STATE), 8);
        self.state[idx] = TOMB;
        t.alu(1);
        t.mem_write(self.r_meta.addr(8), 4); // len--
        self.len -= 1;
    }

    // ------------------------------------------------------------------
    // Raw (uninstrumented) state manipulation: pathological-state
    // synthesis (§5.1) and tests.
    // ------------------------------------------------------------------

    /// Place an entry directly into a slot, bypassing hashing and cost
    /// accounting, and append it to the age list. Panics if occupied.
    fn raw_place(&mut self, slot: usize, key: [u64; K], val: u64, ts: u64) {
        assert_eq!(self.state[slot], EMPTY, "raw_place into non-empty slot");
        self.state[slot] = OCC;
        self.keys[slot] = key;
        self.vals[slot] = val;
        self.ts[slot] = ts;
        self.aprev[slot] = self.tail;
        self.anext[slot] = -1;
        if self.tail >= 0 {
            self.anext[self.tail as usize] = slot as i32;
        } else {
            self.head = slot as i32;
        }
        self.tail = slot as i32;
        self.len += 1;
    }

    /// Mark a slot as a tombstone (calibration helper).
    fn raw_tombstone(&mut self, slot: usize) {
        assert_eq!(self.state[slot], EMPTY);
        self.state[slot] = TOMB;
    }

    /// Uninstrumented lookup (test oracle support).
    pub fn raw_get(&self, key: &[u64; K]) -> Option<u64> {
        let mut idx = (Self::hash_raw(self.seed, key) & self.mask) as usize;
        for _ in 0..=self.params.capacity {
            match self.state[idx] {
                EMPTY => return None,
                OCC if self.keys[idx] == *key => return Some(self.vals[idx]),
                _ => {}
            }
            idx = (idx + 1) & self.mask as usize;
        }
        None
    }

    /// Fill the table completely with aged, maximally-colliding entries:
    /// the synthesized pathological state of §5.1 (Br1/NAT1/LB1). All keys
    /// probe through one run and differ only in their last word, so every
    /// expiry probe pays the full comparison cost.
    ///
    /// `uniform_clusters = true` instead spreads entries as singleton
    /// chains (every erase is O(1)), which keeps the product-form contract
    /// tight (the `NAT1` and `NAT1adv` rows of the reproduction's Figure 1
    /// are the two variants).
    fn synthesize_pathological(&mut self, uniform_clusters: bool) {
        let cap = self.params.capacity;
        self.synthesize_aged(cap, uniform_clusters, |nth| nth as u64)
    }

    /// Fill `count ≤ capacity` slots with aged entries. Leaving a few
    /// slots empty keeps post-expiry lookups from scanning the whole
    /// tombstone field, which would conflate the lookup's `t` into the
    /// expiry cross terms.
    pub fn synthesize_aged(
        &mut self,
        count: usize,
        uniform_clusters: bool,
        val_of: impl Fn(usize) -> u64,
    ) {
        assert_eq!(self.len, 0, "synthesize into an empty table");
        let cap = count.min(self.params.capacity);
        if uniform_clusters {
            let mut placed = 0usize;
            let mut nonce = 0u64;
            while placed < cap {
                let mut key = [0u64; K];
                key[K - 1] = nonce;
                nonce += 1;
                let b = self.bucket_of(&key);
                if self.state[b] == EMPTY {
                    self.raw_place(b, key, val_of(placed), 0);
                    placed += 1;
                }
                if nonce > cap as u64 * 1000 {
                    // Fall back: place remaining anywhere (still aged).
                    for s in 0..cap {
                        if self.state[s] == EMPTY {
                            let mut k2 = [0u64; K];
                            k2[K - 1] = nonce;
                            nonce += 1;
                            self.raw_place(s, k2, val_of(placed), 0);
                            placed += 1;
                        }
                    }
                    break;
                }
            }
        } else {
            // One giant probe run starting at slot 0. Find a key whose
            // bucket is 0, then synthesize keys sharing every word except
            // the last; place them consecutively so the probe run is the
            // whole table.
            let mut nonce = 0u64;
            for slot in 0..cap {
                let mut key = [0u64; K];
                loop {
                    key[K - 1] = nonce;
                    nonce += 1;
                    if self.bucket_of(&key) == 0 {
                        break;
                    }
                }
                self.raw_place(slot, key, val_of(slot), 0);
            }
        }
    }
}

impl<T: Tracer, const K: usize> FlowTableOps<ConcreteCtx<'_, T>, K> for FlowTable<K> {
    fn expire(&mut self, ctx: &mut ConcreteCtx<'_, T>, now: CVal) -> CVal {
        let cutoff = now.v.saturating_sub(self.params.ttl_ns);
        {
            let t = ctx.tracer();
            t.instr(InstrClass::Call, 1);
            t.alu(2);
        }
        self.last_expired.clear();
        let mut e = 0u64;
        loop {
            // Read the age-list head and its timestamp.
            {
                let t = ctx.tracer();
                t.mem_read(self.r_meta.addr(0), 4);
                t.branch_instr();
            }
            if self.head < 0 {
                break;
            }
            let idx = self.head as usize;
            {
                let t = ctx.tracer();
                t.mem_read(self.slot_addr(idx, OFF_TS), 8);
                t.alu(1);
                t.branch_instr();
            }
            if self.ts[idx] >= cutoff {
                break;
            }
            // Expired: unlink from the age list, erase by key probe.
            self.age_unlink(ctx.tracer(), idx);
            // Re-read the key to erase it from the hash structure.
            for w in 0..K {
                ctx.tracer()
                    .mem_read(self.slot_addr(idx, OFF_KEY + 8 * w as u64), 8);
            }
            let key = self.keys[idx];
            match self.probe(ctx.tracer(), &key, false) {
                Probe::Found(fidx) => {
                    debug_assert_eq!(fidx, idx);
                    self.last_expired.push(self.vals[fidx]);
                    self.erase_at(ctx.tracer(), fidx);
                }
                _ => unreachable!("age-listed entry must be in the table"),
            }
            let (pt, pc) = self.last_probe;
            ctx.tracer().pcv(self.ids.te, pt);
            ctx.tracer().pcv(self.ids.ce, pc);
            e += 1;
        }
        let t = ctx.tracer();
        t.pcv(self.ids.e, e);
        t.instr(InstrClass::Ret, 1);
        ctx.lit(e, Width::W64)
    }

    fn get(&mut self, ctx: &mut ConcreteCtx<'_, T>, key: &[CVal; K], now: CVal) -> Option<CVal> {
        let k = key.map(|w| w.v);
        ctx.tracer().instr(InstrClass::Call, 1);
        let r = self.probe(ctx.tracer(), &k, false);
        let (pt, pc) = self.last_probe;
        ctx.tracer().pcv(self.ids.t, pt);
        ctx.tracer().pcv(self.ids.c, pc);
        let out = match r {
            Probe::Found(idx) => {
                let t = ctx.tracer();
                t.mem_read(self.slot_addr(idx, OFF_VAL), 8);
                t.mem_write(self.slot_addr(idx, OFF_TS), 8);
                t.alu(1);
                self.ts[idx] = now.v;
                // Refresh: move to the age-list tail.
                self.age_unlink(ctx.tracer(), idx);
                self.age_append(ctx.tracer(), idx);
                Some(ctx.lit(self.vals[idx], Width::W64))
            }
            _ => None,
        };
        ctx.tracer().instr(InstrClass::Ret, 1);
        out
    }

    fn peek(&mut self, ctx: &mut ConcreteCtx<'_, T>, key: &[CVal; K]) -> Option<CVal> {
        let k = key.map(|w| w.v);
        ctx.tracer().instr(InstrClass::Call, 1);
        let r = self.probe(ctx.tracer(), &k, false);
        let (pt, pc) = self.last_probe;
        ctx.tracer().pcv(self.ids.t, pt);
        ctx.tracer().pcv(self.ids.c, pc);
        let out = match r {
            Probe::Found(idx) => {
                ctx.tracer().mem_read(self.slot_addr(idx, OFF_VAL), 8);
                Some(ctx.lit(self.vals[idx], Width::W64))
            }
            _ => None,
        };
        ctx.tracer().instr(InstrClass::Ret, 1);
        out
    }

    fn put(&mut self, ctx: &mut ConcreteCtx<'_, T>, key: &[CVal; K], val: CVal, now: CVal) -> bool {
        let k = key.map(|w| w.v);
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        // Occupancy check first: the full case is O(1) (Table 6 row 4).
        t.mem_read(self.r_meta.addr(8), 4);
        t.alu(1);
        t.branch_instr();
        if self.len == self.params.capacity {
            t.pcv(self.ids.o, self.len as u64);
            t.instr(InstrClass::Ret, 1);
            return false;
        }
        let r = self.probe(ctx.tracer(), &k, true);
        let (pt, _) = self.last_probe;
        ctx.tracer().pcv(self.ids.t, pt);
        let idx = match r {
            Probe::Free(i) => i,
            _ => unreachable!("non-full table must have a free slot"),
        };
        let t = ctx.tracer();
        t.mem_write(self.slot_addr(idx, OFF_STATE), 8);
        for w in 0..K {
            t.mem_write(self.slot_addr(idx, OFF_KEY + 8 * w as u64), 8);
        }
        t.mem_write(self.slot_addr(idx, OFF_VAL), 8);
        t.mem_write(self.slot_addr(idx, OFF_TS), 8);
        t.alu(3);
        self.state[idx] = OCC;
        self.keys[idx] = k;
        self.vals[idx] = val.v;
        self.ts[idx] = now.v;
        self.age_append(ctx.tracer(), idx);
        let t = ctx.tracer();
        t.mem_write(self.r_meta.addr(8), 4);
        t.alu(1);
        self.len += 1;
        t.pcv(self.ids.o, self.len as u64);
        t.instr(InstrClass::Ret, 1);
        true
    }

    fn update(
        &mut self,
        ctx: &mut ConcreteCtx<'_, T>,
        key: &[CVal; K],
        val: CVal,
        _now: CVal,
    ) -> bool {
        let k = key.map(|w| w.v);
        ctx.tracer().instr(InstrClass::Call, 1);
        let r = self.probe(ctx.tracer(), &k, false);
        let (pt, pc) = self.last_probe;
        ctx.tracer().pcv(self.ids.t, pt);
        ctx.tracer().pcv(self.ids.c, pc);
        let out = match r {
            Probe::Found(idx) => {
                let t = ctx.tracer();
                t.mem_write(self.slot_addr(idx, OFF_VAL), 8);
                t.alu(1);
                self.vals[idx] = val.v;
                true
            }
            _ => false,
        };
        ctx.tracer().instr(InstrClass::Ret, 1);
        out
    }
}

impl<const K: usize> FlowTable<K> {
    /// Re-seed and rebuild the table (the bridge's collision-attack
    /// defence, §5.2). Clears tombstones. Cost: a large constant (array
    /// allocation + clear) plus per-entry rehash work.
    pub fn rehash<T: Tracer>(&mut self, ctx: &mut ConcreteCtx<'_, T>, new_seed: u64) {
        let t = ctx.tracer();
        t.instr(InstrClass::Call, 1);
        // Allocate + clear the new slot array: one store per line.
        t.instr(InstrClass::Other, 2); // allocator round-trip
        for i in 0..self.params.capacity {
            t.mem_write(self.slot_addr(i, OFF_STATE), 8);
        }
        t.alu(self.params.capacity as u32); // memset index arithmetic
        let old: Vec<(usize, [u64; K], u64, u64)> = (0..self.params.capacity)
            .filter(|&i| self.state[i] == OCC)
            .map(|i| (i, self.keys[i], self.vals[i], self.ts[i]))
            .collect();
        // Preserve age order by walking the age list.
        let mut order = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur >= 0 {
            order.push(cur as usize);
            cur = self.anext[cur as usize];
        }
        // Reset state.
        self.seed = new_seed;
        self.state.iter_mut().for_each(|s| *s = EMPTY);
        self.head = -1;
        self.tail = -1;
        self.len = 0;
        let by_idx: std::collections::HashMap<usize, ([u64; K], u64, u64)> = old
            .into_iter()
            .map(|(i, k, v, ts)| (i, (k, v, ts)))
            .collect();
        for i in order {
            let (k, v, ts) = by_idx[&i];
            // Per-entry: read key + val + ts, hash, probe to free slot,
            // write the record, relink the age list.
            let t = ctx.tracer();
            for w in 0..K {
                t.mem_read(self.slot_addr(i, OFF_KEY + 8 * w as u64), 8);
            }
            t.mem_read(self.slot_addr(i, OFF_VAL), 8);
            t.mem_read(self.slot_addr(i, OFF_TS), 8);
            match self.probe(ctx.tracer(), &k, true) {
                Probe::Free(idx) => {
                    let t = ctx.tracer();
                    t.mem_write(self.slot_addr(idx, OFF_STATE), 8);
                    for w in 0..K {
                        t.mem_write(self.slot_addr(idx, OFF_KEY + 8 * w as u64), 8);
                    }
                    t.mem_write(self.slot_addr(idx, OFF_VAL), 8);
                    t.mem_write(self.slot_addr(idx, OFF_TS), 8);
                    t.alu(4);
                    self.state[idx] = OCC;
                    self.keys[idx] = k;
                    self.vals[idx] = v;
                    self.ts[idx] = ts;
                    self.age_append(ctx.tracer(), idx);
                    self.len += 1;
                }
                _ => unreachable!("rebuilt table cannot be full"),
            }
        }
        let t = ctx.tracer();
        t.pcv(self.ids.o, self.len as u64);
        t.instr(InstrClass::Ret, 1);
    }
}

// ---------------------------------------------------------------------
// Symbolic model
// ---------------------------------------------------------------------

impl<const K: usize> FlowTableOps<SymbolicCtx<'_>, K> for DsModel {
    fn expire(&mut self, ctx: &mut SymbolicCtx<'_>, _now: TermRef) -> TermRef {
        self.record(ctx, M_EXPIRE, 0);
        self.fresh_bounded(ctx, "flow.expired", Width::W64)
    }

    fn get(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _key: &[TermRef; K],
        _now: TermRef,
    ) -> Option<TermRef> {
        let case = self.split(ctx, M_GET, &[("flow.get.hit", C_HIT)], C_MISS);
        (case == C_HIT).then(|| ctx.fresh("flow.get.val", Width::W64))
    }

    fn peek(&mut self, ctx: &mut SymbolicCtx<'_>, _key: &[TermRef; K]) -> Option<TermRef> {
        let case = self.split(ctx, M_PEEK, &[("flow.peek.hit", C_HIT)], C_MISS);
        (case == C_HIT).then(|| ctx.fresh("flow.peek.val", Width::W64))
    }

    fn put(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _key: &[TermRef; K],
        _val: TermRef,
        _now: TermRef,
    ) -> bool {
        self.split(ctx, M_PUT, &[("flow.put.stored", C_STORED)], C_FULL) == C_STORED
    }

    fn update(
        &mut self,
        ctx: &mut SymbolicCtx<'_>,
        _key: &[TermRef; K],
        _val: TermRef,
        _now: TermRef,
    ) -> bool {
        self.split(ctx, M_UPDATE, &[("flow.update.hit", C_HIT)], C_MISS) == C_HIT
    }
}

// ---------------------------------------------------------------------
// Automated pre-analysis (contract calibration)
// ---------------------------------------------------------------------

/// Key whose words are all `tag` except the last, which is `n` — the
/// "differs in the last word" worst-case comparison shape.
fn cal_key<const K: usize>(tag: u64, n: u64) -> [u64; K] {
    let mut k = [tag; K];
    k[K - 1] = n;
    k
}

fn lit_key<T: Tracer, const K: usize>(ctx: &mut ConcreteCtx<'_, T>, k: [u64; K]) -> [CVal; K] {
    k.map(|w| ctx.lit(w, Width::W64))
}

/// Calibrate the per-case contract coefficients on a scratch instance.
///
/// Scenarios (all placed with raw state control, so the coefficients are
/// exact):
/// * miss into an empty bucket → `get`/`peek` miss fixed cost;
/// * hit at probe distance 0 → hit fixed cost;
/// * hit behind `d` tombstones → `t` slope;
/// * hit behind `d` occupied last-word-differing keys → `t+c` slope;
/// * put into empty/full table → put fixed costs; put behind occupied run
///   → put `t` slope;
/// * expire of 1..n singleton entries → `e` slope (probe slopes reuse the
///   `get` slopes, as the machinery is shared);
/// * rehash of `o` entries → rehash fixed + per-entry slope.
fn calibrate<const K: usize>(ids: FlowTableIds, params: FlowTableParams) -> DsContract {
    // Calibration geometry is independent of the instance configuration:
    // coefficients depend only on the probe/age machinery, not on the
    // capacity or TTL (the capacity-dependent rehash clear cost is scaled
    // below).
    let cal_params = FlowTableParams {
        capacity: 256,
        ttl_ns: 1_000,
    };
    let d = 8u64; // slope step
                  // Background entries make every age-list neighbour a distinct,
                  // previously-untouched cache line, so the calibrated cycle costs are
                  // the layout-worst case (mid-list refresh touches prev, next, and the
                  // old tail). Background keys live in far-away buckets (fresh ts, never
                  // probed, never expired).
    let mk = || {
        let mut aspace = AddressSpace::new();
        let mut tb = FlowTable::<K>::new(ids, cal_params, &mut aspace);
        let mut placed = 0;
        let mut nonce = 1_000_000u64;
        while placed < 2 {
            let k: [u64; K] = cal_key(0xB6, nonce);
            nonce += 1;
            let kb = tb.bucket_of(&k);
            // Keep background far from the low slots used by scenarios.
            if kb > cal_params.capacity / 2 && tb.state[kb] == EMPTY {
                tb.raw_place(kb, k, 0, u64::MAX / 2);
                placed += 1;
            }
        }
        tb
    };
    // Scenario entries are appended *between* two later background tails
    // so that refresh unlinks from a genuine mid-list position.
    let add_tail_bg = |tb: &mut FlowTable<K>, tag: u64| {
        let mut nonce = 2_000_000 + tag;
        loop {
            let k: [u64; K] = cal_key(0xB7, nonce);
            nonce += 97;
            let kb = tb.bucket_of(&k);
            if kb > cal_params.capacity / 2 && tb.state[kb] == EMPTY {
                tb.raw_place(kb, k, 0, u64::MAX / 2);
                break;
            }
        }
    };

    // --- get/peek ---
    let probe_key: [u64; K] = cal_key(7, 0xFFFF);
    // Miss, empty bucket (t=0, c=0).
    let mut t0 = mk();
    let miss0 = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::get(&mut t0, ctx, &k, now).is_none());
    });
    // Hit at distance 0, mid-age-list (worst refresh layout).
    let mut t1 = mk();
    let b = t1.bucket_of(&probe_key);
    t1.raw_place(b, probe_key, 1, 0);
    add_tail_bg(&mut t1, 1);
    add_tail_bg(&mut t1, 2);
    let hit0 = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::get(&mut t1, ctx, &k, now).is_some());
    });
    let mut t1b = mk();
    t1b.raw_place(b, probe_key, 1, 0);
    add_tail_bg(&mut t1b, 1);
    add_tail_bg(&mut t1b, 2);
    let peek0 = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        assert!(FlowTableOps::<_, K>::peek(&mut t1b, ctx, &k).is_some());
    });
    let mut t1c = mk();
    t1c.raw_place(b, probe_key, 1, 0);
    add_tail_bg(&mut t1c, 1);
    add_tail_bg(&mut t1c, 2);
    let upd0 = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        let v = ctx.lit(2, Width::W64);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::update(&mut t1c, ctx, &k, v, now));
    });
    // Hit behind d tombstones: t slope.
    let mut t2 = mk();
    for j in 0..d {
        t2.raw_tombstone((b + j as usize) & (cal_params.capacity - 1));
    }
    t2.raw_place(
        (b + d as usize) & (cal_params.capacity - 1),
        probe_key,
        1,
        0,
    );
    add_tail_bg(&mut t2, 1);
    add_tail_bg(&mut t2, 2);
    let hit_t = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::get(&mut t2, ctx, &k, now).is_some());
    });
    let t_slope = per_metric(|m| (hit_t[m] - hit0[m]) / d);
    // Hit behind d occupied worst-mismatch keys: t+c slope.
    let mut t3 = mk();
    for j in 0..d {
        t3.raw_place(
            (b + j as usize) & (cal_params.capacity - 1),
            cal_key(7, j), // same words except last
            9,
            0,
        );
    }
    // Keep the target's age-list neighbourhood identical to the baseline
    // (cold background lines on both sides plus a cold tail), otherwise
    // the probed entries double as warmed-up age neighbours and the
    // cycles slope comes out unsound.
    add_tail_bg(&mut t3, 1);
    t3.raw_place(
        (b + d as usize) & (cal_params.capacity - 1),
        probe_key,
        1,
        0,
    );
    add_tail_bg(&mut t3, 2);
    add_tail_bg(&mut t3, 3);
    let hit_tc = measure(|ctx| {
        let k = lit_key(ctx, probe_key);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::get(&mut t3, ctx, &k, now).is_some());
    });
    let c_slope = per_metric(|m| (hit_tc[m] - hit0[m]) / d - t_slope[m]);

    // --- put ---
    let mut t4 = mk();
    let put_key: [u64; K] = cal_key(3, 0xAAAA);
    let put0 = measure(|ctx| {
        let k = lit_key(ctx, put_key);
        let v = ctx.lit(5, Width::W64);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::put(&mut t4, ctx, &k, v, now));
    });
    let mut t5 = mk();
    let pb = t5.bucket_of(&put_key);
    for j in 0..d {
        t5.raw_place(
            (pb + j as usize) & (cal_params.capacity - 1),
            cal_key(3, j),
            9,
            0,
        );
    }
    add_tail_bg(&mut t5, 3);
    let put_t = measure(|ctx| {
        let k = lit_key(ctx, put_key);
        let v = ctx.lit(5, Width::W64);
        let now = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, K>::put(&mut t5, ctx, &k, v, now));
    });
    let put_t_slope = per_metric(|m| (put_t[m] - put0[m]) / d);
    // Full table (fresh instance: the full check never touches the age
    // list, so no background entries are needed).
    let mut aspace6 = AddressSpace::new();
    let mut t6 = FlowTable::<K>::new(ids, cal_params, &mut aspace6);
    t6.synthesize_pathological(true);
    let put_full = measure(|ctx| {
        let k = lit_key(ctx, cal_key(99, 0x1234));
        let v = ctx.lit(5, Width::W64);
        let now = ctx.lit(0, Width::W64);
        assert!(!FlowTableOps::<_, K>::put(&mut t6, ctx, &k, v, now));
    });

    // --- expire ---
    // Nothing expired (background entries are fresh).
    let mut t7 = mk();
    let exp0 = measure(|ctx| {
        let now = ctx.lit(0, Width::W64);
        let e = FlowTableOps::<_, K>::expire(&mut t7, ctx, now);
        assert_eq!(e.v, 0);
    });
    // d singleton aged entries (t=c=0 per erase), then fresh survivors so
    // the final head fix-up write hits a cold line.
    let mut aspace8 = AddressSpace::new();
    let mut t8 = FlowTable::<K>::new(ids, cal_params, &mut aspace8);
    let mut placed = 0u64;
    let mut nonce = 0u64;
    while placed < d {
        let k: [u64; K] = cal_key(11, nonce);
        nonce += 1;
        let kb = t8.bucket_of(&k);
        if t8.state[kb] == EMPTY {
            t8.raw_place(kb, k, 1, 0);
            placed += 1;
        }
    }
    add_tail_bg(&mut t8, 5);
    let exp_d = measure(|ctx| {
        // The aged (ts = 1) entries expire at now = ttl + 10; the fresh
        // background survivors (ts = u64::MAX / 2) stay.
        let now = ctx.lit(1_000 + 10, Width::W64);
        let e = FlowTableOps::<_, K>::expire(&mut t8, ctx, now);
        assert_eq!(e.v, d);
    });
    let e_slope = per_metric(|m| (exp_d[m] - exp0[m]).div_ceil(d));

    // --- rehash ---
    let mut t9 = mk();
    let reh0 = measure(|ctx| t9.rehash(ctx, 0x1111));
    let mut t10 = mk();
    let mut placed = 0u64;
    let mut nonce = 0u64;
    while placed < d {
        let k: [u64; K] = cal_key(13, nonce);
        nonce += 1;
        let kb = t10.bucket_of(&k);
        if t10.state[kb] == EMPTY {
            t10.raw_place(kb, k, 1, 0);
            placed += 1;
        }
    }
    let reh_d = measure(|ctx| t10.rehash(ctx, 0x2222));
    let reh_slope = per_metric(|m| (reh_d[m] - reh0[m]) / d);
    // The rehash fixed cost scales with capacity (array clear): measured
    // at the calibration capacity, scaled to the real capacity.
    let scale = params.capacity as u64 / cal_params.capacity as u64;
    let reh_fixed = per_metric(|m| {
        let clear = reh_d[m] - reh_slope[m] * d; // ≈ fixed at cal capacity
                                                 // Conservative: the clear part is at most the whole fixed cost;
                                                 // scale it all by the capacity ratio (over-estimates the small
                                                 // seed/meta part, which keeps the bound sound).
        clear * scale.max(1)
    });
    // Re-insert probes during rehash are coalesced into a worst-case of 8
    // extra probe steps per entry (fresh table, bounded clustering).
    let reh_per_entry = per_metric(|m| reh_slope[m] + 8 * t_slope[m]);

    // --- assemble ---
    let e = ids.e;
    let c = ids.c;
    let t = ids.t;
    let o = ids.o;
    let te = ids.te;
    let ce = ids.ce;
    let probed = |name, fixed| CaseContract {
        name,
        perf: case_expr(fixed, &[(t, t_slope), (c, c_slope)], &[]),
    };
    DsContract {
        methods: vec![
            MethodContract {
                name: "get",
                cases: vec![probed("hit", hit0), probed("miss", miss0)],
            },
            MethodContract {
                name: "peek",
                cases: vec![probed("hit", peek0), probed("miss", miss0)],
            },
            MethodContract {
                name: "put",
                cases: vec![
                    CaseContract {
                        name: "stored",
                        perf: case_expr(put0, &[(t, put_t_slope)], &[]),
                    },
                    constant_case("full", put_full),
                ],
            },
            MethodContract {
                name: "expire",
                cases: vec![CaseContract {
                    name: "expired",
                    perf: case_expr(
                        exp0,
                        &[(e, e_slope)],
                        &[((e, te), t_slope), ((e, ce), c_slope)],
                    ),
                }],
            },
            MethodContract {
                name: "rehash",
                cases: vec![CaseContract {
                    name: "rehash",
                    perf: case_expr(reh_fixed, &[(o, reh_per_entry)], &[]),
                }],
            },
            MethodContract {
                name: "update",
                cases: vec![probed("hit", upd0), probed("miss", miss0)],
            },
        ],
    }
}

fn per_metric(f: impl Fn(usize) -> u64) -> [u64; 3] {
    [f(0), f(1), f(2)]
}

/// Build the three per-metric expressions from a fixed part, linear
/// slopes, and degree-2 cross terms.
fn case_expr(
    fixed: [u64; 3],
    linear: &[(PcvId, [u64; 3])],
    cross: &[((PcvId, PcvId), [u64; 3])],
) -> [PerfExpr; 3] {
    let build = |m: usize| {
        let mut e = PerfExpr::constant(fixed[m]);
        for (pcv, slope) in linear {
            e.add_assign(&PerfExpr::var(*pcv, slope[m]));
        }
        for ((a, b), slope) in cross {
            e.add_assign(&PerfExpr::term(
                bolt_expr::Monomial::var(*a).mul(&bolt_expr::Monomial::var(*b)),
                slope[m],
            ));
        }
        e
    };
    [build(0), build(1), build(2)]
}

/// Register a flow-table instance: interns its PCVs, runs the automated
/// pre-analysis, and registers the resulting contract. Idempotent by
/// `name`.
pub fn register<const K: usize>(
    reg: &mut DsRegistry,
    name: &str,
    pcv_prefix: &str,
    params: FlowTableParams,
) -> FlowTableIds {
    let e = reg.pcv(pcv_prefix, "e");
    let c = reg.pcv(pcv_prefix, "c");
    let t = reg.pcv(pcv_prefix, "t");
    let o = reg.pcv(pcv_prefix, "o");
    let te = reg.pcv(pcv_prefix, "te");
    let ce = reg.pcv(pcv_prefix, "ce");
    let provisional = FlowTableIds {
        ds: DsId(u32::MAX),
        e,
        c,
        t,
        o,
        te,
        ce,
    };
    let contract = calibrate::<K>(provisional, params);
    let ds = reg.register(name, contract);
    FlowTableIds {
        ds,
        e,
        c,
        t,
        o,
        te,
        ce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::PcvAssignment;
    use bolt_trace::{CountingTracer, Metric, NullTracer, RecordingTracer, StatefulCall};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn setup() -> (DsRegistry, FlowTableIds, FlowTable<3>, FlowTableParams) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 1024,
            ttl_ns: 1000,
        };
        let ids = register::<3>(&mut reg, "flow_table", "", params);
        let mut aspace = AddressSpace::new();
        let table = FlowTable::new(ids, params, &mut aspace);
        (reg, ids, table, params)
    }

    fn k3<T: Tracer>(
        ctx: &mut ConcreteCtx<'_, T>,
        a: u64,
        b: u64,
        c: u64,
    ) -> [bolt_see::concrete::CVal; 3] {
        [
            ctx.lit(a, Width::W64),
            ctx.lit(b, Width::W64),
            ctx.lit(c, Width::W64),
        ]
    }

    #[test]
    fn put_get_expire_semantics() {
        let (_, _, mut table, _) = setup();
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let key = k3(&mut ctx, 1, 2, 3);
        let now0 = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &key, now0).is_none());
        let v = ctx.lit(42, Width::W64);
        assert!(FlowTableOps::<_, 3>::put(
            &mut table, &mut ctx, &key, v, now0
        ));
        assert_eq!(table.len(), 1);
        let got = FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &key, now0).unwrap();
        assert_eq!(ctx.concrete_value(got), Some(42));
        // Not expired yet at ttl boundary - 1.
        let now1 = ctx.lit(999, Width::W64);
        let e = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, now1);
        assert_eq!(ctx.concrete_value(e), Some(0));
        // Expired after refresh + ttl.
        let now2 = ctx.lit(2000, Width::W64);
        let e = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, now2);
        assert_eq!(ctx.concrete_value(e), Some(1));
        assert_eq!(table.len(), 0);
        assert!(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &key, now2).is_none());
    }

    #[test]
    fn get_refreshes_age() {
        let (_, _, mut table, _) = setup();
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let ka = k3(&mut ctx, 1, 1, 1);
        let kb = k3(&mut ctx, 2, 2, 2);
        let v = ctx.lit(0, Width::W64);
        let t0 = ctx.lit(0, Width::W64);
        assert!(FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &ka, v, t0));
        let t10 = ctx.lit(10, Width::W64);
        assert!(FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &kb, v, t10));
        // Refresh a at t=500: now b is oldest.
        let t500 = ctx.lit(500, Width::W64);
        assert!(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &ka, t500).is_some());
        // At t=1200: only b expired (b ts=10 < 200? cutoff=1200-1000=200; a ts=500 >= 200).
        let t1200 = ctx.lit(1200, Width::W64);
        let e = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, t1200);
        assert_eq!(ctx.concrete_value(e), Some(1));
        assert!(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &ka, t1200).is_some());
        assert!(FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &kb, t1200).is_none());
    }

    #[test]
    fn full_table_rejects_put() {
        let (_, ids, _, _) = setup();
        let params = FlowTableParams {
            capacity: 4,
            ttl_ns: 1000,
        };
        let mut aspace = AddressSpace::new();
        let mut table = FlowTable::<3>::new(ids, params, &mut aspace);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let now = ctx.lit(0, Width::W64);
        for i in 0..4u64 {
            let k = k3(&mut ctx, i, i, i);
            let v = ctx.lit(i, Width::W64);
            assert!(FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &k, v, now));
        }
        let k = k3(&mut ctx, 9, 9, 9);
        let v = ctx.lit(9, Width::W64);
        assert!(!FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &k, v, now));
    }

    #[test]
    fn matches_hashmap_oracle_under_random_workload() {
        let (_, _, mut table, params) = setup();
        let mut oracle: HashMap<[u64; 3], (u64, u64)> = HashMap::new(); // key -> (val, ts)
        let mut rng = SmallRng::seed_from_u64(42);
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let mut now = 0u64;
        for step in 0..5000u64 {
            now += rng.gen_range(0..5);
            let nowv = ctx.lit(now, Width::W64);
            // Expire oracle first (mirrors table semantics).
            let cutoff = now.saturating_sub(params.ttl_ns);
            let e = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, nowv);
            let expired_oracle: Vec<[u64; 3]> = oracle
                .iter()
                .filter(|(_, &(_, ts))| ts < cutoff)
                .map(|(k, _)| *k)
                .collect();
            assert_eq!(
                ctx.concrete_value(e),
                Some(expired_oracle.len() as u64),
                "step {step}"
            );
            for k in expired_oracle {
                oracle.remove(&k);
            }
            // Random op.
            let kw = [
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
            ];
            let key = k3(&mut ctx, kw[0], kw[1], kw[2]);
            if rng.gen_bool(0.5) {
                let got = FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &key, nowv);
                match oracle.get_mut(&kw) {
                    Some((v, ts)) => {
                        assert_eq!(ctx.concrete_value(got.unwrap()), Some(*v), "step {step}");
                        *ts = now;
                    }
                    None => assert!(got.is_none(), "step {step}"),
                }
            } else if let std::collections::hash_map::Entry::Vacant(e) = oracle.entry(kw) {
                let v = rng.gen_range(0..1000);
                let vv = ctx.lit(v, Width::W64);
                let stored = FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &key, vv, nowv);
                assert!(stored);
                e.insert((v, now));
            }
            assert_eq!(table.len(), oracle.len(), "step {step}");
        }
    }

    /// The paper's central invariant: contract ≥ measured, with a small
    /// coalescing gap (§5.1: ≤7% for IC/MA).
    #[test]
    fn contract_bounds_measured_per_operation() {
        let (reg, ids, mut table, _) = setup();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut now = 0u64;
        for _ in 0..2000 {
            now += rng.gen_range(0..3);
            let kw = [
                rng.gen_range(0..32u64),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            ];
            let is_get = rng.gen_bool(0.6);
            let mut rec = RecordingTracer::new();
            let (call, probes) = {
                let mut ctx = ConcreteCtx::new(&mut rec);
                let key = k3(&mut ctx, kw[0], kw[1], kw[2]);
                let nowv = ctx.lit(now, Width::W64);
                let call = if is_get {
                    match FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &key, nowv) {
                        Some(_) => StatefulCall {
                            ds: ids.ds,
                            method: M_GET,
                            case: C_HIT,
                        },
                        None => StatefulCall {
                            ds: ids.ds,
                            method: M_GET,
                            case: C_MISS,
                        },
                    }
                } else {
                    let v = ctx.lit(1, Width::W64);
                    match FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &key, v, nowv) {
                        true => StatefulCall {
                            ds: ids.ds,
                            method: M_PUT,
                            case: C_STORED,
                        },
                        false => StatefulCall {
                            ds: ids.ds,
                            method: M_PUT,
                            case: C_FULL,
                        },
                    }
                };
                (call, table.last_probe)
            };
            let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
            let cyc = bolt_hw::conservative_cycles(&rec.events);
            let mut env = PcvAssignment::new();
            env.set(ids.t, probes.0).set(ids.c, probes.1);
            let case = reg.resolve(call);
            let pred_ic = case.expr(Metric::Instructions).eval(&env);
            let pred_ma = case.expr(Metric::MemAccesses).eval(&env);
            let pred_cy = case.expr(Metric::Cycles).eval(&env);
            assert!(
                pred_ic >= ic,
                "IC bound violated: {pred_ic} < {ic} ({call:?})"
            );
            assert!(
                pred_ma >= ma,
                "MA bound violated: {pred_ma} < {ma} ({call:?})"
            );
            assert!(
                pred_cy >= cyc,
                "cycle bound violated: {pred_cy} < {cyc} ({call:?})"
            );
            // Gap stays bounded (coalescing only). Collision-heavy
            // probes legitimately pay the worst-bit-pattern coalescing
            // (compare exits early, contract charges the full width), so
            // tightness is only asserted for low-collision operations;
            // the paper's ≤7% figure is at NF-path granularity with
            // realistic traffic, which the integration tests check.
            if probes.1 <= 2 {
                assert!(
                    (pred_ic - ic) as f64 <= 0.35 * pred_ic as f64 + 8.0,
                    "IC gap too large: {pred_ic} vs {ic}"
                );
            }
        }
    }

    #[test]
    fn expire_contract_bounds_mass_expiry() {
        let (reg, ids, _, _) = setup();
        let params = FlowTableParams {
            capacity: 256,
            ttl_ns: 10,
        };
        let mut aspace = AddressSpace::new();
        let mut table = FlowTable::<3>::new(ids, params, &mut aspace);
        table.synthesize_pathological(true); // uniform singleton chains
        let mut rec = RecordingTracer::new();
        let mut max_t = 0;
        let mut max_c = 0;
        let e_count = {
            let mut ctx = ConcreteCtx::new(&mut rec);
            let now = ctx.lit(u64::MAX, Width::W64);
            let e = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, now);
            ctx.concrete_value(e).unwrap()
        };
        for ev in &rec.events {
            if let bolt_trace::TraceEvent::Pcv { pcv, value } = ev {
                if *pcv == ids.te {
                    max_t = max_t.max(*value);
                }
                if *pcv == ids.ce {
                    max_c = max_c.max(*value);
                }
            }
        }
        assert_eq!(e_count, 256);
        let (ic, ma) = bolt_trace::count_ic_ma(&rec.events);
        let mut env = PcvAssignment::new();
        env.set(ids.e, e_count)
            .set(ids.te, max_t)
            .set(ids.ce, max_c);
        let case = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_EXPIRE,
            case: 0,
        });
        let pred = case.expr(Metric::Instructions).eval(&env);
        let pred_ma = case.expr(Metric::MemAccesses).eval(&env);
        assert!(pred >= ic, "mass expiry IC bound violated: {pred} < {ic}");
        assert!(pred_ma >= ma);
        // Uniform clusters keep the product-form bound tight.
        assert!(
            (pred - ic) as f64 <= 0.10 * pred as f64,
            "uniform mass-expiry gap too large: {pred} vs {ic}"
        );
    }

    #[test]
    fn adversarial_single_chain_blows_up_quadratically() {
        let (_, ids, _, _) = setup();
        let cost_of = |cap: usize| {
            let params = FlowTableParams {
                capacity: cap,
                ttl_ns: 10,
            };
            let mut aspace = AddressSpace::new();
            let mut table = FlowTable::<3>::new(ids, params, &mut aspace);
            table.synthesize_pathological(false); // one giant probe run
            let mut t = CountingTracer::new();
            {
                let mut ctx = ConcreteCtx::new(&mut t);
                let now = ctx.lit(u64::MAX, Width::W64);
                let _ = FlowTableOps::<_, 3>::expire(&mut table, &mut ctx, now);
            }
            t.instructions()
        };
        let c64 = cost_of(64);
        let c256 = cost_of(256);
        // Quadratic growth: 4× entries ⇒ ~16× instructions.
        let ratio = c256 as f64 / c64 as f64;
        assert!(
            ratio > 8.0,
            "expected superlinear mass-expiry blow-up, got {ratio:.1}"
        );
    }

    #[test]
    fn rehash_preserves_entries_and_changes_seed() {
        let (_, _, mut table, _) = setup();
        let mut t = NullTracer;
        let mut ctx = ConcreteCtx::new(&mut t);
        let now = ctx.lit(0, Width::W64);
        for i in 0..50u64 {
            let k = k3(&mut ctx, i, 0, 0);
            let v = ctx.lit(i * 10, Width::W64);
            assert!(FlowTableOps::<_, 3>::put(&mut table, &mut ctx, &k, v, now));
        }
        let old_seed = table.seed();
        table.rehash(&mut ctx, 0xDEAD_BEEF);
        assert_ne!(table.seed(), old_seed);
        assert_eq!(table.len(), 50);
        for i in 0..50u64 {
            let k = k3(&mut ctx, i, 0, 0);
            let got = FlowTableOps::<_, 3>::get(&mut table, &mut ctx, &k, now).unwrap();
            assert_eq!(ctx.concrete_value(got), Some(i * 10));
        }
    }

    #[test]
    fn model_forks_hit_and_miss() {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 64,
            ttl_ns: 100,
        };
        let ids = register::<1>(&mut reg, "t", "", params);
        let result = bolt_see::Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: params.capacity as u64,
            };
            let pkt = ctx.packet(64);
            let f = ctx.load(pkt, 0, 8);
            let now = ctx.lit(0, Width::W64);
            match FlowTableOps::<_, 1>::get(&mut model, ctx, &[f], now) {
                Some(_) => ctx.tag("hit"),
                None => ctx.tag("miss"),
            }
        });
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.tagged("hit").count(), 1);
        assert_eq!(result.tagged("miss").count(), 1);
        // Each path carries exactly one stateful call with the right case.
        for p in &result.paths {
            let calls: Vec<_> = p
                .events
                .iter()
                .filter_map(|e| match e {
                    bolt_trace::TraceEvent::Stateful(c) => Some(*c),
                    _ => None,
                })
                .collect();
            assert_eq!(calls.len(), 1);
            let want = if p.has_tag("hit") { C_HIT } else { C_MISS };
            assert_eq!(calls[0].case, want);
            assert_eq!(calls[0].method, M_GET);
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let mut reg1 = DsRegistry::new();
        let mut reg2 = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 512,
            ttl_ns: 99,
        };
        let a = register::<2>(&mut reg1, "x", "", params);
        let b = register::<2>(&mut reg2, "x", "", params);
        let ca = reg1.resolve(StatefulCall {
            ds: a.ds,
            method: M_GET,
            case: C_HIT,
        });
        let cb = reg2.resolve(StatefulCall {
            ds: b.ds,
            method: M_GET,
            case: C_HIT,
        });
        assert_eq!(
            format!("{}", ca.expr(Metric::Instructions).display(&reg1.pcvs)),
            format!("{}", cb.expr(Metric::Instructions).display(&reg2.pcvs))
        );
    }

    #[test]
    fn contract_has_paper_shape() {
        let (reg, ids, _, _) = setup();
        // get-hit: linear in t and c with a constant.
        let hit = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_GET,
            case: C_HIT,
        });
        let expr = hit.expr(Metric::Instructions);
        assert_eq!(expr.degree(), 1);
        assert!(expr.coeff(&bolt_expr::Monomial::var(ids.t)) > 0);
        assert!(expr.coeff(&bolt_expr::Monomial::var(ids.c)) > 0);
        assert!(expr.constant_term() > 0);
        // expire: cross terms e·t and e·c (Table 6 shape).
        let exp = reg.resolve(StatefulCall {
            ds: ids.ds,
            method: M_EXPIRE,
            case: 0,
        });
        let expr = exp.expr(Metric::Instructions);
        assert_eq!(expr.degree(), 2);
        let et = bolt_expr::Monomial::var(ids.e).mul(&bolt_expr::Monomial::var(ids.te));
        let ec = bolt_expr::Monomial::var(ids.e).mul(&bolt_expr::Monomial::var(ids.ce));
        assert!(expr.coeff(&et) > 0, "missing e·te term");
        assert!(expr.coeff(&ec) > 0, "missing e·ce term");
    }
}
