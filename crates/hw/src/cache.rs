//! Set-associative cache simulator with exact LRU replacement.
//!
//! Used both as the conservative model's L1D residency prover and as the
//! testbed simulator's L1/L2/L3 levels. Addresses are simulated addresses
//! from [`bolt_trace::AddressSpace`]; only line presence is tracked, not
//! data.
//!
//! The way count `W` is a compile-time constant (8 for L1D and L2, 16
//! for L3), so every set is a fixed-size record and every scan a
//! fixed-length loop. A set keeps its ways' tags with one `u64` recency
//! stamp each, and beside them its length and the tag of its most recent
//! line (MRU). A touch of the MRU line, most of a packet's accesses, is
//! one compare and changes nothing. Any other touch stamps the way with
//! the cache's next clock value: a hit stamps the way it found, a miss
//! fills the next free way or the one with the least stamp, the least
//! recent line. No tag ever moves, and a `u64` clock never wraps.
//! [`CacheSim::reset`] clears only each set's length and MRU tag, so it
//! costs O(sets), and the ways past a set's length are never read.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_size: u32,
}

impl CacheParams {
    /// 32 KB, 8-way, 64 B lines — the Xeon E5 v2 private L1D.
    pub fn l1d() -> Self {
        CacheParams {
            size: 32 * 1024,
            ways: 8,
            line_size: 64,
        }
    }

    /// 256 KB, 8-way — the per-core L2.
    pub fn l2() -> Self {
        CacheParams {
            size: 256 * 1024,
            ways: 8,
            line_size: 64,
        }
    }

    /// A 2 MB L3 slice (the paper's DUT has 25 MB shared; one core's share
    /// is a few MB — exact size only shifts where capacity misses start).
    pub fn l3() -> Self {
        CacheParams {
            size: 2 * 1024 * 1024,
            ways: 16,
            line_size: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.ways * self.line_size)
    }
}

/// LRU set-associative cache of `W` ways. Tracks line tags only.
#[derive(Clone, Debug)]
pub struct CacheSim<const W: usize> {
    /// `log2(line_size)`: a tag is `addr >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: the set count is a power of two, so a line's set is
    /// its tag's low bits.
    set_mask: u64,
    /// Per set: the complement of its MRU line's tag, and how many of its
    /// ways hold a line. All zeros is an empty set, since no tag is all
    /// ones (a line is at least two bytes).
    heads: Vec<(u64, u64)>,
    /// Per set: the tags of its ways and their stamps. Way `w` holds a
    /// line iff `w` is below the set's length; the largest stamp is the
    /// MRU line's.
    ways: Vec<([u64; W], [u64; W])>,
    /// The last stamp handed out.
    clock: u64,
}

impl<const W: usize> CacheSim<W> {
    /// New empty cache; `params.ways` must be `W`.
    pub fn new(params: CacheParams) -> Self {
        assert_eq!(
            params.ways as usize, W,
            "geometry has {} ways, not {W}",
            params.ways
        );
        assert!(params.line_size >= 2 && params.line_size.is_power_of_two());
        let n = params.sets() as usize;
        assert!(n.is_power_of_two(), "set count must be a power of two");
        // Tuples and arrays of integers: both allocations come zeroed.
        CacheSim {
            line_shift: params.line_size.trailing_zeros(),
            set_mask: n as u64 - 1,
            heads: vec![(0, 0); n],
            ways: vec![([0; W], [0; W]); n],
            clock: 0,
        }
    }

    /// `log2` of the line size: `addr >> line_shift()` numbers the line.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Empty the cache.
    pub fn reset(&mut self) {
        self.heads.fill((0, 0));
    }

    /// The tag of `addr`'s line and the index of the set it maps to.
    fn locate(&self, addr: u64) -> (u64, usize) {
        let tag = addr >> self.line_shift;
        (tag, (tag & self.set_mask) as usize)
    }

    /// Make `tag` the most recent line of set `si`, evicting the least
    /// recent if the set is full. Returns whether it was resident.
    #[inline]
    fn touch(&mut self, tag: u64, si: usize) -> bool {
        self.heads[si].0 == !tag || self.touch_older(tag, si)
    }

    /// [`CacheSim::touch`] of a line that is not the set's MRU. Out of
    /// line, so that a call site inlines only the MRU compare.
    #[inline(never)]
    fn touch_older(&mut self, tag: u64, si: usize) -> bool {
        let (mru, len) = &mut self.heads[si];
        *mru = !tag;
        let n = *len as usize;
        let (tags, stamps) = &mut self.ways[si];
        self.clock += 1;
        // Scan every way without a branch; ways from `n` on are stale.
        let mut w = W;
        for (i, &t) in tags.iter().enumerate() {
            if (t == tag) & (i < n) {
                w = i;
            }
        }
        let hit = w < W;
        if !hit {
            w = if n < W {
                *len += 1;
                n
            } else {
                (0..W).min_by_key(|&w| stamps[w]).unwrap_or(0)
            };
            tags[w] = tag;
        }
        stamps[w] = self.clock;
        hit
    }

    /// Access `addr`: returns `true` on hit. On miss the line is installed
    /// (allocate-on-miss), evicting the LRU way if the set is full. On hit
    /// the line becomes most-recently-used.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (tag, si) = self.locate(addr);
        self.touch(tag, si)
    }

    /// Install a line (prefetch fills): [`CacheSim::access`] without the
    /// answer.
    #[inline]
    pub fn install(&mut self, addr: u64) {
        let (tag, si) = self.locate(addr);
        self.touch(tag, si);
    }

    /// Whether the line containing `addr` is currently resident (no LRU
    /// update).
    pub fn contains(&self, addr: u64) -> bool {
        let (tag, si) = self.locate(addr);
        self.ways[si].0[..self.heads[si].1 as usize].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim<2> {
        // 4 sets × 2 ways × 64B = 512B.
        CacheSim::new(CacheParams {
            size: 512,
            ways: 2,
            line_size: 64,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 256B).
        let a = 0x0u64;
        let b = 0x100u64;
        let d = 0x200u64;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU, b is LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn install_makes_the_next_access_hit() {
        let mut c = tiny();
        c.install(0x40);
        assert!(c.contains(0x40));
        assert!(c.access(0x40));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        assert!(!c.access(0x80));
        c.reset();
        assert!(!c.contains(0x80));
        assert!(!c.access(0x80), "cold again");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        // 4 lines in 4 different sets: all fit regardless of 2-way limit.
        for i in 0..4u64 {
            assert!(!c.access(i * 64));
        }
        for i in 0..4u64 {
            assert!(c.access(i * 64));
        }
    }

    #[test]
    fn realistic_geometries() {
        assert_eq!(CacheParams::l1d().sets(), 64);
        assert_eq!(CacheParams::l2().sets(), 512);
        assert_eq!(CacheParams::l3().sets(), 2048);
    }
}
