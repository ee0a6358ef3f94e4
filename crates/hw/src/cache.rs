//! Set-associative cache simulator with LRU replacement.
//!
//! Used both as the conservative model's L1D residency prover and as the
//! testbed simulator's L1/L2/L3 levels. Addresses are simulated addresses
//! from [`bolt_trace::AddressSpace`]; only line presence is tracked, not
//! data.

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

/// LRU set-associative cache. Tracks line tags only.
#[derive(Clone, Debug)]
pub struct CacheSim {
    params: CacheParams,
    /// `log2(line_size)`: a tag is `addr >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: the set count is a power of two, so a line's set is
    /// its tag's low bits.
    set_mask: u64,
    /// `sets × ways` tags; set `s` owns `tags[s * ways..][..lens[s]]`,
    /// most recent last.
    tags: Vec<u64>,
    lens: Vec<u32>,
}

impl CacheSim {
    /// New empty cache.
    pub fn new(params: CacheParams) -> Self {
        assert!(params.line_size.is_power_of_two());
        let n = params.sets() as usize;
        assert!(n.is_power_of_two(), "set count must be a power of two");
        CacheSim {
            params,
            line_shift: params.line_size.trailing_zeros(),
            set_mask: n as u64 - 1,
            tags: vec![0; n * params.ways as usize],
            lens: vec![0; n],
        }
    }

    /// `log2` of the line size: `addr >> line_shift()` numbers the line.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Empty the cache.
    pub fn reset(&mut self) {
        self.lens.fill(0);
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
        let (len, ways) = (self.lens[si] as usize, self.params.ways as usize);
        let set = &mut self.tags[si * ways..][..ways];
        let pos = set[..len].iter().position(|&t| t == tag);
        let from = match pos {
            Some(p) => p,
            None if len == ways => 0,
            None => {
                set[len] = tag;
                self.lens[si] += 1;
                return false;
            }
        };
        // Close the gap the hit (or the evicted LRU way) leaves.
        if from + 1 < len {
            set.copy_within(from + 1..len, from);
        }
        set[len - 1] = tag;
        pos.is_some()
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
        self.tags[si * self.params.ways as usize..][..self.lens[si] as usize].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
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
