//! Simulated physical address space.
//!
//! Instrumented data structures do not log the host process's real pointer
//! values — that would make every cache-model result depend on the
//! allocator and ASLR. Instead, each structure reserves a [`MemRegion`]
//! from a per-run [`AddressSpace`] and reports addresses computed from its
//! own layout (`region.addr(bucket * BUCKET_SIZE + field_offset)`). The
//! resulting traces are deterministic and portable, while preserving the
//! spatial/temporal locality the hardware models care about.

/// A contiguous range of simulated addresses owned by one allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRegion {
    /// First address of the region.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl MemRegion {
    /// Address of `offset` bytes into the region.
    ///
    /// Panics in debug builds if the offset is out of bounds — an
    /// out-of-region address means the instrumentation disagrees with the
    /// declared layout, which would silently corrupt cache-model results.
    pub fn addr(&self, offset: u64) -> u64 {
        debug_assert!(
            offset < self.size,
            "offset {offset:#x} outside region of size {:#x}",
            self.size
        );
        self.base + offset
    }

    /// Address just past the end of the region.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether an address falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Bump allocator for simulated regions.
///
/// Regions are aligned and separated by a guard gap so that accidental
/// off-by-one addresses never alias a neighbouring structure in the cache
/// models.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
    guard: u64,
}

impl AddressSpace {
    /// Base of the simulated heap; arbitrary but stable across runs.
    const HEAP_BASE: u64 = 0x1000_0000;

    /// Create a fresh address space.
    pub fn new() -> Self {
        AddressSpace {
            next: Self::HEAP_BASE,
            guard: 4096,
        }
    }

    /// Reserve `size` bytes aligned to `align` (must be a power of two).
    pub fn alloc(&mut self, size: u64, align: u64) -> MemRegion {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "zero-sized region");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + size + self.guard;
        MemRegion { base, size }
    }

    /// Reserve a cacheline-aligned region (the common case for tables).
    pub fn alloc_table(&mut self, size: u64) -> MemRegion {
        self.alloc(size, 64)
    }

    /// Reserve a page-aligned region.
    pub fn alloc_pages(&mut self, size: u64) -> MemRegion {
        self.alloc(size, 4096)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc(100, 64);
        let r2 = a.alloc(8, 8);
        let r3 = a.alloc_pages(4096);
        assert_eq!(r1.base % 64, 0);
        assert_eq!(r3.base % 4096, 0);
        assert!(r1.end() <= r2.base);
        assert!(r2.end() <= r3.base);
        assert!(!r1.contains(r2.base));
        assert!(r2.contains(r2.base));
        assert!(!r2.contains(r2.end()));
    }

    #[test]
    fn addr_computes_offsets() {
        let mut a = AddressSpace::new();
        let r = a.alloc_table(64 * 16);
        assert_eq!(r.addr(0), r.base);
        assert_eq!(r.addr(65), r.base + 65);
    }

    // `addr` runs once per traced access on the replay hot path, so the
    // bound stays a `debug_assert!` and this test exists only where it is
    // compiled in.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_bounds_offset_panics_in_debug() {
        let mut a = AddressSpace::new();
        let r = a.alloc(16, 8);
        let _ = r.addr(16);
    }

    #[test]
    fn guard_gap_present() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc(64, 64);
        let r2 = a.alloc(64, 64);
        assert!(r2.base - r1.end() >= 4096 - 64);
    }
}
