//! What a run retains is two records a packet — a `PacketSample` and the
//! distiller's record of where its observations are — whatever the
//! packets execute. Measured with
//! a counting allocator (the only test in this binary, so nothing else
//! allocates meanwhile).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bolt_core::nf::NetworkFunction;
use bolt_distiller::NfRunner;
use bolt_nfs::lpm_router::LpmRouter;
use bolt_trace::AddressSpace;
use bolt_workloads::generators::lpm_traffic;
use dpdk_sim::StackLevel;
use nf_lib::clock::Granularity;
use nf_lib::registry::DsRegistry;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout, via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes a run may keep per packet: the 40-byte sample and the 16-byte
/// observation record, with room for the runner's fixed parts (the
/// simulated caches' tags, an mbuf) spread over the run.
const RETAINED_BYTES_PER_PACKET: usize = 72;
const PACKETS: usize = 100_000;

#[test]
fn a_long_lpm_run_retains_two_records_a_packet() {
    let nf = LpmRouter::default();
    let ids = nf.register(&mut DsRegistry::new());
    let mut state = nf.state(ids, &mut AddressSpace::new());
    state.lpm.insert(0x0A00_0000, 8, 1);
    state.lpm.insert(0x0B0C_0000, 24, 2);
    let packets = lpm_traffic(0x19, PACKETS, 0x0A00_0100, 0x0B0C_0001, 0.3, 1_000);

    let (live, allocations) = (
        LIVE.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    let mut runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
    runner.play_nf(&nf, &mut state, &packets);
    let retained = LIVE.load(Ordering::Relaxed) - live;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;

    assert_eq!(runner.samples.len(), PACKETS);
    assert!(
        retained <= RETAINED_BYTES_PER_PACKET * PACKETS,
        "{} bytes retained per packet",
        retained / PACKETS
    );
    // Room is made once per call, not found by doubling, and a packet
    // that observes no PCV allocates nothing at all.
    assert!(allocations < 64, "{allocations} allocations in one call");
}
