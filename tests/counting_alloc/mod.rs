//! A pass-through global allocator that counts allocations and
//! reallocations, shared by the allocation-ceiling tests. It counts per
//! thread: a test reads what its own thread allocated, so tests of one
//! binary, which the harness runs on threads of their own, do not count
//! each other's work. Everything the counted code does runs on the
//! caller's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // A `const` initializer and no destructor: reading it allocates
    // nothing, so the allocator may use it.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // Only fails while the thread is being torn down, when no test counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout, via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and reallocations this thread has made since it started.
pub(crate) fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}
