//! Counting global allocator: per-thread allocation and byte counters, so
//! a rung of the ladder can report allocations per round or per frame
//! without the two wire-client threads and the server's threads bouncing
//! one shared cache line on every `malloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised `Cell`s have no lazy init and no destructor, so
    // touching them from inside the allocator can never re-enter it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the only addition is bumping two thread-local
// integers, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its TLS is
    // gone; those allocations go uncounted rather than aborting.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
