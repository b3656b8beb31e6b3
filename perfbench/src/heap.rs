//! A global allocator that counts live heap bytes while counting is on.
//!
//! `peak_heap_mb` is the median over set-up ops of the op's peak live
//! heap. Unlike `VmHWM`, which keeps the maximum of a whole process, a
//! per-op peak is not dominated by the one input with the largest trace,
//! and the allocator's reuse of freed pages does not blur it. Timed ops
//! run with counting off and pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started. Frees of
/// older blocks can take it below 0.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    let bytes = isize::try_from(bytes).unwrap_or(isize::MAX);
    let live = LIVE.fetch_add(bytes, Relaxed).saturating_add(bytes);
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(isize::try_from(bytes).unwrap_or(isize::MAX), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// the sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Runs `f` with counting on and returns its result with the peak live
/// heap bytes it reached. Not reentrant; the runner calls it from one
/// thread, and worker threads `f` starts are counted too.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    (out, usize::try_from(PEAK.load(Relaxed)).unwrap_or(0))
}
