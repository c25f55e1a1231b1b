#![deny(missing_docs)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

//! A counting global allocator for peak-memory instrumentation.
//!
//! Std-only: wraps [`std::alloc::System`], tracking live bytes, the
//! high-watermark ([`MemStats::peak_bytes`]), and the allocation count
//! in relaxed atomics. The binary that wants numbers installs it —
//! behind `bench`'s `mem-profile` feature:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: memprof::CountingAlloc = memprof::CountingAlloc;
//! ```
//!
//! The numbers feed telemetry *gauges* (`mem.peak_bytes`,
//! `mem.alloc_count`), which are excluded from every artifact-equality
//! surface — instrumented and uninstrumented runs stay byte-identical
//! (DESIGN.md §13). When the allocator is not installed the counters
//! simply stay zero, which consumers render as an honest `n/a`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes currently allocated.
    pub current_bytes: u64,
    /// High watermark of allocated bytes since start (or the last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
    /// Number of allocations (including reallocations) since start.
    pub alloc_count: u64,
}

/// Read the counters. All zeros when [`CountingAlloc`] is not the
/// process's global allocator.
pub fn stats() -> MemStats {
    MemStats {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        alloc_count: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Reset the high watermark to the current live size (for per-phase
/// measurements, e.g. one `bench_scan` leg at a time). The allocation
/// count is left running — it is a monotone event counter, not a
/// level.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn on_dealloc(size: u64) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

/// The counting allocator: [`System`] plus three relaxed atomics per
/// call. Install with `#[global_allocator]`.
pub struct CountingAlloc;

#[expect(unsafe_code, reason = "a GlobalAlloc impl is unsafe by definition")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Account as free-old + alloc-new so CURRENT stays exact.
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is NOT installed for lib tests, so the counters
    // only move when driven directly — by these tests, which the harness
    // runs on parallel threads. Each holds this lock while it drives the
    // shared counters, so neither sees the other's bytes.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_track_alloc_and_dealloc() {
        let _counters = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = stats();
        on_alloc(1_000);
        let mid = stats();
        assert_eq!(mid.current_bytes, before.current_bytes + 1_000);
        assert_eq!(mid.alloc_count, before.alloc_count + 1);
        assert!(mid.peak_bytes >= mid.current_bytes);
        on_dealloc(1_000);
        let after = stats();
        assert_eq!(after.current_bytes, before.current_bytes);
        // Peak is a high watermark: dropping back does not lower it.
        assert!(after.peak_bytes >= mid.current_bytes);
    }

    #[test]
    fn reset_peak_drops_to_current() {
        let _counters = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        on_alloc(10_000);
        on_dealloc(10_000);
        reset_peak();
        let s = stats();
        assert_eq!(s.peak_bytes, s.current_bytes);
    }
}
