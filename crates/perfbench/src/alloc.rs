//! Byte/call-counting global allocator (the `count-alloc` feature).
//!
//! The counter tracks **cumulative bytes requested** (frees are not
//! subtracted): the harness measures allocation *traffic* through a timed
//! section, not peak residency, because traffic is what the hot-path
//! allocation pass eliminates and what stays bit-reproducible across runs
//! (the vendored rayon shim is sequential, so no other thread perturbs the
//! counts mid-measurement).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Wraps [`System`], adding every requested allocation to global counters.
#[derive(Debug, Default)]
pub struct CountingAlloc;

// Every method delegates verbatim to `System`; the counter updates are
// lock-free atomics and never allocate, so there is no reentrancy hazard.
// SAFETY: `System` upholds the GlobalAlloc contract and we forward to it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the layout contract; forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller upholds the layout contract; forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the full new size: a grow re-requests the whole block, and
        // over-counting reallocs keeps the metric monotone and simple.
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A snapshot of the counters (cumulative since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes requested via alloc/alloc_zeroed/realloc.
    pub bytes: u64,
    /// Total allocator calls (excluding frees).
    pub calls: u64,
}

impl AllocStats {
    /// Counter delta `self − earlier` (saturating).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            calls: self.calls.saturating_sub(earlier.calls),
        }
    }
}

/// Read the current counters. Zero when `count-alloc` is disabled.
pub fn stats() -> AllocStats {
    AllocStats { bytes: BYTES.load(Ordering::Relaxed), calls: CALLS.load(Ordering::Relaxed) }
}

/// Whether the counting allocator is installed in this build.
pub fn counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Cumulative `(bytes, calls)` reading in the shape the telemetry
/// collector's allocation probe expects.
#[cfg(feature = "telemetry")]
fn probe() -> (u64, u64) {
    let s = stats();
    (s.bytes, s.calls)
}

/// Hand the counting allocator to the span-tree profiler: registers
/// [`stats`] as the telemetry collector's allocation probe so armed span
/// trees attribute bytes/allocs to the innermost open span. Call before
/// arming; a no-op build-wise when `count-alloc` is off (the probe then
/// reads constant zeros and the profile's allocation columns stay
/// empty).
#[cfg(feature = "telemetry")]
pub fn install_telemetry_probe() {
    fedprox_telemetry::collector::install_alloc_probe(probe);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_allocation_is_counted() {
        if !counting_enabled() {
            return;
        }
        let before = stats();
        let v = vec![0u8; 4096];
        let after = stats();
        let d = after.since(&before);
        assert!(d.bytes >= 4096, "expected >= 4096 bytes counted, got {}", d.bytes);
        assert!(d.calls >= 1);
        drop(v);
    }

    #[test]
    fn since_is_saturating() {
        let a = AllocStats { bytes: 10, calls: 1 };
        let b = AllocStats { bytes: 30, calls: 4 };
        assert_eq!(b.since(&a), AllocStats { bytes: 20, calls: 3 });
        assert_eq!(a.since(&b), AllocStats { bytes: 0, calls: 0 });
    }
}
