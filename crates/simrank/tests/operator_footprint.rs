//! The live heap of a fresh `run_to_operator` is a small multiple of the
//! operator it returns.
//!
//! SIGMA's precompute keeps 16 scores a row, and a LocalPush row at ε = 0.1
//! on the Pokec-like graphs holds hundreds before its top-k selection. An
//! operator build that holds every row's residual, or the whole score
//! matrix, before it selects peaks at about 30 times the operator's bytes
//! (≈ 18 MB against ≈ 0.6 MB at 4 160 nodes). A timing test cannot see
//! that on a noisy host; an allocator can. This binary wraps the system
//! allocator in a counter and measures the high-water mark of live bytes
//! above where the build started.
//!
//! It is its own test binary with a single test because the allocator is
//! process-wide: a sibling test allocating on another thread would be
//! counted into the window.

use sigma_datasets::DatasetPreset;
use sigma_simrank::{LocalPush, SimRankConfig};
use sigma_testutil::at_pool_width;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of_val;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live bytes and their high-water mark since the last [`mark`].
/// Statistics only — nothing is published through them — so every access
/// is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned pointer.
// `realloc` and `alloc_zeroed` keep their default bodies, which go through
// `alloc` / `dealloc` below and are therefore counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`, i.e. from
        // `System.alloc` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a window: returns the live bytes it starts from.
fn mark() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[test]
fn a_fresh_operator_build_peaks_at_a_small_multiple_of_the_operator() {
    // The `learn_pokec` benchmark's graph and SimRank settings.
    let graph = DatasetPreset::Pokec.build(1.6, 47).unwrap().graph;
    let config = SimRankConfig::new(0.6, 0.1, Some(16)).unwrap();
    for threads in [1, 2] {
        let mut solver = LocalPush::new(&graph, config).unwrap();
        let (peak, operator) = at_pool_width(threads, || {
            let start = mark();
            let operator = solver.run_to_operator();
            (PEAK.load(Relaxed) - start, operator)
        });
        let bytes = size_of_val(operator.indptr())
            + size_of_val(operator.indices())
            + size_of_val(operator.values());
        assert_eq!(operator.nnz(), 16 * graph.num_nodes());
        assert!(
            peak <= 4 * bytes,
            "{threads} threads: the build peaked {peak} bytes above its start for a \
             {bytes}-byte operator"
        );
    }
}
