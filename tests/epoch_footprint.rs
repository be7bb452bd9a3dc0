//! The live heap of one training epoch is linear in `n`.
//!
//! SIGMA's claim is cost linear in the node count, and the one thing that
//! breaks it silently is a dense `n × n` temporary: the input gradient of
//! `MLP_A(A)` was one (69 MB and 91 % of the epoch at 4 160 nodes) for as
//! long as leaf layers ran the full `backward`. A timing test cannot see
//! that on a noisy host; an allocator can. This binary wraps the system
//! allocator in a counter and measures, for one warm epoch driven through
//! the [`Model`] trait in `Trainer::train`'s order, the high-water mark of
//! live bytes above where the epoch started and the largest single
//! allocation inside it.
//!
//! It is its own test binary with a single test because the allocator is
//! process-wide: a sibling test allocating on another thread would be
//! counted into the window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{ContextBuilder, GraphContext, Model, ModelHyperParams, ModelKind};
use sigma_datasets::{DatasetPreset, Split};
use sigma_matrix::CsrMatrix;
use sigma_nn::{softmax_cross_entropy_masked, Adam, Optimizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live bytes, their high-water mark and the largest single allocation
/// since the last [`mark`]. Statistics only — nothing is published through
/// them — so every access is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

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
            LARGEST.fetch_max(layout.size(), Relaxed);
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
    LARGEST.store(0, Relaxed);
    live
}

/// One epoch in `Trainer::train`'s order.
fn epoch(model: &mut dyn Model, ctx: &GraphContext, split: &Split, adam: &mut Adam) {
    let mut rng = StdRng::seed_from_u64(5);
    adam.begin_step();
    let logits = model.forward(ctx, true, &mut rng).unwrap();
    let (_, grad) = softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
    model.zero_grad();
    model.backward(ctx, &grad).unwrap();
    model.apply_gradients(adam).unwrap();
    model.forward(ctx, false, &mut rng).unwrap();
}

/// `(high-water mark above the start, largest single allocation)` of the
/// second epoch of `kind` on an `n`-node pokec graph. The first epoch is
/// outside the window (it allocates Adam's moment buffers), and so is
/// LocalPush: the operator is supplied.
fn warm_epoch_footprint(kind: ModelKind, n: usize) -> (usize, usize) {
    let data = DatasetPreset::Pokec.build(n as f64 / 2600.0, 47).unwrap();
    assert_eq!(data.num_nodes(), n);
    let split = data.default_split(47).unwrap();
    let ctx = ContextBuilder::new(data)
        .with_simrank_operator(CsrMatrix::identity(n))
        .build()
        .unwrap();
    let mut model = kind.build(&ctx, &ModelHyperParams::small(), 47).unwrap();
    let mut adam = Adam::new(0.01).with_weight_decay(5e-4);
    epoch(model.as_mut(), &ctx, &split, &mut adam);
    let start = mark();
    epoch(model.as_mut(), &ctx, &split, &mut adam);
    (PEAK.load(Relaxed) - start, LARGEST.load(Relaxed))
}

#[test]
fn one_warm_epoch_allocates_linearly_in_the_node_count() {
    // The only test of this binary, so the process-wide width needs no lock.
    sigma_parallel::set_global_threads(1);
    for kind in [
        ModelKind::Sigma,
        ModelKind::GloGnn,
        ModelKind::Linkx,
        ModelKind::SigmaIterative(2),
    ] {
        let name = kind.name();
        let (small, _) = warm_epoch_footprint(kind, 1_000);
        let (large, largest) = warm_epoch_footprint(kind, 2_000);
        let dense_square = 2_000 * 2_000 * std::mem::size_of::<f32>();
        assert!(
            largest < 2_000 * 2_000,
            "{name}: one allocation of {largest} bytes is n x n-sized at n = 2000"
        );
        assert!(
            large < dense_square / 2,
            "{name}: an epoch at n = 2000 peaks {large} bytes above its start, \
             half a dense n x n f32 matrix is {}",
            dense_square / 2
        );
        assert!(
            (large as f64) < 2.6 * small as f64,
            "{name}: doubling n took the epoch's peak from {small} to {large} bytes"
        );
    }
}
