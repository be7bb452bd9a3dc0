//! # sigma-testutil
//!
//! Shared test harnesses for the SIGMA reproduction, centred on the
//! **differential oracle** that proves incremental operator repair correct:
//!
//! * [`generate`] — seeded random and power-law graph generators and an
//!   edge-edit-trace generator, so property tests across crates draw
//!   structurally varied inputs from one implementation (including the
//!   delete-then-readd and no-op edit shapes that stress repair bookkeeping);
//! * [`reference`](mod@reference) — scalar reference kernels (the
//!   nested-loop LocalPush in the coupled solver's canonical summation
//!   order, the sort-the-row top-k selection of the operator, the
//!   table-free bitwise CRC32) shared by the parity tests and the
//!   `kernel_microopt` bench;
//! * [`oracle`] — a serving fixture (graph → trained-shape model snapshot →
//!   [`sigma_serve::InferenceEngine`] + in-sync
//!   [`sigma_simrank::DynamicSimRank`]) and [`oracle::replay_differential`],
//!   which replays an edit trace through (a) from-scratch recomputation and
//!   (b) incremental repair, asserting after every batch that the operator,
//!   every served logit, and the cache-hit observability counters are
//!   **bitwise identical** between the two paths — and that repair reported
//!   exactly the rows it changed. [`oracle::replay_maintainer`] holds the
//!   maintainer alone to the same contract against the coupled LocalPush
//!   run training uses. [`oracle::replay_differential_sharded`]
//!   generalises the same contract across a shard dimension: the trace is
//!   replayed against a 1-engine reference and an N-shard
//!   [`sigma_serve::ShardRouter`] simultaneously (optionally with mapped
//!   shard engines), asserting per-batch bitwise equality of logits,
//!   labels, operator rows, interleaved `most_similar` answers (ids and
//!   score bits, before and after each repair), and exact per-shard
//!   hit/eviction accounting, plus footprint-sparse repair fan-out.
//!
//! [`metrics`] checks a `sigma_obs::metric_set!` table against the registry
//! exposition and the stats struct it generated, and [`at_pool_width`] runs
//! a closure at a given process-wide pool width without racing the other
//! tests of its binary.
//!
//! The crate is a regular (non-dev) dependency of test targets only; it
//! ships no production code paths.

#![deny(missing_docs)]

pub mod generate;
pub mod metrics;
pub mod oracle;
pub mod reference;
pub mod wire;

pub use generate::{power_law_graph, random_graph, random_trace, TraceShape};
pub use oracle::{
    assert_similar_bitwise_eq, replay_differential, replay_differential_sharded, replay_maintainer,
    serving_fixture, DifferentialReport, MaintainerReport, ServingFixture,
    ShardedDifferentialReport,
};
pub use wire::{WireClient, WireResponse};

use std::sync::{Mutex, PoisonError};

/// Runs `f` with the process-wide pool at `threads` threads and returns its
/// result, restoring the default width (`0`) afterwards, panic or not.
///
/// `sigma_parallel::set_global_threads` is process-global and the tests of
/// one binary run on parallel threads, so a width set by one test can be
/// flipped by a sibling before it is used. Every call holds one lock for
/// its whole duration, so a test that measures "at 4 threads" really runs
/// at 4 — as long as every test of the binary that sets a width does so
/// through this helper. Calls do not nest.
pub fn at_pool_width<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static WIDTH: Mutex<()> = Mutex::new(());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            sigma_parallel::set_global_threads(0);
        }
    }
    // A failed test must not fail every later one through a poisoned lock.
    let _held = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    // Declared after the guard, so dropped before it: the width is restored
    // while the lock is still held.
    let _restore = Restore;
    sigma_parallel::set_global_threads(threads);
    f()
}
