//! # sigma-testutil
//!
//! Shared test harnesses for the SIGMA reproduction, centred on the
//! **differential oracle** that proves incremental operator repair correct:
//!
//! * [`generate`] — seeded random and power-law graph generators and an
//!   edge-edit-trace generator, so property tests across crates draw
//!   structurally varied inputs from one implementation (including the
//!   delete-then-readd and no-op edit shapes that stress repair bookkeeping);
//! * [`reference`] — scalar reference kernels (the nested-loop LocalPush in
//!   the coupled solver's canonical summation order, the scan-every-seed
//!   row assembly of a decomposition, the table-free bitwise CRC32) shared
//!   by the parity tests and the `kernel_microopt` bench;
//! * [`oracle`] — a serving fixture (graph → trained-shape model snapshot →
//!   [`sigma_serve::InferenceEngine`] + in-sync
//!   [`sigma_simrank::DynamicSimRank`]) and [`oracle::replay_differential`],
//!   which replays an edit trace through (a) from-scratch recomputation and
//!   (b) incremental repair, asserting after every batch that the operator,
//!   every served logit, and the cache-hit observability counters are
//!   **bitwise identical** between the two paths — and that repair touched
//!   only the rows it reported. [`oracle::replay_differential_sharded`]
//!   generalises the same contract across a shard dimension: the trace is
//!   replayed against a 1-engine reference and an N-shard
//!   [`sigma_serve::ShardRouter`] simultaneously (optionally with mapped
//!   shard engines), asserting per-batch bitwise equality of logits,
//!   labels, operator rows, interleaved `most_similar` answers (ids and
//!   score bits, before and after each repair), and exact per-shard
//!   hit/eviction accounting, plus footprint-sparse repair fan-out.
//!
//! [`metrics`] checks a `sigma_obs::metric_set!` table against the registry
//! exposition and the stats struct it generated.
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
    assert_similar_bitwise_eq, replay_differential, replay_differential_sharded, serving_fixture,
    DifferentialReport, ServingFixture, ShardedDifferentialReport,
};
pub use wire::{WireClient, WireResponse};
