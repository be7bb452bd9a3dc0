//! The online inference engine.
//!
//! [`InferenceEngine::new`] takes a [`ServeSnapshot`] and precomputes the
//! full-graph embedding `H = MLP_H(δ·MLP_X(X) + (1−δ)·MLP_A(A))` once. A
//! query for a batch of `b` nodes then costs `O(b·k·f)`: the engine gathers
//! the batch's rows of the constant top-k operator `S` with
//! `CsrMatrix::spmm_rows` and blends them with the local embedding
//! (`Z_u = (1−α)·(S·H)_u + α·H_u`, paper Eq. 5–6) — no full-graph SpMM, no
//! MLP re-execution. Aggregated rows `Ẑ_u` are memoised in a bounded LRU
//! cache, and large batches are chunked across the shared thread pool.
//!
//! The engine also consumes `sigma_simrank::dynamic` edge updates: edits
//! invalidate exactly the cached rows whose operator entries can change
//! (endpoints, their neighbours, and every row referencing them), and a
//! refreshed operator from [`sigma_simrank::DynamicSimRank`] can be swapped
//! in without rebuilding the engine. On top of the full swap,
//! [`InferenceEngine::repair_from`] performs **incremental repair**: it asks
//! the maintainer for the exact set of operator rows an edit trace changed,
//! patches those rows (and the `H` rows of the edited nodes — the encoder is
//! row-local, so the patch is bitwise identical to a full re-encode) in
//! place, and evicts only the affected cache entries instead of dropping the
//! whole cache with an operator-epoch bump.
//!
//! Concurrency comes from the process-wide [`sigma_parallel::ThreadPool`]
//! shared with the training kernels — the engine no longer owns threads of
//! its own. Large batches are chunked and fanned out as scoped tasks; the
//! [`EngineConfig::workers`] knob bounds how many chunks run concurrently
//! and is validated against the shared pool's size at construction.
//! Maintenance calls ([`InferenceEngine::install_operator`],
//! [`InferenceEngine::repair_from`]) may race queries freely, but must not
//! race each other — run them from a single maintenance thread.
//!
//! Internally an engine is a *core* — the serving state, its operator epoch
//! and the stale set — plus one *lane*: a row cache and counters. A
//! [`crate::ShardRouter`] is the same core behind one lane per row range,
//! so every maintenance path here is a function of `(core, lanes)`: the
//! state changes once, under the one write section (`commit`), and only
//! evictions and row counters are attributed to the lanes owning the rows.

use crate::cache::LruCache;
use crate::forward::{compute_embeddings, compute_embeddings_rows};
use crate::mmap::MappedSnapshot;
use crate::snapshot::ServeSnapshot;
use crate::store::{CsrSection, CsrStore, DenseSection, DenseStore, ModelRef};
use crate::{Result, ServeError};
use sigma_matrix::{CsrMatrix, CsrView, DenseMatrix};
use sigma_obs::Stopwatch;
use sigma_parallel::ThreadPool;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Tuning knobs of the [`InferenceEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum number of aggregated rows (`Ẑ_u`) kept in the LRU cache
    /// (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum batch chunks served concurrently on the shared
    /// [`sigma_parallel::ThreadPool`]. `0` means *auto*: use the pool's full
    /// capacity. Explicit values are validated against the pool size at
    /// engine construction ([`ServeError::WorkerConfig`]).
    pub workers: usize,
    /// Batches larger than this are split into chunks of at most this many
    /// nodes and fanned out across the shared pool. Must be non-zero.
    pub max_chunk: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            workers: 0,
            max_chunk: 256,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration against the shared pool's current size.
    ///
    /// Rejects zero-capacity setups — `max_chunk == 0` (chunks could hold no
    /// nodes) and `workers` exceeding the shared pool (the extra workers
    /// could never run concurrently, silently degrading to less parallelism
    /// than requested) — with a typed [`ServeError::WorkerConfig`] instead
    /// of silently serving inline.
    ///
    /// The check is point-in-time: the global pool can be resized later
    /// (e.g. by `sigma_parallel::set_global_threads`), in which case
    /// [`EngineConfig::effective_workers`] clamps to the width available at
    /// serve time — safe either way, since results are identical at any
    /// width.
    pub fn validate(&self, pool: &ThreadPool) -> Result<()> {
        let pool_threads = pool.num_threads();
        if self.max_chunk == 0 {
            return Err(ServeError::WorkerConfig {
                workers: self.workers,
                pool_threads,
                reason: "max_chunk must be non-zero (a zero-capacity chunk can serve no nodes)",
            });
        }
        if self.workers > pool_threads {
            return Err(ServeError::WorkerConfig {
                workers: self.workers,
                pool_threads,
                reason: "workers exceed the shared pool size (set SIGMA_NUM_THREADS or \
                         sigma_parallel::set_global_threads, or lower workers; 0 = auto)",
            });
        }
        Ok(())
    }

    /// The concurrent-chunk bound actually used at serve time: the explicit
    /// `workers` value, or the shared pool's capacity when `workers == 0`.
    pub fn effective_workers(&self, pool: &ThreadPool) -> usize {
        if self.workers == 0 {
            pool.num_threads()
        } else {
            self.workers.min(pool.num_threads())
        }
    }
}

/// The served answer for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The queried node.
    pub node: usize,
    /// Class logits (`Z_u`, Eq. 6).
    pub logits: Vec<f32>,
    /// `argmax` of the logits.
    pub label: usize,
    /// Whether the aggregated row was served from the cache.
    pub cached: bool,
    /// Whether pending edge updates may have invalidated this node's
    /// operator row (served value may be stale until the next refresh).
    pub stale: bool,
}

/// One entry of a [`InferenceEngine::most_similar`] answer: a node ranked
/// by its score in the query node's operator row.
///
/// Ordering is pinned — score descending, then node id ascending — so a
/// sharded and a single-engine answer over the same operator are bitwise
/// comparable entry by entry (ids *and* score bits), which the sharded
/// differential oracle asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarNode {
    /// The similar node's id.
    pub node: usize,
    /// Its operator score `S[query][node]` (SimRank-style similarity).
    pub score: f32,
}

sigma_obs::metric_set! {
    /// The engine's live counters and latency histograms, exported as
    /// `sigma_serve_*` (several engines in one process merge by summation).
    /// The histograms are only *recorded into* when `obs` is on — with it
    /// off the stopwatch reads compile to nothing and they stay empty.
    struct EngineMetrics;
    /// Monotone serving counters, read with [`InferenceEngine::stats`].
    ///
    /// # Tearing semantics
    ///
    /// A snapshot is assembled from independent relaxed loads of live
    /// counters, **not** taken under any lock. Two guarantees hold:
    ///
    /// * **Per-counter monotonicity.** Each field is an actually-attained
    ///   value of its counter, and successive snapshots never observe a
    ///   field decreasing.
    /// * **No cross-counter consistency.** A snapshot taken while queries
    ///   are in flight may *tear* between fields: a batch bumps
    ///   `cache_misses` before `nodes_served`, so derived identities (e.g.
    ///   `cache_hits + cache_misses == nodes_served`) can be transiently off
    ///   by in-flight requests. They hold exactly once the engine quiesces.
    ///
    /// This is deliberate: serving never pays a stats lock. Tests that
    /// assert cross-field identities must stop issuing queries first (see
    /// `stats_tearing.rs` in this crate's test suite).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineStats {}
    counters {
        /// Total nodes served.
        nodes_served: "sigma_serve_nodes_served_total", "nodes served across all batches";
        /// Total batches served.
        batches_served: "sigma_serve_batches_served_total", "serve_batch calls completed";
        /// Aggregated rows found in the cache.
        cache_hits: "sigma_serve_cache_hits_total", "aggregated rows served from the LRU cache";
        /// Aggregated rows recomputed via the row-sliced kernel.
        cache_misses: "sigma_serve_cache_misses_total",
            "aggregated rows recomputed via the row-sliced kernel";
        /// Cached rows displaced by LRU capacity pressure (distinct from
        /// `rows_invalidated`, which counts correctness-driven drops).
        cache_evictions: "sigma_serve_cache_evictions_total",
            "cached rows displaced by LRU capacity pressure";
        /// Cached rows dropped by edge-update invalidation or repair.
        rows_invalidated: "sigma_serve_rows_invalidated_total",
            "cached rows dropped by edge-update invalidation or repair";
        /// Operator swap-ins from a refreshed maintainer (whole-operator
        /// path; drops the entire cache).
        operator_refreshes: "sigma_serve_operator_refreshes_total",
            "whole-operator swap-ins (cache-dropping path)";
        /// Incremental repairs applied by [`InferenceEngine::repair_from`]
        /// (row-patch path; keeps unaffected cache entries).
        operator_repairs: "sigma_serve_operator_repairs_total",
            "incremental row-patch repairs applied";
        /// Operator rows patched in place across all repairs.
        rows_repaired: "sigma_serve_rows_repaired_total",
            "operator rows patched in place across all repairs";
        /// Embedding (`H`) rows recomputed in place across all repairs.
        embedding_rows_repaired: "sigma_serve_embedding_rows_repaired_total",
            "embedding rows re-encoded in place across all repairs";
        /// Score rows the maintainer's replay re-pulled across all
        /// incremental repairs driven through
        /// [`InferenceEngine::repair_from`].
        repair_dirty_seeds: "sigma_serve_repair_dirty_seeds_total",
            "score rows the maintainer re-pulled during repairs";
        /// Whole-snapshot hot reloads applied via
        /// [`InferenceEngine::hot_reload_mapped`].
        snapshot_reloads: "sigma_serve_snapshot_reloads_total",
            "whole-snapshot hot reloads applied";
        /// Top-k similarity queries served ([`InferenceEngine::most_similar`]
        /// and [`InferenceEngine::most_similar_batch`], counted per query).
        /// Similarity traffic reads operator rows directly and never touches
        /// the `Ẑ` cache, so this counter moves while `cache_hits` /
        /// `cache_misses` stay put (`sigma_testutil::oracle` asserts it).
        similar_queries: "sigma_serve_similar_queries_total",
            "top-k similarity queries served off operator rows";
    }
    gauges {}
    histograms {
        /// Wall time of [`InferenceEngine::predict`] calls, nanoseconds.
        predict_ns: "sigma_serve_predict_ns", "single-node predict latency in nanoseconds";
        /// Wall time of [`InferenceEngine::predict_batch`] calls, nanoseconds.
        predict_batch_ns: "sigma_serve_predict_batch_ns", "predict_batch latency in nanoseconds";
        /// Wall time of [`InferenceEngine::most_similar`] /
        /// [`InferenceEngine::most_similar_batch`] calls, nanoseconds.
        similar_ns: "sigma_serve_similar_ns", "most_similar query latency in nanoseconds";
    }
}

/// The aggregation operator plus its transposed sparsity pattern (used to
/// find the rows that reference an updated node during invalidation).
struct OperatorState {
    matrix: CsrStore,
    /// Transposed pattern, materialised lazily on the first invalidation or
    /// repair that needs it: an engine serving straight out of a mapped
    /// snapshot must not pay an O(nnz) transpose at cold start. `OnceLock`
    /// lets racing readers initialise it under the state *read* lock.
    reverse: OnceLock<CsrMatrix>,
}

impl OperatorState {
    fn new(matrix: CsrStore) -> Self {
        Self {
            matrix,
            reverse: OnceLock::new(),
        }
    }

    /// The transposed operator, built on first use and cached until the
    /// matrix is next patched.
    fn reverse(&self) -> &CsrMatrix {
        self.reverse
            .get_or_init(|| self.matrix.view().transpose_owned())
    }
}

/// Everything a query must observe as one consistent unit: the embedding,
/// the adjacency it was encoded from, the aggregation operator, and the
/// inputs (features, weights, `α`) they were derived from. Batches take
/// the read side; operator swaps, incremental repairs and snapshot hot
/// reloads take the write side, so a batch never sees a half-patched
/// state. Every matrix is held as an owned-or-mapped store, so the same
/// engine serves decoded snapshots and zero-copy mappings through
/// identical code paths.
struct ServingState {
    /// Precomputed full-graph embedding `H` (`n × C`).
    embeddings: DenseStore,
    /// Adjacency the embedding was computed from, kept in sync by repairs;
    /// also the source of first-order invalidation regions.
    adjacency: CsrStore,
    /// Constant aggregation operator (`None` = SIGMA w/o S: `Ẑ = H`).
    operator: Option<OperatorState>,
    /// Node features `X`, the dense half of the encoder input (repairs
    /// re-encode `H` rows from it).
    features: DenseStore,
    /// Encoder weights, decoded lazily on the mapped path (only the repair
    /// path needs them).
    model: ModelRef,
    /// Effective local/global balance `α`.
    alpha: f32,
}

/// What every lane of an engine or a router reads: the one serving state
/// and the two things that guard it. An [`InferenceEngine`] is one core and
/// one lane; a [`crate::ShardRouter`] is one core and a lane per row range.
pub(crate) struct Core {
    state: RwLock<ServingState>,
    /// Node and class counts (immutable over the core's lifetime; hot
    /// reloads must match them).
    pub(crate) num_nodes: usize,
    pub(crate) num_classes: usize,
    /// Nodes whose operator rows may be stale w.r.t. applied edge updates.
    stale: Mutex<HashSet<usize>>,
    /// Operator generation counter, bumped by every write section
    /// (`commit`). Rows computed against generation `g` may only enter a
    /// cache while the generation is still `g` — otherwise a batch racing a
    /// swap could cache old-operator rows after the swap's cache clear (or
    /// a repair's targeted eviction).
    epoch: AtomicU64,
}

/// What is legitimately per shard: a bounded memo of the aggregated rows
/// the lane owns, and the counters of the traffic it served.
pub(crate) struct Lane {
    cache: Mutex<LruCache>,
    stats: EngineMetrics,
}

/// A lane and the rows it owns. Maintenance takes every lane of a core —
/// an engine passes its one lane with `0..n`, a router its plan's ranges
/// (ascending, covering `0..n` once) — so the state is changed once and
/// only the eviction and the counters are attributed by range.
pub(crate) type LaneRange<'a> = (&'a Lane, Range<usize>);

/// Online node-classification server for a snapshotted SIGMA model.
pub struct InferenceEngine {
    core: Arc<Core>,
    lane: Lane,
    config: EngineConfig,
}

/// What one [`InferenceEngine::repair_from`] call changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRepair {
    /// Operator rows patched in place (sorted). On a full refresh this
    /// lists every row.
    pub operator_rows: Vec<usize>,
    /// Embedding (`H`) rows re-encoded in place (sorted): the nodes whose
    /// adjacency rows differed from the engine's.
    pub embedding_rows: Vec<usize>,
    /// Cached `Ẑ` rows invalidated (sorted): the patched operator rows plus
    /// every row whose operator entries reference a re-encoded node. On a
    /// full refresh the whole cache is dropped instead and this is empty.
    pub invalidated_rows: Vec<usize>,
    /// Whether the engine fell back to a whole-operator install (first sync
    /// with a maintainer that had no prior state).
    pub full_refresh: bool,
}

impl std::fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("num_nodes", &self.num_nodes())
            .field("num_classes", &self.num_classes())
            .field("config", &self.config)
            .field(
                "workers",
                &self.config.effective_workers(ThreadPool::global()),
            )
            .finish()
    }
}

impl Core {
    /// A core over a decoded snapshot: validates the configuration against
    /// the shared thread pool and runs the encoder once over the full graph
    /// (or adopts the snapshot's precomputed embeddings when present).
    pub(crate) fn from_snapshot(
        snapshot: &ServeSnapshot,
        config: &EngineConfig,
    ) -> Result<Arc<Self>> {
        config.validate(ThreadPool::global())?;
        snapshot.model.validate()?;
        Ok(Self::over(owned_state(snapshot)?))
    }

    /// A core serving straight out of a mapped snapshot, verified first
    /// (checksums + CSR invariants; cached, so repeated cores off one
    /// mapping pay it once).
    pub(crate) fn from_mapped(
        snapshot: Arc<MappedSnapshot>,
        config: &EngineConfig,
    ) -> Result<Arc<Self>> {
        config.validate(ThreadPool::global())?;
        Ok(Self::over(mapped_state(snapshot)?))
    }

    fn over(state: ServingState) -> Arc<Self> {
        Arc::new(Self {
            num_nodes: state.embeddings.rows(),
            num_classes: state.embeddings.view().cols(),
            state: RwLock::new(state),
            stale: Mutex::new(HashSet::new()),
            epoch: AtomicU64::new(0),
        })
    }

    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, ServingState> {
        self.state.read().expect("serving state poisoned")
    }

    /// Acquires the serving-state write lock without ever *queueing* behind
    /// active readers.
    ///
    /// A serve batch holds the read lock while dispatching onto the shared
    /// pool, and the pool's help-first join can hand that thread another
    /// batch task which re-acquires the read lock. Recursive reads are only
    /// safe while no writer is waiting (std's `RwLock` may be
    /// writer-preferring), so maintenance writers spin on `try_write`
    /// instead of blocking — batches are short and maintenance is rare.
    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, ServingState> {
        loop {
            match self.state.try_write() {
                Ok(guard) => return guard,
                Err(std::sync::TryLockError::WouldBlock) => std::thread::yield_now(),
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("serving state poisoned"),
            }
        }
    }

    /// A copy of the aggregation operator currently served (`None` for the
    /// operator-less `Ẑ = H` variant).
    pub(crate) fn operator(&self) -> Option<CsrMatrix> {
        self.read_state()
            .operator
            .as_ref()
            .map(|state| state.matrix.to_matrix())
    }

    /// Nodes currently marked stale, sorted by id.
    pub(crate) fn stale_nodes(&self) -> Vec<usize> {
        sorted(
            self.stale
                .lock()
                .expect("stale lock poisoned")
                .iter()
                .copied(),
        )
    }
}

impl Lane {
    fn new(config: &EngineConfig) -> Self {
        Self {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stats: EngineMetrics::new(),
        }
    }

    /// Counts one maintenance round this lane took part in.
    pub(crate) fn count_round(&self, full_refresh: bool) {
        if full_refresh {
            self.stats.operator_refreshes.inc();
        } else {
            self.stats.operator_repairs.inc();
        }
    }
}

/// Serving state for the owned (decoded) path.
fn owned_state(snapshot: &ServeSnapshot) -> Result<ServingState> {
    let embeddings = match &snapshot.embeddings {
        Some(h) => {
            if h.shape() != (snapshot.num_nodes(), snapshot.model.num_classes()) {
                return Err(ServeError::Corrupt {
                    reason: format!(
                        "precomputed embeddings {:?} do not match the model's {} × {} output",
                        h.shape(),
                        snapshot.num_nodes(),
                        snapshot.model.num_classes()
                    ),
                });
            }
            h.clone()
        }
        None => compute_embeddings(&snapshot.model, &snapshot.features, &snapshot.adjacency)?,
    };
    Ok(ServingState {
        embeddings: DenseStore::Owned(embeddings),
        adjacency: CsrStore::Owned(snapshot.adjacency.clone()),
        operator: snapshot
            .model
            .operator
            .clone()
            .map(|m| OperatorState::new(CsrStore::Owned(m))),
        features: DenseStore::Owned(snapshot.features.clone()),
        model: ModelRef::Owned(Arc::new(snapshot.model.clone())),
        alpha: snapshot.model.effective_alpha() as f32,
    })
}

/// Serving state borrowing a verified mapping.
fn mapped_state(snap: Arc<MappedSnapshot>) -> Result<ServingState> {
    snap.verify()?;
    let embeddings = if snap.has_embeddings() {
        DenseStore::Mapped {
            snap: snap.clone(),
            section: DenseSection::Embeddings,
        }
    } else {
        // No EMB section: encode `H` once from the mapped inputs (the
        // O(n) fallback — write snapshots with
        // `ServeSnapshot::precompute_embeddings` to skip it).
        let model = snap.model()?;
        let features = snap.features_view().to_owned_matrix();
        let adjacency = snap.adjacency_view().to_owned_matrix()?;
        DenseStore::Owned(compute_embeddings(&model, &features, &adjacency)?)
    };
    Ok(ServingState {
        embeddings,
        adjacency: CsrStore::Mapped {
            snap: snap.clone(),
            section: CsrSection::Adjacency,
        },
        operator: snap.has_operator().then(|| {
            OperatorState::new(CsrStore::Mapped {
                snap: snap.clone(),
                section: CsrSection::Operator,
            })
        }),
        features: DenseStore::Mapped {
            snap: snap.clone(),
            section: DenseSection::Features,
        },
        alpha: snap.effective_alpha() as f32,
        model: ModelRef::Mapped(snap),
    })
}

impl InferenceEngine {
    /// Builds an engine from a decoded snapshot: validates the
    /// configuration against the shared thread pool and runs the encoder
    /// once over the full graph (or adopts the snapshot's precomputed
    /// embeddings when present).
    pub fn new(snapshot: &ServeSnapshot, config: EngineConfig) -> Result<Self> {
        Ok(Self::lane_over(
            Core::from_snapshot(snapshot, &config)?,
            config,
        ))
    }

    /// Builds an engine serving straight out of a mapped snapshot —
    /// zero copy, O(1) in the graph size when the snapshot carries
    /// precomputed embeddings (otherwise the encoder runs once, as
    /// [`InferenceEngine::new`] would).
    ///
    /// Verifies the mapping first (checksums + CSR invariants; cached, so
    /// repeated engines off one mapping pay it once). The engine holds the
    /// [`Arc`], pinning the mapping for its lifetime; results are bitwise
    /// identical to an engine built from the decoded snapshot.
    pub fn from_mapped(snapshot: Arc<MappedSnapshot>, config: EngineConfig) -> Result<Self> {
        Ok(Self::lane_over(
            Core::from_mapped(snapshot, &config)?,
            config,
        ))
    }

    /// One more lane — its own cache and counters — over `core`. A router
    /// builds one per row range and sends each node only to its owner.
    pub(crate) fn lane_over(core: Arc<Core>, config: EngineConfig) -> Self {
        Self {
            core,
            lane: Lane::new(&config),
            config,
        }
    }

    pub(crate) fn lane(&self) -> &Lane {
        &self.lane
    }

    /// This engine's one lane, owning every row.
    fn whole(&self) -> [LaneRange<'_>; 1] {
        [(&self.lane, 0..self.core.num_nodes)]
    }

    /// Atomically replaces the entire served state — embeddings,
    /// adjacency, operator, features, weights, `α` — with a mapped snapshot
    /// of the *same* graph dimensions (verifying it first), under the
    /// operator-epoch guard: one write-lock swap, an epoch bump so racing
    /// batches cannot cache pre-reload rows, and a cache + staleness
    /// clear. Queries racing the reload serve a consistent answer from one
    /// state or the other, never a blend. The engine serves out of the new
    /// mapping zero-copy and drops its reference to the old one.
    pub fn hot_reload_mapped(&self, snapshot: Arc<MappedSnapshot>) -> Result<()> {
        hot_reload_mapped(&self.core, &self.whole(), snapshot)
    }

    /// Number of nodes the engine serves.
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes
    }

    /// Number of classes per prediction.
    pub fn num_classes(&self) -> usize {
        self.core.num_classes
    }

    /// The effective `α` blended at serve time.
    pub fn alpha(&self) -> f32 {
        self.core.read_state().alpha
    }

    /// A copy of the aggregation operator currently served (`None` when the
    /// engine runs the operator-less `Ẑ = H` variant). Observability hook
    /// used by the differential test harness.
    pub fn operator(&self) -> Option<CsrMatrix> {
        self.core.operator()
    }

    /// Serves a single node.
    pub fn predict(&self, node: usize) -> Result<Prediction> {
        let sw = Stopwatch::start();
        let mut batch = serve_batch(&self.core, &self.lane, &[node])?;
        if sigma_obs::ENABLED {
            self.lane.stats.predict_ns.record(sw.elapsed_ns());
        }
        Ok(batch.pop().expect("one prediction per queried node"))
    }

    /// Serves a batch of nodes, preserving query order.
    ///
    /// Batches larger than [`EngineConfig::max_chunk`] are split into chunks
    /// and fanned out as scoped tasks on the shared
    /// [`sigma_parallel::ThreadPool`], at most
    /// [`EngineConfig::effective_workers`] chunks in flight; smaller batches
    /// are served on the caller's thread. Chunks are grouped into tasks by
    /// **operator mass** (each queried node costs its operator row's nnz)
    /// through [`sigma_parallel::partition_by_weight`], so a batch that
    /// happens to concentrate hub rows in one region does not serialise one
    /// worker. Predictions are assembled in chunk order, so the grouping
    /// never affects results.
    pub fn predict_batch(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        let sw = Stopwatch::start();
        let result = self.predict_batch_inner(nodes);
        if sigma_obs::ENABLED {
            self.lane.stats.predict_batch_ns.record(sw.elapsed_ns());
        }
        result
    }

    /// [`InferenceEngine::predict_batch`] minus the latency bookkeeping.
    fn predict_batch_inner(&self, nodes: &[usize]) -> Result<Vec<Prediction>> {
        let pool = ThreadPool::global();
        let concurrency = self.config.effective_workers(pool);
        let (core, lane) = (&*self.core, &self.lane);
        if nodes.len() <= self.config.max_chunk || concurrency <= 1 {
            return serve_batch(core, lane, nodes);
        }
        let chunks: Vec<&[usize]> = nodes.chunks(self.config.max_chunk).collect();
        // Per-chunk cost estimate: the aggregation SpMM dominates, and its
        // work is the sum of the queried rows' operator nnz (plus one unit
        // per node for the cache probe / blend). Out-of-range nodes weigh
        // one unit here and are rejected by `serve_batch` as before.
        let chunk_weights: Vec<usize> = {
            let state = core.read_state();
            let op_view = state.operator.as_ref().map(|op| op.matrix.view());
            chunks
                .iter()
                .map(|chunk| {
                    chunk
                        .iter()
                        .map(|&node| match op_view {
                            Some(op) if node < op.rows() => 1 + op.row_nnz(node),
                            _ => 1,
                        })
                        .sum()
                })
                .collect()
        };
        let groups =
            sigma_parallel::partition_by_weight(&chunk_weights, concurrency.min(chunks.len()));
        let mut results: Vec<Option<Result<Vec<Prediction>>>> =
            (0..chunks.len()).map(|_| None).collect();
        {
            let mut rest: &mut [Option<Result<Vec<Prediction>>>] = &mut results;
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(groups.len());
            for group in groups {
                let (slot_group, tail) = rest.split_at_mut(group.len());
                rest = tail;
                let chunk_group = &chunks[group];
                tasks.push(Box::new(move || {
                    for (chunk, slot) in chunk_group.iter().zip(slot_group.iter_mut()) {
                        *slot = Some(serve_batch(core, lane, chunk));
                    }
                }));
            }
            pool.run(tasks);
        }
        let mut out = Vec::with_capacity(nodes.len());
        for slot in results {
            out.extend(slot.expect("every chunk task ran to completion")?);
        }
        Ok(out)
    }

    /// Top-`k` nodes most similar to `node`, ranked by the node's
    /// aggregation-operator row (the top-k SimRank structure the engine
    /// already serves aggregation from).
    ///
    /// Determinism contract: entries are ordered by **score descending,
    /// then node id ascending** — pinned so a sharded router and a single
    /// engine over the same operator return bitwise-identical answers (ids
    /// *and* score bits), which the sharded differential oracle asserts.
    /// The query node's own self-similarity entry is excluded; a
    /// recommendation-style caller never wants `node` recommended to
    /// itself. Fewer than `k` entries come back when the row holds fewer
    /// qualifying entries.
    ///
    /// Unlike [`InferenceEngine::predict`], this reads the operator row
    /// directly and never touches the `Ẑ` row cache — similarity traffic
    /// has a very different cache profile than logit serving (the serving
    /// bench records the difference).
    ///
    /// Errors with [`ServeError::InvalidQuery`] for an out-of-range node
    /// and [`ServeError::NoOperator`] on an engine serving the
    /// operator-less `Ẑ = H` variant.
    pub fn most_similar(&self, node: usize, k: usize) -> Result<Vec<SimilarNode>> {
        let sw = Stopwatch::start();
        let mut batch = similar_batch(&self.core, &self.lane, &[(node, k)])?;
        if sigma_obs::ENABLED {
            self.lane.stats.similar_ns.record(sw.elapsed_ns());
        }
        Ok(batch.pop().expect("one answer per similarity query"))
    }

    /// Serves a batch of `(node, k)` similarity queries in request order
    /// under one read of the serving state, with the same determinism
    /// contract as [`InferenceEngine::most_similar`].
    pub fn most_similar_batch(&self, queries: &[(usize, usize)]) -> Result<Vec<Vec<SimilarNode>>> {
        let sw = Stopwatch::start();
        let result = similar_batch(&self.core, &self.lane, queries);
        if sigma_obs::ENABLED {
            self.lane.stats.similar_ns.record(sw.elapsed_ns());
        }
        result
    }

    /// Applies a stream of edge updates to the staleness tracker.
    ///
    /// Marks the first-order affected region (endpoints plus their
    /// neighbours at snapshot time) stale, and evicts every cached row whose
    /// operator entries reference an affected node. Returns the number of
    /// cached rows invalidated.
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> Result<usize> {
        Ok(apply_edge_updates(&self.core, &self.whole(), updates)?.0)
    }

    /// Incrementally repairs the served state from a [`DynamicSimRank`]
    /// maintainer after graph edits, instead of swapping the whole operator.
    ///
    /// Drives [`DynamicSimRank::repair`] and then patches, in place and
    /// under one write lock:
    ///
    /// * the operator rows the maintainer reports as changed (spliced with
    ///   `CsrMatrix::replace_rows`),
    /// * the `H` rows of every node whose adjacency row differs from the
    ///   engine's copy (the encoder is row-local, so the re-encoded rows are
    ///   bitwise identical to a full re-encode),
    /// * the engine's adjacency itself.
    ///
    /// Before that lock is released only the affected cache entries —
    /// patched operator rows plus rows referencing a re-encoded node — are
    /// evicted; every other cached row is provably still exact, so a warm
    /// cache survives the edit. The staleness set is cleared: the engine is
    /// fully consistent with the maintainer's graph, bitwise identical to an
    /// engine rebuilt from scratch on it.
    ///
    /// The engine's operator must have come from the same maintainer (or an
    /// equal one): row patches are relative to the served operator. The
    /// first call against a maintainer with no prior state falls back to a
    /// whole-operator install (`full_refresh` in the returned report).
    pub fn repair_from(&self, maintainer: &mut DynamicSimRank) -> Result<EngineRepair> {
        let round = repair_round(&self.core, &self.whole(), maintainer)?;
        self.lane.stats.repair_dirty_seeds.add(round.dirty_seeds);
        self.lane.count_round(round.repair.full_refresh);
        Ok(round.repair)
    }

    /// Replaces the aggregation operator (e.g. after a SimRank refresh on an
    /// updated graph), clearing the row cache and the staleness set.
    pub fn install_operator(&self, operator: CsrMatrix) -> Result<()> {
        let n = self.num_nodes();
        if operator.shape() != (n, n) {
            return Err(ServeError::OperatorMismatch {
                got: operator.shape(),
                expected: n,
            });
        }
        let new_state = OperatorState::new(CsrStore::Owned(operator));
        // Materialise the transpose outside the lock (as the eager path
        // always did for installs) so the write section stays short.
        new_state.reverse();
        commit(&self.core, &self.whole(), |state| {
            state.operator = Some(new_state);
            Ok(Evict::All)
        })?;
        self.lane.stats.operator_refreshes.inc();
        Ok(())
    }

    /// Nodes currently marked stale, sorted by id.
    pub fn stale_nodes(&self) -> Vec<usize> {
        self.core.stale_nodes()
    }

    /// Number of aggregated rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.lane.cache.lock().expect("cache lock poisoned").len()
    }

    /// A point-in-time copy of the serving counters.
    ///
    /// Lock-free: see [`EngineStats`] for the exact guarantees — each field
    /// is individually monotone and exact, but fields may tear against each
    /// other while queries are in flight.
    pub fn stats(&self) -> EngineStats {
        self.lane.stats.snapshot()
    }
}

impl EngineRepair {
    /// This report restricted to the rows in `range` — what the round did
    /// to one shard.
    pub(crate) fn within(&self, range: &Range<usize>) -> EngineRepair {
        EngineRepair {
            operator_rows: within(&self.operator_rows, range).to_vec(),
            embedding_rows: within(&self.embedding_rows, range).to_vec(),
            invalidated_rows: within(&self.invalidated_rows, range).to_vec(),
            full_refresh: self.full_refresh,
        }
    }
}

fn sorted(nodes: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut out: Vec<usize> = nodes.into_iter().collect();
    out.sort_unstable();
    out
}

/// The part of a sorted row list that falls inside `range`.
fn within<'a>(rows: &'a [usize], range: &Range<usize>) -> &'a [usize] {
    let lo = rows.partition_point(|&r| r < range.start);
    let hi = rows.partition_point(|&r| r < range.end);
    &rows[lo..hi]
}

/// Which cached rows a write section drops.
enum Evict {
    /// Every row of every lane (whole-operator or whole-state swaps).
    All,
    /// Exactly these rows (sorted), each from the lane owning it.
    Rows(Vec<usize>),
}

/// Drops `rows` (sorted) from the caches of the lanes owning them, counting
/// each drop on its lane; returns the total dropped.
fn evict_rows(lanes: &[LaneRange<'_>], rows: &[usize]) -> usize {
    let mut total = 0usize;
    for (lane, range) in lanes {
        let own = within(rows, range);
        if own.is_empty() {
            continue;
        }
        let evicted = {
            let mut cache = lane.cache.lock().expect("cache lock poisoned");
            own.iter().filter(|&&row| cache.invalidate(row)).count()
        };
        lane.stats.rows_invalidated.add(evicted as u64);
        total += evicted;
    }
    total
}

/// The one write section: every change to the serving state — operator
/// install, incremental repair, snapshot reload — goes through here, so the
/// protocol that keeps caches exact is written once.
///
/// `mutate` runs under the state write lock and says which cached rows the
/// change outdates; if it fails it must have left what is served unchanged.
/// Still under the lock, the generation is bumped — an in-flight batch that
/// computed rows against the old state observes a changed epoch and skips
/// caching them — and the rows are evicted from every lane: queries take a
/// cache lock only inside or after their state read section, so the state →
/// cache order is deadlock-free, and once the new state is visible no
/// outdated `Ẑ` row can be served against it. The staleness set is cleared
/// last (the state now matches its source) and handed back, sorted, with
/// the eviction.
fn commit(
    core: &Core,
    lanes: &[LaneRange<'_>],
    mutate: impl FnOnce(&mut ServingState) -> Result<Evict>,
) -> Result<(Evict, Vec<usize>)> {
    let evict = {
        let mut state = core.write_state();
        let evict = mutate(&mut state)?;
        core.epoch.fetch_add(1, Ordering::SeqCst);
        match &evict {
            Evict::All => {
                for (lane, _) in lanes {
                    lane.cache.lock().expect("cache lock poisoned").clear();
                }
            }
            Evict::Rows(rows) => {
                evict_rows(lanes, rows);
            }
        }
        evict
    };
    let was_stale = std::mem::take(&mut *core.stale.lock().expect("stale lock poisoned"));
    Ok((evict, sorted(was_stale)))
}

/// [`InferenceEngine::hot_reload_mapped`] over every lane of a core: one
/// swap, every cache cleared; lanes keep their ranges (any partition of the
/// rows is a correct one).
pub(crate) fn hot_reload_mapped(
    core: &Core,
    lanes: &[LaneRange<'_>],
    snapshot: Arc<MappedSnapshot>,
) -> Result<()> {
    let new_state = mapped_state(snapshot)?;
    let n = new_state.embeddings.rows();
    let classes = new_state.embeddings.view().cols();
    if n != core.num_nodes {
        return Err(ServeError::OperatorMismatch {
            got: (n, n),
            expected: core.num_nodes,
        });
    }
    if classes != core.num_classes {
        return Err(ServeError::Corrupt {
            reason: format!(
                "reloaded snapshot serves {} classes, engine was built for {}",
                classes, core.num_classes
            ),
        });
    }
    commit(core, lanes, |state| {
        *state = new_state;
        Ok(Evict::All)
    })?;
    for (lane, _) in lanes {
        lane.stats.snapshot_reloads.inc();
    }
    Ok(())
}

/// [`InferenceEngine::apply_edge_updates`] over every lane of a core.
/// Returns the cached rows invalidated and, per lane, whether its range
/// meets the rows the updates marked stale.
pub(crate) fn apply_edge_updates(
    core: &Core,
    lanes: &[LaneRange<'_>],
    updates: &[EdgeUpdate],
) -> Result<(usize, Vec<bool>)> {
    let n = core.num_nodes;
    // The first-order region: each update's endpoints plus their neighbours
    // at snapshot time ...
    let mut rows: HashSet<usize> = HashSet::new();
    {
        let state = core.read_state();
        let adjacency = state.adjacency.view();
        for &update in updates {
            let (u, v) = match update {
                EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
            };
            if u >= n || v >= n {
                return Err(ServeError::InvalidQuery {
                    node: u.max(v),
                    num_nodes: n,
                });
            }
            for endpoint in [u, v] {
                rows.insert(endpoint);
                for &nb in adjacency.row_cols(endpoint) {
                    rows.insert(nb as usize);
                }
            }
        }
        // ... plus every row whose operator entries touch an affected column.
        if let Some(operator) = state.operator.as_ref() {
            let reverse = operator.reverse();
            let affected: Vec<usize> = rows.iter().copied().collect();
            for a in affected {
                for (row, _) in reverse.row_iter(a) {
                    rows.insert(row);
                }
            }
        }
    }
    let rows = sorted(rows);
    let invalidated = evict_rows(lanes, &rows);
    core.stale
        .lock()
        .expect("stale lock poisoned")
        .extend(rows.iter().copied());
    let touched = lanes
        .iter()
        .map(|(_, range)| !within(&rows, range).is_empty())
        .collect();
    Ok((invalidated, touched))
}

/// What one repair round did to a core.
pub(crate) struct Round {
    /// The whole-graph report (an engine's [`InferenceEngine::repair_from`]
    /// answer).
    pub(crate) repair: EngineRepair,
    /// Per lane: whether its range meets the round's footprint — patched
    /// rows ∪ re-encoded rows ∪ invalidated rows ∪ nodes that were stale
    /// (every lane on a full refresh).
    pub(crate) touched: Vec<bool>,
    /// Score rows the maintainer re-pulled.
    pub(crate) dirty_seeds: u64,
}

/// [`InferenceEngine::repair_from`] over every lane of a core: the
/// maintainer is driven once, the state patched once, and the eviction and
/// the row counters attributed to the lanes owning the rows. The per-round
/// counters ([`Lane::count_round`], dirty seeds) are the caller's.
pub(crate) fn repair_round(
    core: &Core,
    lanes: &[LaneRange<'_>],
    maintainer: &mut DynamicSimRank,
) -> Result<Round> {
    let n = core.num_nodes;
    let graph_nodes = maintainer.graph().num_nodes();
    if graph_nodes != n {
        return Err(ServeError::OperatorMismatch {
            got: (graph_nodes, graph_nodes),
            expected: n,
        });
    }
    let outcome = maintainer.repair()?;
    let has_operator = core.read_state().operator.is_some();
    // Resolve the operator payload before taking the write lock (the
    // maintainer materialises rows lazily). An operator-less core
    // (`Ẑ = H`) takes none: only its embedding needs care.
    let mut operator_rows = Vec::new();
    let mut row_patch = None;
    let mut full_operator = None;
    let mut dirty_seeds = 0u64;
    match &outcome {
        RepairOutcome::Patched(repair) => {
            dirty_seeds = repair.dirty_seeds as u64;
            if has_operator && !repair.changed_rows.is_empty() {
                operator_rows = repair.changed_rows.clone();
                row_patch = Some(maintainer.operator_rows(&operator_rows)?);
            }
        }
        RepairOutcome::FullRefresh if has_operator => {
            operator_rows = (0..n).collect();
            full_operator = Some(maintainer.operator()?);
        }
        RepairOutcome::FullRefresh => {}
    }
    let adjacency_new = maintainer.graph().to_adjacency();

    // Re-encode exactly the nodes whose adjacency rows differ. The diff
    // is against the core's own copy, so it also catches edits the
    // maintainer absorbed before this core ever synced. Both the diff
    // and the re-encode run under the *read* lock, never the write
    // lock: the encoder dispatches onto the shared pool, and the pool's
    // help-first join may hand this thread a queued serve-batch task
    // that needs the state read lock — dispatching while holding the
    // write lock would self-deadlock. (Maintenance calls are externally
    // serialised, and queries never mutate the state, so the diff
    // cannot go stale between here and the write section below.)
    let (embedding_rows, patched_h) = {
        let state = core.read_state();
        let rows = changed_adjacency_rows(state.adjacency.view(), &adjacency_new);
        let patched = if rows.is_empty() {
            None
        } else {
            // Mapped cores decode the model here, on first repair —
            // the one maintenance path that needs the weights.
            let model = state.model.get()?;
            Some(compute_embeddings_rows(
                &model,
                state.features.view(),
                &adjacency_new,
                &rows,
            )?)
        };
        (rows, patched)
    };

    let full_refresh = full_operator.is_some();
    let (evicted, was_stale) = commit(core, lanes, |state| {
        // The splice is the one step that can fail, so it goes first.
        if let Some(operator) = full_operator {
            state.operator = Some(OperatorState::new(CsrStore::Owned(operator)));
        } else if let Some(patch) = &row_patch {
            let operator = state
                .operator
                .as_mut()
                .expect("a row patch implies an operator");
            let matrix = operator.matrix.make_owned()?;
            *matrix = matrix.replace_rows(&operator_rows, patch)?;
            // The cached transpose is stale now; rebuild lazily.
            operator.reverse = OnceLock::new();
        }
        if let Some(patched_h) = &patched_h {
            // Copy-on-write: a mapped embedding section is promoted to
            // an owned matrix before the first in-place patch.
            let embeddings = state.embeddings.make_owned();
            for (i, &row) in embedding_rows.iter().enumerate() {
                embeddings.row_mut(row).copy_from_slice(patched_h.row(i));
            }
        }
        state.adjacency = CsrStore::Owned(adjacency_new);
        if full_refresh {
            return Ok(Evict::All);
        }
        // Invalidation set: rows whose own operator row was patched,
        // plus rows whose `Ẑ` reads a re-encoded `H` row.
        let mut invalid: HashSet<usize> = operator_rows.iter().copied().collect();
        match state.operator.as_ref() {
            Some(operator) => {
                if !embedding_rows.is_empty() {
                    let reverse = operator.reverse();
                    for &node in &embedding_rows {
                        for (row, _) in reverse.row_iter(node) {
                            invalid.insert(row);
                        }
                    }
                }
            }
            // Without an operator a cached row is `H` itself.
            None => invalid.extend(embedding_rows.iter().copied()),
        }
        Ok(Evict::Rows(sorted(invalid)))
    })?;
    let invalidated_rows = match evicted {
        Evict::All => Vec::new(),
        Evict::Rows(rows) => rows,
    };

    let mut touched = Vec::with_capacity(lanes.len());
    for (lane, range) in lanes {
        lane.stats
            .embedding_rows_repaired
            .add(within(&embedding_rows, range).len() as u64);
        if !full_refresh {
            lane.stats
                .rows_repaired
                .add(within(&operator_rows, range).len() as u64);
        }
        touched.push(
            matches!(outcome, RepairOutcome::FullRefresh)
                || [
                    &operator_rows,
                    &embedding_rows,
                    &invalidated_rows,
                    &was_stale,
                ]
                .iter()
                .any(|rows| !within(rows, range).is_empty()),
        );
    }
    Ok(Round {
        repair: EngineRepair {
            operator_rows,
            embedding_rows,
            invalidated_rows,
            full_refresh,
        },
        touched,
        dirty_seeds,
    })
}

/// Rows on which two equal-shape CSR matrices differ (indices or values).
fn changed_adjacency_rows(old: CsrView<'_>, new: &CsrMatrix) -> Vec<usize> {
    debug_assert_eq!(old.shape(), new.shape());
    (0..old.rows())
        .filter(|&r| {
            let (ns, ne) = (new.indptr()[r], new.indptr()[r + 1]);
            old.row_cols(r) != &new.indices()[ns..ne] || old.row_vals(r) != &new.values()[ns..ne]
        })
        .collect()
}

/// Serves a batch of `(node, k)` similarity queries straight off the
/// operator rows, under one read of the serving state. Validates every
/// node before touching any row so a batch either answers fully or fails
/// without partial work, like `serve_batch`.
fn similar_batch(
    core: &Core,
    lane: &Lane,
    queries: &[(usize, usize)],
) -> Result<Vec<Vec<SimilarNode>>> {
    let n = core.num_nodes;
    for &(node, _) in queries {
        if node >= n {
            return Err(ServeError::InvalidQuery { node, num_nodes: n });
        }
    }
    let _span = sigma_obs::span!("similar_batch", queries.len());
    let state = core.read_state();
    let operator = state.operator.as_ref().ok_or(ServeError::NoOperator)?;
    let view = operator.matrix.view();
    let mut out = Vec::with_capacity(queries.len());
    for &(node, k) in queries {
        let mut row: Vec<SimilarNode> = view
            .row_cols(node)
            .iter()
            .zip(view.row_vals(node).iter())
            .filter(|&(&m, _)| m as usize != node)
            .map(|(&m, &score)| SimilarNode {
                node: m as usize,
                score,
            })
            .collect();
        // The pinned ordering: score descending, then node id ascending.
        // `total_cmp` keeps the sort deterministic even for NaN scores, and
        // the id tie-break is explicit rather than relying on CSR column
        // order surviving an unstable sort.
        row.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
        row.truncate(k);
        out.push(row);
    }
    lane.stats.similar_queries.add(queries.len() as u64);
    Ok(out)
}

/// Serves one batch: cache lookups, one row-sliced SpMM for the misses,
/// Eq. 6 blending, staleness tagging.
fn serve_batch(core: &Core, lane: &Lane, nodes: &[usize]) -> Result<Vec<Prediction>> {
    let n = core.num_nodes;
    let classes = core.num_classes;
    for &node in nodes {
        if node >= n {
            return Err(ServeError::InvalidQuery { node, num_nodes: n });
        }
    }
    let _span = sigma_obs::span!("serve_batch", nodes.len());

    // Plan and compute under ONE read of the serving state: the cache
    // probe, the row-sliced SpMM for every miss, and the `H` rows blended
    // below. Probing inside the guard matters — a repair patches `H` and
    // evicts stale `Ẑ` rows under the write lock, so a hit observed here is
    // always consistent with the `H` rows read here (the state → cache lock
    // order matches the repair path).
    let mut z_hat: Vec<Option<Vec<f32>>> = vec![None; nodes.len()];
    let mut cached = vec![false; nodes.len()];
    let mut misses: Vec<usize> = Vec::new();
    let mut miss_slots: Vec<usize> = Vec::new();
    let (computed, h_rows, computed_epoch, alpha): (DenseMatrix, DenseMatrix, u64, f32) = {
        let state = core.read_state();
        // Capture the generation while holding the state lock, pairing the
        // epoch with the matrices the rows are computed from.
        let epoch = core.epoch.load(Ordering::SeqCst);
        {
            let mut cache = lane.cache.lock().expect("cache lock poisoned");
            for (slot, &node) in nodes.iter().enumerate() {
                match cache.get(node) {
                    Some(row) => {
                        z_hat[slot] = Some(row.to_vec());
                        cached[slot] = true;
                    }
                    None => {
                        misses.push(node);
                        miss_slots.push(slot);
                    }
                }
            }
        }
        // Both the owned and the mapped embedding store serve through the
        // same borrowed view, so an engine on a mapping reads `H` rows
        // straight off the file pages here.
        let embeddings = state.embeddings.view();
        let computed = if misses.is_empty() {
            DenseMatrix::zeros(0, classes)
        } else {
            match state.operator.as_ref() {
                Some(operator) => operator.matrix.view().spmm_rows(&misses, embeddings)?,
                None => embeddings.select_rows(&misses)?,
            }
        };
        let h_rows = embeddings.select_rows(nodes)?;
        (computed, h_rows, epoch, state.alpha)
    };
    lane.stats
        .cache_hits
        .add((nodes.len() - misses.len()) as u64);
    lane.stats.cache_misses.add(misses.len() as u64);
    if !misses.is_empty() {
        let mut evicted = 0usize;
        let mut cache = lane.cache.lock().expect("cache lock poisoned");
        // If the serving state was mutated while we computed, the rows are
        // still a consistent answer for this query (it raced the update) but
        // must not poison the freshly cleared/repaired cache.
        let cache_rows = core.epoch.load(Ordering::SeqCst) == computed_epoch;
        for (i, &slot) in miss_slots.iter().enumerate() {
            let row = computed.row(i).to_vec();
            if cache_rows {
                evicted += cache.insert(misses[i], row.clone());
            }
            z_hat[slot] = Some(row);
        }
        drop(cache);
        lane.stats.cache_evictions.add(evicted as u64);
    }

    // Eq. 6: Z_u = (1−α)·Ẑ_u + α·H_u, exactly as the training-side forward.
    let stale = core.stale.lock().expect("stale lock poisoned");
    let mut out = Vec::with_capacity(nodes.len());
    for (slot, &node) in nodes.iter().enumerate() {
        let z_hat_row = z_hat[slot].take().expect("every slot resolved");
        let h_row = h_rows.row(slot);
        let mut logits = Vec::with_capacity(classes);
        for (z, &h) in z_hat_row.iter().zip(h_row.iter()) {
            logits.push((1.0 - alpha) * z + alpha * h);
        }
        let label = logits
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0;
        out.push(Prediction {
            node,
            logits,
            label,
            cached: cached[slot],
            stale: stale.contains(&node),
        });
    }
    drop(stale);
    lane.stats.nodes_served.add(nodes.len() as u64);
    lane.stats.batches_served.inc();
    Ok(out)
}
