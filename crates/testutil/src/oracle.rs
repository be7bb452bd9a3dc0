//! The incremental-repair differential oracle.
//!
//! [`replay_differential`] is the correctness instrument behind the
//! "bitwise-identical to a full refresh" contract: it replays an edit trace
//! batch by batch through two independent paths —
//!
//! 1. **incremental**: one long-lived engine + maintainer pair, brought up
//!    to date after every batch by [`sigma_serve::InferenceEngine::repair_from`];
//! 2. **reference**: a fresh coupled LocalPush run — the one
//!    training uses — and a freshly built engine on the edited graph —
//!
//! and asserts, after every batch, bitwise equality of the aggregation
//! operator and of every served logit, plus the observability contract:
//! the rows the repair reported are exactly the rows whose bits changed,
//! the eviction counters count exactly the reported set, and every cache
//! entry outside it survives (checked through the cache-hit counters of a
//! full warm query). [`replay_maintainer`] checks the maintainer alone the
//! same way, at any SimRank configuration. Any divergence panics with the
//! offending row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma::{ContextBuilder, ModelHyperParams, SigmaModel};
use sigma_datasets::Dataset;
use sigma_graph::Graph;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_serve::{
    EngineConfig, InferenceEngine, MappedSnapshot, Prediction, ServeSnapshot, ShardRouter,
    ShardRouterConfig, SimilarNode,
};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A ready-to-serve setup whose engine operator is in sync with its
/// maintainer — the precondition of [`InferenceEngine::repair_from`].
pub struct ServingFixture {
    /// SimRank configuration shared by maintainer and reference runs.
    pub config: SimRankConfig,
    /// Self-contained serving artifact (model + features + adjacency).
    pub snapshot: ServeSnapshot,
    /// Maintainer whose initial operator the snapshot embeds.
    pub maintainer: DynamicSimRank,
}

/// Builds a serving fixture over `graph`: an (untrained, deterministically
/// initialised) SIGMA model whose aggregation operator comes from a
/// [`DynamicSimRank`] maintainer over the same graph.
pub fn serving_fixture(graph: &Graph, top_k: usize, seed: u64) -> ServingFixture {
    let n = graph.num_nodes();
    let feature_dim = 6usize;
    let num_classes = 3usize;
    let mut feature_rng = StdRng::seed_from_u64(seed ^ 0xfea7);
    let features = DenseMatrix::from_fn(n, feature_dim, |_, _| feature_rng.gen_range(-1.0f32..1.0));
    let labels: Vec<usize> = (0..n).map(|i| i % num_classes).collect();

    let config = SimRankConfig::default().with_top_k(top_k);
    // A huge staleness budget: the oracle exercises the explicit repair
    // path, never the lazy-refresh fallback.
    let mut maintainer =
        DynamicSimRank::new(graph.clone(), config, usize::MAX / 2).expect("valid config");
    let operator = maintainer.operator().expect("initial operator");

    let dataset = Dataset {
        name: format!("differential-{seed}"),
        graph: graph.clone(),
        features: features.clone(),
        labels,
        num_classes,
    };
    let ctx = ContextBuilder::new(dataset)
        .with_simrank_operator(operator)
        .build()
        .expect("context over generated dataset");
    let mut model_rng = StdRng::seed_from_u64(seed);
    let model = SigmaModel::new(&ctx, &ModelHyperParams::small(), &mut model_rng)
        .expect("model construction");
    let snapshot = ServeSnapshot::new(
        format!("differential-{seed}"),
        model.snapshot(&ctx).expect("model snapshot"),
        features,
        graph.to_adjacency(),
    )
    .expect("serve snapshot");
    ServingFixture {
        config,
        snapshot,
        maintainer,
    }
}

/// Aggregate outcome of one differential replay (all assertions passed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Edit batches replayed.
    pub rounds: usize,
    /// Nodes served per round.
    pub num_nodes: usize,
    /// Operator rows patched in place across all rounds.
    pub operator_rows_patched: usize,
    /// Embedding (`H`) rows re-encoded across all rounds.
    pub embedding_rows_patched: usize,
    /// Cache rows evicted by targeted invalidation across all rounds.
    pub cache_rows_invalidated: usize,
    /// Residual absorptions the from-scratch reference runs performed (the
    /// cost incremental repair avoids re-paying).
    pub full_recompute_pushes: usize,
}

fn csr_bits(matrix: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    (
        matrix.indptr().to_vec(),
        matrix.indices().to_vec(),
        matrix.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// `(column, value bits)` of every stored entry of row `r`.
fn row_bits(matrix: &CsrMatrix, r: usize) -> Vec<(usize, u32)> {
    matrix.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect()
}

/// The rows on which two equal-shape operators differ, bit for bit.
fn differing_rows(before: &CsrMatrix, after: &CsrMatrix) -> Vec<usize> {
    (0..after.rows())
        .filter(|&r| row_bits(before, r) != row_bits(after, r))
        .collect()
}

fn assert_csr_bitwise_eq(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for r in 0..a.rows() {
        assert_eq!(row_bits(a, r), row_bits(b, r), "{what}: row {r} differs");
    }
    assert_eq!(csr_bits(a), csr_bits(b), "{what}: raw CSR layout differs");
}

/// Replays `batches` through incremental repair and from-scratch reference
/// recomputation, asserting bitwise equality and repair locality after
/// every batch. See the module docs for the exact contract. Panics on any
/// divergence.
pub fn replay_differential(
    graph: &Graph,
    batches: &[Vec<EdgeUpdate>],
    top_k: usize,
    seed: u64,
) -> DifferentialReport {
    let n = graph.num_nodes();
    let ServingFixture {
        config,
        snapshot,
        mut maintainer,
    } = serving_fixture(graph, top_k, seed);
    let engine_config = EngineConfig {
        // Room for every row: the hit-counter locality assertions below
        // need evictions to be attributable to invalidation alone.
        cache_capacity: n,
        workers: 0,
        max_chunk: 256,
    };
    let engine = InferenceEngine::new(&snapshot, engine_config).expect("incremental engine");
    let all_nodes: Vec<usize> = (0..n).collect();
    // Warm the cache so each round starts with every row resident.
    let _ = engine.predict_batch(&all_nodes).expect("warm-up query");

    let mut report = DifferentialReport {
        rounds: 0,
        num_nodes: n,
        operator_rows_patched: 0,
        embedding_rows_patched: 0,
        cache_rows_invalidated: 0,
        full_recompute_pushes: 0,
    };

    for (round, batch) in batches.iter().enumerate() {
        maintainer.apply_batch(batch).expect("in-bounds edits");
        let operator_before = engine.operator().expect("fixture engines always carry S");

        let stats_before = engine.stats();
        let repair = engine
            .repair_from(&mut maintainer)
            .expect("incremental repair");
        let stats_after = engine.stats();
        assert!(
            !repair.full_refresh,
            "round {round}: repair degenerated to a full refresh"
        );
        assert_eq!(
            stats_after.operator_repairs,
            stats_before.operator_repairs + 1,
            "round {round}: repair not counted"
        );
        assert_eq!(
            stats_after.rows_repaired - stats_before.rows_repaired,
            repair.operator_rows.len() as u64,
            "round {round}: rows_repaired must count exactly the patched set"
        );
        assert_eq!(
            stats_after.embedding_rows_repaired - stats_before.embedding_rows_repaired,
            repair.embedding_rows.len() as u64,
            "round {round}: embedding_rows_repaired must count exactly the re-encoded set"
        );
        // The cache held every row, so eviction must count exactly the
        // reported invalidation set — no more (locality), no less
        // (coverage).
        assert_eq!(
            stats_after.rows_invalidated - stats_before.rows_invalidated,
            repair.invalidated_rows.len() as u64,
            "round {round}: rows_invalidated must count exactly the affected set"
        );

        // Reference path: from-scratch recomputation on the edited graph.
        let edited = maintainer.graph().clone();
        let mut solver = LocalPush::new(&edited, config).expect("reference solver");
        let reference_operator = solver.run_to_operator();
        report.full_recompute_pushes += solver.pushes_performed();
        let served_operator = engine.operator().expect("fixture engines always carry S");
        assert_csr_bitwise_eq(
            &served_operator,
            &reference_operator,
            &format!("round {round}: repaired operator vs from-scratch operator"),
        );

        // The patch set is exactly the rows whose bits changed.
        assert_eq!(
            repair.operator_rows,
            differing_rows(&operator_before, &served_operator),
            "round {round}: patched rows must be exactly the rows that changed"
        );

        // Reference engine: rebuilt from scratch on the edited graph with
        // the reference operator.
        let mut reference_model = snapshot.model.clone();
        reference_model.operator = Some(reference_operator);
        let reference_snapshot = ServeSnapshot::new(
            format!("differential-ref-{seed}-{round}"),
            reference_model,
            snapshot.features.clone(),
            edited.to_adjacency(),
        )
        .expect("reference snapshot");
        let reference_engine =
            InferenceEngine::new(&reference_snapshot, engine_config).expect("reference engine");

        // Served outputs must agree bitwise on every node; this query also
        // re-warms the incremental engine's cache for the next round.
        let hits_before = engine.stats();
        let served = engine.predict_batch(&all_nodes).expect("incremental query");
        let hits_after = engine.stats();
        let reference_served = reference_engine
            .predict_batch(&all_nodes)
            .expect("reference query");
        for (inc, fresh) in served.iter().zip(reference_served.iter()) {
            assert_eq!(inc.node, fresh.node);
            let inc_bits: Vec<u32> = inc.logits.iter().map(|v| v.to_bits()).collect();
            let fresh_bits: Vec<u32> = fresh.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                inc_bits, fresh_bits,
                "round {round}: served logits diverge at node {}",
                inc.node
            );
            assert_eq!(inc.label, fresh.label);
            assert!(
                !inc.stale,
                "round {round}: node {} still stale after repair",
                inc.node
            );
        }
        // Cache-hit observability: exactly the invalidated rows missed; all
        // other rows survived the repair in cache.
        assert_eq!(
            (hits_after.cache_misses - hits_before.cache_misses) as usize,
            repair.invalidated_rows.len(),
            "round {round}: cache misses must equal the invalidated set"
        );
        assert_eq!(
            (hits_after.cache_hits - hits_before.cache_hits) as usize,
            n - repair.invalidated_rows.len(),
            "round {round}: rows outside the invalidated set must survive in cache"
        );

        report.rounds += 1;
        report.operator_rows_patched += repair.operator_rows.len();
        report.embedding_rows_patched += repair.embedding_rows.len();
        report.cache_rows_invalidated += repair.invalidated_rows.len();
    }
    report
}

/// Aggregate outcome of one [`replay_maintainer`] run (all assertions
/// passed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainerReport {
    /// Edit batches replayed.
    pub rounds: usize,
    /// Rows the repairs re-pulled across all rounds.
    pub rows_replayed: usize,
    /// Operator rows whose bits the repairs changed across all rounds.
    pub rows_changed: usize,
    /// Pairs the fresh reference runs pushed across all rounds.
    pub full_recompute_pushes: usize,
}

/// Replays `batches` through one long-lived [`DynamicSimRank`] and asserts,
/// after every batch, that [`DynamicSimRank::repair`] patched rather than
/// refreshed, that the repaired operator is bitwise
/// [`LocalPush::run_to_operator`] on the edited graph — the operator
/// training builds — and that the reported `changed_rows` are exactly the
/// rows whose bits differ from the operator before the batch. The initial
/// operator is held to the same reference. Panics on any divergence.
pub fn replay_maintainer(
    graph: &Graph,
    config: SimRankConfig,
    batches: &[Vec<EdgeUpdate>],
) -> MaintainerReport {
    let coupled = |graph: &Graph| {
        let mut solver = LocalPush::new(graph, config).expect("valid config");
        (solver.run_to_operator(), solver.pushes_performed())
    };
    let mut maintainer =
        DynamicSimRank::new(graph.clone(), config, usize::MAX).expect("valid config");
    let mut before = maintainer.operator().expect("initial operator");
    assert_csr_bitwise_eq(
        &before,
        &coupled(graph).0,
        "initial operator vs the coupled run",
    );
    let mut report = MaintainerReport {
        rounds: 0,
        rows_replayed: 0,
        rows_changed: 0,
        full_recompute_pushes: 0,
    };
    for (round, batch) in batches.iter().enumerate() {
        maintainer.apply_batch(batch).expect("in-bounds edits");
        let edited = maintainer.edited_nodes();
        let outcome = maintainer.repair().expect("repair");
        let RepairOutcome::Patched(repair) = outcome else {
            panic!("round {round}: repair fell back to a full refresh");
        };
        assert_eq!(repair.edited_nodes, edited, "round {round}: edited nodes");
        let after = maintainer.operator().expect("repaired operator");
        let (reference, pushes) = coupled(maintainer.graph());
        assert_csr_bitwise_eq(
            &after,
            &reference,
            &format!("round {round}: repaired operator vs the coupled run"),
        );
        assert_eq!(
            repair.changed_rows,
            differing_rows(&before, &after),
            "round {round}: changed_rows must be exactly the rows that differ"
        );
        assert!(
            repair.dirty_seeds >= repair.changed_rows.len() && repair.pushes >= repair.dirty_seeds,
            "round {round}: {} rows replayed, {} pushes, {} rows changed",
            repair.dirty_seeds,
            repair.pushes,
            repair.changed_rows.len()
        );
        report.rounds += 1;
        report.rows_replayed += repair.dirty_seeds;
        report.rows_changed += repair.changed_rows.len();
        report.full_recompute_pushes += pushes;
        before = after;
    }
    report
}

/// Aggregate outcome of one sharded differential replay (all assertions
/// passed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDifferentialReport {
    /// Edit batches replayed.
    pub rounds: usize,
    /// Nodes served per round.
    pub num_nodes: usize,
    /// Shards the router ran.
    pub shards: usize,
    /// Operator rows the maintainer reported changed across all rounds.
    pub operator_rows_patched: usize,
    /// Shards that received repair traffic across all rounds.
    pub repair_fanout: u64,
    /// Shards skipped by footprint-sparse fan-out across all rounds.
    pub repair_skipped: u64,
}

/// Distinguishes concurrently running replays' temp snapshot files.
static MAPPED_REPLAY_ID: AtomicU64 = AtomicU64::new(0);

fn assert_predictions_bitwise_eq(routed: &[Prediction], reference: &[Prediction], what: &str) {
    assert_eq!(routed.len(), reference.len(), "{what}: prediction count");
    for (r, f) in routed.iter().zip(reference.iter()) {
        assert_eq!(r.node, f.node, "{what}: request order");
        let r_bits: Vec<u32> = r.logits.iter().map(|v| v.to_bits()).collect();
        let f_bits: Vec<u32> = f.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(r_bits, f_bits, "{what}: logits diverge at node {}", r.node);
        assert_eq!(
            r.label, f.label,
            "{what}: label diverges at node {}",
            r.node
        );
        assert_eq!(
            r.cached, f.cached,
            "{what}: cache attribution diverges at node {}",
            r.node
        );
        assert_eq!(
            r.stale, f.stale,
            "{what}: staleness diverges at node {}",
            r.node
        );
    }
}

/// Panics unless two `most_similar` answer sets agree **bitwise**: the
/// same node ids in the same rank order, and the same score bit patterns —
/// the determinism contract behind `/v1/similar` at any shard count.
pub fn assert_similar_bitwise_eq(
    actual: &[Vec<SimilarNode>],
    expected: &[Vec<SimilarNode>],
    what: &str,
) {
    assert_eq!(actual.len(), expected.len(), "{what}: answer count");
    for (query, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.len(), e.len(), "{what}: query {query} answer length");
        for (rank, (x, y)) in a.iter().zip(e).enumerate() {
            assert_eq!(
                x.node, y.node,
                "{what}: query {query} rank {rank} node id diverges"
            );
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{what}: query {query} rank {rank} (node {}) score bits diverge",
                x.node
            );
        }
    }
}

/// The similarity query mix the sharded oracle interleaves with its edit
/// trace: every node once, with `k` cycling through `1..=top_k + 2` so the
/// sweep covers under-full truncation, exact-`k`, and `k` past the row's
/// population (top-k rows hold at most `top_k` entries).
fn similar_query_mix(n: usize, top_k: usize) -> Vec<(usize, usize)> {
    (0..n).map(|v| (v, (v % (top_k + 2)) + 1)).collect()
}

/// The shard-generic differential oracle: replays `batches` against a
/// 1-engine reference and an N-shard [`ShardRouter`] simultaneously, both
/// driven by identically seeded maintainers, asserting after every batch:
///
/// * the router's reassembled operator is **bitwise equal** to the
///   reference engine's,
/// * the router's reported changed-row set equals the reference repair's,
/// * every served prediction (logits, label, cache attribution, staleness)
///   is bitwise equal in canonical request order,
/// * interleaved `most_similar` queries — before the repair (served off
///   the stale operator) and after it — are bitwise equal (ids **and**
///   score bits) between the router and the reference, never touch the
///   `Ẑ` cache, and move the `similar_queries` / `similar_routed`
///   counters by exactly the query count,
/// * fan-out accounting is exact (`fanout + skipped == shards`) and
///   **footprint-sparse**: a skipped shard's range provably misses the
///   reference repair's invalidated, patched and re-encoded row sets,
/// * per-shard eviction/hit accounting is exact: each repaired shard's
///   invalidated set equals the reference invalidated set restricted to
///   its range, a full warm query then misses exactly those rows and hits
///   the rest of the range, and capacity evictions stay zero (each shard
///   cache is sized to its range).
///
/// With `mapped`, the shard engines serve out of one shared
/// `Arc<MappedSnapshot>` (the zero-copy path) instead of decoded
/// snapshots. Panics on any divergence.
pub fn replay_differential_sharded(
    graph: &Graph,
    batches: &[Vec<EdgeUpdate>],
    top_k: usize,
    seed: u64,
    shards: usize,
    mapped: bool,
) -> ShardedDifferentialReport {
    let n = graph.num_nodes();
    // Two identically seeded fixtures: one maintainer per consumer
    // (`DynamicSimRank::repair` consumes pending edits, so reference and
    // router each need their own).
    let ServingFixture {
        snapshot: mut base_snapshot,
        maintainer: mut reference_maintainer,
        ..
    } = serving_fixture(graph, top_k, seed);
    let mut router_maintainer = serving_fixture(graph, top_k, seed).maintainer;
    // Precompute `H` once so the reference engine and every shard adopt
    // identical embedding bits from the same snapshot.
    base_snapshot
        .precompute_embeddings()
        .expect("encoder over the fixture graph");

    let engine_config = EngineConfig {
        // Room for every row: the per-shard hit accounting below needs
        // evictions to be attributable to invalidation alone.
        cache_capacity: n,
        workers: 0,
        max_chunk: 256,
    };
    let reference = InferenceEngine::new(&base_snapshot, engine_config).expect("reference engine");
    let router = if mapped {
        let unique = MAPPED_REPLAY_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "sigma-shard-oracle-{}-{unique}.snapshot",
            std::process::id()
        ));
        base_snapshot.save(&path).expect("write snapshot");
        let snap = Arc::new(MappedSnapshot::open(&path).expect("map snapshot"));
        std::fs::remove_file(&path).expect("unlink mapped snapshot");
        ShardRouter::from_mapped(vec![snap; shards], engine_config).expect("mapped shard router")
    } else {
        ShardRouter::new(
            &base_snapshot,
            &ShardRouterConfig {
                shards,
                engine: engine_config,
            },
        )
        .expect("shard router")
    };
    assert_eq!(router.num_shards(), shards);
    assert_eq!(router.num_nodes(), n);

    let all_nodes: Vec<usize> = (0..n).collect();
    // Warm both sides so each round starts with every row resident, and
    // prove the cold-start state already agrees bitwise.
    let reference_warm = reference.predict_batch(&all_nodes).expect("warm reference");
    let routed_warm = router.predict_batch(&all_nodes).expect("warm router");
    assert_predictions_bitwise_eq(&routed_warm, &reference_warm, "warm-up");
    assert_csr_bitwise_eq(
        &router.operator().expect("fixture routers always carry S"),
        &reference
            .operator()
            .expect("fixture engines always carry S"),
        "warm-up: reassembled operator vs reference operator",
    );

    // Cold-state similarity parity, batch path and single-query path: the
    // single-query spot checks prove `most_similar` and
    // `most_similar_batch` rank through the same code.
    let queries = similar_query_mix(n, top_k);
    let reference_similar = reference
        .most_similar_batch(&queries)
        .expect("warm reference similarity");
    let routed_similar = router
        .most_similar_batch(&queries)
        .expect("warm routed similarity");
    assert_similar_bitwise_eq(&routed_similar, &reference_similar, "warm-up similarity");
    for &(node, k) in queries.iter().step_by(7) {
        let single_routed = router.most_similar(node, k).expect("routed single query");
        let single_reference = reference
            .most_similar(node, k)
            .expect("reference single query");
        assert_similar_bitwise_eq(
            std::slice::from_ref(&single_routed),
            std::slice::from_ref(&single_reference),
            &format!("warm-up single similarity for node {node}"),
        );
    }

    let mut report = ShardedDifferentialReport {
        rounds: 0,
        num_nodes: n,
        shards,
        operator_rows_patched: 0,
        repair_fanout: 0,
        repair_skipped: 0,
    };

    for (round, batch) in batches.iter().enumerate() {
        reference_maintainer
            .apply_batch(batch)
            .expect("in-bounds edits");
        router_maintainer
            .apply_batch(batch)
            .expect("in-bounds edits");

        // Interleaved similarity, pre-repair: both sides still serve the
        // previous round's operator (edits are pending in the maintainers,
        // not applied to the engines), so answers may be stale — but they
        // must be *identically* stale, bit for bit.
        let reference_pre = reference
            .most_similar_batch(&queries)
            .expect("pre-repair reference similarity");
        let routed_pre = router
            .most_similar_batch(&queries)
            .expect("pre-repair routed similarity");
        assert_similar_bitwise_eq(
            &routed_pre,
            &reference_pre,
            &format!("round {round}: pre-repair similarity"),
        );

        let router_stats_before = router.stats();
        let reference_stats_before = reference.stats();
        let reference_repair = reference
            .repair_from(&mut reference_maintainer)
            .expect("reference repair");
        let router_repair = router
            .repair_from(&mut router_maintainer)
            .expect("router repair");
        assert!(
            !reference_repair.full_refresh && !router_repair.full_refresh,
            "round {round}: repair degenerated to a full refresh"
        );
        assert_eq!(
            router_repair.operator_rows, reference_repair.operator_rows,
            "round {round}: the router's changed-row set must match the reference repair"
        );
        assert_eq!(
            router_repair.fanout + router_repair.skipped,
            shards,
            "round {round}: every shard is either repaired or skipped"
        );
        assert_eq!(router_repair.shard_repairs.len(), shards);
        let router_stats_mid = router.stats();
        assert_eq!(
            router_stats_mid.repair_fanout - router_stats_before.repair_fanout,
            router_repair.fanout as u64,
            "round {round}: sigma_shard repair fan-out counter"
        );
        assert_eq!(
            router_stats_mid.repair_skipped - router_stats_before.repair_skipped,
            router_repair.skipped as u64,
            "round {round}: sigma_shard repair skipped counter"
        );

        // Counter parity: the round is computed once and each row counted
        // on the shard owning it, so the fleet's repair row counters move by
        // exactly what the single engine's do.
        let reference_stats_mid = reference.stats();
        for (counter, fleet, single) in [
            (
                "rows_repaired",
                router_stats_mid.engines.rows_repaired - router_stats_before.engines.rows_repaired,
                reference_stats_mid.rows_repaired - reference_stats_before.rows_repaired,
            ),
            (
                "embedding_rows_repaired",
                router_stats_mid.engines.embedding_rows_repaired
                    - router_stats_before.engines.embedding_rows_repaired,
                reference_stats_mid.embedding_rows_repaired
                    - reference_stats_before.embedding_rows_repaired,
            ),
            (
                "rows_invalidated",
                router_stats_mid.engines.rows_invalidated
                    - router_stats_before.engines.rows_invalidated,
                reference_stats_mid.rows_invalidated - reference_stats_before.rows_invalidated,
            ),
        ] {
            assert_eq!(
                fleet, single,
                "round {round}: fleet `{counter}` must move as the single engine's does"
            );
        }
        assert_eq!(
            router_repair
                .shard_repairs
                .iter()
                .flatten()
                .map(|repair| repair.embedding_rows.len())
                .sum::<usize>(),
            reference_repair.embedding_rows.len(),
            "round {round}: every re-encoded row is reported by exactly one shard"
        );

        // Operator parity: the reassembled fleet operator is bitwise the
        // reference engine's.
        assert_csr_bitwise_eq(
            &router.operator().expect("fixture routers always carry S"),
            &reference
                .operator()
                .expect("fixture engines always carry S"),
            &format!("round {round}: reassembled operator vs reference operator"),
        );

        // Fan-out soundness, per shard: a skipped shard's range provably
        // misses every row the reference repair touched; a repaired
        // shard's report is exactly the reference report restricted to
        // its range.
        for (shard, shard_repair) in router_repair.shard_repairs.iter().enumerate() {
            let range = &router.plan().ranges()[shard];
            let in_range =
                |rows: &[usize]| rows.iter().copied().filter(|r| range.contains(r)).count();
            match shard_repair {
                None => {
                    assert_eq!(
                        in_range(&reference_repair.invalidated_rows),
                        0,
                        "round {round}: shard {shard} skipped but its range intersects \
                         the reference invalidated set"
                    );
                    assert_eq!(
                        in_range(&reference_repair.operator_rows),
                        0,
                        "round {round}: shard {shard} skipped but its range intersects \
                         the patched row set"
                    );
                    assert_eq!(
                        in_range(&reference_repair.embedding_rows),
                        0,
                        "round {round}: shard {shard} skipped but its range intersects \
                         the re-encoded row set"
                    );
                }
                Some(repair) => {
                    let expected_rows: Vec<usize> = reference_repair
                        .operator_rows
                        .iter()
                        .copied()
                        .filter(|r| range.contains(r))
                        .collect();
                    assert_eq!(
                        repair.operator_rows, expected_rows,
                        "round {round}: shard {shard} patched rows must be the reference \
                         set restricted to {range:?}"
                    );
                    let expected_invalid: Vec<usize> = reference_repair
                        .invalidated_rows
                        .iter()
                        .copied()
                        .filter(|r| range.contains(r))
                        .collect();
                    assert_eq!(
                        repair.invalidated_rows, expected_invalid,
                        "round {round}: shard {shard} invalidated rows must be the \
                         reference set restricted to {range:?}"
                    );
                }
            }
        }

        // Served parity on a full canonical-order query — which also
        // re-warms both sides for the next round — with exact per-shard
        // hit/miss/eviction accounting.
        let reference_before = reference.stats();
        let shard_before = router.stats().per_shard;
        let reference_served = reference
            .predict_batch(&all_nodes)
            .expect("reference query");
        let routed = router.predict_batch(&all_nodes).expect("routed query");
        let reference_after = reference.stats();
        let shard_after = router.stats().per_shard;
        assert_predictions_bitwise_eq(&routed, &reference_served, &format!("round {round}"));
        assert_eq!(
            (reference_after.cache_misses - reference_before.cache_misses) as usize,
            reference_repair.invalidated_rows.len(),
            "round {round}: reference misses must equal the invalidated set"
        );
        for shard in 0..shards {
            let range = &router.plan().ranges()[shard];
            let range_len = range.end - range.start;
            let invalidated_here = reference_repair
                .invalidated_rows
                .iter()
                .filter(|r| range.contains(r))
                .count();
            let misses =
                (shard_after[shard].cache_misses - shard_before[shard].cache_misses) as usize;
            let hits = (shard_after[shard].cache_hits - shard_before[shard].cache_hits) as usize;
            assert_eq!(
                misses, invalidated_here,
                "round {round}: shard {shard} must miss exactly its invalidated rows"
            );
            assert_eq!(
                hits,
                range_len - invalidated_here,
                "round {round}: shard {shard} rows outside the invalidated set must \
                 survive in cache"
            );
            assert_eq!(
                shard_after[shard].cache_evictions, shard_before[shard].cache_evictions,
                "round {round}: shard {shard} saw capacity evictions with a full-size cache"
            );
        }

        // Interleaved similarity, post-repair: answers rank the freshly
        // patched operator rows and must again agree bitwise. Measured
        // tightly so the counter deltas are attributable: similarity moves
        // `similar_queries`/`similar_routed` by exactly the query count and
        // leaves the `Ẑ` row cache untouched (hits *and* misses) — the
        // cache-profile contrast with predict traffic that the serving
        // bench records.
        let sim_stats_before = router.stats();
        let reference_post = reference
            .most_similar_batch(&queries)
            .expect("post-repair reference similarity");
        let routed_post = router
            .most_similar_batch(&queries)
            .expect("post-repair routed similarity");
        let sim_stats_after = router.stats();
        assert_similar_bitwise_eq(
            &routed_post,
            &reference_post,
            &format!("round {round}: post-repair similarity"),
        );
        assert_eq!(
            sim_stats_after.engines.similar_queries - sim_stats_before.engines.similar_queries,
            n as u64,
            "round {round}: every similarity query is counted once across the fleet"
        );
        assert_eq!(
            sim_stats_after.similar_routed - sim_stats_before.similar_routed,
            1,
            "round {round}: one routed similarity batch"
        );
        assert!(
            sim_stats_after.similar_subbatches_dispatched
                > sim_stats_before.similar_subbatches_dispatched,
            "round {round}: a non-empty similarity batch dispatches at least one sub-batch"
        );
        assert_eq!(
            sim_stats_after.engines.cache_hits, sim_stats_before.engines.cache_hits,
            "round {round}: similarity traffic must not hit the Ẑ cache"
        );
        assert_eq!(
            sim_stats_after.engines.cache_misses, sim_stats_before.engines.cache_misses,
            "round {round}: similarity traffic must not miss (= populate) the Ẑ cache"
        );

        report.rounds += 1;
        report.operator_rows_patched += router_repair.operator_rows.len();
        report.repair_fanout += router_repair.fanout as u64;
        report.repair_skipped += router_repair.skipped as u64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_graph, random_trace, TraceShape};

    #[test]
    fn oracle_passes_on_a_small_trace() {
        let graph = random_graph(24, 12, 5);
        let trace = random_trace(&graph, TraceShape::default(), 5);
        let report = replay_differential(&graph, &trace, 6, 5);
        assert_eq!(report.rounds, trace.len());
        assert!(report.operator_rows_patched > 0);
        assert!(report.full_recompute_pushes > 0);
    }

    #[test]
    fn sharded_oracle_passes_on_a_small_trace() {
        let graph = random_graph(24, 12, 5);
        let trace = random_trace(&graph, TraceShape::default(), 5);
        let report = replay_differential_sharded(&graph, &trace, 6, 5, 3, false);
        assert_eq!(report.rounds, trace.len());
        assert_eq!(report.shards, 3);
        assert!(report.repair_fanout > 0);
    }

    #[test]
    fn sharded_oracle_handles_the_empty_trace_with_zero_fanout() {
        let graph = random_graph(12, 4, 9);
        let report = replay_differential_sharded(&graph, &[Vec::new()], 4, 9, 4, false);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.operator_rows_patched, 0);
        assert_eq!(report.repair_fanout, 0);
        assert_eq!(report.repair_skipped, 4);
    }

    #[test]
    fn maintainer_oracle_passes_on_a_small_trace() {
        let graph = random_graph(24, 12, 5);
        let trace = random_trace(&graph, TraceShape::default(), 5);
        let config = SimRankConfig::new(0.6, 0.02, Some(6)).unwrap();
        let report = replay_maintainer(&graph, config, &trace);
        assert_eq!(report.rounds, trace.len());
        assert!(report.rows_changed > 0);
        assert!(report.rows_replayed >= report.rows_changed);
    }

    #[test]
    fn oracle_handles_the_empty_trace() {
        let graph = random_graph(12, 4, 9);
        let report = replay_differential(&graph, &[Vec::new()], 4, 9);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.operator_rows_patched, 0);
        assert_eq!(report.embedding_rows_patched, 0);
        assert_eq!(report.cache_rows_invalidated, 0);
    }
}
