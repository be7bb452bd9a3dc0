//! End-to-end serving tests: train → snapshot → restore → serve, asserting
//! that served logits match the in-memory full-graph forward pass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{
    AggregatorKind, ContextBuilder, Model, ModelHyperParams, SigmaModel, TrainConfig, Trainer,
};
use sigma_datasets::{generate, GeneratorConfig};
use sigma_matrix::DenseMatrix;
use sigma_serve::{
    EngineConfig, InferenceEngine, MappedSnapshot, ServeError, ServeSnapshot, SnapshotError,
};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, SimRankConfig};
use sigma_testutil::{at_pool_width, random_graph, serving_fixture, ServingFixture};
use std::sync::Arc;

const TOP_K: usize = 8;

struct Fixture {
    snapshot: ServeSnapshot,
    /// Full-graph eval-mode logits of the trained model.
    full_logits: DenseMatrix,
    labels: Vec<usize>,
}

fn trained_fixture(seed: u64) -> Fixture {
    let cfg = GeneratorConfig::new(90, 6.0, 3, 10)
        .with_homophily(0.2)
        .with_feature_snr(1.2, 0.9)
        .with_name("serve-round-trip");
    let data = generate(&cfg, seed).unwrap();
    let split = data.default_split(seed).unwrap();
    let labels = data.labels.clone();
    let features = data.features.clone();
    let adjacency = data.graph.to_adjacency();
    let ctx = ContextBuilder::new(data)
        .with_simrank_topk(TOP_K)
        .build()
        .unwrap();

    let hyper = ModelHyperParams::small();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
    Trainer::new(TrainConfig {
        epochs: 40,
        patience: 0,
        ..TrainConfig::default()
    })
    .train(&mut model as &mut dyn Model, &ctx, &split, seed)
    .unwrap();

    let mut eval_rng = StdRng::seed_from_u64(0);
    let full_logits = model.forward(&ctx, false, &mut eval_rng).unwrap();
    let snapshot = ServeSnapshot::new(
        "round-trip-fixture",
        model.snapshot(&ctx).unwrap(),
        features,
        adjacency,
    )
    .unwrap();
    Fixture {
        snapshot,
        full_logits,
        labels,
    }
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "{what}: component {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn served_logits_match_full_graph_forward_after_disk_round_trip() {
    let fixture = trained_fixture(11);
    let n = fixture.snapshot.num_nodes();

    // Disk round trip.
    let path = std::env::temp_dir().join("sigma-serve-round-trip.snapshot");
    fixture.snapshot.save(&path).unwrap();
    let loaded = ServeSnapshot::load(&path).unwrap();
    assert_eq!(loaded, fixture.snapshot);
    let _ = std::fs::remove_file(&path);

    // Restored model reproduces the training-side forward bitwise.
    let restored = SigmaModel::restore(&loaded.model).unwrap();
    assert_eq!(restored.num_parameters(), loaded.model.num_parameters());

    // The engine serves every node with logits within 1e-6 of the full
    // forward pass (they are computed by the same f32 operations, so this is
    // effectively bitwise).
    let engine = InferenceEngine::new(&loaded, EngineConfig::default()).unwrap();
    assert_eq!(engine.num_nodes(), n);
    let all: Vec<usize> = (0..n).collect();
    let served = engine.predict_batch(&all).unwrap();
    assert_eq!(served.len(), n);
    for prediction in &served {
        assert_close(
            &prediction.logits,
            fixture.full_logits.row(prediction.node),
            1e-6,
            "served vs full forward",
        );
        assert!(!prediction.stale);
    }

    // Serving agrees with training-side argmax labels everywhere.
    let full_labels = fixture.full_logits.argmax_rows();
    for prediction in &served {
        assert_eq!(prediction.label, full_labels[prediction.node]);
    }
    // Sanity: the model actually learned something about the training graph.
    let correct = served
        .iter()
        .filter(|p| p.label == fixture.labels[p.node])
        .count();
    assert!(
        correct as f64 / n as f64 > 1.0 / 3.0,
        "served accuracy at chance level: {correct}/{n}"
    );
}

#[test]
fn an_operatorless_engine_serves_the_restored_model_bitwise() {
    // "SIGMA w/o S" (LINKX) at α = 0.3: Z = H, so neither side may apply
    // the Eq. 6 mix, which is not bitwise H away from α = 0.5.
    let cfg = GeneratorConfig::new(90, 6.0, 3, 10).with_homophily(0.2);
    let data = generate(&cfg, 17).unwrap();
    let split = data.default_split(17).unwrap();
    let (features, adjacency) = (data.features.clone(), data.graph.to_adjacency());
    let ctx = ContextBuilder::new(data).build().unwrap();
    let hyper = ModelHyperParams::small().with_alpha(0.3);
    let mut rng = StdRng::seed_from_u64(17);
    let mut model =
        SigmaModel::with_aggregator(&ctx, &hyper, AggregatorKind::None, &mut rng).unwrap();
    Trainer::new(TrainConfig {
        epochs: 10,
        patience: 0,
        ..TrainConfig::default()
    })
    .train(&mut model as &mut dyn Model, &ctx, &split, 17)
    .unwrap();

    let snapshot =
        ServeSnapshot::new("linkx", model.snapshot(&ctx).unwrap(), features, adjacency).unwrap();
    let mut restored = SigmaModel::restore(&snapshot.model).unwrap();
    let expected = restored
        .forward(&ctx, false, &mut StdRng::seed_from_u64(0))
        .unwrap();
    let engine = InferenceEngine::new(&snapshot, EngineConfig::default()).unwrap();
    assert!(engine.operator().is_none());
    let n = snapshot.num_nodes();
    let expected_bits: Vec<Vec<u32>> = (0..n)
        .map(|u| expected.row(u).iter().map(|v| v.to_bits()).collect())
        .collect();
    assert_eq!(engine_logit_bits(&engine, n), expected_bits);
}

#[test]
fn single_and_batched_queries_agree_and_hit_the_cache() {
    let fixture = trained_fixture(13);
    let engine = InferenceEngine::new(
        &fixture.snapshot,
        EngineConfig {
            cache_capacity: 64,
            workers: 0,
            max_chunk: 16,
        },
    )
    .unwrap();

    let first = engine.predict(5).unwrap();
    assert!(!first.cached, "first query cannot be a cache hit");
    let second = engine.predict(5).unwrap();
    assert!(second.cached, "repeat query must hit the cache");
    assert_eq!(first.logits, second.logits);
    assert_eq!(first.label, second.label);

    let batch = engine.predict_batch(&[5, 6, 5, 7]).unwrap();
    assert_eq!(batch.len(), 4);
    assert_eq!(batch[0].logits, first.logits);
    assert_eq!(batch[2].logits, first.logits);
    assert!(batch[0].cached);

    let stats = engine.stats();
    assert!(stats.cache_hits >= 3);
    assert!(stats.cache_misses >= 3);
    assert_eq!(stats.nodes_served, 6);
}

#[test]
fn worker_pool_serves_large_batches_in_order() {
    // Explicit worker counts are validated against the shared pool, so the
    // pool must be at least as wide as the workers requested — for the whole
    // test, not just until a sibling test resets it.
    at_pool_width(4, || {
        let fixture = trained_fixture(17);
        let n = fixture.snapshot.num_nodes();
        let engine = InferenceEngine::new(
            &fixture.snapshot,
            EngineConfig {
                cache_capacity: 16,
                workers: 3,
                max_chunk: 7,
            },
        )
        .unwrap();
        // A batch far larger than max_chunk exercises the pooled path.
        let nodes: Vec<usize> = (0..n).chain(0..n).collect();
        let served = engine.predict_batch(&nodes).unwrap();
        assert_eq!(served.len(), 2 * n);
        for (slot, prediction) in served.iter().enumerate() {
            assert_eq!(prediction.node, nodes[slot], "order must be preserved");
            assert_close(
                &prediction.logits,
                fixture.full_logits.row(prediction.node),
                1e-6,
                "pooled serving vs full forward",
            );
        }
        assert!(
            engine.stats().batches_served >= 2,
            "chunks served independently"
        );
    });
}

#[test]
fn concurrent_callers_share_one_engine() {
    at_pool_width(4, || {
        let fixture = trained_fixture(19);
        let n = fixture.snapshot.num_nodes();
        let engine = std::sync::Arc::new(
            InferenceEngine::new(
                &fixture.snapshot,
                EngineConfig {
                    cache_capacity: 128,
                    workers: 2,
                    max_chunk: 8,
                },
            )
            .unwrap(),
        );
        let expected = std::sync::Arc::new(fixture.full_logits);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let engine = std::sync::Arc::clone(&engine);
                let expected = std::sync::Arc::clone(&expected);
                std::thread::spawn(move || {
                    for round in 0..5 {
                        let nodes: Vec<usize> = (0..n).map(|i| (i * (t + 1) + round) % n).collect();
                        let served = engine.predict_batch(&nodes).unwrap();
                        for p in served {
                            let row = expected.row(p.node);
                            for (a, b) in p.logits.iter().zip(row.iter()) {
                                assert!((a - b).abs() <= 1e-6);
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(engine.stats().nodes_served as usize, 4 * 5 * n);
    });
}

#[test]
fn zero_capacity_engine_configs_are_rejected() {
    // Standalone fixed-size pools make these assertions independent of the
    // global thread override (which other tests in this binary may change).
    let pool = sigma_parallel::ThreadPool::with_threads(2);
    // A zero max_chunk can serve no nodes per chunk.
    assert!(matches!(
        EngineConfig {
            cache_capacity: 4,
            workers: 1,
            max_chunk: 0,
        }
        .validate(&pool),
        Err(ServeError::WorkerConfig { .. })
    ));
    // More workers than the pool could ever run concurrently.
    let too_many = EngineConfig {
        cache_capacity: 4,
        workers: usize::MAX,
        max_chunk: 8,
    };
    assert!(matches!(
        too_many.validate(&pool),
        Err(ServeError::WorkerConfig { .. })
    ));
    // The default (auto workers) is valid against any pool size and clamps
    // to the pool's capacity.
    assert!(EngineConfig::default().validate(&pool).is_ok());
    assert_eq!(EngineConfig::default().effective_workers(&pool), 2);
    assert_eq!(too_many.effective_workers(&pool), 2);
    // The engine constructor applies the same validation up front, against
    // the global pool: usize::MAX workers exceed any pool (capped at
    // MAX_THREADS), so this errors under every thread configuration.
    let fixture = trained_fixture(29);
    let err = InferenceEngine::new(&fixture.snapshot, too_many).unwrap_err();
    assert!(err.to_string().contains("shared pool"));
}

#[test]
fn queries_out_of_range_are_rejected() {
    let fixture = trained_fixture(23);
    let n = fixture.snapshot.num_nodes();
    let engine = InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).unwrap();
    assert!(matches!(
        engine.predict(n),
        Err(ServeError::InvalidQuery { .. })
    ));
    assert!(matches!(
        engine.predict_batch(&[0, n + 5]),
        Err(ServeError::InvalidQuery { .. })
    ));
    // Pooled path also surfaces the error.
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.push(n + 1);
    assert!(engine.predict_batch(&nodes).is_err());
}

#[test]
fn edge_updates_invalidate_affected_rows_and_mark_them_stale() {
    let fixture = trained_fixture(29);
    let engine = InferenceEngine::new(
        &fixture.snapshot,
        EngineConfig {
            cache_capacity: 1024,
            workers: 0,
            max_chunk: 64,
        },
    )
    .unwrap();
    let n = fixture.snapshot.num_nodes();
    let all: Vec<usize> = (0..n).collect();
    let _ = engine.predict_batch(&all).unwrap();
    let cached_before = engine.cached_rows();
    assert_eq!(cached_before, n.min(1024));

    let invalidated = engine
        .apply_edge_updates(&[EdgeUpdate::Insert(0, 1)])
        .unwrap();
    assert!(
        invalidated > 0,
        "the affected region must evict cached rows"
    );
    assert!(engine.cached_rows() < cached_before);
    let stale = engine.stale_nodes();
    assert!(stale.contains(&0) && stale.contains(&1));

    // Predictions for stale nodes are flagged; untouched nodes are not.
    let p0 = engine.predict(0).unwrap();
    assert!(p0.stale);
    let fresh_node = (0..n)
        .find(|v| !stale.contains(v))
        .expect("some fresh node");
    assert!(!engine.predict(fresh_node).unwrap().stale);

    // Out-of-range updates are rejected.
    assert!(engine
        .apply_edge_updates(&[EdgeUpdate::Insert(0, n + 3)])
        .is_err());
    assert_eq!(engine.stats().rows_invalidated, invalidated as u64);
}

#[test]
fn dynamic_maintainer_repair_keeps_the_operator_in_step() {
    let fixture = trained_fixture(31);
    let n = fixture.snapshot.num_nodes();
    let engine = InferenceEngine::new(
        &fixture.snapshot,
        EngineConfig {
            cache_capacity: 256,
            workers: 0,
            max_chunk: 64,
        },
    )
    .unwrap();

    // A maintainer over the same graph.
    let graph = sigma::graph::Graph::from_edges(
        n,
        &fixture
            .snapshot
            .adjacency
            .indptr()
            .windows(2)
            .enumerate()
            .flat_map(|(u, w)| {
                fixture.snapshot.adjacency.indices()[w[0]..w[1]]
                    .iter()
                    .map(move |&v| (u, v as usize))
                    .filter(|&(u, v)| u < v)
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut maintainer =
        DynamicSimRank::new(graph, SimRankConfig::default().with_top_k(TOP_K), 2).unwrap();

    // First sync with a maintainer that has computed nothing yet: the
    // whole operator is installed.
    let first = engine.repair_from(&mut maintainer).unwrap();
    assert!(first.full_refresh);
    assert_eq!(engine.stats().operator_refreshes, 1);
    assert_eq!(engine.operator(), Some(maintainer.operator().unwrap()));

    // An edit marks its region stale until the next repair …
    let edit = EdgeUpdate::Insert(0, n / 2);
    maintainer.apply(edit).unwrap();
    engine.apply_edge_updates(&[edit]).unwrap();
    assert!(!engine.stale_nodes().is_empty());
    assert!(engine.predict(0).unwrap().stale);

    // … which patches rows in place, clears the staleness set and leaves
    // the engine serving the maintainer's operator.
    let repair = engine.repair_from(&mut maintainer).unwrap();
    assert!(!repair.full_refresh);
    assert!(repair.embedding_rows.contains(&0) && repair.embedding_rows.contains(&(n / 2)));
    assert!(engine.stale_nodes().is_empty());
    let stats = engine.stats();
    assert_eq!((stats.operator_refreshes, stats.operator_repairs), (1, 1));
    assert_eq!(engine.operator(), Some(maintainer.operator().unwrap()));
    let p = engine.predict(0).unwrap();
    assert_eq!(p.logits.len(), engine.num_classes());
    assert!(!p.stale);
}

#[test]
fn corrupted_files_are_rejected_with_typed_errors() {
    let fixture = trained_fixture(37);
    let mut buf = Vec::new();
    fixture.snapshot.write_to(&mut buf).unwrap();

    // Round trip from memory.
    let loaded = ServeSnapshot::read_from(&mut buf.as_slice()).unwrap();
    assert_eq!(loaded, fixture.snapshot);

    // Bad magic.
    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        ServeSnapshot::read_from(&mut bad_magic.as_slice()),
        Err(ServeError::Snapshot(SnapshotError::BadMagic))
    ));

    // Future version.
    let mut future = buf.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        ServeSnapshot::read_from(&mut future.as_slice()),
        Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion {
            found: 99
        }))
    ));

    // Truncation anywhere surfaces as a typed snapshot error, never a
    // panic.
    for cut in [7, buf.len() / 3, buf.len() / 2, buf.len() - 1] {
        let truncated = &buf[..cut];
        match ServeSnapshot::read_from(&mut &truncated[..]) {
            Err(ServeError::Snapshot(SnapshotError::Truncated { .. })) => {}
            other => panic!("truncated read at {cut} returned {other:?}"),
        }
    }

    // Missing file.
    assert!(matches!(
        ServeSnapshot::load("/nonexistent/sigma.snapshot"),
        Err(ServeError::Io(_))
    ));
}

fn engine_logit_bits(engine: &InferenceEngine, n: usize) -> Vec<Vec<u32>> {
    let all: Vec<usize> = (0..n).collect();
    engine
        .predict_batch(&all)
        .unwrap()
        .iter()
        .map(|p| p.logits.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any serving fixture — across graph shapes, operator presence and
    /// precomputed-embedding presence — `write_to` → `read_from` returns the
    /// in-memory snapshot field for field, and an engine serving the bytes
    /// zero-copy is bitwise identical to one built from the original.
    #[test]
    fn written_bytes_decode_and_serve_like_the_original(
        num_nodes in 8usize..40,
        extra_edges in 0usize..24,
        seed in 0u64..1000,
        top_k in 3usize..8,
        strip_operator in 0u32..2,
        with_embeddings in 0u32..2,
    ) {
        let (strip_operator, with_embeddings) = (strip_operator == 1, with_embeddings == 1);
        let graph = random_graph(num_nodes, extra_edges, seed);
        let ServingFixture { mut snapshot, .. } = serving_fixture(&graph, top_k, seed);
        if strip_operator {
            // An operator-less snapshot is only valid for the
            // aggregator-free model variant (Z = H).
            snapshot.model.operator = None;
            snapshot.model.aggregator = sigma::AggregatorKind::None;
        }
        if with_embeddings {
            snapshot.precompute_embeddings().unwrap();
        }

        let mut bytes = Vec::new();
        snapshot.write_to(&mut bytes).unwrap();
        let decoded = ServeSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        // Field for field: the derived PartialEq compares the tag, every
        // weight, the raw CSR arrays and the optional embeddings.
        prop_assert_eq!(&decoded, &snapshot);

        let mapped = Arc::new(MappedSnapshot::from_bytes(&bytes).unwrap());
        prop_assert_eq!(mapped.num_nodes(), num_nodes);
        prop_assert_eq!(mapped.has_operator(), !strip_operator);
        prop_assert_eq!(mapped.has_embeddings(), with_embeddings);
        let config = EngineConfig::default();
        let owned = InferenceEngine::new(&snapshot, config).unwrap();
        let zero_copy = InferenceEngine::from_mapped(mapped, config).unwrap();
        prop_assert_eq!(owned.alpha().to_bits(), zero_copy.alpha().to_bits());
        prop_assert_eq!(
            engine_logit_bits(&owned, num_nodes),
            engine_logit_bits(&zero_copy, num_nodes)
        );
    }
}
