//! Hot-reload drain race: concurrent queriers across `hot_reload_mapped`
//! must observe only *pre*- or *post*-reload logits, never a torn mix.
//!
//! The contract (PR 7) is that a reload swaps the serving state under one
//! write lock while each query/batch holds one read lock, with the
//! operator-epoch guard keeping stale rows out of the cache. This test
//! races real threads against real mapped reloads and asserts the
//! observable half of that contract, at 1 and at 4 querier threads — on an
//! engine and on a 3-shard router, which is the same state behind three
//! caches and is driven through the same two closures.

use sigma_serve::{
    EngineConfig, InferenceEngine, MappedSnapshot, Prediction, Result, ServeSnapshot, ShardRouter,
    ShardRouterConfig,
};
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Swaps per race; odd, so serving settles on snapshot B.
const RELOADS: usize = 101;

/// Bit patterns of every node's logits under one snapshot.
fn logit_table(engine: &InferenceEngine) -> Vec<Vec<u32>> {
    (0..engine.num_nodes())
        .map(|node| {
            engine
                .predict(node)
                .expect("reference predict")
                .logits
                .iter()
                .map(|l| l.to_bits())
                .collect()
        })
        .collect()
}

/// The server under test, seen through the two calls the race drives.
struct Served<S> {
    server: S,
    predict_batch: fn(&S, &[usize]) -> Result<Vec<Prediction>>,
    reload: fn(&S, Arc<MappedSnapshot>) -> Result<()>,
    /// Whether one batch is served under one state read (an engine within
    /// `max_chunk`; a router reads once per owning shard).
    whole_batches: bool,
}

fn engine_over(snapshot: &ServeSnapshot) -> Served<InferenceEngine> {
    Served {
        server: InferenceEngine::new(snapshot, EngineConfig::default()).expect("engine"),
        predict_batch: InferenceEngine::predict_batch,
        reload: InferenceEngine::hot_reload_mapped,
        whole_batches: true,
    }
}

fn router_over(snapshot: &ServeSnapshot) -> Served<ShardRouter> {
    let config = ShardRouterConfig {
        shards: 3,
        engine: EngineConfig::default(),
    };
    Served {
        server: ShardRouter::new(snapshot, &config).expect("router"),
        predict_batch: ShardRouter::predict_batch,
        reload: ShardRouter::hot_reload_mapped,
        whole_batches: false,
    }
}

fn run_reload_race<S: Send + Sync + 'static>(
    serve: fn(&ServeSnapshot) -> Served<S>,
    queriers: usize,
    seed: u64,
) {
    let graph = random_graph(36, 54, seed);
    let fixture_a = serving_fixture(&graph, 4, seed);
    let fixture_b = serving_fixture(&graph, 4, seed + 1);

    // Both snapshots as mappings: the race swaps back and forth between
    // them, ending on B.
    let map = |snapshot: &ServeSnapshot| {
        let mut image = Vec::new();
        snapshot.write_to(&mut image).expect("encode snapshot");
        Arc::new(MappedSnapshot::from_bytes(&image).expect("map snapshot"))
    };
    let (mapped_a, mapped_b) = (map(&fixture_a.snapshot), map(&fixture_b.snapshot));

    let served = Arc::new(serve(&fixture_a.snapshot));
    let table_a = Arc::new(logit_table(
        &InferenceEngine::new(&fixture_a.snapshot, EngineConfig::default()).expect("ref A"),
    ));
    let table_b = Arc::new(logit_table(
        &InferenceEngine::new(&fixture_b.snapshot, EngineConfig::default()).expect("ref B"),
    ));
    // The race only proves something if the two snapshots actually differ.
    assert_ne!(table_a[0], table_b[0], "fixtures must differ");

    let stop = Arc::new(AtomicBool::new(false));
    let num_nodes = graph.num_nodes();
    let handles: Vec<_> = (0..queriers)
        .map(|t| {
            let served = served.clone();
            let table_a = table_a.clone();
            let table_b = table_b.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut observed_pre = 0usize;
                let mut observed_post = 0usize;
                let mut node = t;
                while !stop.load(Ordering::Relaxed) {
                    let batch = [node, (node + 1) % num_nodes, (node + 2) % num_nodes];
                    let predictions =
                        (served.predict_batch)(&served.server, &batch).expect("racing batch");
                    let mut batch_sides = Vec::with_capacity(batch.len());
                    for p in &predictions {
                        let bits: Vec<u32> = p.logits.iter().map(|l| l.to_bits()).collect();
                        if bits == table_a[p.node] {
                            observed_pre += 1;
                            batch_sides.push("pre");
                        } else if bits == table_b[p.node] {
                            observed_post += 1;
                            batch_sides.push("post");
                        } else {
                            panic!(
                                "node {} served logits matching neither snapshot (torn read)",
                                p.node
                            );
                        }
                    }
                    // A batch served under one state read lock must be
                    // wholly pre or wholly post.
                    assert!(
                        !served.whole_batches || batch_sides.windows(2).all(|w| w[0] == w[1]),
                        "one batch mixed snapshots: {batch_sides:?}"
                    );
                    node = (node + 5) % num_nodes;
                }
                (observed_pre, observed_post)
            })
        })
        .collect();

    // Many swaps, not one: the window in which a reload that evicted late
    // (after releasing the state lock) could serve a cached snapshot-A row
    // against snapshot-B embeddings is a few hundred nanoseconds per swap.
    std::thread::sleep(Duration::from_millis(30));
    for swap in 0..RELOADS {
        let next = if swap % 2 == 0 { &mapped_b } else { &mapped_a };
        (served.reload)(&served.server, next.clone()).expect("hot reload under load");
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let mut total_pre = 0usize;
    let mut total_post = 0usize;
    for handle in handles {
        let (pre, post) = handle.join().expect("querier thread");
        total_pre += pre;
        total_post += post;
    }
    assert!(
        total_post > 0,
        "queriers kept running after the swap, so post-reload serves must appear"
    );
    // total_pre is usually > 0 too, but a slow machine could start the
    // queriers late; the hard guarantee is only-pre-or-post, asserted
    // inside the loop.
    let _ = total_pre;

    // Post-drain, everything is snapshot B — and computed from it: a
    // pre-reload row that survived in (or raced into) a cache would be
    // served here as a hit with snapshot-A bits.
    let all: Vec<usize> = (0..num_nodes).collect();
    for prediction in (served.predict_batch)(&served.server, &all).expect("settled batch") {
        let bits: Vec<u32> = prediction.logits.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            bits, table_b[prediction.node],
            "settled serving must be wholly post-reload"
        );
    }
}

#[test]
fn reload_race_single_querier() {
    run_reload_race(engine_over, 1, 71);
}

#[test]
fn reload_race_four_queriers() {
    run_reload_race(engine_over, 4, 72);
}

#[test]
fn router_reload_race_single_querier() {
    run_reload_race(router_over, 1, 73);
}

#[test]
fn router_reload_race_four_queriers() {
    run_reload_race(router_over, 4, 74);
}
