//! Dynamic-graph scenario: keep SIGMA's SimRank operator fresh while the
//! graph evolves, using the lazy-update maintainer (the paper's stated
//! future-work direction, Section VI).
//!
//! The example simulates a stream of edge insertions on a pokec-like social
//! graph. After each batch the maintainer decides — based on its staleness
//! budget — whether the aggregation operator needs to be recomputed, and the
//! model is retrained on the refreshed operator.
//!
//! Run with:
//! ```sh
//! cargo run --release --example dynamic_graph
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma::{ContextBuilder, ModelHyperParams, ModelKind, TrainConfig, Trainer};
use sigma_datasets::{Dataset, DatasetPreset};
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome, SimRankConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A reduced pokec-like social graph as the starting snapshot.
    let base = DatasetPreset::Pokec.build(0.25, 11)?;
    println!("initial snapshot: {}", base.summary());
    let split = base.default_split(11)?;

    // 2. A dynamic SimRank maintainer with a staleness budget: up to 150
    //    edits are tolerated before the next operator query recomputes.
    let simrank_cfg = SimRankConfig::default().with_top_k(16);
    let mut maintainer = DynamicSimRank::new(base.graph.clone(), simrank_cfg, 150)?;
    let mut rng = StdRng::seed_from_u64(11);

    let hyper = ModelHyperParams::small();
    let trainer = Trainer::new(TrainConfig {
        epochs: 60,
        patience: 20,
        ..TrainConfig::default()
    });

    println!(
        "\n{:<6} {:>10} {:>10} {:>12} {:>10}",
        "batch", "edges", "refreshes", "stale nodes", "test acc"
    );
    for batch in 0..5 {
        // 3. A batch of random edge insertions arrives (new friendships).
        let n = base.num_nodes();
        let updates: Vec<EdgeUpdate> = (0..100)
            .map(|_| EdgeUpdate::Insert(rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|u| match *u {
                EdgeUpdate::Insert(a, b) | EdgeUpdate::Delete(a, b) => a != b,
            })
            .collect();
        maintainer.apply_batch(&updates)?;
        let stale = maintainer.affected_nodes().len();

        // 4. Query the operator: the maintainer refreshes lazily only when
        //    the accumulated edits exceed the budget.
        let operator = maintainer.operator()?;

        // 5. Retrain SIGMA on the refreshed snapshot.
        let snapshot = Dataset {
            name: format!("pokec-stream-{batch}"),
            graph: maintainer.graph().clone(),
            features: base.features.clone(),
            labels: base.labels.clone(),
            num_classes: base.num_classes,
        };
        let ctx = ContextBuilder::new(snapshot)
            .with_simrank_operator(operator)
            .build()?;
        let mut model = ModelKind::Sigma.build(&ctx, &hyper, 11)?;
        let report = trainer.train(model.as_mut(), &ctx, &split, 11)?;

        println!(
            "{:<6} {:>10} {:>10} {:>12} {:>9.1}%",
            batch,
            maintainer.graph().num_edges(),
            maintainer.refreshes(),
            stale,
            report.test_accuracy * 100.0
        );
    }

    println!("\nThe maintainer recomputed the SimRank operator only when the staleness budget");
    println!("was exhausted, so most batches reuse the previous precomputation — the lazy");
    println!("update strategy the paper proposes for dynamic graphs.");

    // 6. Incremental repair: instead of waiting for the budget and paying a
    //    full recomputation, `repair()` re-pulls only the rows the edits can
    //    reach and patches exactly the operator rows whose bits changed —
    //    with results bitwise identical to a full refresh, and to the
    //    operator training builds on the edited graph.
    let n = maintainer.graph().num_nodes();
    let updates: Vec<EdgeUpdate> = (0..10)
        .map(|_| EdgeUpdate::Insert(rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|u| match *u {
            EdgeUpdate::Insert(a, b) | EdgeUpdate::Delete(a, b) => a != b,
        })
        .collect();
    maintainer.apply_batch(&updates)?;
    let start = Instant::now();
    let outcome = maintainer.repair()?;
    let repair_time = start.elapsed();
    if let RepairOutcome::Patched(repair) = outcome {
        println!(
            "\nincremental repair: {} edits -> {} rows re-pulled, {} of {} operator rows \
             changed in {:.2?} (bitwise-identical to a full refresh)",
            updates.len(),
            repair.dirty_seeds,
            repair.changed_rows.len(),
            n,
            repair_time
        );
    }
    Ok(())
}
