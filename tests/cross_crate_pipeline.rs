//! Cross-crate pipeline tests: consistency of operators, timings, ablations
//! and the efficiency claims that span `sigma-graph`, `sigma-simrank`,
//! `sigma-nn` and the core crate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{
    complexity, AggregatorKind, ContextBuilder, Model, ModelHyperParams, ModelKind, SigmaModel,
    TrainConfig, Trainer,
};
use sigma_datasets::{Dataset, DatasetPreset};
use sigma_graph::rescale_edges;
use sigma_matrix::CsrMatrix;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, PprConfig, RepairOutcome, SimRankConfig};

#[test]
fn simrank_operator_in_context_matches_standalone_localpush() {
    let data = DatasetPreset::Texas.build(1.0, 2).unwrap();
    let cfg = SimRankConfig::default().with_top_k(8);
    let standalone = sigma_simrank::LocalPush::new(&data.graph, cfg)
        .unwrap()
        .run_to_operator();
    let ctx = ContextBuilder::new(data).with_simrank(cfg).build().unwrap();
    let from_ctx = ctx.simrank().unwrap();
    assert_eq!(from_ctx.shape(), standalone.shape());
    assert_eq!(from_ctx.nnz(), standalone.nnz());
}

/// The operator `ContextBuilder` precomputes for training on `data`.
fn trained_operator(data: Dataset, cfg: SimRankConfig) -> CsrMatrix {
    let ctx = ContextBuilder::new(data).with_simrank(cfg).build().unwrap();
    ctx.simrank().unwrap().clone()
}

fn assert_bitwise_eq(served: &CsrMatrix, trained: &CsrMatrix, what: &str) {
    assert_eq!(served.indptr(), trained.indptr(), "{what}: row layout");
    assert_eq!(served.indices(), trained.indices(), "{what}: columns");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(bits(served) == bits(trained), "{what}: value bits differ");
}

#[test]
fn the_maintained_operator_is_the_trained_operator() {
    // What a maintainer serves is what the model was trained against, bit
    // for bit — at start and after an edit batch is repaired in place.
    let data = DatasetPreset::Pokec.build(0.5, 47).unwrap();
    let cfg = SimRankConfig::new(0.6, 0.1, Some(16)).unwrap();
    let mut maintainer = DynamicSimRank::new(data.graph.clone(), cfg, usize::MAX).unwrap();
    assert_bitwise_eq(
        &maintainer.operator().unwrap(),
        &trained_operator(data.clone(), cfg),
        "initial operator",
    );
    let (u, v) = data.graph.edges().nth(40).unwrap();
    maintainer
        .apply_batch(&[
            EdgeUpdate::Insert(3, 700),
            EdgeUpdate::Delete(u, v),
            EdgeUpdate::Insert(90, 1200),
            EdgeUpdate::Insert(5, 6),
        ])
        .unwrap();
    let outcome = maintainer.repair().unwrap();
    assert!(matches!(outcome, RepairOutcome::Patched(ref r) if !r.changed_rows.is_empty()));
    let edited = Dataset {
        graph: maintainer.graph().clone(),
        ..data
    };
    assert_bitwise_eq(
        &maintainer.operator().unwrap(),
        &trained_operator(edited, cfg),
        "repaired operator",
    );
}

#[test]
fn topk_controls_operator_density_and_aggregation_cost() {
    let data = DatasetPreset::Chameleon.build(0.6, 3).unwrap();
    let small_k = ContextBuilder::new(data.clone())
        .with_simrank(SimRankConfig::default().with_top_k(4))
        .build()
        .unwrap();
    let large_k = ContextBuilder::new(data)
        .with_simrank(SimRankConfig::default().with_top_k(64))
        .build()
        .unwrap();
    let nnz_small = small_k.simrank().unwrap().nnz();
    let nnz_large = large_k.simrank().unwrap().nnz();
    assert!(nnz_small <= nnz_large);
    assert!(nnz_small <= 4 * small_k.num_nodes());
}

#[test]
fn edge_rescaling_feeds_the_full_pipeline() {
    // The Fig. 5 path: rescale edges, rebuild the dataset, retrain.
    let data = DatasetPreset::Pokec.build(0.5, 4).unwrap();
    let original_edges = data.num_edges();
    let smaller_graph = rescale_edges(&data.graph, original_edges / 2, 4).unwrap();
    assert_eq!(smaller_graph.num_edges(), original_edges / 2);
    let smaller = sigma_datasets::Dataset {
        name: "pokec-rescaled".to_string(),
        graph: smaller_graph,
        features: data.features.clone(),
        labels: data.labels.clone(),
        num_classes: data.num_classes,
    };
    let split = smaller.default_split(4).unwrap();
    let ctx = ContextBuilder::new(smaller)
        .with_simrank_topk(8)
        .build()
        .unwrap();
    let mut model = ModelKind::Sigma
        .build(&ctx, &ModelHyperParams::small(), 4)
        .unwrap();
    let report = Trainer::new(TrainConfig {
        epochs: 5,
        patience: 0,
        ..TrainConfig::default()
    })
    .train(model.as_mut(), &ctx, &split, 4)
    .unwrap();
    assert!(report.final_train_loss.is_finite());
}

#[test]
fn sigma_aggregation_time_is_smaller_than_glognn() {
    // The Table VII qualitative claim: per-epoch aggregation cost of SIGMA
    // (top-k constant operator) is below GloGNN's iterative multi-hop
    // aggregation on the same graph and budget.
    let data = DatasetPreset::Penn94.build(1.0, 5).unwrap();
    let split = data.default_split(5).unwrap();
    let ctx = ContextBuilder::new(data)
        .with_simrank_topk(16)
        .build()
        .unwrap();
    let trainer = Trainer::new(TrainConfig {
        epochs: 20,
        patience: 0,
        ..TrainConfig::default()
    });
    let hyper = ModelHyperParams::small();

    let mut sigma_model = ModelKind::Sigma.build(&ctx, &hyper, 5).unwrap();
    let sigma_report = trainer
        .train(sigma_model.as_mut(), &ctx, &split, 5)
        .unwrap();
    let mut glognn_model = ModelKind::GloGnn.build(&ctx, &hyper, 5).unwrap();
    let glognn_report = trainer
        .train(glognn_model.as_mut(), &ctx, &split, 5)
        .unwrap();

    assert!(
        sigma_report.aggregation_time < glognn_report.aggregation_time,
        "SIGMA agg {:?} should be below GloGNN agg {:?}",
        sigma_report.aggregation_time,
        glognn_report.aggregation_time
    );
    // ... and since no model computes an input gradient of `MLP_A(A)` any
    // more, that aggregation gap is the epoch gap: Table VII's ordering.
    assert!(
        glognn_report.train_time > sigma_report.train_time,
        "SIGMA trained in {:?}, GloGNN in {:?}",
        sigma_report.train_time,
        glognn_report.train_time
    );
}

#[test]
fn ablation_variants_all_train_and_expose_their_aggregator() {
    // The S·A and PPR ablations are full SIGMA on a context holding that
    // operator in S's place.
    let data = DatasetPreset::ArxivYear.build(0.4, 6).unwrap();
    let split = data.default_split(6).unwrap();
    let ctx = ContextBuilder::new(data.clone())
        .with_simrank_topk(8)
        .with_ppr(PprConfig {
            top_k: Some(8),
            ..PprConfig::default()
        })
        .build()
        .unwrap();
    let mut s_times_a = ctx.simrank().unwrap().spgemm(ctx.row_adj()).unwrap();
    s_times_a.row_normalize();
    let with_operator = |operator| {
        ContextBuilder::new(data.clone())
            .with_simrank_operator(operator)
            .build()
            .unwrap()
    };
    let (sa_ctx, ppr_ctx) = (
        with_operator(s_times_a),
        with_operator(ctx.ppr().unwrap().clone()),
    );
    let trainer = Trainer::new(TrainConfig {
        epochs: 5,
        patience: 0,
        ..TrainConfig::default()
    });
    for (name, ctx, aggregator) in [
        ("S", &ctx, AggregatorKind::SimRank),
        ("S·A", &sa_ctx, AggregatorKind::SimRank),
        ("PPR", &ppr_ctx, AggregatorKind::SimRank),
        ("w/o S", &ctx, AggregatorKind::None),
    ] {
        let mut rng = StdRng::seed_from_u64(6);
        let mut model =
            SigmaModel::with_aggregator(ctx, &ModelHyperParams::small(), aggregator, &mut rng)
                .unwrap();
        assert_eq!(model.aggregator(), aggregator);
        let report = trainer
            .train(&mut model as &mut dyn Model, ctx, &split, 6)
            .unwrap();
        assert!(report.final_train_loss.is_finite(), "{name} diverged");
        assert_eq!(
            report.aggregation_time.is_zero(),
            aggregator == AggregatorKind::None,
            "{name}"
        );
    }
}

#[test]
fn complexity_model_is_consistent_with_preset_statistics() {
    // Evaluate Table III on every large-scale preset's *paper* statistics.
    // SIGMA's aggregation must always beat the quadratic/attention-style
    // baselines, and it must beat every baseline (including GloGNN's
    // edge-linear aggregation) on the dense graphs the paper highlights
    // (average degree well above SIGMA's top-k / (k₂·l_norm) break-even).
    for preset in DatasetPreset::LARGE {
        let stats = preset.stats();
        let params = complexity::CostParams::typical(stats.paper_nodes, stats.paper_edges, 64);
        let rows = complexity::table3_rows(&params);
        let sigma_row = rows.iter().find(|r| r.model == "SIGMA").unwrap();
        for row in &rows {
            if matches!(row.model, "Geom-GCN" | "GPNN" | "U-GCN" | "WR-GAT") {
                assert!(
                    sigma_row.aggregation < row.aggregation,
                    "{}: SIGMA should beat {}",
                    stats.name,
                    row.model
                );
            }
        }
        let avg_degree = stats.paper_edges as f64 * 2.0 / stats.paper_nodes as f64;
        if avg_degree > 20.0 {
            let glognn = rows.iter().find(|r| r.model == "GloGNN").unwrap();
            assert!(
                sigma_row.aggregation < glognn.aggregation,
                "{}: SIGMA should beat GloGNN on dense graphs (avg degree {avg_degree:.1})",
                stats.name
            );
        }
    }
}
