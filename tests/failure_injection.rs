//! Failure-injection tests: every user-facing entry point must reject
//! malformed input with a typed error (never a panic), and models must refuse
//! to run against a context that lacks the operators they need.

use sigma::{ContextBuilder, ModelHyperParams, ModelKind, SigmaError, TrainConfig, Trainer};
use sigma_datasets::{generate, DatasetPreset, GeneratorConfig, Split};
use sigma_graph::Graph;
use sigma_matrix::CsrMatrix;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, SimRankConfig};

fn tiny_dataset() -> sigma_datasets::Dataset {
    generate(&GeneratorConfig::new(40, 4.0, 2, 6).with_homophily(0.3), 0).unwrap()
}

#[test]
fn graph_construction_rejects_out_of_bounds_edges() {
    let err = Graph::from_edges(3, &[(0, 9)]).unwrap_err();
    assert!(err.to_string().contains("out of bounds"));
}

#[test]
fn edge_list_parser_reports_line_numbers_not_panics() {
    let err = sigma_graph::read_edge_list("nodes 4\n0 1\nbroken line\n".as_bytes()).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("line 3"), "unhelpful error: {rendered}");
}

#[test]
fn generator_rejects_degenerate_configurations() {
    assert!(generate(&GeneratorConfig::new(0, 4.0, 2, 4), 0).is_err());
    assert!(generate(&GeneratorConfig::new(20, 4.0, 0, 4), 0).is_err());
    assert!(generate(&GeneratorConfig::new(20, 4.0, 2, 4).with_homophily(1.7), 0).is_err());
}

#[test]
fn splits_reject_invalid_fractions() {
    let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
    assert!(Split::stratified(&labels, 0.9, 0.4, 0).is_err());
    assert!(Split::stratified(&labels, 0.0, 0.5, 0).is_err());
}

#[test]
fn models_requiring_missing_operators_fail_to_build() {
    // The context has no SimRank, PPR or 2-hop operator.
    let ctx = ContextBuilder::new(tiny_dataset()).build().unwrap();
    let hyper = ModelHyperParams::small();
    for kind in [
        ModelKind::Sigma,
        ModelKind::SigmaIterative(2),
        ModelKind::PprGo,
        ModelKind::MixHop,
        ModelKind::H2Gcn,
    ] {
        let err = match kind.build(&ctx, &hyper, 0) {
            Ok(_) => panic!("{} built without its required operator", kind.name()),
            Err(err) => err,
        };
        assert!(
            matches!(err, SigmaError::MissingOperator { .. }),
            "{} should report a missing operator, got {err}",
            kind.name()
        );
    }
    // Models that only need the adjacency still build fine.
    assert!(ModelKind::Gat.build(&ctx, &hyper, 0).is_ok());
    assert!(ModelKind::AcmGcn.build(&ctx, &hyper, 0).is_ok());
    assert!(ModelKind::Linkx.build(&ctx, &hyper, 0).is_ok());
}

#[test]
fn invalid_hyper_parameters_are_rejected_for_every_model() {
    let ctx = ContextBuilder::new(tiny_dataset())
        .with_simrank_topk(8)
        .build()
        .unwrap();
    let bad = ModelHyperParams::small().with_alpha(2.0);
    for kind in ModelKind::TABLE_V {
        assert!(
            kind.build(&ctx, &bad, 0).is_err(),
            "{} accepted alpha = 2.0",
            kind.name()
        );
    }
}

#[test]
fn mismatched_external_operator_is_rejected() {
    let err = ContextBuilder::new(tiny_dataset())
        .with_simrank_operator(CsrMatrix::identity(7))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("simrank_operator"));
}

#[test]
fn trainer_rejects_zero_epochs() {
    let data = tiny_dataset();
    let split = data.default_split(0).unwrap();
    let ctx = ContextBuilder::new(data)
        .with_simrank_topk(8)
        .build()
        .unwrap();
    let mut model = ModelKind::Sigma
        .build(&ctx, &ModelHyperParams::small(), 0)
        .unwrap();
    let trainer = Trainer::new(TrainConfig {
        epochs: 0,
        ..TrainConfig::default()
    });
    assert!(trainer.train(model.as_mut(), &ctx, &split, 0).is_err());
}

#[test]
fn dynamic_simrank_surfaces_bad_edits_and_configs() {
    let graph = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
    let mut maintainer =
        DynamicSimRank::new(graph, SimRankConfig::default().with_top_k(4), 3).unwrap();
    assert!(maintainer.apply(EdgeUpdate::Insert(0, 77)).is_err());
    assert!(maintainer.apply(EdgeUpdate::Delete(9, 0)).is_err());
    // Valid edits still work afterwards.
    maintainer.apply(EdgeUpdate::Insert(0, 5)).unwrap();
    assert!(maintainer.graph().has_edge(0, 5));
    assert!(DynamicSimRank::new(
        Graph::from_edges(2, &[(0, 1)]).unwrap(),
        SimRankConfig {
            decay: -0.3,
            epsilon: 0.1,
            top_k: None
        },
        1
    )
    .is_err());
}

#[test]
fn preset_scaling_never_produces_an_unusable_dataset() {
    // Even at aggressive down-scaling the presets stay trainable: non-empty
    // splits, consistent dimensions, finite features.
    for preset in [
        DatasetPreset::Texas,
        DatasetPreset::Pokec,
        DatasetPreset::SnapPatents,
    ] {
        let data = preset.build(0.05, 3).unwrap();
        assert!(data.num_nodes() >= data.num_classes * 4);
        assert!(data.features.is_finite());
        let split = data.default_split(3).unwrap();
        assert!(!split.train.is_empty());
        assert!(!split.test.is_empty());
        let ctx = ContextBuilder::new(data)
            .with_simrank_topk(4)
            .build()
            .unwrap();
        assert!(ctx.simrank().is_some());
    }
}

#[test]
fn corrupt_shard_snapshot_names_the_failing_shard_in_a_typed_error() {
    // A shard fleet where one mapping fails its deferred `verify()`: the
    // router must refuse to construct with `ServeError::Shard` naming the
    // bad shard's index — never a panic, never a silently smaller fleet.
    use sigma_serve::{EngineConfig, MappedSnapshot, ServeError, ShardRouter, SnapshotError};
    use sigma_testutil::{random_graph, serving_fixture};
    use std::sync::Arc;

    let fixture = serving_fixture(&random_graph(24, 8, 99), 5, 99);
    let mut image = Vec::new();
    fixture.snapshot.write_to(&mut image).unwrap();

    // Flip one byte inside the FEAT payload. The layout is fixed: a
    // 16-byte prelude, then 32-byte table entries of
    // `tag[8] offset[8] len[8] crc[4] pad[4]`.
    let count = u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize;
    let feat_offset = (0..count)
        .map(|i| 16 + i * 32)
        .find(|&p| &image[p..p + 8] == b"FEAT    ")
        .map(|p| u64::from_le_bytes(image[p + 8..p + 16].try_into().unwrap()) as usize)
        .expect("snapshot has a FEAT section");
    let mut corrupt = image.clone();
    corrupt[feat_offset + 3] ^= 0x40;

    let config = EngineConfig {
        cache_capacity: 24,
        workers: 0,
        max_chunk: 64,
    };
    for bad_shard in [0usize, 2] {
        let snapshots: Vec<Arc<MappedSnapshot>> = (0..4)
            .map(|shard| {
                let bytes: &[u8] = if shard == bad_shard { &corrupt } else { &image };
                // Open only runs the O(#sections) header pass, so the
                // corruption stays latent until the router verifies.
                Arc::new(MappedSnapshot::from_bytes(bytes).expect("payload damage opens fine"))
            })
            .collect();
        let err = ShardRouter::from_mapped(snapshots, config).unwrap_err();
        let rendered = err.to_string();
        match err {
            ServeError::Shard { shard, source } => {
                assert_eq!(shard, bad_shard, "error must name the corrupt shard");
                assert!(
                    matches!(
                        *source,
                        ServeError::Snapshot(SnapshotError::ChecksumMismatch { ref tag })
                            if tag == "FEAT"
                    ),
                    "expected a FEAT checksum failure, got {source}"
                );
            }
            other => panic!("expected ServeError::Shard, got {other}"),
        }
        assert!(
            rendered.contains(&format!("shard {bad_shard}")),
            "display must name the shard: {rendered}"
        );
        assert!(
            rendered.contains("checksum"),
            "display keeps the cause: {rendered}"
        );
    }

    // A clean fleet from the same image constructs fine.
    let snapshots: Vec<Arc<MappedSnapshot>> = (0..4)
        .map(|_| Arc::new(MappedSnapshot::from_bytes(&image).unwrap()))
        .collect();
    assert!(ShardRouter::from_mapped(snapshots, config).is_ok());
}
