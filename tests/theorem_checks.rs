//! Empirical checks of the paper's theoretical claims.
//!
//! * Theorem III.2: SimRank aggregation decomposes into pairwise-random-walk
//!   meeting probabilities (checked by Monte-Carlo estimation).
//! * Corollary III.3 / Table II: SimRank assigns higher scores to intra-class
//!   pairs than inter-class pairs on heterophilous graphs.
//! * Theorem III.4: the SIGMA output exhibits the grouping effect — nodes
//!   with similar features and similar neighbourhood structure end up with
//!   similar embeddings.
//! * Lemma III.5: LocalPush meets its `‖Ŝ − S‖_max < ε` guarantee, and so
//!   does an operator a `DynamicSimRank` maintainer repaired through edits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{ContextBuilder, Model, ModelHyperParams, SigmaModel};
use sigma_datasets::{generate, GeneratorConfig};
use sigma_graph::Graph;
use sigma_simrank::{
    exact_simrank, exact_simrank_iterations, pairwise_walk_simrank, DynamicSimRank, EdgeUpdate,
    LocalPush, RepairOutcome, SimRankConfig,
};

fn heterophilous_dataset(seed: u64) -> sigma_datasets::Dataset {
    let cfg = GeneratorConfig::new(150, 8.0, 3, 12)
        .with_homophily(0.15)
        .with_feature_snr(1.0, 1.0)
        .with_name("theorem-check");
    generate(&cfg, seed).unwrap()
}

#[test]
fn theorem_3_2_pairwise_walk_decomposition_matches_simrank() {
    // On a small structured graph, the Monte-Carlo estimate of
    // Σ_ℓ c^ℓ P(first meeting at ℓ) must agree with the fixed-point SimRank.
    let g = Graph::from_edges(
        8,
        &[
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (2, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (6, 7),
        ],
    )
    .unwrap();
    let exact = exact_simrank(
        &g,
        &SimRankConfig {
            epsilon: 0.001,
            ..SimRankConfig::default()
        },
    )
    .unwrap();
    for (u, v) in [(0usize, 1usize), (2, 3), (4, 5), (0, 7)] {
        let estimate = pairwise_walk_simrank(&g, u, v, 0.6, 40, 30_000, 17).unwrap();
        assert!(
            (estimate - exact.get(u, v) as f64).abs() < 0.04,
            "pair ({u},{v}): MC {estimate} vs exact {}",
            exact.get(u, v)
        );
    }
}

#[test]
fn corollary_3_3_intra_class_scores_exceed_inter_class_scores() {
    // The Table II observation on a synthetic heterophilous graph.
    let data = heterophilous_dataset(21);
    assert!(data.node_homophily().unwrap() < 0.35);
    let s = exact_simrank(&data.graph, &SimRankConfig::default()).unwrap();
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for u in 0..data.num_nodes() {
        for v in (u + 1)..data.num_nodes() {
            let score = s.get(u, v);
            if score <= 0.0 {
                continue;
            }
            if data.labels[u] == data.labels[v] {
                intra.push(score as f64);
            } else {
                inter.push(score as f64);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&intra) > mean(&inter) * 1.05,
        "intra-class mean {} should exceed inter-class mean {}",
        mean(&intra),
        mean(&inter)
    );
}

#[test]
fn lemma_3_5_localpush_error_bound_holds_on_generated_graphs() {
    let data = heterophilous_dataset(33);
    let cfg = SimRankConfig::default();
    let exact = exact_simrank(&data.graph, &cfg).unwrap();
    let approx = LocalPush::new(&data.graph, cfg).unwrap().run();
    let mut max_err = 0.0f32;
    for u in 0..data.num_nodes() {
        for v in 0..data.num_nodes() {
            if u == v {
                continue;
            }
            max_err = max_err.max((approx.get(u, v) - exact.get(u, v)).abs());
        }
    }
    assert!(
        max_err < cfg.epsilon as f32 + 0.02,
        "LocalPush max error {max_err} exceeds epsilon {}",
        cfg.epsilon
    );
}

#[test]
fn lemma_3_5_error_bound_holds_on_a_maintained_operator() {
    // Three edit batches repaired in place: every entry the maintainer
    // serves is within ε of SimRank on the graph the edits left.
    let data = heterophilous_dataset(34);
    let n = data.num_nodes();
    let cfg = SimRankConfig::default().with_top_k(16);
    let mut maintainer = DynamicSimRank::new(data.graph.clone(), cfg, usize::MAX).unwrap();
    let _ = maintainer.operator().unwrap();
    let edges: Vec<(usize, usize)> = data.graph.edges().collect();
    for round in 0..3 {
        let batch: Vec<EdgeUpdate> = (0..4)
            .map(|i| {
                let k = 37 * round + 11 * i;
                match i % 2 {
                    0 => EdgeUpdate::Insert(k % n, (k * 7 + 3) % n),
                    _ => EdgeUpdate::Delete(edges[k % edges.len()].0, edges[k % edges.len()].1),
                }
            })
            .collect();
        maintainer.apply_batch(&batch).unwrap();
        let outcome = maintainer.repair().unwrap();
        assert!(matches!(outcome, RepairOutcome::Patched(ref r) if !r.edited_nodes.is_empty()));
    }
    let exact = exact_simrank_iterations(maintainer.graph(), cfg.decay, 40).unwrap();
    let operator = maintainer.operator().unwrap();
    let mut max_err = 0.0f32;
    for u in 0..n {
        for (v, score) in operator.row_iter(u) {
            max_err = max_err.max((score - exact.get(u, v)).abs());
        }
    }
    assert!(
        max_err < cfg.epsilon as f32,
        "maintained operator max error {max_err} exceeds epsilon {}",
        cfg.epsilon
    );
}

#[test]
fn theorem_3_4_sigma_output_exhibits_grouping_effect() {
    // Structurally equivalent twin nodes with identical features must receive
    // nearly identical SIGMA embeddings, and far more similar embeddings than
    // an arbitrary pair of different-class nodes.
    let data = heterophilous_dataset(55);
    let n = data.num_nodes();
    // Build twins: two extra nodes wired to the same neighbours with the same
    // features and the same label.
    let base: usize = 0;
    let mut edges: Vec<(usize, usize)> = data.graph.edges().collect();
    let twin_a = n;
    let twin_b = n + 1;
    let anchor_neighbors: Vec<usize> = data
        .graph
        .neighbors(base)
        .iter()
        .map(|&x| x as usize)
        .collect();
    for &nb in &anchor_neighbors {
        edges.push((twin_a, nb));
        edges.push((twin_b, nb));
    }
    let graph = Graph::from_edges(n + 2, &edges).unwrap();
    let mut features = sigma_matrix::DenseMatrix::zeros(n + 2, data.feature_dim());
    for u in 0..n {
        features.row_mut(u).copy_from_slice(data.features.row(u));
    }
    let base_row = data.features.row(base).to_vec();
    features.row_mut(twin_a).copy_from_slice(&base_row);
    features.row_mut(twin_b).copy_from_slice(&base_row);
    let mut labels = data.labels.clone();
    labels.push(labels[base]);
    labels.push(labels[base]);
    let twin_dataset = sigma_datasets::Dataset {
        name: "twins".to_string(),
        graph,
        features,
        labels: labels.clone(),
        num_classes: data.num_classes,
    };

    let ctx = ContextBuilder::new(twin_dataset)
        .with_simrank_topk(16)
        .build()
        .unwrap();
    let hyper = ModelHyperParams::small().with_dropout(0.0);
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = SigmaModel::new(&ctx, &hyper, &mut rng).unwrap();
    let z = model.forward(&ctx, false, &mut rng).unwrap();

    let twin_distance = z.row_distance(twin_a, twin_b);
    // Compare against the average distance between the twin and nodes of a
    // different class.
    let mut other_distances = Vec::new();
    for u in 0..n {
        if labels[u] != labels[twin_a] {
            other_distances.push(z.row_distance(twin_a, u));
        }
    }
    let mean_other = other_distances.iter().sum::<f32>() / other_distances.len() as f32;
    assert!(
        twin_distance < mean_other * 0.5,
        "grouping effect violated: twin distance {twin_distance} vs mean other-class distance {mean_other}"
    );
}
