//! Property-based tests for SimRank and PPR.
//!
//! Random small graphs are generated and the core guarantees are checked:
//! exact SimRank is a symmetric [0,1] similarity with unit diagonal,
//! LocalPush stays within its ε error bound, PPR vectors are distributions,
//! and a maintainer's repaired operator is the coupled LocalPush operator of
//! the edited graph, bit for bit, with exactly the changed rows reported.

use proptest::prelude::*;
use sigma_graph::Graph;
use sigma_simrank::{
    exact_simrank, forward_push_ppr, power_iteration_ppr, DynamicSimRank, EdgeUpdate, LocalPush,
    PprConfig, SimRankConfig, SparseScores,
};
use sigma_testutil::reference::top_k_reference;
use sigma_testutil::{at_pool_width, replay_maintainer};

const MAX_NODES: usize = 14;

fn random_graph() -> impl Strategy<Value = Graph> {
    (3..MAX_NODES).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 1..n * 3)
            .prop_map(move |edges| Graph::from_edges(n, &edges).expect("endpoints in range"))
    })
}

/// Every row strictly column-ascending, hence duplicate-free.
fn rows_are_strictly_sorted(scores: &SparseScores) -> bool {
    (0..scores.num_nodes()).all(|u| {
        let cols: Vec<usize> = scores.row(u).map(|(v, _)| v).collect();
        cols.windows(2).all(|w| w[0] < w[1])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_scores_keep_sorted_rows_and_select_top_k_like_csr(
        g in random_graph(), k in 1usize..6, tight in any::<bool>()
    ) {
        // Small symmetric graphs are full of exactly tied scores, so the
        // top-k comparison exercises the column-ascending tie-break.
        let cfg = SimRankConfig::new(0.6, if tight { 0.005 } else { 0.1 }, None).unwrap();
        let n = g.num_nodes();
        let scores = LocalPush::new(&g, cfg).unwrap().run();
        prop_assert!(rows_are_strictly_sorted(&scores));
        let csr = scores.to_csr(Some(k));
        for u in 0..n {
            let row: Vec<(u32, f32)> = scores.row(u).map(|(v, s)| (v as u32, s)).collect();
            let kept: Vec<(u32, f32)> = csr.row_iter(u).map(|(v, s)| (v as u32, s)).collect();
            prop_assert_eq!(kept, top_k_reference(&row, Some(k)));
        }
        prop_assert_eq!(scores.get(0, n), 0.0);
        prop_assert_eq!(scores.get(n, 0), 0.0);
        prop_assert_eq!(scores.get(0, usize::MAX), 0.0);
        let stored: usize = (0..n).map(|u| scores.row(u).count()).sum();
        prop_assert_eq!(scores.nnz(), stored);
    }

    #[test]
    fn exact_simrank_is_a_similarity_matrix(g in random_graph()) {
        let s = exact_simrank(&g, &SimRankConfig::default()).unwrap();
        let n = g.num_nodes();
        for u in 0..n {
            prop_assert!((s.get(u, u) - 1.0).abs() < 1e-6);
            for v in 0..n {
                prop_assert!(s.get(u, v) >= -1e-6 && s.get(u, v) <= 1.0 + 1e-6);
                prop_assert!((s.get(u, v) - s.get(v, u)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn localpush_respects_epsilon_bound(g in random_graph()) {
        let cfg = SimRankConfig::default();
        let exact = exact_simrank(&g, &cfg).unwrap();
        let approx = LocalPush::new(&g, cfg).unwrap().run();
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if u == v { continue; }
                let err = (approx.get(u, v) - exact.get(u, v)).abs();
                prop_assert!(err < cfg.epsilon as f32 + 0.02,
                    "error {err} at ({u},{v})");
            }
        }
    }

    #[test]
    fn localpush_topk_operator_is_well_formed(g in random_graph(), k in 1usize..6) {
        let cfg = SimRankConfig::default().with_top_k(k);
        let op = LocalPush::new(&g, cfg).unwrap().run_to_operator();
        prop_assert_eq!(op.shape(), (g.num_nodes(), g.num_nodes()));
        for u in 0..g.num_nodes() {
            prop_assert!(op.row_nnz(u) <= k);
            for (_, v) in op.row_iter(u) {
                prop_assert!(v > 0.0 && v <= 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn ppr_power_iteration_is_a_distribution(g in random_graph(), source_raw in 0usize..MAX_NODES) {
        let source = source_raw % g.num_nodes();
        let pi = power_iteration_ppr(&g, source, &PprConfig::default()).unwrap();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
        // The source always retains at least the teleport share.
        prop_assert!(pi[source] >= 0.15 - 1e-6);
    }

    #[test]
    fn ppr_forward_push_underestimates_but_tracks_power_iteration(
        g in random_graph(), source_raw in 0usize..MAX_NODES
    ) {
        let source = source_raw % g.num_nodes();
        let cfg = PprConfig { r_max: 1e-5, ..PprConfig::default() };
        let push = forward_push_ppr(&g, source, &cfg).unwrap();
        let exact = power_iteration_ppr(&g, source, &cfg).unwrap();
        let mass: f64 = push.values().sum();
        prop_assert!(mass <= 1.0 + 1e-9);
        for (&v, &val) in &push {
            prop_assert!((val - exact[v]).abs() < 0.05, "node {v}: {val} vs {}", exact[v]);
        }
    }

    #[test]
    fn localpush_scores_are_valid_similarities(g in random_graph()) {
        // Regardless of density, every stored score (including the ones added
        // by the residual sweep) is a similarity in [0, 1] and the diagonal
        // is exact.
        let scores = LocalPush::new(&g, SimRankConfig::default()).unwrap().run();
        for u in 0..g.num_nodes() {
            prop_assert!((scores.get(u, u) - 1.0).abs() < 1e-6);
            for (v, s) in scores.row(u) {
                prop_assert!(s > 0.0 && s <= 1.0 + 1e-5, "S({u},{v}) = {s}");
            }
        }
    }

    #[test]
    fn dynamic_simrank_matches_fresh_computation_after_refresh(
        g in random_graph(),
        edits in prop::collection::vec((0usize..MAX_NODES, 0usize..MAX_NODES, any::<bool>()), 1..6)
    ) {
        let cfg = SimRankConfig::default().with_top_k(4);
        let mut maintainer = DynamicSimRank::new(g.clone(), cfg, 0).unwrap();
        let n = g.num_nodes();
        for (a, b, insert) in edits {
            let (a, b) = (a % n, b % n);
            if a == b { continue; }
            let update = if insert { EdgeUpdate::Insert(a, b) } else { EdgeUpdate::Delete(a, b) };
            maintainer.apply(update).unwrap();
        }
        // With a zero staleness budget every query refreshes, so the
        // maintained operator must equal a fresh run of the coupled
        // solver on the edited graph — bit for bit.
        let edited = maintainer.graph().clone();
        let maintained = maintainer.operator().unwrap();
        let fresh = LocalPush::new(&edited, cfg).unwrap().run_to_operator();
        prop_assert_eq!(maintained.indptr(), fresh.indptr());
        prop_assert_eq!(maintained.indices(), fresh.indices());
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(maintained.values()), bits(fresh.values()));
    }

    #[test]
    fn repair_replays_to_the_coupled_operator(
        g in random_graph(),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..MAX_NODES, 0usize..MAX_NODES, any::<bool>()), 0..5),
            1..4,
        ),
        tight in any::<bool>(),
        wide in any::<bool>(),
    ) {
        // Random pairs: deletes mostly miss and repeats re-add, so no-op,
        // delete-then-readd and empty batches come up beside real edits.
        let n = g.num_nodes();
        let batches: Vec<Vec<EdgeUpdate>> = batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(a, b, insert)| match insert {
                        true => EdgeUpdate::Insert(a % n, b % n),
                        false => EdgeUpdate::Delete(a % n, b % n),
                    })
                    .collect()
            })
            .collect();
        let cfg = SimRankConfig::new(0.6, if tight { 0.005 } else { 0.1 }, Some(4)).unwrap();
        let report = at_pool_width(if wide { 4 } else { 1 }, || replay_maintainer(&g, cfg, &batches));
        prop_assert_eq!(report.rounds, batches.len());
    }
}
