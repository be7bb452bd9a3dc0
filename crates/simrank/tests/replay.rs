//! The maintainer's replay against the coupled LocalPush run, on named
//! graphs: after every edit batch the repaired operator is
//! `run_to_operator` of the edited graph, bit for bit, and the reported
//! changed rows are exactly the rows that differ (`replay_maintainer`),
//! at pool widths 1 and 4 — plus what a repair replays, which is what it
//! costs.

use sigma_datasets::DatasetPreset;
use sigma_graph::Graph;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, LocalPush, RepairOutcome, SimRankConfig};
use sigma_testutil::{
    at_pool_width, power_law_graph, random_trace, replay_maintainer, MaintainerReport, TraceShape,
};

/// A maintainer over `graph` with its operator built, `batch` applied and
/// repaired; returns the repair.
fn repaired(
    graph: &Graph,
    config: SimRankConfig,
    batch: &[EdgeUpdate],
) -> (DynamicSimRank, sigma_simrank::ScoreRepair) {
    let mut maintainer = DynamicSimRank::new(graph.clone(), config, usize::MAX).unwrap();
    let _ = maintainer.operator().unwrap();
    maintainer.apply_batch(batch).unwrap();
    let RepairOutcome::Patched(repair) = maintainer.repair().unwrap() else {
        panic!("expected a patch");
    };
    (maintainer, repair)
}

#[test]
fn replay_rows_are_the_two_hop_ball_in_a_single_round() {
    // Degree 16: no off-diagonal pair crosses ε = 0.1's threshold, so the
    // identity round is the only one and a repair replays exactly the rows
    // within two hops of the edited nodes.
    let n = 120usize;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (1..=8).map(move |step| (u, (u + step) % n)))
        .collect();
    let g = Graph::from_edges(n, &edges).unwrap();
    let config = SimRankConfig::default().with_top_k(8);
    let mut solver = LocalPush::new(&g, config).unwrap();
    let _ = solver.run();
    assert_eq!(solver.pushes_performed(), n, "a single round");
    let (maintainer, repair) = repaired(
        &g,
        config,
        &[EdgeUpdate::Insert(0, 60), EdgeUpdate::Delete(40, 41)],
    );
    let mut ball = repair.edited_nodes.clone();
    for _ in 0..2 {
        let graph = maintainer.graph();
        let reach: Vec<usize> = ball
            .iter()
            .flat_map(|&u| graph.neighbors(u).iter().map(|&v| v as usize))
            .collect();
        ball.extend(reach);
        ball.sort_unstable();
        ball.dedup();
    }
    assert!(ball.len() < n);
    assert_eq!(repair.dirty_seeds, ball.len());
    assert_eq!(repair.pushes, ball.len());
}

#[test]
fn clean_rows_are_not_replayed() {
    // Two far-apart components: editing inside one must leave every row of
    // the other clean.
    let mut edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    edges.extend((0..6).map(|i| (6 + i, 6 + (i + 1) % 6)));
    let g = Graph::from_edges(12, &edges).unwrap();
    let config = SimRankConfig::default().with_top_k(4);
    let (maintainer, repair) = repaired(&g, config, &[EdgeUpdate::Insert(0, 3)]);
    assert!(repair.dirty_seeds > 0 && repair.dirty_seeds <= 6);
    assert!(repair.changed_rows.iter().all(|&row| row < 6));
    // Locality in push work too: strictly less than a full run.
    let mut full = LocalPush::new(maintainer.graph(), config).unwrap();
    let _ = full.run();
    assert!(repair.pushes < full.pushes_performed());
}

#[test]
fn repair_replays_to_the_coupled_operator_on_the_pokec_preset() {
    // The `repair_churn` benchmark's graph family and SimRank settings.
    let g = DatasetPreset::Pokec.build(0.3, 47).unwrap().graph;
    let config = SimRankConfig::new(0.6, 0.1, Some(16)).unwrap();
    let report = replay_at_both_widths(&g, config, &random_trace(&g, SHAPE, 47));
    assert!(report.rows_changed > 0);
}

/// Replays `trace` through a maintainer at pool widths 1 and 4 and checks
/// that both widths report the same work.
fn replay_at_both_widths(
    graph: &Graph,
    cfg: SimRankConfig,
    trace: &[Vec<EdgeUpdate>],
) -> MaintainerReport {
    let serial = at_pool_width(1, || replay_maintainer(graph, cfg, trace));
    let parallel = at_pool_width(4, || replay_maintainer(graph, cfg, trace));
    assert_eq!(serial, parallel);
    serial
}

const SHAPE: TraceShape = TraceShape {
    batches: 4,
    batch_len: 4,
    delete_probability: 0.4,
    readd_probability: 0.3,
};

#[test]
fn repair_replays_to_the_coupled_operator_on_a_power_law_graph() {
    // Hubs: a hub's edit dirties most of the graph, a leaf's a handful.
    let g = power_law_graph(300, 60, 47);
    let report = replay_at_both_widths(
        &g,
        SimRankConfig::default().with_top_k(8),
        &random_trace(&g, SHAPE, 47),
    );
    assert!(report.rows_changed > 0);
    assert!(report.rows_replayed < SHAPE.batches * g.num_nodes());
}

#[test]
fn repair_replays_to_the_coupled_operator_over_many_rounds() {
    // The ε = 0.005 ring: pairs cross the threshold for several rounds and
    // some are absorbed twice, so rows turn dirty in late rounds and are
    // replayed from round 1 with the residual they carried.
    let mut edges: Vec<(usize, usize)> = (0..300).map(|u| (u, (u + 1) % 300)).collect();
    edges.extend((0..300).step_by(7).map(|u| (u, (u + 40) % 300)));
    let g = Graph::from_edges(300, &edges).unwrap();
    let cfg = SimRankConfig::new(0.6, 0.005, Some(8)).unwrap();
    let report = replay_at_both_widths(&g, cfg, &random_trace(&g, SHAPE, 5));
    assert!(report.rows_changed > 0);
}

#[test]
fn repair_replays_to_the_coupled_operator_around_isolated_nodes() {
    // Nodes 12–15 start isolated; node 5 is cut off, then 12 and 5 are
    // attached to each other and to the rest.
    let g = Graph::from_edges(
        16,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 5),
            (10, 11),
        ],
    )
    .unwrap();
    let trace = vec![
        vec![
            EdgeUpdate::Delete(4, 5),
            EdgeUpdate::Delete(5, 6),
            EdgeUpdate::Delete(9, 5),
        ],
        vec![EdgeUpdate::Insert(12, 5), EdgeUpdate::Insert(12, 0)],
        vec![EdgeUpdate::Insert(13, 14), EdgeUpdate::Delete(10, 11)],
    ];
    for cfg in [
        SimRankConfig::default().with_top_k(4),
        SimRankConfig::new(0.8, 0.005, Some(4)).unwrap(),
    ] {
        let report = replay_at_both_widths(&g, cfg, &trace);
        assert!(report.rows_changed > 0);
    }
}

#[test]
fn repair_replays_to_the_coupled_operator_through_no_op_and_round_trip_batches() {
    use EdgeUpdate::{Delete, Insert};
    let g = power_law_graph(120, 30, 9);
    let (u, v) = g.edges().next().unwrap();
    let trace = vec![
        // Delete-then-readd inside one batch, a duplicate insert, a missing
        // delete, a self-loop: no adjacency changes.
        vec![
            Delete(u, v),
            Insert(v, u),
            Insert(u, v),
            Delete(0, 0),
            Insert(7, 7),
        ],
        vec![],
        // Delete now, re-add in the next batch.
        vec![Delete(u, v)],
        vec![Insert(u, v)],
    ];
    for cfg in [
        SimRankConfig::default().with_top_k(8),
        SimRankConfig::new(0.6, 0.02, Some(8)).unwrap(),
    ] {
        let report = replay_at_both_widths(&g, cfg, &trace);
        assert!(report.rows_changed > 0);
    }
}
