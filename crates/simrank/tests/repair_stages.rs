//! With the `obs` feature on, one repair's wall time splits into the three
//! `sigma_simrank_repair_*_ns` stage histograms, and the row counter reports
//! what the replay re-pulled.
//!
//! A test binary of its own on purpose: the stage metrics are process-wide
//! statics, so before/after deltas are exact only while no other test in the
//! process repairs beside this one. Keep it the only test in this file.

#![cfg(feature = "obs")]

use sigma_obs::MetricValue;
use sigma_simrank::{DynamicSimRank, EdgeUpdate, RepairOutcome, SimRankConfig};
use sigma_testutil::random_graph;
use std::time::Instant;

const STAGES: [&str; 3] = ["dirty_scan", "replay", "diff"];

/// `(samples, summed nanoseconds)` of each stage histogram so far.
fn stage_totals() -> Vec<(u64, u64)> {
    let snapshot = sigma_obs::snapshot();
    let stage = |name: &&str| match snapshot.get(&format!("sigma_simrank_repair_{name}_ns")) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        _ => (0, 0),
    };
    STAGES.iter().map(stage).collect()
}

#[test]
fn repair_stages_add_up_to_the_repair() {
    // Big enough that a repair runs for milliseconds: the untimed rest of
    // `repair` (argument checks, clearing the edit sets) is microseconds.
    let graph = random_graph(1500, 6000, 9);
    let config = SimRankConfig::new(0.6, 0.05, Some(8)).unwrap();
    let mut maintainer = DynamicSimRank::new(graph, config, usize::MAX).unwrap();
    let _ = maintainer.operator().unwrap();
    maintainer
        .apply_batch(&[EdgeUpdate::Insert(3, 700), EdgeUpdate::Insert(40, 1100)])
        .unwrap();

    let before = stage_totals();
    let rows = || sigma_obs::snapshot().counter("sigma_simrank_repair_rows_total");
    let rows_before = rows();
    let start = Instant::now();
    let outcome = maintainer.repair().unwrap();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = stage_totals();

    let RepairOutcome::Patched(repair) = outcome else {
        panic!("expected a patch, got {outcome:?}");
    };
    let mut staged_ns = 0;
    for ((name, before), after) in STAGES.iter().zip(before).zip(after) {
        assert_eq!(after.0, before.0 + 1, "stage {name}: one sample per repair");
        staged_ns += after.1 - before.1;
    }
    // The laps are back to back inside the timed call, so they can only
    // fall short of it, and only by the untimed rest.
    assert!(
        staged_ns <= wall_ns,
        "stages {staged_ns} ns > wall {wall_ns} ns"
    );
    assert!(
        wall_ns - staged_ns <= wall_ns / 10 + 100_000,
        "stages {staged_ns} ns leave too much of wall {wall_ns} ns unattributed"
    );
    assert_eq!(rows() - rows_before, repair.dirty_seeds as u64);
    assert!(repair.dirty_seeds >= repair.changed_rows.len());
}
