//! Seeded random graphs and edge-edit traces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigma_graph::Graph;
use sigma_simrank::EdgeUpdate;

/// Shape knobs for [`random_trace`].
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Number of edit batches.
    pub batches: usize,
    /// Edits per batch.
    pub batch_len: usize,
    /// Probability that an edit is a deletion (targeting an existing edge
    /// when possible, so deletions actually change topology).
    pub delete_probability: f64,
    /// Probability that a just-deleted edge is immediately re-added within
    /// the same batch — the delete-then-readd shape that must repair back to
    /// the original state bitwise.
    pub readd_probability: f64,
}

impl Default for TraceShape {
    fn default() -> Self {
        Self {
            batches: 3,
            batch_len: 4,
            delete_probability: 0.35,
            readd_probability: 0.25,
        }
    }
}

/// A connected-ish random graph: a ring backbone (so no node is isolated and
/// SimRank scores are non-trivial everywhere) plus `extra_edges` random
/// chords. Deterministic in `seed`.
pub fn random_graph(num_nodes: usize, extra_edges: usize, seed: u64) -> Graph {
    assert!(num_nodes >= 3, "random_graph needs at least 3 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = (0..num_nodes).map(|i| (i, (i + 1) % num_nodes)).collect();
    for _ in 0..extra_edges {
        let a = rng.gen_range(0..num_nodes);
        let b = rng.gen_range(0..num_nodes);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(num_nodes, &edges).expect("generated edges are in bounds")
}

/// A power-law graph: a sparse ring base plus head nodes whose degree
/// decays harmonically from `max_deg` — the degree skew of the paper's
/// pokec-style scalability graphs, concentrated enough that equal-row-count
/// partitioning visibly serialises behind the head.
pub fn power_law_graph(n: usize, max_deg: usize, seed: u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        edges.push((u, (u + 1) % n));
        edges.push((u, (u + 7) % n));
    }
    for i in 0..n {
        let extra = max_deg / (i + 1);
        for e in 0..extra {
            let j = (i + 11 + e * 13 + (seed as usize % 17)) % n;
            if i != j {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("in-bounds edges")
}

/// A random edit trace over `graph`, deterministic in `seed`.
///
/// The generator tracks the evolving edge set so deletions usually hit live
/// edges and re-adds restore just-deleted ones; it also sprinkles in no-op
/// edits (duplicate inserts, deletes of absent edges) to exercise the
/// maintainer's no-op handling. Returned as batches, the granularity at
/// which repair is invoked.
pub fn random_trace(graph: &Graph, shape: TraceShape, seed: u64) -> Vec<Vec<EdgeUpdate>> {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_7ace);
    let mut live: Vec<(usize, usize)> = graph.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
    live.sort_unstable();
    live.dedup();
    let mut batches = Vec::with_capacity(shape.batches);
    for _ in 0..shape.batches {
        let mut batch = Vec::with_capacity(shape.batch_len);
        while batch.len() < shape.batch_len {
            if !live.is_empty() && rng.gen_bool(shape.delete_probability) {
                let idx = rng.gen_range(0..live.len());
                let (a, b) = live.swap_remove(idx);
                batch.push(EdgeUpdate::Delete(a, b));
                if rng.gen_bool(shape.readd_probability) && batch.len() < shape.batch_len {
                    batch.push(EdgeUpdate::Insert(a, b));
                    live.push((a, b));
                }
            } else {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    // Self-loop: a guaranteed no-op edit, kept on purpose.
                    batch.push(EdgeUpdate::Insert(a, b));
                    continue;
                }
                let edge = (a.min(b), a.max(b));
                batch.push(EdgeUpdate::Insert(edge.0, edge.1));
                if !live.contains(&edge) {
                    live.push(edge);
                }
            }
        }
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_and_traces_are_deterministic_in_their_seed() {
        let g1 = random_graph(20, 15, 7);
        let g2 = random_graph(20, 15, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.indices(), g2.indices());
        let t1 = random_trace(&g1, TraceShape::default(), 7);
        let t2 = random_trace(&g2, TraceShape::default(), 7);
        assert_eq!(t1, t2);
        assert_ne!(
            random_graph(20, 15, 8).indices(),
            g1.indices(),
            "different seeds should give different graphs"
        );
    }

    #[test]
    fn traces_contain_real_deletions() {
        let g = random_graph(30, 40, 3);
        let shape = TraceShape {
            batches: 5,
            batch_len: 6,
            delete_probability: 0.9,
            readd_probability: 0.0,
        };
        let trace = random_trace(&g, shape, 3);
        let deletes = trace
            .iter()
            .flatten()
            .filter(|u| matches!(u, EdgeUpdate::Delete(_, _)))
            .count();
        assert!(deletes > 0, "a delete-heavy shape produced no deletions");
    }
}
