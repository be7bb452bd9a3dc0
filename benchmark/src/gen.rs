//! Input generators. Everything a workload feeds the program comes from
//! here and from `--seed`; the same seed gives the same inputs.
//!
//! `pseudo`, `power_law_graph`, `synthetic_operator` and `build_snapshot`
//! are copies of the generators in `crates/bench/benches/snapshot_coldstart.rs`
//! and `ZipfSampler` of the one in `serving_load.rs`, so those benches can
//! be edited or deleted without moving this benchmark's inputs.

use crate::report::RunError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sigma::snapshot::ModelSnapshot;
use sigma::AggregatorKind;
use sigma_graph::Graph;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_serve::ServeSnapshot;
use sigma_simrank::{EdgeUpdate, SimRankConfig};
use std::path::{Path, PathBuf};

const FEATURE_DIM: usize = 64;
const HIDDEN: usize = 32;
const CLASSES: usize = 8;
const TOP_K: usize = 8;

/// The paper's LocalPush settings (`c = 0.6`, `ε = 0.1`, top-16), shared by
/// the two workloads that build a real operator.
pub fn simrank_config() -> SimRankConfig {
    use crate::spec::{SIMRANK_DECAY, SIMRANK_EPSILON, SIMRANK_TOP_K};
    SimRankConfig::new(SIMRANK_DECAY, SIMRANK_EPSILON, Some(SIMRANK_TOP_K))
        .expect("the benchmark's SimRank constants are valid")
}

/// Where a run keeps its snapshot file; the process id keeps concurrent
/// runs apart.
pub fn snapshot_file(out: &Path, tag: &str) -> PathBuf {
    out.join(format!("{tag}-{}.snapshot", std::process::id()))
}

/// An independent seed for one named input stream of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut h = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Deterministic value noise in `[-1, 1)` (splitmix-style finaliser).
fn pseudo(i: usize, j: usize, seed: u64) -> f32 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// A power-law graph: ring base plus harmonically decaying head degrees.
fn power_law_graph(n: usize, max_deg: usize, seed: u64) -> Graph {
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

/// A top-k row-sparse operator standing in for the SimRank matrix: the
/// serving workloads measure storage and query paths, not aggregation
/// quality, and skip the LocalPush solve that would dominate set-up.
fn synthetic_operator(n: usize, seed: u64) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(n * TOP_K);
    for i in 0..n {
        for k in 0..TOP_K {
            let j = (i + 1 + (k * k + 3 * k) + (seed as usize % 7)) % n;
            triplets.push((i, j, pseudo(i, j, seed).abs() / TOP_K as f32 + 1e-3));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("valid triplets")
}

fn layer(rows: usize, cols: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    (
        DenseMatrix::from_fn(rows, cols, move |i, j| pseudo(i, j, seed) * 0.2),
        DenseMatrix::from_fn(1, cols, move |_, j| pseudo(j, 1, seed) * 0.05),
    )
}

/// A serving snapshot of `n` nodes (top-8 operator, 64 features, hidden 32,
/// 8 classes) with seed-derived weights and features and the embedding
/// section precomputed.
fn build_snapshot(n: usize, seed: u64) -> ServeSnapshot {
    let graph = power_law_graph(n, 64, seed);
    let model = ModelSnapshot {
        delta: 0.6,
        alpha: 0.25,
        alpha_raw: None,
        dropout: 0.0,
        aggregator: AggregatorKind::SimRank,
        operator: Some(synthetic_operator(n, seed ^ 0x0b)),
        mlp_a: vec![
            layer(n, HIDDEN, seed ^ 0xa1),
            layer(HIDDEN, HIDDEN, seed ^ 0xa2),
        ],
        mlp_x: vec![
            layer(FEATURE_DIM, HIDDEN, seed ^ 0xb1),
            layer(HIDDEN, HIDDEN, seed ^ 0xb2),
        ],
        mlp_h: vec![layer(HIDDEN, CLASSES, seed ^ 0xc1)],
    };
    let features = DenseMatrix::from_fn(n, FEATURE_DIM, move |i, j| pseudo(i, j, seed ^ 0xfe));
    let mut snapshot = ServeSnapshot::new(
        format!("benchmark-{n}-{seed}"),
        model,
        features,
        graph.to_adjacency(),
    )
    .expect("valid snapshot");
    snapshot
        .precompute_embeddings()
        .expect("encoder over the generated graph");
    snapshot
}

/// Generates the serving snapshot and writes it to `path` (format v2).
pub fn save_snapshot(n: usize, seed: u64, path: &Path) -> Result<(), RunError> {
    build_snapshot(n, seed)
        .save(path)
        .map_err(|e| RunError::Setup(format!("saving {}: {e}", path.display())))
}

/// Inverse-CDF Zipfian sampler over `n` nodes: rank `r` (0-based) is drawn
/// with probability proportional to `(r + 1)^-skew`, and ranks map to node
/// ids through a seeded permutation so popularity is independent of id.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    node_of_rank: Vec<usize>,
}

impl ZipfSampler {
    pub fn new(n: usize, skew: f64, seed: u64) -> Self {
        let mut node_of_rank: Vec<usize> = (0..n).collect();
        node_of_rank.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += ((rank + 1) as f64).powf(-skew);
            cumulative.push(acc);
        }
        Self {
            cumulative,
            node_of_rank,
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let u = rng.gen_range(0.0..total);
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.node_of_rank[rank.min(self.node_of_rank.len() - 1)]
    }

    /// The `count` most popular nodes, most popular first.
    pub fn hottest(&self, count: usize) -> &[usize] {
        &self.node_of_rank[..count.min(self.node_of_rank.len())]
    }
}

/// Draws one entry of a `(value, weight)` mix.
pub fn sample_mix(mix: &[(usize, u32)], rng: &mut StdRng) -> usize {
    let total: u32 = mix.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(value, weight) in mix {
        if pick < weight {
            return value;
        }
        pick -= weight;
    }
    mix.last().expect("non-empty mix").0
}

/// A seeded edit trace: `batches` batches of `per_batch` edits over
/// `graph`, alternating insertions of random pairs with deletions of edges
/// the graph starts with.
pub fn edit_trace(
    graph: &Graph,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<Vec<EdgeUpdate>> {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deletable: Vec<(usize, usize)> = graph.edges().collect();
    deletable.shuffle(&mut rng);
    let mut next_delete = deletable.into_iter();
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|j| {
                    if j % 2 == 0 {
                        let u = rng.gen_range(0..n);
                        let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
                        EdgeUpdate::Insert(u, v)
                    } else {
                        match next_delete.next() {
                            Some((u, v)) => EdgeUpdate::Delete(u, v),
                            None => EdgeUpdate::Insert(rng.gen_range(0..n), rng.gen_range(0..n)),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Due times, in nanoseconds from the phase start, of a Poisson arrival
/// process at `rate_per_s` lasting `seconds`: independent users.
pub fn poisson_schedule(rate_per_s: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |sampler_seed: u64, rng_seed: u64| {
            let sampler = ZipfSampler::new(500, 1.25, sampler_seed);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            (0..200)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 9), draw(7, 9));
        assert_ne!(draw(7, 9), draw(8, 9));
        assert_ne!(draw(7, 9), draw(7, 10));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let sampler = ZipfSampler::new(1000, 1.25, 3);
        let hot: std::collections::HashSet<usize> = sampler.hottest(10).iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000)
            .filter(|_| hot.contains(&sampler.sample(&mut rng)))
            .count();
        // The ten hottest of a thousand carry over half the mass at 1.25.
        assert!(hits > 5_000, "{hits}");
    }

    #[test]
    fn poisson_schedule_is_sorted_seeded_and_near_its_rate() {
        let a = poisson_schedule(2_000.0, 2.0, 5);
        assert_eq!(a, poisson_schedule(2_000.0, 2.0, 5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((3_600..4_400).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn edit_trace_is_seeded_and_in_bounds() {
        let graph = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let a = edit_trace(&graph, 3, 4, 11);
        assert_eq!(a, edit_trace(&graph, 3, 4, 11));
        assert_ne!(a, edit_trace(&graph, 3, 4, 12));
        for update in a.iter().flatten() {
            let (u, v) = match *update {
                EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
            };
            assert!(u < 6 && v < 6);
        }
    }

    #[test]
    fn mix_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = &[(16usize, 40u32), (64, 50), (128, 10)];
        let draws: Vec<usize> = (0..10_000).map(|_| sample_mix(mix, &mut rng)).collect();
        let share = |v: usize| draws.iter().filter(|&&d| d == v).count() as f64 / 1e4;
        assert!((share(16) - 0.4).abs() < 0.03);
        assert!((share(64) - 0.5).abs() < 0.03);
        assert!((share(128) - 0.1).abs() < 0.03);
    }
}
