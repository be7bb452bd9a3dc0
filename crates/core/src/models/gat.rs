//! Graph Attention Network (Veličković et al. 2018).
//!
//! Each layer computes per-edge attention coefficients
//!
//! ```text
//! e_ij = LeakyReLU(a_srcᵀ·(W·h_i) + a_dstᵀ·(W·h_j))
//! α_ij = softmax_{j ∈ N(i) ∪ {i}}(e_ij)
//! h'_i = Σ_j α_ij · (W·h_j)
//! ```
//!
//! GAT is the canonical *learned, local* aggregation the paper contrasts with
//! SIGMA's constant global operator (Table V, and the Graph-Transformer
//! discussion of Section III-D): the attention weights must be recomputed and
//! differentiated in every epoch and only cover immediate neighbours, so the
//! model both costs `O(m·f)` per layer per epoch and still cannot see distant
//! homophilous nodes. A single attention head per layer is used (the paper's
//! baselines table does not specify the head count; multi-head attention only
//! changes constants, not the comparison's shape), and dropout is applied to
//! hidden activations but not to the attention coefficients.

use crate::{GraphContext, Model, ModelHyperParams, Result};
use rand::rngs::StdRng;
use rand::Rng;
use sigma_matrix::DenseMatrix;
use sigma_nn::{dropout_forward, relu_backward, relu_forward, DropoutMask, Linear, Optimizer};
use std::time::{Duration, Instant};

/// Negative slope of the LeakyReLU applied to raw attention logits.
const LEAKY_SLOPE: f32 = 0.2;

/// Adjacency with self-loops in CSR layout, shared by both attention layers.
#[derive(Debug, Clone)]
struct EdgeIndex {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl EdgeIndex {
    fn from_context(ctx: &GraphContext) -> Self {
        let graph = &ctx.dataset().graph;
        let n = graph.num_nodes();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(graph.num_arcs() + n);
        indptr.push(0);
        for u in 0..n {
            // Self-loop first, then the graph neighbours (order is irrelevant
            // to the softmax but kept stable for reproducibility).
            indices.push(u as u32);
            indices.extend_from_slice(graph.neighbors(u));
            indptr.push(indices.len());
        }
        Self { indptr, indices }
    }

    fn row(&self, u: usize) -> &[u32] {
        &self.indices[self.indptr[u]..self.indptr[u + 1]]
    }

    fn row_range(&self, u: usize) -> std::ops::Range<usize> {
        self.indptr[u]..self.indptr[u + 1]
    }

    fn num_edges(&self) -> usize {
        self.indices.len()
    }

    fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }
}

/// One single-head attention layer with exact manual gradients.
#[derive(Debug)]
struct GatLayer {
    linear: Linear,
    /// Source-side attention vector (`f' × 1`).
    a_src: DenseMatrix,
    /// Destination-side attention vector (`f' × 1`).
    a_dst: DenseMatrix,
    a_src_grad: DenseMatrix,
    a_dst_grad: DenseMatrix,
    cache: Option<LayerCache>,
}

#[derive(Debug)]
struct LayerCache {
    /// `Z = W·H` for every node.
    z: DenseMatrix,
    /// Raw (pre-LeakyReLU) attention logits per edge.
    pre: Vec<f32>,
    /// Normalised attention coefficients per edge.
    alpha: Vec<f32>,
}

impl GatLayer {
    fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let scale = (2.0 / out_features as f32).sqrt();
        let mut init = || {
            DenseMatrix::from_fn(out_features, 1, |_, _| {
                (rng.gen::<f32>() * 2.0 - 1.0) * scale
            })
        };
        let a_src = init();
        let a_dst = init();
        Self {
            linear: Linear::new(in_features, out_features, rng),
            a_src,
            a_dst,
            a_src_grad: DenseMatrix::zeros(out_features, 1),
            a_dst_grad: DenseMatrix::zeros(out_features, 1),
            cache: None,
        }
    }

    fn out_features(&self) -> usize {
        self.linear.out_features()
    }

    fn num_parameters(&self) -> usize {
        self.linear.num_parameters() + 2 * self.out_features()
    }

    /// Per-node attention scores `Z·a` for one side of the edge.
    fn side_scores(z: &DenseMatrix, a: &DenseMatrix) -> Vec<f32> {
        (0..z.rows())
            .map(|i| {
                z.row(i)
                    .iter()
                    .zip(a.as_slice())
                    .map(|(&zi, &ai)| zi * ai)
                    .sum()
            })
            .collect()
    }

    // Attention assembles several parallel per-node arrays; indexed loops are
    // clearer than zipped iterators here.
    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, x: &DenseMatrix, edges: &EdgeIndex) -> Result<DenseMatrix> {
        let z: DenseMatrix = self.linear.forward(x)?;
        let f = z.cols();
        let n = edges.num_nodes();
        let s = Self::side_scores(&z, &self.a_src);
        let t = Self::side_scores(&z, &self.a_dst);

        let mut pre = vec![0.0f32; edges.num_edges()];
        let mut alpha = vec![0.0f32; edges.num_edges()];
        let mut out = DenseMatrix::zeros(n, f);
        for i in 0..n {
            let range = edges.row_range(i);
            let neighbours = edges.row(i);
            // Raw logits and the row-wise max for a numerically stable softmax.
            let mut row_max = f32::NEG_INFINITY;
            for (offset, &j) in neighbours.iter().enumerate() {
                let raw = s[i] + t[j as usize];
                let activated = if raw > 0.0 { raw } else { LEAKY_SLOPE * raw };
                pre[range.start + offset] = raw;
                alpha[range.start + offset] = activated;
                row_max = row_max.max(activated);
            }
            let mut row_sum = 0.0f32;
            for e in range.clone() {
                let v = (alpha[e] - row_max).exp();
                alpha[e] = v;
                row_sum += v;
            }
            let inv = 1.0 / row_sum.max(f32::MIN_POSITIVE);
            let out_row_start = i * f;
            for (offset, &j) in neighbours.iter().enumerate() {
                let e = range.start + offset;
                alpha[e] *= inv;
                let weight = alpha[e];
                let z_row = z.row(j as usize);
                let out_row = &mut out.as_mut_slice()[out_row_start..out_row_start + f];
                for (o, &zv) in out_row.iter_mut().zip(z_row) {
                    *o += weight * zv;
                }
            }
        }
        self.cache = Some(LayerCache { z, pre, alpha });
        Ok(out)
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(&mut self, grad_out: &DenseMatrix, edges: &EdgeIndex) -> Result<DenseMatrix> {
        let cache = self
            .cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "GatLayer" })?;
        let z = &cache.z;
        let f = z.cols();
        let n = edges.num_nodes();

        // Gradient w.r.t. Z through the aggregation (α held at its value) and
        // w.r.t. the attention coefficients.
        let mut d_z = DenseMatrix::zeros(n, f);
        let mut d_alpha = vec![0.0f32; edges.num_edges()];
        for i in 0..n {
            let range = edges.row_range(i);
            let g_row = grad_out.row(i);
            for (offset, &j) in edges.row(i).iter().enumerate() {
                let e = range.start + offset;
                let weight = cache.alpha[e];
                let z_row = z.row(j as usize);
                let mut dot = 0.0f32;
                let d_row_start = j as usize * f;
                let d_row = &mut d_z.as_mut_slice()[d_row_start..d_row_start + f];
                for ((d, &g), &zv) in d_row.iter_mut().zip(g_row).zip(z_row) {
                    *d += weight * g;
                    dot += g * zv;
                }
                d_alpha[e] = dot;
            }
        }

        // Softmax backward (per destination row) and LeakyReLU backward give
        // the gradient w.r.t. the raw logits, which splits into per-node
        // source / destination score gradients.
        let mut d_s = vec![0.0f32; n];
        let mut d_t = vec![0.0f32; n];
        for i in 0..n {
            let range = edges.row_range(i);
            let weighted_sum: f32 = range.clone().map(|e| cache.alpha[e] * d_alpha[e]).sum();
            for (offset, &j) in edges.row(i).iter().enumerate() {
                let e = range.start + offset;
                let d_e = cache.alpha[e] * (d_alpha[e] - weighted_sum);
                let d_raw = if cache.pre[e] > 0.0 {
                    d_e
                } else {
                    LEAKY_SLOPE * d_e
                };
                d_s[i] += d_raw;
                d_t[j as usize] += d_raw;
            }
        }

        // d a_src = Zᵀ·d_s, d a_dst = Zᵀ·d_t, and the score paths feed back
        // into Z as rank-one updates d_z_i += d_s_i·a_src + d_t_i·a_dst.
        for i in 0..n {
            let z_row = z.row(i);
            for k in 0..f {
                self.a_src_grad
                    .set(k, 0, self.a_src_grad.get(k, 0) + d_s[i] * z_row[k]);
                self.a_dst_grad
                    .set(k, 0, self.a_dst_grad.get(k, 0) + d_t[i] * z_row[k]);
            }
            let d_row_start = i * f;
            let d_row = &mut d_z.as_mut_slice()[d_row_start..d_row_start + f];
            for (k, d) in d_row.iter_mut().enumerate() {
                *d += d_s[i] * self.a_src.get(k, 0) + d_t[i] * self.a_dst.get(k, 0);
            }
        }

        Ok(self.linear.backward(&d_z)?)
    }

    fn zero_grad(&mut self) {
        self.linear.zero_grad();
        self.a_src_grad.fill_zero();
        self.a_dst_grad.fill_zero();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer, key_base: usize) -> Result<()> {
        self.linear.apply_gradients(optimizer, key_base)?;
        optimizer.update(key_base + 2, &mut self.a_src, &self.a_src_grad)?;
        optimizer.update(key_base + 3, &mut self.a_dst, &self.a_dst_grad)?;
        Ok(())
    }
}

/// A two-layer, single-head Graph Attention Network.
#[derive(Debug)]
pub struct Gat {
    layer1: GatLayer,
    layer2: GatLayer,
    edges: EdgeIndex,
    dropout: f32,
    hidden_cache: Option<(DenseMatrix, DropoutMask)>,
    agg_time: Duration,
}

impl Gat {
    /// Builds a 2-layer GAT for the given context.
    pub fn new<R: Rng + ?Sized>(ctx: &GraphContext, hyper: &ModelHyperParams, rng: &mut R) -> Self {
        Self {
            layer1: GatLayer::new(ctx.feature_dim(), hyper.hidden, rng),
            layer2: GatLayer::new(hyper.hidden, ctx.num_classes(), rng),
            edges: EdgeIndex::from_context(ctx),
            dropout: hyper.dropout,
            hidden_cache: None,
            agg_time: Duration::ZERO,
        }
    }

    /// Attention coefficients of the first layer from the last forward pass,
    /// as `(destination, source, α)` triples. Exposed for inspection and
    /// tests; rows sum to one.
    pub fn last_attention(&self) -> Option<Vec<(usize, usize, f32)>> {
        let cache = self.layer1.cache.as_ref()?;
        let mut out = Vec::with_capacity(self.edges.num_edges());
        for i in 0..self.edges.num_nodes() {
            let range = self.edges.row_range(i);
            for (offset, &j) in self.edges.row(i).iter().enumerate() {
                out.push((i, j as usize, cache.alpha[range.start + offset]));
            }
        }
        Some(out)
    }
}

impl Model for Gat {
    fn name(&self) -> &'static str {
        "GAT"
    }

    fn forward(
        &mut self,
        ctx: &GraphContext,
        training: bool,
        rng: &mut StdRng,
    ) -> Result<DenseMatrix> {
        let start = Instant::now();
        let pre_hidden = self.layer1.forward(ctx.features(), &self.edges)?;
        let activated = relu_forward(&pre_hidden);
        let (dropped, mask) = dropout_forward(&activated, self.dropout, training, rng);
        let logits = self.layer2.forward(&dropped, &self.edges)?;
        self.hidden_cache = Some((pre_hidden, mask));
        self.agg_time += start.elapsed();
        Ok(logits)
    }

    fn backward(&mut self, _ctx: &GraphContext, grad_logits: &DenseMatrix) -> Result<()> {
        let (pre_hidden, mask) = self
            .hidden_cache
            .take()
            .ok_or(sigma_nn::NnError::MissingForwardCache { layer: "Gat" })?;
        let start = Instant::now();
        let d_hidden = self.layer2.backward(grad_logits, &self.edges)?;
        let d_hidden = mask.backward(&d_hidden);
        let d_hidden = relu_backward(&d_hidden, &pre_hidden);
        self.layer1.backward(&d_hidden, &self.edges)?;
        self.agg_time += start.elapsed();
        Ok(())
    }

    fn zero_grad(&mut self) {
        self.layer1.zero_grad();
        self.layer2.zero_grad();
    }

    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<()> {
        self.layer1.apply_gradients(optimizer, 0)?;
        self.layer2.apply_gradients(optimizer, 4)?;
        Ok(())
    }

    fn num_parameters(&self) -> usize {
        self.layer1.num_parameters() + self.layer2.num_parameters()
    }

    fn take_aggregation_time(&mut self) -> Duration {
        std::mem::take(&mut self.agg_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{small_context, split_for, train_briefly};
    use rand::SeedableRng;
    use sigma_nn::softmax_cross_entropy_masked;

    #[test]
    fn forward_shape_and_finite() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Gat::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let logits = model.forward(&ctx, false, &mut rng).unwrap();
        assert_eq!(logits.shape(), (ctx.num_nodes(), ctx.num_classes()));
        assert!(logits.is_finite());
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Gat::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let _ = model.forward(&ctx, false, &mut rng).unwrap();
        let attention = model.last_attention().unwrap();
        let mut row_sums = vec![0.0f32; ctx.num_nodes()];
        for (dst, _, alpha) in &attention {
            assert!(*alpha >= 0.0);
            row_sums[*dst] += alpha;
        }
        for (i, sum) in row_sums.iter().enumerate() {
            assert!((sum - 1.0).abs() < 1e-4, "row {i} attention sums to {sum}");
        }
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let hyper = ModelHyperParams::small().with_dropout(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = Gat::new(&ctx, &hyper, &mut rng);

        let logits = model.forward(&ctx, true, &mut rng).unwrap();
        let (_, grad) = softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(&ctx, &grad).unwrap();
        let analytic = model.layer1.a_src_grad.get(0, 0);

        let eps = 5e-3f32;
        let loss_at = |model: &mut Gat, value: f32, rng: &mut StdRng| -> f32 {
            model.layer1.a_src.set(0, 0, value);
            let logits = model.forward(&ctx, false, rng).unwrap();
            softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train)
                .unwrap()
                .0
        };
        let base = model.layer1.a_src.get(0, 0);
        let hi = loss_at(&mut model, base + eps, &mut rng);
        let lo = loss_at(&mut model, base - eps, &mut rng);
        let numeric = (hi - lo) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 3e-2_f32.max(0.2 * numeric.abs()),
            "a_src gradient mismatch: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn learns_on_training_split() {
        let ctx = small_context();
        let split = split_for(&ctx);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Gat::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let (initial, final_acc) = train_briefly(&mut model, &ctx, &split, 80);
        assert!(
            final_acc > initial + 0.05 || final_acc > 0.6,
            "GAT failed to learn: {initial} -> {final_acc}"
        );
        assert!(model.take_aggregation_time() > Duration::ZERO);
    }

    #[test]
    fn backward_requires_forward() {
        let ctx = small_context();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Gat::new(&ctx, &ModelHyperParams::small(), &mut rng);
        let grad = DenseMatrix::zeros(ctx.num_nodes(), ctx.num_classes());
        assert!(model.backward(&ctx, &grad).is_err());
    }
}
