//! Structured snapshots of trained SIGMA models.
//!
//! A [`ModelSnapshot`] captures everything needed to reconstruct a trained
//! [`crate::SigmaModel`] away from its training [`crate::GraphContext`]: the
//! three MLP weight stacks, the scalar hyper-parameters of Eq. 4–6, and the
//! constant top-k aggregation operator that was resolved at training time.
//! The `sigma-serve` crate serialises this structure to a versioned binary
//! file and serves node-classification queries from it; restoring back into
//! a [`crate::SigmaModel`] yields a model whose eval-mode forward pass is
//! bitwise-identical to the original.

use crate::models::sigma_model::AggregatorKind;
use sigma_matrix::{CsrMatrix, DenseMatrix};

/// One MLP's parameters: `(weight, bias)` per layer, input to output.
pub type MlpWeights = Vec<(DenseMatrix, DenseMatrix)>;

/// A self-contained record of a trained SIGMA model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Feature factor `δ` of Eq. 4.
    pub delta: f64,
    /// Fixed local/global balance `α` of Eq. 6 (the effective value when
    /// `alpha_raw` is `None`).
    pub alpha: f64,
    /// Raw learnable parameter `a` with `α = sigmoid(a)`, if α was learned.
    pub alpha_raw: Option<f32>,
    /// Dropout probability the MLPs were trained with (inactive at serve
    /// time, but needed to restore a trainable model).
    pub dropout: f32,
    /// Whether the model aggregates (with `operator`).
    pub aggregator: AggregatorKind,
    /// The resolved aggregation operator: present for
    /// [`AggregatorKind::SimRank`] (the context's `S`, or the ablation
    /// operator it was built with), absent for [`AggregatorKind::None`].
    /// Restoring feeds it back through
    /// [`crate::ContextBuilder::with_simrank_operator`] or the serve engine.
    pub operator: Option<CsrMatrix>,
    /// Weights of `MLP_A` (topology embedding; input dim = `n`).
    pub mlp_a: MlpWeights,
    /// Weights of `MLP_X` (feature embedding; input dim = `f`).
    pub mlp_x: MlpWeights,
    /// Weights of `MLP_H` (combiner; output dim = number of classes).
    pub mlp_h: MlpWeights,
}

impl ModelSnapshot {
    /// The effective `α` (learned value if present, fixed value otherwise).
    pub fn effective_alpha(&self) -> f64 {
        match self.alpha_raw {
            Some(raw) => 1.0 / (1.0 + (-raw as f64).exp()),
            None => self.alpha,
        }
    }

    /// Number of nodes the model was trained on (input width of `MLP_A`).
    pub fn num_nodes(&self) -> usize {
        self.mlp_a.first().map(|(w, _)| w.rows()).unwrap_or(0)
    }

    /// Feature dimensionality (input width of `MLP_X`).
    pub fn feature_dim(&self) -> usize {
        self.mlp_x.first().map(|(w, _)| w.rows()).unwrap_or(0)
    }

    /// Number of classes (output width of `MLP_H`).
    pub fn num_classes(&self) -> usize {
        self.mlp_h.last().map(|(_, b)| b.cols()).unwrap_or(0)
    }

    /// Total trainable parameter count recorded in the snapshot.
    pub fn num_parameters(&self) -> usize {
        let count = |stack: &MlpWeights| -> usize {
            stack
                .iter()
                .map(|(w, b)| w.rows() * w.cols() + b.cols())
                .sum()
        };
        count(&self.mlp_a)
            + count(&self.mlp_x)
            + count(&self.mlp_h)
            + usize::from(self.alpha_raw.is_some())
    }

    /// Structural sanity checks: stacks non-empty, `MLP_A`/`MLP_X` output
    /// widths equal (they are combined by Eq. 4), and an `n × n` operator
    /// present exactly when the model aggregates.
    pub fn validate(&self) -> crate::Result<()> {
        let fail = |reason: String| crate::SigmaError::InvalidHyperParameter {
            name: "snapshot",
            reason,
        };
        for (name, stack) in [
            ("MLP_A", &self.mlp_a),
            ("MLP_X", &self.mlp_x),
            ("MLP_H", &self.mlp_h),
        ] {
            if stack.is_empty() {
                return Err(fail(format!(
                    "snapshot contains an empty {name} weight stack"
                )));
            }
            for (i, (weight, bias)) in stack.iter().enumerate() {
                if bias.rows() != 1 || bias.cols() != weight.cols() {
                    return Err(fail(format!(
                        "{name} layer {i}: bias shape {:?} does not match weight shape {:?}",
                        bias.shape(),
                        weight.shape()
                    )));
                }
                if let Some((next_weight, _)) = stack.get(i + 1) {
                    if next_weight.rows() != weight.cols() {
                        return Err(fail(format!(
                            "{name} layers {i} and {}: output width {} does not chain into input width {}",
                            i + 1,
                            weight.cols(),
                            next_weight.rows()
                        )));
                    }
                }
            }
        }
        let a_out = self.mlp_a.last().map(|(_, b)| b.cols()).unwrap_or(0);
        let x_out = self.mlp_x.last().map(|(_, b)| b.cols()).unwrap_or(0);
        if a_out != x_out {
            return Err(fail(format!(
                "MLP_A output width {a_out} does not match MLP_X output width {x_out}"
            )));
        }
        let h_in = self.mlp_h.first().map(|(w, _)| w.rows()).unwrap_or(0);
        if h_in != x_out {
            return Err(fail(format!(
                "MLP_H input width {h_in} does not match embedding width {x_out}"
            )));
        }
        if self.operator.is_some() != (self.aggregator == AggregatorKind::SimRank) {
            return Err(fail(format!(
                "aggregator {:?} does not match the snapshot's operator (shape {:?})",
                self.aggregator,
                self.operator.as_ref().map(CsrMatrix::shape)
            )));
        }
        if let Some(op) = &self.operator {
            let n = self.num_nodes();
            if op.shape() != (n, n) {
                return Err(fail(format!(
                    "operator shape {:?} does not match node count {n}",
                    op.shape()
                )));
            }
        }
        Ok(())
    }
}
