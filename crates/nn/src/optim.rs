//! Optimizers.
//!
//! Parameters are identified by a caller-chosen `key` so that stateful
//! optimizers (Adam's first/second-moment estimates) can track them without
//! the layers having to hand out long-lived mutable borrows.

use crate::{NnError, Result};
use sigma_matrix::DenseMatrix;
use std::collections::HashMap;

/// A gradient-descent style optimizer operating on one parameter at a time.
pub trait Optimizer {
    /// Applies one update to `param` given its gradient. `key` must be a
    /// stable, unique identifier for this parameter across steps.
    fn update(&mut self, key: usize, param: &mut DenseMatrix, grad: &DenseMatrix) -> Result<()>;

    /// Signals that a new optimisation step begins (increments Adam's time
    /// counter). Call once per training iteration, before the per-parameter
    /// updates.
    fn begin_step(&mut self) {}

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent with optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Sets L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _key: usize, param: &mut DenseMatrix, grad: &DenseMatrix) -> Result<()> {
        if param.shape() != grad.shape() {
            return Err(NnError::Matrix(
                sigma_matrix::MatrixError::DimensionMismatch {
                    op: "sgd_update",
                    lhs: param.shape(),
                    rhs: grad.shape(),
                },
            ));
        }
        let lr = self.lr;
        let wd = self.weight_decay;
        for (p, &g) in param.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *p -= lr * (g + wd * *p);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[derive(Debug, Clone)]
struct AdamState {
    m: DenseMatrix,
    v: DenseMatrix,
}

/// Adam optimizer (Kingma & Ba) with decoupled per-parameter state and
/// optional L2 weight decay, matching the paper's training setup.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: i32,
    state: HashMap<usize, AdamState>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Sets L2 weight decay (added to the gradient, as in classic Adam-L2).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Number of completed steps (diagnostics).
    pub fn steps(&self) -> i32 {
        self.t
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, key: usize, param: &mut DenseMatrix, grad: &DenseMatrix) -> Result<()> {
        if param.shape() != grad.shape() {
            return Err(NnError::Matrix(
                sigma_matrix::MatrixError::DimensionMismatch {
                    op: "adam_update",
                    lhs: param.shape(),
                    rhs: grad.shape(),
                },
            ));
        }
        if self.t == 0 {
            // Allow implicit stepping when callers forget begin_step.
            self.t = 1;
        }
        let (rows, cols) = param.shape();
        let entry = self.state.entry(key).or_insert_with(|| AdamState {
            m: DenseMatrix::zeros(rows, cols),
            v: DenseMatrix::zeros(rows, cols),
        });
        if entry.m.shape() != param.shape() {
            return Err(NnError::Matrix(
                sigma_matrix::MatrixError::DimensionMismatch {
                    op: "adam_state",
                    lhs: entry.m.shape(),
                    rhs: param.shape(),
                },
            ));
        }
        let bias_correction1 = 1.0 - self.beta1.powi(self.t);
        let bias_correction2 = 1.0 - self.beta2.powi(self.t);
        let lr = self.lr;
        let (b1, b2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let m = entry.m.as_mut_slice();
        let v = entry.v.as_mut_slice();
        for ((p, &g_raw), (mi, vi)) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            let g = g_raw + wd * *p;
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let m_hat = *mi / bias_correction1;
            let v_hat = *vi / bias_correction2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 with gradient 2(x-3).
    fn quadratic_grad(x: &DenseMatrix) -> DenseMatrix {
        x.map(|v| 2.0 * (v - 3.0))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut x = DenseMatrix::filled(1, 1, 0.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = quadratic_grad(&x);
            opt.update(0, &mut x, &g).unwrap();
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-3);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut x = DenseMatrix::filled(2, 2, -5.0);
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            opt.begin_step();
            let g = quadratic_grad(&x);
            opt.update(7, &mut x, &g).unwrap();
        }
        for &v in x.as_slice() {
            assert!((v - 3.0).abs() < 1e-2, "got {v}");
        }
        assert!(opt.steps() >= 300);
    }

    #[test]
    fn adam_separate_keys_have_separate_state() {
        let mut a = DenseMatrix::filled(1, 1, 0.0);
        let mut b = DenseMatrix::filled(1, 1, 10.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..50 {
            opt.begin_step();
            let ga = quadratic_grad(&a);
            let gb = quadratic_grad(&b);
            opt.update(0, &mut a, &ga).unwrap();
            opt.update(1, &mut b, &gb).unwrap();
        }
        // Both move toward 3 from opposite sides without interfering.
        assert!(a.get(0, 0) > 0.5);
        assert!(b.get(0, 0) < 9.5);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut p = DenseMatrix::zeros(2, 2);
        let g = DenseMatrix::zeros(3, 2);
        assert!(Sgd::new(0.1).update(0, &mut p, &g).is_err());
        assert!(Adam::new(0.1).update(0, &mut p, &g).is_err());
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = DenseMatrix::filled(1, 1, 1.0);
        let g = DenseMatrix::zeros(1, 1);
        let mut opt = Sgd::new(0.5).with_weight_decay(0.1);
        opt.update(0, &mut p, &g).unwrap();
        assert!(p.get(0, 0) < 1.0);
    }

    #[test]
    fn adam_reuses_state_consistently_with_changed_shape() {
        let mut p = DenseMatrix::zeros(2, 2);
        let g = DenseMatrix::filled(2, 2, 1.0);
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        opt.update(0, &mut p, &g).unwrap();
        // Same key with a different shape must be rejected, not silently reset.
        let mut q = DenseMatrix::zeros(1, 1);
        let gq = DenseMatrix::zeros(1, 1);
        assert!(opt.update(0, &mut q, &gq).is_err());
    }
}
