//! # sigma-nn
//!
//! Minimal neural-network stack for the SIGMA reproduction.
//!
//! The paper trains all models with PyTorch on a GPU; the repro hint notes
//! that Rust ML frameworks (candle/burn) are still immature for GNN training
//! pipelines, so this crate implements the small amount of machinery the
//! SIGMA family of models actually needs, with *manual, exact
//! backpropagation*:
//!
//! * [`Linear`] layers (`Y = X·W + b`) with cached activations,
//! * [`Mlp`] stacks with ReLU and inverted dropout,
//! * [`softmax_cross_entropy_masked`] loss over a training-node subset,
//! * [`Adam`] and [`Sgd`] optimizers,
//! * Xavier/He initialisation driven by a seedable RNG.
//!
//! Every model in `sigma` (SIGMA itself and all baselines) composes these
//! pieces with *constant* sparse propagation operators from `sigma-matrix`,
//! so gradients never need a tape: backward through `Z = S·H` is simply
//! `dH = Sᵀ·dZ`.
//!
//! ## Example: two-layer MLP on random data
//!
//! ```
//! use sigma_matrix::DenseMatrix;
//! use sigma_nn::{Adam, Mlp, MlpConfig, softmax_cross_entropy_masked, accuracy};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let x = DenseMatrix::from_fn(8, 4, |i, j| ((i * 7 + j) % 5) as f32 / 5.0);
//! let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
//! let idx: Vec<usize> = (0..8).collect();
//!
//! let mut mlp = Mlp::new(MlpConfig::new(4, 16, 2, 2), &mut rng);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..30 {
//!     let logits = mlp.forward(&x, true, &mut rng).unwrap();
//!     let (loss, dlogits) = softmax_cross_entropy_masked(&logits, &labels, &idx).unwrap();
//!     assert!(loss.is_finite());
//!     mlp.zero_grad();
//!     mlp.backward(&dlogits).unwrap();
//!     mlp.apply_gradients(&mut opt, 0).unwrap();
//! }
//! let logits = mlp.forward(&x, false, &mut rng).unwrap();
//! assert!(accuracy(&logits, &labels, &idx).unwrap() >= 0.5);
//! ```

#![deny(missing_docs)]

mod activation;
mod error;
mod init;
mod linear;
mod loss;
mod metrics;
mod mlp;
mod optim;

pub use activation::{dropout_forward, relu_backward, relu_forward, DropoutMask};
pub use error::NnError;
pub use init::{he_uniform, xavier_uniform};
pub use linear::Linear;
pub use loss::{accuracy, softmax_cross_entropy_masked};
pub use metrics::{macro_f1, ConfusionMatrix};
pub use mlp::{infer_parts, Mlp, MlpConfig};
pub use optim::{Adam, Optimizer, Sgd};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod test_support {
    /// Bit patterns of a matrix, for the bitwise pins.
    pub(crate) fn bits(m: &sigma_matrix::DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `check` at 1, 2 and 4 pool threads. The width is process-wide
    /// and tests share a process, so every caller goes through this one lock.
    pub(crate) fn at_each_pool_width(mut check: impl FnMut(usize)) {
        static WIDTH: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            sigma_parallel::set_global_threads(threads);
            check(threads);
        }
        sigma_parallel::set_global_threads(0);
    }
}
