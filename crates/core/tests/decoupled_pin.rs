//! Bit pin of the three decoupled models (SIGMA, LINKX, GloGNN).
//!
//! Each case trains one model for a few full-batch Adam epochs on a fixed
//! context and folds the exact `f32` bits of every epoch's training logits,
//! then of the final evaluation logits, into one FNV-1a hash. The constants
//! were recorded when LINKX and GloGNN still built their own copies of the
//! `MLP_H(δ·MLP_X(X) + (1−δ)·MLP_A(A))` embedding, so any change to the
//! shared stage that moves a bit — a reordered RNG draw, a different
//! summation order, or a "w/o S" that still applies the Eq. 6 mix
//! `(1−α)·H + α·H` (which is not bitwise `H` at α = 0.3) — fails here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{ContextBuilder, GraphContext, ModelHyperParams, ModelKind};
use sigma_datasets::{DatasetPreset, Split};
use sigma_matrix::DenseMatrix;
use sigma_nn::{softmax_cross_entropy_masked, Adam, Optimizer};

const EPOCHS: usize = 8;

fn fnv1a(hash: &mut u64, logits: &DenseMatrix) {
    for value in logits.as_slice() {
        for byte in value.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Trains `kind` for [`EPOCHS`] Adam steps and hashes the logits it produced.
fn trained_logits_hash(
    kind: ModelKind,
    hyper: &ModelHyperParams,
    ctx: &GraphContext,
    split: &Split,
) -> u64 {
    let mut model = kind.build(ctx, hyper, 11).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let mut opt = Adam::new(0.01);
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for _ in 0..EPOCHS {
        opt.begin_step();
        let logits = model.forward(ctx, true, &mut rng).unwrap();
        fnv1a(&mut hash, &logits);
        let (_, grad) = softmax_cross_entropy_masked(&logits, ctx.labels(), &split.train).unwrap();
        model.zero_grad();
        model.backward(ctx, &grad).unwrap();
        model.apply_gradients(&mut opt).unwrap();
    }
    fnv1a(&mut hash, &model.forward(ctx, false, &mut rng).unwrap());
    hash
}

#[test]
fn decoupled_models_train_to_their_pinned_bits() {
    let data = DatasetPreset::Chameleon.build(0.5, 3).unwrap();
    let split = data.default_split(3).unwrap();
    let ctx = ContextBuilder::new(data)
        .with_simrank_topk(8)
        .build()
        .unwrap();
    let small = ModelHyperParams::small();
    let cases = [
        (
            "SIGMA, fixed α 0.5",
            ModelKind::Sigma,
            small,
            0xE142_D0AC_22CE_282C,
        ),
        (
            "SIGMA, learnable α 0.3",
            ModelKind::Sigma,
            small.with_alpha(0.3).with_learnable_alpha(true),
            0x0A18_7E92_CBD2_91C0,
        ),
        (
            "LINKX, α 0.5",
            ModelKind::Linkx,
            small,
            0x3814_ACBD_796C_8241,
        ),
        (
            "LINKX, α 0.3",
            ModelKind::Linkx,
            small.with_alpha(0.3),
            0x3814_ACBD_796C_8241,
        ),
        ("GloGNN", ModelKind::GloGnn, small, 0x0214_AD88_48E8_7B8E),
    ];
    let mut failures = Vec::new();
    for (name, kind, hyper, pinned) in cases {
        let got = trained_logits_hash(kind, &hyper, &ctx, &split);
        if got != pinned {
            failures.push(format!("{name}: {got:#018X} (pinned {pinned:#018X})"));
        }
    }
    assert!(
        failures.is_empty(),
        "logit bits moved:\n{}",
        failures.join("\n")
    );
}
