//! Table VIII: component ablation of SIGMA (and GloGNN) on the large-scale
//! presets — the effect of the SimRank operator S, the localized S·A variant,
//! the attribute branch X, and the adjacency branch A.
//!
//! SIGMA aggregates with whatever operator its context holds, so the `S·A`
//! and PPR rows train full SIGMA on a context built with that operator in
//! `S`'s place.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma::{
    AggregatorKind, ContextBuilder, GraphContext, Model, ModelHyperParams, ModelKind, SigmaModel,
    TrainConfig, Trainer,
};
use sigma_bench::runner::{default_hyper, prepare, OperatorSet};
use sigma_bench::{BenchConfig, TablePrinter};
use sigma_datasets::DatasetPreset;
use sigma_matrix::CsrMatrix;

/// The operator a variant's context holds in `S`'s slot.
#[derive(Clone, Copy)]
enum Operator {
    SimRank,
    STimesA,
    Ppr,
}

struct Variant {
    name: &'static str,
    aggregator: AggregatorKind,
    operator: Operator,
    hyper: ModelHyperParams,
}

fn variants(base: ModelHyperParams) -> Vec<Variant> {
    let variant = |name, aggregator, operator, hyper| Variant {
        name,
        aggregator,
        operator,
        hyper,
    };
    vec![
        variant("SIGMA", AggregatorKind::SimRank, Operator::SimRank, base),
        variant("SIGMA w/o S", AggregatorKind::None, Operator::SimRank, base),
        variant(
            "SIGMA w/ S*A",
            AggregatorKind::SimRank,
            Operator::STimesA,
            base,
        ),
        variant("SIGMA w/ PPR", AggregatorKind::SimRank, Operator::Ppr, base),
        variant(
            "SIGMA w/o X",
            AggregatorKind::SimRank,
            Operator::SimRank,
            base.with_delta(0.0),
        ),
        variant(
            "SIGMA w/o A",
            AggregatorKind::SimRank,
            Operator::SimRank,
            base.with_delta(1.0),
        ),
    ]
}

/// `ctx`'s dataset with `operator` in `S`'s slot.
fn with_operator(ctx: &GraphContext, operator: CsrMatrix) -> GraphContext {
    ContextBuilder::new(ctx.dataset().clone())
        .with_simrank_operator(operator)
        .build()
        .expect("an n × n operator is accepted")
}

fn main() {
    let cfg = BenchConfig::from_env();
    let base = default_hyper();
    let trainer = Trainer::new(TrainConfig {
        epochs: cfg.epochs,
        patience: (cfg.epochs / 3).max(10),
        ..TrainConfig::default()
    });

    let mut header = vec!["variant".to_string()];
    header.extend(
        DatasetPreset::LARGE
            .iter()
            .map(|p| p.stats().name.to_string()),
    );
    header.push("avg drop".to_string());
    header.push("max drop".to_string());
    let mut table = TablePrinter::new(header);

    // Collect accuracy per (variant, dataset).
    let names: Vec<&'static str> = variants(base).iter().map(|v| v.name).collect();
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); names.len() + 2];
    for preset in DatasetPreset::LARGE {
        let (ctx, split) = prepare(preset, &cfg, OperatorSet::full(), 43);
        // S·A restricted to immediate neighbours, row-normalised so the
        // aggregation magnitude stays comparable to S.
        let s = ctx.simrank().expect("full operator set");
        let mut s_times_a = s.spgemm(ctx.row_adj()).expect("S·A builds");
        s_times_a.row_normalize();
        let sa_ctx = with_operator(&ctx, s_times_a);
        let ppr_ctx = with_operator(&ctx, ctx.ppr().expect("full operator set").clone());
        for (idx, variant) in variants(base).into_iter().enumerate() {
            let variant_ctx = match variant.operator {
                Operator::SimRank => &ctx,
                Operator::STimesA => &sa_ctx,
                Operator::Ppr => &ppr_ctx,
            };
            let mut rng = StdRng::seed_from_u64(43);
            let mut model = SigmaModel::with_aggregator(
                variant_ctx,
                &variant.hyper,
                variant.aggregator,
                &mut rng,
            )
            .expect("variant builds");
            let report = trainer
                .train(&mut model as &mut dyn Model, variant_ctx, &split, 43)
                .expect("variant trains");
            results[idx].push(report.test_accuracy as f64 * 100.0);
        }
        // GloGNN full and GloGNN w/o A (δ = 1) reference rows.
        for (offset, hyper) in [(0usize, base), (1usize, base.with_delta(1.0))] {
            let mut model = ModelKind::GloGnn
                .build(&ctx, &hyper, 43)
                .expect("glognn builds");
            let report = trainer
                .train(model.as_mut(), &ctx, &split, 43)
                .expect("glognn trains");
            results[names.len() + offset].push(report.test_accuracy as f64 * 100.0);
        }
    }

    let sigma_full = results[0].clone();
    let mut all_names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    all_names.push("GloGNN".to_string());
    all_names.push("GloGNN w/o A".to_string());
    for (idx, name) in all_names.iter().enumerate() {
        let accs = &results[idx];
        let drops: Vec<f64> = accs
            .iter()
            .zip(sigma_full.iter())
            .map(|(a, f)| f - a)
            .collect();
        let avg_drop = drops.iter().sum::<f64>() / drops.len().max(1) as f64;
        let max_drop = drops.iter().cloned().fold(f64::MIN, f64::max);
        let mut row = vec![name.clone()];
        row.extend(accs.iter().map(|a| format!("{a:.1}")));
        if idx == 0 {
            row.push("-".to_string());
            row.push("-".to_string());
        } else {
            row.push(format!("{avg_drop:.2}"));
            row.push(format!("{max_drop:.2}"));
        }
        table.add_row(row);
    }
    table.print("Table VIII: component ablation (test accuracy %, drops relative to full SIGMA)");
    println!("paper shape: removing S costs a couple of points on average; restricting it to");
    println!("S*A also hurts; removing A is by far the most damaging; removing X hurts less.");
}
