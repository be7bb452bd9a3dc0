//! Table VII: learning-time breakdown (precomputation / aggregation / total)
//! of the decoupled heterophilous models — LINKX, GloGNN and SIGMA — on the
//! six large-scale presets, plus SIGMA's average speed-up.
//!
//! Exits non-zero unless SIGMA learns faster than GloGNN on every preset
//! (so the mean GloGNN/SIGMA ratio is above one too) — the half of the
//! paper's ordering this reproduction can show. The other half, SIGMA below
//! LINKX, is printed but not asserted: here both run the same epoch budget
//! and a SIGMA step is a LINKX step plus `S·H` plus the precompute.

use sigma::ModelKind;
use sigma_bench::runner::{default_hyper, prepare, train, OperatorSet};
use sigma_bench::{BenchConfig, TablePrinter};
use sigma_datasets::DatasetPreset;

fn main() {
    let cfg = BenchConfig::from_env();
    let models = [ModelKind::Linkx, ModelKind::GloGnn, ModelKind::Sigma];
    let mut table = TablePrinter::new(vec!["dataset", "model", "Pre. (s)", "AGG (s)", "Learn (s)"]);
    let mut speedups_vs_glognn = Vec::new();
    let mut speedups_vs_linkx = Vec::new();
    let mut slower_than_glognn = Vec::new();
    for preset in DatasetPreset::LARGE {
        let (ctx, split) = prepare(preset, &cfg, OperatorSet::default(), 23);
        let mut learn_times = std::collections::HashMap::new();
        for kind in models {
            let report = train(kind, &ctx, &split, &cfg, &default_hyper(), 23);
            // Only SIGMA pays the SimRank precomputation; the baselines'
            // precompute column is effectively zero.
            let pre = if kind == ModelKind::Sigma {
                report.precompute_time.as_secs_f64()
            } else {
                0.0
            };
            let learn = report.train_time.as_secs_f64() + pre;
            learn_times.insert(kind.name(), learn);
            table.add_row(vec![
                preset.stats().name.to_string(),
                kind.name().to_string(),
                format!("{pre:.3}"),
                format!("{:.3}", report.aggregation_time.as_secs_f64()),
                format!("{learn:.3}"),
            ]);
        }
        let sigma = learn_times["SIGMA"].max(1e-9);
        speedups_vs_glognn.push(learn_times["GloGNN"] / sigma);
        if learn_times["GloGNN"] <= sigma {
            slower_than_glognn.push(preset.stats().name);
        }
        speedups_vs_linkx.push(learn_times["LINKX"] / sigma);
    }
    table.print("Table VII: learning time breakdown on large-scale presets");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "average speed-up of SIGMA: {:.2}x vs GloGNN (paper: 4.30x), {:.2}x vs LINKX (paper: 1.73x)",
        avg(&speedups_vs_glognn),
        avg(&speedups_vs_linkx)
    );
    println!("paper shape: SIGMA has the lowest learning time on every large dataset, with a");
    println!("small one-time precomputation and a much cheaper per-epoch aggregation than GloGNN.");
    println!(
        "asserted here: SIGMA below GloGNN on every preset. Not asserted: SIGMA below LINKX —"
    );
    println!(
        "at an equal epoch budget a SIGMA step is a LINKX step plus one SpMM and the precompute."
    );
    if !slower_than_glognn.is_empty() {
        eprintln!("Table VII ordering violated: SIGMA is not faster than GloGNN on {slower_than_glognn:?}");
        std::process::exit(1);
    }
}
