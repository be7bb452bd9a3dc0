//! Table V: classification accuracy of SIGMA and the baselines across all 12
//! dataset presets, with average ranks.
//!
//! Dataset sizes are the reduced reproduction presets (paper and reproduction
//! sizes per preset in `crates/datasets/src/presets.rs`);
//! set `SIGMA_SCALE`, `SIGMA_EPOCHS`, `SIGMA_REPEATS` to enlarge runs. The
//! expected *shape* is what matters: SIGMA and the decoupled heterophilous
//! models (GloGNN, LINKX) lead on heterophilous datasets, local GNNs recover
//! on homophilous ones, and SIGMA attains the best average rank.

use sigma::ModelKind;
use sigma_bench::runner::{default_hyper, prepare, repeated_accuracy, OperatorSet};
use sigma_bench::{BenchConfig, TablePrinter};
use sigma_datasets::DatasetPreset;
use std::collections::HashMap;

fn main() {
    let cfg = BenchConfig::from_env();
    let models = ModelKind::TABLE_V;
    let mut rank_sums: HashMap<&'static str, f64> = HashMap::new();
    let mut header: Vec<String> = vec!["dataset".to_string(), "H_node".to_string()];
    header.extend(models.iter().map(|m| m.name().to_string()));
    let mut table = TablePrinter::new(header);

    for preset in DatasetPreset::ALL {
        // Large presets are additionally shrunk so the default suite stays fast.
        let scale = if preset.stats().large_scale {
            cfg.scale * 0.6
        } else {
            cfg.scale
        };
        let local_cfg = BenchConfig { scale, ..cfg };
        let (ctx, split) = prepare(preset, &local_cfg, OperatorSet::full(), 17);
        let homophily = ctx.dataset().node_homophily().unwrap_or(f64::NAN);

        let mut row: Vec<String> = vec![preset.stats().name.to_string(), format!("{homophily:.2}")];
        let mut scores: Vec<(&'static str, f64)> = Vec::new();
        for kind in models {
            let (mean, std, _) =
                repeated_accuracy(kind, &ctx, &split, &local_cfg, &default_hyper());
            row.push(format!("{mean:.1}±{std:.1}"));
            scores.push((kind.name(), mean));
        }
        table.add_row(row);

        // Per-dataset ranks (1 = best).
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (rank, (name, _)) in scores.iter().enumerate() {
            *rank_sums.entry(name).or_insert(0.0) += (rank + 1) as f64;
        }
    }
    table.print("Table V: test accuracy (%) per dataset");

    let mut ranks: Vec<(&str, f64)> = rank_sums
        .into_iter()
        .map(|(name, sum)| (name, sum / DatasetPreset::ALL.len() as f64))
        .collect();
    ranks.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut rank_table = TablePrinter::new(vec!["model", "average rank"]);
    for (name, rank) in &ranks {
        rank_table.add_row(vec![name.to_string(), format!("{rank:.2}")]);
    }
    rank_table.print("Table V: average rank (lower is better)");
    println!(
        "paper shape: SIGMA attains the best average rank (paper: 1.2 vs GloGNN 2.9); best here: {}",
        ranks.first().map(|(n, _)| *n).unwrap_or("n/a")
    );
}
