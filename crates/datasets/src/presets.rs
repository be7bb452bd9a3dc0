//! Presets mirroring the paper's 12 evaluation datasets.
//!
//! Each preset records the *paper* statistics (node/edge counts, class count,
//! feature dimensionality, node homophily from Table V) and a reduced
//! *reproduction* size used by default, so the full experiment suite runs in
//! minutes on one CPU core. The generator reproduces class count, homophily,
//! and average degree exactly; node counts and feature dimensionalities are
//! scaled down (documented per preset below). A `scale` multiplier (and the
//! `SIGMA_SCALE` environment variable in the bench harness) enlarges the
//! graphs toward the paper's sizes.

use crate::{generate, Dataset, GeneratorConfig, Result};

/// The 12 datasets of the paper's evaluation (Table V), as synthetic presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// Texas webpage graph: tiny, strongly heterophilous (H ≈ 0.11).
    Texas,
    /// Citeseer citation graph: homophilous (H ≈ 0.74).
    Citeseer,
    /// Cora citation graph: homophilous (H ≈ 0.81).
    Cora,
    /// Chameleon Wikipedia graph: heterophilous (H ≈ 0.23).
    Chameleon,
    /// Pubmed citation graph: homophilous (H ≈ 0.80).
    Pubmed,
    /// Squirrel Wikipedia graph: heterophilous (H ≈ 0.22), dense.
    Squirrel,
    /// Genius social network: large, moderate homophily (H ≈ 0.61).
    Genius,
    /// Arxiv-year citation graph: large, heterophilous (H ≈ 0.22).
    ArxivYear,
    /// Penn94 (Facebook) social network: large, near-balanced (H ≈ 0.47).
    Penn94,
    /// Twitch-gamers social network: large, moderate homophily (H ≈ 0.54).
    TwitchGamers,
    /// Snap-patents citation graph: very large, extremely heterophilous (H ≈ 0.07).
    SnapPatents,
    /// Pokec social network: very large, moderate homophily (H ≈ 0.44).
    Pokec,
}

/// Statistics of a preset: the paper's numbers plus the reproduction scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresetStats {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Number of classes.
    pub classes: usize,
    /// Paper node count.
    pub paper_nodes: usize,
    /// Paper edge count.
    pub paper_edges: usize,
    /// Paper feature dimensionality.
    pub paper_features: usize,
    /// Paper node homophily (Table V).
    pub homophily: f64,
    /// Default reproduction node count (scaled down for large graphs).
    pub repro_nodes: usize,
    /// Default reproduction feature dimensionality.
    pub repro_features: usize,
    /// Whether the paper treats this as a "large-scale" dataset.
    pub large_scale: bool,
}

impl DatasetPreset {
    /// All 12 presets in the paper's Table V order.
    pub const ALL: [DatasetPreset; 12] = [
        DatasetPreset::Texas,
        DatasetPreset::Citeseer,
        DatasetPreset::Cora,
        DatasetPreset::Chameleon,
        DatasetPreset::Pubmed,
        DatasetPreset::Squirrel,
        DatasetPreset::Genius,
        DatasetPreset::ArxivYear,
        DatasetPreset::Penn94,
        DatasetPreset::TwitchGamers,
        DatasetPreset::SnapPatents,
        DatasetPreset::Pokec,
    ];

    /// The six small-scale presets.
    pub const SMALL: [DatasetPreset; 6] = [
        DatasetPreset::Texas,
        DatasetPreset::Citeseer,
        DatasetPreset::Cora,
        DatasetPreset::Chameleon,
        DatasetPreset::Pubmed,
        DatasetPreset::Squirrel,
    ];

    /// The six large-scale presets (Table VII / VIII).
    pub const LARGE: [DatasetPreset; 6] = [
        DatasetPreset::Genius,
        DatasetPreset::ArxivYear,
        DatasetPreset::Penn94,
        DatasetPreset::TwitchGamers,
        DatasetPreset::SnapPatents,
        DatasetPreset::Pokec,
    ];

    /// Statistics for this preset.
    pub fn stats(&self) -> PresetStats {
        match self {
            DatasetPreset::Texas => PresetStats {
                name: "texas",
                classes: 5,
                paper_nodes: 183,
                paper_edges: 295,
                paper_features: 1703,
                homophily: 0.11,
                repro_nodes: 183,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Citeseer => PresetStats {
                name: "citeseer",
                classes: 6,
                paper_nodes: 3327,
                paper_edges: 4676,
                paper_features: 3703,
                homophily: 0.74,
                repro_nodes: 800,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Cora => PresetStats {
                name: "cora",
                classes: 7,
                paper_nodes: 2708,
                paper_edges: 5278,
                paper_features: 1433,
                homophily: 0.81,
                repro_nodes: 800,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Chameleon => PresetStats {
                name: "chameleon",
                classes: 5,
                paper_nodes: 2277,
                paper_edges: 31421,
                paper_features: 2325,
                homophily: 0.23,
                repro_nodes: 700,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Pubmed => PresetStats {
                name: "pubmed",
                classes: 3,
                paper_nodes: 19717,
                paper_edges: 44327,
                paper_features: 500,
                homophily: 0.80,
                repro_nodes: 1000,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Squirrel => PresetStats {
                name: "squirrel",
                classes: 5,
                paper_nodes: 5201,
                paper_edges: 198493,
                paper_features: 2089,
                homophily: 0.22,
                repro_nodes: 900,
                repro_features: 48,
                large_scale: false,
            },
            DatasetPreset::Genius => PresetStats {
                name: "genius",
                classes: 2,
                paper_nodes: 421_961,
                paper_edges: 984_979,
                paper_features: 12,
                homophily: 0.61,
                repro_nodes: 2500,
                repro_features: 12,
                large_scale: true,
            },
            DatasetPreset::ArxivYear => PresetStats {
                name: "arxiv-year",
                classes: 5,
                paper_nodes: 169_343,
                paper_edges: 1_166_243,
                paper_features: 128,
                homophily: 0.22,
                repro_nodes: 2200,
                repro_features: 64,
                large_scale: true,
            },
            DatasetPreset::Penn94 => PresetStats {
                name: "penn94",
                classes: 2,
                paper_nodes: 41_554,
                paper_edges: 1_362_229,
                paper_features: 5,
                homophily: 0.47,
                repro_nodes: 2000,
                repro_features: 5,
                large_scale: true,
            },
            DatasetPreset::TwitchGamers => PresetStats {
                name: "twitch-gamers",
                classes: 2,
                paper_nodes: 168_114,
                paper_edges: 6_797_557,
                paper_features: 7,
                homophily: 0.54,
                repro_nodes: 2400,
                repro_features: 7,
                large_scale: true,
            },
            DatasetPreset::SnapPatents => PresetStats {
                name: "snap-patents",
                classes: 5,
                paper_nodes: 2_923_922,
                paper_edges: 13_975_788,
                paper_features: 269,
                homophily: 0.07,
                repro_nodes: 3000,
                repro_features: 64,
                large_scale: true,
            },
            DatasetPreset::Pokec => PresetStats {
                name: "pokec",
                classes: 2,
                paper_nodes: 1_632_803,
                paper_edges: 30_622_564,
                paper_features: 65,
                homophily: 0.44,
                repro_nodes: 2600,
                repro_features: 65,
                large_scale: true,
            },
        }
    }

    /// Looks a preset up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<DatasetPreset> {
        let lower = name.to_ascii_lowercase();
        DatasetPreset::ALL
            .into_iter()
            .find(|p| p.stats().name == lower)
    }

    /// Generator configuration for this preset at a given node-count scale
    /// (`1.0` = the reduced reproduction default).
    pub fn generator_config(&self, scale: f64) -> GeneratorConfig {
        let stats = self.stats();
        let nodes = ((stats.repro_nodes as f64 * scale).round() as usize).max(stats.classes * 4);
        // Preserve the paper's average degree (capped to keep dense Wikipedia
        // graphs tractable at reduced node counts).
        let paper_avg_degree = 2.0 * stats.paper_edges as f64 / stats.paper_nodes as f64;
        let avg_degree = paper_avg_degree.clamp(2.0, 24.0);
        // Feature signal/noise: heterophilous web graphs in the paper carry
        // weaker feature signal than citation graphs; keep a moderate SNR
        // that leaves headroom for structure to matter.
        let (signal, noise) = if stats.homophily < 0.3 {
            (0.9, 1.0)
        } else {
            (1.2, 1.0)
        };
        GeneratorConfig::new(nodes, avg_degree, stats.classes, stats.repro_features)
            .with_name(stats.name)
            .with_homophily(stats.homophily)
            .with_feature_snr(signal, noise)
    }

    /// Builds the preset dataset at `scale` with the given seed.
    pub fn build(&self, scale: f64, seed: u64) -> Result<Dataset> {
        generate(&self.generator_config(scale), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_have_consistent_stats() {
        for preset in DatasetPreset::ALL {
            let stats = preset.stats();
            assert!(stats.classes >= 2);
            assert!(stats.paper_nodes > 0);
            assert!(stats.paper_edges > 0);
            assert!(stats.repro_nodes >= stats.classes * 4);
            assert!(stats.repro_features > 0);
            assert!((0.0..=1.0).contains(&stats.homophily));
        }
        assert_eq!(DatasetPreset::SMALL.len() + DatasetPreset::LARGE.len(), 12);
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for preset in DatasetPreset::ALL {
            let name = preset.stats().name;
            assert_eq!(DatasetPreset::by_name(name), Some(preset));
            assert_eq!(DatasetPreset::by_name(&name.to_uppercase()), Some(preset));
        }
        assert_eq!(DatasetPreset::by_name("does-not-exist"), None);
    }

    #[test]
    fn build_produces_expected_shape_and_homophily() {
        let data = DatasetPreset::Chameleon.build(1.0, 0).unwrap();
        let stats = DatasetPreset::Chameleon.stats();
        assert_eq!(data.num_classes, stats.classes);
        assert_eq!(data.num_nodes(), stats.repro_nodes);
        assert_eq!(data.feature_dim(), stats.repro_features);
        let h = data.node_homophily().unwrap();
        assert!(
            (h - stats.homophily).abs() < 0.15,
            "homophily {h} vs target {}",
            stats.homophily
        );
    }

    #[test]
    fn homophilous_and_heterophilous_presets_differ() {
        let cora = DatasetPreset::Cora.build(1.0, 1).unwrap();
        let texas = DatasetPreset::Texas.build(1.0, 1).unwrap();
        assert!(cora.node_homophily().unwrap() > texas.node_homophily().unwrap() + 0.3);
    }

    #[test]
    fn scale_factor_changes_node_count() {
        let small = DatasetPreset::Pokec.build(0.5, 0).unwrap();
        let large = DatasetPreset::Pokec.build(1.5, 0).unwrap();
        assert!(large.num_nodes() > small.num_nodes());
        let stats = DatasetPreset::Pokec.stats();
        assert_eq!(
            small.num_nodes(),
            (stats.repro_nodes as f64 * 0.5).round() as usize
        );
    }

    #[test]
    fn average_degree_tracks_paper_up_to_cap() {
        let genius = DatasetPreset::Genius.build(1.0, 0).unwrap();
        // Paper genius avg degree = 2*984979/421961 ≈ 4.7.
        assert!((genius.graph.avg_degree() - 4.7).abs() < 1.5);
        let squirrel = DatasetPreset::Squirrel.build(1.0, 0).unwrap();
        // Squirrel is capped at 24 average degree.
        assert!(squirrel.graph.avg_degree() <= 26.0);
        assert!(squirrel.graph.avg_degree() >= 15.0);
    }
}
