//! # sigma-datasets
//!
//! Synthetic attributed heterophilous/homophilous graph generation and the
//! dataset presets used throughout the SIGMA reproduction.
//!
//! The paper evaluates on 12 real-world datasets (Texas, ..., pokec). Those
//! graphs are not redistributable here, so this crate provides the closest
//! synthetic equivalent: a generator with explicit control over the
//! properties SIGMA's behaviour actually depends on —
//!
//! * node count, average degree, class count and feature dimensionality,
//! * **node homophily** (paper Eq. 1), via label-aware wiring,
//! * **structured heterophily**: inter-class edges follow a class-role
//!   pattern (class `i` preferentially links to class `i+1 mod C`), so that
//!   same-class nodes have similar neighbourhood *structure* even when their
//!   neighbours' labels differ. This is precisely the regime the paper argues
//!   SimRank exploits (Section III-A, Fig. 1),
//! * class-conditional Gaussian features with tunable signal-to-noise ratio.
//!
//! [`DatasetPreset`] mirrors each paper dataset's class count, feature
//! dimensionality, average degree and homophily at a reduced node scale so
//! the full benchmark suite runs on a laptop CPU.
//!
//! ## Example
//!
//! ```
//! use sigma_datasets::{DatasetPreset, GeneratorConfig, generate};
//!
//! // A small heterophilous graph, Texas-like.
//! let data = DatasetPreset::Texas.build(1.0, 0).unwrap();
//! assert_eq!(data.num_classes, 5);
//! assert!(data.node_homophily().unwrap() < 0.45);
//!
//! // Or fully custom:
//! let cfg = GeneratorConfig::new(200, 6.0, 4, 16).with_homophily(0.8);
//! let homo = generate(&cfg, 1).unwrap();
//! assert!(homo.node_homophily().unwrap() > 0.6);
//! ```

#![deny(missing_docs)]

mod dataset;
mod error;
mod generator;
mod io;
mod presets;
mod splits;
mod statistics;

pub use dataset::Dataset;
pub use error::DatasetError;
pub use generator::{generate, GeneratorConfig};
pub use io::{load_dataset, save_dataset};
pub use presets::DatasetPreset;
pub use splits::Split;
pub use statistics::DatasetStatistics;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatasetError>;
