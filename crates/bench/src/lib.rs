//! # sigma-bench
//!
//! Benchmark harness for the SIGMA reproduction. The library portion holds
//! shared helpers (environment-variable configuration, table formatting);
//! each bench target under `benches/` regenerates one table or figure of the
//! paper. Each bench's own module doc names the table or figure it
//! reproduces; the synthetic datasets it runs on are defined in
//! `crates/datasets/src/presets.rs`.

pub mod config;
pub mod runner;
pub mod table;

pub use config::BenchConfig;
pub use table::TablePrinter;
