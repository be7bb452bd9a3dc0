//! What a workload hands back, and the one-line result the driver reads.

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER, SETUP_REPEATS};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sigma-daemon` binary `wire_point` serves through.
    pub daemon: PathBuf,
    /// Scratch and trace output directory (`benchmark/out`).
    pub out: PathBuf,
}

/// Why a run produced no metrics.
#[derive(Debug)]
pub enum RunError {
    /// A correctness gate found wrong output.
    Gate(String),
    /// The host was too busy for the numbers to mean anything.
    Noisy(String),
    /// The run could not be set up (missing binary, bad argument, I/O).
    Setup(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Gate(why) => write!(f, "correctness gate failed: {why}"),
            RunError::Noisy(why) => write!(f, "noisy run: {why}"),
            RunError::Setup(why) => write!(f, "set-up failed: {why}"),
        }
    }
}

/// Runs a workload's set-up `SETUP_REPEATS` times (once when traced),
/// dropping each product before the next is built, and returns the last
/// product with the median set-up time in seconds.
pub fn set_up_repeatedly<T>(
    trace: bool,
    mut set_up: impl FnMut() -> Result<T, RunError>,
) -> Result<(T, f64), RunError> {
    let mut seconds = Vec::new();
    let mut product = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        drop(product.take());
        let start = std::time::Instant::now();
        product = Some(set_up()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((
        product.expect("set-up ran at least once"),
        crate::stats::median(&seconds),
    ))
}

pub fn gate(ok: bool, why: impl FnOnce() -> String) -> Result<(), RunError> {
    if ok {
        Ok(())
    } else {
        Err(RunError::Gate(why()))
    }
}

/// A finished run: operations attempted and failed, and the metrics of the
/// mode it ran in (end-to-end when timed, per-layer when traced).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the spec"
        );
        self.metrics.insert(name, value);
    }
}

fn metrics_json(specs: &[MetricSpec], outcome: &Outcome, require_all: bool) -> String {
    let entries: Vec<String> = specs
        .iter()
        .map(|spec| {
            let value = match outcome.metrics.get(spec.name) {
                Some(&v) => v,
                None if require_all => panic!("workload did not report {}", spec.name),
                // A layer this workload never entered did no work.
                None => 0.0,
            };
            assert!(value.is_finite(), "{} is not finite", spec.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, value, spec.unit
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(trace: bool, outcome: &Outcome) -> String {
    let metrics = if trace {
        metrics_json(PER_LAYER, outcome, false)
    } else {
        metrics_json(END_TO_END, outcome, true)
    };
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted, outcome.failed, metrics
    )
}
