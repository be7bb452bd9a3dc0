//! Reading the `sigma-obs` registry from outside: sums over label sets and
//! deltas between two points of a run.

use sigma_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot};

/// Sum of a counter over every label set it is registered under.
pub fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

pub fn histogram(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot::empty(),
    }
}

/// The samples recorded between `before` and `after`.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// The pool and scratch metrics of the work done between two snapshots.
pub struct PoolUse {
    pub busy_share: f64,
    pub imbalance_p50_permille: f64,
    pub scratch_hit_rate: f64,
}

pub fn pool_use(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    wall_ns: u64,
    threads: usize,
) -> PoolUse {
    let delta = |name: &str| counter_sum(after, name) - counter_sum(before, name);
    let busy = delta("sigma_pool_worker_busy_ns") + delta("sigma_pool_submitter_busy_ns");
    let imbalance = histogram_delta(
        &histogram(before, "sigma_pool_imbalance_measured_permille"),
        &histogram(after, "sigma_pool_imbalance_measured_permille"),
    );
    let hits = delta("sigma_scratch_hits_total");
    let misses = delta("sigma_scratch_misses_total");
    PoolUse {
        busy_share: busy as f64 / (wall_ns.max(1) as f64 * threads as f64),
        imbalance_p50_permille: imbalance.quantile(0.5) as f64,
        scratch_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}
