//! # sigma-obs
//!
//! The observability layer of the SIGMA reproduction: a lock-free metrics
//! registry (monotone [`Counter`]s, [`Gauge`]s, and fixed-bucket log-scale
//! [`Histogram`]s with p50/p95/p99 derivation and associative merge), a
//! lightweight [`span!`] tracing API backed by bounded per-thread ring
//! buffers, and two exporters — Prometheus-style text exposition
//! ([`prometheus_text`]) and a JSON snapshot
//! ([`MetricsSnapshot::to_json`]).
//!
//! ## Two layers
//!
//! * **Primitives** ([`Counter`], [`Gauge`], [`Histogram`],
//!   [`HistogramSnapshot`], [`Registry`]) are always compiled: plain atomic
//!   data structures for code that *owns* its metrics as part of its API —
//!   the serving engine's `EngineStats` counters, a bench's latency
//!   histogram. They carry no global state of their own.
//! * **Instrumentation** ([`StaticCounter`] & friends, [`span!`],
//!   [`Stopwatch`]) is gated behind the `obs` feature (on by default).
//!   When enabled, statics lazily register with the global [`Registry`] on
//!   first touch and spans record into per-thread ring buffers. When
//!   disabled everything is a no-op ZST — zero registry or ring-buffer code
//!   in the hot kernels, proven determinism-neutral by running the parity
//!   suites in both modes.
//!
//! ## Declaring a metric set
//!
//! A component whose counters are part of its API — the engine's
//! `EngineStats`, the router's `RouterStats`, the daemon's `DaemonStats` —
//! writes each metric once, as a row of a [`metric_set!`] table: a row is
//! `field: "exposition_name", "help text";` under a doc comment, in one of
//! the sections `counters`, `gauges`, `histograms` (all three present, in
//! that order, possibly empty).
//!
//! ```
//! sigma_obs::metric_set! {
//!     /// Live handles: what the hot path bumps.
//!     pub struct QueueMetrics;
//!     /// Plain values read out of [`QueueMetrics`].
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct QueueStats {}
//!     counters {
//!         /// Items pushed.
//!         pushed: "doc_queue_pushed_total", "items pushed onto the queue";
//!     }
//!     gauges {
//!         /// Items waiting.
//!         depth: "doc_queue_depth", "items waiting in the queue";
//!     }
//!     histograms {
//!         /// Time an item waited, nanoseconds.
//!         wait_ns: "doc_queue_wait_ns", "queue wait in nanoseconds";
//!     }
//! }
//!
//! let metrics = QueueMetrics::new();
//! metrics.pushed.inc();
//! metrics.depth.add(3);
//! metrics.wait_ns.record(250);
//! let mut stats = metrics.snapshot();
//! stats += &metrics.snapshot();
//! let fields: Vec<String> = stats.fields().map(|(k, v)| format!("{k}={v}")).collect();
//! assert_eq!(fields, ["pushed=2", "depth=6"]);
//! assert_eq!(QueueStats::METRICS[2].name, "doc_queue_wait_ns");
//! ```
//!
//! * The **handle struct** holds one `Arc<Counter | Gauge | Histogram>` per
//!   row, with the struct's own visibility. `new()` zeroes them and, when
//!   [`ENABLED`], registers each with [`Registry::global`] (same-name
//!   sources merge, so several instances export one series); with `obs`
//!   off they are the same relaxed atomics, unregistered.
//! * The **stats struct** holds a `pub u64` per counter and a `pub i64` per
//!   gauge, in table order, after any hand-written leading fields given in
//!   its braces (`name: Type,` each); `snapshot()` on the handle fills it,
//!   taking the leading fields' values as arguments. `fields()` lists
//!   `(field name, value)` in the same order, `METRICS` every row as a
//!   [`MetricDecl`], and a struct without leading fields gets `+= &other`.
//!
//! ## Determinism
//!
//! Instrumentation only ever reads the clock and bumps atomics; it never
//! branches kernel control flow, allocates into kernel data structures, or
//! orders work. Numeric results are bit-identical with `obs` on, off, and
//! at every thread count.

#![deny(missing_docs)]

mod histogram;
mod metric_set;
mod registry;
mod span;
mod statics;

pub use histogram::{
    bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_BUCKETS,
};
pub use metric_set::{MetricDecl, MetricKind};
pub use registry::{MetricValue, MetricsSnapshot, Registry, SnapshotEntry};
pub use span::{flush_thread_spans, recent_spans, take_panic_span, SpanGuard, SpanRecord};
pub use statics::{StaticCounter, StaticCounterFamily, StaticGauge, StaticHistogram};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether the instrumentation layer is compiled in. Callers gate optional
/// clock reads with `if sigma_obs::ENABLED { ... }` — a `const`, so the
/// disabled branch folds away entirely.
pub const ENABLED: bool = cfg!(feature = "obs");

/// A monotone counter: relaxed atomic adds, lock-free from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (`const`, so it can live in a `static`).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (`const`, so it can live in a `static`).
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, n: i64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Nanoseconds since an arbitrary process-start anchor (monotone, never
/// wraps in practice). All span timestamps share this anchor.
pub fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A start/stop timer for feeding latency histograms. With the `obs`
/// feature disabled, [`Stopwatch::start`] does not read the clock and
/// [`Stopwatch::elapsed_ns`] returns 0 — callers gate the `record` on
/// [`ENABLED`] so disabled builds skip the clock entirely.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(feature = "obs")]
    start_ns: u64,
}

impl Stopwatch {
    /// Starts timing (a no-op without the `obs` feature).
    #[inline]
    pub fn start() -> Self {
        Self {
            #[cfg(feature = "obs")]
            start_ns: monotonic_ns(),
        }
    }

    /// Nanoseconds since the start or the previous lap, restarting the
    /// watch (0 without `obs`): consecutive laps add up to the time between
    /// the first start and the last lap.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        #[cfg(feature = "obs")]
        {
            let now = monotonic_ns();
            let elapsed = now.saturating_sub(self.start_ns);
            self.start_ns = now;
            elapsed
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// Nanoseconds since [`Stopwatch::start`] (0 without `obs`).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            monotonic_ns().saturating_sub(self.start_ns)
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }
}

/// A coherent snapshot of every registered metric plus the per-name span
/// duration histograms (`sigma_span_<name>_duration_ns`). Call
/// [`flush_thread_spans`] first if this thread recorded spans that must be
/// visible.
pub fn snapshot() -> MetricsSnapshot {
    #[allow(unused_mut)]
    let mut snap = Registry::global().snapshot();
    #[cfg(feature = "obs")]
    {
        snap.entries.extend(span::span_snapshot_entries());
        snap.entries
            .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    }
    snap
}

/// Prometheus text exposition of [`snapshot`] — what a `/metrics` endpoint
/// would serve.
pub fn prometheus_text() -> String {
    snapshot().to_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn registry_merges_same_name_sources() {
        let registry = Registry::new();
        let a = std::sync::Arc::new(Counter::new());
        let b = std::sync::Arc::new(Counter::new());
        registry.register_arc_counter("obs_test_merged_total", "test", &a);
        registry.register_arc_counter("obs_test_merged_total", "test", &b);
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("obs_test_merged_total"), 5);
        // Dropping one owner prunes its contribution.
        drop(b);
        assert_eq!(registry.snapshot().counter("obs_test_merged_total"), 2);
    }

    #[test]
    fn exporters_render_counters_and_histograms() {
        let registry = Registry::new();
        let c = std::sync::Arc::new(Counter::new());
        let h = std::sync::Arc::new(Histogram::new());
        registry.register_arc_counter("obs_test_export_total", "a counter", &c);
        registry.register_arc_histogram("obs_test_export_ns", "a histogram", &h);
        c.add(9);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE obs_test_export_total counter"));
        assert!(text.contains("obs_test_export_total 9"));
        assert!(text.contains("# TYPE obs_test_export_ns summary"));
        assert!(text.contains("obs_test_export_ns_count 3"));
        assert!(text.contains("quantile=\"0.5\""));
        let json = snap.to_json();
        assert!(json.contains("\"obs_test_export_total\": 9"));
        assert!(json.contains("\"count\": 3"));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stopwatch_laps_add_up() {
        let mut sw = Stopwatch::start();
        let whole = sw;
        std::hint::black_box((0..1000u64).sum::<u64>());
        let first = sw.lap();
        std::hint::black_box((0..1000u64).sum::<u64>());
        let second = sw.lap();
        // The laps tile the interval: together they are what a watch
        // started at the same instant reads now, or a little less.
        assert!(first + second <= whole.elapsed_ns());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn statics_register_on_first_touch() {
        static TOUCHED: StaticCounter =
            StaticCounter::new("obs_test_static_touch_total", "lazily registered");
        static UNTOUCHED: StaticCounter =
            StaticCounter::new("obs_test_static_untouched_total", "never registered");
        let _ = &UNTOUCHED;
        assert!(snapshot().get("obs_test_static_touch_total").is_none());
        TOUCHED.add(11);
        assert_eq!(snapshot().counter("obs_test_static_touch_total"), 11);
        assert!(snapshot().get("obs_test_static_untouched_total").is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn counter_family_labels_slots() {
        static FAMILY: StaticCounterFamily<4> =
            StaticCounterFamily::new("obs_test_family_total", "slot", "per-slot test counter");
        FAMILY.add(1, 5);
        FAMILY.add(9, 2); // clamps into slot 3
        assert_eq!(FAMILY.get(1), 5);
        assert_eq!(FAMILY.get(3), 2);
        let snap = snapshot();
        let labels: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| e.name == "obs_test_family_total")
            .map(|e| e.label.clone().unwrap_or_default())
            .collect();
        assert_eq!(labels, vec!["slot=\"1\"", "slot=\"3\""]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn spans_record_and_flush() {
        {
            let _span = span!("obs_test_region", 42);
            std::hint::black_box(17 * 3);
        }
        flush_thread_spans();
        let spans = recent_spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "obs_test_region" && s.value == 42));
        let snap = snapshot();
        match snap.get("sigma_span_obs_test_region_duration_ns") {
            Some(MetricValue::Histogram(h)) => assert!(h.count >= 1),
            other => panic!("span histogram missing: {other:?}"),
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn panic_span_attributes_innermost() {
        let result = std::panic::catch_unwind(|| {
            let _outer = span!("obs_test_outer");
            let _inner = span!("obs_test_inner");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(take_panic_span(), Some("obs_test_inner"));
        assert_eq!(take_panic_span(), None, "slot is cleared by take");
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_build_is_inert() {
        const { assert!(!ENABLED) };
        static C: StaticCounter = StaticCounter::new("obs_test_disabled_total", "no-op");
        C.add(5);
        assert_eq!(C.get(), 0);
        // The macro must not evaluate its arguments.
        let _span = span!("never", {
            unreachable!("span! arguments must not run when obs is off")
        });
        assert_eq!(take_panic_span(), None);
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_ns(), 0);
    }
}
