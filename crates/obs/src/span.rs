//! The lightweight span API: `span!("spmm", rows)` marks a timed region.
//!
//! A span is an RAII guard holding enter/exit timestamps (nanoseconds since
//! process start, see [`crate::monotonic_ns`]) plus an optional magnitude
//! (`rows`, `nnz`, batch size). On exit the record lands in a **bounded
//! per-thread ring buffer** — no locks, no allocation on the steady state —
//! which is drained into the process-wide recorder when it fills, when the
//! thread exits, or on an explicit [`flush_thread_spans`]. The recorder
//! keeps the most recent records (bounded) and per-name duration
//! histograms, which [`crate::snapshot`] folds into the exported metrics as
//! `sigma_span_<name>_duration_ns`.
//!
//! Panic attribution: when a thread unwinds through a span guard, the
//! innermost span's name is parked in a thread-local slot that
//! [`take_panic_span`] collects — the thread-pool uses this to attach "in
//! span 'spmm'" to a re-raised task panic.
//!
//! With the `obs` feature disabled every type here is a no-op ZST and the
//! `span!` macro expands to a unit guard without evaluating its arguments.

#[cfg(feature = "obs")]
mod enabled {
    use crate::histogram::HistogramSnapshot;
    use crate::monotonic_ns;
    use crate::registry::{MetricValue, SnapshotEntry};
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, VecDeque};
    use std::sync::Mutex;

    /// Capacity of the per-thread ring buffer; a full ring drains to the
    /// recorder, so records are batched, never dropped.
    pub const RING_CAPACITY: usize = 256;

    /// Most recent span records retained by the process-wide recorder
    /// (older records age out; per-name histograms keep the full history).
    pub const RECENT_CAPACITY: usize = 4096;

    /// One completed span.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SpanRecord {
        /// Static span name (the first `span!` argument).
        pub name: &'static str,
        /// Enter timestamp, ns since process start.
        pub start_ns: u64,
        /// Exit − enter, ns.
        pub duration_ns: u64,
        /// The optional magnitude argument (0 when omitted).
        pub value: u64,
    }

    struct RecorderInner {
        recent: VecDeque<SpanRecord>,
        by_name: BTreeMap<&'static str, HistogramSnapshot>,
    }

    static RECORDER: Mutex<Option<RecorderInner>> = Mutex::new(None);

    fn drain_into_recorder(records: &mut Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        let mut guard = RECORDER.lock().expect("span recorder poisoned");
        let inner = guard.get_or_insert_with(|| RecorderInner {
            recent: VecDeque::with_capacity(RECENT_CAPACITY),
            by_name: BTreeMap::new(),
        });
        for record in records.drain(..) {
            if inner.recent.len() == RECENT_CAPACITY {
                inner.recent.pop_front();
            }
            inner.recent.push_back(record);
            inner
                .by_name
                .entry(record.name)
                .or_insert_with(HistogramSnapshot::empty)
                .record(record.duration_ns);
        }
    }

    /// Ring wrapper whose drop drains pending records (thread exit).
    struct Ring(Vec<SpanRecord>);

    impl Drop for Ring {
        fn drop(&mut self) {
            drain_into_recorder(&mut self.0);
        }
    }

    thread_local! {
        static RING: RefCell<Ring> = RefCell::new(Ring(Vec::with_capacity(RING_CAPACITY)));
        static NAME_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        static PANIC_SPAN: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// RAII guard for one timed region; created by the `span!` macro.
    #[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
    pub struct SpanGuard {
        name: &'static str,
        value: u64,
        start_ns: u64,
    }

    impl SpanGuard {
        /// Opens a span (prefer the `span!` macro).
        pub fn enter(name: &'static str, value: u64) -> Self {
            let _ = NAME_STACK.try_with(|s| s.borrow_mut().push(name));
            Self {
                name,
                value,
                start_ns: monotonic_ns(),
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let end_ns = monotonic_ns();
            let _ = NAME_STACK.try_with(|s| {
                s.borrow_mut().pop();
            });
            if std::thread::panicking() {
                // Park the *innermost* span name for panic attribution (the
                // innermost guard drops first; later, outer guards see the
                // slot taken). Skip the ring: no telemetry mid-unwind.
                let _ = PANIC_SPAN.try_with(|c| {
                    if c.get().is_none() {
                        c.set(Some(self.name));
                    }
                });
                return;
            }
            let record = SpanRecord {
                name: self.name,
                start_ns: self.start_ns,
                duration_ns: end_ns.saturating_sub(self.start_ns),
                value: self.value,
            };
            let _ = RING.try_with(|ring| {
                let mut ring = ring.borrow_mut();
                ring.0.push(record);
                if ring.0.len() >= RING_CAPACITY {
                    drain_into_recorder(&mut ring.0);
                }
            });
        }
    }

    /// Drains the current thread's ring buffer into the recorder so a
    /// snapshot taken right after sees every span this thread completed.
    pub fn flush_thread_spans() {
        let _ = RING.try_with(|ring| drain_into_recorder(&mut ring.borrow_mut().0));
    }

    /// The innermost span that was active on *this thread* when it last
    /// unwound through a span guard, clearing the slot. Used by the thread
    /// pool to attribute task panics.
    pub fn take_panic_span() -> Option<&'static str> {
        PANIC_SPAN.try_with(|c| c.take()).unwrap_or(None)
    }

    /// The most recent completed spans, oldest first (the newest 4 096
    /// are kept; call [`flush_thread_spans`] first for same-thread
    /// completeness).
    pub fn recent_spans() -> Vec<SpanRecord> {
        RECORDER
            .lock()
            .expect("span recorder poisoned")
            .as_ref()
            .map(|inner| inner.recent.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Per-name duration histograms as snapshot entries
    /// (`sigma_span_<name>_duration_ns`), appended by [`crate::snapshot`].
    pub fn span_snapshot_entries() -> Vec<SnapshotEntry> {
        RECORDER
            .lock()
            .expect("span recorder poisoned")
            .as_ref()
            .map(|inner| {
                inner
                    .by_name
                    .iter()
                    .map(|(name, hist)| SnapshotEntry {
                        name: format!("sigma_span_{name}_duration_ns"),
                        label: None,
                        help: "span duration in nanoseconds",
                        value: MetricValue::Histogram(hist.clone()),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(feature = "obs")]
pub use enabled::{
    flush_thread_spans, recent_spans, span_snapshot_entries, take_panic_span, SpanGuard, SpanRecord,
};

#[cfg(not(feature = "obs"))]
mod disabled {
    /// One completed span (no-op build: never produced).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SpanRecord {
        /// Static span name.
        pub name: &'static str,
        /// Enter timestamp, ns since process start.
        pub start_ns: u64,
        /// Exit − enter, ns.
        pub duration_ns: u64,
        /// Magnitude argument.
        pub value: u64,
    }

    /// No-op span guard (`obs` feature disabled).
    #[derive(Debug, Clone, Copy)]
    pub struct SpanGuard;

    impl SpanGuard {
        /// No-op.
        #[inline(always)]
        pub fn enter(_name: &'static str, _value: u64) -> Self {
            SpanGuard
        }

        /// No-op guard without evaluating any argument (what the disabled
        /// `span!` macro expands to).
        #[inline(always)]
        pub fn disabled() -> Self {
            SpanGuard
        }
    }

    /// No-op.
    #[inline(always)]
    pub fn flush_thread_spans() {}

    /// Always `None`.
    #[inline(always)]
    pub fn take_panic_span() -> Option<&'static str> {
        None
    }

    /// Always empty.
    #[inline(always)]
    pub fn recent_spans() -> Vec<SpanRecord> {
        Vec::new()
    }
}

#[cfg(not(feature = "obs"))]
pub use disabled::{flush_thread_spans, recent_spans, take_panic_span, SpanGuard, SpanRecord};

/// Opens a timed span over the enclosing scope: bind the guard to a local
/// (`let _span = span!("spmm", rows);`) and the region from that statement
/// to the end of the scope is recorded under the given static name, with an
/// optional `u64` magnitude. With the `obs` feature disabled this expands
/// to a unit guard and the arguments are **not evaluated**.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, 0)
    };
    ($name:expr, $value:expr) => {
        $crate::SpanGuard::enter($name, $value as u64)
    };
}

/// Disabled-build `span!`: a unit guard, arguments not evaluated.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! span {
    ($name:expr $(, $value:expr)?) => {
        $crate::SpanGuard::disabled()
    };
}
