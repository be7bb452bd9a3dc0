//! # sigma-parallel
//!
//! The shared execution layer of the SIGMA reproduction: one global,
//! lazily-initialised thread pool that every hot kernel (`spmm`,
//! `spmm_transpose`, `spgemm`, dense GEMM, LocalPush, the serving engine)
//! dispatches onto, instead of each crate hand-rolling its own threading.
//!
//! ## Design
//!
//! * **Global pool, lazy start.** [`ThreadPool::global`] spawns workers on
//!   first use. The pool size comes from the `SIGMA_NUM_THREADS` environment
//!   variable, falling back to [`std::thread::available_parallelism`]; it can
//!   be overridden at runtime with [`set_global_threads`] (used by the
//!   `threads` knobs in `sigma::ContextBuilder` / `sigma::TrainConfig` and by
//!   the serial-vs-parallel parity tests). Standalone pools for tests come
//!   from [`ThreadPool::with_threads`].
//! * **Scoped execution, hand-rolled.** There is no registry access in this
//!   build environment, so no `rayon`: work is pushed as boxed closures onto
//!   a chunked queue and joined with a `std::thread::scope`-style latch. The
//!   submitting thread *participates* (it executes queued work while
//!   waiting), which both uses the extra core and makes nested submissions
//!   deadlock-free.
//! * **Determinism.** The primitives partition *disjoint output-row ranges*,
//!   so every output element is written by exactly one task using the same
//!   sequential accumulation order as the serial loop. Kernel results are
//!   therefore **bitwise identical** for every thread count — enforced by
//!   the parity tests in `crates/matrix/tests` and `crates/simrank/tests`,
//!   and by CI running the whole suite under `SIGMA_NUM_THREADS=1` and `=4`.
//! * **nnz-balanced planning.** Where the ranges are cut is *not* part of
//!   the determinism contract (any cut of the same row order yields the
//!   same bits), so kernels with skewed per-row costs plan their ranges
//!   with [`partition_by_weight`] / [`partition_by_prefix`] — near-equal
//!   total nnz per range instead of near-equal row counts — and power-law
//!   graphs stop serialising behind their heaviest rows. The prefix form
//!   reads a CSR `indptr` as it stands, a `&[usize]` whether the matrix is
//!   owned or mapped off a snapshot file.
//! * **Scratch reuse.** Kernels that need per-task working buffers (spgemm's
//!   Gustavson accumulator) recycle them through a [`ScratchPool`] instead
//!   of allocating per call.
//! * **Panic propagation.** A panic inside a task is caught, the scope still
//!   joins every sibling task, and the payload is re-raised on the
//!   submitting thread. Workers survive panics. When the panicking task was
//!   inside a `sigma_obs::span!` region, the innermost span's name is
//!   appended to string payloads (`"... (in span 'spmm')"`) so a kernel
//!   panic under load is attributable to the kernel that raised it.
//! * **Observability.** With the (default) `obs` feature the pool exports
//!   task counts, queue depth, per-worker busy nanoseconds and two range
//!   imbalance histograms — the planner's *predicted* max/ideal weight
//!   ratio next to the *measured* max/mean task wall-time ratio (both in
//!   permille, 1000 = perfectly balanced) — through `sigma_obs`. All of it
//!   is relaxed atomics off the lock paths; with `obs` disabled every hook
//!   compiles to nothing.
//!
//! ## Example
//!
//! ```
//! use sigma_parallel::ThreadPool;
//!
//! let mut data = vec![0u64; 1000];
//! // Each block of rows is owned by exactly one task.
//! ThreadPool::global().par_row_blocks_mut(&mut data, 10, |first_row, block| {
//!     for (i, row) in block.chunks_mut(10).enumerate() {
//!         row.iter_mut().for_each(|v| *v = (first_row + i) as u64);
//!     }
//! });
//! assert_eq!(data[995], 99);
//! ```

#![deny(missing_docs)]

mod scratch;

pub use scratch::{ScratchGuard, ScratchPool};

use sigma_obs::{StaticCounter, StaticCounterFamily, StaticGauge, StaticHistogram, Stopwatch};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

static POOL_TASKS: StaticCounter = StaticCounter::new(
    "sigma_pool_tasks_total",
    "scoped tasks submitted through ThreadPool::run (inline fast paths included)",
);
static POOL_QUEUE_DEPTH: StaticGauge = StaticGauge::new(
    "sigma_pool_queue_depth",
    "boxed jobs currently waiting in the shared work queue",
);
static POOL_WORKER_BUSY_NS: StaticCounterFamily<MAX_THREADS> = StaticCounterFamily::new(
    "sigma_pool_worker_busy_ns",
    "worker",
    "nanoseconds each pool worker (by spawn index) spent executing jobs",
);
static POOL_SUBMITTER_BUSY_NS: StaticCounter = StaticCounter::new(
    "sigma_pool_submitter_busy_ns",
    "nanoseconds submitting threads spent executing queued jobs during help-first joins",
);
static POOL_IMBALANCE_PREDICTED: StaticHistogram = StaticHistogram::new(
    "sigma_pool_imbalance_predicted_permille",
    "planner-predicted range imbalance: heaviest range weight over the ideal equal share, permille (1000 = perfectly balanced)",
);
static POOL_IMBALANCE_MEASURED: StaticHistogram = StaticHistogram::new(
    "sigma_pool_imbalance_measured_permille",
    "measured range imbalance: slowest task wall time over the mean task wall time, permille (1000 = perfectly balanced)",
);

/// Per-task wall-time sampler feeding the measured-imbalance histogram.
///
/// Allocates one atomic slot per range when instrumentation is enabled and
/// more than one range will run; otherwise it is an empty vector and both
/// [`TaskTimer::time`] and [`TaskTimer::record`] reduce to the bare closure
/// call. Comparing its histogram against the planner's predicted imbalance
/// (recorded in [`partition_by_prefix`]) shows how well nnz-proportional
/// weights model real per-range cost.
struct TaskTimer {
    samples: Vec<AtomicU64>,
}

impl TaskTimer {
    fn new(parts: usize) -> Self {
        let samples = if sigma_obs::ENABLED && parts > 1 {
            (0..parts).map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        Self { samples }
    }

    #[inline]
    fn time<T>(&self, index: usize, f: impl FnOnce() -> T) -> T {
        if self.samples.is_empty() {
            return f();
        }
        let sw = Stopwatch::start();
        let out = f();
        // `max(1)`: a sub-nanosecond task still counts as having run.
        self.samples[index].store(sw.elapsed_ns().max(1), Ordering::Relaxed);
        out
    }

    fn record(&self) {
        if self.samples.is_empty() {
            return;
        }
        let loads: Vec<u64> = self
            .samples
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        if total == 0 || max == 0 {
            return;
        }
        let mean = total as f64 / loads.len() as f64;
        POOL_IMBALANCE_MEASURED.record(((max as f64 / mean) * 1000.0) as u64);
    }
}

/// Attaches the innermost `sigma_obs` span name (if the panicking task was
/// inside one) to string panic payloads, so the message re-raised by the
/// submitting thread names the kernel that failed. Non-string payloads pass
/// through untouched; with `obs` disabled this is the identity function.
fn attach_panic_span(payload: Box<dyn std::any::Any + Send>) -> Box<dyn std::any::Any + Send> {
    let Some(span) = sigma_obs::take_panic_span() else {
        return payload;
    };
    let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    match message {
        Some(m) => Box::new(format!("{m} (in span '{span}')")),
        None => payload,
    }
}

/// Work (in inner-loop operations, e.g. FLOPs) below which parallel dispatch
/// is not worth the queueing overhead and kernels should stay serial.
pub const MIN_PARALLEL_WORK: usize = 32_768;

/// Upper bound on configurable thread counts (safety valve for absurd
/// `SIGMA_NUM_THREADS` values).
pub const MAX_THREADS: usize = 256;

/// Runtime override installed by [`set_global_threads`] (0 = unset).
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `SIGMA_NUM_THREADS`, else the core count — read once at first use. Both
/// are properties of the process's start; `available_parallelism` costs a
/// `sched_getaffinity` and a walk of the cgroup quota files (~13 µs), which
/// every `predict_batch` paid when the variable was unset.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("SIGMA_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
    })
}

/// The thread count the global pool currently targets: the
/// [`set_global_threads`] override if set, else `SIGMA_NUM_THREADS`, else
/// [`std::thread::available_parallelism`] (the latter two as they stood at
/// first use). Always at least 1, at most [`MAX_THREADS`].
pub fn current_threads() -> usize {
    let override_n = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
    let n = if override_n > 0 {
        override_n
    } else {
        default_threads()
    };
    n.clamp(1, MAX_THREADS)
}

/// Overrides the global pool's thread count at runtime. `n = 0` clears the
/// override (falling back to `SIGMA_NUM_THREADS` / the core count); other
/// values are clamped to `[1, MAX_THREADS]`.
///
/// Raising the count after the pool has started spawns additional workers on
/// demand; lowering it leaves the extra workers idle. Because every kernel's
/// partitioning is deterministic in its *output* (not in the thread count),
/// changing this mid-flight never changes results, only throughput.
pub fn set_global_threads(n: usize) {
    let value = if n == 0 { 0 } else { n.clamp(1, MAX_THREADS) };
    GLOBAL_OVERRIDE.store(value, Ordering::Relaxed);
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    spawned_workers: usize,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    job_ready: Condvar,
}

/// Join latch for one scoped submission: counts outstanding tasks and holds
/// the first panic payload, re-raised by the submitter once all siblings
/// have finished.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete_one(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch lock poisoned") == 0
    }

    fn wait_briefly(&self) {
        let remaining = self.remaining.lock().expect("latch lock poisoned");
        if *remaining > 0 {
            // Timed wait: a sibling may finish between our queue poll and
            // this wait, and tasks stolen by other scopes' submitters do not
            // notify us; the timeout bounds that race instead of a missed
            // wake-up hanging the scope.
            let _ = self
                .done
                .wait_timeout(remaining, Duration::from_micros(500))
                .expect("latch lock poisoned");
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("latch panic lock poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().expect("latch panic lock poisoned").take()
    }
}

/// A chunked-work-queue thread pool with scoped joins.
///
/// Use [`ThreadPool::global`] everywhere except tests that need an isolated
/// pool ([`ThreadPool::with_threads`]). All `par_*` primitives partition
/// disjoint output ranges, preserving the serial accumulation order per
/// output element, so results are bitwise identical at every thread count.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Fixed size for standalone pools; `None` = track [`current_threads`].
    fixed_threads: Option<usize>,
    /// Join handles of standalone pools (the global pool's workers are
    /// detached: it lives for the whole process).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.num_threads())
            .field("fixed", &self.fixed_threads.is_some())
            .finish()
    }
}

impl ThreadPool {
    /// The process-wide shared pool, started lazily on first use.
    pub fn global() -> &'static ThreadPool {
        GLOBAL_POOL.get_or_init(|| ThreadPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    spawned_workers: 0,
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
            }),
            fixed_threads: None,
            handles: Mutex::new(Vec::new()),
        })
    }

    /// A standalone pool with a fixed thread count (workers are joined on
    /// drop). Intended for tests; production code should share
    /// [`ThreadPool::global`].
    pub fn with_threads(n: usize) -> ThreadPool {
        ThreadPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    spawned_workers: 0,
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
            }),
            fixed_threads: Some(n.clamp(1, MAX_THREADS)),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The thread count this pool currently targets (submitting thread
    /// included).
    pub fn num_threads(&self) -> usize {
        self.fixed_threads.unwrap_or_else(current_threads)
    }

    /// Whether a kernel with `work` inner-loop operations should bother
    /// splitting: requires more than one thread and enough work to amortise
    /// dispatch (see [`MIN_PARALLEL_WORK`]).
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.num_threads() > 1 && work >= MIN_PARALLEL_WORK
    }

    /// Runs a set of scoped tasks to completion.
    ///
    /// Tasks may borrow from the caller's stack: the call does not return
    /// until every task has finished (or the first panic has been joined and
    /// re-raised). The submitting thread executes queued work while it
    /// waits, so nested `run` calls from inside a task cannot deadlock.
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        POOL_TASKS.add(tasks.len() as u64);
        match tasks.len() {
            0 => return,
            1 => {
                // Single task: run inline, no queue round-trip.
                for task in tasks {
                    task();
                }
                return;
            }
            _ => {}
        }
        if self.num_threads() == 1 {
            // Serial pool: preserve submission order exactly.
            for task in tasks {
                task();
            }
            return;
        }

        let task_count = tasks.len();
        let latch = Arc::new(Latch::new(task_count));
        self.ensure_workers(self.num_threads().saturating_sub(1).min(task_count - 1));
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                let latch = Arc::clone(&latch);
                let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    // Discard any span parked by an unrelated earlier unwind
                    // on this thread so a panic here is attributed only to a
                    // span *this* task was inside.
                    let _ = sigma_obs::take_panic_span();
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        latch.record_panic(attach_panic_span(payload));
                    }
                    latch.complete_one();
                });
                // SAFETY: `run` blocks on the latch until every task has
                // executed (workers decrement even on panic), so the `'scope`
                // borrows captured by the task strictly outlive its
                // execution. This is the standard scoped-pool erasure; only
                // the lifetime is transmuted, the layout is identical.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'scope>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(wrapped)
                };
                queue.jobs.push_back(job);
            }
            POOL_QUEUE_DEPTH.add(task_count as i64);
            self.shared.job_ready.notify_all();
        }
        // Help-first join: keep executing queued work (ours or a nested
        // scope's) until our own latch opens.
        while !latch.is_done() {
            let job = {
                let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
                queue.jobs.pop_front()
            };
            match job {
                Some(job) => {
                    POOL_QUEUE_DEPTH.sub(1);
                    let sw = Stopwatch::start();
                    job();
                    POOL_SUBMITTER_BUSY_NS.add(sw.elapsed_ns());
                }
                None => latch.wait_briefly(),
            }
        }
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
    }

    /// Splits row-major `data` (`data.len() / width` rows of `width`
    /// elements) into at most [`ThreadPool::num_threads`] contiguous row
    /// blocks and runs `f(first_row, block)` on each in parallel.
    ///
    /// Each output row is owned by exactly one call, so any `f` that fills
    /// its block with a per-row computation produces bitwise-identical
    /// results at every thread count. With one thread (or one block) this is
    /// exactly `f(0, data)`.
    pub fn par_row_blocks_mut<T, F>(&self, data: &mut [T], width: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        if width == 0 {
            f(0, data);
            return;
        }
        let rows = data.len() / width;
        self.par_row_blocks_in_ranges(data, width, split_into(rows, self.num_threads()), f);
    }

    /// Weighted variant of [`ThreadPool::par_row_blocks_mut`]: rows are cut
    /// into blocks of near-equal total `weights` (one weight per row, e.g.
    /// the row's nnz) instead of equal row count, so skewed row costs spread
    /// evenly across threads.
    ///
    /// Row ownership is unchanged — each output row is still produced by
    /// exactly one call with the serial per-row computation — so results are
    /// bitwise identical to [`ThreadPool::par_row_blocks_mut`] (and to the
    /// serial path) for every thread count *and* for every weight vector.
    pub fn par_row_blocks_mut_weighted<T, F>(
        &self,
        data: &mut [T],
        width: usize,
        weights: &[usize],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        if width == 0 {
            f(0, data);
            return;
        }
        let rows = data.len() / width;
        debug_assert_eq!(weights.len(), rows, "one weight per row");
        let ranges = if weights.len() == rows {
            partition_by_weight(weights, self.num_threads())
        } else {
            split_into(rows, self.num_threads())
        };
        self.par_row_blocks_in_ranges(data, width, ranges, f);
    }

    /// Prefix-sum variant of [`ThreadPool::par_row_blocks_mut_weighted`]:
    /// `prefix` has one entry per row boundary (`rows + 1` values,
    /// non-decreasing), exactly the shape of a CSR `indptr` array, so sparse
    /// kernels can plan nnz-balanced blocks with no intermediate weight
    /// vector.
    pub fn par_row_blocks_mut_by_prefix<T, F>(
        &self,
        data: &mut [T],
        width: usize,
        prefix: &[usize],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        if width == 0 {
            f(0, data);
            return;
        }
        let rows = data.len() / width;
        debug_assert_eq!(prefix.len(), rows + 1, "prefix has rows + 1 entries");
        let ranges = if prefix.len() == rows + 1 {
            partition_by_prefix(prefix, self.num_threads())
        } else {
            split_into(rows, self.num_threads())
        };
        self.par_row_blocks_in_ranges(data, width, ranges, f);
    }

    /// Runs `f(first_row, block)` over the row blocks described by `ranges`
    /// (contiguous, covering, in order). Shared body of the row-block
    /// primitives.
    fn par_row_blocks_in_ranges<T, F>(
        &self,
        data: &mut [T],
        width: usize,
        ranges: Vec<Range<usize>>,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if ranges.len() <= 1 {
            f(0, data);
            return;
        }
        let timer = TaskTimer::new(ranges.len());
        let f = &f;
        let timer_ref = &timer;
        let last = ranges.len() - 1;
        let mut rest = data;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
        for (i, range) in ranges.into_iter().enumerate() {
            // The final block also carries any trailing elements that do not
            // form a whole row (mirrors the historical `chunks_mut` split).
            let len = if i == last {
                rest.len()
            } else {
                range.len() * width
            };
            let (block, tail) = rest.split_at_mut(len);
            rest = tail;
            let first_row = range.start;
            tasks.push(Box::new(move || timer_ref.time(i, || f(first_row, block))));
        }
        self.run(tasks);
        timer.record();
    }

    /// Partitions `0..weights.len()` into at most
    /// [`ThreadPool::num_threads`] contiguous ranges of near-equal total
    /// weight (see [`partition_by_weight`]) and maps each through `f`,
    /// returning results in range order. This is the nnz-balanced planner:
    /// kernels whose per-row cost is proportional to the row's stored
    /// entries pass `row_nnz` weights so a skewed (power-law) row
    /// distribution still spreads evenly across threads.
    ///
    /// Callers that concatenate the per-range results in order (the
    /// row-range kernels) get output that is a pure function of the row
    /// order — identical for every thread count and weight vector.
    pub fn par_map_ranges_weighted<R, F>(&self, weights: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map_ranges(partition_by_weight(weights, self.num_threads()), f)
    }

    /// Prefix-sum variant of [`ThreadPool::par_map_ranges_weighted`]:
    /// `prefix` holds `rows + 1` non-decreasing cumulative weights (the CSR
    /// `indptr` shape), avoiding an intermediate weight vector.
    pub fn par_map_ranges_by_prefix<R, F>(&self, prefix: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map_ranges(partition_by_prefix(prefix, self.num_threads()), f)
    }

    /// Maps each of `ranges` through `f` as one scoped task, returning
    /// results in range order. Shared body of the range-mapping primitives.
    fn map_ranges<R, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if ranges.len() <= 1 {
            return ranges.into_iter().map(&f).collect();
        }
        let timer = TaskTimer::new(ranges.len());
        let mut slots: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
        {
            let f = &f;
            let timer = &timer;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
                .into_iter()
                .zip(slots.iter_mut())
                .enumerate()
                .map(|(i, (range, slot))| {
                    Box::new(move || *slot = Some(timer.time(i, || f(range))))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.run(tasks);
        }
        timer.record();
        slots
            .into_iter()
            .map(|s| s.expect("every range task ran to completion"))
            .collect()
    }

    /// Spawns workers until at least `target` are alive (capped by
    /// [`MAX_THREADS`]).
    fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_THREADS);
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        while queue.spawned_workers < target {
            let shared = Arc::clone(&self.shared);
            let index = queue.spawned_workers;
            let handle = std::thread::Builder::new()
                .name(format!("sigma-parallel-{index}"))
                .spawn(move || worker_loop(shared, index))
                .expect("spawning a sigma-parallel worker thread");
            queue.spawned_workers += 1;
            if self.fixed_threads.is_some() {
                self.handles
                    .lock()
                    .expect("pool handle list poisoned")
                    .push(handle);
            }
            // The global pool's workers are intentionally detached: the pool
            // lives until process exit.
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Only standalone pools are ever dropped (the global pool lives in a
        // `OnceLock` static). Tell workers to exit once the queue drains.
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for handle in self
            .handles
            .lock()
            .expect("pool handle list poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .expect("pool queue poisoned while waiting");
            }
        };
        match job {
            // Jobs are panic-wrapped at submission, so this cannot unwind.
            Some(job) => {
                POOL_QUEUE_DEPTH.sub(1);
                let sw = Stopwatch::start();
                job();
                POOL_WORKER_BUSY_NS.add(index, sw.elapsed_ns());
            }
            None => return,
        }
    }
}

/// Splits `0..n` into at most `parts` contiguous, near-equal ranges.
fn split_into(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let per = n.div_ceil(parts);
    (0..parts)
        .map(|i| (i * per).min(n)..((i + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Cuts `0..weights.len()` into at most `parts` contiguous, non-empty
/// ranges of near-equal total weight.
///
/// This is the nnz-balanced work planner: weights are per-row work
/// estimates (a CSR row's nnz, a Gustavson row's flop count, a serve
/// chunk's operator mass), and the returned ranges are what a kernel's
/// scoped tasks should own so a skewed (power-law) distribution still
/// spreads evenly across threads. The ranges are disjoint, cover every
/// index in order, and each carries total weight at most
/// `ceil(total / parts) + max(weights)` — within 2× of the ideal share
/// whenever no single item exceeds it (a heavier item is an unsplittable
/// unit and bounds its range alone). All-zero weights degrade to the
/// equal-count split.
///
/// Any cut of the same row order yields bitwise-identical kernel output
/// (each row is still produced by exactly one task in serial order), so the
/// planner is free to balance without entering the determinism contract.
pub fn partition_by_weight(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let mut prefix = Vec::with_capacity(weights.len() + 1);
    let mut acc = 0usize;
    prefix.push(0usize);
    for &w in weights {
        acc = acc.saturating_add(w);
        prefix.push(acc);
    }
    partition_by_prefix(&prefix, parts)
}

/// [`partition_by_weight`] over a precomputed cumulative-weight array:
/// `prefix` holds `n + 1` non-decreasing values and item `i` weighs
/// `prefix[i + 1] - prefix[i]` — exactly the shape of a CSR `indptr`, which
/// sparse kernels pass directly. Cut points are found by binary search, so
/// planning costs `O(parts · log n)`.
pub fn partition_by_prefix(prefix: &[usize], parts: usize) -> Vec<Range<usize>> {
    assert!(!prefix.is_empty(), "prefix holds n + 1 entries");
    debug_assert!(
        prefix.windows(2).all(|w| w[1] >= w[0]),
        "prefix must be non-decreasing"
    );
    let n = prefix.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    if parts == 1 {
        return std::iter::once(0..n).collect();
    }
    let base = prefix[0];
    let total = prefix[n] - base;
    if total == 0 {
        // Every item weighs nothing: fall back to the equal-count split so
        // zero-heavy inputs still use all threads.
        return split_into(n, parts);
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let end = if p + 1 == parts {
            // The last part always reaches n, absorbing any zero-weight tail.
            n
        } else {
            // Smallest index whose cumulative weight reaches this part's
            // share of the total (u128: `total * parts` may overflow usize).
            let target = base + ((total as u128 * (p as u128 + 1)) / parts as u128) as usize;
            start + prefix[start..=n].partition_point(|&x| x < target)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    if sigma_obs::ENABLED && ranges.len() > 1 {
        // What the planner *expects* the imbalance to be: heaviest range
        // weight over the ideal equal share. Compared against the measured
        // task wall-time imbalance recorded by the execution primitives.
        let max_w = ranges
            .iter()
            .map(|r| prefix[r.end] - prefix[r.start])
            .max()
            .unwrap_or(0);
        let ideal = total as f64 / ranges.len() as f64;
        if ideal > 0.0 {
            POOL_IMBALANCE_PREDICTED.record(((max_w as f64 / ideal) * 1000.0) as u64);
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_into_covers_exactly() {
        for n in [0usize, 1, 5, 17, 100] {
            for parts in [1usize, 2, 4, 7] {
                let ranges = split_into(n, parts);
                let mut covered = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, covered, "ranges must be contiguous");
                    assert!(r.end > r.start);
                    covered = r.end;
                }
                assert_eq!(covered, n);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn par_row_blocks_write_disjoint_rows() {
        let pool = ThreadPool::with_threads(4);
        let (rows, width) = (103usize, 7usize);
        let mut data = vec![0u32; rows * width];
        pool.par_row_blocks_mut(&mut data, width, |first_row, block| {
            for (i, row) in block.chunks_mut(width).enumerate() {
                let r = first_row + i;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (r * width + j) as u32;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
    }

    #[test]
    fn par_map_ranges_weighted_preserves_order() {
        let pool = ThreadPool::with_threads(3);
        let unit = vec![1usize; 1000];
        let sums = pool.par_map_ranges_weighted(&unit, |r| r.clone().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..1000).sum::<usize>());
        // Single-thread pool produces the same partition results serially.
        let serial =
            ThreadPool::with_threads(1).par_map_ranges_weighted(&unit, |r| r.sum::<usize>());
        assert_eq!(serial.iter().sum::<usize>(), (0..1000).sum::<usize>());
    }

    #[test]
    fn panics_propagate_after_join() {
        let pool = ThreadPool::with_threads(2);
        let hits = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|i| {
                    let hits = &hits;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task failure");
                        }
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "the task panic must be re-raised");
        // Every sibling still ran: the scope joins before unwinding.
        assert_eq!(hits.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = ThreadPool::with_threads(2);
        let total = AtomicUsize::new(0);
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let total = &total;
                let pool = &pool;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            Box::new(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.run(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(outer);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn global_override_clamps_and_clears() {
        set_global_threads(usize::MAX);
        assert_eq!(current_threads(), MAX_THREADS);
        set_global_threads(3);
        assert_eq!(current_threads(), 3);
        set_global_threads(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn partition_by_weight_balances_skewed_rows() {
        // Power-law-ish weights: one heavy head, long light tail.
        let weights: Vec<usize> = (0..100).map(|i| 1000 / (i + 1)).collect();
        let total: usize = weights.iter().sum();
        let parts = 4;
        let ranges = partition_by_weight(&weights, parts);
        // Disjoint + covering, in order.
        let mut covered = 0usize;
        for r in &ranges {
            assert_eq!(r.start, covered);
            assert!(r.end > r.start);
            covered = r.end;
        }
        assert_eq!(covered, weights.len());
        assert!(ranges.len() <= parts);
        // Each range within the planner's bound.
        let ideal = total.div_ceil(parts);
        let max_item = *weights.iter().max().unwrap();
        for r in &ranges {
            let w: usize = weights[r.clone()].iter().sum();
            assert!(
                w <= ideal + max_item,
                "range {r:?} weighs {w}, bound {}",
                ideal + max_item
            );
        }
        // Strictly better max-range weight than the equal-count split.
        let count_max = split_into(weights.len(), parts)
            .iter()
            .map(|r| weights[r.clone()].iter().sum::<usize>())
            .max()
            .unwrap();
        let weight_max = ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum::<usize>())
            .max()
            .unwrap();
        assert!(weight_max < count_max, "{weight_max} !< {count_max}");
    }

    #[test]
    fn partition_by_weight_handles_adversarial_inputs() {
        // All-empty rows: degrade to the equal-count split.
        let ranges = partition_by_weight(&[0usize; 10], 3);
        assert_eq!(ranges.iter().map(Range::len).sum::<usize>(), 10);
        assert!(ranges.len() > 1, "zero weights must still use all threads");
        // A single heavy row is isolated without losing the zero tail.
        let mut weights = vec![0usize; 9];
        weights.insert(0, 1_000_000);
        let ranges = partition_by_weight(&weights, 4);
        assert_eq!(ranges.first().map(|r| r.clone().count()), Some(1));
        assert_eq!(ranges.iter().map(Range::len).sum::<usize>(), 10);
        // Empty input.
        assert!(partition_by_weight(&[], 4).is_empty());
        // Prefix form agrees with the weight form.
        let weights: Vec<usize> = (0..50).map(|i| (i * 7) % 13).collect();
        let mut prefix = vec![0usize];
        for &w in &weights {
            prefix.push(prefix.last().unwrap() + w);
        }
        assert_eq!(
            partition_by_weight(&weights, 4),
            partition_by_prefix(&prefix, 4)
        );
    }

    #[test]
    fn weighted_row_blocks_write_every_row_once() {
        let pool = ThreadPool::with_threads(4);
        let (rows, width) = (97usize, 5usize);
        // Heavily skewed weights so the cuts are uneven.
        let weights: Vec<usize> = (0..rows).map(|r| if r < 3 { 500 } else { 1 }).collect();
        let mut data = vec![0u32; rows * width];
        pool.par_row_blocks_mut_weighted(&mut data, width, &weights, |first_row, block| {
            for (i, row) in block.chunks_mut(width).enumerate() {
                let r = first_row + i;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (r * width + j) as u32;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
        // Prefix variant produces the same coverage.
        let mut prefix = vec![0usize];
        for &w in &weights {
            prefix.push(prefix.last().unwrap() + w);
        }
        let mut data2 = vec![0u32; rows * width];
        pool.par_row_blocks_mut_by_prefix(&mut data2, width, &prefix, |first_row, block| {
            for (i, row) in block.chunks_mut(width).enumerate() {
                let r = first_row + i;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (r * width + j) as u32;
                }
            }
        });
        assert_eq!(data, data2);
    }

    #[test]
    fn should_parallelize_respects_threshold() {
        let pool = ThreadPool::with_threads(4);
        assert!(!pool.should_parallelize(10));
        assert!(pool.should_parallelize(MIN_PARALLEL_WORK));
        let serial = ThreadPool::with_threads(1);
        assert!(!serial.should_parallelize(usize::MAX));
    }
}
