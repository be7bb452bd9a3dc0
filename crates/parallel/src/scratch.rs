//! Reusable scratch buffers for hot-path kernels.
//!
//! Some kernels need a working buffer per task — spgemm's dense Gustavson
//! accumulator — and allocating it per call puts the allocator on the hot
//! path. A [`ScratchPool`] is a tiny free-list of such buffers: a task takes
//! one (or creates it on first use), works with it, and its return to the
//! pool hands the allocation, grown capacity and all, to the next task.
//!
//! The pool is deliberately *not* part of the determinism story: buffers are
//! only ever scratch space whose logical content is reset by the user (each
//! call site documents its cleanliness invariant), so which physical buffer
//! a task happens to receive can never influence results.

use sigma_obs::StaticCounter;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

static SCRATCH_HITS: StaticCounter = StaticCounter::new(
    "sigma_scratch_hits_total",
    "scratch-pool takes served from the free list (allocation reused)",
);
static SCRATCH_MISSES: StaticCounter = StaticCounter::new(
    "sigma_scratch_misses_total",
    "scratch-pool takes that had to build a fresh buffer",
);

/// Cap on how many buffers a pool retains; takes beyond the cap are still
/// served (freshly built), returns beyond it are dropped. Matches the
/// maximum concurrency a pool-wide kernel can reach.
pub const DEFAULT_RETAINED: usize = crate::MAX_THREADS;

/// A free-list of reusable buffers, shared across threads.
///
/// Intended to live in a `static` next to the kernel that uses it:
///
/// ```
/// use sigma_parallel::ScratchPool;
///
/// static SCRATCH: ScratchPool<Vec<f32>> = ScratchPool::new();
///
/// let mut buf = SCRATCH.take_or_else(Vec::new);
/// buf.resize(128, 0.0);
/// // ... use the buffer; site invariant: return it zeroed ...
/// buf.iter_mut().for_each(|v| *v = 0.0);
/// drop(buf); // back to the pool
/// assert!(SCRATCH.retained() >= 1);
/// ```
///
/// Each call site must document the state a buffer is returned in (e.g.
/// "all-zero", "cleared"), because the next taker relies on it.
pub struct ScratchPool<T: Send> {
    free: Mutex<Vec<T>>,
}

impl<T: Send> ScratchPool<T> {
    /// An empty pool retaining up to [`DEFAULT_RETAINED`] buffers.
    pub const fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled buffer, or `None` if the free list is empty.
    pub fn take(&self) -> Option<T> {
        self.free.lock().expect("scratch pool poisoned").pop()
    }

    /// Takes a pooled buffer, building a fresh one with `make` if none is
    /// free. The buffer returns to the pool when the guard drops.
    pub fn take_or_else(&self, make: impl FnOnce() -> T) -> ScratchGuard<'_, T> {
        let value = match self.take() {
            Some(pooled) => {
                SCRATCH_HITS.inc();
                pooled
            }
            None => {
                SCRATCH_MISSES.inc();
                make()
            }
        };
        ScratchGuard {
            pool: self,
            value: Some(value),
        }
    }

    /// Returns a buffer to the free list (dropped if the pool already
    /// retains its maximum).
    pub fn put(&self, value: T) {
        let mut free = self.free.lock().expect("scratch pool poisoned");
        if free.len() < DEFAULT_RETAINED {
            free.push(value);
        }
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

impl<T: Send> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("retained", &self.retained())
            .finish()
    }
}

/// RAII handle to a buffer borrowed from a [`ScratchPool`]; derefs to the
/// buffer and returns it to the pool on drop.
pub struct ScratchGuard<'p, T: Send> {
    pool: &'p ScratchPool<T>,
    value: Option<T>,
}

impl<T: Send> Deref for ScratchGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("guard value present until drop")
    }
}

impl<T: Send> DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("guard value present until drop")
    }
}

impl<T: Send> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(value) = self.value.take() {
            self.pool.put(value);
        }
    }
}

impl<T: Send + std::fmt::Debug> std::fmt::Debug for ScratchGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ScratchGuard").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_or_else_reuses_returned_buffers() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        {
            let mut a = pool.take_or_else(Vec::new);
            a.push(7);
            a.clear();
        }
        assert_eq!(pool.retained(), 1);
        let b = pool.take_or_else(|| panic!("must reuse the pooled buffer"));
        assert!(b.is_empty());
        assert!(b.capacity() >= 1, "capacity survives the round trip");
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn retention_is_capped() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        for _ in 0..DEFAULT_RETAINED + 5 {
            pool.put(Vec::new());
        }
        assert_eq!(pool.retained(), DEFAULT_RETAINED);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        static POOL: ScratchPool<Vec<usize>> = ScratchPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..16 {
                        let mut buf = POOL.take_or_else(Vec::new);
                        buf.push(i);
                        buf.clear();
                    }
                });
            }
        });
        assert!(POOL.retained() >= 1);
    }
}
