//! Panic-span attribution (observability PR satellite): when a scoped task
//! panics inside a `sigma_obs::span!` region, the payload re-raised by the
//! submitting thread carries the innermost span's name, so a kernel panic
//! under load is attributable without a debugger attached.
//!
//! These tests need the `obs` feature (on by default); with it disabled the
//! span machinery is compiled out and panics propagate with their original
//! payloads, which `panics_propagate_after_join` in the unit suite covers.
#![cfg(feature = "obs")]

use sigma_parallel::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        panic!("expected a string panic payload");
    }
}

fn run_tasks(pool: &ThreadPool, tasks: Vec<Box<dyn FnOnce() + Send + '_>>) -> String {
    let result = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
    let payload = result.expect_err("the task panic must be re-raised");
    payload_message(payload.as_ref())
}

#[test]
fn panic_inside_span_names_the_span() {
    let pool = ThreadPool::with_threads(2);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
        .map(|i| {
            Box::new(move || {
                let _span = sigma_obs::span!("obs_test_kernel", 7);
                if i == 2 {
                    panic!("deliberate failure");
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let message = run_tasks(&pool, tasks);
    assert_eq!(message, "deliberate failure (in span 'obs_test_kernel')");
}

#[test]
fn nested_spans_attribute_the_innermost() {
    let pool = ThreadPool::with_threads(2);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
        .map(|i| {
            Box::new(move || {
                let _outer = sigma_obs::span!("obs_test_outer");
                let _inner = sigma_obs::span!("obs_test_inner");
                if i == 0 {
                    panic!("nested failure");
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let message = run_tasks(&pool, tasks);
    assert_eq!(message, "nested failure (in span 'obs_test_inner')");
}

#[test]
fn panic_outside_any_span_is_untouched() {
    let pool = ThreadPool::with_threads(2);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
        .map(|i| {
            Box::new(move || {
                if i == 1 {
                    panic!("plain failure");
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let message = run_tasks(&pool, tasks);
    assert_eq!(message, "plain failure");
}

#[test]
fn non_string_payloads_pass_through() {
    let pool = ThreadPool::with_threads(2);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
        .map(|i| {
            Box::new(move || {
                let _span = sigma_obs::span!("obs_test_typed");
                if i == 0 {
                    std::panic::panic_any(42usize);
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let result = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
    let payload = result.expect_err("the task panic must be re-raised");
    assert_eq!(payload.downcast_ref::<usize>(), Some(&42));
}

#[test]
fn pool_exports_task_and_scratch_metrics() {
    let pool = ThreadPool::with_threads(4);
    let before = sigma_obs::snapshot().counter("sigma_pool_tasks_total");
    let sums = pool.par_map_ranges_weighted(&vec![1usize; 10_000], |r| r.sum::<usize>());
    assert_eq!(sums.iter().sum::<usize>(), (0..10_000).sum::<usize>());
    let after = sigma_obs::snapshot().counter("sigma_pool_tasks_total");
    assert!(
        after > before,
        "running scoped tasks must bump sigma_pool_tasks_total ({before} -> {after})"
    );
}
