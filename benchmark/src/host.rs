//! What the benchmark reads about the machine it runs on.

use crate::report::RunError;
use crate::spec::MAX_LOAD_THREADS;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Threads a workload may run at once (`repair_churn`'s reader and
/// editor): never more than the host has cores, so the load measures the
/// program, not the scheduler. On a 1-core host everything drops to 1.
pub fn load_threads() -> usize {
    cores().min(MAX_LOAD_THREADS)
}

/// Pool threads for a compute-bound workload: one core fewer than the host
/// has. A fork-join over every core waits, at each join, for whichever
/// core the host's other tenants, the kernel or the harness's parent
/// slowed last, so its time is the worst of the cores' times; with a core
/// left over that work lands there instead.
pub fn compute_threads() -> usize {
    (cores() - 1).clamp(1, MAX_LOAD_THREADS)
}

/// 1-minute load average, or a negative value where `/proc` has none.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of a live process, in megabytes.
pub fn peak_rss_mb(pid: u32) -> Result<f64, RunError> {
    status_kb(pid, "VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| RunError::Setup(format!("no VmHWM in /proc/{pid}/status")))
}

// The three scheduler calls below come from the C library the standard
// library already links; the benchmark has no `libc` crate to name them.
#[cfg(target_os = "linux")]
mod sched {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];
    pub const SCHED_IDLE: i32 = 5;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        /// `param` points at a `struct sched_param`, which is one `int`.
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
}

/// Pins the calling thread, and every thread and child process it starts
/// afterwards, to the last CPU it may run on, and returns that CPU. Where
/// the threads of a request sit decides how its hand-offs are paid: on one
/// CPU they are context switches, across two they are inter-processor
/// interrupts, which a virtual machine makes slow and a neighbour makes
/// slower. The scheduler picks one or the other per run and stays with it,
/// so an unpinned ping-pong workload reads in two modes a third apart.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: sched::CpuSet = [0; 16];
    let size = std::mem::size_of::<sched::CpuSet>();
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of `size` bytes.
    if unsafe { sched::sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only: sched::CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live `cpu_set_t` of `size` bytes.
    (unsafe { sched::sched_setaffinity(0, size, &only) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A thread that spins at idle priority (`SCHED_IDLE`) on the CPU of the
/// thread that started it, until dropped. Any other thread preempts it the
/// moment it wakes, so it costs the measured program nothing; what it buys
/// is that the virtual CPU never halts while the program sleeps, so waking
/// from a timer does not wait for the host to schedule the virtual CPU
/// back in.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IdleSpinner {
    /// `None` where the policy cannot be set: nothing spins at a priority
    /// that could take time from the program.
    pub fn start() -> Option<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let (entered, policy_set) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let ok = enter_idle_policy();
            let _ = entered.send(ok);
            while ok && !seen.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let spinner = Self {
            stop,
            thread: Some(thread),
        };
        policy_set.recv().unwrap_or(false).then_some(spinner)
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(target_os = "linux")]
fn enter_idle_policy() -> bool {
    let priority = 0i32;
    // SAFETY: `priority` is a live `struct sched_param`; pid 0 is this thread.
    unsafe { sched::sched_setscheduler(0, sched::SCHED_IDLE, &priority) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_policy() -> bool {
    false
}
