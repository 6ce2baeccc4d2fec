//! A parallel executor for experiment sweeps.
//!
//! Every table/figure reproduction is a matrix of fully independent
//! simulations (one fresh [`scord_sim::Gpu`] per cell), which is exactly the
//! embarrassingly-parallel shape GPU-simulator harnesses shard across host
//! threads. This module supplies the one primitive they all use:
//! [`run_jobs`] fans a slice of job descriptors out over scoped worker
//! threads, and workers deposit results into slots indexed by job id — so a
//! parallel sweep emits **byte-identical** tables to a serial one,
//! regardless of which worker finishes first.
//!
//! Determinism argument: job cells never share mutable state (each builds
//! its own `Gpu`, which is `Send`), the result of cell *i* lands in slot
//! *i*, and all folding over the slots happens after the workers join, in
//! job order. Thread scheduling can therefore change only *when* a cell runs,
//! never *what* it computes or where its result goes.
//!
//! [`sweep`] adds per-job wall-time accounting on top and records a
//! [`SweepStats`] into a process-global registry the `run-experiments`
//! binary drains for its timing summary.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Worker-thread budget for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// One worker: the sweep runs inline on the calling thread, exactly as
    /// the serial harness always did.
    #[must_use]
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// `n` workers; `None` if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Option<Self> {
        NonZeroUsize::new(n).map(Jobs)
    }

    /// One worker per available hardware thread (1 if that cannot be
    /// determined).
    #[must_use]
    pub fn available() -> Self {
        Jobs(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    /// Defaults to serial so library callers (and tests) opt into
    /// parallelism explicitly.
    fn default() -> Self {
        Jobs::serial()
    }
}

/// Timing of one executed sweep, for the `run-experiments` summary.
#[derive(Debug, Clone, Copy)]
pub struct SweepStats {
    /// Which experiment the sweep belongs to.
    pub label: &'static str,
    /// Number of job cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Sum of per-job wall times — the serial-equivalent cost; `busy / wall`
    /// is the achieved speedup.
    pub busy: Duration,
}

static RECORDED: Mutex<Vec<SweepStats>> = Mutex::new(Vec::new());

/// Drains every [`SweepStats`] recorded by [`sweep`] since the last call.
#[must_use]
pub fn take_recorded() -> Vec<SweepStats> {
    std::mem::take(&mut RECORDED.lock().expect("timing registry lock"))
}

/// Runs `run(i, &items[i])` for every item, on up to `jobs` worker threads,
/// returning the results in item order.
///
/// * Work is fanned out over scoped threads: workers pull the next job id
///   from a shared atomic cursor, so cells are load-balanced without any
///   work-stealing machinery.
/// * Result `i` always lands in slot `i`: output is independent of worker
///   count and scheduling.
/// * A panicking job aborts the sweep: remaining workers stop picking up
///   jobs and the first panic is re-raised on the calling thread, with its
///   original payload, once every worker has joined.
pub fn run_jobs<J, T, F>(jobs: Jobs, items: &[J], run: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J) -> T + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        // Inline serial path (panics propagate untouched).
        return items.iter().enumerate().map(|(i, j)| run(i, j)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| run(i, item))) {
                Ok(value) => done.push((i, value)),
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    return Err(payload);
                }
            }
        }
        Ok(done)
    };
    let finished: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("job panics are caught inside the worker"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for done in finished {
        for (i, value) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("no panic: every job deposited its result"))
        .collect()
}

/// [`run_jobs`] plus timing: measures each job's wall time and records a
/// [`SweepStats`] under `label` for the timing summary.
pub fn sweep<J, T, F>(label: &'static str, jobs: Jobs, items: &[J], run: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J) -> T + Sync,
{
    let t0 = Instant::now();
    let timed = run_jobs(jobs, items, |i, item| {
        let start = Instant::now();
        let value = run(i, item);
        (value, start.elapsed())
    });
    let wall = t0.elapsed();
    let busy = timed.iter().map(|(_, d)| *d).sum();
    let (values, _): (Vec<T>, Vec<Duration>) = timed.into_iter().unzip();
    RECORDED
        .lock()
        .expect("timing registry lock")
        .push(SweepStats {
            label,
            cells: values.len(),
            workers: jobs.get().min(values.len()).max(1),
            wall,
            busy,
        });
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_returns_empty_without_spawning() {
        let items: [u32; 0] = [];
        let out = run_jobs(Jobs::new(8).unwrap(), &items, |_, &x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_workers_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial = run_jobs(Jobs::serial(), &items, |i, &x| (i, x * x));
        let parallel = run_jobs(Jobs::new(4).unwrap(), &items, |i, &x| (i, x * x));
        assert_eq!(serial, parallel, "slot-indexed results are deterministic");
        assert_eq!(parallel[42], (42, 42 * 42));
    }

    #[test]
    fn more_workers_than_jobs_caps_the_workers() {
        let items = [1u64, 2, 3];
        let out = run_jobs(Jobs::new(64).unwrap(), &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            run_jobs(Jobs::new(4).unwrap(), &items, |_, &x| {
                assert!(x != 7, "job 7 exploded");
                x
            })
        });
        let payload = result.expect_err("the job panic must surface");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("job 7 exploded"),
            "original payload kept: {msg}"
        );
    }

    #[test]
    fn serial_worker_panic_propagates_too() {
        let items = [0u8];
        let result =
            std::panic::catch_unwind(|| run_jobs(Jobs::serial(), &items, |_, _| panic!("inline")));
        assert!(result.is_err());
    }

    #[test]
    fn sweep_records_timing() {
        let _ = take_recorded();
        let items: Vec<u32> = (0..8).collect();
        let out = sweep("unit-test", Jobs::new(2).unwrap(), &items, |_, &x| x);
        assert_eq!(out, items);
        let recorded = take_recorded();
        let stats = recorded
            .iter()
            .find(|s| s.label == "unit-test")
            .expect("sweep recorded itself");
        assert_eq!(stats.cells, 8);
        assert_eq!(stats.workers, 2);
        assert!(stats.wall > Duration::ZERO);
    }

    #[test]
    fn jobs_constructors() {
        assert_eq!(Jobs::serial().get(), 1);
        assert_eq!(Jobs::default().get(), 1);
        assert!(Jobs::new(0).is_none());
        assert_eq!(Jobs::new(6).unwrap().get(), 6);
        assert!(Jobs::available().get() >= 1);
    }
}
