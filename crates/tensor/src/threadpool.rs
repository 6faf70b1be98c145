//! Persistent worker pool for data-parallel kernels.
//!
//! The pool is process-wide and lazily initialized on first use; workers are
//! created once and then sleep on a condition variable between jobs, so the
//! per-call cost of going parallel is a queue push plus a wakeup instead of a
//! thread spawn. This is what lets the parallel thresholds in `matmul`/`conv`
//! sit far lower than they could with scoped spawning.
//!
//! ## Sizing
//!
//! The pool width defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `NB_NUM_THREADS` environment variable (read once,
//! at pool creation). Width 1 means no worker threads are ever spawned and
//! every kernel runs inline. [`with_thread_cap`] lowers the width for the
//! duration of a closure on the current thread only, which is how the test
//! suite checks multithread-vs-singlethread determinism inside one process.
//!
//! ## Execution model
//!
//! [`parallel_for`] runs `total` independent tasks. Tasks are claimed from a
//! shared atomic counter, so the mapping of task index to thread is dynamic,
//! but callers must make per-task work deterministic in the task index (all
//! kernels in this crate write disjoint output regions per task). The calling
//! thread participates in the job and only returns once every task has
//! finished, so borrows captured by the closure stay valid. Calls from inside
//! a worker (nested parallelism, e.g. a matmul inside a conv sample task) run
//! inline on that worker rather than deadlocking on the queue.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Erased pointer to the per-task closure of a running job.
///
/// Safety: the owning [`parallel_for`] call does not return until every task
/// has completed, so the pointee outlives every dereference; workers that pop
/// a job after its tasks are exhausted never dereference the pointer.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

struct JobState {
    task: TaskFn,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Number of completed tasks.
    done: AtomicUsize,
    total: usize,
    finished: Mutex<bool>,
    cv: Condvar,
}

impl JobState {
    /// Claim and run tasks until none remain.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // Safety: i < total, so the job is still live (see `TaskFn`).
            let f = unsafe { &*self.task.0 };
            f(i);
            // AcqRel chains every task's writes into the final increment, so
            // the thread that observes `done == total` (and the caller it
            // wakes) sees all output writes.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                *self.finished.lock().unwrap() = true;
                self.cv.notify_all();
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<JobState>>>,
    cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Worker threads spawned (pool width minus the participating caller).
    workers: usize,
}

thread_local! {
    /// True on pool worker threads; nested parallel_for calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread width cap installed by [`with_thread_cap`].
    static THREAD_CAP: Cell<Option<usize>> = const { Cell::new(None) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let width = configured_width();
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        let workers = width.saturating_sub(1);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("nb-worker-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let job = {
                            let mut q = shared.queue.lock().unwrap();
                            loop {
                                if let Some(job) = q.pop_front() {
                                    break job;
                                }
                                q = shared.cv.wait(q).unwrap();
                            }
                        };
                        job.participate();
                    }
                })
                .expect("failed to spawn nb-tensor worker thread");
        }
        Pool { shared, workers }
    })
}

/// Pool width configured from `NB_NUM_THREADS` or the machine parallelism.
fn configured_width() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let raw = std::env::var("NB_NUM_THREADS").ok();
    parse_thread_override(raw.as_deref()).unwrap_or(hw)
}

/// Parses an `NB_NUM_THREADS` value. `None` (unset) defers to the machine
/// parallelism; anything set must be a positive integer — a typo silently
/// falling back to the hardware width would make "pinned" benchmark and
/// verification runs lie about their thread count.
///
/// # Panics
///
/// Panics with a clear message on `0` or non-numeric input.
fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!(
            "NB_NUM_THREADS must be a positive integer, got {raw:?} \
             (unset it to use the machine parallelism)"
        ),
    }
}

/// The number of threads data-parallel kernels may use, including the caller.
///
/// Honors the `NB_NUM_THREADS` override and any active [`with_thread_cap`].
pub fn num_threads() -> usize {
    let width = pool().workers + 1;
    match THREAD_CAP.with(|c| c.get()) {
        Some(cap) => width.min(cap.max(1)),
        None => width,
    }
}

/// Runs `f` with parallel kernels capped at `cap` threads on this thread.
/// The previous cap comes back when `f` returns or unwinds.
///
/// Used by tests to compare single-threaded and multi-threaded execution in
/// one process; `NB_NUM_THREADS` covers the whole-process case.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_CAP.with(|c| c.replace(Some(cap))));
    f()
}

/// Runs `f(0..total)` across the worker pool, returning when all tasks are
/// done. Tasks must be independent; each should write only its own output
/// region. Runs inline when the pool width is 1, the cap is 1, `total <= 1`,
/// or when called from inside a pool worker (nested parallelism).
pub fn parallel_for(total: usize, f: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    let pool = pool();
    let width = num_threads();
    if total == 1 || width <= 1 || pool.workers == 0 || IN_WORKER.with(|w| w.get()) {
        for i in 0..total {
            f(i);
        }
        return;
    }
    // Safety: we block on `finished` below, so `f` outlives the job.
    let task = TaskFn(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
            f as *const (dyn Fn(usize) + Sync),
        )
    });
    let job = Arc::new(JobState {
        task,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        total,
        finished: Mutex::new(false),
        cv: Condvar::new(),
    });
    let helpers = pool.workers.min(width - 1).min(total - 1);
    {
        let mut q = pool.shared.queue.lock().unwrap();
        for _ in 0..helpers {
            q.push_back(Arc::clone(&job));
        }
    }
    for _ in 0..helpers {
        pool.shared.cv.notify_one();
    }
    job.participate();
    let mut finished = job.finished.lock().unwrap();
    while !*finished {
        finished = job.cv.wait(finished).unwrap();
    }
}

/// A raw mutable view over a slice that tasks may write through in parallel.
///
/// Callers hand each task a *disjoint* `(offset, len)` window; creating two
/// overlapping windows concurrently is undefined behavior, which is why
/// [`SharedMut::slice`] is `unsafe`.
pub(crate) struct SharedMut<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Sync for SharedMut<T> {}
unsafe impl<T: Send> Send for SharedMut<T> {}

impl<T> SharedMut<T> {
    pub(crate) fn new(data: &mut [T]) -> Self {
        SharedMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// A mutable window at `offset..offset + len`.
    ///
    /// # Safety
    ///
    /// The window must be in bounds and must not overlap any other window
    /// alive at the same time.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, offset: usize, len: usize) -> &mut [T] {
        debug_assert!(offset + len <= self.len, "SharedMut window out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(offset), len)
    }
}

/// Thread-local scratch buffers, one static per concurrent use site.
///
/// `with_scratch` hands out the buffer stored under `key`, growing it to at
/// least `len` and clearing nothing: callers must fully overwrite what they
/// read. Reentrant use of the *same* key falls back to a fresh allocation
/// (the `Cell::take` leaves an empty vec behind), so nesting is safe, just
/// not free — distinct call sites should use distinct keys.
pub(crate) fn with_scratch<R>(
    key: &'static std::thread::LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    key.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let result = f(&mut buf[..len]);
        cell.set(buf);
        result
    })
}

thread_local! {
    /// Packed A panels for the blocked GEMM.
    pub(crate) static GEMM_PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Packed B panels for the blocked GEMM.
    pub(crate) static GEMM_PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Materialized im2col column matrix for the conv backward pass (which
    /// reads the column matrix twice). The forward reads the input through a
    /// virtual im2col view inside GEMM packing instead.
    pub(crate) static CONV_COLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Column-gradient matrix for conv backward.
    pub(crate) static CONV_DCOLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-sample dW/db partials for conv backward, reduced on the caller.
    pub(crate) static CONV_DW_PARTS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn thread_override_parses_positive_integers() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 8 ")), Some(8));
        assert_eq!(parse_thread_override(Some("1")), Some(1));
    }

    #[test]
    #[should_panic(expected = "NB_NUM_THREADS must be a positive integer")]
    fn thread_override_rejects_zero() {
        parse_thread_override(Some("0"));
    }

    #[test]
    #[should_panic(expected = "NB_NUM_THREADS must be a positive integer")]
    fn thread_override_rejects_non_numeric() {
        parse_thread_override(Some("all"));
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let counts: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        parallel_for(1000, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_tasks() {
        parallel_for(0, &|_| panic!("no tasks expected"));
        let hit = AtomicU32::new(0);
        parallel_for(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let total = AtomicU32::new(0);
        parallel_for(8, &|_| {
            parallel_for(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn thread_cap_forces_inline() {
        with_thread_cap(1, || {
            assert_eq!(num_threads(), 1);
            let main = std::thread::current().id();
            parallel_for(32, &|_| {
                assert_eq!(std::thread::current().id(), main);
            });
        });
    }

    #[test]
    fn thread_cap_is_restored_on_unwind() {
        let before = num_threads();
        let caught = std::panic::catch_unwind(|| with_thread_cap(1, || panic!("inside cap")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn disjoint_parallel_writes() {
        let mut data = vec![0u64; 4096];
        let shared = SharedMut::new(&mut data);
        parallel_for(64, &|t| {
            let chunk = unsafe { shared.slice(t * 64, 64) };
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (t * 64 + i) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn scratch_reuse_and_reentrancy() {
        thread_local! {
            static KEY: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
        }
        with_scratch(&KEY, 16, |outer| {
            outer.fill(1.0);
            with_scratch(&KEY, 8, |inner| inner.fill(2.0));
            assert!(outer.iter().all(|&v| v == 1.0));
        });
        // The outer buffer was restored; a follow-up borrow sees >= capacity.
        with_scratch(&KEY, 4, |buf| assert_eq!(buf.len(), 4));
    }
}
