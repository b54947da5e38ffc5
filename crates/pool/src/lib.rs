//! Persistent worker pool for the replica's parallel hot paths.
//!
//! IA-CCF parallelises signature verification for messages from replicas
//! and clients (§3.4). Spawning threads per batch pays thread start-up on
//! every batch; [`WorkerPool`] instead owns a fixed set of worker threads
//! for the replica's lifetime and runs work one way:
//! [`WorkerPool::submit`] queues one `'static` task and returns a
//! [`TaskHandle`] to join later. That is also the cross-batch overlap
//! primitive: verify pre-prepare *n+1*'s signatures while batch *n*
//! executes, and harvest the result at the next stage boundary. How a
//! slice of signature checks is cut into tasks is decided in one place,
//! `ia_ccf_crypto::batch::start_verify`.
//!
//! The pool is a **local** knob: nothing scheduled on it may influence
//! consensus-visible bytes. Callers uphold that by only offloading pure
//! computations (signature checks); the differential harnesses in
//! `tests/pool_size_equiv.rs` and `tests/pipeline_view_change.rs` sweep
//! pool sizes {1, 2, 8} to enforce it.
//!
//! Deadlock rule: pool tasks must never block on a [`TaskHandle`] of the
//! same pool — only the replica (driver) thread does. A size-1 pool would
//! self-deadlock otherwise, and larger pools would waste a worker on
//! waiting.
//!
//! Lifecycle mirrors the net crate's transport loop: worker threads carry
//! a drop-guard gauge ([`WorkerPool::live_pool_threads`]), and `Drop`
//! drains the queue, then joins every worker — a dropped replica leaves
//! zero pool threads behind.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. All tasks are wrapped so they cannot unwind
/// into the worker loop (panics are captured and re-raised at the join
/// point instead).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    work: Condvar,
    tasks_completed: AtomicU64,
}

struct PoolQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// A fixed-size persistent worker pool. See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    live: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` workers (minimum 1). Workers are named
    /// `iaccf-pool-<n>` and live until the pool is dropped.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue { tasks: VecDeque::new(), shutdown: false }),
            work: Condvar::new(),
            tasks_completed: AtomicU64::new(0),
        });
        let live = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads.max(1))
            .map(|idx| spawn_worker(Arc::clone(&shared), Arc::clone(&live), idx))
            .collect();
        WorkerPool { shared, live, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads currently alive (0 after drop/shutdown). The gauge
    /// is decremented by a drop guard inside each worker, so it stays
    /// accurate even if a worker dies by panic.
    pub fn live_pool_threads(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// The live-thread gauge itself, for observing the count after the
    /// pool (or the replica owning it) has been dropped.
    #[doc(hidden)]
    pub fn thread_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live)
    }

    /// Total tasks completed by the workers since construction. Work a
    /// caller runs inline (`ia_ccf_crypto::batch::start_verify` on a
    /// size-1 pool) never reaches the queue and does not count — the
    /// counter reading non-zero is evidence the pool engaged.
    pub fn tasks_completed(&self) -> u64 {
        self.shared.tasks_completed.load(Ordering::Relaxed)
    }

    /// Submit a `'static` task; the returned [`TaskHandle`] joins it.
    /// If the task panics, the panic is re-raised from
    /// [`TaskHandle::join`].
    pub fn submit<R, F>(&self, f: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let task_shared = Arc::clone(&shared);
        let task: Task = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            *task_shared.slot.lock().unwrap() = Some(result);
            task_shared.done.notify_all();
        });
        self.shared.queue.lock().unwrap().tasks.push_back(task);
        self.shared.work.notify_one();
        TaskHandle { shared }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn spawn_worker(shared: Arc<PoolShared>, live: Arc<AtomicUsize>, idx: usize) -> JoinHandle<()> {
    // Increment before spawning so a gauge reader can never observe the
    // pool claiming fewer threads than are about to run; the drop guard
    // decrements on any exit path, panics included.
    live.fetch_add(1, Ordering::SeqCst);
    let live_in_worker = Arc::clone(&live);
    std::thread::Builder::new()
        .name(format!("iaccf-pool-{idx}"))
        .spawn(move || {
            struct Gauge(Arc<AtomicUsize>);
            impl Drop for Gauge {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let _gauge = Gauge(live_in_worker);
            loop {
                let task = {
                    let mut q = shared.queue.lock().unwrap();
                    loop {
                        if let Some(t) = q.tasks.pop_front() {
                            break Some(t);
                        }
                        if q.shutdown {
                            break None;
                        }
                        q = shared.work.wait(q).unwrap();
                    }
                };
                match task {
                    Some(t) => {
                        // Count before running: the task wrapper wakes its
                        // joiner, so a post-run bump could be observed late
                        // by a joiner that already returned.
                        shared.tasks_completed.fetch_add(1, Ordering::Relaxed);
                        // All tasks are panic-capturing wrappers; the
                        // extra catch is a belt against a wrapper bug
                        // taking the worker (and its gauge) down.
                        let _ = catch_unwind(AssertUnwindSafe(t));
                    }
                    None => break,
                }
            }
        })
        .inspect_err(|_| {
            live.fetch_sub(1, Ordering::SeqCst);
        })
        .expect("spawn pool worker thread")
}

/// Shared slot a [`TaskHandle`] joins on.
struct HandleShared<R> {
    slot: Mutex<Option<std::thread::Result<R>>>,
    done: Condvar,
}

/// Handle to a task submitted with [`WorkerPool::submit`].
pub struct TaskHandle<R> {
    shared: Arc<HandleShared<R>>,
}

impl<R> TaskHandle<R> {
    /// Block until the task finished and return its result, re-raising
    /// the task's panic if it had one.
    pub fn join(self) -> R {
        let mut slot = self.shared.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.shared.done.wait(slot).unwrap();
        }
        match slot.take().expect("checked above") {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_returns_value() {
        let pool = WorkerPool::new(2);
        let h = pool.submit(|| 6 * 7);
        assert_eq!(h.join(), 42);
        assert!(pool.tasks_completed() >= 1);
    }

    #[test]
    fn submit_panic_propagates_to_joiner_and_worker_survives() {
        let pool = WorkerPool::new(2);
        let h = pool.submit(|| -> u32 { panic!("task boom") });
        let err = catch_unwind(AssertUnwindSafe(|| h.join())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
        // The worker that ran the panicking task is still serving.
        assert_eq!(pool.live_pool_threads(), 2);
        assert_eq!(pool.submit(|| 5).join(), 5);
    }

    #[test]
    fn drop_joins_all_workers_and_gauges_zero() {
        let pool = WorkerPool::new(4);
        let gauge = pool.thread_gauge();
        assert_eq!(pool.live_pool_threads(), 4);
        // Leave a queued task behind; drop must drain it, then join.
        let h = pool.submit(|| 123u32);
        drop(pool);
        assert_eq!(gauge.load(Ordering::SeqCst), 0);
        // The queued task completed before shutdown.
        assert_eq!(h.join(), 123);
    }
}
