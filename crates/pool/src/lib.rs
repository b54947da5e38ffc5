//! Persistent worker pool for the replica's parallel hot paths.
//!
//! IA-CCF's throughput comes from overlapping batch signature
//! verification, execution and ledger emission across cores
//! (§3.4, §6.8). Spawning scoped threads per batch segment pays thread
//! start-up on every batch; [`WorkerPool`] instead owns a fixed set of
//! worker threads for the replica's lifetime and hands them work three
//! ways:
//!
//! * [`WorkerPool::scope`] — structured borrowing parallelism in the
//!   style of [`std::thread::scope`]: tasks may borrow from the caller's
//!   stack, the call returns only after every spawned task finished, and
//!   a task panic is propagated to the caller.
//! * [`WorkerPool::submit`] — fire one `'static` task and get a
//!   [`TaskHandle`] to join later. This is the cross-batch overlap
//!   primitive: verify pre-prepare *n+1*'s signatures while batch *n*
//!   executes, harvest the result at the next stage boundary.
//! * [`WorkerPool::map_chunked`] — map a function over a slice in
//!   deterministically ordered chunks (the batched Ed25519 verification
//!   path).
//!
//! The pool is a **local** knob: nothing scheduled on it may influence
//! consensus-visible bytes. Callers uphold that by only offloading pure
//! computations (signature checks); the differential harnesses in
//! `tests/sharded_execution.rs` and `tests/pipeline_view_change.rs` sweep
//! pool sizes {1, 2, 8} to enforce it.
//!
//! Deadlock rule: pool tasks must never call [`WorkerPool::scope`] or
//! block on a [`TaskHandle`] of the same pool — only the replica (driver)
//! thread does. A size-1 pool would self-deadlock otherwise, and larger
//! pools would waste a worker on waiting.
//!
//! Lifecycle mirrors the net crate's transport loop: worker threads carry
//! a drop-guard gauge ([`WorkerPool::live_pool_threads`]), and `Drop`
//! drains the queue, then joins every worker — a dropped replica leaves
//! zero pool threads behind.

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

    /// Total tasks completed by the workers since construction. Inline
    /// fast paths (size-1 pools, tiny inputs) bypass the queue and do not
    /// count — the counter reading non-zero is evidence the pool engaged.
    pub fn tasks_completed(&self) -> u64 {
        self.shared.tasks_completed.load(Ordering::Relaxed)
    }

    fn push_task(&self, task: Task) {
        let mut q = self.shared.queue.lock().unwrap();
        q.tasks.push_back(task);
        drop(q);
        self.shared.work.notify_one();
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
        self.push_task(Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            *task_shared.slot.lock().unwrap() = Some(result);
            task_shared.done.notify_all();
        }));
        TaskHandle { shared }
    }

    /// Structured borrowing parallelism: run `f` with a [`Scope`] whose
    /// spawned tasks may borrow from the enclosing stack frame. Does not
    /// return until every spawned task has finished — even if `f` or a
    /// task panics — and then re-raises the first task panic (or `f`'s).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The wait below is what makes `Scope::spawn`'s lifetime erasure
        // sound: no borrow handed to a task outlives this function.
        let mut pending = scope.state.pending.lock().unwrap();
        while *pending > 0 {
            pending = scope.state.done.wait(pending).unwrap();
        }
        drop(pending);
        if let Some(payload) = scope.state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Map `f` over `items` with deterministic output order (identical to
    /// the serial `items.iter().enumerate().map(f)`), chunking the slice
    /// across the workers. Runs inline when the pool has one thread or
    /// the input is no bigger than `min_chunk` — a size-1 pool behaves
    /// exactly like serial code, with no queue handoff.
    pub fn map_chunked<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let min_chunk = min_chunk.max(1);
        if self.threads() <= 1 || n <= min_chunk {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = n.div_ceil(self.threads()).max(min_chunk);
        let mut slots: Vec<Option<Vec<R>>> = Vec::new();
        slots.resize_with(n.div_ceil(chunk), || None);
        self.scope(|s| {
            for (ci, (slot, part)) in slots.iter_mut().zip(items.chunks(chunk)).enumerate() {
                let f = &f;
                s.spawn(move || {
                    let base = ci * chunk;
                    *slot = Some(part.iter().enumerate().map(|(j, t)| f(base + j, t)).collect());
                });
            }
        });
        slots.into_iter().flat_map(|v| v.expect("every chunk executed")).collect()
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

/// Bookkeeping for one [`WorkerPool::scope`] call.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn surface handed to the closure of [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like [`std::thread::Scope`]: prevents the
    /// environment lifetime from being shortened through variance.
    env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a task that may borrow from the scope's environment. Panics
    /// in the task are captured and re-raised when the scope closes.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the task is erased to 'static only to sit in the queue;
        // `WorkerPool::scope` waits for `pending` to reach zero before
        // returning (on success *and* panic paths), so every borrow in
        // the closure strictly outlives its execution.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                boxed,
            )
        };
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        self.pool.push_task(Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(boxed)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        }));
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
    fn scope_tasks_borrow_and_results_are_ordered() {
        let pool = WorkerPool::new(4);
        let input = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut doubled = vec![0u64; input.len()];
        pool.scope(|s| {
            for (slot, v) in doubled.iter_mut().zip(&input) {
                s.spawn(move || *slot = v * 2);
            }
        });
        assert_eq!(doubled, vec![6, 2, 8, 2, 10, 18, 4, 12]);
    }

    #[test]
    fn scope_panic_propagates_after_all_tasks_finish() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move || {
                        if i == 3 {
                            panic!("group boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "group boom");
        // The scope waited for the 7 non-panicking tasks before raising.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
        // And the pool is intact.
        assert_eq!(pool.live_pool_threads(), 2);
        assert_eq!(pool.submit(|| 1).join(), 1);
    }

    #[test]
    fn map_chunked_matches_serial_for_any_size() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 2, 7, 8, 9, 64, 65] {
                let items: Vec<usize> = (0..n).collect();
                let got = pool.map_chunked(&items, 2, |i, v| i * 1000 + v * 3);
                let want: Vec<usize> =
                    items.iter().enumerate().map(|(i, v)| i * 1000 + v * 3).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_map_inline() {
        let pool = WorkerPool::new(1);
        let items: Vec<u32> = (0..100).collect();
        let out = pool.map_chunked(&items, 4, |_, v| v + 1);
        assert_eq!(out.len(), 100);
        assert_eq!(pool.tasks_completed(), 0, "size-1 pools must not queue map work");
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
