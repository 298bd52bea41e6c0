//! The persistent [`WorkerPool`] the expert kernels run on.
//!
//! The expert kernels split their row ranges across a small number of worker
//! threads, mirroring how llama.cpp splits expert GEMMs across the CPU cores
//! the deployment allows (the paper restricts the Xeon to 10 cores, §VI-A1).
//! Spawning threads per call would dwarf a microsecond-scale kernel, so a
//! [`WorkerPool`] spawns its workers once and parks them between calls: the
//! steady-state dispatch cost is one mutex round-trip per call.

use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased pointer to the body closure of the job in flight.
///
/// The pointee is borrowed from the stack frame of [`WorkerPool::run`],
/// which blocks until every worker has acknowledged the job's epoch — so
/// the pointer never outlives the borrow it was erased from.
#[derive(Clone, Copy)]
struct Job {
    /// The caller's `body` closure, lifetime-erased (see the type docs).
    body: *const (dyn Fn(usize, usize, usize) + Sync),
    /// Iteration-space length.
    n: usize,
    /// Contiguous chunk length per part.
    chunk: usize,
    /// Number of parts the space is split into (`<= threads`).
    parts: usize,
}

// SAFETY: the raw pointer is only dereferenced by workers between the epoch
// bump in `run` and their acknowledgement; `run` does not return (and the
// pointee is not dropped) until every acknowledgement arrived, and the
// pointee is `Sync`, so sharing it across the pool threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// Shared state between the pool handle and its parked workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    start: Condvar,
    /// The caller parks here until every worker acknowledged the epoch.
    done: Condvar,
}

struct PoolState {
    /// Bumped once per job; workers run a job exactly once per epoch.
    epoch: u64,
    job: Option<Job>,
    /// Workers yet to acknowledge the current epoch.
    remaining: usize,
    /// A worker's body panicked during the current epoch (caught and
    /// re-raised by the caller so the pool itself survives).
    worker_panicked: bool,
    shutdown: bool,
}

/// Locks a possibly-poisoned mutex: the pool's own invariants never depend
/// on data guarded across a panic (workers run the body *outside* the
/// lock), so a poisoned lock is still safe to use.
fn lock_state(shared: &PoolShared) -> std::sync::MutexGuard<'_, PoolState> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent pool of parked worker threads for the expert kernels.
///
/// An OS-thread spawn per worker per call is ruinous when a decode-sized
/// GEMV takes tens of microseconds. A `WorkerPool` spawns `threads - 1`
/// workers once (the calling thread is the remaining worker) and parks
/// them on a condvar between calls, so [`WorkerPool::run`] costs one
/// lock/notify round-trip.
///
/// `run` splits `0..n` into up to `threads` contiguous chunks and calls
/// `body(part, start, end)` for each, with the part index exposed so
/// callers can pre-partition output buffers.
/// `run` must not be called reentrantly from inside `body`.
///
/// `run` is panic-safe: if `body` panics on any thread, the call still
/// waits for every other part to finish (the borrowed closure must outlive
/// all its users) and then panics on the calling thread; the pool remains
/// usable afterwards.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use hybrimoe_kernels::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.run(100, |_part, a, b| {
///     sum.fetch_add((a..b).sum::<usize>(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum());
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` total workers (`threads - 1` OS threads;
    /// the thread calling [`WorkerPool::run`] is the first worker). A pool
    /// of 1 spawns nothing and runs every job inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                worker_panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|part| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hybrimoe-kern-{part}"))
                    .spawn(move || worker_loop(&shared, part))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Total parallelism of the pool (spawned workers + the caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// How [`WorkerPool::run`] will split `0..n`: `(parts, chunk)` with
    /// part `p` covering `p * chunk .. min(n, (p + 1) * chunk)`. Callers
    /// use this to pre-partition output buffers into matching bands.
    pub fn partition(&self, n: usize) -> (usize, usize) {
        let parts = self.threads().min(n.max(1));
        (parts, n.div_ceil(parts.max(1)).max(1))
    }

    /// Runs `body(part, start, end)` over `0..n` split into contiguous
    /// chunks across the pool (see [`WorkerPool::partition`]). Blocks until
    /// every part has finished. `body` must be safe to call concurrently on
    /// disjoint ranges.
    pub fn run<F>(&self, n: usize, body: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let (parts, chunk) = self.partition(n);
        if parts <= 1 || self.workers.is_empty() {
            body(0, 0, n);
            return;
        }

        let erased: &(dyn Fn(usize, usize, usize) + Sync) = &body;
        // SAFETY: lifetime erasure only — same layout, and the wait loop
        // below guarantees no worker holds the pointer once `run` returns
        // (see the `Job` safety notes).
        #[allow(unsafe_code)]
        let body_ptr = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize, usize) + Sync),
                &'static (dyn Fn(usize, usize, usize) + Sync),
            >(erased)
        } as *const (dyn Fn(usize, usize, usize) + Sync);

        {
            let mut state = lock_state(&self.shared);
            state.job = Some(Job {
                body: body_ptr,
                n,
                chunk,
                parts,
            });
            state.epoch = state.epoch.wrapping_add(1);
            state.remaining = self.workers.len();
            state.worker_panicked = false;
        }
        self.shared.start.notify_all();

        // Even if the caller's part panics below, unwinding out of `run`
        // must not free the erased closure while workers still hold it:
        // this guard waits for every acknowledgement on the way out.
        struct WaitGuard<'a>(&'a PoolShared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut state = lock_state(self.0);
                while state.remaining != 0 {
                    state = self
                        .0
                        .done
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                state.job = None;
            }
        }
        let wait = WaitGuard(&self.shared);

        // The calling thread is part 0.
        body(0, 0, chunk.min(n));

        drop(wait);
        if lock_state(&self.shared).worker_panicked {
            panic!("WorkerPool: a worker's body panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.shared);
            state.shutdown = true;
        }
        self.shared.start.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, part: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock_state(shared);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.job;
                }
                state = shared
                    .start
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if let Some(job) = job {
            if part < job.parts {
                let start = part * job.chunk;
                let end = ((part + 1) * job.chunk).min(job.n);
                if start < end {
                    // SAFETY: the caller is blocked in `run` (or its wait
                    // guard) until this epoch is acknowledged below, so
                    // the erased borrow is still live (see the `Job`
                    // safety notes).
                    #[allow(unsafe_code)]
                    let body = unsafe { &*job.body };
                    // A panicking body must still acknowledge the epoch
                    // (the caller waits on `remaining`); catch it and let
                    // the caller re-raise.
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        body(part, start, end)
                    }))
                    .is_err()
                    {
                        lock_state(shared).worker_panicked = true;
                    }
                }
            }
        }
        let mut state = lock_state(shared);
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// The number of worker threads to use by default: the machine's available
/// parallelism, capped at `cap`.
///
/// # Example
///
/// ```
/// let t = hybrimoe_kernels::threadpool::default_threads(10);
/// assert!(t >= 1 && t <= 10);
/// ```
pub fn default_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_threads_bounds() {
        assert!(default_threads(1) == 1);
        assert!(default_threads(4) <= 4);
        assert!(default_threads(0) >= 1);
    }

    #[test]
    fn pool_covers_whole_range_once() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for n in [0, 1, 7, 64, 100] {
                let hits = (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
                pool.run(n, |_part, a, b| {
                    for hit in &hits[a..b] {
                        hit.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pool_parts_match_partition() {
        let pool = WorkerPool::new(3);
        let (parts, chunk) = pool.partition(10);
        assert_eq!(parts, 3);
        assert_eq!(chunk, 4);
        let seen = std::sync::Mutex::new(Vec::new());
        pool.run(10, |part, a, b| {
            seen.lock().unwrap().push((part, a, b));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0, 4), (1, 4, 8), (2, 8, 10)]);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        // The park/unpark protocol must survive rapid back-to-back jobs
        // (each run is one epoch; stale acknowledgements would deadlock).
        let pool = WorkerPool::new(4);
        let sum = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(17, |_p, a, b| {
                sum.fetch_add(b - a, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 200 * 17);
    }

    #[test]
    fn pool_survives_panicking_bodies() {
        let pool = WorkerPool::new(3);
        // Panic on a worker part: run re-raises on the caller, workers
        // acknowledge, and the pool stays usable.
        let worker_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(10, |_p, a, _b| {
                if a >= 4 {
                    panic!("boom on worker");
                }
            });
        }));
        assert!(worker_panic.is_err());
        // Panic on the caller's own part: the wait guard still collects
        // every worker before the unwind leaves `run`.
        let caller_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(10, |_p, a, _b| {
                if a == 0 {
                    panic!("boom on caller");
                }
            });
        }));
        assert!(caller_panic.is_err());
        let sum = AtomicUsize::new(0);
        pool.run(10, |_p, a, b| {
            sum.fetch_add(b - a, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = WorkerPool::new(1);
        let flag = AtomicUsize::new(0);
        pool.run(5, |part, a, b| {
            assert_eq!((part, a, b), (0, 0, 5));
            flag.store(1, Ordering::Relaxed);
        });
        assert_eq!(flag.load(Ordering::Relaxed), 1);
        assert_eq!(pool.partition(0), (1, 1));
    }
}
