//! A small shared worker pool for request-level parallelism.
//!
//! The engine already parallelises *inside* one mining run (candidate
//! scoring fans out across a scoped pool sized by
//! [`CspmConfig::threads`](crate::CspmConfig::threads));
//! a long-running daemon additionally needs parallelism *across* runs:
//! many tenant sessions accepting mine requests concurrently, with the
//! total CPU footprint bounded no matter how many connections are open.
//! [`WorkerPool`] is that bound — a fixed set of threads draining one
//! queue of boxed jobs.
//!
//! Jobs are opaque `FnOnce()` closures; the blocking [`WorkerPool::run`]
//! wrapper ships a closure over, waits for its result, and surfaces a
//! worker death (a panicked job) as [`PoolError`] instead of hanging the
//! caller. The pool joins its workers on drop, so owning one is enough
//! to guarantee no thread outlives it.
//!
//! ```
//! use cspm_core::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let doubled = pool.run(|| 21 * 2).unwrap();
//! assert_eq!(doubled, 42);
//! ```

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job queue died before producing a result: the worker executing
/// the job panicked, or the pool was torn down mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolError;

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool job did not complete (worker died)")
    }
}

impl std::error::Error for PoolError {}

/// A fixed-size pool of worker threads draining a shared job queue in
/// submission order. See the [module docs](self).
#[derive(Debug)]
pub struct WorkerPool {
    /// `Some` while accepting jobs; dropped first on teardown so the
    /// workers' receiver disconnects and they drain out.
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (`0` is promoted to 1 — a pool that can
    /// never run anything is always a bug).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        // std's mpsc receiver is single-consumer; share it behind a
        // mutex so each worker pops exactly one job at a time.
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cspm-pool-{i}"))
                    .spawn(move || loop {
                        // Holding the lock only while popping keeps the
                        // other workers runnable during the job itself.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            // A sibling panicked while holding the
                            // queue lock; there is no queue discipline
                            // left worth preserving.
                            Err(_) => break,
                        };
                        match job {
                            // Contain a panicking job to that job: the
                            // worker survives, the queue stays drained,
                            // and the blocked `run` caller sees a
                            // PoolError (its result sender died in the
                            // unwind) instead of a hung daemon.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // queue closed: pool dropped
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` and returns immediately. Jobs start in submission
    /// order (whenever a worker frees up).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Runs `job` on the pool and blocks until its result arrives.
    /// Queueing discipline is shared with [`Self::submit`]: the call
    /// waits behind earlier jobs when all workers are busy.
    ///
    /// # Errors
    ///
    /// [`PoolError`] when the job died without producing a result —
    /// in practice, when the closure panicked on the worker.
    pub fn run<R, F>(&self, job: F) -> Result<R, PoolError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        self.submit(move || {
            // A panic inside `job` unwinds past the send, dropping `tx`
            // and turning the caller's recv into a clean PoolError.
            let _ = tx.send(job());
        });
        rx.recv().map_err(|_| PoolError)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the queue, then wait for in-flight jobs to finish.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            // A worker that panicked already delivered its PoolError to
            // the waiting caller; swallowing the join error keeps drop
            // from double-panicking during unwinding.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let results: Vec<usize> = (0..32).map(|i| pool.run(move || i * i).unwrap()).collect();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_is_promoted_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(|| 7).unwrap(), 7);
    }

    #[test]
    fn submitted_jobs_all_execute_before_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins: every queued job must have run by then.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn concurrent_blocking_runs_make_progress() {
        // Two jobs that each need the other's side effect would deadlock
        // on a 1-thread pool; on 2 threads they run concurrently. Keep
        // it simpler: N blocking runs from N caller threads against a
        // 2-worker pool all complete.
        let pool = Arc::new(WorkerPool::new(2));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run(move || i + 1).unwrap())
            })
            .collect();
        let mut out: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        out.sort_unstable();
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn panicked_job_reports_pool_error_not_hang() {
        let pool = WorkerPool::new(2);
        let err = pool
            .run(|| -> usize { panic!("job exploded") })
            .unwrap_err();
        assert_eq!(err, PoolError);
        // The panic is contained to the job: both workers survive and
        // the pool keeps serving.
        assert_eq!(pool.run(|| 5).unwrap(), 5);
        assert_eq!(pool.run(|| 6).unwrap(), 6);
    }
}
