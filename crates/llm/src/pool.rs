//! The process-wide worker pool the split kernels of a decode tick run on.
//!
//! A product that splits across cores ([`Matrix::matmul_into`] on a large
//! packed weight, [`VocabHead::logits`] on a large vocabulary) computes
//! its first range on the calling thread and hands every other range to a
//! worker of [`WorkerPool::global`]: `host_threads() − 1` threads, started
//! once, on first use, and parked on a channel between products. A handoff
//! costs a channel send and a wake-up instead of a thread spawn and join.
//!
//! Jobs must be `'static`, so a job owns what it reads (an `Arc` of the
//! weight, a copy of the left-hand rows) and returns its output block; the
//! caller copies the block into place. A worker only runs such leaf jobs and
//! never submits to a pool itself, so any number of threads can split
//! products at once (a router ticking groups on several threads, say)
//! without a deadlock: their jobs queue and every one of them finishes.
//!
//! When a job cannot reach a worker (a pool with no workers, or one whose
//! workers have exited) the caller runs it itself, and when a worker drops a
//! job it took without answering, the caller computes that range. Neither
//! case panics or changes a bit of the result.
//!
//! [`Matrix::matmul_into`]: crate::Matrix::matmul_into
//! [`VocabHead::logits`]: crate::tensor::VocabHead::logits

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of work handed to a worker.
type Job = Box<dyn FnOnce() + Send>;

/// Workers [`WorkerPool::global`] has started, over the life of the process.
static GLOBAL_WORKERS_STARTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Jobs this thread has handed to any pool (see [`handoffs_on_this_thread`]).
    static HANDOFFS: Cell<u64> = const { Cell::new(0) };
}

/// The host's hardware threads, read once: `available_parallelism` reads
/// cgroup files, too slow to query on every product or tick. Every split
/// sizes itself by this count: the panel ranges of [`Matrix::matmul_into`]
/// and [`VocabHead::logits`], the workers of [`WorkerPool::global`],
/// and the router's concurrent fleet tick.
///
/// [`Matrix::matmul_into`]: crate::Matrix::matmul_into
/// [`VocabHead::logits`]: crate::tensor::VocabHead::logits
#[must_use]
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Workers the process-wide pool has started: 0 until a product first
/// splits, `host_threads() − 1` after (fewer only if the OS refused a
/// thread). It never grows past that, however many products split.
#[must_use]
pub fn workers_started() -> usize {
    GLOBAL_WORKERS_STARTED.load(Ordering::Relaxed)
}

/// Jobs the calling thread has handed to a pool so far, whether or not a
/// worker took them. A product below every split gate hands none, which is
/// how a test shows that a code path never reaches the pool.
#[must_use]
pub fn handoffs_on_this_thread() -> u64 {
    HANDOFFS.with(Cell::get)
}

/// A fixed set of worker threads fed from one channel.
///
/// Production code uses [`WorkerPool::global`]. A pool of its own
/// ([`WorkerPool::new`]) serves tests and benchmarks: with 0 workers every
/// range of a split runs on the caller, the single-thread side of a
/// comparison. Dropping a pool closes its queue and joins its workers.
#[derive(Debug)]
pub struct WorkerPool {
    /// The queue's sending half; `None` when no worker started.
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts a pool of `workers` threads. A thread the OS refuses is left
    /// out, so the pool may hold fewer (see [`WorkerPool::workers`]).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<JoinHandle<()>> = (0..workers)
            .filter_map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("haan-pool-{i}"))
                    .spawn(move || work(&receiver))
                    .ok()
            })
            .collect();
        Self {
            jobs: (!workers.is_empty()).then_some(sender),
            workers,
        }
    }

    /// The process-wide pool: `host_threads() − 1` workers, started by the
    /// first call. Only a product that passes a split gate calls it, so a
    /// process whose products never split starts no worker.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool = WorkerPool::new(host_threads().saturating_sub(1));
            GLOBAL_WORKERS_STARTED.fetch_add(pool.workers(), Ordering::Relaxed);
            pool
        })
    }

    /// Worker threads the pool started.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queues `job` for a worker, or hands it back when no worker can take
    /// it.
    fn submit(&self, job: Job) -> Result<(), Job> {
        HANDOFFS.with(|count| count.set(count.get() + 1));
        match &self.jobs {
            Some(jobs) => jobs.send(job).map_err(|mpsc::SendError(job)| job),
            None => Err(job),
        }
    }

    /// Runs `work(1)`, …, `work(parts − 1)` on the workers while the caller
    /// runs `first` (the range it computes in place), then returns those
    /// results in part order. A part no worker can take runs on the caller
    /// after `first`; a part a worker took but dropped unanswered is
    /// computed by the caller. Either way the result is `work(part)`.
    pub fn split<T, W>(&self, parts: usize, work: W, first: impl FnOnce()) -> Vec<T>
    where
        T: Send + 'static,
        W: Fn(usize) -> T + Send + Sync + 'static,
    {
        let work = Arc::new(work);
        let (done, results) = mpsc::channel();
        let mut refused = Vec::new();
        for part in 1..parts {
            let (work, done) = (Arc::clone(&work), done.clone());
            let job: Job = Box::new(move || {
                // The caller only stops listening once every part is in.
                let _ = done.send((part, work(part)));
            });
            if let Err(job) = self.submit(job) {
                refused.push(job);
            }
        }
        // Every sender now lives in a job, so the receive loop below ends
        // once each job has answered or been dropped.
        drop(done);
        first();
        for job in refused {
            job();
        }
        let mut out: Vec<Option<T>> = (1..parts).map(|_| None).collect();
        for (part, value) in results {
            out[part - 1] = Some(value);
        }
        out.into_iter()
            .enumerate()
            .map(|(i, value)| value.unwrap_or_else(|| work(i + 1)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue ends every worker's loop once it drains. A worker
        // that died with a job has nothing left to report.
        self.jobs = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A worker's loop: take the next job and run it, until the queue closes.
/// The queue's lock is released before the job runs, so a job that panics
/// ends only its own worker and poisons nothing.
fn work(jobs: &Mutex<Receiver<Job>>) {
    loop {
        let next = jobs
            .lock()
            .expect("no job runs while the queue is locked")
            .recv();
        match next {
            Ok(job) => job(),
            Err(mpsc::RecvError) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    fn thread_of_each_part(pool: &WorkerPool, parts: usize) -> Vec<(usize, ThreadId)> {
        let mut first = None;
        let mut rest = pool.split(
            parts,
            |part| (part, thread::current().id()),
            || first = Some((0, thread::current().id())),
        );
        rest.insert(0, first.expect("the caller ran part 0"));
        rest
    }

    #[test]
    fn a_pool_without_workers_runs_every_part_on_the_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let caller = thread::current().id();
        let before = handoffs_on_this_thread();
        for parts in 1..=4 {
            let ran = thread_of_each_part(&pool, parts);
            assert_eq!(ran.len(), parts);
            for (i, &(part, thread)) in ran.iter().enumerate() {
                assert_eq!((part, thread), (i, caller), "{parts} parts");
            }
        }
        assert_eq!(handoffs_on_this_thread() - before, 3 + 2 + 1);
    }

    #[test]
    fn workers_take_the_parts_after_the_first() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let caller = thread::current().id();
        let ran = thread_of_each_part(&pool, 3);
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(ran[0].1, caller);
        assert!(ran[1..].iter().all(|&(_, thread)| thread != caller));
    }

    #[test]
    fn a_job_whose_worker_has_gone_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = thread::current().id();
        // The only worker blocks in this job until the caller, busy with
        // its own part, tells it to die. The other parts were queued behind
        // it, so they are dropped with the queue, unanswered.
        let (kill, killed) = mpsc::channel::<()>();
        assert!(pool
            .submit(Box::new(move || {
                let _ = killed.recv();
                panic!("a worker dies mid-job");
            }))
            .is_ok());
        let rest = pool.split(
            3,
            |part| (part, thread::current().id()),
            || kill.send(()).expect("the worker waits"),
        );
        assert_eq!(rest, [(1, caller), (2, caller)]);
        // Once the worker has exited, the queue refuses jobs outright.
        let mut pool = pool;
        let dead = pool.workers.pop().expect("one worker");
        assert!(dead.join().is_err(), "the worker died with its job");
        assert!(pool.submit(Box::new(|| ())).is_err());
        let ran = thread_of_each_part(&pool, 3);
        assert!(ran.iter().all(|&(_, thread)| thread == caller));
    }
}
