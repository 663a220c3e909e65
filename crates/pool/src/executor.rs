//! A long-lived bounded-queue executor for resident services.
//!
//! [`Pool::map`](crate::Pool::map) is batch-shaped: it spawns scoped
//! workers per call and joins them before returning, which is exactly
//! right for one assessment run and exactly wrong for a daemon that
//! must accept work continuously. [`Executor`] is the resident
//! counterpart: a fixed set of worker threads draining one bounded
//! FIFO queue of boxed jobs, with **backpressure instead of unbounded
//! memory** — when the queue is full, [`Executor::try_submit`] hands
//! the job back to the caller so it can shed load (the `adsafe serve`
//! accept loop answers `503 Retry-After` from that path).
//!
//! Observability: the instantaneous queue length is published as the
//! `pool.queue_depth` gauge, rejected submissions count into
//! `pool.tasks_rejected`, completed jobs into `pool.tasks_completed`,
//! and a job that panics is contained (counted in `pool.task_panics`)
//! without taking its worker thread down. Every job is stamped at
//! submission; the submit→start delta feeds the `pool.queue_wait`
//! histogram (µs) and is readable from inside the job via
//! [`take_queue_wait_us`] — the queue-depth gauge says how long the
//! line *is*, the wait histogram says how long it *feels*.
//!
//! Shutdown is graceful by construction: [`Executor::shutdown`] stops
//! admission, lets the workers drain every queued job, and joins them.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued closure plus its admission timestamp.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    submitted: Instant,
}

thread_local! {
    /// Queue wait of the job currently running on this worker thread.
    static QUEUE_WAIT_US: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The submit→start queue wait (µs) of the job currently running on
/// this thread, consumed on read so one job observes only its own
/// wait. `None` off executor workers or on a second read. Lets a job
/// attribute its own latency (e.g. a request handler splitting
/// queue-wait out of total service time) without the executor leaking
/// timing through its `FnOnce()` interface.
pub fn take_queue_wait_us() -> Option<u64> {
    QUEUE_WAIT_US.with(Cell::take)
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    ready: Condvar,
    capacity: usize,
}

/// A fixed set of worker threads draining one bounded job queue.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .field("capacity", &self.inner.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl Executor {
    /// Starts `workers` threads (0 resolves to available parallelism)
    /// behind a queue holding at most `capacity` waiting jobs.
    pub fn new(workers: usize, capacity: usize) -> Executor {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        let capacity = capacity.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            capacity,
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("adsafe-exec-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { inner, workers: handles }
    }

    /// Enqueues `job` unless the queue is at capacity, in which case
    /// the job is handed back unrun (`Err`) and `pool.tasks_rejected`
    /// is incremented — the caller decides how to shed the load.
    pub fn try_submit<F>(&self, job: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut q = self.inner.queue.lock().expect("executor queue poisoned");
        if q.shutdown || q.jobs.len() >= self.inner.capacity {
            drop(q);
            adsafe_trace::counter("pool.tasks_rejected").incr();
            return Err(job);
        }
        q.jobs.push_back(Job { run: Box::new(job), submitted: Instant::now() });
        adsafe_trace::gauge("pool.queue_depth").set(q.jobs.len() as u64);
        drop(q);
        self.inner.ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not counting jobs being run).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("executor queue poisoned").jobs.len()
    }

    /// A load-shedding hint for rejected callers: roughly how many
    /// seconds until the current backlog drains, assuming about one
    /// second per queued job per worker — the right order of magnitude
    /// for an assessment request, and deliberately coarse (a shed path
    /// must stay cheap, so no timing samples are consulted). Clamped to
    /// `1..=30` so a momentary spike never tells clients to go away for
    /// minutes. The `adsafe serve` accept loop turns this into the
    /// `Retry-After` header on its `503` responses.
    pub fn retry_hint_secs(&self) -> u64 {
        let depth = self.queue_depth() as u64;
        let workers = self.workers.len().max(1) as u64;
        (1 + depth / workers).clamp(1, 30)
    }

    /// Maximum number of waiting jobs.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops admission, drains every queued job, and joins the
    /// workers. Jobs already queued all run to completion.
    pub fn shutdown(mut self) {
        {
            let mut q = self.inner.queue.lock().expect("executor queue poisoned");
            q.shutdown = true;
        }
        self.inner.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        adsafe_trace::gauge("pool.queue_depth").set(0);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Best-effort drain for handles not shut down explicitly.
        {
            let mut q = self.inner.queue.lock().expect("executor queue poisoned");
            q.shutdown = true;
        }
        self.inner.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("executor queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    adsafe_trace::gauge("pool.queue_depth").set(q.jobs.len() as u64);
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = inner.ready.wait(q).expect("executor queue poisoned");
            }
        };
        let Some(job) = job else { return };
        let wait_us = job.submitted.elapsed().as_micros() as u64;
        adsafe_trace::histogram("pool.queue_wait").record(wait_us);
        QUEUE_WAIT_US.with(|w| w.set(Some(wait_us)));
        if catch_unwind(AssertUnwindSafe(job.run)).is_err() {
            adsafe_trace::counter("pool.task_panics").incr();
        }
        QUEUE_WAIT_US.with(Cell::take);
        adsafe_trace::counter("pool.tasks_completed").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, MutexGuard, PoisonError};
    use std::time::Duration;

    /// Every executor sets the process-global `pool.queue_depth` gauge,
    /// so the tests that start one take turns.
    fn gauge_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn saturated_queue_rejects_and_reports_depth() {
        let _g = gauge_lock();
        let scope = adsafe_trace::RunScope::new();
        let _in_scope = scope.enter();
        let exec = Executor::new(1, 2);
        // Block the single worker so queued jobs cannot drain.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            exec.try_submit(move || {
                running_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                done.fetch_add(1, Ordering::SeqCst);
            })
            .ok()
            .expect("first job admitted");
        }
        running_rx.recv_timeout(Duration::from_secs(5)).expect("worker started");
        // Fill the queue to capacity behind the blocked worker.
        for _ in 0..2 {
            let done = Arc::clone(&done);
            exec.try_submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .ok()
            .expect("queued within capacity");
        }
        assert_eq!(exec.queue_depth(), 2);
        assert_eq!(adsafe_trace::gauge("pool.queue_depth").get(), 2);
        // One more is backpressure: handed back, counted as rejected.
        let d2 = Arc::clone(&done);
        let overflow = exec.try_submit(move || {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(overflow.is_err(), "full queue must reject");
        let counters = scope.counters();
        let rejected = counters.iter().find(|(n, _)| n == "pool.tasks_rejected");
        assert_eq!(rejected.map(|(_, v)| *v), Some(1), "{counters:?}");
        // Drain: every admitted job (and only those) runs.
        release_tx.send(()).unwrap();
        exec.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(adsafe_trace::gauge("pool.queue_depth").get(), 0);
    }

    #[test]
    fn retry_hint_scales_with_backlog_per_worker() {
        let _g = gauge_lock();
        let exec = Executor::new(2, 64);
        assert_eq!(exec.retry_hint_secs(), 1, "an empty queue drains immediately");
        // Block both workers, then queue a backlog.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (running_tx, running_rx) = mpsc::channel::<()>();
        for _ in 0..2 {
            let rx = Arc::clone(&release_rx);
            let tx = running_tx.clone();
            exec.try_submit(move || {
                tx.send(()).unwrap();
                let _ = rx.lock().unwrap().recv();
            })
            .ok()
            .unwrap();
        }
        for _ in 0..2 {
            running_rx.recv_timeout(Duration::from_secs(5)).expect("workers busy");
        }
        for _ in 0..8 {
            exec.try_submit(|| {}).ok().unwrap();
        }
        // 8 queued jobs over 2 workers: ~4s of backlog plus the base 1.
        assert_eq!(exec.retry_hint_secs(), 5);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        exec.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let _g = gauge_lock();
        let exec = Executor::new(1, 8);
        let done = Arc::new(AtomicUsize::new(0));
        exec.try_submit(|| panic!("job bug")).ok().unwrap();
        let d = Arc::clone(&done);
        exec.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .ok()
        .unwrap();
        exec.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let _g = gauge_lock();
        let exec = Executor::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let d = Arc::clone(&done);
            exec.try_submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .ok()
            .unwrap();
        }
        exec.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn queue_wait_is_stamped_and_readable_inside_the_job() {
        let _g = gauge_lock();
        let hist = adsafe_trace::histogram("pool.queue_wait");
        let count_before = hist.count();
        let exec = Executor::new(1, 8);
        // Block the worker so the second job measurably waits.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        exec.try_submit(move || {
            running_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .ok()
        .unwrap();
        running_rx.recv_timeout(Duration::from_secs(5)).expect("worker started");
        let (wait_tx, wait_rx) = mpsc::channel::<(Option<u64>, Option<u64>)>();
        exec.try_submit(move || {
            // First read yields this job's wait; the second is spent.
            wait_tx.send((take_queue_wait_us(), take_queue_wait_us())).unwrap();
        })
        .ok()
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        release_tx.send(()).unwrap();
        let (first, second) = wait_rx.recv_timeout(Duration::from_secs(5)).expect("job ran");
        let waited = first.expect("job sees its own queue wait");
        assert!(waited >= 10_000, "blocked ~20ms, saw {waited}µs");
        assert_eq!(second, None, "queue wait is consumed on read");
        exec.shutdown();
        assert!(hist.count() >= count_before + 2, "every job feeds pool.queue_wait");
        assert_eq!(take_queue_wait_us(), None, "non-worker threads see nothing");
    }

    #[test]
    fn zero_workers_resolves_to_parallelism() {
        let _g = gauge_lock();
        let exec = Executor::new(0, 1);
        assert!(exec.workers() >= 1);
        exec.shutdown();
    }
}
