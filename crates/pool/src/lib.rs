//! # adsafe-pool — a zero-dependency work-stealing thread pool
//!
//! The assessment pipeline fans file- and (rule × file)-grained tasks
//! out over cores with [`Pool::map`]: every task runs under
//! `catch_unwind` (preserving the pipeline's fault-isolation
//! semantics), and results come back **indexed by input position**, so
//! callers can merge them in stable input order no matter which worker
//! ran what. In the spirit of the vendored `crates/shims`, this crate
//! is std-only — the build environment has no crates.io access.
//!
//! Scheduling is classic work stealing over per-worker deques: tasks
//! are dealt round-robin, each worker drains its own deque from the
//! front, and an idle worker steals from the *back* of a victim's
//! deque (counted in the `pool.steals` counter). With one worker (the
//! pipeline's library default) no threads are spawned at all: tasks
//! run inline on the calling thread, in input order. Thread-local
//! state the pool does not know about (the pipeline's failpoints) is
//! the caller's to carry into its tasks.
//!
//! Worker threads carry their own thread-local trace buffers; after
//! the scope joins, each worker's drained events are re-absorbed into
//! the calling thread's buffer via [`adsafe_trace::absorb`], so one
//! `drain_from` on the caller still observes the whole parallel run.
//! Workers also enter the caller's telemetry [`Context`] (its open
//! run scope and allocation-billing phase), so their counter
//! increments and allocations are billed to the caller's run.
//!
//! [`Context`]: adsafe_trace::Context
//!
//! For resident services the crate also provides [`Executor`]: a
//! long-lived bounded-queue thread pool with backpressure
//! (`pool.queue_depth` gauge, `pool.tasks_rejected` counter) and
//! graceful drain-on-shutdown — see [`executor`].

#![warn(missing_docs)]

pub mod executor;

pub use executor::{take_queue_wait_us, Executor};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The result of one task: `Err` carries the panic payload of a task
/// that unwound, exactly as `std::panic::catch_unwind` reports it.
pub type TaskResult<R> = std::thread::Result<R>;

/// A fixed-width work-stealing pool.
///
/// `Pool` is cheap to construct (it owns no threads); threads are
/// spawned per [`map`](Pool::map) call via `std::thread::scope`, so
/// borrows from the caller's stack flow into tasks without `'static`
/// bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// Creates a pool with `jobs` workers. `jobs == 0` resolves to the
    /// machine's available parallelism (falling back to 1 if unknown).
    pub fn new(jobs: usize) -> Self {
        let workers = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        Pool { workers }
    }

    /// Number of workers tasks will be spread over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning per-item results in input
    /// order. Each task runs under `catch_unwind`; a panicking task
    /// yields `Err(payload)` at its index without disturbing others.
    ///
    /// With one worker (or one item) everything runs inline on the
    /// calling thread in input order. Otherwise `min(workers, items)`
    /// scoped threads run the tasks with work stealing, and each
    /// worker's trace events are absorbed into the caller's buffer
    /// after the join.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| catch_unwind(AssertUnwindSafe(|| f(i, item))))
                .collect();
        }
        self.map_stealing(items, f)
    }

    fn map_stealing<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n_workers = self.workers.min(items.len());
        // Items move out of their slot exactly once, by whichever
        // worker claimed the index; results land at the same index.
        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|it| Mutex::new(Some(it))).collect();
        let results: Vec<Mutex<Option<TaskResult<R>>>> =
            (0..slots.len()).map(|_| Mutex::new(None)).collect();
        // Deal tasks round-robin so heterogeneous runs of work spread
        // across workers even before any stealing happens.
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..slots.len() {
            deques[i % n_workers].lock().unwrap().push_back(i);
        }

        let worker_events: Mutex<Vec<(usize, Vec<adsafe_trace::SpanEvent>)>> =
            Mutex::new(Vec::new());
        // Workers bill the caller's run scope and phase; worker
        // thread-locals start with neither.
        let context = adsafe_trace::Context::current();
        std::thread::scope(|scope| {
            for w in 0..n_workers {
                let f = &f;
                let slots = &slots;
                let results = &results;
                let deques = &deques;
                let worker_events = &worker_events;
                let context = &context;
                scope.spawn(move || {
                    let _context = context.enter();
                    let trace_mark = adsafe_trace::mark();
                    let mut steals = 0u64;
                    {
                        let _span = adsafe_trace::span_with(
                            "pool.worker",
                            "pool",
                            vec![("worker", w.to_string())],
                        );
                        while let Some(i) = claim(w, deques, &mut steals) {
                            let item = slots[i]
                                .lock()
                                .unwrap()
                                .take()
                                .expect("each index is claimed exactly once");
                            let r = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                            *results[i].lock().unwrap() = Some(r);
                        }
                    }
                    if steals > 0 {
                        adsafe_trace::counter("pool.steals").add(steals);
                    }
                    let events = adsafe_trace::drain_from(trace_mark);
                    if !events.is_empty() {
                        worker_events.lock().unwrap().push((w, events));
                    }
                });
            }
        });

        // Re-home worker trace events onto the calling thread, in
        // worker order so absorption is deterministic.
        let mut collected = worker_events.into_inner().unwrap();
        collected.sort_by_key(|(w, _)| *w);
        for (_, events) in collected {
            adsafe_trace::absorb(events);
        }

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every index was claimed and completed")
            })
            .collect()
    }
}

/// Claims the next task index for worker `w`: own deque first (front),
/// then steal from the back of the first non-empty victim.
fn claim(w: usize, deques: &[Mutex<VecDeque<usize>>], steals: &mut u64) -> Option<usize> {
    if let Some(i) = deques[w].lock().unwrap().pop_front() {
        return Some(i);
    }
    let n = deques.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = deques[victim].lock().unwrap().pop_back() {
            *steals += 1;
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(Pool::new(0).workers() >= 1);
        assert_eq!(Pool::new(3).workers(), 3);
    }

    #[test]
    fn map_returns_results_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<usize> = (0..50).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i, x);
                x * 2
            });
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_task_is_isolated_at_its_index() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let out = pool.map((0..10).collect::<Vec<usize>>(), |_, x| {
                if x == 3 {
                    panic!("task bug");
                }
                x
            });
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.is_err(), i == 3, "index {i}");
            }
        }
    }

    #[test]
    fn single_worker_runs_inline_and_in_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let pool = Pool::new(1);
        pool.map((0..8).collect::<Vec<usize>>(), |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_complete_under_unbalanced_load() {
        let done = AtomicUsize::new(0);
        let pool = Pool::new(4);
        pool.map((0..64).collect::<Vec<usize>>(), |_, x| {
            // Front-load the work so late workers must steal.
            if x % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn workers_inherit_the_callers_allocation_phase_tag() {
        let slot = adsafe_trace::alloc::phase_index("pool-test-phase");
        assert_ne!(slot, 0, "registry has room in tests");
        let prev = adsafe_trace::alloc::set_current_phase(slot);
        let pool = Pool::new(4);
        let out = pool.map((0..16).collect::<Vec<usize>>(), |_, _| {
            adsafe_trace::alloc::current_phase()
        });
        adsafe_trace::alloc::set_current_phase(prev);
        for r in out {
            assert_eq!(r.unwrap(), slot, "every worker bills the parent phase");
        }
    }

    #[test]
    fn workers_bill_the_callers_run_scope() {
        let scope = adsafe_trace::RunScope::new();
        let _in = scope.enter();
        let pool = Pool::new(4);
        pool.map((0..16).collect::<Vec<usize>>(), |_, _| {
            adsafe_trace::counter("pool-test.scoped").add(2);
        });
        let counters = scope.counters();
        let scoped = counters.iter().find(|(n, _)| n == "pool-test.scoped");
        assert_eq!(scoped.map(|(_, v)| *v), Some(32), "{counters:?}");
    }

    #[test]
    fn worker_spans_are_absorbed_into_the_caller_trace() {
        let m = adsafe_trace::mark();
        let pool = Pool::new(4);
        pool.map((0..16).collect::<Vec<usize>>(), |i, _| {
            let _s = adsafe_trace::span_with("pool.task", "pool", vec![("i", i.to_string())]);
        });
        let events = adsafe_trace::drain_from(m);
        let tasks = events.iter().filter(|e| e.name == "pool.task").count();
        let workers = events.iter().filter(|e| e.name == "pool.worker").count();
        assert_eq!(tasks, 16);
        assert!((1..=4).contains(&workers), "workers={workers}");
    }
}
