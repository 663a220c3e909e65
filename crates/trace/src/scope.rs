//! Run scopes: telemetry attributed to the run that produced it.
//!
//! The metrics registry and the allocation profiler are process-global,
//! so `/metrics`, `/healthz` and `adsafe top` see process totals. A
//! [`RunScope`] is the per-run view of the same increments: while a
//! scope is entered on a thread, every [`Counter::add`] and every
//! profiled allocation on that thread goes to the global registry *and*
//! to the scope. A scope opened inside another bills its totals to the
//! enclosing one when it closes (a pipeline run inside a daemon request
//! bills both). Concurrent runs in one process therefore never see each
//! other's counts: attribution follows the thread's context, not a
//! before/after diff of global state.
//!
//! The context a thread carries is "the open scope plus the phase index
//! within it": one const-initialised thread-local the allocator hook
//! reads without locking or allocating. Phase spans (`cat == "phase"`,
//! see `span.rs`) move the phase index; [`RunScope::enter`] and
//! [`Context::enter`] move the scope. `adsafe-pool` captures the
//! caller's [`Context`] once per `map` and enters it on every worker,
//! so parallel work is billed to the run and phase that fanned out.
//!
//! [`Counter::add`]: crate::Counter::add

use crate::alloc::{self, PhaseMem, PhaseSlot, MAX_PHASES};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::{Arc, Mutex, PoisonError};

/// One scope's accumulators.
struct Sink {
    /// The scope this one was opened inside; billed on drop.
    parent: Option<Arc<Sink>>,
    /// Counter increments indexed by the counter's registry id.
    counters: Mutex<Vec<u64>>,
    /// Allocation bills indexed by phase slot, like the global table.
    phases: [PhaseSlot; MAX_PHASES],
}

impl Drop for Sink {
    fn drop(&mut self) {
        let Some(parent) = &self.parent else { return };
        let counts = self.counters.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (id, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
            parent.count(id, n);
        }
        for (theirs, mine) in parent.phases.iter().zip(&self.phases) {
            theirs.absorb(mine);
        }
    }
}

impl Sink {
    fn count(&self, id: usize, n: u64) {
        let mut counts = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if counts.len() <= id {
            counts.resize(id + 1, 0);
        }
        counts[id] += n;
    }
}

/// A thread's billing context. A non-null `sink` owns one strong count
/// of its `Arc` (taken with `Arc::into_raw`), so the allocator hook can
/// dereference it for as long as it is current.
#[derive(Clone, Copy)]
struct Current {
    sink: *const Sink,
    phase: usize,
}

thread_local! {
    /// Const init keeps first touch allocation-free, and `Cell` of a
    /// `Copy` type has no destructor to register — the allocator hook
    /// reads it via `try_with`, which also works during teardown.
    static CURRENT: Cell<Current> = const { Cell::new(Current { sink: ptr::null(), phase: 0 }) };
}

fn current() -> Current {
    CURRENT.try_with(Cell::get).unwrap_or(Current { sink: ptr::null(), phase: 0 })
}

/// The calling thread's open scope, as a new owning handle.
fn current_sink() -> Option<Arc<Sink>> {
    let sink = current().sink;
    // SAFETY: a non-null current sink owns a strong count (see `Current`).
    (!sink.is_null()).then(|| unsafe {
        Arc::increment_strong_count(sink);
        Arc::from_raw(sink)
    })
}

/// Makes `sink` the thread's open scope and returns the one it
/// replaces, whose strong count passes to the caller.
fn swap_sink(sink: Option<Arc<Sink>>) -> Option<Arc<Sink>> {
    let raw = sink.map_or(ptr::null(), Arc::into_raw);
    let old = CURRENT.try_with(|c| c.replace(Current { sink: raw, ..c.get() }).sink);
    // SAFETY: the replaced pointer carried the strong count `Current` owns.
    old.ok().filter(|p| !p.is_null()).map(|p| unsafe { Arc::from_raw(p) })
}

/// Calls `f` with the thread's phase and open scope, if any.
fn with_current(f: impl FnOnce(usize, Option<&Sink>)) {
    let cur = current();
    // SAFETY: a non-null current sink owns a strong count (see
    // `Current`), and nothing on this thread can release it while `f`
    // runs: `f` neither enters nor leaves a scope.
    f(cur.phase, unsafe { cur.sink.as_ref() });
}

/// This thread's allocation-billing phase slot (0 = untagged).
pub fn current_phase() -> usize {
    current().phase
}

/// Sets this thread's billing phase slot and returns the previous one,
/// so callers (the span stack) can restore it. Out-of-range slots fall
/// back to 0, the untagged catch-all.
pub fn set_current_phase(slot: usize) -> usize {
    let phase = if slot < MAX_PHASES { slot } else { 0 };
    CURRENT.try_with(|c| c.replace(Current { phase, ..c.get() }).phase).unwrap_or(0)
}

/// Bills `n` increments of registry counter `id` to the open scope.
pub(crate) fn count(id: usize, n: u64) {
    with_current(|_, sink| {
        if let Some(s) = sink {
            s.count(id, n);
        }
    });
}

/// Bills one allocation of `size` bytes to the open scope and returns
/// the thread's phase slot. Called from the allocator hook: relaxed
/// atomics only.
pub(crate) fn bill_alloc(size: u64) -> usize {
    let mut slot = 0;
    with_current(|phase, sink| {
        slot = phase.min(MAX_PHASES - 1);
        if let Some(s) = sink {
            s.phases[slot].add(size);
        }
    });
    slot
}

/// Restores the thread's previous context on drop. Guards are `!Send`,
/// and drop in reverse order of entry, as Rust scoping does.
#[must_use = "a scope is left when its guard drops"]
pub struct ScopeGuard {
    prev: Option<Arc<Sink>>,
    prev_phase: usize,
    _not_send: PhantomData<*const ()>,
}

fn enter(sink: Option<Arc<Sink>>, phase: usize) -> ScopeGuard {
    let prev = swap_sink(sink);
    let prev_phase = set_current_phase(phase);
    ScopeGuard { prev, prev_phase, _not_send: PhantomData }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        set_current_phase(self.prev_phase);
        // Released only after `CURRENT` stopped pointing at it.
        drop(swap_sink(self.prev.take()));
    }
}

/// A run's own view of the counters and allocation bills: what was
/// counted and allocated while it was entered, on any thread that
/// entered it (directly or through a pool worker's [`Context`]).
pub struct RunScope(Arc<Sink>);

impl RunScope {
    /// A fresh, empty scope. If the calling thread is inside another
    /// scope, the new one is nested in it: when the last handle to it
    /// (owner, guards, captured contexts) drops, its totals are billed
    /// to the enclosing scope.
    pub fn new() -> Self {
        RunScope(Arc::new(Sink {
            parent: current_sink(),
            counters: Mutex::new(Vec::new()),
            phases: [const { PhaseSlot::new() }; MAX_PHASES],
        }))
    }

    /// Makes this the calling thread's open scope until the guard
    /// drops. The billing phase is unchanged.
    pub fn enter(&self) -> ScopeGuard {
        enter(Some(Arc::clone(&self.0)), current_phase())
    }

    /// Counter increments billed to this scope, sorted by name; zero
    /// entries are omitted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let counts = self.0.counters.lock().unwrap_or_else(PoisonError::into_inner).clone();
        crate::metrics::counts_by_name(&counts)
    }

    /// Allocation totals billed to this scope per phase, in the order
    /// of [`alloc::phase_stats`]; phases with no allocations are
    /// omitted. Empty unless a `CountingAlloc` is installed and
    /// profiling was on.
    pub fn phase_mem(&self) -> Vec<PhaseMem> {
        alloc::phase_table(&self.0.phases).into_iter().filter(|p| p.allocs > 0).collect()
    }

    /// Heap bytes allocated while this scope was entered.
    pub fn alloc_bytes(&self) -> u64 {
        self.0.phases.iter().map(PhaseSlot::bytes).sum()
    }
}

impl Default for RunScope {
    fn default() -> Self {
        RunScope::new()
    }
}

/// A thread's billing context — its open scope (if any) and phase —
/// captured to be entered on another thread. `adsafe-pool` captures
/// one per `map` call so worker threads bill the caller's run.
#[derive(Clone)]
pub struct Context {
    sink: Option<Arc<Sink>>,
    phase: usize,
}

impl Context {
    /// The calling thread's current context.
    pub fn current() -> Self {
        Context { sink: current_sink(), phase: current_phase() }
    }

    /// Adopts this context on the calling thread until the guard drops.
    pub fn enter(&self) -> ScopeGuard {
        enter(self.sink.clone(), self.phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::counter;

    fn count_of(scope: &RunScope, name: &str) -> u64 {
        scope.counters().iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    #[test]
    fn a_scope_counts_only_increments_made_inside_it() {
        let c = counter("test.scope.inside");
        let global_before = c.get();
        c.add(5);
        let scope = RunScope::new();
        {
            let _in = scope.enter();
            c.add(7);
            counter("test.scope.other").incr();
        }
        c.add(11);
        assert_eq!(c.get(), global_before + 23, "the global registry sees everything");
        assert_eq!(count_of(&scope, "test.scope.inside"), 7);
        assert_eq!(count_of(&scope, "test.scope.other"), 1);
        let names: Vec<String> = scope.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["test.scope.inside", "test.scope.other"], "sorted, zeros omitted");
    }

    #[test]
    fn concurrent_scopes_never_see_each_others_counts() {
        let per_thread = [3u64, 300, 30_000];
        let counts: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = per_thread
                .iter()
                .map(|&n| {
                    s.spawn(move || {
                        let scope = RunScope::new();
                        let _in = scope.enter();
                        let c = counter("test.scope.concurrent");
                        for _ in 0..n {
                            c.incr();
                        }
                        count_of(&scope, "test.scope.concurrent")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, per_thread);
    }

    #[test]
    fn a_nested_scope_bills_its_parent_when_it_closes() {
        let outer = RunScope::new();
        let _o = outer.enter();
        counter("test.scope.nested").add(2);
        let inner = RunScope::new();
        {
            let _i = inner.enter();
            counter("test.scope.nested").add(40);
        }
        assert_eq!(count_of(&inner, "test.scope.nested"), 40);
        assert_eq!(count_of(&outer, "test.scope.nested"), 2, "not while the inner is open");
        drop(inner);
        assert_eq!(count_of(&outer, "test.scope.nested"), 42);
    }

    #[test]
    fn a_captured_context_bills_the_scope_from_another_thread() {
        let scope = RunScope::new();
        let _in = scope.enter();
        let ctx = Context::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                counter("test.scope.worker").add(9);
                let _ctx = ctx.enter();
                counter("test.scope.worker").add(4);
            });
        });
        assert_eq!(count_of(&scope, "test.scope.worker"), 4, "only the entered part counts");
    }

    #[test]
    fn leaving_a_scope_restores_the_one_it_was_entered_in() {
        let outer = RunScope::new();
        let _o = outer.enter();
        {
            let inner = RunScope::new();
            let _i = inner.enter();
            assert!(Arc::ptr_eq(&current_sink().unwrap(), &inner.0));
        }
        assert!(Arc::ptr_eq(&current_sink().unwrap(), &outer.0));
        let sink = Arc::downgrade(&outer.0);
        drop(_o);
        drop(outer);
        assert!(current_sink().is_none());
        assert!(sink.upgrade().is_none(), "a left scope is freed with its owner");
    }

    #[test]
    fn entering_a_context_sets_and_restores_the_phase() {
        let outside = current_phase();
        let slot = alloc::phase_index("test.scope.phase");
        let ctx = Context { sink: None, phase: slot };
        {
            let _g = ctx.enter();
            assert_eq!(current_phase(), slot);
        }
        assert_eq!(current_phase(), outside);
    }
}
