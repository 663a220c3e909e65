//! Phase-attributed allocation profiling: a `#[global_allocator]`
//! wrapper over [`std::alloc::System`] that bills every heap
//! allocation to the pipeline phase that made it.
//!
//! The workspace deliberately vendors no allocator or profiler crates,
//! so the instrument is built from the same primitives the rest of the
//! trace plane uses: lock-free `AtomicU64`s for the global totals
//! (bytes allocated/freed, live bytes, peak live, allocation count), a
//! const-initialised [`Histogram`] for the log₂ size-class
//! distribution, and a fixed table of per-phase slots indexed by the
//! phase part of the thread's billing context (see `scope.rs`):
//! `cat == "phase"` spans push their stripped name — `parse`,
//! `checks.native`, `render`, … — and restore the previous phase on
//! drop, including during panic unwinding. Each allocation is billed
//! to the global table and to the thread's open [`RunScope`], which
//! `adsafe-pool` workers inherit from the caller, so a run's own bill
//! ([`RunScope::phase_mem`]) never includes another run's allocations.
//!
//! [`RunScope`]: crate::scope::RunScope
//! [`RunScope::phase_mem`]: crate::scope::RunScope::phase_mem
//!
//! # The hooks allocate nothing
//!
//! Everything touched on the alloc/dealloc path is a static with a
//! `const` constructor: a heap allocation inside the hooks would
//! recurse into the allocator. This is why the metrics *registry*
//! (mutex + `BTreeMap`) is never consulted from the hot path — phase
//! *names* live in a mutex-guarded table touched only when a phase
//! span opens (rare, and on normal code), while the hooks see only the
//! const-initialised billing context read via `try_with` (safe during
//! thread-local teardown, when allocations still occur).
//!
//! # Cost when off, and the determinism contract
//!
//! Profiling defaults **off**: each hook then costs a single relaxed
//! atomic load (the ≤5% overhead budget in CI's pipeline-bench gate is
//! measured in this state, since nothing in the bench enables it).
//! When enabled (`--mem-profile`, the daemon, the frontend bench), the
//! numbers feed only observability surfaces — `--mem-profile` tables,
//! the flame view, `/metrics`, `/healthz`, the flight recorder, and
//! `adsafe top`. They never enter the deterministic report, which must
//! stay byte-identical with profiling on or off and at any `--jobs`
//! (see DESIGN.md §14 and the determinism matrix in
//! `tests/parallel_pipeline.rs`).

use crate::metrics::{gauge, labeled, Histogram, HistogramSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The instrumented allocator. Declare it as the global allocator in a
/// binary (or an integration-test crate) to activate the hooks:
///
/// ```text
/// #[global_allocator]
/// static ALLOC: adsafe_trace::alloc::CountingAlloc = adsafe_trace::alloc::CountingAlloc;
/// ```
///
/// Until [`set_profiling`]`(true)` is called the wrapper forwards to
/// [`System`] with one relaxed load of overhead per call.
pub struct CountingAlloc;

/// Master switch; default off so un-instrumented runs pay one relaxed
/// load per allocator call and nothing else.
static PROFILING: AtomicBool = AtomicBool::new(false);

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Log₂ size-class distribution of allocation request sizes.
static SIZE_HIST: Histogram = Histogram::new();

/// Fixed capacity of the per-phase slot table. Slot 0 is the untagged
/// catch-all ("other"); a run registers ~6 phases, so 32 is generous.
/// Registration past the capacity falls back to slot 0 rather than
/// allocating — the hooks must stay allocation-free.
pub(crate) const MAX_PHASES: usize = 32;

/// One phase's allocation count and bytes. The global table and every
/// run scope hold one per phase.
pub(crate) struct PhaseSlot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl PhaseSlot {
    pub(crate) const fn new() -> Self {
        PhaseSlot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Counts one allocation of `size` bytes.
    #[inline]
    pub(crate) fn add(&self, size: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
    }

    /// Adds `other`'s totals (a closing nested scope's) to this slot.
    pub(crate) fn absorb(&self, other: &PhaseSlot) {
        self.allocs.fetch_add(other.allocs.load(Ordering::Relaxed), Ordering::Relaxed);
        self.bytes.fetch_add(other.bytes(), Ordering::Relaxed);
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

static PHASE_SLOTS: [PhaseSlot; MAX_PHASES] = [const { PhaseSlot::new() }; MAX_PHASES];

/// Per phase, the highest *global* live level observed while an
/// allocation was billed to the phase — a "peak RSS during phase"
/// reading, not a per-phase live ledger (frees are not
/// phase-attributed; the thread freeing a buffer often isn't the phase
/// that allocated it). Process-wide, so run scopes report it as is.
static PHASE_PEAKS: [AtomicU64; MAX_PHASES] = [const { AtomicU64::new(0) }; MAX_PHASES];

/// Registered phase names; index `i` owns slot `i + 1`. Locked only
/// when a phase span opens or a snapshot is taken — never in the
/// allocator hooks.
static PHASE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

pub use crate::scope::{current_phase, set_current_phase};

/// Enables or disables allocation profiling process-wide; returns the
/// previous state. Global counts accumulate monotonically while
/// enabled; a run's own bill is its [`RunScope`](crate::scope::RunScope)'s.
pub fn set_profiling(on: bool) -> bool {
    PROFILING.swap(on, Ordering::Relaxed)
}

/// Whether allocation profiling is currently enabled.
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Registers `name` (idempotently) and returns its slot index for
/// [`set_current_phase`]. Returns slot 0 once the fixed table is full.
pub fn phase_index(name: &str) -> usize {
    let mut names = PHASE_NAMES.lock().expect("phase name table poisoned");
    if let Some(i) = names.iter().position(|n| n == name) {
        return i + 1;
    }
    if names.len() + 1 >= MAX_PHASES {
        return 0;
    }
    names.push(name.to_string());
    names.len()
}

/// Point-in-time totals from the instrumented allocator. All zeros
/// unless a [`CountingAlloc`] is installed *and* profiling is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Total bytes requested from the allocator while profiling.
    pub allocated_bytes: u64,
    /// Total bytes returned to the allocator while profiling.
    pub freed_bytes: u64,
    /// Currently live (allocated − freed) bytes.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
    /// Number of allocation calls (reallocs count once).
    pub alloc_count: u64,
    /// Log₂ size-class distribution of allocation sizes.
    pub size_classes: HistogramSnapshot,
}

/// Snapshot of the global allocator totals.
pub fn stats() -> MemStats {
    MemStats {
        allocated_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed),
        alloc_count: ALLOC_COUNT.load(Ordering::Relaxed),
        size_classes: SIZE_HIST.snapshot(),
    }
}

/// Total bytes allocated process-wide so far (monotonic while
/// profiling).
pub fn total_allocated() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Currently live bytes.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak-live high-water mark to the current live level, so
/// a long-lived process (or a bench run) can scope the peak to a
/// window. Totals are never reset.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One phase's allocation totals, as reported by [`phase_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseMem {
    /// Phase name as the span stack registered it (`parse`,
    /// `checks.native`, …); `other` is the untagged catch-all.
    pub name: String,
    /// Allocation calls billed to the phase.
    pub allocs: u64,
    /// Bytes billed to the phase.
    pub bytes: u64,
    /// Highest global live level observed during the phase, in any
    /// run (see `PHASE_PEAKS`).
    pub peak_live: u64,
}

/// Process-wide per-phase totals, untagged catch-all first, then
/// phases in registration order. Monotonic while profiling.
pub fn phase_stats() -> Vec<PhaseMem> {
    phase_table(&PHASE_SLOTS)
}

/// One row per registered phase of a slot table (global or a scope's).
pub(crate) fn phase_table(slots: &[PhaseSlot; MAX_PHASES]) -> Vec<PhaseMem> {
    let names = PHASE_NAMES.lock().expect("phase name table poisoned");
    std::iter::once("other")
        .chain(names.iter().map(String::as_str))
        .zip(slots.iter().zip(&PHASE_PEAKS))
        .map(|(name, (s, peak))| PhaseMem {
            name: name.to_string(),
            allocs: s.allocs.load(Ordering::Relaxed),
            bytes: s.bytes(),
            peak_live: peak.load(Ordering::Relaxed),
        })
        .collect()
}

/// Publishes the allocator totals into the metrics registry —
/// `mem.live_bytes` / `mem.peak_bytes` gauges plus one
/// `mem.phase{phase="…"}` bytes gauge per registered phase — so
/// `/metrics` exports them in both the text and Prometheus formats.
/// Call before rendering; gauges, not counters, because the registry
/// mirrors a level the allocator owns.
pub fn publish_metrics() {
    gauge("mem.live_bytes").set(live_bytes());
    gauge("mem.peak_bytes").set(peak_live_bytes());
    for p in phase_stats() {
        gauge(&labeled("mem.phase", &[("phase", &p.name)])).set(p.bytes);
    }
}

/// Raises a watermark to `v`. The plain load first skips the
/// read-modify-write whenever the mark already covers `v`, which is
/// almost always once it has settled.
#[inline]
fn raise(mark: &AtomicU64, v: u64) {
    if v > mark.load(Ordering::Relaxed) {
        mark.fetch_max(v, Ordering::Relaxed);
    }
}

/// Billing hook for one successful allocation of `size` bytes.
#[inline]
fn on_alloc(size: usize) {
    if !PROFILING.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    raise(&PEAK, live);
    SIZE_HIST.record(size);
    let phase = crate::scope::bill_alloc(size);
    PHASE_SLOTS[phase].add(size);
    raise(&PHASE_PEAKS[phase], live);
}

/// Billing hook for one deallocation of `size` bytes. Saturating: a
/// block allocated before profiling was enabled must not wrap the
/// live gauge when freed after.
#[inline]
fn on_dealloc(size: usize) {
    if !PROFILING.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
    FREED_BYTES.fetch_add(size, Ordering::Relaxed);
    let mut cur = LIVE.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(size);
        match LIVE.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the hooks touch only atomics (static, or
// in the run scope the thread's billing context holds a reference to)
// and a const-initialised thread-local, so they cannot allocate, panic,
// or otherwise re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::RunScope;

    // The unit tests exercise the bookkeeping by calling the hooks
    // directly: the test binary does not install `CountingAlloc` (the
    // workspace-level integration tests do), so real allocations are
    // invisible here and the arithmetic can be asserted exactly.

    /// Serialises tests that flip the global `PROFILING` switch.
    static PROFILING_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn hooks_are_inert_until_enabled() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let before = stats();
        on_alloc(4096);
        on_dealloc(4096);
        assert_eq!(stats(), before, "disabled hooks must not count");
    }

    #[test]
    fn totals_live_and_peak_track_alloc_free_pairs() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let prev = set_profiling(true);
        let before = stats();
        on_alloc(1000);
        on_alloc(24);
        on_dealloc(1000);
        let after = stats();
        set_profiling(prev);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 1024);
        assert_eq!(after.freed_bytes - before.freed_bytes, 1000);
        assert_eq!(after.alloc_count - before.alloc_count, 2);
        assert!(after.peak_live_bytes >= before.live_bytes + 1024);
        assert!(after.size_classes.count > before.size_classes.count);
    }

    #[test]
    fn dealloc_saturates_instead_of_wrapping() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let prev = set_profiling(true);
        // Free a block "allocated before profiling was enabled": far
        // larger than anything the sibling tests leave live.
        on_dealloc(1 << 40);
        let live = live_bytes();
        set_profiling(prev);
        assert_eq!(live, 0, "live gauge must saturate at zero");
    }

    /// Bills one hook-level allocation of `size` bytes at phase `slot`
    /// inside a fresh run scope and returns the scope's bill.
    fn billed_in_scope(slot: usize, size: usize) -> (Vec<PhaseMem>, u64) {
        let scope = RunScope::new();
        let _in = scope.enter();
        let prev_phase = set_current_phase(slot);
        let prev = set_profiling(true);
        on_alloc(size);
        set_profiling(prev);
        set_current_phase(prev_phase);
        (scope.phase_mem(), scope.alloc_bytes())
    }

    #[test]
    fn phase_attribution_bills_the_current_tag() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let idx = phase_index("test.alloc.phase_a");
        assert!(idx > 0, "registration must find a free slot");
        assert_eq!(phase_index("test.alloc.phase_a"), idx, "idempotent");
        let global_before = phase_stats()[idx].bytes;
        let (bill, total) = billed_in_scope(idx, 512);
        assert_eq!(bill.len(), 1, "only the tagged phase was billed: {bill:?}");
        assert_eq!(bill[0].name, "test.alloc.phase_a");
        assert_eq!(bill[0].allocs, 1);
        assert_eq!(bill[0].bytes, 512);
        assert!(bill[0].peak_live > 0);
        assert_eq!(total, 512);
        assert_eq!(phase_stats()[idx].bytes - global_before, 512, "the global table too");
    }

    #[test]
    fn untagged_allocations_land_in_other() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let (bill, _) = billed_in_scope(0, 64);
        assert_eq!(bill.len(), 1);
        assert_eq!(bill[0].name, "other");
    }

    #[test]
    fn allocations_outside_a_scope_bill_only_the_global_table() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let scope = RunScope::new();
        let prev = set_profiling(true);
        on_alloc(4096);
        set_profiling(prev);
        assert!(scope.phase_mem().is_empty());
        assert_eq!(scope.alloc_bytes(), 0);
    }

    #[test]
    fn publish_metrics_exports_gauges() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let idx = phase_index("test.alloc.publish");
        let prev_phase = set_current_phase(idx);
        let prev = set_profiling(true);
        on_alloc(2048);
        publish_metrics();
        set_profiling(prev);
        set_current_phase(prev_phase);
        let gauges = crate::metrics::gauge_snapshot();
        assert!(gauges.contains_key("mem.live_bytes"), "{gauges:?}");
        assert!(gauges.contains_key("mem.peak_bytes"), "{gauges:?}");
        let key = labeled("mem.phase", &[("phase", "test.alloc.publish")]);
        assert!(gauges.get(&key).is_some_and(|&v| v >= 2048), "{gauges:?}");
    }

    #[test]
    fn set_current_phase_returns_previous_and_rejects_out_of_range() {
        let prev = set_current_phase(3);
        assert_eq!(set_current_phase(MAX_PHASES + 7), 3);
        assert_eq!(current_phase(), 0, "out-of-range tags fall back to untagged");
        set_current_phase(prev);
    }
}
