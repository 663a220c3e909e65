//! Hierarchical wall-clock spans with RAII guards.
//!
//! Each thread carries its own span stack and event buffer, so
//! concurrent assessment runs (e.g. parallel tests) never interleave
//! events. A [`SpanGuard`] records its span when dropped — including
//! during panic unwinding, which is what keeps the stack well-formed
//! when a checker panics under `catch_unwind`: the inner guards drop
//! first, so every exit matches the innermost open span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Global on/off switch (default: on). Disabled spans cost one atomic
/// load and record nothing.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide trace epoch: all timestamps are microseconds since the
/// first span of the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Cap on buffered events per thread; beyond it events are counted in
/// the `trace.events.dropped` counter instead of buffered, so a
/// long-lived thread that never drains cannot grow without bound.
const EVENT_CAP: usize = 1 << 20;

/// Enables or disables span recording process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `"phase.parse"` or `"check.misra-15.1-goto"`.
    pub name: String,
    /// Category (Chrome trace `cat` field), e.g. `"phase"`, `"checks"`.
    pub cat: &'static str,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: usize,
    /// Small per-process thread id (not the OS tid).
    pub tid: u64,
    /// Key/value annotations (Chrome trace `args`).
    pub args: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End timestamp, µs since the epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

struct OpenSpan {
    name: String,
    cat: &'static str,
    start_us: u64,
    args: Vec<(&'static str, String)>,
    /// Allocation-billing tag this span displaced (`cat == "phase"`
    /// spans only): restored when the span closes, so nested phases
    /// bill to the innermost one and panics/leaked guards repair the
    /// tag along with the stack.
    prev_phase: Option<usize>,
}

struct ThreadTrace {
    tid: u64,
    stack: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        events: Vec::new(),
    });
}

/// RAII guard for one open span; records the span when dropped.
///
/// Guards are expected to drop in LIFO order (Rust scoping guarantees
/// this unless a guard is deliberately leaked). If inner guards *were*
/// leaked, dropping an outer guard closes the leaked spans too, so the
/// recorded stream is always well-formed.
#[must_use = "a span guard records its span when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Stack length right after this span was pushed; 0 = not armed.
    token: usize,
}

/// Opens a span. Prefer stable, dot-separated names
/// (`phase.component`, `check.<rule-id>`).
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    span_with(name, cat, Vec::new())
}

/// Opens a span with key/value annotations.
pub fn span_with(
    name: impl Into<String>,
    cat: &'static str,
    args: Vec<(&'static str, String)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { token: 0 };
    }
    let start_us = now_us();
    let name = name.into();
    // Phase spans double as allocation-billing scopes: the profiler's
    // thread-local tag points at this phase until the span closes.
    // Registration is idempotent and cheap relative to opening a
    // phase (a handful per run).
    let prev_phase = (cat == "phase").then(|| {
        let stripped = name.strip_prefix("phase.").unwrap_or(&name);
        crate::scope::set_current_phase(crate::alloc::phase_index(stripped))
    });
    let token = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.push(OpenSpan { name, cat, start_us, args, prev_phase });
        t.stack.len()
    });
    SpanGuard { token }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.token == 0 {
            return;
        }
        let end = now_us();
        TRACE.with(|t| {
            let t = &mut *t.borrow_mut();
            // Close leaked inner spans (if any), then this span. After
            // this loop the stack is exactly as it was before we opened.
            while t.stack.len() >= self.token {
                let open = t.stack.pop().expect("stack length checked");
                if let Some(prev) = open.prev_phase {
                    // Unwinds in LIFO order even when inner guards
                    // leaked: each pop restores the tag its push saved.
                    crate::scope::set_current_phase(prev);
                }
                let depth = t.stack.len();
                if t.events.len() < EVENT_CAP {
                    t.events.push(SpanEvent {
                        name: open.name,
                        cat: open.cat,
                        start_us: open.start_us,
                        dur_us: end.saturating_sub(open.start_us),
                        depth,
                        tid: t.tid,
                        args: open.args,
                    });
                } else {
                    crate::metrics::counter("trace.events.dropped").incr();
                }
            }
        });
    }
}

/// Current position in this thread's event buffer. Pass to
/// [`drain_from`] to collect only the events recorded in between.
pub fn mark() -> usize {
    TRACE.with(|t| t.borrow().events.len())
}

/// Removes and returns this thread's events recorded since `mark`.
///
/// If an earlier drain already consumed past `mark` (e.g. nested
/// collection scopes), everything still buffered is returned.
pub fn drain_from(mark: usize) -> Vec<SpanEvent> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let at = mark.min(t.events.len());
        t.events.split_off(at)
    })
}

/// Number of spans currently open on this thread.
pub fn open_depth() -> usize {
    TRACE.with(|t| t.borrow().stack.len())
}

/// Appends events drained on another thread into this thread's buffer.
///
/// Worker threads in `adsafe-pool` drain their own events after their
/// task loop and hand them to the spawning thread, which absorbs them
/// so a single [`drain_from`] on the caller sees the whole run. Events
/// keep their original `tid`, so per-thread nesting invariants still
/// hold. The per-thread [`EVENT_CAP`] applies; overflow is counted in
/// `trace.events.dropped` like locally recorded events.
pub fn absorb(events: Vec<SpanEvent>) {
    if events.is_empty() {
        return;
    }
    TRACE.with(|t| {
        let t = &mut *t.borrow_mut();
        for ev in events {
            if t.events.len() < EVENT_CAP {
                t.events.push(ev);
            } else {
                crate::metrics::counter("trace.events.dropped").incr();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that depend on the global `ENABLED` flag.
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record_in_close_order() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        {
            let _a = span("a", "t");
            {
                let _b = span("b", "t");
            }
            let _c = span("c", "t");
        }
        let ev = drain_from(m);
        let names: Vec<&str> = ev.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["b", "c", "a"]);
        assert_eq!(ev[0].depth, 1);
        assert_eq!(ev[2].depth, 0);
        // Children are contained in the parent's interval.
        assert!(ev[0].start_us >= ev[2].start_us);
        assert!(ev[0].end_us() <= ev[2].end_us());
    }

    #[test]
    fn panic_unwinding_closes_inner_spans() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        let depth_before = open_depth();
        let r = std::panic::catch_unwind(|| {
            let _outer = span("outer", "t");
            let _inner = span("inner", "t");
            panic!("checker bug");
        });
        assert!(r.is_err());
        assert_eq!(open_depth(), depth_before, "unwinding left spans open");
        let ev = drain_from(m);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "inner");
        assert_eq!(ev[1].name, "outer");
    }

    #[test]
    fn leaked_inner_guard_is_repaired_by_outer_drop() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        {
            let _outer = span("outer", "t");
            let inner = span("leaked", "t");
            std::mem::forget(inner);
        }
        assert_eq!(open_depth(), 0);
        let ev = drain_from(m);
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().any(|e| e.name == "leaked"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = ENABLED_LOCK.lock().unwrap();
        set_enabled(false);
        let m = mark();
        {
            let _s = span("ghost", "t");
        }
        set_enabled(true);
        assert!(drain_from(m).is_empty());
    }

    #[test]
    fn absorbed_events_keep_their_tid_and_join_the_local_buffer() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        {
            let _local = span("local", "t");
        }
        let worker_events = std::thread::scope(|s| {
            s.spawn(|| {
                let wm = mark();
                {
                    let _w = span("worker", "t");
                }
                drain_from(wm)
            })
            .join()
            .unwrap()
        });
        let worker_tid = worker_events[0].tid;
        absorb(worker_events);
        let ev = drain_from(m);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "local");
        assert_eq!(ev[1].name, "worker");
        assert_eq!(ev[1].tid, worker_tid);
        assert_ne!(ev[0].tid, ev[1].tid);
    }

    #[test]
    fn phase_spans_drive_the_allocation_billing_tag() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        let outside = crate::alloc::current_phase();
        let parse_idx;
        let native_idx;
        {
            let _p = span("phase.test_span_parse", "phase");
            parse_idx = crate::alloc::current_phase();
            assert_eq!(parse_idx, crate::alloc::phase_index("test_span_parse"));
            assert_ne!(parse_idx, outside);
            {
                // Nested phases bill to the innermost.
                let _q = span("phase.test_span_parse.inner", "phase");
                native_idx = crate::alloc::current_phase();
                assert_ne!(native_idx, parse_idx);
                // Non-phase spans leave the tag alone.
                let _r = span("file.x", "parse");
                assert_eq!(crate::alloc::current_phase(), native_idx);
            }
            assert_eq!(crate::alloc::current_phase(), parse_idx, "inner close restores");
        }
        assert_eq!(crate::alloc::current_phase(), outside, "outer close restores");
        drain_from(m);
    }

    #[test]
    fn panic_unwinding_restores_the_billing_tag() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        let outside = crate::alloc::current_phase();
        let r = std::panic::catch_unwind(|| {
            let _p = span("phase.test_span_panic", "phase");
            let _inner = span("phase.test_span_panic.inner", "phase");
            panic!("checker bug");
        });
        assert!(r.is_err());
        assert_eq!(crate::alloc::current_phase(), outside, "unwinding left a stale tag");
        drain_from(m);
    }

    #[test]
    fn args_ride_on_the_event() {
        let _l = ENABLED_LOCK.lock().unwrap();
        let m = mark();
        {
            let _s = span_with("f", "t", vec![("path", "a.cc".to_string())]);
        }
        let ev = drain_from(m);
        assert_eq!(ev[0].args, vec![("path", "a.cc".to_string())]);
    }
}
