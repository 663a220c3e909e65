//! Spans recorded from outside the program: the traced pass wraps each
//! call into a crate's public function in a span kept in memory, and
//! writes the lot out at the end as Chrome trace JSON.

use crate::stats::{self_times, Span};
use adsafe::trace::alloc;
use adsafe::trace::chrome::to_chrome_json;
use adsafe::trace::SpanEvent;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// In-memory span recorder for one serial pass.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Allocated bytes inside each span (inclusive), parallel to `spans`.
    bytes: RefCell<Vec<u64>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: usize,
    bytes_at_open: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let allocated = alloc::total_allocated().saturating_sub(self.bytes_at_open);
        self.tracer.spans.borrow_mut()[self.idx].end = end;
        self.tracer.bytes.borrow_mut()[self.idx] = allocated;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.idx), "spans close in LIFO order");
    }
}

/// Per-name totals of a finished pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of inclusive durations, ns.
    pub total_ns: u64,
    /// Sum of self-allocated bytes.
    pub self_bytes: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            bytes: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name: name.into(),
            parent,
            start: 0,
            end: 0,
        });
        self.bytes.borrow_mut().push(0);
        self.open.borrow_mut().push(idx);
        let bytes_at_open = alloc::total_allocated();
        spans[idx].start = self.now();
        Guard {
            tracer: self,
            idx,
            bytes_at_open,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Wall time of the whole pass: the first span's start to the last
    /// end, ns.
    pub fn wall_ns(&self) -> u64 {
        let spans = self.spans.borrow();
        let start = spans.iter().map(|s| s.start).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end).max().unwrap_or(0);
        end - start
    }

    /// Self time and self bytes aggregated by span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let spans = self.spans.borrow();
        let bytes = self.bytes.borrow();
        let selfs = self_times(&spans);
        let mut child_bytes = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_bytes[p] += bytes[i];
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name.clone()).or_default();
            t.self_ns += selfs[i];
            t.total_ns += s.end - s.start;
            t.self_bytes += bytes[i].saturating_sub(child_bytes[i]);
        }
        out
    }

    /// The pass as a Chrome trace-event document (µs resolution).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut depth = vec![0usize; spans.len()];
        let events: Vec<SpanEvent> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
                SpanEvent {
                    name: s.name.clone(),
                    cat: s.name.split('.').next().map_or("pass", layer_cat),
                    start_us: s.start / 1000,
                    dur_us: (s.end - s.start) / 1000,
                    depth: depth[i],
                    tid: 1,
                    args: Vec::new(),
                }
            })
            .collect();
        to_chrome_json(&events)
    }
}

/// Layers a span name may start with; anything else is harness glue.
const LAYERS: [&str; 11] = [
    "lang", "facts", "checkers", "query", "metrics", "iso26262", "render", "cache", "store",
    "serve", "ledger",
];

/// Chrome `cat` for a span name's first segment (the layer).
fn layer_cat(prefix: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|l| **l == prefix)
        .copied()
        .unwrap_or("pass")
}
