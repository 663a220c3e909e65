//! # adsafe-trace — self-observability for the assessment toolchain
//!
//! The paper's assessment is a measurement exercise (Lizard metrics,
//! RapiCover coverage, cuda4cpu timing); this crate lets the toolchain
//! measure *itself*. Zero dependencies, std only.
//!
//! Five layers:
//!
//! * **Spans** ([`span`], [`span_with`]) — hierarchical wall-clock spans
//!   with RAII guards over thread-local span stacks. Closed spans are
//!   buffered per thread; [`mark`]/[`drain_from`] scope collection to
//!   one run. Exportable as Chrome trace-event JSON ([`chrome`]) —
//!   loadable in `chrome://tracing` / Perfetto — or as an in-terminal
//!   flame summary ([`flame`]).
//! * **Metrics** ([`counter`], [`histogram`]) — a global registry of
//!   named monotonic counters (lock-free increments) and log₂-scale
//!   histograms. Names follow the `phase.component.metric` convention
//!   (see DESIGN.md §7).
//! * **Run scopes** ([`RunScope`]) — a run's own counter increments
//!   and allocation bills, attributed by the thread's context (which
//!   pool workers inherit) rather than by diffing the global registry,
//!   so concurrent runs in one process never see each other's counts.
//! * **Summaries** ([`TraceSummary`]) — per-phase wall time, slowest
//!   files and rules, and the run scope's counters distilled from one
//!   run's events. Performance baselines live outside the crate, in
//!   the workspace's `perfbench` harness.
//! * **Allocation profiling** ([`alloc`]) — an opt-in
//!   `#[global_allocator]` wrapper ([`CountingAlloc`]) billing every
//!   heap allocation to the phase span active on the allocating
//!   thread: totals, live/peak gauges, a size-class histogram, and
//!   per-phase tables for `--mem-profile`, `/metrics`, and `perfbench`
//!   (see DESIGN.md §14).
//!
//! ```
//! let m = adsafe_trace::mark();
//! {
//!     let _outer = adsafe_trace::span("phase.parse", "phase");
//!     let _inner = adsafe_trace::span("parse.file", "parse");
//! }
//! let events = adsafe_trace::drain_from(m);
//! assert_eq!(events.len(), 2);
//! // Inner spans close (and are recorded) first.
//! assert_eq!(events[0].name, "parse.file");
//! assert_eq!(events[1].depth, 0);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod scope;
pub mod span;
pub mod summary;

pub use alloc::{CountingAlloc, MemStats, PhaseMem};
pub use metrics::{
    counter, counter_snapshot, counters_with_prefix, gauge, gauge_snapshot, histogram,
    histogram_snapshot, labeled, registry_snapshot, render_prometheus, render_text, Counter, Gauge,
    Histogram, HistogramSnapshot, RegistrySnapshot,
};
pub use recorder::{FlightRecorder, PhaseTiming, RequestRecord};
pub use scope::{Context, RunScope, ScopeGuard};
pub use span::{
    absorb, drain_from, enabled, mark, now_us, set_enabled, span, span_with, SpanEvent, SpanGuard,
};
pub use summary::{PhaseTime, TraceSummary};
