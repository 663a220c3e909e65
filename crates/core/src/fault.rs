//! Fault taxonomy, fault log, and the deterministic failpoint registry.
//!
//! An assessment run over an industrial code base must never abort
//! because one input file, one buggy rule, or one runaway analysis
//! phase misbehaves — ISO 26262's own freedom-from-interference
//! principle, applied to the assessor itself. Everything that goes
//! wrong during a run is captured as a [`Fault`]: which phase, which
//! path (file, check, module, or kernel), how bad it was, what caused
//! it, and what the pipeline did to keep going. The complete
//! [`FaultLog`] rides on the report so a degraded assessment is never
//! mistaken for a clean one.
//!
//! The [`failpoints`] registry is the deterministic fault-injection
//! side: tests arm named points with a panic or a delay, and pipeline
//! code calls [`failpoints::hit`] at those points. The registry is per
//! thread, so concurrently running tests cannot interfere; an
//! assessment run carries its caller's armed points onto its pool
//! workers.

use std::fmt;

/// Pipeline phase in which a fault occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultPhase {
    /// File ingestion (before any analysis).
    Ingest,
    /// Parsing a source file.
    Parse,
    /// Running a checker rule.
    Checks,
    /// Computing module metrics.
    Metrics,
    /// Emulated GPU execution.
    Gpu,
    /// Evidence assembly and compliance judgement.
    Assess,
}

impl FaultPhase {
    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::Ingest => "ingest",
            FaultPhase::Parse => "parse",
            FaultPhase::Checks => "checks",
            FaultPhase::Metrics => "metrics",
            FaultPhase::Gpu => "gpu",
            FaultPhase::Assess => "assess",
        }
    }
}

/// How much evidence the fault cost. Ordered: later variants are worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSeverity {
    /// No evidence lost; recorded for the audit trail.
    Info,
    /// A phase ran past its wall-clock budget *during* an item (the
    /// between-item deadline could not cut it short); all evidence is
    /// complete, but the run missed its timing contract.
    Timeout,
    /// Evidence recovered through a lower tier of the ladder.
    Degraded,
    /// Evidence from this item is gone, the rest of the run is intact.
    Lost,
    /// A whole phase fell back to defaults; treat the report as suspect.
    Critical,
}

impl FaultSeverity {
    /// Human-readable severity name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSeverity::Info => "info",
            FaultSeverity::Timeout => "timeout",
            FaultSeverity::Degraded => "degraded",
            FaultSeverity::Lost => "lost",
            FaultSeverity::Critical => "critical",
        }
    }
}

/// Root cause of a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// A component panicked; payload is the panic message.
    Panic(String),
    /// The parser completed only by skipping opaque regions.
    ParseResync {
        /// Number of opaque regions the parser resynchronised over.
        regions: usize,
    },
    /// Input bytes were not valid UTF-8 and were lossily replaced.
    NonUtf8 {
        /// Number of replacement characters introduced.
        replaced: usize,
    },
    /// A phase ran past its wall-clock deadline.
    DeadlineExceeded {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
    /// A phase finished past its budget without ever being cut short:
    /// the overrun happened inside a single slow item, where the
    /// between-item deadline check cannot intervene.
    DeadlineOverrun {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
        /// What the phase actually took, in milliseconds.
        actual_ms: u64,
    },
    /// An execution budget (steps, phases) ran out.
    BudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// A GPU thread never reached the barrier its block was waiting on.
    BarrierDeadlock {
        /// The phase index at which the deadlock was declared.
        phase: u64,
    },
    /// An on-disk incremental-cache entry was unreadable or failed
    /// validation; the file took the cold path (full re-analysis), so
    /// no evidence was lost.
    CacheCorrupt {
        /// Why the entry was rejected.
        detail: String,
    },
    /// A fault injected through the failpoint registry.
    Injected(String),
    /// A ledger line was torn or unparseable and was skipped; the run
    /// itself is unaffected (no evidence involved at all).
    LedgerTorn {
        /// Why the line was rejected.
        detail: String,
    },
    /// A rule-pack declaration failed to load (parse error, type
    /// error, or id collision) and was skipped; the remaining rules in
    /// the pack still run, and no native evidence is affected.
    RulePackInvalid {
        /// 1-based line in the pack file (0 when not line-anchored).
        line: u32,
        /// Why the declaration was rejected.
        detail: String,
    },
    /// The resident facts store crossed its byte budget and evicted
    /// least-recently-used entries. No evidence is lost — evicted files
    /// re-analyse from source (or promote back from disk) on their next
    /// use — so this never degrades a report; it is the audit trail of
    /// graceful degradation under memory pressure.
    StoreEvicted {
        /// Entries dropped by this eviction sweep.
        entries: usize,
        /// Serialised bytes released.
        bytes: u64,
    },
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Panic(msg) => write!(f, "panic: {msg}"),
            FaultCause::ParseResync { regions } => {
                write!(f, "parser resynchronised over {regions} opaque region(s)")
            }
            FaultCause::NonUtf8 { replaced } => {
                write!(f, "invalid UTF-8: {replaced} byte sequence(s) replaced")
            }
            FaultCause::DeadlineExceeded { budget_ms } => {
                write!(f, "phase deadline of {budget_ms} ms exceeded")
            }
            FaultCause::DeadlineOverrun { budget_ms, actual_ms } => {
                write!(f, "phase took {actual_ms} ms against a budget of {budget_ms} ms")
            }
            FaultCause::BudgetExhausted { budget } => {
                write!(f, "execution budget of {budget} exhausted")
            }
            FaultCause::BarrierDeadlock { phase } => {
                write!(f, "barrier deadlock detected at phase {phase}")
            }
            FaultCause::CacheCorrupt { detail } => {
                write!(f, "corrupt cache entry ({detail}); re-analysed from source")
            }
            FaultCause::Injected(name) => write!(f, "injected fault at `{name}`"),
            FaultCause::LedgerTorn { detail } => {
                write!(f, "torn ledger line skipped ({detail})")
            }
            FaultCause::RulePackInvalid { line, detail } => {
                if *line == 0 {
                    write!(f, "rule pack invalid: {detail}")
                } else {
                    write!(f, "rule pack invalid at line {line}: {detail}")
                }
            }
            FaultCause::StoreEvicted { entries, bytes } => {
                write!(f, "facts store evicted {entries} entr(ies) ({bytes} bytes) at its byte budget")
            }
        }
    }
}

/// What the pipeline did to contain the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// Used the parser's error-tolerant resync parse (ladder tier 2).
    ResyncParse,
    /// Fell back to token-only metric estimation (ladder tier 3).
    TokenMetrics,
    /// Skipped the item (file, check, kernel) and continued.
    SkippedItem,
    /// Substituted a conservative default for the phase's output.
    FallbackDefault,
    /// Nothing could be salvaged for this item.
    Dropped,
    /// Recorded for accounting only; no evidence was affected.
    Noted,
}

impl Recovery {
    /// Human-readable recovery name.
    pub fn name(self) -> &'static str {
        match self {
            Recovery::ResyncParse => "resync-parse",
            Recovery::TokenMetrics => "token-metrics",
            Recovery::SkippedItem => "skipped",
            Recovery::FallbackDefault => "fallback-default",
            Recovery::Dropped => "dropped",
            Recovery::Noted => "noted",
        }
    }
}

/// One contained failure: where, how bad, why, and what happened next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Pipeline phase.
    pub phase: FaultPhase,
    /// The affected item: file path, check id, module or kernel name.
    pub path: String,
    /// Evidence impact.
    pub severity: FaultSeverity,
    /// Root cause.
    pub cause: FaultCause,
    /// Containment action taken.
    pub recovery: Recovery,
    /// Correlation key: the ID of the run that contained this fault.
    /// Empty when the run has no ledger identity (e.g. `--no-ledger`).
    pub run_id: String,
}

impl Fault {
    /// A fault not yet stamped with a run ID; [`FaultLog::push`] stamps
    /// the log's.
    pub fn new(
        phase: FaultPhase,
        path: impl Into<String>,
        severity: FaultSeverity,
        cause: FaultCause,
        recovery: Recovery,
    ) -> Self {
        Fault { phase, path: path.into(), severity, cause, recovery, run_id: String::new() }
    }

    /// Renders the fault with its run-ID correlation key appended —
    /// the form the CLI fault summary prints. `Display` deliberately
    /// omits the run ID: it feeds the deterministic report, which must
    /// stay byte-identical across runs of the same corpus.
    pub fn correlated(&self) -> String {
        if self.run_id.is_empty() {
            self.to_string()
        } else {
            format!("{self} (run {})", self.run_id)
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} `{}`: {} → {}",
            self.severity.name(),
            self.phase.name(),
            self.path,
            self.cause,
            self.recovery.name()
        )
    }
}

/// Append-only record of every fault contained during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    faults: Vec<Fault>,
    run_id: String,
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the run ID stamped onto every fault pushed from now on
    /// (and retroactively onto faults already recorded without one).
    pub fn set_run_id(&mut self, run_id: &str) {
        self.run_id = run_id.to_string();
        for f in &mut self.faults {
            if f.run_id.is_empty() {
                f.run_id = self.run_id.clone();
            }
        }
    }

    /// The run ID faults are stamped with (empty if none was set).
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Records a fault (and counts it in the `faults.<phase>` metric).
    pub fn push(&mut self, mut fault: Fault) {
        adsafe_trace::counter(&format!("faults.{}", fault.phase.name())).incr();
        if fault.run_id.is_empty() {
            fault.run_id = self.run_id.clone();
        }
        self.faults.push(fault);
    }

    /// All faults, in the order they were contained.
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the run was fault-free.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates the faults.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }

    /// The worst severity seen, if any fault was recorded.
    pub fn worst(&self) -> Option<FaultSeverity> {
        self.faults.iter().map(|f| f.severity).max()
    }

    /// Fault counts per phase, ordered by phase.
    pub fn counts_by_phase(&self) -> Vec<(FaultPhase, usize)> {
        let mut counts: Vec<(FaultPhase, usize)> = Vec::new();
        for f in &self.faults {
            match counts.iter_mut().find(|(p, _)| *p == f.phase) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.phase, 1)),
            }
        }
        counts.sort_by_key(|(p, _)| *p);
        counts
    }

    /// Whether any fault cost evidence (severity ≥ degraded).
    pub fn degrades_report(&self) -> bool {
        self.faults.iter().any(|f| f.severity >= FaultSeverity::Degraded)
    }
}

impl<'a> IntoIterator for &'a FaultLog {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The cause recorded for a contained panic: an injected failpoint
/// panic keeps its identity in the fault log.
pub fn panic_cause(payload: &(dyn std::any::Any + Send)) -> FaultCause {
    let msg = panic_message(payload);
    if msg.starts_with("failpoint `") {
        FaultCause::Injected(msg)
    } else {
        FaultCause::Panic(msg)
    }
}

/// Deterministic fault injection: named points in pipeline code that
/// tests can arm with a panic or a delay.
///
/// The registry is **per thread**: arming a point affects only the
/// current thread, so `cargo test`'s parallel test threads cannot see
/// each other's injections. An assessment run takes the calling
/// thread's armed set once and enters it in every task it fans out, so
/// the points fire on pool workers exactly as they would on the
/// caller, and a `Panic` action disarms after its first hit anywhere in
/// the run.
pub mod failpoints {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, PoisonError};
    use std::time::Duration;

    /// What an armed failpoint does when hit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Action {
        /// Panic with the given message.
        Panic(String),
        /// Sleep for the given duration (for deadline tests).
        Delay(Duration),
    }

    /// One thread's armed set, enterable on any other thread.
    pub(crate) type Registry = Arc<Mutex<HashMap<String, Action>>>;

    thread_local! {
        static REGISTRY: RefCell<Registry> = RefCell::default();
    }

    fn with_registry<R>(f: impl FnOnce(&mut HashMap<String, Action>) -> R) -> R {
        let reg = REGISTRY.with(|r| Arc::clone(&r.borrow()));
        let mut map = reg.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut map)
    }

    /// Arms `name` with `action` on this thread.
    pub fn arm(name: &str, action: Action) {
        with_registry(|r| r.insert(name.to_string(), action));
    }

    /// Disarms `name` on this thread.
    pub fn clear(name: &str) {
        with_registry(|r| r.remove(name));
    }

    /// Disarms every failpoint on this thread.
    pub fn clear_all() {
        with_registry(HashMap::clear);
    }

    /// Number of armed failpoints on this thread.
    pub fn armed() -> usize {
        with_registry(|r| r.len())
    }

    /// Fires `name` if armed: panics or sleeps according to its action.
    /// A `Panic` action disarms itself first so recovery paths that
    /// retry the same point do not loop forever.
    pub fn hit(name: &str) {
        let action = with_registry(|reg| match reg.get(name).cloned() {
            Some(Action::Panic(msg)) => {
                reg.remove(name);
                Some(Action::Panic(msg))
            }
            other => other,
        });
        match action {
            Some(Action::Panic(msg)) => panic!("failpoint `{name}`: {msg}"),
            Some(Action::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
    }

    /// The calling thread's armed set, shared rather than copied, or
    /// `None` when nothing is armed.
    pub(crate) fn shared() -> Option<Registry> {
        let armed = with_registry(|r| !r.is_empty());
        armed.then(|| REGISTRY.with(|r| Arc::clone(&r.borrow())))
    }

    /// Makes `set` the current thread's registry until the guard drops.
    pub(crate) fn enter(set: &Registry) -> Entered {
        Entered(REGISTRY.with(|r| r.replace(Arc::clone(set))))
    }

    /// Restores the thread's previous registry on drop.
    pub(crate) struct Entered(Registry);

    impl Drop for Entered {
        fn drop(&mut self) {
            REGISTRY.with(|r| std::mem::swap(&mut *r.borrow_mut(), &mut self.0));
        }
    }

    /// RAII guard: arms on construction, disarms on drop (even if the
    /// test body panics).
    #[derive(Debug)]
    pub struct Armed {
        name: String,
    }

    impl Armed {
        /// Arms `name` with `action`, returning the guard.
        pub fn new(name: &str, action: Action) -> Self {
            arm(name, action);
            Armed { name: name.to_string() }
        }
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            clear(&self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn fault(phase: FaultPhase, sev: FaultSeverity) -> Fault {
        Fault::new(phase, "x", sev, FaultCause::Panic("boom".into()), Recovery::SkippedItem)
    }

    #[test]
    fn panic_cause_keeps_failpoint_identity() {
        let injected: Box<dyn std::any::Any + Send> = Box::new("failpoint `x` hit".to_string());
        assert!(matches!(panic_cause(&*injected), FaultCause::Injected(m) if m == "failpoint `x` hit"));
        let bug: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        assert!(matches!(panic_cause(&*bug), FaultCause::Panic(m) if m == "index out of bounds"));
    }

    #[test]
    fn severity_is_ordered() {
        assert!(FaultSeverity::Info < FaultSeverity::Degraded);
        assert!(FaultSeverity::Degraded < FaultSeverity::Lost);
        assert!(FaultSeverity::Lost < FaultSeverity::Critical);
    }

    #[test]
    fn log_aggregates() {
        let mut log = FaultLog::new();
        assert!(log.is_empty());
        assert_eq!(log.worst(), None);
        log.push(fault(FaultPhase::Parse, FaultSeverity::Degraded));
        log.push(fault(FaultPhase::Parse, FaultSeverity::Lost));
        log.push(fault(FaultPhase::Checks, FaultSeverity::Info));
        assert_eq!(log.len(), 3);
        assert_eq!(log.worst(), Some(FaultSeverity::Lost));
        assert_eq!(
            log.counts_by_phase(),
            vec![(FaultPhase::Parse, 2), (FaultPhase::Checks, 1)]
        );
        assert!(log.degrades_report());
    }

    #[test]
    fn info_only_log_does_not_degrade() {
        let mut log = FaultLog::new();
        log.push(fault(FaultPhase::Ingest, FaultSeverity::Info));
        assert!(!log.degrades_report());
    }

    #[test]
    fn fault_renders_all_fields() {
        let f = fault(FaultPhase::Gpu, FaultSeverity::Critical);
        let s = f.to_string();
        assert!(s.contains("critical"), "{s}");
        assert!(s.contains("gpu"), "{s}");
        assert!(s.contains("boom"), "{s}");
        assert!(s.contains("skipped"), "{s}");
    }

    #[test]
    fn run_id_is_stamped_and_rendered() {
        let mut log = FaultLog::new();
        log.push(fault(FaultPhase::Parse, FaultSeverity::Info));
        log.set_run_id("r000004-1a2b3c4d");
        log.push(fault(FaultPhase::Checks, FaultSeverity::Info));
        // Retroactive stamping covers faults recorded before the ID
        // was known, and new pushes inherit it.
        assert!(log.iter().all(|f| f.run_id == "r000004-1a2b3c4d"));
        let rendered = log.as_slice()[1].correlated();
        assert!(rendered.contains("(run r000004-1a2b3c4d)"), "{rendered}");
        // Display stays run-free (it feeds the deterministic report);
        // correlated() degrades to Display when no ID was set.
        assert!(!log.as_slice()[1].to_string().contains("(run"));
        let bare = fault(FaultPhase::Parse, FaultSeverity::Info);
        assert_eq!(bare.correlated(), bare.to_string());
    }

    #[test]
    fn failpoint_panic_fires_once() {
        failpoints::arm("test::once", failpoints::Action::Panic("injected".into()));
        let r = catch_unwind(AssertUnwindSafe(|| failpoints::hit("test::once")));
        let msg = panic_message(&*r.unwrap_err());
        assert!(msg.contains("injected"), "{msg}");
        // Self-disarmed: second hit is a no-op.
        failpoints::hit("test::once");
    }

    #[test]
    fn failpoint_delay_and_guard() {
        {
            let _g = failpoints::Armed::new(
                "test::slow",
                failpoints::Action::Delay(Duration::from_millis(5)),
            );
            let t0 = std::time::Instant::now();
            failpoints::hit("test::slow");
            assert!(t0.elapsed() >= Duration::from_millis(5));
        }
        // Guard dropped → disarmed.
        let t0 = std::time::Instant::now();
        failpoints::hit("test::slow");
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn a_shared_set_fires_on_other_threads_and_disarms_once() {
        assert!(failpoints::shared().is_none(), "nothing armed on a fresh thread");
        let _g =
            failpoints::Armed::new("test::shared", failpoints::Action::Panic("on a worker".into()));
        let set = failpoints::shared().expect("armed set");
        let fired = std::thread::scope(|s| {
            let worker = || {
                let _in = failpoints::enter(&set);
                catch_unwind(AssertUnwindSafe(|| failpoints::hit("test::shared"))).is_err()
            };
            [s.spawn(worker).join().unwrap(), s.spawn(worker).join().unwrap()]
        });
        assert_eq!(fired, [true, false], "a panic action fires once across threads");
        // The worker's hit disarmed the caller's registry too.
        assert_eq!(failpoints::armed(), 0);
    }

    #[test]
    fn panic_message_downcasts() {
        let r = catch_unwind(|| panic!("static str"));
        assert_eq!(panic_message(&*r.unwrap_err()), "static str");
        let r = catch_unwind(|| panic!("formatted {}", 42));
        assert_eq!(panic_message(&*r.unwrap_err()), "formatted 42");
    }
}
