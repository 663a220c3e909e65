//! The assessment pipeline: source files in, compliance report out.
//!
//! This is the paper's methodology as an API: parse the whole code base,
//! run metrics and checkers, assemble [`Evidence`], judge it against ISO
//! 26262 Part 6 at a target ASIL, and synthesise the observations.
//!
//! The pipeline is *fault-isolated*: every file, every checker rule, and
//! every phase runs under panic containment, and anything that goes
//! wrong is recorded in the report's [`FaultLog`] instead of aborting
//! the run. Files that cannot be parsed cleanly descend a three-tier
//! degradation ladder:
//!
//! 1. **Full parse** — the normal path; no fault recorded.
//! 2. **Resync parse** — the error-tolerant parser skipped opaque
//!    regions (`recovery_count > 0`); the file's evidence is complete
//!    but approximate, recorded as a `ParseResync` fault.
//! 3. **Token-only metrics** — the parser panicked; NLOC and a
//!    cyclomatic estimate are recovered from the token stream alone and
//!    absorbed into the owning module's metrics.
//!
//! A report produced through any tier below 1 carries
//! [`AssessmentReport::degraded`]` == true`.
//!
//! ## Parallelism and incrementality
//!
//! The parse and metrics phases parallelise per file / per module, and
//! the checks phase shards per (rule × file), on the work-stealing
//! [`Pool`] ([`AssessmentOptions::jobs`]; the default of 1 runs
//! everything inline on the caller thread). With
//! [`AssessmentOptions::cache_dir`] set, per-file
//! [`FileFacts`](crate::facts::FileFacts) records are reused across
//! runs keyed by content hash, skipping parse, file-local checks, and
//! metrics extraction for unchanged files. Reports are byte-identical
//! across worker counts and cache states by construction: results merge
//! in stable file order before the canonical diagnostic sort, and every
//! cross-file quantity is recomputed from facts on every run (see
//! [`crate::facts`]).

use crate::cache::{content_hash, CacheLookup, FactsCache, FactsStore};
use crate::facts::{self, FactsRecord, FileFacts};
use crate::store::MemoryFactsStore;
use crate::fault::{
    failpoints, panic_cause, Fault, FaultCause, FaultLog, FaultPhase, FaultSeverity, Recovery,
};
use adsafe_checkers::{
    default_checks, run_one_check, Check, CheckContext, CheckScope, Diagnostic, FileEntry,
};
use adsafe_iso26262::{
    assess, observations, Asil, ComplianceReport, Evidence, GpuEvidence, Observation,
};
use adsafe_lang::{CallGraph, FileId, ParsedFile, SourceMap};
use adsafe_metrics::{module_from_estimates, token_estimate, ModuleMetrics, TokenEstimate};
use adsafe_pool::Pool;
use adsafe_query::CompiledRule;
use adsafe_trace::TraceSummary;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Wall-clock budgets for the analysis phases.
///
/// A phase that overruns its deadline is cut short between items; the
/// items not reached fall down the degradation ladder (parse, metrics)
/// or are skipped (checks), each recorded as a fault. `None` disables
/// the deadline — the default, since assessment is usually batch work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Deadline applied to each phase (parse, checks, metrics)
    /// independently.
    pub phase_deadline: Option<Duration>,
}

/// One phase's deadline, shareable across workers: a single phase-start
/// [`Instant`] (so every worker measures from the same origin) plus an
/// atomic first-tripper flag, so the `DeadlineExceeded` fault is
/// recorded exactly once per phase no matter how many workers observe
/// the overrun concurrently.
#[derive(Debug)]
struct PhaseDeadline {
    start: Instant,
    limit: Option<Duration>,
    tripped: AtomicBool,
}

impl PhaseDeadline {
    fn new(budgets: &Budgets) -> Self {
        PhaseDeadline {
            start: Instant::now(),
            limit: budgets.phase_deadline,
            tripped: AtomicBool::new(false),
        }
    }

    fn exceeded(&self) -> bool {
        self.limit.is_some_and(|d| self.start.elapsed() > d)
    }

    /// The cause recorded for an item the deadline cut short.
    fn cause(&self) -> FaultCause {
        FaultCause::DeadlineExceeded { budget_ms: self.limit.map_or(0, |d| d.as_millis() as u64) }
    }

    /// True for exactly one caller: the one that gets to record the
    /// phase's `DeadlineExceeded` fault.
    fn trip_once(&self) -> bool {
        self.exceeded()
            && self
                .tripped
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }
}

/// Inputs the analyser cannot derive from source (supplied by the
/// integrator, as in a real assessment).
#[derive(Debug, Clone)]
pub struct AssessmentOptions {
    /// Target ASIL (the paper uses ASIL-D for the whole AD pipeline).
    pub asil: Asil,
    /// Whether the deployment defines scheduling properties.
    pub has_scheduling_policy: bool,
    /// Structural coverage results to fold in, if measured.
    pub coverage: Option<adsafe_iso26262::CoverageEvidence>,
    /// Wall-clock budgets for the analysis phases.
    pub budgets: Budgets,
    /// Worker threads for the parse/checks/metrics phases. `1` (the
    /// default) runs everything inline on the caller thread — exactly
    /// the serial pipeline; `0` means one worker per available core.
    pub jobs: usize,
    /// Directory for the incremental facts cache. `None` (the default)
    /// disables caching. Ignored when [`store`](Self::store) is set.
    pub cache_dir: Option<PathBuf>,
    /// A resident in-memory facts store shared across runs (the
    /// `adsafe serve` daemon's warm state). Takes precedence over
    /// [`cache_dir`](Self::cache_dir); the store decides its own disk
    /// backing and write-back policy.
    pub store: Option<std::sync::Arc<MemoryFactsStore>>,
    /// Ledger run ID for this assessment, threaded into the root span,
    /// every fault record, and the report. Empty (the default) means
    /// the run has no ledger identity; nothing references it.
    pub run_id: String,
    /// Query rules to evaluate alongside the native set. `None` (the
    /// default) skips the query pass entirely. Query diagnostics join
    /// the report but never the facts cache, and never feed compliance
    /// evidence (which counts native ids only).
    pub rules: Option<std::sync::Arc<adsafe_query::RulePack>>,
}

impl Default for AssessmentOptions {
    fn default() -> Self {
        AssessmentOptions {
            asil: Asil::D,
            has_scheduling_policy: false,
            coverage: None,
            budgets: Budgets::default(),
            jobs: 1,
            cache_dir: None,
            store: None,
            run_id: String::new(),
            rules: None,
        }
    }
}

/// The full output of one assessment run.
#[derive(Debug)]
pub struct AssessmentReport {
    /// Assembled quantitative evidence.
    pub evidence: Evidence,
    /// Per-topic verdicts for the three Part-6 tables.
    pub compliance: ComplianceReport,
    /// The fourteen synthesised observations.
    pub observations: Vec<Observation>,
    /// Per-module metrics (Figure 3's data).
    pub modules: Vec<ModuleMetrics>,
    /// Every diagnostic, sorted by check then position.
    pub diagnostics: Vec<Diagnostic>,
    /// Every fault contained during the run.
    pub faults: FaultLog,
    /// Whether any fault cost evidence: the report is still valid but
    /// rests on partially estimated or incomplete measurements.
    pub degraded: bool,
    /// Self-observability: per-phase wall time, slowest files and
    /// rules, the run's own counters, and its raw span events.
    pub trace: TraceSummary,
    /// The ledger run ID this report was produced under (empty when
    /// the run was not recorded).
    pub run_id: String,
}

impl AssessmentReport {
    /// Diagnostics of one check.
    pub fn diagnostics_for(&self, check_id: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.check_id == check_id).collect()
    }
}

/// One source file queued for assessment.
#[derive(Debug, Clone)]
struct RawFile {
    module: String,
    path: String,
    text: String,
}

/// Where one file landed on the degradation ladder: the result of one
/// (possibly worker-side) parse task, merged in file order.
enum Parsed<'a> {
    /// Parsed this run, or served from the facts cache.
    Loaded(LoadedFile<'a>),
    /// Tier 3: token-only estimate.
    Estimated(TokenEstimate),
    /// Tier 4: nothing recoverable.
    Dropped,
}

/// A file that survived parsing (fresh or cached) in pipeline position.
struct LoadedFile<'a> {
    raw: &'a RawFile,
    id: FileId,
    facts: FileFacts,
    parsed: Option<Box<ParsedFile>>, // `Some` iff fresh
    hash: u64,
    cache_ok: bool,
}

/// The assessment driver. Add files, then [`Assessment::run`].
#[derive(Debug, Default)]
pub struct Assessment {
    files: Vec<RawFile>,
    ingest_faults: Vec<Fault>,
    options: AssessmentOptions,
}

impl Assessment {
    /// Creates an empty assessment with default options (ASIL-D).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the options.
    pub fn with_options(mut self, options: AssessmentOptions) -> Self {
        self.options = options;
        self
    }

    /// Adds one source file under a module.
    pub fn add_file(&mut self, module: &str, path: &str, text: &str) -> &mut Self {
        self.files.push(RawFile {
            module: module.to_string(),
            path: path.to_string(),
            text: text.to_string(),
        });
        self
    }

    /// Adds one source file from raw bytes. Invalid UTF-8 is replaced
    /// lossily and recorded as an ingest fault — the file still flows
    /// through the full ladder rather than being rejected.
    pub fn add_file_bytes(&mut self, module: &str, path: &str, bytes: &[u8]) -> &mut Self {
        let text = String::from_utf8_lossy(bytes);
        if let std::borrow::Cow::Owned(_) = text {
            let replaced = text.chars().filter(|&c| c == '\u{fffd}').count();
            self.ingest_faults.push(Fault::new(
                FaultPhase::Ingest,
                path,
                FaultSeverity::Degraded,
                FaultCause::NonUtf8 { replaced },
                Recovery::ResyncParse,
            ));
        }
        let owned = text.into_owned();
        self.add_file(module, path, &owned)
    }

    /// Records a fault observed before the pipeline ran (e.g. a torn
    /// ledger line noticed while reserving the run ID). The fault rides
    /// on the report exactly like an ingest fault.
    pub fn add_fault(&mut self, fault: Fault) -> &mut Self {
        self.ingest_faults.push(fault);
        self
    }

    /// Runs metrics, checkers, and the compliance engine with per-item
    /// panic containment. Never panics on any input; every contained
    /// failure is in the returned report's `faults`.
    ///
    /// The whole run executes under an `assessment.run` trace span with
    /// one `phase.*` span per pipeline phase and one `parse.file` span
    /// per input; the drained events become the report's
    /// [`AssessmentReport::trace`] summary. Worker-side spans are
    /// absorbed into the caller's buffer when `jobs > 1`. Counters and
    /// allocation bills come from the run's own [`RunScope`], which pool
    /// workers enter too, so concurrent runs never see each other's.
    ///
    /// [`RunScope`]: adsafe_trace::RunScope
    pub fn run(&self) -> AssessmentReport {
        let scope = adsafe_trace::RunScope::new();
        let _in_scope = scope.enter();
        let trace_mark = adsafe_trace::mark();
        let run_id = &self.options.run_id;
        let args = if run_id.is_empty() { Vec::new() } else { vec![("run_id", run_id.clone())] };
        let run_span = adsafe_trace::span_with("assessment.run", "run", args);
        // Facts reuse: a shared resident store when the caller provides
        // one (the serve daemon), else a per-run disk cache.
        let disk_cache = match (&self.options.store, &self.options.cache_dir) {
            (None, Some(dir)) => Some(FactsCache::open(dir)),
            _ => None,
        };
        let mut run = Run::new(self, disk_cache.as_ref());

        let (loaded, estimates) = run.parse();
        // Facts records in stable file order — the single source for
        // every cross-file assembly below, fresh and cached alike.
        let records: Vec<FactsRecord<'_>> =
            loaded.iter().map(|l| (l.id, l.raw.module.as_str(), &l.facts)).collect();
        let (diagnostics, graph) = run.checks(&loaded, &records);
        let modules = run.metrics(&loaded, &estimates);
        let (evidence, compliance, observations) =
            run.judge(&records, &graph, &modules, &diagnostics);

        drop(run_span);
        let events = adsafe_trace::drain_from(trace_mark);
        let mut trace = TraceSummary::from_events(events, scope.counters());
        // Empty unless a `CountingAlloc` is installed with profiling on;
        // the phase spans drove the billing phase.
        trace.phase_mem = scope.phase_mem();

        let degraded = run.log.degrades_report();
        AssessmentReport {
            evidence,
            compliance,
            observations,
            modules,
            diagnostics,
            faults: run.log,
            degraded,
            trace,
            run_id: self.options.run_id.clone(),
        }
    }

    fn assemble_evidence(
        &self,
        records: &[FactsRecord<'_>],
        graph: &CallGraph,
        modules: &[ModuleMetrics],
        unit: &adsafe_checkers::UnitDesignStats,
        diagnostics: &[Diagnostic],
    ) -> Evidence {
        let count = |id: &str| diagnostics.iter().filter(|d| d.check_id == id).count();
        let misra_ids = [
            "misra-15.1-goto",
            "misra-15.5-multi-exit",
            "misra-17.2-recursion",
            "misra-21.3-dynamic-memory",
            "misra-12.3-comma",
            "misra-19.2-union",
            "misra-16.4-switch-default",
            "misra-2.1-unreachable",
            "misra-17.1-variadic",
            "misra-7.1-octal",
            "misra-13.5-side-effect",
            "misra-decl-one-per-stmt",
        ];
        let misra_violations: usize = misra_ids.iter().map(|id| count(id)).sum();
        let style_findings = count("style-line")
            + count("style-indent")
            + count("style-brace")
            + count("style-include-guard");
        let naming_findings =
            count("naming-type") + count("naming-variable") + count("naming-macro");

        // GPU evidence from the per-function facts.
        let mut gpu = GpuEvidence {
            language_subset_available: false,
            coverage_tool_available: false,
            ..GpuEvidence::default()
        };
        for (_, _, facts) in records {
            for f in &facts.functions {
                if f.is_kernel {
                    gpu.kernel_count += 1;
                    gpu.kernel_pointer_params += f.ptr_params;
                }
                gpu.device_alloc_sites += f.alloc_calls;
            }
        }
        gpu.closed_source_calls = count("cuda-closed-source-lib");

        // Architecture metrics.
        let mean_cohesion = if modules.is_empty() {
            1.0
        } else {
            modules.iter().map(|m| m.cohesion).sum::<f64>() / modules.len() as f64
        };
        let module_of: HashMap<String, String> = records
            .iter()
            .flat_map(|(_, module, facts)| {
                facts
                    .functions
                    .iter()
                    .map(move |f| (f.metrics.qualified_name.clone(), module.to_string()))
            })
            .collect();
        let coupling_edges: usize =
            adsafe_metrics::coupling(graph, &module_of).values().sum();
        let total_functions: usize = modules.iter().map(|m| m.function_count()).sum();
        let mean_interface_params = if modules.is_empty() {
            0.0
        } else {
            modules.iter().map(|m| m.mean_params * m.function_count() as f64).sum::<f64>()
                / total_functions.max(1) as f64
        };

        Evidence {
            total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
            total_functions,
            functions_over_cc10: modules.iter().map(|m| m.functions_over(10)).sum(),
            functions_over_cc20: modules.iter().map(|m| m.functions_over(20)).sum(),
            functions_over_cc50: modules.iter().map(|m| m.functions_over(50)).sum(),
            module_locs: modules.iter().map(|m| (m.name.clone(), m.loc.nloc)).collect(),
            misra_violations,
            explicit_casts: count("typing-explicit-cast"),
            implicit_conversions: unit.implicit_conversions,
            validation_ratio: facts::validation_ratio_from_facts(records),
            unchecked_calls: count("defensive-unchecked-return"),
            global_definitions: unit.global_definitions,
            style_findings,
            naming_findings,
            mean_cohesion,
            coupling_edges,
            mean_interface_params,
            hierarchical_structure: true,
            has_scheduling_policy: self.options.has_scheduling_policy,
            uses_interrupts: false,
            multi_exit_pct: unit.multi_exit_pct(),
            dynamic_alloc_sites: unit.dynamic_alloc_sites,
            maybe_uninit_reads: unit.maybe_uninit_reads,
            shadowed_declarations: unit.shadowed_declarations,
            pointer_uses: unit.pointer_uses,
            opaque_regions: unit.opaque_regions,
            global_access_functions: count("design-global-use"),
            goto_count: unit.goto_count,
            recursive_functions: unit.recursive_functions,
            gpu,
            coverage: self.options.coverage,
        }
    }
}

/// One run's shared state, and the two helpers the parse, checks and
/// metrics phases go through: [`Run::phase`] (span, deadline, overrun
/// note) and [`Run::fan_out`] (pool, failpoints, panic containment,
/// in-order merge).
struct Run<'a> {
    a: &'a Assessment,
    pool: Pool,
    log: FaultLog,
    cache: Option<&'a dyn FactsStore>,
    sm: SourceMap,
    /// The caller's armed failpoints, entered in every fanned-out task.
    failpoints: Option<failpoints::Registry>,
}

impl<'a> Run<'a> {
    fn new(a: &'a Assessment, disk_cache: Option<&'a FactsCache>) -> Self {
        let mut log = FaultLog::new();
        log.set_run_id(&a.options.run_id);
        for f in &a.ingest_faults {
            log.push(f.clone());
        }
        let pool = Pool::new(a.options.jobs);
        adsafe_trace::counter("pool.workers").add(pool.workers() as u64);
        let cache: Option<&dyn FactsStore> = match &a.options.store {
            Some(s) => Some(s.as_ref()),
            None => disk_cache.map(|c| c as &dyn FactsStore),
        };
        // A cache that could not be brought up (unwritable directory,
        // clobbered meta.json, …) is an accelerator loss, not an
        // evidence loss: note it and fall through to cold analysis.
        if let Some(detail) = cache.and_then(|c| c.disabled_detail()) {
            adsafe_trace::counter("cache.disabled").incr();
            let path = a.options.cache_dir.as_deref();
            log.push(Fault::new(
                FaultPhase::Ingest,
                path.map_or_else(|| "facts-store".to_string(), |d| d.display().to_string()),
                FaultSeverity::Info,
                FaultCause::CacheCorrupt { detail },
                Recovery::Noted,
            ));
        }
        Run { a, pool, log, cache, sm: SourceMap::new(), failpoints: failpoints::shared() }
    }

    /// Runs `body` as one budgeted phase under a `phase.<name>` span.
    ///
    /// Deadlines are only consulted *between* items, so a slow item can
    /// carry a phase well past its deadline without any record of the
    /// magnitude. After `body`, an overrun is noted as a
    /// `{phase}.budget.overrun_ms` counter and a `Timeout`-severity
    /// fault comparing actual against budgeted milliseconds. `Timeout`
    /// sits below `Degraded`, so the note alone does not mark the
    /// report degraded. Workers only ever record the `DeadlineExceeded`
    /// item fault (at most once, via the shared [`PhaseDeadline`]).
    fn phase<R>(
        &mut self,
        phase: FaultPhase,
        body: impl FnOnce(&mut Self, &PhaseDeadline) -> R,
    ) -> R {
        let _span = adsafe_trace::span(format!("phase.{}", phase.name()), "phase");
        let deadline = PhaseDeadline::new(&self.a.options.budgets);
        let out = body(self, &deadline);
        let elapsed = deadline.start.elapsed();
        if let Some(budget) = deadline.limit.filter(|&b| elapsed > b) {
            let budget_ms = budget.as_millis() as u64;
            let actual_ms = elapsed.as_millis() as u64;
            adsafe_trace::counter(&format!("{}.budget.overrun_ms", phase.name()))
                .add(actual_ms.saturating_sub(budget_ms));
            self.log.push(Fault::new(
                phase,
                format!("{}-phase-budget", phase.name()),
                FaultSeverity::Timeout,
                FaultCause::DeadlineOverrun { budget_ms, actual_ms },
                Recovery::Noted,
            ));
        }
        out
    }

    /// Runs `task` once per item on the pool, with the run's failpoints
    /// armed on whichever thread picks it up, then merges the results in
    /// input order. A task that fails — by returning `Err` or by
    /// panicking — is recorded as exactly one fault, `fault(item,
    /// cause)`, and merged as `None`.
    fn fan_out<T: Sync, R: Send>(
        &mut self,
        items: Vec<T>,
        task: impl Fn(&Self, &T) -> Result<R, FaultCause> + Sync,
        fault: impl Fn(&T, FaultCause) -> Fault,
        mut merge: impl FnMut(&mut Self, &T, Option<R>),
    ) {
        let run = &*self;
        let results = run.pool.map((0..items.len()).collect(), |_, i| {
            let _armed = run.failpoints.as_ref().map(failpoints::enter);
            task(run, &items[i])
        });
        for (item, result) in items.iter().zip(results) {
            match result.unwrap_or_else(|payload| Err(panic_cause(&*payload))) {
                Ok(out) => merge(self, item, Some(out)),
                Err(cause) => {
                    self.log.push(fault(item, cause));
                    merge(self, item, None);
                }
            }
        }
    }

    /// Phase 1: parse, descending the ladder per file. File ids are
    /// assigned serially (so they are identical run-to-run and across
    /// worker counts); the per-file work fans out.
    fn parse(&mut self) -> (Vec<LoadedFile<'a>>, Vec<(String, TokenEstimate)>) {
        let files = &self.a.files;
        self.phase(FaultPhase::Parse, |run, deadline| {
            let ids: Vec<FileId> =
                files.iter().map(|rf| run.sm.add_file(&rf.path, &rf.text)).collect();
            let mut loaded = Vec::new();
            let mut estimates = Vec::new();
            run.fan_out(
                (0..files.len()).collect(),
                |run, &i| Ok(run.parse_one(ids[i], &files[i], deadline)),
                |&i, cause| {
                    Fault::new(
                        FaultPhase::Parse,
                        &files[i].path,
                        FaultSeverity::Lost,
                        cause,
                        Recovery::Dropped,
                    )
                },
                |run, &i, outcome| {
                    // `None`: the task panicked outside its own
                    // containment — an unrecoverable file.
                    let Some((parsed, faults)) = outcome else {
                        return adsafe_trace::counter("parse.dropped.files").incr();
                    };
                    for f in faults {
                        run.log.push(f);
                    }
                    match parsed {
                        Parsed::Loaded(l) => loaded.push(l),
                        Parsed::Estimated(est) => estimates.push((files[i].module.clone(), est)),
                        Parsed::Dropped => {}
                    }
                },
            );
            (loaded, estimates)
        })
    }

    /// The per-file parse task: cache lookup, parse + facts extraction
    /// under panic containment, degradation ladder on failure.
    fn parse_one(
        &self,
        id: FileId,
        rf: &'a RawFile,
        deadline: &PhaseDeadline,
    ) -> (Parsed<'a>, Vec<Fault>) {
        let _file_span =
            adsafe_trace::span_with("parse.file", "parse", vec![("path", rf.path.clone())]);
        let text = self.sm.file(id).text();
        let mut faults = Vec::new();
        let mut fault = |severity, cause, recovery| {
            faults.push(Fault::new(FaultPhase::Parse, &rf.path, severity, cause, recovery))
        };
        // Tier 3: token-only estimation (cheap, total).
        let estimate = || {
            let est = catch_unwind(AssertUnwindSafe(|| token_estimate(id, text))).ok()?;
            adsafe_trace::counter("parse.tier3.files").incr();
            Some(Parsed::Estimated(est))
        };
        if deadline.exceeded() {
            if deadline.trip_once() {
                fault(FaultSeverity::Degraded, deadline.cause(), Recovery::TokenMetrics);
            }
            // Past the deadline, estimation keeps every remaining file
            // contributing evidence.
            return (estimate().unwrap_or(Parsed::Dropped), faults);
        }
        let mut hash = 0;
        if let Some(c) = self.cache {
            hash = content_hash(&rf.path, text);
            match c.load(hash, id) {
                CacheLookup::Hit(facts) => {
                    adsafe_trace::counter("parse.cached.files").incr();
                    let (parsed, cache_ok) = (None, false);
                    let l = LoadedFile { raw: rf, id, facts, parsed, hash, cache_ok };
                    return (Parsed::Loaded(l), faults);
                }
                CacheLookup::Corrupt(detail) => {
                    // Cold path from here on; the entry was evicted and a
                    // clean one will be written back after checks.
                    let cause = FaultCause::CacheCorrupt { detail };
                    fault(FaultSeverity::Info, cause, Recovery::Noted);
                }
                CacheLookup::Miss => {}
            }
        }
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            failpoints::hit("pipeline::parse_file");
            failpoints::hit(&format!("pipeline::parse_file::{}", rf.path));
            let p = adsafe_lang::parse_source(id, text);
            let facts = facts::extract_facts(&self.sm, id, &p);
            (p, facts)
        }));
        let file = match parsed {
            Ok((p, facts)) => {
                let regions = p.unit.recovery_count;
                if regions > 0 {
                    adsafe_trace::counter("parse.tier2.files").incr();
                    let cause = FaultCause::ParseResync { regions };
                    fault(FaultSeverity::Degraded, cause, Recovery::ResyncParse);
                } else {
                    adsafe_trace::counter("parse.tier1.files").incr();
                }
                let (parsed, cache_ok) = (Some(Box::new(p)), regions == 0);
                Parsed::Loaded(LoadedFile { raw: rf, id, facts, parsed, hash, cache_ok })
            }
            Err(payload) => {
                let cause = panic_cause(&*payload);
                if let Some(est) = estimate() {
                    fault(FaultSeverity::Degraded, cause, Recovery::TokenMetrics);
                    est
                } else {
                    adsafe_trace::counter("parse.dropped.files").incr();
                    fault(FaultSeverity::Lost, cause, Recovery::Dropped);
                    Parsed::Dropped
                }
            }
        };
        (file, faults)
    }

    /// Phase 2: checkers. File-scoped native rules shard (rule × file)
    /// over fresh files and query rules over every file; program-scoped
    /// rules of both kinds run once, on the caller thread. Then the cache
    /// write-back, outside the phase.
    fn checks(
        &mut self,
        loaded: &[LoadedFile],
        records: &[FactsRecord<'_>],
    ) -> (Vec<Diagnostic>, CallGraph) {
        let a = self.a;
        let checked = self.phase(FaultPhase::Checks, |run, deadline| {
            // Native/query sub-phases are *always* emitted, pack or no
            // pack: the report's phase set must not depend on options
            // (`trace_integration` pins the span set).
            let native_span = adsafe_trace::span("phase.checks.native", "phase");
            let graph = facts::call_graph(records);
            let globals = facts::global_names(records);
            let checks = default_checks();
            let skipped = run.gate(&checks, deadline);

            // Shards: file-local rules × fresh files (cached files
            // carry their file-local diagnostics in the facts record),
            // then the macro-naming pass (`None`) per fresh file.
            let fresh: Vec<usize> =
                (0..loaded.len()).filter(|&li| loaded[li].parsed.is_some()).collect();
            let shards: Vec<(Option<usize>, usize)> = checks
                .iter()
                .enumerate()
                .filter(|(_, c)| c.scope() == CheckScope::File && !skipped.contains(c.id()))
                .flat_map(|(ci, _)| fresh.iter().map(move |&li| (Some(ci), li)))
                .chain(fresh.iter().map(|&li| (None, li)))
                .collect();
            let mut diagnostics: Vec<Diagnostic> = Vec::new();
            // Per-file diagnostic buckets for cache write-back, filled
            // in rule-registry order (then macros) — the order cached
            // entries replay them in. `None` once a shard of the file
            // failed.
            let mut buckets: Vec<Option<Vec<Diagnostic>>> = vec![Some(Vec::new()); loaded.len()];
            run.fan_out(
                shards,
                |run, &(ci, li)| {
                    let l = &loaded[li];
                    let parsed = l.parsed.as_deref().expect("shards only target fresh files");
                    let Some(ci) = ci else {
                        let _sp = adsafe_trace::span("check.naming-macro", "checks");
                        return Ok(adsafe_checkers::naming::check_macros(&parsed.pp));
                    };
                    let module = &l.raw.module;
                    let entry = FileEntry { file: run.sm.file(l.id), unit: &parsed.unit, module };
                    run_one_check(checks[ci].as_ref(), &CheckContext::file_local(&run.sm, entry))
                        .map_err(|failure| FaultCause::Panic(failure.message))
                },
                |&(ci, li), cause| match ci {
                    Some(ci) => check_fault(checks[ci].id(), cause),
                    None => check_fault(&loaded[li].raw.path, cause),
                },
                |_, &(_, li), diags| match diags {
                    Some(diags) => {
                        if let Some(bucket) = &mut buckets[li] {
                            bucket.extend(diags.iter().cloned());
                        }
                        diagnostics.extend(diags);
                    }
                    None => buckets[li] = None,
                },
            );
            // Cached files replay their stored file-local diagnostics —
            // filtered by `skipped` so a gated rule stays silent on warm
            // runs too.
            for l in loaded.iter().filter(|l| l.parsed.is_none()) {
                diagnostics.extend(
                    l.facts.diags.iter().filter(|d| !skipped.contains(d.check_id)).cloned(),
                );
            }
            drop(native_span);

            // Query rules evaluate from facts — fresh and cached files
            // alike, no reparse. Their diagnostics join the report but
            // never the cache write-back buckets and never compliance
            // evidence.
            let query_span = adsafe_trace::span("phase.checks.query", "phase");
            let pack = a.options.rules.as_deref().map_or(&[][..], |p| &p.rules[..]);
            let file_rules: Vec<&CompiledRule> =
                pack.iter().filter(|r| r.scope == CheckScope::File).collect();
            let qshards: Vec<(usize, usize)> = (0..file_rules.len())
                .flat_map(|qi| (0..loaded.len()).map(move |li| (qi, li)))
                .collect();
            run.fan_out(
                qshards,
                |run, &(qi, li)| {
                    let rule = file_rules[qi];
                    let _sp = adsafe_trace::span(format!("check.{}", rule.id), "checks");
                    Ok(run.eval_query(rule, std::slice::from_ref(&loaded[li]), &[]))
                },
                |&(qi, li), cause| {
                    let (id, path) = (file_rules[qi].id, &loaded[li].raw.path);
                    check_fault(format!("{id} on {path}"), cause)
                },
                |_, &(qi, _), diags| {
                    if let Some(diags) = diags {
                        count_rule_diags(file_rules[qi].id, &diags);
                        diagnostics.extend(diags);
                    }
                },
            );
            drop(query_span);

            // Program-scoped rules, native and query alike, run once
            // over every record: they need the whole program, not a
            // shard. The native set is pinned by a test in
            // adsafe-checkers; a future native program-scoped rule must
            // be given a facts replay here.
            let program = checks
                .iter()
                .filter(|c| c.scope() == CheckScope::Program && !skipped.contains(c.id()))
                .map(|c| (c.id(), None))
                .chain(
                    pack.iter().filter(|r| r.scope == CheckScope::Program).map(|r| (r.id, Some(r))),
                );
            for (id, query) in program {
                let _sp = adsafe_trace::span(format!("check.{id}"), "checks");
                let result = catch_unwind(AssertUnwindSafe(|| match query {
                    Some(rule) => run.eval_query(rule, loaded, &graph.recursive_functions()),
                    None if id == "misra-17.2-recursion" => facts::recursion_diags(records, &graph),
                    None if id == "design-global-use" => facts::global_use_diags(records, &globals),
                    None => Vec::new(),
                }));
                match result {
                    Ok(diags) => {
                        count_rule_diags(id, &diags);
                        diagnostics.extend(diags);
                    }
                    Err(payload) => run.log.push(check_fault(id, panic_cause(&*payload))),
                }
            }

            // One canonical order for the *complete* list — shards,
            // macro findings, program-scoped rules, and cached replays —
            // so repeated runs over the same corpus render
            // byte-identical reports regardless of worker count or
            // cache state. The sort is stable, and no two merge sources
            // share a (rule, file) group, so within-group emission
            // order is preserved exactly.
            diagnostics.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
            adsafe_trace::counter("checks.diagnostics").add(diagnostics.len() as u64);
            (diagnostics, graph, skipped, buckets)
        });
        let (diagnostics, graph, skipped, buckets) = checked;

        // Cache write-back: only fully-clean fresh files (tier-1 parse,
        // no shard fault) from a run where no rule was gated or cut — a
        // cached entry must replay the complete file-local rule set, and
        // recoverable faults (resync, panics) must recur on warm runs
        // rather than being papered over.
        if let Some(c) = self.cache.filter(|_| skipped.is_empty()) {
            for (l, bucket) in loaded.iter().zip(buckets) {
                if let Some(diags) = bucket.filter(|_| l.parsed.is_some() && l.cache_ok) {
                    c.store_entry(l.hash, &l.raw.path, &FileFacts { diags, ..l.facts.clone() });
                }
            }
        }
        (diagnostics, graph)
    }

    /// Rule gates (failpoints, deadline) run on the caller thread before
    /// sharding, so a gated rule is skipped wholesale. Returns the ids of
    /// the skipped rules.
    fn gate(
        &mut self,
        checks: &[Box<dyn Check>],
        deadline: &PhaseDeadline,
    ) -> HashSet<&'static str> {
        let mut skipped = HashSet::new();
        let mut cut = false;
        for c in checks {
            let cause = if cut {
                None
            } else if deadline.exceeded() {
                cut = true;
                Some(deadline.cause())
            } else {
                catch_unwind(AssertUnwindSafe(|| {
                    failpoints::hit("pipeline::check");
                    failpoints::hit(&format!("pipeline::check::{}", c.id()));
                }))
                .err()
                .map(|payload| panic_cause(&*payload))
            };
            if cut || cause.is_some() {
                skipped.insert(c.id());
            }
            if let Some(cause) = cause {
                self.log.push(check_fault(c.id(), cause));
            }
        }
        skipped
    }

    /// Evaluates one query rule over `files`' facts, counting its VM
    /// steps and timing it in the `checks.query` histogram.
    fn eval_query(
        &self,
        rule: &CompiledRule,
        files: &[LoadedFile],
        recursive: &[String],
    ) -> Vec<Diagnostic> {
        let t0 = adsafe_trace::now_us();
        let mut steps = 0;
        let diags = files
            .iter()
            .flat_map(|l| {
                let module = &l.raw.module;
                let rows =
                    crate::query::rows_from_facts(rule.selector, l.id, module, &l.facts, recursive);
                let (diags, s) = rule.eval_rows(&rows);
                steps += s;
                diags
            })
            .collect();
        adsafe_trace::counter("query.vm.steps").add(steps);
        adsafe_trace::histogram(&adsafe_trace::labeled("checks.query", &[("rule", rule.id)]))
            .record(adsafe_trace::now_us().saturating_sub(t0));
        diags
    }

    /// Phase 3: module metrics from facts, isolated per module, with
    /// token-only fallback so a module never vanishes from Figure 3.
    fn metrics(
        &mut self,
        loaded: &[LoadedFile],
        estimates: &[(String, TokenEstimate)],
    ) -> Vec<ModuleMetrics> {
        self.phase(FaultPhase::Metrics, |run, deadline| {
            // Modules in first-seen file order, each with its files.
            let mut groups: Vec<(&str, Vec<&LoadedFile>)> = Vec::new();
            for l in loaded {
                match groups.iter_mut().find(|(m, _)| *m == l.raw.module) {
                    Some((_, files)) => files.push(l),
                    None => groups.push((&l.raw.module, vec![l])),
                }
            }
            let mut modules: Vec<ModuleMetrics> = Vec::new();
            run.fan_out(
                groups,
                |_, (m, files)| {
                    if deadline.exceeded() {
                        return Err(deadline.cause());
                    }
                    failpoints::hit(&format!("pipeline::metrics::{m}"));
                    let facts: Vec<&FileFacts> = files.iter().map(|l| &l.facts).collect();
                    Ok(facts::module_metrics_from_facts(m, &facts))
                },
                |(m, _), cause| {
                    let (severity, recovery) = (FaultSeverity::Degraded, Recovery::TokenMetrics);
                    Fault::new(FaultPhase::Metrics, *m, severity, cause, recovery)
                },
                |_, (m, files), metrics| {
                    modules.push(metrics.unwrap_or_else(|| {
                        let ests: Vec<TokenEstimate> = files
                            .iter()
                            .filter_map(|l| {
                                let text = &l.raw.text;
                                catch_unwind(AssertUnwindSafe(|| token_estimate(l.id, text))).ok()
                            })
                            .collect();
                        module_from_estimates(m, &ests)
                    }))
                },
            );
            // Absorb tier-3 files into their modules' metrics.
            for (module, est) in estimates {
                match modules.iter_mut().find(|m| &m.name == module) {
                    Some(m) => adsafe_metrics::absorb_estimate(m, est),
                    None => modules.push(module_from_estimates(module, &[*est])),
                }
            }
            modules
        })
    }

    /// Phase 4: evidence assembly and compliance judgement. Each step
    /// falls back to a conservative default, logged as a critical fault,
    /// if it panics.
    fn judge(
        &mut self,
        records: &[FactsRecord<'_>],
        graph: &CallGraph,
        modules: &[ModuleMetrics],
        diagnostics: &[Diagnostic],
    ) -> (Evidence, ComplianceReport, Vec<Observation>) {
        let _span = adsafe_trace::span("phase.assess", "phase");
        let a = self.a;
        let asil = a.options.asil;
        let unit = self.contain(
            "unit-design-stats",
            || {
                failpoints::hit("pipeline::assess");
                facts::unit_stats_from_facts(records, graph)
            },
            adsafe_checkers::UnitDesignStats::default,
        );
        let evidence = self.contain(
            "evidence",
            || a.assemble_evidence(records, graph, modules, &unit, diagnostics),
            || Evidence {
                total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
                coverage: a.options.coverage,
                ..Evidence::default()
            },
        );
        let compliance = self.contain(
            "compliance",
            || assess(&evidence, asil),
            || ComplianceReport { asil, verdicts: Vec::new() },
        );
        let observations = self.contain("observations", || observations(&evidence), Vec::new);
        (evidence, compliance, observations)
    }

    /// Runs one assess step; a panic records a critical fault against
    /// `path` and yields `fallback()` instead.
    fn contain<R>(
        &mut self,
        path: &str,
        step: impl FnOnce() -> R,
        fallback: impl FnOnce() -> R,
    ) -> R {
        catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
            self.log.push(Fault::new(
                FaultPhase::Assess,
                path,
                FaultSeverity::Critical,
                panic_cause(&*payload),
                Recovery::FallbackDefault,
            ));
            fallback()
        })
    }
}

/// A checks-phase fault: the rule (or file) was skipped.
fn check_fault(path: impl Into<String>, cause: FaultCause) -> Fault {
    Fault::new(FaultPhase::Checks, path, FaultSeverity::Degraded, cause, Recovery::SkippedItem)
}

/// Counts one rule's findings in `checks.rule.<id>.diags`.
fn count_rule_diags(id: &str, diags: &[Diagnostic]) {
    adsafe_trace::counter(&format!("checks.rule.{id}.diags")).add(diags.len() as u64);
}


/// Convenience: assess a generated Apollo-like corpus.
pub fn assess_corpus(
    files: &[adsafe_corpus::GeneratedFile],
    options: AssessmentOptions,
) -> AssessmentReport {
    let mut a = Assessment::new().with_options(options);
    for f in files {
        a.add_file(&f.module, &f.path, &f.text);
    }
    a.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_iso26262::{Status, TableId};

    fn small_report() -> AssessmentReport {
        let mut a = Assessment::new();
        a.add_file(
            "perception",
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return (int)(*state * 1.5f);\n\
             }\n",
        );
        a.add_file(
            "perception",
            "perception/detect.cu",
            adsafe_corpus::yolo::SCALE_BIAS_CU,
        );
        a.run()
    }

    #[test]
    fn evidence_reflects_the_code() {
        let r = small_report();
        assert_eq!(r.evidence.global_definitions, 1);
        assert!(r.evidence.explicit_casts >= 1);
        assert!(r.evidence.multi_exit_pct > 0.0);
        assert_eq!(r.evidence.gpu.kernel_count, 1);
        assert_eq!(r.evidence.gpu.kernel_pointer_params, 2);
        assert!(r.evidence.gpu.device_alloc_sites >= 2);
        assert!(r.evidence.pointer_uses > 0);
        assert_eq!(r.modules.len(), 1);
    }

    #[test]
    fn clean_run_is_fault_free() {
        let r = small_report();
        assert!(r.faults.is_empty(), "{:?}", r.faults);
        assert!(!r.degraded);
    }

    #[test]
    fn compliance_report_has_25_verdicts() {
        let r = small_report();
        assert_eq!(r.compliance.verdicts.len(), 25);
        assert_eq!(r.observations.len(), 14);
        // Dynamic device memory → unit-design row 2 non-compliant with
        // research-class effort (CUDA intrinsic).
        let row2 = &r.compliance.table(TableId::UnitDesign)[1];
        assert_eq!(row2.status, Status::NonCompliant);
        assert_eq!(row2.effort, adsafe_iso26262::Effort::Research);
    }

    #[test]
    fn observation_4_holds_for_cuda_code() {
        let r = small_report();
        let obs4 = &r.observations[3];
        assert!(obs4.holds);
        assert!(obs4.text.contains("CUDA"));
    }

    #[test]
    fn diagnostics_queryable() {
        let r = small_report();
        assert!(!r.diagnostics_for("misra-21.3-dynamic-memory").is_empty());
        assert!(r.diagnostics_for("made-up-check").is_empty());
    }

    #[test]
    fn corpus_assessment_smoke() {
        let spec = adsafe_corpus::ApolloSpec::test_scale();
        let files = adsafe_corpus::generate(&spec);
        let r = assess_corpus(&files, AssessmentOptions::default());
        assert!(r.evidence.total_functions > 100);
        assert!(r.evidence.functions_over_cc10 >= spec.total_over_10());
        assert!(r.compliance.blocking_count() > 0);
    }

    #[test]
    fn resynced_file_degrades_but_contributes() {
        let mut a = Assessment::new();
        a.add_file("m", "good.cc", "int f() { return 1; }\n");
        // Mangled enough that the parser must resynchronise.
        a.add_file("m", "bad.cc", "int ; ] ) } = 5 +;\nint h() { return 2; }\n");
        let r = a.run();
        assert!(r.degraded);
        assert!(r.faults.iter().any(|f| {
            f.path == "bad.cc"
                && matches!(f.cause, FaultCause::ParseResync { .. })
                && f.recovery == Recovery::ResyncParse
        }));
        // Both files are in the module metrics.
        assert_eq!(r.modules.len(), 1);
        assert_eq!(r.modules[0].file_count, 2);
    }

    #[test]
    fn injected_parse_panic_falls_to_token_metrics() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file::m/a.cc",
            failpoints::Action::Panic("parser bug".into()),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut a = Assessment::new();
        a.add_file("m", "m/a.cc", "int f() { if (f()) return 1; return 0; }\n");
        a.add_file("m", "m/b.cc", "int g() { return 2; }\n");
        let r = a.run();
        std::panic::set_hook(prev);
        assert!(r.degraded);
        let f = r
            .faults
            .iter()
            .find(|f| f.path == "m/a.cc")
            .expect("fault for panicked file");
        assert_eq!(f.recovery, Recovery::TokenMetrics);
        assert!(matches!(f.cause, FaultCause::Injected(_)));
        // The panicked file still contributes NLOC via tier 3.
        let m = &r.modules[0];
        assert_eq!(m.file_count, 2);
        assert_eq!(m.absorbed_files, 1);
        assert!(m.loc.nloc >= 2);
    }

    #[test]
    fn non_utf8_input_is_ingestible() {
        let mut a = Assessment::new();
        a.add_file_bytes("m", "weird.cc", b"int f() { return 1; }\n\xff\xfe\x00junk\n");
        let r = a.run();
        assert!(r.degraded);
        assert!(r.faults.iter().any(|f| {
            f.phase == FaultPhase::Ingest && matches!(f.cause, FaultCause::NonUtf8 { .. })
        }));
        assert_eq!(r.modules[0].file_count, 1);
    }

    #[test]
    fn parse_deadline_sends_remaining_files_to_tier3() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file",
            failpoints::Action::Delay(Duration::from_millis(25)),
        );
        let mut a = Assessment::new().with_options(AssessmentOptions {
            budgets: Budgets { phase_deadline: Some(Duration::from_millis(10)) },
            ..AssessmentOptions::default()
        });
        for i in 0..4 {
            a.add_file("m", &format!("f{i}.cc"), "int f() { return 1; }\n");
        }
        let r = a.run();
        assert!(r.degraded);
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f.cause, FaultCause::DeadlineExceeded { .. })));
        // Every file still contributes evidence.
        assert_eq!(r.modules[0].file_count, 4);
        assert!(r.modules[0].absorbed_files >= 1);
    }
}
