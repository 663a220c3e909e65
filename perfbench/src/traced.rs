//! The traced pass: one serial walk over a workload's inputs that calls
//! each crate's public functions in pipeline order, each call wrapped in
//! a span recorded from outside the program. Counts are taken at the
//! same boundaries, with allocation profiling on.

use crate::tracer::Tracer;
use crate::{metric, Metric};
use adsafe::cache::{content_hash, CacheLookup, FactsStore};
use adsafe::checkers::{
    default_checks, naming, run_one_check, CheckContext, CheckScope, FileEntry,
};
use adsafe::facts::{self, FactsRecord, FileFacts};
use adsafe::iso26262::{assess, observations};
use adsafe::lang::{lexer, parse_source, preprocess::preprocess, FileId, SourceMap};
use adsafe::render::deterministic_report_markdown;
use adsafe::rulequery::RulePack;
use adsafe::trace::alloc;
use adsafe::AssessmentReport;
use adsafe_ledger::{Ledger, RunRecord};
use std::collections::HashSet;

/// Which facts store the pass reads through, named as its layer.
pub enum Facts<'a> {
    /// The on-disk `FactsCache` of the CLI (`cache.*` spans).
    Disk(&'a adsafe::FactsCache),
    /// The daemon's resident `MemoryFactsStore` (`store.*` spans).
    Memory(&'a adsafe::MemoryFactsStore),
}

/// Everything one pass reads.
pub struct PassInput<'a> {
    /// `(module, path, text)` in pipeline order.
    pub files: &'a [(String, String, String)],
    pub facts: Facts<'a>,
    /// Builds the workload's rule pack; its cost is `query.compile`.
    pub pack: fn() -> RulePack,
    pub reference: &'a AssessmentReport,
    pub reference_bytes: &'a [u8],
    /// Where `ledger.append` writes.
    pub ledger: &'a Ledger,
}

/// One finished pass: its spans and the counts taken at their
/// boundaries.
pub struct Pass {
    pub tracer: Tracer,
    pub counts: Counts,
}

/// Counts taken during a pass.
#[derive(Default)]
pub struct Counts {
    /// Findings the pass produced; must equal the reference's.
    pub findings: usize,
    pub tokens: u64,
    pub fresh_loc: u64,
    pub functions: u64,
    pub shards: u64,
    pub native_diags: u64,
    pub vm_steps: u64,
    pub rows: u64,
    pub lookups: u64,
    pub hits: u64,
    pub cache_bytes: u64,
    pub render_bytes: u64,
    /// The slowest file's parse, facts and checks (or its load), ns.
    pub slowest_file_ns: u64,
}

/// Runs one traced pass.
pub fn run_pass(input: &PassInput<'_>) -> Result<Pass, String> {
    let was_profiling = alloc::set_profiling(true);
    let trace_mark = adsafe::trace::mark();
    let tracer = Tracer::new();
    let result = pass(&tracer, input);
    // The crates' own spans pile up in this thread's buffer; drop them.
    let _ = adsafe::trace::drain_from(trace_mark);
    alloc::set_profiling(was_profiling);
    result.map(|counts| Pass { tracer, counts })
}

fn pass(tr: &Tracer, input: &PassInput<'_>) -> Result<Counts, String> {
    let root = tr.span("pass");
    let (store, prefix): (&dyn FactsStore, &str) = match input.facts {
        Facts::Disk(c) => (c, "cache"),
        Facts::Memory(m) => (m, "store"),
    };
    let load_name = format!("{prefix}.load");
    let store_name = format!("{prefix}.store");
    let checks = default_checks();
    let file_checks: Vec<_> = checks
        .iter()
        .filter(|c| c.scope() == CheckScope::File)
        .collect();
    let rule_spans: Vec<String> = checks
        .iter()
        .map(|c| format!("checkers.rule.{}", c.id()))
        .collect();
    let file_rule_spans: Vec<&str> = checks
        .iter()
        .zip(&rule_spans)
        .filter(|(c, _)| c.scope() == CheckScope::File)
        .map(|(_, s)| s.as_str())
        .collect();

    let mut sm = SourceMap::new();
    let ids: Vec<FileId> = input
        .files
        .iter()
        .map(|(_, p, t)| sm.add_file(p, t))
        .collect();
    let mut r = Counts::default();
    let mut loaded: Vec<FileFacts> = Vec::with_capacity(input.files.len());
    for ((module, path, text), &id) in input.files.iter().zip(&ids) {
        let _file = tr.span("file");
        let file_start = std::time::Instant::now();
        let hash = tr.time("cache.hash", || content_hash(path, text));
        r.lookups += 1;
        let lookup = tr.time(&load_name, || store.load(hash, id));
        let mut facts = match lookup {
            CacheLookup::Hit(facts) => {
                r.hits += 1;
                r.slowest_file_ns = r
                    .slowest_file_ns
                    .max(file_start.elapsed().as_nanos() as u64);
                facts
            }
            CacheLookup::Miss | CacheLookup::Corrupt(_) => {
                let pre = tr.time("lang.preprocess", || preprocess(id, text));
                r.tokens += tr.time("lang.lex", || lexer::lex(id, &pre.text).len()) as u64;
                drop(pre);
                let work_start = std::time::Instant::now();
                let parsed = tr.time("lang.parse", || parse_source(id, text));
                let mut facts = tr.time("facts.extract", || facts::extract_facts(&sm, id, &parsed));
                let mut diags = Vec::new();
                for (c, span_name) in file_checks.iter().zip(&file_rule_spans) {
                    let out = tr.time(span_name, || {
                        let entry = FileEntry {
                            file: sm.file(id),
                            unit: &parsed.unit,
                            module,
                        };
                        run_one_check(c.as_ref(), &CheckContext::file_local(&sm, entry))
                    });
                    r.shards += 1;
                    diags.extend(
                        out.map_err(|f| format!("rule {} panicked: {}", f.check_id, f.message))?,
                    );
                }
                diags.extend(tr.time("checkers.naming-macro", || naming::check_macros(&parsed.pp)));
                r.slowest_file_ns = r
                    .slowest_file_ns
                    .max(work_start.elapsed().as_nanos() as u64);
                tr.time("lang.drop", || drop(parsed));
                r.fresh_loc += text.lines().count() as u64;
                facts.diags = diags;
                tr.time(&store_name, || store.store_entry(hash, path, &facts));
                facts
            }
        };
        // The facts encoding both ways on every file: the write side of
        // a miss and the read side of a hit, whichever the workload runs.
        let json = tr.time("cache.encode", || facts.to_json());
        facts = tr.time("cache.decode", || FileFacts::from_json(&json, id))?;
        r.cache_bytes += json.len() as u64;
        r.native_diags += facts.diags.len() as u64;
        r.functions += facts.functions.len() as u64;
        loaded.push(facts);
    }

    let records: Vec<FactsRecord<'_>> = ids
        .iter()
        .zip(input.files)
        .zip(&loaded)
        .map(|((&id, (m, _, _)), f)| (id, m.as_str(), f))
        .collect();
    let (graph, globals) = tr.time("facts.graph", || {
        (facts::call_graph(&records), facts::global_names(&records))
    });
    for (c, span_name) in checks.iter().zip(&rule_spans) {
        if c.scope() != CheckScope::Program {
            continue;
        }
        let diags = tr.time(span_name, || match c.id() {
            "misra-17.2-recursion" => facts::recursion_diags(&records, &graph),
            "design-global-use" => facts::global_use_diags(&records, &globals),
            other => panic!("program-scoped rule `{other}` has no facts replay"),
        });
        r.native_diags += diags.len() as u64;
    }
    r.findings = r.native_diags as usize;

    let pack = tr.time("query.compile", input.pack);
    let recursive = tr.time("query.eval", || graph.recursive_functions());
    for rule in &pack.rules {
        let program = rule.scope == CheckScope::Program;
        for &(id, module, facts) in &records {
            let (n, steps, rows) = tr.time("query.eval", || {
                let rec: &[String] = if program { &recursive } else { &[] };
                let rows = adsafe::query::rows_from_facts(rule.selector, id, module, facts, rec);
                let (diags, steps) = rule.eval_rows(&rows);
                (diags.len(), steps, rows.len())
            });
            r.findings += n;
            r.vm_steps += steps;
            r.rows += rows as u64;
        }
    }

    let mut modules: Vec<&str> = Vec::new();
    let mut seen = HashSet::new();
    for (_, m, _) in &records {
        if seen.insert(*m) {
            modules.push(m);
        }
    }
    for m in modules {
        tr.time("metrics.module", || {
            let files: Vec<&FileFacts> = records
                .iter()
                .filter(|(_, rm, _)| *rm == m)
                .map(|(_, _, f)| *f)
                .collect();
            facts::module_metrics_from_facts(m, &files)
        });
    }

    // Evidence assembly is private to the pipeline; the judgement runs
    // on the reference's evidence, which the same inputs produce.
    let evidence = &input.reference.evidence;
    tr.time("iso26262.assess", || {
        let unit = facts::unit_stats_from_facts(&records, &graph);
        (
            unit,
            assess(evidence, input.reference.compliance.asil),
            observations(evidence),
        )
    });

    let bytes = tr.time("render", || deterministic_report_markdown(input.reference));
    r.render_bytes = bytes.len() as u64;
    if bytes.as_bytes() != input.reference_bytes {
        return Err("traced pass rendered different report bytes".into());
    }

    let record = tr.time("ledger.record", || {
        RunRecord::from_report(
            input.reference,
            "traced",
            0,
            "perfbench",
            "0",
            ids.len() as u64,
            0,
        )
    });
    tr.time("ledger.append", || input.ledger.append(&record))
        .map_err(|e| format!("ledger append: {e}"))?;

    drop(root);
    Ok(r)
}

/// Per-layer metrics of a pass, given the untraced serial and parallel
/// run times of the same input (ms).
pub fn layer_metrics(pass: &Pass, serial_ms: f64, assess_ms_p50: f64) -> Vec<Metric> {
    let (t, r) = (pass.tracer.totals(), &pass.counts);
    let self_ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
    let sum_prefix = |prefix: &str, f: &dyn Fn(&crate::tracer::Totals) -> u64| -> u64 {
        t.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, x)| f(x))
            .sum()
    };
    let per_loc = |bytes: u64| {
        if r.fresh_loc == 0 {
            0.0
        } else {
            bytes as f64 / r.fresh_loc as f64
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let preprocess = self_ms("lang.preprocess");
    let lex = self_ms("lang.lex");
    let parse_total = t.get("lang.parse").map_or(0.0, |x| x.total_ns as f64 / 1e6);
    let mut m = vec![
        metric("lang.preprocess.ms", preprocess, "ms"),
        metric("lang.lex.ms", lex, "ms"),
        metric(
            "lang.syntax.ms",
            (parse_total - preprocess - lex).max(0.0),
            "ms",
        ),
        metric("lang.tokens", r.tokens as f64, "count"),
        metric(
            "lang.bytes_per_loc",
            per_loc(t.get("lang.parse").map_or(0, |x| x.self_bytes)),
            "B/LOC",
        ),
        metric("facts.extract.ms", self_ms("facts.extract"), "ms"),
        metric("facts.graph.ms", self_ms("facts.graph"), "ms"),
        metric(
            "facts.bytes_per_loc",
            per_loc(t.get("facts.extract").map_or(0, |x| x.self_bytes)),
            "B/LOC",
        ),
        metric("facts.functions", r.functions as f64, "count"),
    ];
    for c in default_checks() {
        m.push(metric(
            format!("checkers.rule.{}.ms", c.id()),
            self_ms(&format!("checkers.rule.{}", c.id())),
            "ms",
        ));
    }
    m.extend([
        metric(
            "checkers.naming-macro.ms",
            self_ms("checkers.naming-macro"),
            "ms",
        ),
        metric(
            "checkers.native.ms",
            sum_prefix("checkers.", &|x| x.self_ns) as f64 / 1e6,
            "ms",
        ),
        metric("checkers.shards", r.shards as f64, "count"),
        metric(
            "checkers.bytes_per_loc",
            per_loc(sum_prefix("checkers.", &|x| x.self_bytes)),
            "B/LOC",
        ),
        metric("checkers.diagnostics", r.native_diags as f64, "count"),
        metric("query.compile.ms", self_ms("query.compile"), "ms"),
        metric("query.eval.ms", self_ms("query.eval"), "ms"),
        metric("query.vm.steps", r.vm_steps as f64, "count"),
        metric("query.rows", r.rows as f64, "count"),
        metric("metrics.module.ms", self_ms("metrics.module"), "ms"),
        metric("iso26262.assess.ms", self_ms("iso26262.assess"), "ms"),
        metric("render.ms", self_ms("render"), "ms"),
        metric("render.bytes", r.render_bytes as f64, "B"),
        metric("cache.hash.ms", self_ms("cache.hash"), "ms"),
        metric("cache.decode.ms", self_ms("cache.decode"), "ms"),
        metric("cache.encode.ms", self_ms("cache.encode"), "ms"),
        metric("cache.load.ms", self_ms("cache.load"), "ms"),
        metric("cache.store.ms", self_ms("cache.store"), "ms"),
        metric(
            "cache.hit_ratio",
            if t.contains_key("cache.load") {
                ratio(r.hits, r.lookups)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("cache.bytes", r.cache_bytes as f64, "B"),
        metric("store.load.ms", self_ms("store.load"), "ms"),
        metric(
            "store.hit_ratio",
            if t.contains_key("store.load") {
                ratio(r.hits, r.lookups)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("pool.speedup", serial_ms / assess_ms_p50, "x"),
        metric("pool.slowest_file.ms", r.slowest_file_ns as f64 / 1e6, "ms"),
        metric("ledger.append.ms", self_ms("ledger.append"), "ms"),
    ]);
    let wall_ms = pass.tracer.wall_ns() as f64 / 1e6;
    let glue_ms = self_ms("pass") + self_ms("file");
    eprintln!(
        "perfbench: traced pass {wall_ms:.1} ms, layers account for {:.1}% (glue {glue_ms:.2} ms); \
         untraced serial run {serial_ms:.1} ms",
        100.0 * (1.0 - glue_ms / wall_ms)
    );
    m.push(metric("trace.unattributed_ms", glue_ms, "ms"));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * (wall_ms - serial_ms) / serial_ms,
        "%",
    ));
    m
}
