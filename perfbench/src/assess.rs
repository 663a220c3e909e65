//! `cold-paper` and `warm-edit`: the paper-scale corpus, assessed in
//! process with the CLI's defaults, cold and after a small edit.

use crate::stats::{mean, median, tail};
use crate::traced::{self, Facts, PassInput};
use crate::{
    cpu, metric, repeated_setup, serve, triples, Args, Outcome, Rng, Tally, WorkDir, DEFAULT_SEED,
};
use adsafe::corpus::{generate, ApolloSpec};
use adsafe::render::deterministic_report_markdown;
use adsafe::rulequery::RulePack;
use adsafe::trace::alloc;
use adsafe::{content_hash, Assessment, AssessmentOptions, AssessmentReport, FactsCache};
use adsafe_ledger::{corpus_digest, Ledger, RunRecord};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Files edited per `warm-edit` iteration.
const EDITED_FILES: usize = 3;

/// The CLI's default `--jobs`: one worker per core.
const CLI_JOBS: usize = 0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// Paper-calibrated figures the default seed must reproduce.
const PAPER_OVER_CC10: usize = 554;
const PAPER_BLOCKING: usize = 16;

struct State {
    /// `(module, path, text)` in pipeline order.
    files: Vec<(String, String, String)>,
    reference: AssessmentReport,
    reference_bytes: Vec<u8>,
    /// `warm-edit`: the disk facts cache warmed in set-up.
    warm_cache: Option<PathBuf>,
    pack: Option<Arc<RulePack>>,
    ledger: Ledger,
}

/// The serial, uncached reference run: what every iteration must match.
pub fn reference_run(
    files: &[(String, String, String)],
    rules: Option<Arc<RulePack>>,
) -> (AssessmentReport, Vec<u8>) {
    let mut a = Assessment::new().with_options(AssessmentOptions {
        rules,
        ..AssessmentOptions::default()
    });
    for (m, p, t) in files {
        a.add_file(m, p, t);
    }
    let report = a.run();
    let bytes = deterministic_report_markdown(&report).into_bytes();
    (report, bytes)
}

fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<State, String> {
    let spec = ApolloSpec {
        seed,
        ..ApolloSpec::paper_scale()
    };
    let files = triples(&generate(&spec));
    eprintln!(
        "perfbench: seed {seed}: {} files, {} lines",
        files.len(),
        files
            .iter()
            .map(|(_, _, t)| t.lines().count())
            .sum::<usize>()
    );
    let pack = (kind == Kind::Warm).then(|| Arc::new(RulePack::builtin()));
    let (reference, reference_bytes) = reference_run(&files, pack.clone());
    if reference.degraded {
        return Err("the reference run is degraded".into());
    }
    if seed == DEFAULT_SEED {
        let over = reference.evidence.functions_over_cc10;
        let blocking = reference.compliance.blocking_count();
        if over != PAPER_OVER_CC10 || blocking != PAPER_BLOCKING {
            return Err(format!(
                "reference lost the paper calibration: {over} functions over CC 10 \
                 (paper {PAPER_OVER_CC10}), {blocking} blocking topics (paper {PAPER_BLOCKING})"
            ));
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ledger = Ledger::open(&dir.join("ledger")).map_err(|e| format!("ledger: {e}"))?;
    let mut state = State {
        files,
        reference,
        reference_bytes,
        warm_cache: None,
        pack,
        ledger,
    };
    if kind == Kind::Warm {
        let cache = dir.join("warm-cache");
        let run = iteration(&state, &state.files, &cache, CLI_JOBS);
        if run.bytes != state.reference_bytes || run.degraded {
            return Err("warming the facts cache produced different report bytes".into());
        }
        state.warm_cache = Some(cache);
    }
    Ok(state)
}

/// One measured `assess`, as `adsafe assess` runs it after reading the
/// files: corpus digest and run ID, the pipeline, the deterministic
/// report, the ledger append.
struct Iteration {
    /// Building the `Assessment` to holding the report bytes, ms.
    assess_ms: f64,
    /// The same span in processor time, ms.
    assess_cpu_ms: f64,
    /// The whole request, digest to ledger append, ms.
    request_ms: f64,
    /// The same span in processor time, ms.
    request_cpu_ms: f64,
    bytes: Vec<u8>,
    degraded: bool,
}

fn iteration(
    state: &State,
    files: &[(String, String, String)],
    cache_dir: &Path,
    jobs: usize,
) -> Iteration {
    let (start, cpu_start) = (Instant::now(), cpu::process_seconds());
    let hashes: Vec<u64> = files.iter().map(|(_, p, t)| content_hash(p, t)).collect();
    let digest = corpus_digest(&hashes);
    let (run_id, seq) = state.ledger.reserve(&digest);
    let (t0, c0) = (Instant::now(), cpu::process_seconds());
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs,
        cache_dir: Some(cache_dir.to_path_buf()),
        run_id: run_id.clone(),
        rules: state.pack.clone(),
        ..AssessmentOptions::default()
    });
    for (m, p, t) in files {
        a.add_file(m, p, t);
    }
    let report = a.run();
    let bytes = deterministic_report_markdown(&report).into_bytes();
    let assess_ms = t0.elapsed().as_secs_f64() * 1e3;
    let assess_cpu_ms = (cpu::process_seconds() - c0) * 1e3;
    let record = RunRecord::from_report(
        &report,
        &run_id,
        seq,
        "perfbench",
        &digest,
        files.len() as u64,
        0,
    );
    let appended = state.ledger.append(&record).is_ok();
    let request_ms = start.elapsed().as_secs_f64() * 1e3;
    let request_cpu_ms = (cpu::process_seconds() - cpu_start) * 1e3;
    Iteration {
        assess_ms,
        assess_cpu_ms,
        request_ms,
        request_cpu_ms,
        bytes,
        degraded: report.degraded || !appended,
    }
}

/// The inputs of iteration `i`: cold runs the corpus as generated into
/// an empty cache; warm appends a comment naming the iteration to
/// [`EDITED_FILES`] distinct seeded-random files of the warmed cache.
fn inputs_for(
    kind: Kind,
    state: &State,
    rng: &mut Rng,
    i: usize,
    dir: &Path,
) -> (Vec<(String, String, String)>, PathBuf) {
    match kind {
        Kind::Cold => {
            let cache = dir.join(format!("cold-cache-{i}"));
            let _ = std::fs::remove_dir_all(&cache);
            (state.files.clone(), cache)
        }
        Kind::Warm => {
            let mut files = state.files.clone();
            let mut picked = Vec::new();
            while picked.len() < EDITED_FILES.min(files.len()) {
                let k = rng.below(files.len());
                if !picked.contains(&k) {
                    picked.push(k);
                }
            }
            for k in picked {
                files[k].2.push_str(&format!("// perfbench edit {i}\n"));
            }
            (
                files,
                state.warm_cache.clone().expect("warm state has a cache"),
            )
        }
    }
}

pub fn run(kind: Kind, args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (state, setup_s) =
        repeated_setup(|k| setup(kind, args.seed, &work.path().join(format!("setup-{k}"))))?;
    let dir = work.path().join("runs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let ok = |it: &Iteration| it.bytes == state.reference_bytes && !it.degraded;

    let (mut assess_ms, mut request_ms) = (Vec::new(), Vec::new());
    let (mut assess_cpu_ms, mut request_cpu_ms) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while Instant::now() < deadline || assess_ms.len() < 3 {
        let (files, cache) = inputs_for(kind, &state, &mut rng, i, &dir);
        let it = iteration(&state, &files, &cache, CLI_JOBS);
        tally.check(ok(&it));
        assess_ms.push(it.assess_ms);
        request_ms.push(it.request_ms);
        assess_cpu_ms.push(it.assess_cpu_ms);
        request_cpu_ms.push(it.request_cpu_ms);
        if kind == Kind::Cold {
            let _ = std::fs::remove_dir_all(&cache);
        }
        i += 1;
    }

    // One profiled iteration for the peak live heap.
    let (files, cache) = inputs_for(kind, &state, &mut rng, i, &dir);
    i += 1;
    alloc::set_profiling(true);
    alloc::reset_peak();
    let base = alloc::live_bytes();
    let it = iteration(&state, &files, &cache, CLI_JOBS);
    let peak_mib = alloc::peak_live_bytes().saturating_sub(base) as f64 / (1024.0 * 1024.0);
    alloc::set_profiling(false);
    tally.check(ok(&it));
    drop(files);

    let assess_p50 = median(&assess_ms);
    let request_p50 = median(&request_ms);
    let (req_tail, req_pct) = tail(&request_ms);
    // Processor-time figures are means: the work a run pays for. A
    // shared machine's speed flips between a fast and a slow mode for
    // seconds at a time; a median then jumps with the share of samples
    // caught in each mode, the mean moves in proportion to it.
    let assess_cpu = mean(&assess_cpu_ms);
    let request_cpu = mean(&request_cpu_ms);
    eprintln!(
        "perfbench: {} iterations; assess p50 {assess_p50:.1} ms wall, mean {assess_cpu:.1} \
         ms processor; request p50 {request_p50:.1} ms, p{req_pct} {req_tail:.1} ms wall, mean \
         {request_cpu:.1} ms processor; peak live {peak_mib:.1} MiB",
        assess_ms.len(),
    );

    let metrics = if args.trace {
        let (files, cache) = inputs_for(kind, &state, &mut rng, i, &dir);
        i += 1;
        let serial = iteration(&state, &files, &cache, 1);
        tally.check(ok(&serial));
        let (files, cache) = inputs_for(kind, &state, &mut rng, i, &dir);
        let facts_cache = FactsCache::open(&cache);
        let pass = traced::run_pass(&PassInput {
            files: &files,
            facts: Facts::Disk(&facts_cache),
            pack: if kind == Kind::Warm {
                RulePack::builtin
            } else {
                RulePack::empty
            },
            reference: &state.reference,
            reference_bytes: &state.reference_bytes,
            ledger: &state.ledger,
        })?;
        tally.check(pass.counts.findings == state.reference.diagnostics.len());
        if pass.counts.findings != state.reference.diagnostics.len() {
            eprintln!(
                "perfbench: traced pass found {} findings, reference {}",
                pass.counts.findings,
                state.reference.diagnostics.len()
            );
        }
        write_trace(&args.workload, &pass.tracer.chrome_json())?;
        let mut m = traced::layer_metrics(&pass, serial.assess_ms, assess_p50);
        m.extend(serve::daemon_metrics(None));
        m.extend(serve::wall_metrics(
            assess_p50,
            request_p50,
            req_tail,
            1e3 / request_p50,
        ));
        m
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("assess_cpu_ms", assess_cpu, "ms"),
            metric("request_cpu_ms", request_cpu, "ms"),
            metric("peak_live_mib", peak_mib, "MiB"),
        ]
    };
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Writes the traced pass as Chrome trace JSON under `.perfbench/`,
/// after checking that the trace crate's validator accepts it.
pub fn write_trace(workload: &str, json: &str) -> Result<(), String> {
    let events = adsafe::trace::chrome::validate(json)?;
    let path = Path::new(".perfbench").join(format!("trace-{workload}.json"));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: {events} spans written to {}", path.display());
    Ok(())
}
