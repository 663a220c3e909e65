//! Determinism and incrementality guarantees of the parallel pipeline:
//! reports must be byte-identical across worker counts and cache
//! states, warm cache runs must actually skip work, and every cache
//! invalidation path (content change, fingerprint change, corruption)
//! must fall back to a correct cold analysis.
//!
//! Counter assertions read each report's own run-scoped counters, so
//! these tests run concurrently under the default test runner.

use adsafe::render::deterministic_report_markdown;
use adsafe::trace::alloc;
use adsafe::{
    Assessment, AssessmentOptions, AssessmentReport, FaultCause, FaultSeverity,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Instrumented allocator for the memory-determinism test below; it
/// counts nothing until that test flips profiling on.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "adsafe-parallel-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small but representative source set: C++, CUDA, a header, rule
/// findings across several checkers, and two modules.
fn sample_files() -> Vec<(&'static str, &'static str, String)> {
    vec![
        (
            "perception",
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return (int)(*state * 1.5f);\n\
             }\n"
                .to_string(),
        ),
        (
            "perception",
            "perception/detect.cu",
            adsafe::corpus::yolo::SCALE_BIAS_CU.to_string(),
        ),
        (
            "perception",
            "perception/track.h",
            "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\nint Update(int* state, int delta);\n#endif\n".to_string(),
        ),
        (
            "control",
            "control/pid.cc",
            "static int s_calls;\n\
             int Step(int err) {\n\
               int out = 0;\n\
               s_calls = s_calls + 1;\n\
               switch (err) { case 0: out = 0; break; case 1: out = 1; break; }\n\
               goto done;\n\
             done:\n\
               return out;\n\
             }\n"
                .to_string(),
        ),
        (
            "control",
            "control/loop.cc",
            "int Recur(int n) { if (n <= 0) return 0; return Recur(n - 1) + 1; }\n\
             int Helper(int n) { return Recur(n); }\n"
                .to_string(),
        ),
        (
            "control",
            "control/alloc.cc",
            "void* Grab(unsigned long n);\n\
             int Fill(int n) {\n\
               int* p = (int*)Grab((unsigned long)(n * 4));\n\
               if (!p) return -1;\n\
               p[0] = 010;\n\
               return p[0];\n\
             }\n"
                .to_string(),
        ),
    ]
}

fn assess_samples(files: usize, options: AssessmentOptions) -> AssessmentReport {
    let mut a = Assessment::new().with_options(options);
    for (module, path, text) in sample_files().into_iter().take(files) {
        a.add_file(module, path, &text);
    }
    a.run()
}

fn counter(report: &AssessmentReport, name: &str) -> u64 {
    report
        .trace
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn reports_byte_identical_across_worker_counts() {
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let run = |jobs: usize| {
        adsafe::assess_corpus(
            &corpus,
            AssessmentOptions { jobs, ..AssessmentOptions::default() },
        )
    };
    let serial = run(1);
    let baseline = deterministic_report_markdown(&serial);
    for jobs in [4, 8, 0] {
        let r = run(jobs);
        assert_eq!(
            deterministic_report_markdown(&r),
            baseline,
            "report differs at jobs={jobs}"
        );
        assert_eq!(r.diagnostics, serial.diagnostics, "diagnostics differ at jobs={jobs}");
        assert_eq!(
            format!("{:?}", r.modules),
            format!("{:?}", serial.modules),
            "module metrics differ at jobs={jobs}"
        );
    }
}

#[test]
fn warm_cache_run_skips_every_file_and_renders_identically() {
    let dir = temp_cache_dir("warm");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&cold, "cache.misses"), n);
    assert_eq!(counter(&cold, "cache.stores"), n);
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&warm, "cache.hits"), n, "warm run must hit every file");
    assert_eq!(counter(&warm, "parse.cached.files"), n);
    assert_eq!(counter(&warm, "parse.tier1.files"), 0, "warm run must not re-parse");
    assert_eq!(
        deterministic_report_markdown(&warm),
        deterministic_report_markdown(&cold)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn content_change_invalidates_only_the_changed_file() {
    let dir = temp_cache_dir("content");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    // Re-assess with one file's text changed.
    let mut a = Assessment::new().with_options(opts());
    for (i, (module, path, text)) in sample_files().into_iter().enumerate() {
        if i == 0 {
            a.add_file(module, path, &format!("{text}int g_extra;\n"));
        } else {
            a.add_file(module, path, &text);
        }
    }
    let r = a.run();
    assert_eq!(counter(&r, "cache.hits"), n - 1);
    assert_eq!(counter(&r, "cache.misses"), 1);
    assert_eq!(counter(&r, "parse.tier1.files"), 1, "only the changed file re-parses");
    // The new global shows up in the evidence even though every other
    // file came from the cache.
    assert_eq!(
        r.evidence.global_definitions,
        cold.evidence.global_definitions + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_invalidates_the_whole_cache() {
    let dir = temp_cache_dir("fingerprint");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let _cold = assess_samples(usize::MAX, opts());
    // A cache written by a different rule set / build.
    std::fs::write(
        dir.join("meta.json"),
        "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"0000000000000000\"}",
    )
    .unwrap();
    let r = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&r, "cache.hits"), 0, "stale fingerprint must not serve entries");
    assert_eq!(counter(&r, "cache.misses"), n);
    assert_eq!(counter(&r, "cache.stores"), n, "wiped cache is repopulated");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entry_recovers_via_cold_path() {
    let dir = temp_cache_dir("corrupt");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let cold = assess_samples(usize::MAX, opts());
    // Truncate one entry mid-JSON.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("meta.json"))
        .expect("cache entries were written");
    std::fs::write(&entry, "{\"schema\":\"adsafe-facts/1\",\"loc\":[1,").unwrap();
    let r = assess_samples(usize::MAX, opts());
    // The corruption is logged as an Info fault and re-analysed from
    // source — never a panic, never a degraded report.
    assert_eq!(counter(&r, "cache.corrupt"), 1);
    let fault = r
        .faults
        .iter()
        .find(|f| matches!(f.cause, FaultCause::CacheCorrupt { .. }))
        .expect("corrupt entry must be logged");
    assert_eq!(fault.severity, FaultSeverity::Info);
    assert!(!r.degraded, "a corrupt cache entry must not degrade the report");
    assert_eq!(
        r.diagnostics, cold.diagnostics,
        "cold-path recovery must reproduce the cold analysis"
    );
    // The bad entry was evicted and rewritten: next run is fully warm.
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&warm, "cache.corrupt"), 0);
    assert_eq!(counter(&warm, "cache.hits"), sample_files().len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_falls_through_to_cold_analysis() {
    // Occupy the cache path with a regular file: `create_dir_all` fails
    // even for root (which bypasses permission bits on read-only dirs).
    let path = temp_cache_dir("unusable");
    std::fs::write(&path, "not a directory").unwrap();
    let baseline = assess_samples(usize::MAX, AssessmentOptions::default());
    let r = assess_samples(
        usize::MAX,
        AssessmentOptions { cache_dir: Some(path.clone()), ..AssessmentOptions::default() },
    );
    assert_eq!(counter(&r, "cache.disabled"), 1);
    let fault = r
        .faults
        .iter()
        .find(|f| matches!(f.cause, FaultCause::CacheCorrupt { .. }))
        .expect("unusable cache dir must be logged as a fault");
    assert_eq!(fault.severity, FaultSeverity::Info);
    assert!(!r.degraded, "a lost accelerator must not degrade the report");
    // Same analysis as a cache-less run; only the fault log differs.
    assert_eq!(
        r.diagnostics, baseline.diagnostics,
        "cold fall-through must reproduce the cache-less analysis"
    );
    assert_eq!(format!("{:?}", r.modules), format!("{:?}", baseline.modules));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shared_store_makes_repeat_runs_warm() {
    let store = std::sync::Arc::new(adsafe::MemoryFactsStore::open(None));
    let opts = || AssessmentOptions {
        store: Some(store.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&cold, "cache.misses"), n);
    assert_eq!(counter(&cold, "cache.stores"), n);
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(counter(&warm, "cache.hits"), n, "resident store must serve every file");
    assert_eq!(counter(&warm, "parse.tier1.files"), 0, "warm run must not re-parse");
    assert_eq!(
        deterministic_report_markdown(&warm),
        deterministic_report_markdown(&cold)
    );
}

#[test]
fn memory_profiling_never_changes_report_bytes() {
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let run = |jobs: usize| {
        adsafe::assess_corpus(
            &corpus,
            AssessmentOptions { jobs, ..AssessmentOptions::default() },
        )
    };
    alloc::set_profiling(false);
    let baseline = deterministic_report_markdown(&run(1));
    // The determinism contract (DESIGN.md §14): allocation profiling is
    // a pure observer. Toggling it — serial or parallel — must leave
    // the deterministic report byte-identical, while profiling runs
    // still attribute allocations to pipeline phases.
    for (profiling, jobs) in [(false, 4), (true, 1), (true, 4)] {
        let prev = alloc::set_profiling(profiling);
        let r = run(jobs);
        alloc::set_profiling(prev);
        if profiling {
            assert!(
                r.trace.phase_mem.iter().any(|p| p.name == "parse" && p.bytes > 0),
                "profiling on must bill parse-phase allocations, got {:?}",
                r.trace.phase_mem
            );
        } else {
            assert!(
                r.trace.phase_mem.is_empty(),
                "profiling off must record nothing, got {:?}",
                r.trace.phase_mem
            );
        }
        assert_eq!(
            deterministic_report_markdown(&r),
            baseline,
            "report bytes differ at profiling={profiling} jobs={jobs}"
        );
    }
}

#[test]
fn checks_phase_speeds_up_with_workers() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let phase_us = |r: &AssessmentReport, name: &str| {
        r.trace.phases.iter().find(|p| p.name == name).map_or(0, |p| p.wall_us)
    };
    // Best-of-3 per configuration to shave scheduler noise.
    let best = |jobs: usize| {
        (0..3)
            .map(|_| {
                let r = adsafe::assess_corpus(
                    &corpus,
                    AssessmentOptions { jobs, ..AssessmentOptions::default() },
                );
                phase_us(&r, "checks")
            })
            .min()
            .unwrap()
    };
    let serial = best(1);
    let parallel = best(4);
    assert!(
        parallel * 2 <= serial,
        "checks phase: jobs=4 took {parallel}µs vs jobs=1 {serial}µs (need ≥2x)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any worker count over any prefix of the sample set produces
    /// exactly the serial analysis — diagnostics, modules, evidence.
    #[test]
    fn any_worker_count_matches_serial(jobs in 0usize..9, files in 1usize..7) {
        let serial = assess_samples(files, AssessmentOptions::default());
        let parallel = assess_samples(
            files,
            AssessmentOptions { jobs, ..AssessmentOptions::default() },
        );
        prop_assert_eq!(&parallel.diagnostics, &serial.diagnostics);
        prop_assert_eq!(
            deterministic_report_markdown(&parallel),
            deterministic_report_markdown(&serial)
        );
    }
}
