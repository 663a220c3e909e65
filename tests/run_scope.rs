//! Run-scoped telemetry under concurrency: two assessments running at
//! the same time in one process must each report exactly what they
//! report alone — counters and per-phase allocation bills alike.
//!
//! This binary turns allocation profiling on and never off, so no
//! other test can change the switch under a run.

use adsafe::corpus::{generate, ApolloSpec, GeneratedFile};
use adsafe::trace::alloc;
use adsafe::{assess_corpus, AssessmentOptions, AssessmentReport};
use std::sync::Barrier;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Two short files in two modules, with findings for several rules.
fn small_corpus() -> Vec<GeneratedFile> {
    let file = |module: &str, path: &str, text: &str| GeneratedFile {
        module: module.to_string(),
        path: path.to_string(),
        text: text.to_string(),
    };
    vec![
        file(
            "perception",
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return (int)(*state * 1.5f);\n\
             }\n",
        ),
        file(
            "control",
            "control/pid.cc",
            "static int s_calls;\n\
             int Step(int err) {\n\
               s_calls = s_calls + 1;\n\
               goto done;\n\
             done:\n\
               return err;\n\
             }\n",
        ),
    ]
}

/// Runs one serial, uncached assessment on a fresh thread, so every
/// run starts from the same thread-local state.
fn run_on_fresh_thread(files: &[GeneratedFile]) -> AssessmentReport {
    std::thread::scope(|s| {
        s.spawn(|| assess_corpus(files, AssessmentOptions { jobs: 1, ..Default::default() }))
            .join()
            .unwrap()
    })
}

/// `bill`'s phases match `solo`'s: the same phase set, and bytes within
/// 5% per phase. Allocation is not bit-for-bit reproducible run to run
/// (hash-map seeds, lazily initialised statics), but another run's
/// allocations would show as a multiple of the solo bill.
fn assert_same_bill(what: &str, bill: &[alloc::PhaseMem], solo: &[alloc::PhaseMem]) {
    let names = |b: &[alloc::PhaseMem]| b.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(bill), names(solo), "{what}: phase set");
    for (c, s) in bill.iter().zip(solo) {
        let slack = s.bytes / 20 + 4096;
        assert!(
            c.bytes.abs_diff(s.bytes) <= slack,
            "{what}: phase {} billed {} bytes concurrently vs {} alone",
            c.name,
            c.bytes,
            s.bytes
        );
        assert!(
            c.allocs.abs_diff(s.allocs) <= s.allocs / 20 + 64,
            "{what}: phase {} made {} allocations concurrently vs {} alone",
            c.name,
            c.allocs,
            s.allocs
        );
    }
}

#[test]
fn concurrent_runs_report_exactly_their_solo_telemetry() {
    alloc::set_profiling(true);
    let large = generate(&ApolloSpec::test_scale());
    let small = small_corpus();
    let size = |files: &[GeneratedFile]| files.iter().map(|f| f.text.len()).sum::<usize>();
    assert!(size(&large) >= 10 * size(&small), "the corpora differ by at least 10x");

    // Warm the process (phase registration, registry entries), then
    // take each corpus's solo telemetry.
    run_on_fresh_thread(&small);
    run_on_fresh_thread(&large);
    let small_solo = run_on_fresh_thread(&small);
    let large_solo = run_on_fresh_thread(&large);
    assert!(!small_solo.trace.phase_mem.is_empty(), "profiling bills the run");

    for round in 0..2 {
        let start = Barrier::new(2);
        let (large_run, small_runs) = std::thread::scope(|s| {
            let large_run = s.spawn(|| {
                start.wait();
                assess_corpus(&large, AssessmentOptions { jobs: 1, ..Default::default() })
            });
            let small_runs = s.spawn(|| {
                start.wait();
                // Several small runs, all inside the large run's window.
                (0..3).map(|_| run_on_fresh_thread(&small)).collect::<Vec<_>>()
            });
            (large_run.join().unwrap(), small_runs.join().unwrap())
        });
        for (i, r) in small_runs.iter().enumerate() {
            let what = format!("round {round}, small run {i}");
            assert_eq!(r.trace.counters, small_solo.trace.counters, "{what}: counters");
            assert_same_bill(&what, &r.trace.phase_mem, &small_solo.trace.phase_mem);
        }
        let what = format!("round {round}, large run");
        assert_eq!(large_run.trace.counters, large_solo.trace.counters, "{what}: counters");
        assert_same_bill(&what, &large_run.trace.phase_mem, &large_solo.trace.phase_mem);
    }
}
