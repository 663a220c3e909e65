//! Deterministic fault-injection harness for the assessment pipeline.
//!
//! Two families of scenarios, both seeded and reproducible:
//!
//! * **Corruption scenarios** — corpus files corrupted by
//!   `adsafe-corpus::faultinject` (truncation, brace deletion, byte
//!   flips, non-UTF-8 noise) are fed through the full pipeline.
//! * **Failpoint scenarios** — named points inside the pipeline are
//!   armed with panics or delays through `adsafe::fault::failpoints`.
//!
//! Every scenario must satisfy the containment contract: no panic
//! escapes `Assessment::run`, the report renders, `degraded` is true,
//! and the fault log is non-empty.

use adsafe::corpus::faultinject::{corrupt, Corruption};
use adsafe::corpus::{generate, ApolloSpec, GeneratedFile};
use adsafe::fault::failpoints::{self, Action};
use adsafe::render::full_report_markdown;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport, Budgets};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};
use std::time::Duration;

/// Silence contained panics (they are the point of these tests), but
/// keep printing panics raised by the harness's own assertions.
fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let from_harness =
                info.location().is_some_and(|l| l.file().ends_with("fault_injection.rs"));
            if from_harness {
                eprintln!("{info}");
            }
        }))
    });
}

/// One mid-sized generated corpus file to corrupt, plus its module.
fn victim() -> &'static GeneratedFile {
    static VICTIM: OnceLock<GeneratedFile> = OnceLock::new();
    VICTIM.get_or_init(|| {
        let files = generate(&ApolloSpec::test_scale());
        files
            .into_iter()
            .find(|f| f.path.ends_with(".cc") && f.text.len() > 2_000)
            .expect("test corpus has a mid-sized .cc file")
    })
}

/// Runs the pipeline under containment assertions only: no panic may
/// escape `Assessment::run`, and the report must render.
fn contained_run(
    name: &str,
    options: AssessmentOptions,
    build: impl FnOnce(&mut Assessment),
) -> (AssessmentReport, String) {
    quiet_panics();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut a = Assessment::new().with_options(options);
        a.add_file("healthy", "healthy/base.cc", "int Base(int x) { return x + 1; }\n");
        build(&mut a);
        let report = a.run();
        let rendered = full_report_markdown(&report);
        (report, rendered)
    }));
    match outcome {
        Ok(pair) => pair,
        Err(_) => panic!("scenario `{name}`: a panic escaped the pipeline"),
    }
}

/// Runs one scenario end to end and enforces the full contract:
/// containment, non-empty fault log, degraded report, rendered fault
/// section, and survival of the healthy module's evidence.
fn run_scenario(
    name: &str,
    options: AssessmentOptions,
    build: impl FnOnce(&mut Assessment),
) -> AssessmentReport {
    let (report, rendered) = contained_run(name, options, build);
    assert!(
        !report.faults.is_empty(),
        "scenario `{name}`: fault log is empty"
    );
    assert!(report.degraded, "scenario `{name}`: report not marked degraded");
    assert!(
        rendered.contains("## Fault log"),
        "scenario `{name}`: rendered report lacks the fault section"
    );
    // The healthy file's evidence always survives.
    assert!(
        report.modules.iter().any(|m| m.name == "healthy"),
        "scenario `{name}`: healthy module lost"
    );
    report
}

/// 16 corruption scenarios: every corruption kind × four base seeds,
/// each applied to a real generated corpus file.
///
/// The error-tolerant parser legitimately absorbs some corruptions
/// without losing evidence (e.g. a truncation that lands near a
/// declaration boundary), so each scenario walks a deterministic seed
/// chain until the corruption actually costs evidence. Containment is
/// asserted on *every* attempt; the degradation contract on the first
/// degrading one.
#[test]
fn corruption_scenarios_degrade_but_never_escape() {
    let v = victim();
    let mut scenarios = 0usize;
    for kind in Corruption::ALL {
        for base_seed in 0..4u64 {
            let name = format!("{}#{}", kind.name(), base_seed);
            let mut degraded_report = None;
            for attempt in 0..12u64 {
                let seed = base_seed + 1000 * attempt;
                let bytes = corrupt(seed, kind, &v.path, &v.text);
                let (report, rendered) =
                    contained_run(&name, AssessmentOptions::default(), |a| {
                        a.add_file_bytes(&v.module, &v.path, &bytes);
                    });
                if report.degraded && report.faults.iter().any(|f| f.path == v.path) {
                    assert!(
                        rendered.contains("## Fault log"),
                        "scenario `{name}`: rendered report lacks the fault section"
                    );
                    degraded_report = Some(report);
                    break;
                }
            }
            let report = degraded_report.unwrap_or_else(|| {
                panic!("scenario `{name}`: no seed in the chain cost evidence")
            });
            assert!(report.modules.iter().any(|m| m.name == "healthy"));
            scenarios += 1;
        }
    }
    assert_eq!(scenarios, 16);
}

#[test]
fn failpoint_parse_panic_any_file() {
    let _g = failpoints::Armed::new("pipeline::parse_file", Action::Panic("injected".into()));
    let v = victim();
    let r = run_scenario("parse-panic-any", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    // Panic self-disarms: exactly one file was hit, the rest parsed.
    assert_eq!(r.faults.len(), 1);
}

#[test]
fn failpoint_parse_panic_targeted_file() {
    let v = victim();
    let _g = failpoints::Armed::new(
        &format!("pipeline::parse_file::{}", v.path),
        Action::Panic("targeted parser bug".into()),
    );
    let r = run_scenario("parse-panic-targeted", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    let f = r.faults.iter().find(|f| f.path == v.path).expect("targeted fault");
    assert_eq!(f.recovery, adsafe::Recovery::TokenMetrics);
    // Tier 3 kept the file contributing: its module exists with
    // absorbed (token-estimated) evidence.
    let m = r.modules.iter().find(|m| m.name == v.module).expect("module survives");
    assert_eq!(m.absorbed_files, 1);
    assert!(m.loc.nloc > 0);
}

#[test]
fn failpoint_checker_panic_generic() {
    let _g = failpoints::Armed::new("pipeline::check", Action::Panic("rule bug".into()));
    let r = run_scenario("check-panic-any", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int g;\nint f() { goto x; x: return (int)1.5; }\n");
    });
    assert!(r.faults.iter().any(|f| f.phase == adsafe::FaultPhase::Checks));
    // Only one rule was lost; the rest still produced diagnostics.
    assert!(!r.diagnostics.is_empty());
}

#[test]
fn failpoint_checker_panic_targeted_rule_keeps_other_rules() {
    let _g = failpoints::Armed::new(
        "pipeline::check::misra-15.1-goto",
        Action::Panic("goto rule bug".into()),
    );
    let r = run_scenario("check-panic-targeted", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int g;\nint f() { goto x; x: return (int)1.5; }\n");
    });
    // The armed rule produced no diagnostics but was logged.
    assert!(r.diagnostics_for("misra-15.1-goto").is_empty());
    assert!(r.faults.iter().any(|f| f.path == "misra-15.1-goto"));
    // Unrelated rules still fired on the same file.
    assert!(!r.diagnostics_for("typing-explicit-cast").is_empty());
}

#[test]
fn failpoint_metrics_panic_falls_back_to_estimates() {
    let _g = failpoints::Armed::new("pipeline::metrics::m", Action::Panic("metrics bug".into()));
    let r = run_scenario("metrics-panic", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int f() { if (f()) return 1; return 0; }\n");
    });
    let m = r.modules.iter().find(|m| m.name == "m").expect("module present");
    // Whole module fell to token estimation, but kept its NLOC.
    assert_eq!(m.absorbed_files, m.file_count);
    assert!(m.loc.nloc > 0);
    assert!(r.faults.iter().any(|f| f.phase == adsafe::FaultPhase::Metrics));
}

#[test]
fn failpoint_assess_panic_yields_conservative_defaults() {
    let _g = failpoints::Armed::new("pipeline::assess", Action::Panic("stats bug".into()));
    let r = run_scenario("assess-panic", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int f() { return 1; }\n");
    });
    assert_eq!(r.faults.worst(), Some(adsafe::FaultSeverity::Critical));
    assert!(r.faults.iter().any(|f| f.phase == adsafe::FaultPhase::Assess));
}

#[test]
fn failpoint_delay_trips_parse_deadline() {
    let _g = failpoints::Armed::new(
        "pipeline::parse_file",
        Action::Delay(Duration::from_millis(30)),
    );
    let options = AssessmentOptions {
        budgets: Budgets { phase_deadline: Some(Duration::from_millis(10)) },
        ..AssessmentOptions::default()
    };
    let r = run_scenario("parse-deadline", options, |a| {
        for i in 0..3 {
            a.add_file("m", &format!("m/f{i}.cc"), "int f() { return 1; }\n");
        }
    });
    assert!(r
        .faults
        .iter()
        .any(|f| matches!(f.cause, adsafe::FaultCause::DeadlineExceeded { .. })));
    // Files past the deadline still contributed through tier 3.
    let m = r.modules.iter().find(|m| m.name == "m").expect("module present");
    assert_eq!(m.file_count, 3);
    assert!(m.absorbed_files >= 1);
}

#[test]
fn failpoint_combined_parse_and_check_faults_accumulate() {
    let v = victim();
    let _g1 = failpoints::Armed::new(
        &format!("pipeline::parse_file::{}", v.path),
        Action::Panic("parser bug".into()),
    );
    let _g2 = failpoints::Armed::new(
        "pipeline::check::misra-15.5-multi-exit",
        Action::Panic("rule bug".into()),
    );
    let r = run_scenario("combined", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    assert!(r.faults.iter().any(|f| f.phase == adsafe::FaultPhase::Parse));
    assert!(r.faults.iter().any(|f| f.phase == adsafe::FaultPhase::Checks));
    assert!(r.faults.len() >= 2);
    assert_eq!(
        r.faults.counts_by_phase().len(),
        2,
        "parse and checks each contribute a count bucket"
    );
}

/// The containment contract also holds when *every* input is hostile:
/// all four corruptions of the same file assessed together.
#[test]
fn all_corruptions_at_once_still_produce_a_report() {
    let v = victim();
    let r = run_scenario("all-corruptions", AssessmentOptions::default(), |a| {
        for (i, c) in adsafe::corpus::corrupt_all(11, v).into_iter().enumerate() {
            a.add_file_bytes(&c.module, &format!("{}.v{}", c.path, i), &c.bytes);
        }
    });
    assert!(r.faults.len() >= 2);
    assert!(r.evidence.total_loc > 0, "degraded evidence still carries NLOC");
}

/// Failpoints armed on the calling thread fire inside the tasks an
/// assessment fans out to pool workers, so a parallel run contains
/// exactly the faults a serial one does.
#[test]
fn failpoints_fire_on_pool_workers_as_on_the_caller() {
    let faults_at = |jobs: usize| {
        // Panic actions disarm on first hit, so each run arms afresh.
        let _g1 = failpoints::Armed::new(
            "pipeline::parse_file::m/a.cc",
            Action::Panic("parser bug".into()),
        );
        let _g2 =
            failpoints::Armed::new("pipeline::metrics::n", Action::Panic("metrics bug".into()));
        let options = AssessmentOptions { jobs, ..AssessmentOptions::default() };
        let r = run_scenario(&format!("worker-failpoints-j{jobs}"), options, |a| {
            a.add_file("m", "m/a.cc", "int f() { if (f()) return 1; return 0; }\n");
            a.add_file("m", "m/b.cc", "int g() { return 2; }\n");
            a.add_file("n", "n/c.cc", "int h(int x) { return x * 2; }\n");
        });
        r.faults.as_slice().to_vec()
    };
    let serial = faults_at(1);
    assert_eq!(serial.len(), 2, "{serial:?}");
    assert!(serial.iter().any(|f| f.path == "m/a.cc" && f.phase == adsafe::FaultPhase::Parse));
    assert!(serial.iter().any(|f| f.path == "n" && f.phase == adsafe::FaultPhase::Metrics));
    assert_eq!(faults_at(2), serial);
}
