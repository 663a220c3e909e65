//! Metamorphic verdict tests: every ISO 26262 observation is a count
//! over code, so a transform that preserves the code's semantics must
//! leave every verdict and every piece of evidence where it was, and a
//! targeted mutation must move exactly the counts it touches, by
//! exactly the expected amount, at the mutated site.
//!
//! Each relation is checked serially and on two pool workers over the
//! test-scale Apollo-shaped corpus.

use adsafe::corpus::{generate, ApolloSpec, GeneratedFile};
use adsafe::iso26262::Evidence;
use adsafe::lang::FileId;
use adsafe::{assess_corpus, AssessmentOptions, AssessmentReport};

fn corpus() -> Vec<GeneratedFile> {
    generate(&ApolloSpec::test_scale())
}

fn run(files: &[GeneratedFile], jobs: usize) -> AssessmentReport {
    assess_corpus(files, AssessmentOptions { jobs, ..AssessmentOptions::default() })
}

fn verdicts(r: &AssessmentReport) -> Vec<String> {
    r.compliance.verdicts.iter().map(|v| format!("{v:?}")).collect()
}

/// The evidence with `module_locs` sorted: modules are listed in the
/// order their first file was added, which the transform may change.
fn canonical_evidence(r: &AssessmentReport) -> Evidence {
    let mut e = r.evidence.clone();
    e.module_locs.sort();
    e
}

#[test]
fn reversing_file_order_leaves_verdicts_and_evidence_unchanged() {
    let files = corpus();
    let reversed: Vec<GeneratedFile> = files.iter().rev().cloned().collect();
    for jobs in [1, 2] {
        let (forward, backward) = (run(&files, jobs), run(&reversed, jobs));
        assert_eq!(forward.compliance.verdicts.len(), 25);
        assert_eq!(verdicts(&forward), verdicts(&backward), "jobs={jobs}");
        assert_eq!(forward.diagnostics.len(), backward.diagnostics.len(), "jobs={jobs}");
        assert_eq!(canonical_evidence(&forward), canonical_evidence(&backward), "jobs={jobs}");
    }
}

/// A targeted mutation: one function appended to an existing file,
/// which must move one `Evidence` count and one rule's findings by
/// exactly one, with the new finding in that function.
struct Probe {
    source: &'static str,
    function: &'static str,
    field: fn(&Evidence) -> usize,
    rule: &'static str,
}

const PROBES: [Probe; 3] = [
    Probe {
        source: "\nint MetamorphicGotoProbe(int x) {\n  if (x < 0) goto done;\n  \
                 x = x + 1;\ndone:\n  return x;\n}\n",
        function: "MetamorphicGotoProbe",
        field: |e| e.goto_count,
        rule: "misra-15.1-goto",
    },
    Probe {
        source: "\nint* MetamorphicMallocProbe(int n) {\n  \
                 return (int*)malloc(n * sizeof(int));\n}\n",
        function: "MetamorphicMallocProbe",
        field: |e| e.dynamic_alloc_sites,
        rule: "misra-21.3-dynamic-memory",
    },
    Probe {
        source: "\nint MetamorphicRecursionProbe(int n) {\n  \
                 return n <= 0 ? 0 : MetamorphicRecursionProbe(n - 1);\n}\n",
        function: "MetamorphicRecursionProbe",
        field: |e| e.recursive_functions,
        rule: "misra-17.2-recursion",
    },
];

#[test]
fn one_inserted_goto_moves_the_goto_counts_by_exactly_one_at_that_file() {
    let files = corpus();
    let target = files.iter().position(|f| f.path.ends_with(".cc")).expect("a .cc file");
    for jobs in [1, 2] {
        let base = run(&files, jobs);
        for p in &PROBES {
            let mut mutated = files.clone();
            mutated[target].text.push_str(p.source);
            let mutant = run(&mutated, jobs);
            let at = format!("jobs={jobs} probe={}", p.function);
            assert_eq!((p.field)(&mutant.evidence), (p.field)(&base.evidence) + 1, "{at}");
            let before = base.diagnostics_for(p.rule);
            let after = mutant.diagnostics_for(p.rule);
            assert_eq!(after.len(), before.len() + 1, "{at}");
            let probe: Vec<_> =
                after.iter().filter(|d| d.function.as_deref() == Some(p.function)).collect();
            assert_eq!(probe.len(), 1, "{at}: {after:?}");
            assert_eq!(probe[0].span.file, FileId(target as u32), "{at}");
        }
    }
}
