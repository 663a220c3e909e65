//! Query-rule integration: rows from cached facts, pack discovery and
//! loading, and fault mapping.
//!
//! The pipeline evaluates query rules over [`FileFacts`] records — the
//! same records the incremental cache replays — so a warm-cache run
//! never reparses a file just to answer a query. The row builders here
//! must agree value-for-value with `adsafe_query::rows_from_context`
//! (the live-AST path used by `adsafe rules check` and the parity
//! gate); both go through the same named-field structs, and the parity
//! integration test pins the agreement.

use crate::facts::FileFacts;
use crate::fault::{Fault, FaultCause, FaultPhase, FaultSeverity, Recovery};
use adsafe_checkers::default_checks;
use adsafe_lang::{FileId, Span};
use adsafe_query::{FileRow, FunctionRow, GlobalRow, PackFault, Row, RulePack, Selector};
use std::path::{Path, PathBuf};

/// Builds the rows `selector` ranges over for one file, from its facts
/// record. `recursive` is the whole-program recursive-function set
/// (qualified names) — only consulted by the `recursive` field.
pub fn rows_from_facts(
    selector: Selector,
    id: FileId,
    module: &str,
    facts: &FileFacts,
    recursive: &[String],
) -> Vec<Row> {
    match selector {
        Selector::Function => facts
            .functions
            .iter()
            .map(|f| {
                let m = &f.metrics;
                FunctionRow {
                    name: &m.name,
                    qualified: &m.qualified_name,
                    module,
                    cc: m.cyclomatic,
                    nloc: m.nloc,
                    params: m.param_count,
                    nesting: m.max_nesting,
                    returns: m.return_count,
                    multi_exit: m.multi_exit,
                    gotos: m.goto_count,
                    stmts: m.stmt_count,
                    is_gpu: m.is_gpu,
                    is_kernel: f.is_kernel,
                    ptr_params: f.ptr_params,
                    alloc_calls: f.alloc_calls,
                    uninit_reads: f.unit.maybe_uninit_reads,
                    shadowed: f.unit.shadowed_declarations,
                    pointer_uses: f.unit.pointer_uses,
                    alloc_sites: f.unit.dynamic_alloc_sites,
                    opaque_stmts: f.unit.opaque_stmts,
                    has_named_params: f.validation.has_named_params,
                    validates: f.validation.validates,
                    recursive: recursive.contains(&m.qualified_name),
                    span: Span::new(id, f.sig_start, f.sig_end),
                }
                .into_row()
            })
            .collect(),
        Selector::Global => facts
            .globals
            .iter()
            .map(|g| {
                GlobalRow {
                    name: &g.name,
                    module,
                    is_const: g.is_const,
                    is_extern: g.is_extern,
                    span: Span::new(id, 0, 0),
                }
                .into_row()
            })
            .collect(),
        Selector::File => vec![FileRow {
            module,
            physical: facts.loc.physical,
            nloc: facts.loc.nloc,
            comment: facts.loc.comment,
            blank: facts.loc.blank,
            directive: facts.loc.directive,
            recovery: facts.recovery_count,
            implicit_conversions: facts.implicit_conversions,
            functions: facts.functions.len(),
            globals: facts.globals.len(),
            span: Span::new(id, 0, 0),
        }
        .into_row()],
    }
}

/// Finds rule-pack files for a corpus root: `ROOT/.adsafe-rules/*.aq`,
/// sorted by file name for deterministic load order.
pub fn discover_rule_paths(root: &Path) -> Vec<PathBuf> {
    let dir = root.join(".adsafe-rules");
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("aq") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Resolves a `--rules` argument: a single pack file is used as-is, a
/// directory contributes its `*.aq` files in sorted order.
pub fn resolve_rules_arg(path: &Path) -> Vec<PathBuf> {
    if !path.is_dir() {
        return vec![path.to_path_buf()];
    }
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().and_then(|e| e.to_str()) == Some("aq") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Native rule ids, reserved so a pack can never shadow them.
pub fn native_rule_ids() -> Vec<&'static str> {
    default_checks().iter().map(|c| c.id()).collect()
}

/// Loads a rule pack from explicit paths. Unreadable files become
/// [`PackFault`]s (line 0); parse/type/collision faults come back from
/// the pack loader per rule. Native ids are always reserved.
pub fn load_rule_pack(paths: &[PathBuf]) -> RulePack {
    let mut sources = Vec::new();
    let mut io_faults = Vec::new();
    for path in paths {
        let label = path.display().to_string();
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((label, text)),
            Err(e) => io_faults.push(PackFault {
                file: label,
                line: 0,
                detail: format!("unreadable pack file: {e}"),
            }),
        }
    }
    let native = native_rule_ids();
    let mut pack = RulePack::from_sources(&sources, &native);
    // Unreadable files surface first: they are discovered first.
    io_faults.append(&mut pack.faults);
    pack.faults = io_faults;
    pack
}

/// Maps one contained pack-loading failure onto the fault taxonomy:
/// Info severity (no evidence affected), `Noted` recovery — the run
/// proceeds with the remaining rules.
pub fn pack_fault(pf: &PackFault) -> Fault {
    Fault::new(
        FaultPhase::Checks,
        &pf.file,
        FaultSeverity::Info,
        FaultCause::RulePackInvalid { line: pf.line, detail: pf.detail.clone() },
        Recovery::Noted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract_facts;
    use adsafe_checkers::AnalysisSet;
    use adsafe_query::rows_from_context;

    const SRC: &str = "\
const int kMax = 4;\n\
int counter;\n\
__global__ void kern(int* p, float* q) { p[0] = (int)q[0]; }\n\
int pick(int a) { if (a > 0) { return a; } return -a; }\n";

    /// The facts path and the live-AST path must produce identical
    /// rows — this is the invariant that makes warm-cache query runs
    /// byte-identical to cold ones.
    #[test]
    fn facts_rows_agree_with_context_rows() {
        let mut set = AnalysisSet::new();
        set.add("demo", "demo/demo.cu", SRC);
        let facts: Vec<_> = set
            .parsed()
            .map(|(id, module, parsed)| {
                (*id, module.to_string(), extract_facts(&set.sm, *id, parsed))
            })
            .collect();
        let cx = set.context();
        for sel in [Selector::Function, Selector::Global, Selector::File] {
            let from_facts: Vec<Row> = facts
                .iter()
                .flat_map(|(id, m, f)| rows_from_facts(sel, *id, m, f, &[]))
                .collect();
            let from_cx = rows_from_context(sel, &cx);
            assert_eq!(from_facts, from_cx, "{sel:?}");
        }
    }

    #[test]
    fn recursive_set_feeds_the_recursive_field() {
        let mut set = AnalysisSet::new();
        set.add("m", "m/a.cc", "int odd(int n) { if (n == 0) return 0; return odd(n - 1); }\n");
        let (id, module, facts) = set
            .parsed()
            .map(|(id, module, parsed)| {
                (*id, module.to_string(), extract_facts(&set.sm, *id, parsed))
            })
            .next()
            .unwrap();
        let cold = rows_from_facts(Selector::Function, id, &module, &facts, &[]);
        let hot =
            rows_from_facts(Selector::Function, id, &module, &facts, &["odd".to_string()]);
        let idx = adsafe_query::schema::lookup(Selector::Function, "recursive").unwrap().0;
        assert_eq!(cold[0].vals[idx as usize], adsafe_query::Value::Bool(false));
        assert_eq!(hot[0].vals[idx as usize], adsafe_query::Value::Bool(true));
    }

    #[test]
    fn unreadable_pack_is_a_contained_fault() {
        let pack = load_rule_pack(&[PathBuf::from("/nonexistent/rules.aq")]);
        assert!(pack.rules.is_empty());
        assert_eq!(pack.faults.len(), 1);
        assert!(pack.faults[0].detail.contains("unreadable"));
        let f = pack_fault(&pack.faults[0]);
        assert_eq!(f.severity, FaultSeverity::Info);
        assert_eq!(f.recovery, Recovery::Noted);
        assert!(f.to_string().contains("rule pack invalid"));
    }

    #[test]
    fn native_ids_are_reserved() {
        assert!(native_rule_ids().contains(&"misra-15.1-goto"));
    }
}
