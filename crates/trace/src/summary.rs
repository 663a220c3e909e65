//! Distilled per-run observability: the [`TraceSummary`] that rides on
//! an `AssessmentReport`.
//!
//! Built from one run's drained [`SpanEvent`]s: per-phase wall time
//! (spans with category `"phase"`), the slowest files (`parse.file`
//! spans, annotated with their `path` arg), the slowest checker rules
//! (`check.*` spans, aggregated per rule), and the run's counters.

use crate::span::SpanEvent;

/// Wall time of one pipeline phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTime {
    /// Phase name (`parse`, `checks`, `metrics`, `assess`).
    pub name: String,
    /// Wall-clock time in µs.
    pub wall_us: u64,
}

/// Per-run trace digest: phase timings, hotspots, counters, and the
/// raw events (for Chrome export / flame rendering).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Whole-run wall time in µs (the `assessment.run` span).
    pub total_us: u64,
    /// Per-phase wall time, in execution order.
    pub phases: Vec<PhaseTime>,
    /// Top files by time spent handling them (path, µs), descending.
    pub slowest_files: Vec<(String, u64)>,
    /// Top checker rules by total run time (rule id, µs), descending.
    pub slowest_rules: Vec<(String, u64)>,
    /// Counter increments made by this run — on its own thread and on
    /// the pool workers it fanned out to — sorted by name, zero entries
    /// omitted ([`crate::RunScope::counters`]). Other runs in the same
    /// process never contribute.
    pub counters: Vec<(String, u64)>,
    /// Per-phase allocation totals billed to this run
    /// ([`crate::RunScope::phase_mem`]); empty unless a
    /// [`crate::alloc::CountingAlloc`] is installed and profiling was
    /// on.
    pub phase_mem: Vec<crate::alloc::PhaseMem>,
    /// The run's raw span events.
    pub events: Vec<SpanEvent>,
}

/// How many hotspots [`TraceSummary`] keeps per category.
pub const TOP_N: usize = 10;

impl TraceSummary {
    /// Builds the digest from one run's drained events plus its
    /// counters (see [`crate::RunScope::counters`]).
    pub fn from_events(events: Vec<SpanEvent>, counters: Vec<(String, u64)>) -> Self {
        let mut phases = Vec::new();
        let mut files: Vec<(String, u64)> = Vec::new();
        let mut rules: Vec<(String, u64)> = Vec::new();
        let mut total_us = 0u64;
        for e in &events {
            if e.cat == "phase" {
                let name = e.name.strip_prefix("phase.").unwrap_or(&e.name).to_string();
                match phases.iter_mut().find(|p: &&mut PhaseTime| p.name == name) {
                    Some(p) => p.wall_us += e.dur_us,
                    None => phases.push(PhaseTime { name, wall_us: e.dur_us }),
                }
            } else if e.name == "assessment.run" {
                total_us = total_us.max(e.dur_us);
            } else if e.name == "parse.file" {
                if let Some((_, path)) = e.args.iter().find(|(k, _)| *k == "path") {
                    files.push((path.clone(), e.dur_us));
                }
            } else if let Some(rule) = e.name.strip_prefix("check.") {
                match rules.iter_mut().find(|(r, _)| r == rule) {
                    Some((_, us)) => *us += e.dur_us,
                    None => rules.push((rule.to_string(), e.dur_us)),
                }
            }
        }
        if total_us == 0 {
            total_us = phases.iter().map(|p| p.wall_us).sum();
        }
        let top = |mut v: Vec<(String, u64)>| {
            // Stable tie-break on the name keeps output deterministic.
            v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v.truncate(TOP_N);
            v
        };
        TraceSummary {
            total_us,
            phases,
            slowest_files: top(files),
            slowest_rules: top(rules),
            counters,
            phase_mem: Vec::new(),
            events,
        }
    }

    /// Allocation totals of `phase` (bytes billed during this run), if
    /// memory profiling captured it.
    pub fn phase_mem_bytes(&self, phase: &str) -> Option<u64> {
        self.phase_mem.iter().find(|p| p.name == phase).map(|p| p.bytes)
    }

    /// Wall time of `phase` in milliseconds, if that phase ran.
    pub fn phase_ms(&self, phase: &str) -> Option<f64> {
        self.phases.iter().find(|p| p.name == phase).map(|p| p.wall_us as f64 / 1000.0)
    }

    /// The run's events as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(&self.events)
    }

    /// The run's events as an in-terminal flame summary; phase frames
    /// carry a memory column when the run captured allocation totals.
    pub fn flame(&self) -> String {
        crate::flame::flame_summary_with_mem(&self.events, 12, &self.phase_mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat: &'static str, start: u64, dur: u64, depth: usize) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat,
            start_us: start,
            dur_us: dur,
            depth,
            tid: 1,
            args: Vec::new(),
        }
    }

    fn file_ev(path: &str, dur: u64) -> SpanEvent {
        SpanEvent {
            args: vec![("path", path.to_string())],
            ..ev("parse.file", "parse", 0, dur, 2)
        }
    }

    #[test]
    fn digest_extracts_phases_files_rules() {
        let events = vec![
            ev("assessment.run", "run", 0, 1000, 0),
            ev("phase.parse", "phase", 0, 600, 1),
            file_ev("slow.cc", 400),
            file_ev("fast.cc", 5),
            ev("phase.checks", "phase", 600, 300, 1),
            ev("check.misra-15.1-goto", "checks", 610, 80, 2),
            ev("check.misra-15.1-goto", "checks", 700, 20, 2),
            ev("check.style-line", "checks", 720, 30, 2),
        ];
        let s = TraceSummary::from_events(events, vec![("parse.files".into(), 2)]);
        assert_eq!(s.total_us, 1000);
        assert_eq!(s.phase_ms("parse"), Some(0.6));
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.slowest_files[0], ("slow.cc".to_string(), 400));
        assert_eq!(s.slowest_rules[0], ("misra-15.1-goto".to_string(), 100));
        assert_eq!(s.counters.len(), 1);
    }

    #[test]
    fn hotspots_are_capped_at_top_n() {
        let mut events = vec![ev("assessment.run", "run", 0, 1000, 0)];
        for i in 0..25 {
            events.push(file_ev(&format!("f{i}.cc"), 100 + i));
        }
        let s = TraceSummary::from_events(events, Vec::new());
        assert_eq!(s.slowest_files.len(), TOP_N);
        assert_eq!(s.slowest_files[0].0, "f24.cc");
    }

    #[test]
    fn empty_summary_is_harmless() {
        let s = TraceSummary::default();
        assert_eq!(s.phase_ms("parse"), None);
        assert!(crate::chrome::validate(&s.to_chrome_json()).is_ok());
        assert!(s.flame().contains("0 span(s)"));
    }
}
