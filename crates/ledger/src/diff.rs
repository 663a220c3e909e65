//! Compliance-drift detection between two ledger records.
//!
//! A [`RunDiff`] answers the continuous-compliance question the paper's
//! one-shot tables cannot: *did adherence move?* It compares two
//! [`RunRecord`]s along four axes — table verdicts, observations,
//! evidence metrics, and phase timings — and classifies each change:
//!
//! - **Verdict flips** carry a direction: a status whose badness rank
//!   increased (`compliant` → `partial` → `non-compliant`) is a
//!   *regression*; the reverse is an improvement.
//! - **Observation flips** are direction-tagged the same way: an
//!   observation that starts to hold is a regression, because every
//!   observation in the paper describes a compliance *gap*.
//! - **Metric changes** flag ISO-threshold crossings: a count metric
//!   (`goto_count`, `recursive_functions`, …) moving between zero and
//!   non-zero crosses the presence threshold the Part-6 tables judge.
//! - **Phase regressions** flag a phase more than 2× slower than in run
//!   A (1 ms noise floor) — reported for visibility but never part of
//!   [`RunDiff::has_drift`], which is the CI-gate signal and covers
//!   compliance only.

use crate::record::{RunRecord, VerdictRow};
use std::fmt::Write as _;

/// A phase regressed when it ran more than this many times slower.
const FACTOR: f64 = 2.0;

/// Phases faster than this are noise, not signal: they are never
/// flagged as regressions (a 0.2 ms phase doubling is jitter).
const NOISE_FLOOR_MS: f64 = 1.0;

/// One table verdict that changed between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictFlip {
    /// Join key (`t1r3`).
    pub key: String,
    /// Topic name, for display.
    pub topic: String,
    /// Status in run A.
    pub from: String,
    /// Status in run B.
    pub to: String,
    /// Whether the flip moved toward non-compliance.
    pub regressed: bool,
    /// Whether the row is blocking in run B.
    pub blocking: bool,
}

/// One observation that changed between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationFlip {
    /// Observation number (1–14).
    pub number: u8,
    /// Whether it holds in run B (it held the other way in run A).
    pub holds_now: bool,
}

/// One evidence metric that moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricChange {
    /// Metric name.
    pub name: String,
    /// Value in run A.
    pub from: f64,
    /// Value in run B.
    pub to: f64,
    /// Whether the move crossed the zero/non-zero presence threshold
    /// the ISO tables judge counts against.
    pub crossed_threshold: bool,
}

/// One phase that slowed beyond the allowed factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Phase name.
    pub phase: String,
    /// Run A's wall ms.
    pub baseline_ms: f64,
    /// Run B's wall ms.
    pub current_ms: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase `{}` regressed {:.1}x: {:.2} ms -> {:.2} ms",
            self.phase,
            self.current_ms / self.baseline_ms.max(f64::MIN_POSITIVE),
            self.baseline_ms,
            self.current_ms
        )
    }
}

/// Phases of `b` that run more than [`FACTOR`]× slower than in `a`, in
/// `b`'s phase order. Phases under [`NOISE_FLOOR_MS`] in `a` are held
/// to the floor×factor bar instead, so microsecond phases cannot
/// produce spurious failures. A phase missing from `a` is skipped.
fn phase_regressions(a: &RunRecord, b: &RunRecord) -> Vec<Regression> {
    let ms = |us: u64| us as f64 / 1000.0;
    b.phases
        .iter()
        .filter_map(|(name, cur_us)| {
            let (_, base_us) = a.phases.iter().find(|(n, _)| n == name)?;
            let (baseline_ms, current_ms) = (ms(*base_us), ms(*cur_us));
            (current_ms > baseline_ms.max(NOISE_FLOOR_MS) * FACTOR).then(|| Regression {
                phase: name.clone(),
                baseline_ms,
                current_ms,
            })
        })
        .collect()
}

/// Everything that changed between two runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDiff {
    /// Run ID of the older run (A).
    pub from_run: String,
    /// Run ID of the newer run (B).
    pub to_run: String,
    /// Whether the two runs assessed byte-identical corpora.
    pub same_corpus: bool,
    /// Whether the two runs used the same ruleset fingerprint.
    pub same_ruleset: bool,
    /// Verdicts whose status changed.
    pub verdict_flips: Vec<VerdictFlip>,
    /// Observations whose truth changed.
    pub observation_flips: Vec<ObservationFlip>,
    /// Metrics that moved (threshold crossings and plain drifts).
    pub metric_changes: Vec<MetricChange>,
    /// Phases that slowed beyond the 2×/noise-floor gate.
    pub phase_regressions: Vec<Regression>,
}

impl RunDiff {
    /// Diffs run `a` (baseline) against run `b` (candidate).
    pub fn between(a: &RunRecord, b: &RunRecord) -> RunDiff {
        let mut verdict_flips = Vec::new();
        for vb in &b.verdicts {
            let Some(va) = a
                .verdicts
                .iter()
                .find(|v| v.table == vb.table && v.row == vb.row)
            else {
                continue;
            };
            if va.status != vb.status {
                verdict_flips.push(VerdictFlip {
                    key: vb.key(),
                    topic: vb.topic.clone(),
                    from: va.status.clone(),
                    to: vb.status.clone(),
                    regressed: VerdictRow::status_rank(&vb.status)
                        > VerdictRow::status_rank(&va.status),
                    blocking: vb.blocking,
                });
            }
        }
        let mut observation_flips = Vec::new();
        for (num, holds_b) in &b.observations {
            let Some((_, holds_a)) = a.observations.iter().find(|(n, _)| n == num) else {
                continue;
            };
            if holds_a != holds_b {
                observation_flips.push(ObservationFlip { number: *num, holds_now: *holds_b });
            }
        }
        let mut metric_changes = Vec::new();
        for (name, vb) in &b.metrics {
            let Some(va) = a.metric(name) else { continue };
            if va != *vb {
                metric_changes.push(MetricChange {
                    name: name.clone(),
                    from: va,
                    to: *vb,
                    crossed_threshold: (va == 0.0) != (*vb == 0.0),
                });
            }
        }
        let phase_regressions = phase_regressions(a, b);
        RunDiff {
            from_run: a.run.clone(),
            to_run: b.run.clone(),
            same_corpus: a.corpus_digest == b.corpus_digest,
            same_ruleset: a.fingerprint == b.fingerprint,
            verdict_flips,
            observation_flips,
            metric_changes,
            phase_regressions,
        }
    }

    /// Whether compliance moved at all — any verdict or observation
    /// flip, in either direction. This is the CI-gate signal
    /// (`adsafe diff` exits non-zero on it); performance regressions
    /// deliberately do not trip it.
    pub fn has_drift(&self) -> bool {
        !self.verdict_flips.is_empty() || !self.observation_flips.is_empty()
    }

    /// Whether any flip moved *toward* non-compliance.
    pub fn has_regression(&self) -> bool {
        self.verdict_flips.iter().any(|f| f.regressed)
            || self.observation_flips.iter().any(|f| f.holds_now)
    }

    /// Renders the diff as a terminal-friendly report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Drift: {} → {}", self.from_run, self.to_run);
        if !self.same_corpus {
            out.push_str("- corpus changed (content digests differ)\n");
        }
        if !self.same_ruleset {
            out.push_str("- ruleset fingerprint changed (verdict moves may be tool-side)\n");
        }
        if !self.has_drift() {
            out.push_str("\nNo compliance drift.\n");
        } else {
            let _ = writeln!(
                out,
                "\n{} verdict flip(s), {} observation flip(s):",
                self.verdict_flips.len(),
                self.observation_flips.len()
            );
            for f in &self.verdict_flips {
                let dir = if f.regressed { "REGRESSED" } else { "improved" };
                let gate = if f.blocking { ", now blocking" } else { "" };
                let _ = writeln!(
                    out,
                    "- [{}] {} ({}): {} → {} ({dir}{gate})",
                    f.key, f.topic, dir_arrow(f.regressed), f.from, f.to
                );
            }
            for f in &self.observation_flips {
                let (verb, dir) = if f.holds_now {
                    ("now holds", "REGRESSED")
                } else {
                    ("no longer holds", "improved")
                };
                let _ = writeln!(out, "- observation {} {verb} ({dir})", f.number);
            }
        }
        let crossings: Vec<&MetricChange> =
            self.metric_changes.iter().filter(|m| m.crossed_threshold).collect();
        if !crossings.is_empty() {
            out.push_str("\nISO-threshold crossings:\n");
            for m in crossings {
                let _ = writeln!(out, "- {}: {} → {}", m.name, m.from, m.to);
            }
        }
        if !self.phase_regressions.is_empty() {
            out.push_str("\nPhase-time regressions (2x gate, 1 ms floor):\n");
            for r in &self.phase_regressions {
                let _ = writeln!(out, "- {r}");
            }
        }
        out
    }
}

fn dir_arrow(regressed: bool) -> &'static str {
    if regressed {
        "↓"
    } else {
        "↑"
    }
}

/// Renders the `adsafe history` table: newest-last rows of id, exit
/// code, degradation, and verdict/observation deltas vs the previous
/// run. `last` limits to the most recent N runs (0 = all).
pub fn history_table(records: &[RunRecord], last: usize) -> String {
    let mut out = String::new();
    out.push_str("run               seq  exit  degraded  files  blocking  drift vs prev\n");
    let start = if last > 0 && records.len() > last { records.len() - last } else { 0 };
    for i in start..records.len() {
        let r = &records[i];
        let drift = if i == 0 {
            "-".to_string()
        } else {
            let d = RunDiff::between(&records[i - 1], r);
            if !d.has_drift() {
                "none".to_string()
            } else {
                let dir = if d.has_regression() { "regressed" } else { "improved" };
                format!(
                    "{}v/{}o {dir}",
                    d.verdict_flips.len(),
                    d.observation_flips.len()
                )
            }
        };
        let _ = writeln!(
            out,
            "{:<17} {:>4}  {:>4}  {:<8}  {:>5}  {:>8}  {drift}",
            r.run,
            r.seq,
            r.exit_code,
            if r.degraded { "yes" } else { "no" },
            r.files,
            r.blocking_count(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seq: u64, status_r1: &str, obs1: bool) -> RunRecord {
        RunRecord {
            run: format!("r{seq:06}-aaaaaaaa"),
            seq,
            corpus_root: "c".into(),
            corpus_digest: "d".into(),
            files: 2,
            fingerprint: "fp".into(),
            asil: "ASIL-D".into(),
            exit_code: 1,
            degraded: false,
            tier: "full".into(),
            total_us: 9000,
            phases: vec![("parse".into(), 4000), ("checks".into(), 5000)],
            fault_counts: Vec::new(),
            worst_severity: None,
            cache_hits: 0,
            cache_stores: 2,
            verdicts: vec![
                VerdictRow {
                    table: 1,
                    row: 1,
                    topic: "Low complexity".into(),
                    status: status_r1.into(),
                    effort: "moderate".into(),
                    blocking: status_r1 == "non-compliant",
                },
                VerdictRow {
                    table: 3,
                    row: 2,
                    topic: "Strong typing".into(),
                    status: "partial".into(),
                    effort: "moderate".into(),
                    blocking: false,
                },
            ],
            observations: vec![(1, obs1), (2, true)],
            metrics: vec![
                ("goto_count".into(), if obs1 { 3.0 } else { 0.0 }),
                ("total_loc".into(), 100.0),
            ],
        }
    }

    #[test]
    fn identical_runs_have_no_drift() {
        let d = RunDiff::between(&run(1, "partial", false), &run(2, "partial", false));
        assert!(!d.has_drift());
        assert!(!d.has_regression());
        assert!(d.same_corpus && d.same_ruleset);
        assert!(d.verdict_flips.is_empty() && d.metric_changes.is_empty());
        assert!(d.render().contains("No compliance drift"));
    }

    #[test]
    fn regression_is_directional() {
        let d = RunDiff::between(&run(1, "partial", false), &run(2, "non-compliant", true));
        assert!(d.has_drift() && d.has_regression());
        assert_eq!(d.verdict_flips.len(), 1);
        let f = &d.verdict_flips[0];
        assert_eq!(f.key, "t1r1");
        assert!(f.regressed && f.blocking);
        assert_eq!(d.observation_flips, vec![ObservationFlip { number: 1, holds_now: true }]);
        // goto_count 0 → 3 crossed the presence threshold.
        let m = d.metric_changes.iter().find(|m| m.name == "goto_count").unwrap();
        assert!(m.crossed_threshold);
        let text = d.render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("goto_count: 0 → 3"), "{text}");
    }

    #[test]
    fn improvement_is_drift_but_not_regression() {
        let d = RunDiff::between(&run(1, "non-compliant", true), &run(2, "partial", false));
        assert!(d.has_drift());
        assert!(!d.has_regression());
        assert!(!d.verdict_flips[0].regressed);
    }

    #[test]
    fn phase_regressions_use_the_bench_gate() {
        let a = run(1, "partial", false);
        let mut b = run(2, "partial", false);
        // checks: 5 ms → 11 ms is past 2×; parse: 4 ms → 7 ms is not.
        b.phases = vec![("parse".into(), 7000), ("checks".into(), 11_000)];
        let d = RunDiff::between(&a, &b);
        assert_eq!(d.phase_regressions.len(), 1);
        assert_eq!(d.phase_regressions[0].phase, "checks");
        assert!(!d.has_drift(), "perf alone is not compliance drift");
    }

    fn with_phases(pairs: &[(&str, f64)]) -> RunRecord {
        let mut r = run(1, "partial", false);
        r.phases = pairs.iter().map(|(n, ms)| (n.to_string(), (ms * 1000.0) as u64)).collect();
        r
    }

    #[test]
    fn regression_gate_fires_beyond_factor() {
        let base = with_phases(&[("parse", 10.0), ("checks", 5.0), ("tiny", 0.01)]);
        let ok = with_phases(&[("parse", 18.0), ("checks", 9.9), ("tiny", 0.5)]);
        assert!(phase_regressions(&base, &ok).is_empty());
        let bad = with_phases(&[("parse", 25.0), ("checks", 4.0)]);
        let r = phase_regressions(&base, &bad);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].phase, "parse");
        assert!(r[0].to_string().contains("2.5x"), "{}", r[0]);
    }

    #[test]
    fn noise_floor_suppresses_microsecond_phases() {
        let base = with_phases(&[("tiny", 0.05)]);
        // 0.05 ms -> 1.5 ms is 30x, but under the 2 ms (floor×factor) bar.
        let cur = with_phases(&[("tiny", 1.5)]);
        assert!(phase_regressions(&base, &cur).is_empty());
        let really_bad = with_phases(&[("tiny", 2.5)]);
        assert_eq!(phase_regressions(&base, &really_bad).len(), 1);
    }

    #[test]
    fn history_table_shows_deltas() {
        let runs =
            vec![run(1, "partial", false), run(2, "partial", false), run(3, "non-compliant", true)];
        let t = history_table(&runs, 0);
        assert_eq!(t.lines().count(), 4, "{t}");
        assert!(t.lines().nth(1).unwrap().contains('-'), "{t}");
        assert!(t.lines().nth(2).unwrap().contains("none"), "{t}");
        assert!(t.lines().nth(3).unwrap().contains("1v/1o regressed"), "{t}");
        let tail = history_table(&runs, 1);
        assert_eq!(tail.lines().count(), 2, "{tail}");
    }
}
