//! In-terminal flame summary: aggregated span tree with wall time.
//!
//! Reconstructs the nesting of one run's [`SpanEvent`]s from their
//! intervals, merges spans with the same name under the same parent
//! path (so 500 `parse.file` spans render as one line with a count),
//! and prints an indented tree with milliseconds, share of total, and
//! a proportional bar.

use crate::alloc::PhaseMem;
use crate::span::SpanEvent;
use std::collections::HashMap;

/// One aggregated node of the flame tree.
#[derive(Debug, Clone)]
struct Node {
    path: Vec<String>,
    total_us: u64,
    count: u64,
    first_start: u64,
}

/// Aggregates events into path → (time, count) nodes.
///
/// Events must come from one [`crate::drain_from`] (same thread);
/// nesting is recovered from interval containment per tid.
fn aggregate(events: &[SpanEvent]) -> Vec<Node> {
    let mut nodes: HashMap<Vec<String>, Node> = HashMap::new();
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut evs: Vec<&SpanEvent> = events.iter().filter(|e| e.tid == tid).collect();
        // Parents start no later than their children; at equal start the
        // smaller depth is the parent.
        evs.sort_by_key(|e| (e.start_us, e.depth));
        let mut stack: Vec<(u64, Vec<String>)> = Vec::new(); // (end_us, path)
        for e in evs {
            while let Some((end, _)) = stack.last() {
                if e.start_us >= *end {
                    stack.pop();
                } else {
                    break;
                }
            }
            let mut path =
                stack.last().map(|(_, p)| p.clone()).unwrap_or_default();
            path.push(e.name.clone());
            let node = nodes.entry(path.clone()).or_insert_with(|| Node {
                path: path.clone(),
                total_us: 0,
                count: 0,
                first_start: e.start_us,
            });
            node.total_us += e.dur_us;
            node.count += 1;
            node.first_start = node.first_start.min(e.start_us);
            stack.push((e.end_us(), path));
        }
    }
    let mut out: Vec<Node> = nodes.into_values().collect();
    out.sort_by(|a, b| (a.first_start, &a.path).cmp(&(b.first_start, &b.path)));
    out
}

/// Renders the flame summary. `max_children` bounds the lines printed
/// per nesting level (the rest are folded into an `… (+N more)` line).
pub fn flame_summary(events: &[SpanEvent], max_children: usize) -> String {
    flame_summary_with_mem(events, max_children, &[])
}

/// [`flame_summary`] plus a memory column: a `phase.*` frame whose
/// stripped name appears in `mem` (the run's per-phase allocation
/// bill, see `crate::RunScope::phase_mem`) gains a `Σ<bytes> alloc` annotation.
/// With `mem` empty the output is byte-identical to [`flame_summary`].
pub fn flame_summary_with_mem(
    events: &[SpanEvent],
    max_children: usize,
    mem: &[PhaseMem],
) -> String {
    let nodes = aggregate(events);
    let total_us: u64 = nodes.iter().filter(|n| n.path.len() == 1).map(|n| n.total_us).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "flame summary — {:.1} ms total, {} span(s)\n",
        total_us as f64 / 1000.0,
        events.len()
    ));
    if nodes.is_empty() {
        return out;
    }
    render_level(&nodes, &[], total_us.max(1), max_children, mem, &mut out);
    out
}

/// Rounds a byte count to a short human unit for the flame column.
pub(crate) fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        1024..=1048575 => format!("{:.1} KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", b as f64 / 1048576.0),
        _ => format!("{:.2} GiB", b as f64 / 1073741824.0),
    }
}

fn render_level(
    nodes: &[Node],
    prefix: &[String],
    total_us: u64,
    max_children: usize,
    mem: &[PhaseMem],
    out: &mut String,
) {
    let mut children: Vec<&Node> = nodes
        .iter()
        .filter(|n| n.path.len() == prefix.len() + 1 && n.path.starts_with(prefix))
        .collect();
    children.sort_by_key(|n| std::cmp::Reverse(n.total_us));
    let shown = children.len().min(max_children);
    let folded: u64 = children[shown..].iter().map(|n| n.total_us).sum();
    let mut displayed: Vec<&Node> = children[..shown].to_vec();
    // Chronological reads better than time-sorted within a level.
    displayed.sort_by_key(|n| n.first_start);
    for node in displayed {
        let pct = node.total_us as f64 * 100.0 / total_us as f64;
        let bar_len = ((pct / 5.0).round() as usize).min(20);
        let name = node.path.last().expect("non-root node");
        let label = if node.count > 1 {
            format!("{name} (×{})", node.count)
        } else {
            name.clone()
        };
        let mem_col = name
            .strip_prefix("phase.")
            .and_then(|p| mem.iter().find(|m| m.name == p))
            .map(|m| format!("  Σ{} alloc", fmt_bytes(m.bytes)))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:indent$}{label:<width$} {:>9.2} ms {pct:>5.1}% {bar}{mem_col}\n",
            "",
            node.total_us as f64 / 1000.0,
            indent = 2 * prefix.len(),
            width = 44usize.saturating_sub(2 * prefix.len()),
            bar = "#".repeat(bar_len),
        ));
        render_level(nodes, &node.path, total_us, max_children, mem, out);
    }
    if folded > 0 {
        out.push_str(&format!(
            "  {:indent$}… (+{} more, {:.2} ms)\n",
            "",
            children.len() - shown,
            folded as f64 / 1000.0,
            indent = 2 * prefix.len(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: u64, dur: u64, depth: usize) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "t",
            start_us: start,
            dur_us: dur,
            depth,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn nesting_and_merging() {
        let events = vec![
            ev("run", 0, 1000, 0),
            ev("phase.parse", 0, 600, 1),
            ev("parse.file", 10, 200, 2),
            ev("parse.file", 220, 300, 2),
            ev("phase.checks", 600, 400, 1),
        ];
        let s = flame_summary(&events, 10);
        assert!(s.contains("run"), "{s}");
        assert!(s.contains("parse.file (×2)"), "{s}");
        assert!(s.contains("phase.checks"), "{s}");
        // Merged child time: 0.5 ms.
        assert!(s.contains("0.50 ms"), "{s}");
    }

    #[test]
    fn folding_beyond_max_children() {
        let mut events = vec![ev("run", 0, 1000, 0)];
        for i in 0..8 {
            events.push(ev(&format!("child{i}"), i * 100, 50, 1));
        }
        let s = flame_summary(&events, 3);
        assert!(s.contains("(+5 more"), "{s}");
    }

    #[test]
    fn empty_events_render() {
        let s = flame_summary(&[], 10);
        assert!(s.contains("0 span(s)"), "{s}");
    }

    #[test]
    fn memory_column_annotates_matching_phases_only() {
        let events = vec![
            ev("run", 0, 1000, 0),
            ev("phase.parse", 0, 600, 1),
            ev("parse.file", 10, 200, 2),
            ev("phase.checks", 600, 400, 1),
        ];
        let mem = vec![PhaseMem {
            name: "parse".to_string(),
            allocs: 12,
            bytes: 3 * 1024 * 1024,
            peak_live: 4 * 1024 * 1024,
        }];
        let s = flame_summary_with_mem(&events, 10, &mem);
        let parse_line = s.lines().find(|l| l.contains("phase.parse")).unwrap();
        assert!(parse_line.contains("Σ3.0 MiB alloc"), "{s}");
        let checks_line = s.lines().find(|l| l.contains("phase.checks")).unwrap();
        assert!(!checks_line.contains("alloc"), "unprofiled phases stay clean: {s}");
        let file_line = s.lines().find(|l| l.contains("parse.file")).unwrap();
        assert!(!file_line.contains("alloc"), "non-phase frames stay clean: {s}");
        // No memory data → byte-identical to the plain renderer.
        assert_eq!(flame_summary_with_mem(&events, 10, &[]), flame_summary(&events, 10));
    }

    #[test]
    fn byte_formatting_rounds_to_short_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(1023), "1023 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }
}
